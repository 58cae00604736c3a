"""Solver tests.

Oracles: the drift-diffusion flow is checked against a method-of-lines
integration (solve_ivp, FFT eta-derivative), and the free flow S against
its closed form and a per-call reference; at nu = 0, where S is the
collisionless transport, against whole-column shifts and the phase-mixing
law; moments against Gauss-Hermite quadrature in physical variables; the
composed step against Richardson self-convergence and the independently
discretized density equation.  Everything else is structural: exact fixed
points, exact conservation columns, guard trips.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.special import roots_hermite

from vpfp.errors import AliasingError, DomainError, StateEscapeError
from vpfp import solver
from vpfp.grids import PhaseGrid, SpectralField, mirrored
from vpfp.semigroup import s_general_exponent
from vpfp.linear_theory import (InteractionKernel, VolterraProblem,
                                free_streaming_source, mu_hat,
                                volterra_solve)
from vpfp.solver import (HydroMoments, InitialData, Mode, Stepper, _FreeFlow,
                         _cached_stepper, _eta_stencils, _stepper,
                         compute_moments, conserved_quantities, init_state,
                         march, run_simulation, step)


def small_grid(k_max=2, eta_max=16.0, n_eta=256):
    return PhaseGrid(k_max=k_max, eta_max=eta_max, n_eta=n_eta,
                     dt=2.0 * eta_max / n_eta)


def coulomb(k_max):
    return InteractionKernel.coulomb(k_max=k_max)


def total_energy(c):
    """Kinetic plus field energy: the conserved total."""
    return c.kinetic_energy + c.field_energy


def ref_closure_solve(rho_mat, rhs):
    """Contraction iteration x <- rhs - rho * x for (1 + rho) x = rhs, run
    to an l1 increment at most 1e-14 of the l1 norm of rhs; converges while
    sup|rho| < 1."""
    tol = 1e-14 * float(np.sum(np.abs(rhs)))
    x = rhs.copy()
    for _ in range(256):
        x_new = rhs - rho_mat @ x
        inc = float(np.sum(np.abs(x_new - x)))
        x = x_new
        if inc <= tol:
            return x
    raise AssertionError("closure iteration failed to converge")


def closure_residuals(m):
    """Relative l1 residuals of the closure identities (1 + rho) u = m1 and
    (1 + rho) T = m_t."""
    ru = m.u + ref_conv_matrix(m.rho) @ m.u - m.m1
    rt = m.T + ref_conv_matrix(m.rho) @ m.T - m.m_t
    s1 = max(float(np.sum(np.abs(m.m1))), 1e-300)
    st = max(float(np.sum(np.abs(m.m_t))), 1e-300)
    return {"u": float(np.sum(np.abs(ru))) / s1,
            "T": float(np.sum(np.abs(rt))) / st}


def rel_gap(got, want):
    """max|got - want| over max|want|."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def rhs_full(field, m, nu, w):
    """The full coupling RHS of the field's state at moments m, by the
    stepper of (grid, kernel, nu)."""
    return _stepper(field.grid, w, nu, "full").rhs_full(
        field.data, m.rho, m.m1, m.m_t, m.e_field)


def conv_matrix(coeffs):
    """The stepper's convolution matrix of coeffs, through a fresh pad."""
    n = coeffs.shape[0]
    conv = _stepper(small_grid(k_max=n // 2), coulomb(n // 2)).conv
    return conv(np.zeros(2 * n - 1, dtype=coeffs.dtype), coeffs)


class TestConvMatrix:
    def test_matches_direct_truncated_convolution(self):
        rng = np.random.default_rng(7)
        n = 9  # k in [-4, 4]
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = conv_matrix(a) @ b
        want = np.zeros(n, dtype=complex)
        for i in range(n):
            for j in range(n):
                d = i - j  # k_i - k_j offset
                if abs(d) <= n // 2:
                    want[i] += a[d + n // 2] * b[j]
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))

    def test_identity_on_delta(self):
        n = 5
        delta = np.zeros(n, dtype=complex)
        delta[n // 2] = 1.0  # the k=0 mode is the convolution identity
        x = np.arange(1.0, n + 1) + 2j
        assert np.array_equal(conv_matrix(delta) @ x, x)


class TestTransportStep:
    # the collisionless free flow S(dt): the nu = 0 free-flow plan
    def test_zero_mode_row_unchanged(self):
        g = small_grid()
        f = SpectralField.zeros(g)
        f.data[g.k_index(0)] = np.exp(-g.eta ** 2 / 2)
        before = f.data[g.k_index(0)].copy()
        f.data = _FreeFlow.build(g, 0.0, g.dt)(f.data)
        assert np.array_equal(f.data[g.k_index(0)], before)

    def test_delta_shifts_one_cell(self):
        g = small_grid()
        f = SpectralField.zeros(g)
        f.data[g.k_index(1), g.i_zero] = 1.0
        f.data = _FreeFlow.build(g, 0.0, g.dt)(f.data)
        # reading h(eta + k dt): the stored sample moves one cell down
        assert f.data[g.k_index(1), g.i_zero - 1] == 1.0
        assert f.data[g.k_index(1), g.i_zero] == 0.0

    def test_gaussian_rows_shift_exactly(self):
        g = small_grid(k_max=2, eta_max=16.0, n_eta=256)
        f = SpectralField.zeros(g)
        datum = {}
        for k in (-2, -1, 1, 2):
            row = np.exp(-(g.eta - 0.5 * k) ** 2 / 2.0) * (1.0 + 0.3 * k)
            f.data[g.k_index(k)] = row
            datum[k] = row.copy()
        n_steps = 12
        flow = _FreeFlow.build(g, 0.0, g.dt)
        for _ in range(n_steps):
            f.data = flow(f.data)
        for k in (-2, -1, 1, 2):
            shift = k * n_steps
            got = f.data[g.k_index(k)]
            lo, hi = max(0, -shift), min(g.n_eta, g.n_eta - shift)
            assert np.array_equal(got[lo:hi], datum[k][lo + shift:hi + shift])

    def test_phase_mixing_closed_form(self):
        # |rho(t,1)| = e^{-t^2/2} |rho(0,1)| for a unit-width Gaussian datum
        g = small_grid(k_max=1, eta_max=24.0, n_eta=384)
        w = coulomb(1)
        f, _ = init_state(InitialData(eps=0.1, modes=(Mode(1, 1.0, 0.0, 1.0),)), g, w)
        r0 = abs(f.data[g.k_index(1), g.i_zero])
        worst = 0.0
        flow = _FreeFlow.build(g, 0.0, g.dt)
        for n in range(1, 81):
            f.data = flow(f.data)
            t = n * g.dt
            worst = max(worst, abs(abs(f.data[g.k_index(1), g.i_zero])
                                   - r0 * np.exp(-t * t / 2.0)))
        assert worst < 1e-8

    def test_boundary_loss_raises(self):
        g = small_grid(k_max=1, eta_max=8.0, n_eta=64)
        f = SpectralField.zeros(g)
        f.data[g.k_index(1)] = np.exp(-(g.eta + 7.0) ** 2 / 2.0)
        flow = _FreeFlow.build(g, 0.0, g.dt)
        with pytest.raises(AliasingError):
            for _ in range(16):
                f.data = flow(f.data)


class TestPhaseGrid:
    @pytest.mark.parametrize("eta_max,dt", [
        (1.0, math.nan), (math.inf, math.inf), (math.nan, math.nan)])
    def test_non_finite_geometry_rejected(self, eta_max, dt):
        with pytest.raises(DomainError):
            PhaseGrid(k_max=1, eta_max=eta_max, n_eta=8, dt=dt)

    @pytest.mark.parametrize("k_max,n_eta", [
        (1.5, 64), (2.0, 64), (math.nan, 64), (2, 64.0), (2, 63.5)])
    def test_non_integer_size_rejected(self, k_max, n_eta):
        # a float size would reach numpy's TypeError in SpectralField.zeros
        with pytest.raises(DomainError, match="not an integer"):
            PhaseGrid(k_max=k_max, eta_max=8.0, n_eta=n_eta, dt=16.0 / n_eta)

    def test_numpy_integer_sizes_accepted(self):
        g = PhaseGrid(k_max=np.int64(2), eta_max=8.0, n_eta=np.int64(64),
                      dt=0.25)
        assert SpectralField.zeros(g).data.shape == (5, 64)


class TestSpectralField:
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_complex_data_rejected(self, dtype):
        g = small_grid()
        with pytest.raises(DomainError, match="real"):
            SpectralField(grid=g, data=np.zeros((g.n_k, g.n_eta), dtype=dtype))

    def test_real_data_stored_as_float64(self):
        g = small_grid()
        f = SpectralField(grid=g, data=np.ones((g.n_k, g.n_eta), dtype=np.float32))
        assert f.data.dtype == np.float64
        assert SpectralField.zeros(g).data.dtype == np.float64


def closed_form_flow(g, nu, dt, datum):
    """S(dt) of the rows datum(k, eta) in closed form: each row read at the
    foot e^(-nu dt) eta - k expm1(-nu dt) / nu of its characteristic, times
    the damping along it."""
    k = g.k_values[:, None]
    foot = math.exp(-nu * dt) * g.eta - k * math.expm1(-nu * dt) / nu
    return datum(k, foot) * np.exp(s_general_exponent(dt, 0.0, k, foot, nu))


def ref_shear(g, y):
    """The collisionless free flow h(k, eta) <- h(k, eta + k dt) of the rows
    y in whole columns: row k's interior is y's row shifted by k columns,
    and its k inflow columns the Maxwellian's image y(k, 0) mu(eta + k dt).
    Returns the flow, the mask of its interior and the mask of the entries
    of y it carries off the window."""
    j = np.arange(g.n_eta)
    foot = j + g.k_values[:, None]
    inside = (foot >= 0) & (foot < g.n_eta)
    shifted = np.take_along_axis(y, np.clip(foot, 0, g.n_eta - 1), axis=1)
    image = y[:, g.i_zero, None] * mu_hat((foot - g.i_zero) * g.d_eta)
    lost = (j - g.k_values[:, None] < 0) | (j - g.k_values[:, None] >= g.n_eta)
    return np.where(inside, shifted, image), inside, lost


def ref_nu0_sums(g, y):
    """The nu = 0 flow of the rows y added up as the plan adds it up, with
    every foot a whole column: at each point the six node products in node
    order, then y(k, 0) times the defect, the Maxwellian's image minus the
    same sum over mu.  The nodes move inside the window at its edges, a
    moved node weighing +0.0, and the weights at a whole column are
    0, -0, 1, 0, -0, 0 as the Lagrange product rounds them; so the sum
    predicts the sign of every zero."""
    n = g.n_eta
    cell = np.arange(n) + g.k_values[:, None]
    first = np.clip(cell - 2, 0, n - 6)
    src = first - (cell - 2) + np.arange(6)[:, None, None]
    at_zero = np.array([0.0, -0.0, 1.0, 0.0, -0.0, 0.0])
    weights = np.where((src >= 0) & (src < 6), at_zero[np.clip(src, 0, 5)],
                       0.0)

    def node_sum(rows):
        acc = weights[0] * np.take_along_axis(rows, first, axis=1)
        for j in range(1, 6):
            acc = acc + weights[j] * np.take_along_axis(rows, first + j,
                                                        axis=1)
        return acc

    mu = np.tile(mu_hat(g.eta), (g.n_k, 1))
    defect = mu_hat((cell - g.i_zero) * g.d_eta) - node_sum(mu)
    return node_sum(y) + y[:, g.i_zero, None] * defect


def ref_free_flow(g, nu, dt, y):
    """S(dt) of the rows y rebuilt per call: the closed-form foot, the
    Lagrange weights of the six nodes around it in absolute column
    coordinates, zero beyond the window, the damping, and the same
    correction by the interpolation error of the Maxwellian flow."""
    n = g.n_eta
    k = g.k_values[:, None]
    foot = math.exp(-nu * dt) * g.eta - k * math.expm1(-nu * dt) / nu
    damp = np.exp(s_general_exponent(dt, 0.0, k, foot, nu))
    u = foot / g.d_eta + g.i_zero
    nodes = np.floor(u)[None] + np.arange(-2, 4)[:, None, None]
    weights = np.ones_like(nodes)
    for j in range(6):
        for m in range(6):
            if m != j:
                weights[j] *= (u - nodes[m]) / (nodes[j] - nodes[m])
    inside = (nodes >= 0) & (nodes < n)
    cols = np.clip(nodes, 0, n - 1).astype(int)

    def interpolate(rows):
        vals = np.take_along_axis(np.broadcast_to(rows, nodes.shape), cols,
                                  axis=2)
        return np.where(inside, weights * vals, 0.0).sum(axis=0) * damp

    mu = np.exp(-0.5 * g.eta ** 2)
    defect = np.exp(-0.5 * foot ** 2) * damp - interpolate(
        np.tile(mu, (g.n_k, 1)))
    return interpolate(y) + y[:, g.i_zero, None] * defect


class TestOuStep:
    """The plan of the step's free flow S(dt), the collisional free
    streaming; on the k = 0 row it is the drift-diffusion (OU) flow."""

    def test_maxwellian_rows_exactly_invariant(self):
        # the k = 0 row is invariant, and every other Maxwellian row goes
        # to its closed-form image
        g = small_grid()
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(g.n_k)
        before = np.outer(coeffs, np.exp(-g.eta ** 2 / 2))
        got = _FreeFlow.build(g, 0.3, 0.7)(before)
        want = coeffs[:, None] * closed_form_flow(
            g, 0.3, 0.7, lambda _k, e: np.exp(-0.5 * e ** 2))
        scale = np.max(np.abs(before))
        assert np.max(np.abs(got - want)) < 1e-13 * scale
        i0 = g.k_index(0)
        assert np.max(np.abs(got[i0] - before[i0])) < 1e-13 * scale

    def test_mass_column_exact(self):
        g = small_grid()
        rng = np.random.default_rng(4)
        before = rng.standard_normal((g.n_k, g.n_eta)) * np.exp(
            -g.eta ** 2 / 4)[None, :]
        after = _FreeFlow.build(g, 0.2, 0.5)(before)
        assert after[g.k_index(0), g.i_zero] == before[g.k_index(0), g.i_zero]

    def test_closed_form_matches_method_of_lines(self):
        # certifies the propagator formula itself on a mid-size grid
        nu, dt, c = 0.1, 0.1, 2.0
        g = PhaseGrid(k_max=1, eta_max=12.0, n_eta=2400, dt=0.01)
        eta = g.eta
        h0 = np.exp(-(eta - c) ** 2 / 2.0)
        om = 2 * np.pi * np.fft.fftfreq(g.n_eta, d=g.d_eta)

        def rhs(t, y):
            dy = np.fft.ifft(1j * om * np.fft.fft(y)).real
            return nu * (-eta ** 2 * y - eta * dy)

        sol = solve_ivp(rhs, (0.0, dt), h0, rtol=1e-12, atol=1e-15,
                        t_eval=[dt], method="DOP853")
        closed = (np.exp(-(np.exp(-nu * dt) * eta - c) ** 2 / 2.0)
                  * np.exp(0.5 * np.expm1(-2 * nu * dt) * eta ** 2))
        assert np.max(np.abs(sol.y[:, -1] - closed)) < 1e-12

    def test_generic_bump_matches_oracle_to_1e8(self):
        # 484 columns is the coarsest spacing at which the six-point plan
        # is 10 times inside the bound (9.9e-10)
        nu, dt, c = 0.1, 0.1, 2.0
        n = 484
        g = PhaseGrid(k_max=1, eta_max=12.0, n_eta=n, dt=24.0 / n)
        eta = g.eta
        f = SpectralField.zeros(g)
        for k in (0, 1):
            f.data[g.k_index(k)] = np.exp(-(eta - c) ** 2 / 2.0)
        f.data = _FreeFlow.build(g, nu, dt)(f.data)
        # on k = 0 the flow is the drift-diffusion flow alone
        closed = (np.exp(-(np.exp(-nu * dt) * eta - c) ** 2 / 2.0)
                  * np.exp(0.5 * np.expm1(-2 * nu * dt) * eta ** 2))
        err = np.max(np.abs(f.data[g.k_index(0)] - closed))
        assert err < 1e-8
        closed = closed_form_flow(g, nu, dt,
                                  lambda _k, e: np.exp(-(e - c) ** 2 / 2.0))
        err = np.max(np.abs(f.data[g.k_index(1)] - closed[g.k_index(1)]))
        assert err < 1e-8

    # the benchmark lattices (landau, echo, threshold, weighted energy), the
    # acceptance test_04 lattice, and one whose spacing 1/30 is not a power
    # of two; as (k_max, eta_max, n_eta)
    LATTICES = [(1, 153.25, 2452), (4, 142.0, 1136), (2, 146.0, 584),
                (2, 64.0, 512), (16, 128.0, 2048), (3, 15.0, 900)]

    @staticmethod
    def rough_rows(rng, n_rows, n_eta):
        """Rows with flat zero stretches, sign flips, exact zeros, -0.0 and
        underflowed tails."""
        x = np.linspace(-1.0, 1.0, n_eta)
        y = (rng.standard_normal((n_rows, n_eta))
             * np.exp(-rng.uniform(5.0, 900.0, (n_rows, 1)) * x ** 2))
        y[:, n_eta // 5: n_eta // 5 + 25] = 0.0
        y[:, n_eta // 3: n_eta // 3 + 15] = -0.0
        y[0, ::7] = -0.0
        y[1, ::3] *= -1.0
        y[:, -30:] = 1e-310
        y[-1] = np.exp(-0.5 * (40.0 * x) ** 2)
        j = n_eta // 2
        y[2, j - 1: j + 3] = [0.25, -0.0, -1.0, -101.0]
        return y

    @pytest.mark.parametrize("k_max,eta_max,n_eta", LATTICES)
    # at 1e-17 the contraction rounds to 1 and the feet sit a rounding
    # error from the nodes
    @pytest.mark.parametrize("nu_dt", [1e-17, 1e-10, 1e-6, 1e-3, 0.3])
    def test_resampler_matches_scipy_pchip_bit_for_bit(self, k_max, eta_max,
                                                       n_eta, nu_dt):
        # the name dates from the PCHIP resampler that the six-point plan
        # replaced; the check is now that polynomials of degree <= 5 are
        # carried to rounding at every point whose six nodes are inside
        # the window
        g = PhaseGrid(k_max=k_max, eta_max=eta_max, n_eta=n_eta,
                      dt=2.0 * eta_max / n_eta)
        nu, dt = 1e-2, nu_dt / 1e-2
        coeffs = np.random.default_rng(n_eta).standard_normal((g.n_k, 6))

        def poly(k, e):
            x = np.broadcast_to(e / eta_max, (g.n_k, n_eta))
            return sum(coeffs[:, j, None] * x ** j for j in range(6))

        got = _FreeFlow.build(g, nu, dt).resample(poly(None, g.eta))
        want = closed_form_flow(g, nu, dt, poly)
        k = g.k_values[:, None]
        foot = math.exp(-nu * dt) * g.eta - k * math.expm1(-nu * dt) / nu
        start = np.floor(foot / g.d_eta + g.i_zero) - 2
        # exp of an exponent x carries the rounding of x times |x|, and
        # the damped values that reach the subnormal range keep fewer
        # digits, so those are not compared
        exponent = s_general_exponent(dt, 0.0, k, foot, nu)
        damp = np.exp(exponent)
        check = (start >= 1) & (start <= n_eta - 7) & (damp > 1e-280)
        assert check[g.k_index(0)].any()
        tol = 1e-13 * np.max(np.abs(coeffs)) * damp * (1.0 - exponent)
        assert np.all(np.abs(got - want)[check] <= tol[check])

    @staticmethod
    def sparse_rows(case, n_rows, n_eta):
        """Rows that are zero outside a few columns, or all zero, to test
        that the plan's window over the nonzero columns is exact."""
        rng = np.random.default_rng(n_eta)
        y = np.zeros((n_rows, n_eta))
        j = n_eta // 2

        def bump(width):
            return rng.standard_normal(width) * np.exp(
                -np.linspace(-3.0, 3.0, width) ** 2)

        if case == "zero_stretches":
            for r, lo in enumerate(range(n_eta // 9, n_eta - 40,
                                         n_eta // 9)):
                y[r % n_rows, lo:lo + 30] = bump(30)
        elif case == "touches_first_column":
            y[0, :12] = bump(12)
            y[-1, 0] = -1e-3
        elif case == "touches_last_column":
            y[1, -12:] = bump(12)
            y[-2, -1] = 2.5
        elif case == "narrow_support":
            # one, two and three nonzero columns, in the middle and one
            # column in from either edge
            y[0, j] = 1.0
            y[1, j + 5: j + 7] = [-0.5, 2.0]
            y[2, j - 9: j - 6] = [1.0, -1.0, 1.0]
            y[-2, 1] = 0.75
            y[-1, n_eta - 2] = -0.25
        elif case == "negative_zero_stretches":
            y[:, :] = -0.0
            y[0, j: j + 40] = bump(40)
            y[1, j + 10: j + 20] = -0.0
            y[2, j - 3] = 1.0
        elif case == "subnormal_tails":
            y[0, j - 20: j + 20] = bump(40)
            y[0, j - 30: j - 20] = 5e-324
            y[1, j + 20: j + 35] = -1e-310
            y[2, j - 2] = 5e-324
        elif case == "real_field":
            # rough rows over a block of all-zero rows
            y = TestOuStep.rough_rows(rng, n_rows, n_eta)
            y[n_rows // 2 + 1:] = 0.0
        elif case == "inner_rows":
            y[1, j - 50: j + 50] = bump(100)
            y[-2, j + 60: j + 90] = bump(30)
        return y

    @staticmethod
    def full_resample(plan, y):
        """The plan's six products at every point, with no window."""
        flat = y.reshape(-1)
        acc = plan.weights[0] * flat[plan.base]
        for j in range(1, 6):
            acc += plan.weights[j] * flat[plan.base + j]
        return acc

    SPARSE_CASES = ["all_zero", "zero_stretches", "touches_first_column",
                    "touches_last_column", "narrow_support",
                    "negative_zero_stretches", "subnormal_tails",
                    "real_field", "inner_rows"]

    @pytest.mark.parametrize("case", SPARSE_CASES)
    @pytest.mark.parametrize("nu_dt", [1e-17, 1e-10, 1e-6, 1e-3, 0.3])
    def test_window_matches_scipy_pchip_bit_for_bit(self, case, nu_dt):
        # the name dates from the PCHIP resampler that the six-point plan
        # replaced; the check is now that the windowed plan gives the
        # bytes of the unwindowed six-point sum, and the stale contents of
        # the scratch never reach them; a point whose nodes all read zeros
        # is +0.0 in the window and may be -0.0 without it
        nu, dt = 1e-2, nu_dt / 1e-2
        for k_max, eta_max, n_eta in self.LATTICES:
            g = PhaseGrid(k_max=k_max, eta_max=eta_max, n_eta=n_eta,
                          dt=2.0 * eta_max / n_eta)
            y = self.sparse_rows(case, g.n_k, n_eta)
            plan = _FreeFlow.build(g, nu, dt)
            want = self.full_resample(plan, y)
            assert np.array_equal(plan.resample(y), want), (k_max, n_eta)
            term = np.full(y.size, np.nan)
            index = np.full(y.size, -1, dtype=np.intp)
            assert np.array_equal(plan.resample(y, term, index), want)

    def test_window_matches_full_resample_on_random_sparse_rows(self):
        # seeded row sets with up to three nonzero stretches each, of
        # random place, width, sign, -0.0 and subnormal entries
        rng = np.random.default_rng(11)
        for trial in range(60):
            k_max, eta_max, n_eta = self.LATTICES[trial % len(self.LATTICES)]
            g = PhaseGrid(k_max=k_max, eta_max=eta_max, n_eta=n_eta,
                          dt=2.0 * eta_max / n_eta)
            nu_dt = (1e-17, 1e-10, 1e-6, 1e-3, 0.3)[trial % 5]
            y = np.zeros((g.n_k, n_eta))
            for _ in range(int(rng.integers(1, 4))):
                r = int(rng.integers(0, y.shape[0]))
                lo = int(rng.integers(0, n_eta))
                vals = y[r, lo:lo + int(rng.integers(1, 60))]
                vals[:] = (rng.choice([1.0, -1.0, -0.0, 1e-310, -5e-324],
                                      vals.size)
                           * rng.uniform(0.5, 2.0, vals.size))
            plan = _FreeFlow.build(g, 1.0, nu_dt)
            want = self.full_resample(plan, y)
            assert np.array_equal(plan.resample(y), want), trial

    @pytest.mark.parametrize("k_max,eta_max,n_eta", LATTICES[:4])
    def test_plan_matches_per_call_reference(self, k_max, eta_max, n_eta):
        # the reference rebuilds the feet, weights and defect per call
        g = PhaseGrid(k_max=k_max, eta_max=eta_max, n_eta=n_eta,
                      dt=2.0 * eta_max / n_eta)
        nu = 1e-3
        y = self.rough_rows(np.random.default_rng(7), g.n_k, n_eta)
        want = ref_free_flow(g, nu, g.dt, y)
        got = _FreeFlow.build(g, nu, g.dt)(y)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(y))

    def test_nu0_plan_is_the_integer_shift(self):
        # bit for bit on rough rows: the interior of row k is its shift by
        # k columns, and its k inflow columns carry the Maxwellian's image
        # y(k, 0) mu(eta + k dt).  A point sums six products and the defect
        # term, so a zero keeps its sign only when all seven are -0.0; the
        # sums in node order give every entry's bytes, zeros included.
        g = small_grid()
        plan = _stepper(g, coulomb(2), 0.0, "full").flow
        y = self.rough_rows(np.random.default_rng(5), g.n_k, g.n_eta)
        y[:, :3] = y[:, -3:] = 0.0
        got = plan(y)
        assert got.tobytes() == ref_nu0_sums(g, y).tobytes()
        want, inside, _ = ref_shear(g, y)
        kept = inside & (want != 0.0)
        assert got[kept].tobytes() == want[kept].tobytes()
        assert np.array_equal(got[inside], want[inside])
        assert got[~inside].tobytes() == want[~inside].tobytes()

    @pytest.mark.parametrize("k_max,eta_max,n_eta,dt", [
        pytest.param(2, 16.0, 256, None, id="2-16.0-256"),
        pytest.param(3, 10.0, 96, None, id="3-10.0-96"),
        pytest.param(3, 15.0, 900, None, id="3-15.0-900"),
        pytest.param(2, 7.3, 40, None, id="2-7.3-40"),
        # built as experiments._window builds it, eta_max = 53 * 0.2: the
        # spacing 2 eta_max / n_eta is 0.2 plus one ulp
        pytest.param(2, 53 * 0.2, 106, 0.2, id="window-0.2-53")])
    def test_nu0_plan_is_column_arithmetic(self, k_max, eta_max, n_eta, dt):
        # the feet and images are counted in columns, so on dyadic and
        # non-dyadic spacings alike, and with dt off the spacing by
        # rounding, the plan is the exact shift
        g = PhaseGrid(k_max=k_max, eta_max=eta_max, n_eta=n_eta,
                      dt=dt or 2.0 * eta_max / n_eta)
        plan = _FreeFlow.build(g, 0.0, g.dt)
        rng = np.random.default_rng(n_eta)
        y = rng.standard_normal((g.n_k, n_eta)) * np.exp(-g.eta ** 2)
        want, inside, lost = ref_shear(g, y)
        assert plan(y)[inside].tobytes() == want[inside].tobytes()
        assert np.array_equal(plan.drop, np.flatnonzero(lost))
        c = rng.standard_normal((g.n_k, 1))
        maxwellian = c * mu_hat(g.eta)
        if eta_max < 10.0:
            # mu at this window's edge is above the dropped-amplitude guard
            with pytest.raises(AliasingError, match="dropped amplitude"):
                plan(maxwellian)
            return
        got = plan(maxwellian)
        foot = np.arange(n_eta) + g.k_values[:, None]
        image = c * mu_hat((foot - g.i_zero) * g.d_eta)
        assert got.tobytes() == image.tobytes()
        i0 = g.k_index(0), g.i_zero
        assert got[i0].tobytes() == maxwellian[i0].tobytes()

    def test_dropped_amplitude_raises(self):
        # content that the flow carries past the window edge, on a row
        # the shift moves toward it and on the k = 0 row, which the
        # collisional expansion widens past eta = -eta_max
        g = small_grid(k_max=1, eta_max=8.0, n_eta=64)
        plan = _FreeFlow.build(g, 0.1, g.dt)
        for row, col in ((g.k_index(1), 0), (g.k_index(0), 0)):
            y = np.zeros((g.n_k, g.n_eta))
            y[:, 20:40] = 1.0
            y[row, col] = 1e-6
            with pytest.raises(AliasingError, match="dropped amplitude"):
                plan(y)
            y[row, col] = 1e-14
            plan(y)

    def test_plan_keyed_on_whole_grid(self):
        # the step's free-flow plan lives in its stepper, cached on the
        # whole grid, the kernel row, nu and mode
        a = small_grid(eta_max=16.0, n_eta=256)
        b = small_grid(eta_max=8.0, n_eta=256)
        w = coulomb(2)
        sa, sb = _stepper(a, w, 0.1, "full"), _stepper(b, w, 0.1, "full")
        assert sa is not sb
        assert not np.array_equal(sa.flow.weights, sb.flow.weights)
        assert not np.array_equal(sa.flow.defect, sb.flow.defect)
        assert _stepper(small_grid(eta_max=16.0, n_eta=256), w, 0.1,
                        "full") is sa
        custom = InteractionKernel(table={1: 0.7, -1: 0.7})
        others = [_stepper(a, custom, 0.1, "full"),
                  _stepper(a, w, 0.2, "full"), _stepper(a, w, 0.1, "linear")]
        assert all(o is not sa for o in others)
        assert not np.array_equal(others[0].force_row, sa.force_row)

    def test_plan_arrays_read_only(self):
        plan = _stepper(small_grid(), coulomb(2), 0.1, "full").flow
        for f in fields(plan):
            a = getattr(plan, f.name)
            if isinstance(a, np.ndarray):
                with pytest.raises(ValueError):
                    a.flat[0] = 1
        assert plan.weights.ndim == 3

    def test_cached_plan_gives_same_bytes(self):
        # the first step on a key builds its stepper, the next reuses it
        g = small_grid()
        w = coulomb(2)
        f1, _ = init_state(InitialData(eps=1e-3, modes=(Mode(1, 1.0),)), g, w)
        f2 = f1.copy()
        nu = 0.37   # a key no other test uses: the first step builds it
        start = _cached_stepper.cache_info()
        step(f1, nu, w, "full")
        built = _cached_stepper.cache_info()
        step(f2, nu, w, "full")
        reused = _cached_stepper.cache_info()
        assert built.misses == start.misses + 1
        assert reused.hits == built.hits + 1
        assert reused.misses == built.misses
        assert f1.data.tobytes() == f2.data.tobytes()

    @pytest.mark.parametrize("j,tol", [(1, 5e-7), (2, 5e-6)])
    def test_hermite_profile_decay_rates(self, j, tol):
        # eta^j e^{-eta^2/2} on the k = 0 row picks up exactly e^{-j nu dt}
        nu, dt = 0.1, 0.1
        g = PhaseGrid(k_max=1, eta_max=8.0, n_eta=3200, dt=0.005)
        prof = g.eta ** j * np.exp(-g.eta ** 2 / 2)
        f = SpectralField.zeros(g)
        f.data[g.k_index(0)] = prof
        f.data = _FreeFlow.build(g, nu, dt)(f.data)
        expect = np.exp(-j * nu * dt) * prof
        assert np.max(np.abs(f.data[g.k_index(0)] - expect)) < tol


class TestComputeMoments:
    def test_zero_perturbation(self):
        g = small_grid()
        f = SpectralField.zeros(g)
        m = compute_moments(f, coulomb(2))
        for arr in (m.rho, m.m1, m.m2, m.u, m.m_t, m.T, m.e_field):
            assert np.all(arr == 0)

    def test_single_mode_formulas(self):
        eps = 1e-3
        g = small_grid(k_max=2)
        w = coulomb(2)
        f = SpectralField.zeros(g)
        mu = np.exp(-g.eta ** 2 / 2)
        f.data[g.k_index(1)] = eps * mu
        f.data[g.k_index(-1)] = eps * mu
        m = compute_moments(f, w)
        assert m.rho[g.k_index(1)] == eps
        assert abs(m.e_field[g.k_index(1)] - (-1j * eps * w(1))) < 1e-18
        assert abs(m.e_field[g.k_index(-1)] - (1j * eps * w(-1))) < 1e-18

    def test_shifted_maxwellian_velocity(self):
        # counter-streaming Maxwellians sin(x) (mu(v-a) - mu(v+a)) / 2, a
        # real parity-even datum, transform to h(+-1, eta) = -+ sin(a eta)
        # mu_hat / 2: zero density and momentum a sin(x), whose k = 1
        # coefficient is -i a / 2
        a = 1e-3
        g = PhaseGrid(k_max=1, eta_max=8.0, n_eta=800, dt=0.02)
        f = SpectralField.zeros(g)
        row = 0.5 * np.sin(a * g.eta) * np.exp(-g.eta ** 2 / 2)
        f.data[g.k_index(1)] = -row
        f.data[g.k_index(-1)] = row
        m = compute_moments(f, coulomb(1))
        assert np.all(m.rho == 0)
        u1 = m.u[g.k_index(1)]
        assert abs(u1 - (-0.5j * a)) < 1e-6
        # Gauss-Hermite oracle for the first moment in physical variables:
        # integral of v (mu(v-a) - mu(v+a)) / 2 dv
        nodes, weights = roots_hermite(80)
        v = np.sqrt(2.0) * nodes
        vals = v * (np.exp(-(v - a) ** 2 / 2)
                    - np.exp(-(v + a) ** 2 / 2)) / (2.0 * np.sqrt(2 * np.pi))
        oracle = np.sum(weights * vals * np.exp(nodes ** 2) * np.sqrt(2.0))
        assert abs(oracle - a) < 1e-9
        assert abs(m.m1[g.k_index(1)] - (-0.5j * oracle)) < 1e-6

    def test_closure_residuals(self):
        g = small_grid(k_max=3, eta_max=12.0, n_eta=192)
        f = SpectralField.zeros(g)
        mu = np.exp(-g.eta ** 2 / 2)
        for k, amp in ((1, 0.08), (2, -0.03), (3, 0.01)):
            f.data[g.k_index(k)] = amp * np.exp(-(g.eta - 0.2 * k) ** 2 / 2)
            f.data[g.k_index(-k)] = amp * np.exp(-(g.eta + 0.2 * k) ** 2 / 2)
        f.data[g.k_index(0)] = 0.05 * g.eta ** 2 * mu
        m = compute_moments(f, coulomb(3))
        res = closure_residuals(m)
        assert res["u"] < 1e-12
        assert res["T"] < 1e-12

    @pytest.mark.parametrize("seed,rho_amp", [(5, 0.02), (6, 0.1), (7, 0.2),
                                              (8, None)])
    def test_direct_solve_matches_contraction_iteration(self, seed, rho_amp):
        # None scales the density so its profile peaks just under the
        # closure bound, where the iteration contracts slowest
        g = small_grid(k_max=3, eta_max=12.0, n_eta=192)
        rng = np.random.default_rng(seed)
        mu = np.exp(-g.eta ** 2 / 2)
        f = SpectralField.zeros(g)
        for k in range(1, 4):
            a, b = rng.standard_normal(2)
            c = rng.uniform(-0.5, 0.5)
            for sign in (1, -1):  # h(-k, eta) = h(k, -eta)
                x = sign * g.eta - c
                # (1 + x^2 / 2) e^(-x^2 / 2) has no second moment at c = 0,
                # so the temperature stays off its floor as the density
                # nears the bound
                f.data[g.k_index(sign * k)] = (
                    a * (1.0 + 0.5 * x ** 2) + 0.1 * b * x) * np.exp(-x ** 2 / 2)
        f.data[g.k_index(0)] = 0.02 * rng.standard_normal() * g.eta ** 2 * mu
        assert np.max(np.abs(f.data - mirrored(f.data))) < 1e-15
        rows = [g.k_index(k) for k in (-3, -2, -1, 1, 2, 3)]
        sup = float(np.max(np.abs(ref_x_profile(f.data[:, g.i_zero],
                                                g.k_values))))
        f.data[rows] *= (0.499 if rho_amp is None else rho_amp) / sup
        m = compute_moments(f, coulomb(3))
        if rho_amp is None:
            assert 0.498 < m.sup_rho < 0.5
        rho_mat = ref_conv_matrix(m.rho)
        u = ref_closure_solve(rho_mat, m.m1)
        assert rel_gap(m.u, u) <= 1e-13
        m_t = m.m2 - ref_conv_matrix(m.m1) @ u
        assert rel_gap(m.m_t, m_t) <= 1e-13
        assert rel_gap(m.T, ref_closure_solve(rho_mat, m_t)) <= 1e-13

    def test_density_guard(self, monkeypatch):
        g = small_grid()
        f = SpectralField.zeros(g)
        mu = np.exp(-g.eta ** 2 / 2)
        f.data[g.k_index(1)] = 0.4 * mu
        f.data[g.k_index(-1)] = 0.4 * mu
        solves = []
        monkeypatch.setattr(solver, "solve1", lambda *a, **kw: solves.append(a))
        with pytest.raises(StateEscapeError):
            compute_moments(f, coulomb(2))
        assert solves == []

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_density_row_names_the_state(self, monkeypatch, value):
        g = small_grid()
        f = SpectralField.zeros(g)
        f.data[g.k_index(1)] = value
        solves = []
        monkeypatch.setattr(solver, "solve1", lambda *a, **kw: solves.append(a))
        with pytest.raises(StateEscapeError, match="density profile"), \
                np.errstate(invalid="ignore"):
            compute_moments(f, coulomb(2))
        assert solves == []

    def test_singular_closure_solves_to_nan(self):
        closure = np.eye(3, dtype=complex)
        closure[1, 1] = 0.0
        with np.errstate(invalid="ignore"):
            x = solver._closure_solve(closure, np.ones(3, dtype=complex))
        assert np.all(np.isnan(x))

    def test_zero_pivot_raises(self, monkeypatch):
        # only a non-finite density gets past the sup guard to a zero
        # pivot, and the density guard stops that, so the NaN solution a
        # singular system gives is faked; the temperature guard rejects it
        g = small_grid()
        monkeypatch.setattr(solver, "solve1",
                            lambda a, b, **kw: np.full_like(b, np.nan))
        with pytest.raises(StateEscapeError, match="temperature profile"):
            compute_moments(SpectralField.zeros(g), coulomb(2))

    @pytest.mark.parametrize("k_max,eta_max,n_eta", [
        (1, 153.25, 2452), (2, 146.0, 584), (4, 142.0, 1136),
        (16, 128.0, 2048)])
    def test_closure_solves_give_numpy_solve_bytes(self, k_max, eta_max,
                                                   n_eta):
        # solve1 is the gufunc numpy.linalg.solve calls
        g = PhaseGrid(k_max=k_max, eta_max=eta_max, n_eta=n_eta,
                      dt=2.0 * eta_max / n_eta)
        f = TestStepPlan.seeded_field(g, n_eta)
        w = coulomb(k_max)
        f.data *= 0.2 / compute_moments(f, w).sup_rho
        m = compute_moments(f, w)
        closure = np.eye(g.n_k) + ref_conv_matrix(m.rho)
        u = np.linalg.solve(closure, m.m1)
        m_t = m.m2 - ref_conv_matrix(m.m1) @ u
        assert m.u.tobytes() == u.tobytes()
        assert m.m_t.tobytes() == m_t.tobytes()
        assert m.T.tobytes() == np.linalg.solve(closure, m_t).tobytes()

    def test_sup_guard_implies_density_floor(self):
        # sup|rho| < CLOSURE_SUP_BOUND keeps 1 + rho above POSITIVITY_FLOOR,
        # so compute_moments needs no separate density floor.
        assert solver.CLOSURE_SUP_BOUND <= 1.0 - solver.POSITIVITY_FLOOR

    def test_temperature_guard(self):
        g = small_grid()
        f = SpectralField.zeros(g)
        # second-moment perturbation M2(0) = -2c with c = 0.3 drives the
        # reconstructed temperature below the positivity floor
        f.data[g.k_index(0)] = 0.3 * g.eta ** 2 * np.exp(-g.eta ** 2 / 2)
        with pytest.raises(StateEscapeError):
            compute_moments(f, coulomb(2))


class TestConservedQuantities:
    def test_pure_maxwellian(self):
        g = small_grid()
        c = conserved_quantities(SpectralField.zeros(g), coulomb(2))
        assert c.mass == 0.0
        assert c.momentum == 0.0
        assert c.field_energy == 0.0
        assert abs(c.kinetic_energy - np.pi) < 1e-15

    def test_field_energy_formula(self):
        r = 2e-3
        g = small_grid(k_max=2)
        w = coulomb(2)
        f = SpectralField.zeros(g)
        mu = np.exp(-g.eta ** 2 / 2)
        f.data[g.k_index(1)] = r * mu
        f.data[g.k_index(-1)] = r * mu
        c = conserved_quantities(f, w)
        want = np.pi * 2.0 * (1.0 * w(1) * r) ** 2
        assert abs(c.field_energy - want) < 1e-15 * want


class TestInitState:
    def test_zero_eps_gives_zero_field(self):
        g = small_grid()
        f, _ = init_state(InitialData(eps=0.0, modes=(Mode(1, 1.0),)), g, coulomb(2))
        assert np.all(f.data == 0)

    @pytest.mark.parametrize("datum", [
        InitialData(eps=0.3, modes=(Mode(1, 0.8, 2.5, 1.2),)),
        InitialData(eps=0.05, modes=(Mode(1, 1.0, 0.7, 1.0),
                                     Mode(2, -0.6, -1.5, 0.8))),
        InitialData(eps=0.0, modes=(Mode(1, 1.0, 1.0, 1.0),))],
        ids=["off_centre", "two_modes", "eps_zero"])
    def test_state_equals_its_mirror(self, datum):
        # the state leaves through the step's symmetrization, which pairs
        # the unmirrored column 0 with itself as well
        g = small_grid()
        f, _ = init_state(datum, g, coulomb(2))
        assert np.array_equal(f.data, mirrored(f.data))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eps", [1e308, 1e200])
    def test_overflowing_datum_raises(self, eps):
        # the field energy overflows and the energy projection writes
        # inf * 0; the state's non-finite guard names it
        g = PhaseGrid(k_max=2, eta_max=16.0, n_eta=256, dt=0.125)
        with pytest.raises(StateEscapeError, match="non-finite"):
            init_state(InitialData(eps=eps, modes=(Mode(1, 10.0),)), g,
                       coulomb(2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_finite_datum_accepted(self):
        g = PhaseGrid(k_max=2, eta_max=16.0, n_eta=256, dt=0.125)
        f, report = init_state(InitialData(eps=1e150, modes=(Mode(1, 10.0),)),
                               g, coulomb(2))
        assert np.all(np.isfinite(f.data))
        assert math.isfinite(report["energy_shift"])

    def test_projection_postconditions(self):
        g = small_grid(k_max=2, eta_max=20.0, n_eta=320)
        w = coulomb(2)
        f, report = init_state(
            InitialData(eps=1e-3, modes=(Mode(1, 0.8, 0.7, 1.0),)), g, w)
        c = conserved_quantities(f, w)
        assert abs(c.mass) < 1e-14
        assert abs(c.momentum) < 1e-14
        assert abs(total_energy(c) - np.pi) < 1e-12
        assert np.max(np.abs(f.data - mirrored(f.data))) < 1e-16
        assert "energy_shift" in report

    def test_energy_ties_m2_to_field_energy(self):
        g = small_grid(k_max=1, eta_max=20.0, n_eta=320)
        w = coulomb(1)
        f, _ = init_state(InitialData(eps=0.05, modes=(Mode(1, 1.0),)), g, w)
        m = compute_moments(f, w)
        c = conserved_quantities(f, w)
        assert abs(m.m2[g.k_index(0)].real + c.field_energy / np.pi) < 1e-12

    @pytest.mark.parametrize("bad", [
        dict(eps=-1.0, modes=(Mode(1, 1.0),)),
        dict(eps=0.1, modes=(Mode(-2, 1.0), Mode(2, 0.5))),
        dict(eps=0.1, modes=(Mode(1, 1.0), Mode(-1, 1.0))),
    ])
    def test_invalid_data_rejected(self, bad):
        with pytest.raises(DomainError):
            InitialData(**bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["eps", "amp", "center", "width"])
    def test_non_finite_datum_rejected(self, field, bad):
        # NaN slips past a plain `x < 0` check, and init_state would then
        # build an all-NaN state without raising
        with pytest.raises(DomainError, match="finite"):
            if field == "eps":
                InitialData(eps=bad, modes=(Mode(1, 1.0),))
            else:
                Mode(**{"k": 1, "amp": 1.0, field: bad})

    @pytest.mark.parametrize("k,amp", [
        (math.nan, 1.0), (1.5, 1.0), (1.0, 1.0),
        (1, 0.8 + 0.3j), (1, 1.0 + 0.0j), (np.int64(2), np.complex128(1.0))])
    def test_malformed_mode_rejected(self, k, amp):
        # a non-integer k would otherwise reach numpy's IndexError in k_index
        with pytest.raises(DomainError, match="k = "):
            Mode(k, amp)

    def test_numpy_integer_mode_accepted(self):
        assert Mode(np.int64(2), np.float64(0.5)).k == 2

    def test_zero_mode_bump_rejected(self):
        with pytest.raises(DomainError):
            Mode(0, 1.0)

    def test_bump_outside_band_rejected(self):
        g = small_grid(k_max=2)
        with pytest.raises(DomainError):
            init_state(InitialData(eps=0.1, modes=(Mode(3, 1.0),)), g, coulomb(2))

    @pytest.mark.parametrize("k_max,eta_max,n_eta,eps,mode", [
        (1, 8.0, 64, 0.1, Mode(1, 1.0, 0.0, 2.0)),
        # bumps that fit the 6-width rule but sit 6.6e-8 and 3.2e-8 of
        # their peak at the edge, where column 0 has no mirror sample
        (2, 16.0, 256, 1.0, Mode(1, 1.0, 10.0, 1.0)),
        (2, 16.0, 256, 1.0, Mode(1, 1.0, 4.0, 2.0))],
        ids=["wide", "edge_center_10", "edge_width_2"])
    def test_wide_bump_raises_aliasing(self, k_max, eta_max, n_eta, eps, mode):
        g = small_grid(k_max=k_max, eta_max=eta_max, n_eta=n_eta)
        with pytest.raises(AliasingError):
            init_state(InitialData(eps=eps, modes=(mode,)), g, coulomb(k_max))


class TestNonlinearRhs:
    def test_zero_state_gives_zero(self):
        g = small_grid()
        f = SpectralField.zeros(g)
        w = coulomb(2)
        out = rhs_full(f, compute_moments(f, w), 1e-2, w)
        assert np.all(out == 0)

    def test_mass_column_identically_zero(self):
        g = small_grid(k_max=2, eta_max=20.0, n_eta=320)
        w = coulomb(2)
        f, _ = init_state(InitialData(eps=0.05,
                                      modes=(Mode(1, 0.8, 0.7, 1.0),)), g, w)
        out = rhs_full(f, compute_moments(f, w), 1e-2, w)
        assert np.all(out[:, g.i_zero] == 0)

    def test_force_convolution_support(self):
        # density on k = +-1 and a zero-density bump on k = +-3 force
        # exactly k in {+-1} (background term) and {+-2, +-4}
        # (convolution), never +-3 itself
        g = small_grid(k_max=4, eta_max=16.0, n_eta=256)
        w = coulomb(4)
        f = SpectralField.zeros(g)
        mu = np.exp(-g.eta ** 2 / 2)
        eps = 1e-3
        f.data[g.k_index(1)] = eps * mu
        f.data[g.k_index(-1)] = eps * mu
        f.data[g.k_index(3)] = eps * g.eta * np.exp(-(g.eta - 1.0) ** 2 / 2)
        f.data[g.k_index(-3)] = -eps * g.eta * np.exp(-(g.eta + 1.0) ** 2 / 2)
        out = rhs_full(f, compute_moments(f, w), 0.0, w)
        # matmul accumulation order leaves ~1e-23 dust on rows whose
        # contributions cancel analytically, so threshold relative to peak
        floor = 1e-12 * np.max(np.abs(out))
        live = {int(k) for k in g.k_values
                if np.max(np.abs(out[g.k_index(int(k))])) > floor}
        assert live == {-4, -2, -1, 1, 2, 4}

    def test_synthetic_m_t_term(self):
        g = small_grid(k_max=2, eta_max=12.0, n_eta=192)
        nu = 0.05
        f = SpectralField.zeros(g)
        z = np.zeros(g.n_k, dtype=complex)
        m_t = z.copy()
        m_t[g.k_index(1)] = 0.3
        m_t[g.k_index(-1)] = 0.3
        # rho is real, as on every real state
        m = HydroMoments(rho=np.zeros(g.n_k), m1=z.copy(), m2=z.copy(),
                         u=z.copy(), m_t=m_t, T=z.copy(), e_field=z.copy(),
                         sup_rho=0.0)
        out = rhs_full(f, m, nu, coulomb(2))
        mu = np.exp(-g.eta ** 2 / 2)
        for j in (g.i_zero + 3, g.i_zero + 17, g.i_zero - 40):
            eta = g.eta[j]
            want = nu * (-eta ** 2 * 0.3 * mu[j])
            assert abs(out[g.k_index(1), j] - want) < 1e-15
        assert np.max(np.abs(out[g.k_index(0)])) == 0.0


# References for the step plan: the formulas as they read before the plan,
# rebuilding every eta row, kernel row and x-profile matrix per call.

def ref_conv_matrix(coeffs):
    n = coeffs.shape[0]
    pad = np.zeros(2 * n - 1, dtype=coeffs.dtype)
    pad[n - 1 - (n // 2): n - 1 - (n // 2) + n] = coeffs
    idx = np.arange(n)
    return pad[(idx[:, None] - idx[None, :]) + n - 1]


def ref_x_profile(coeffs, k_values):
    n_x = 4 * coeffs.shape[0]
    x = 2.0 * np.pi * np.arange(n_x) / n_x
    return (np.exp(1j * np.outer(x, k_values)) @ coeffs).real


def ref_kernel_row(g, w):
    return np.array([w(int(k)) if k != 0 else 0.0 for k in g.k_values])


def ref_compute_moments(field, w):
    g = field.grid
    d1, d2 = _eta_stencils(field.data, g)
    rho = field.data[:, g.i_zero].copy()
    m1 = 1j * d1
    m2 = -d2
    k_vals = g.k_values
    sup_rho = float(np.max(np.abs(ref_x_profile(rho, k_vals))))
    rho_mat = ref_conv_matrix(rho)
    u = ref_closure_solve(rho_mat, m1)
    m_t = m2 - ref_conv_matrix(m1) @ u
    temp = ref_closure_solve(rho_mat, m_t)
    kf = k_vals.astype(float)
    e_field = -1j * kf * ref_kernel_row(g, w) * rho
    return HydroMoments(rho=rho, m1=m1, m2=m2, u=u, m_t=m_t, T=temp,
                        e_field=e_field, sup_rho=sup_rho)


def ref_conserved(field, w):
    g = field.grid
    d1, d2 = _eta_stencils(field.data, g)
    i0 = g.k_index(0)
    rho = field.data[:, g.i_zero]
    kf = g.k_values.astype(float)
    wk = ref_kernel_row(g, w)
    return (2.0 * math.pi * float(field.data[i0, g.i_zero].real),
            2.0 * math.pi * float((1j * d1[i0]).real),
            math.pi * (1.0 + float((-d2[i0]).real)),
            math.pi * float(np.sum((kf * wk) ** 2 * np.abs(rho) ** 2)))


def ref_rhs_full(field, m, nu):
    """The coupling RHS term by term: force on the state plus background
    row, then the Maxwellian-profile and state parts of the feedback."""
    g = field.grid
    eta = g.eta[None, :]
    d = field.data
    dh = np.zeros_like(d)
    dh[:, 2:-2] = (d[:, :-4] - 8.0 * d[:, 1:-3] + 8.0 * d[:, 3:-1]
                   - d[:, 4:]) / (12.0 * g.d_eta)
    mu = mu_hat(eta)
    with_bg = d.copy()
    with_bg[g.k_index(0)] += mu[0]
    e_mat = ref_conv_matrix(m.e_field)
    force = 1j * eta * (e_mat @ with_bg)
    c_mu = (-(eta ** 2) * m.m_t[:, None] - 1j * eta * m.m1[:, None]) * mu
    diff_part = -(eta ** 2) * d - eta * dh
    c_h = (ref_conv_matrix(m.rho) @ diff_part
           + ref_conv_matrix(m.m_t) @ (-(eta ** 2) * d)
           - ref_conv_matrix(m.m1) @ (1j * eta * d))
    return -force + nu * (c_mu + c_h)


def ref_force_imag(field, w):
    """Im e of the force e = -i k w(k) rho(k), which is purely imaginary."""
    g = field.grid
    kf = g.k_values.astype(float)
    return (-1j * kf * ref_kernel_row(g, w) * field.data[:, g.i_zero]).imag


def ref_rhs_linear(field, w):
    """The linear coupling -e (i eta mu) = Im(e) eta mu."""
    eta = field.grid.eta
    return np.outer(ref_force_imag(field, w), eta * mu_hat(eta))


def ref_linear_substep(field, w, dt):
    """The linear coupling's exact flow over dt, y + dt N(y): the coupling
    reads only the eta = 0 column, where it vanishes."""
    eta = field.grid.eta
    return field.data + np.outer(dt * ref_force_imag(field, w),
                                 eta * mu_hat(eta))


class TestStepPlan:
    # the four benchmark lattices and a non-dyadic one, as
    # (k_max, eta_max, n_eta)
    LATTICES = [(4, 142.0, 1136), (2, 146.0, 584), (1, 153.25, 2452),
                (2, 64.0, 512), (3, 15.0, 900)]

    @staticmethod
    def seeded_field(g, seed):
        """Gaussian bumps with random amplitudes, centers and widths under
        random noise in the low bits."""
        rng = np.random.default_rng(seed)
        col = (g.n_k, 1)
        amp = 0.01 * rng.standard_normal(col)
        bumps = amp * np.exp(-(g.eta - rng.uniform(-1.0, 1.0, col)) ** 2
                             / (2.0 * rng.uniform(0.7, 1.5, col) ** 2))
        noise = rng.standard_normal((g.n_k, g.n_eta))
        return SpectralField(grid=g, data=bumps + 1e-7 * noise)

    @pytest.mark.parametrize("k_max,eta_max,n_eta", LATTICES)
    def test_matches_per_call_reference(self, k_max, eta_max, n_eta):
        # the moment columns, guard readings, conserved quantities and the
        # linear substep are the reference's bytes; the direct closure solve
        # and the fused RHS reorder sums and agree to rounding
        g = PhaseGrid(k_max=k_max, eta_max=eta_max, n_eta=n_eta,
                      dt=2.0 * eta_max / n_eta)
        w = coulomb(k_max)
        f = self.seeded_field(g, n_eta)
        m = compute_moments(f, w)
        want = ref_compute_moments(f, w)
        for fld in fields(HydroMoments):
            got_v, want_v = getattr(m, fld.name), getattr(want, fld.name)
            if fld.name in ("u", "m_t", "T"):
                assert rel_gap(got_v, want_v) <= 1e-14
            else:
                assert np.asarray(got_v).tobytes() == \
                    np.asarray(want_v).tobytes()
        c = conserved_quantities(f, w)
        assert np.array([c.mass, c.momentum, c.kinetic_energy,
                         c.field_energy]).tobytes() == \
            np.array(ref_conserved(f, w)).tobytes()
        for nu in (0.0, 1e-4, 0.37):
            assert rel_gap(rhs_full(f, m, nu, w), ref_rhs_full(f, want, nu)) \
                <= 1e-14
        linear = _stepper(g, w, 1e-4, "linear").linear_substep(f.data)
        assert linear.tobytes() == \
            ref_linear_substep(f, w, 0.5 * g.dt).tobytes()

    def test_plan_arrays_read_only(self):
        s = _stepper(small_grid(), coulomb(2), 0.1, "full")
        arrays = [s.eta, s.neg_eta2, s.eta_mu, s.eta2_mu, s.x_modes,
                  s.force_row, s.energy_row, s.eye, s.conv_index,
                  s._rhs_index]
        for a in arrays:
            with pytest.raises(ValueError):
                a.flat[0] = 1.0

    def test_one_plan_cache(self):
        caches = [name for name, value in vars(solver).items()
                  if hasattr(value, "cache_info")]
        assert caches == ["_cached_stepper"]

    def test_readouts_hold_no_step_buffers(self):
        # compute_moments and conserved_quantities read the nu = 0
        # free-mode stepper, which has no RK4 buffers
        s = _stepper(small_grid(), coulomb(2))
        assert not hasattr(s, "_acc") and not hasattr(s, "_prod")

    @pytest.mark.parametrize("mode", ["linear", "free"])
    def test_linear_and_free_steppers_hold_no_rk4_buffers(self, mode):
        # only full mode's coupling runs RK4
        s = _stepper(small_grid(), coulomb(2), 1e-3, mode)
        assert not hasattr(s, "_acc") and not hasattr(s, "_prod")

    def test_kernels_on_one_grid_get_their_own_rows(self):
        g = small_grid(k_max=2)
        f = self.seeded_field(g, 3)
        custom = InteractionKernel(table={1: 0.7, -1: 0.7, 2: 0.05, -2: 0.05})
        e_rows = []
        for w in (coulomb(2), custom):
            e = compute_moments(f, w).e_field
            assert e.tobytes() == ref_compute_moments(f, w).e_field.tobytes()
            e_rows.append(e)
        assert not np.array_equal(*e_rows)


def ref_rk4_linear_substep(field, w, dt):
    """Four-stage classical RK4 on the linear coupling, each stage
    evaluated on its own probe state."""
    y = field.data

    def f_of(data):
        return ref_rhs_linear(SpectralField(grid=field.grid, data=data), w)

    k1 = f_of(y)
    k2 = f_of(y + 0.5 * dt * k1)
    k3 = f_of(y + 0.5 * dt * k2)
    k4 = f_of(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestLinearSubstep:
    @staticmethod
    def landau_field():
        """A seeded state on the landau lattice for nu = 1e-5, with signed
        zeros at eta = 0 and in the tails, where the Maxwellian row and so
        the RHS underflow to zero."""
        g = PhaseGrid(k_max=1, eta_max=153.25, n_eta=2452, dt=0.125)
        f = TestStepPlan.seeded_field(g, 17)
        f.data[:, :300] = 0.0
        f.data[:, -300:] = -0.0
        f.data[:, 400:420] = -0.0
        f.data[:, g.i_zero] = [0.2, 0.0, -0.3]
        return f

    def test_agrees_with_four_stage_rk4(self):
        # RK4's four stages see the same eta = 0 column, so its sum is the
        # exact flow up to the rounding of the stage sum
        f = self.landau_field()
        w = coulomb(1)
        want = ref_rk4_linear_substep(f, w, 0.0625)
        got = _stepper(f.grid, w, 1e-5, "linear").linear_substep(f.data)
        assert np.max(np.abs(got - want)) <= 1e-16 * np.max(np.abs(want))
        i0 = f.grid.i_zero
        assert got[:, i0].tobytes() == f.data[:, i0].tobytes()


class TestStep:
    def test_zero_state_fixed_point(self):
        g = small_grid(k_max=2, eta_max=12.0, n_eta=96)
        w = coulomb(2)
        f, _ = init_state(InitialData(eps=0.0, modes=(Mode(1, 1.0),)), g, w)
        before = f.data.copy()
        assert step(f, 0.05, w, "full") == 0.0
        assert np.max(np.abs(f.data - before)) < 1e-14

    def test_free_mode_degenerates_to_transport(self):
        g = small_grid(k_max=2, eta_max=16.0, n_eta=256)
        w = coulomb(2)
        f, _ = init_state(InitialData(eps=0.1, modes=(Mode(1, 1.0, 0.0, 1.0),)), g, w)
        manual, _, _ = ref_shear(g, f.data)
        step(f, 0.0, w, "free")
        # step symmetrizes the unpaired left-edge column after the shift,
        # so the manual route needs the same pass before comparing bits
        manual = 0.5 * (manual + mirrored(manual))
        assert np.array_equal(f.data, manual)

    def test_guard_readings_match_direct_measurements(self):
        # step reads the reality defect off its own guard; replay
        # N(dt/2) S(dt) N(dt/2) and measure it from scratch
        g = small_grid(k_max=2, eta_max=12.0, n_eta=96)
        w = coulomb(2)
        nu = 1e-2
        f, _ = init_state(
            InitialData(eps=0.05, modes=(Mode(1, 0.8, 0.7, 1.0),)), g, w)
        for _ in range(3):
            step(f, nu, w, "full")
        replay = f.copy()
        got = step(f, nu, w, "full")
        coupling = _stepper(g, w, nu, "full").rk4_substep
        replay.data = coupling(_FreeFlow.build(g, nu, g.dt)(
            coupling(replay.data)))
        defect = float(np.max(np.abs(replay.data - mirrored(replay.data))))
        replay.data = 0.5 * (replay.data + mirrored(replay.data))
        assert np.array_equal(f.data, replay.data)
        assert got == defect > 0.0

    def test_invalid_mode_rejected(self):
        g = small_grid()
        f = SpectralField.zeros(g)
        with pytest.raises(DomainError):
            step(f, 0.1, coulomb(2), "sideways")

    @pytest.mark.parametrize("nu", [-1e-3, -math.inf, math.inf, math.nan])
    @pytest.mark.parametrize("mode", ["full", "linear", "free"])
    def test_bad_collision_frequency_rejected(self, monkeypatch, nu, mode):
        g = small_grid()
        w = coulomb(2)
        f, _ = init_state(InitialData(eps=1e-3, modes=(Mode(1, 1.0),)), g, w)
        data, time = f.data.tobytes(), f.time
        substeps = []
        monkeypatch.setattr(solver, "_stepper",
                            lambda *a: substeps.append("_stepper"))
        monkeypatch.setattr(_FreeFlow, "__call__",
                            lambda *a: substeps.append("_FreeFlow"))
        with pytest.raises(DomainError, match="collision frequency"):
            step(f, nu, w, mode)
        assert substeps == []
        assert f.data.tobytes() == data
        assert f.time == time

    @pytest.mark.parametrize("mode,nu,n_fail", [
        ("full", 1e-3, 33), ("linear", 1e-3, 46), ("free", 1e-3, 54),
        ("full", 0.0, 33)], ids=["full", "linear", "free", "full_nu0"])
    def test_failing_step_leaves_field_unchanged(self, mode, nu, n_fail):
        # a bump centred off zero drifts to the edge of this window; the
        # free flow of step n_fail would carry too much amplitude off it,
        # after the step's first coupling substep has written a new array
        # (in full and linear mode)
        g = small_grid(k_max=2, eta_max=16.0, n_eta=128)
        w = coulomb(2)
        f, _ = init_state(InitialData(eps=1e-3, modes=(Mode(1, 1.0, 6.0, 1.0),)),
                          g, w)
        held = f.data
        for n in range(1, 200):
            data, time = f.data.tobytes(), f.time
            try:
                step(f, nu, w, mode)
            except AliasingError:
                break
        else:
            pytest.fail("the bump never reached the window edge")
        assert n == n_fail
        assert f.data.tobytes() == data
        assert f.time == time
        assert held is not f.data

    @pytest.mark.parametrize("mode,nu", [("full", 1e-3), ("linear", 1e-3),
                                         ("free", 1e-3), ("full", 0.0)])
    def test_earlier_state_keeps_its_bytes(self, mode, nu):
        # a step writes a new array; the stepper's buffers never become a
        # field's data
        g = small_grid(k_max=2, eta_max=16.0, n_eta=128)
        w = coulomb(2)
        f, _ = init_state(InitialData(eps=1e-3, modes=(Mode(1, 1.0, 1.0, 1.0),)),
                          g, w)
        held = []
        for _ in range(4):
            held.append((f.data, f.data.tobytes()))
            step(f, nu, w, mode)
        for data, want in held:
            assert data.tobytes() == want
        assert len({id(data) for data, _ in held} | {id(f.data)}) == 5

    @pytest.mark.parametrize("mode", ["full", "linear", "free"])
    def test_fields_sharing_a_stepper_step_as_if_alone(self, mode):
        # two states on one (grid, nu, kernel, mode) share one stepper and
        # its buffers; stepped alternately, each gives its own bytes
        g = small_grid(k_max=2, eta_max=16.0, n_eta=128)
        w = coulomb(2)
        data = [InitialData(eps=1e-3, modes=(Mode(1, 1.0, 0.5, 1.0),)),
                InitialData(eps=2e-2, modes=(Mode(2, -0.7, -1.0, 1.5),))]
        alone = []
        for datum in data:
            f, _ = init_state(datum, g, w)
            for _ in range(6):
                step(f, 1e-2, w, mode)
            alone.append(f.data.tobytes())
        pair = [init_state(datum, g, w)[0] for datum in data]
        for _ in range(6):
            for f in pair:
                step(f, 1e-2, w, mode)
        assert [f.data.tobytes() for f in pair] == alone
        assert alone[0] != alone[1]

    def test_blowup_trips_state_escape(self):
        g = small_grid(k_max=2, eta_max=16.0, n_eta=256)
        w = coulomb(2)
        f = SpectralField.zeros(g)
        mu = np.exp(-g.eta ** 2 / 2)
        f.data[g.k_index(1)] = 10.0 * mu
        f.data[g.k_index(-1)] = 10.0 * mu
        with pytest.raises(StateEscapeError):
            step(f, 1e-3, w, "full")

    def test_richardson_self_convergence(self):
        def run_traj(n_eta, n_steps):
            g = PhaseGrid(k_max=2, eta_max=16.0, n_eta=n_eta, dt=32.0 / n_eta)
            w = coulomb(2)
            f, _ = init_state(InitialData(eps=0.05, modes=(Mode(1, 1.0, 0.0, 1.0),)),
                              g, w)
            out = [abs(f.data[g.k_index(1), g.i_zero])]
            for _ in range(n_steps):
                step(f, 1e-2, w, "full")
                out.append(abs(f.data[g.k_index(1), g.i_zero]))
            return np.array(out)

        coarse = run_traj(256, 32)
        mid = run_traj(512, 64)
        ref = run_traj(2048, 256)
        err_coarse = np.max(np.abs(coarse - ref[::8]))
        err_mid = np.max(np.abs(mid - ref[::4]))
        assert 2.8 < err_coarse / err_mid < 5.5


class TestConservationRun:
    def test_drifts_at_criterion_parameters_in_miniature(self):
        g = small_grid(k_max=2, eta_max=20.0, n_eta=320)
        w = coulomb(2)
        f, _ = init_state(
            InitialData(eps=1e-4, modes=(Mode(1, 0.8, 0.7, 1.0),)), g, w)
        c0 = conserved_quantities(f, w)
        res = run_simulation(f, 1e-3, w, 32, mode="full")
        c1 = conserved_quantities(f, w)
        assert res.max_mass_drift == 0.0
        assert res.max_momentum_drift < 1e-12
        assert abs(total_energy(c1) - total_energy(c0)) / total_energy(c0) < 1e-7
        assert res.max_reality_defect < 1e-13

    def test_moderate_amplitude_energy_exchange_bounded(self):
        g = small_grid(k_max=2, eta_max=20.0, n_eta=320)
        w = coulomb(2)
        f, _ = init_state(
            InitialData(eps=0.05, modes=(Mode(1, 0.8, 0.7, 1.0),)), g, w)
        c0 = conserved_quantities(f, w)
        res = run_simulation(f, 1e-2, w, 32, mode="full")
        c1 = conserved_quantities(f, w)
        assert res.max_mass_drift == 0.0
        assert res.max_momentum_drift < 1e-12
        # splitting exchange error scales with eps^2 dt^2; band from a
        # measured 3.7e-5 at these parameters
        assert abs(total_energy(c1) - total_energy(c0)) / total_energy(c0) < 2e-4

    def test_output_series_shapes(self):
        g = small_grid(k_max=1, eta_max=16.0, n_eta=128)
        w = coulomb(1)
        f, _ = init_state(InitialData(eps=1e-3, modes=(Mode(1, 1.0),)), g, w)
        res = run_simulation(f, 1e-2, w, 10, mode="linear")
        # initial instant + every step
        assert res.times.shape == (11,)
        assert res.rho.shape == (11, g.n_k)
        assert res.e_field.shape == (11, g.n_k)
        assert res.kinetic_energy.shape == (11,)
        assert res.times[-1] == pytest.approx(10 * g.dt)

    @pytest.mark.parametrize("mode", ["full", "linear"])
    def test_recorded_conserved_quantities_are_those_of_the_states(self, mode):
        # the records and drift maxima come from the march's one measurement
        # per state, and the density and force are read off the state;
        # replay and measure directly, with compute_moments the reference.
        # The off-centre bump gives nonzero reality defects; a real state
        # carries no momentum.
        g = small_grid(k_max=1, eta_max=16.0, n_eta=128)
        w = coulomb(1)
        f, _ = init_state(InitialData(
            eps=1e-2, modes=(Mode(1, 0.8, 0.7, 1.0),)), g, w)
        replay = f.copy()
        res = run_simulation(f, 1e-2, w, 7, mode=mode)
        want = [conserved_quantities(replay, w)]
        moments = [compute_moments(replay, w)]
        defects = []
        for _ in range(7):
            defects.append(step(replay, 1e-2, w, mode))
            want.append(conserved_quantities(replay, w))
            moments.append(compute_moments(replay, w))
        for i, m in enumerate(moments):
            assert res.rho[i].tobytes() == m.rho.tobytes()
            assert res.e_field[i].tobytes() == m.e_field.tobytes()
        assert res.kinetic_energy.tolist() == [c.kinetic_energy for c in want]
        assert res.field_energy.tolist() == [c.field_energy for c in want]
        pairs = list(zip(want, want[1:]))
        assert res.max_mass_drift == max(abs(b.mass - a.mass) for a, b in pairs)
        assert res.max_momentum_drift == max(
            abs(b.momentum - a.momentum) for a, b in pairs)
        assert res.max_reality_defect == max(defects) > 0.0

    def test_linear_regime_matches_volterra(self):
        # full nonlinear solver against the independently discretized
        # density equation, eps = 1e-3 nu^{1/3}
        nu = 1e-3
        eps = 1e-3 * nu ** (1.0 / 3.0)
        g = PhaseGrid(k_max=4, eta_max=52.0, n_eta=832, dt=0.125)
        w = coulomb(4)
        f, _ = init_state(InitialData(eps=eps, modes=(Mode(1, 1.0, 0.0, 1.0),)), g, w)
        res = run_simulation(f, nu, w, 240, mode="full")
        rho_solver = np.abs(res.rho[:, g.k_index(1)])

        def h_in(k, eta):
            return eps * np.exp(-eta ** 2 / 2.0) if abs(k) == 1 else 0.0

        t = np.arange(int(round(30.0 / g.dt)) + 1) * g.dt
        prob = VolterraProblem(
            k=1, nu=nu,
            source=free_streaming_source(h_in, t, 1, nu),
            dt=g.dt, t_final=30.0)
        vres = volterra_solve(prob, w=w)
        n = min(len(vres.rho), len(rho_solver))
        num = np.max(np.abs(rho_solver[:n] - np.abs(vres.rho[:n])))
        den = np.max(np.abs(vres.rho[:n]))
        assert num / den < 0.05


class TestMarch:
    @staticmethod
    def start():
        g = small_grid(k_max=1, eta_max=16.0, n_eta=128)
        w = coulomb(1)
        f, _ = init_state(InitialData(eps=1e-2, modes=(Mode(1, 1.0),)), g, w)
        return f, w

    def test_true_observe_stops_at_that_state(self):
        f, w = self.start()
        replay = f.copy()
        seen = []

        def stop_at_three(field, cons, i):
            seen.append((i, field.time, cons))
            return i == 3

        march(f, 1e-2, w, 10, "full", stop_at_three)
        for _ in range(3):
            step(replay, 1e-2, w, "full")
        assert [i for i, _, _ in seen] == [0, 1, 2, 3]
        assert np.array_equal(f.data, replay.data)
        assert f.time == replay.time == seen[-1][1]
        assert seen[-1][2] == conserved_quantities(replay, w)

    @pytest.mark.parametrize("mode", ["full", "linear", "free"])
    def test_measures_each_state_once(self, monkeypatch, mode):
        f, w = self.start()
        measured = []

        real = Stepper.conserved

        def counted(stepper, field):
            measured.append(field.time)
            return real(stepper, field)

        monkeypatch.setattr(Stepper, "conserved", counted)
        res = run_simulation(f, 1e-2, w, 7, mode=mode)
        assert measured == res.times.tolist()
        assert len(measured) == 7 + 1

    @pytest.mark.parametrize("mode,per_step", [
        ("full", 8), ("linear", 0), ("free", 0)])
    def test_closures_only_in_rk4_stages(self, monkeypatch, mode, per_step):
        # the readouts read rho and the force off the state, so the only
        # closures of a run are the full step's two RK4 substeps of 4 stages
        f, w = self.start()
        calls = []
        real = Stepper.closure

        def counted(stepper, y):
            calls.append(stepper.mode)
            return real(stepper, y)

        monkeypatch.setattr(Stepper, "closure", counted)
        run_simulation(f, 1e-2, w, 7, mode=mode)
        assert calls == ["full"] * (per_step * 7)

    def test_linear_mode_is_scale_free_past_the_closure_bound(self):
        # linear mode never solves the closure, so nothing bounds its
        # amplitude: at eps = 0.5 the density profile reaches sup 1, twice
        # the closure bound, and the run is still 512 times the one at
        # eps = 2^-10, bit for bit
        g = PhaseGrid(k_max=1, eta_max=32.0, n_eta=256, dt=0.25)
        w = coulomb(1)

        def rho(eps):
            f, _ = init_state(InitialData(eps=eps, modes=(Mode(1, 1.0),)),
                              g, w)
            return run_simulation(f, 1e-3, w, 40, mode="linear").rho

        big, small = rho(0.5), rho(2.0 ** -10)
        assert np.max(np.abs(big)) >= 0.5
        assert big.tobytes() == (512.0 * small).tobytes()
