"""Solver tests.

Oracles: the drift-diffusion step is checked against a method-of-lines
integration (solve_ivp, FFT eta-derivative) and against its closed form;
transport against exact shifts and the phase-mixing law; moments against
Gauss-Hermite quadrature in physical variables; the composed step against
Richardson self-convergence and the independently discretized density
equation.  Everything else is structural: exact fixed points, exact
conservation columns, guard trips.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.special import roots_hermite

from vpfp.errors import AliasingError, DomainError, StateEscapeError
from vpfp import solver
from vpfp.grids import PhaseGrid, SpectralField
from vpfp.linear_theory import (InteractionKernel, VolterraProblem,
                                free_streaming_source, mu_hat,
                                volterra_solve)
from vpfp.solver import (HydroMoments, InitialData, Mode, _conv_index,
                         _eta_stencils, _force_rows, _ou_plan, _rhs_full,
                         _rhs_linear, _rk4_substep, _step_plan,
                         compute_moments, conserved_quantities, conv_matrix,
                         init_state, march, ou_step, run_simulation, step,
                         transport_step)


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
    to an absolute l1 increment below 1e-14; converges while sup|rho| < 1."""
    x = rhs.copy()
    for _ in range(256):
        x_new = rhs - rho_mat @ x
        inc = float(np.sum(np.abs(x_new - x)))
        x = x_new
        if inc < 1e-14:
            return x
    raise AssertionError("closure iteration failed to converge")


def closure_residuals(m):
    """Relative l1 residuals of the closure identities (1 + rho) u = m1 and
    (1 + rho) T = m_t."""
    ru = m.u + conv_matrix(m.rho) @ m.u - m.m1
    rt = m.T + conv_matrix(m.rho) @ m.T - m.m_t
    s1 = max(float(np.sum(np.abs(m.m1))), 1e-300)
    st = max(float(np.sum(np.abs(m.m_t))), 1e-300)
    return {"u": float(np.sum(np.abs(ru))) / s1,
            "T": float(np.sum(np.abs(rt))) / st}


def rel_gap(got, want):
    """max|got - want| over max|want|."""
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


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
    def test_zero_mode_row_unchanged(self):
        g = small_grid()
        f = SpectralField.zeros(g)
        f.data[g.k_index(0)] = np.exp(-g.eta ** 2 / 2)
        before = f.data[g.k_index(0)].copy()
        transport_step(f)
        assert np.array_equal(f.data[g.k_index(0)], before)

    def test_delta_shifts_one_cell(self):
        g = small_grid()
        f = SpectralField.zeros(g)
        f.data[g.k_index(1), g.i_zero] = 1.0
        transport_step(f)
        # reading h(eta + k dt): the stored sample moves one cell down
        assert f.data[g.k_index(1), g.i_zero - 1] == 1.0
        assert f.data[g.k_index(1), g.i_zero] == 0.0

    def test_gaussian_rows_shift_exactly(self):
        g = small_grid(k_max=2, eta_max=16.0, n_eta=256)
        f = SpectralField.zeros(g)
        datum = {}
        for k in (-2, -1, 1, 2):
            row = np.exp(-(g.eta - 0.5 * k) ** 2 / 2.0) * (1.0 + 0.3j * k)
            f.data[g.k_index(k)] = row
            datum[k] = row.copy()
        n_steps = 12
        for _ in range(n_steps):
            transport_step(f)
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
        for n in range(1, 81):
            transport_step(f)
            t = n * g.dt
            worst = max(worst, abs(abs(f.data[g.k_index(1), g.i_zero])
                                   - r0 * np.exp(-t * t / 2.0)))
        assert worst < 1e-8

    def test_boundary_loss_raises(self):
        g = small_grid(k_max=1, eta_max=8.0, n_eta=64)
        f = SpectralField.zeros(g)
        f.data[g.k_index(1)] = np.exp(-(g.eta + 7.0) ** 2 / 2.0)
        with pytest.raises(AliasingError):
            for _ in range(16):
                transport_step(f)


class TestPhaseGrid:
    @pytest.mark.parametrize("eta_max,dt", [
        (1.0, math.nan), (math.inf, math.inf), (math.nan, math.nan)])
    def test_non_finite_geometry_rejected(self, eta_max, dt):
        with pytest.raises(DomainError):
            PhaseGrid(k_max=1, eta_max=eta_max, n_eta=8, dt=dt)


class TestOuStep:
    def test_maxwellian_rows_exactly_invariant(self):
        g = small_grid()
        f = SpectralField.zeros(g)
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(g.n_k) + 1j * rng.standard_normal(g.n_k)
        mu = np.exp(-g.eta ** 2 / 2)
        f.data = np.outer(coeffs, mu)
        before = f.data.copy()
        ou_step(f, nu=0.3, dt=0.7)
        assert np.max(np.abs(f.data - before)) < 1e-13 * np.max(np.abs(before))

    def test_mass_column_exact(self):
        g = small_grid()
        f = SpectralField.zeros(g)
        rng = np.random.default_rng(4)
        f.data = (rng.standard_normal(f.data.shape)
                  + 1j * rng.standard_normal(f.data.shape))
        f.data *= np.exp(-g.eta ** 2 / 8)[None, :]
        before = f.data[:, g.i_zero].copy()
        ou_step(f, nu=0.2, dt=0.5)
        assert np.array_equal(f.data[:, g.i_zero], before)

    def test_nu_zero_is_identity(self):
        g = small_grid()
        f = SpectralField.zeros(g)
        f.data[g.k_index(1)] = np.exp(-(g.eta - 1.0) ** 2 / 2)
        before = f.data.copy()
        ou_step(f, nu=0.0, dt=0.5)
        assert np.array_equal(f.data, before)

    def test_negative_dt_rejected(self):
        g = small_grid()
        f = SpectralField.zeros(g)
        with pytest.raises(DomainError):
            ou_step(f, nu=0.1, dt=-0.1)

    def test_negative_dt_rejected_before_nu_zero_shortcut(self):
        g = small_grid()
        f = SpectralField.zeros(g)
        with pytest.raises(DomainError):
            ou_step(f, nu=0.0, dt=-0.1)

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
        # monotone cubic resampling loses order near extrema, so the 1e-8
        # certification runs on a fine lattice
        nu, dt, c = 0.1, 0.1, 2.0
        n = 76800
        g = PhaseGrid(k_max=1, eta_max=12.0, n_eta=n, dt=24.0 / n)
        eta = g.eta
        f = SpectralField.zeros(g)
        f.data[g.k_index(1)] = np.exp(-(eta - c) ** 2 / 2.0)
        ou_step(f, nu, dt)
        closed = (np.exp(-(np.exp(-nu * dt) * eta - c) ** 2 / 2.0)
                  * np.exp(0.5 * np.expm1(-2 * nu * dt) * eta ** 2))
        err = np.max(np.abs(f.data[g.k_index(1)].real - closed))
        assert err < 1e-8

    # the benchmark lattices (landau, echo, threshold, weighted energy), the
    # acceptance test_04 lattice, and one whose spacing 1/30 is not a power
    # of two, so that reassociated arithmetic cannot round alike by luck;
    # as (k_max, eta_max, n_eta)
    LATTICES = [(1, 153.25, 2452), (4, 142.0, 1136), (2, 146.0, 584),
                (2, 64.0, 512), (16, 128.0, 2048), (3, 15.0, 900)]

    @staticmethod
    def rough_rows(rng, n_rows, n_eta):
        """Rows with flat zero stretches, sign flips, exact zeros, -0.0 and
        underflowed tails: every branch of the PCHIP slope rule."""
        x = np.linspace(-1.0, 1.0, n_eta)
        y = (rng.standard_normal((n_rows, n_eta))
             * np.exp(-rng.uniform(5.0, 900.0, (n_rows, 1)) * x ** 2))
        y[:, n_eta // 5: n_eta // 5 + 25] = 0.0
        y[:, n_eta // 3: n_eta // 3 + 15] = -0.0
        y[0, ::7] = -0.0
        y[1, ::3] *= -1.0
        y[:, -30:] = 1e-310
        y[-1] = np.exp(-0.5 * (40.0 * x) ** 2)
        # -0.0 at eta = 0 between falling slopes, where every Hermite
        # coefficient is negative: only the power sum's 0.0 seed makes it +0
        j = n_eta // 2
        y[2, j - 1: j + 3] = [0.25, -0.0, -1.0, -101.0]
        return y

    @pytest.mark.parametrize("k_max,eta_max,n_eta", LATTICES)
    # at 1e-17 the contraction rounds to 1: every point is a breakpoint,
    # the last one in the closed last interval
    @pytest.mark.parametrize("nu_dt", [1e-17, 1e-10, 1e-6, 1e-3, 0.3])
    def test_resampler_matches_scipy_pchip_bit_for_bit(self, k_max, eta_max,
                                                       n_eta, nu_dt):
        g = PhaseGrid(k_max=k_max, eta_max=eta_max, n_eta=n_eta,
                      dt=2.0 * eta_max / n_eta)
        nu, dt = 1e-2, nu_dt / 1e-2
        y = self.rough_rows(np.random.default_rng(n_eta), 2 * g.n_k, n_eta)
        xi = math.exp(-nu * dt) * g.eta
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            want = PchipInterpolator(g.eta, y, axis=1)(xi)
        got = _ou_plan(g, nu, dt).resample(y)
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def sparse_rows(case, n_rows, n_eta):
        """Rows that are zero outside a few columns, or all zero, to test
        that the resampler's window over the nonzero rows and columns is
        exact."""
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
            y[3, 1] = 0.75
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
            # real and imaginary parts stacked, the imaginary half zero
            y[: n_rows // 2] = TestOuStep.rough_rows(rng, n_rows // 2, n_eta)
        elif case == "inner_rows":
            y[1, j - 50: j + 50] = bump(100)
            y[-2, j + 60: j + 90] = bump(30)
        return y

    SPARSE_CASES = ["all_zero", "zero_stretches", "touches_first_column",
                    "touches_last_column", "narrow_support",
                    "negative_zero_stretches", "subnormal_tails",
                    "real_field", "inner_rows"]

    @pytest.mark.parametrize("case", SPARSE_CASES)
    @pytest.mark.parametrize("nu_dt", [1e-17, 1e-10, 1e-6, 1e-3, 0.3])
    def test_window_matches_scipy_pchip_bit_for_bit(self, case, nu_dt):
        nu, dt = 1e-2, nu_dt / 1e-2
        for k_max, eta_max, n_eta in self.LATTICES:
            g = PhaseGrid(k_max=k_max, eta_max=eta_max, n_eta=n_eta,
                          dt=2.0 * eta_max / n_eta)
            y = self.sparse_rows(case, 2 * g.n_k, n_eta)
            xi = math.exp(-nu * dt) * g.eta
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                want = PchipInterpolator(g.eta, y, axis=1)(xi)
            got = _ou_plan(g, nu, dt).resample(y)
            assert got.tobytes() == want.tobytes(), (k_max, n_eta)

    def test_window_matches_scipy_pchip_on_random_sparse_rows(self):
        # seeded row sets with up to three nonzero stretches each, of
        # random place, width, sign, -0.0 and subnormal entries
        rng = np.random.default_rng(11)
        for trial in range(60):
            k_max, eta_max, n_eta = self.LATTICES[trial % len(self.LATTICES)]
            g = PhaseGrid(k_max=k_max, eta_max=eta_max, n_eta=n_eta,
                          dt=2.0 * eta_max / n_eta)
            nu_dt = (1e-17, 1e-10, 1e-6, 1e-3, 0.3)[trial % 5]
            y = np.zeros((2 * g.n_k, n_eta))
            for _ in range(int(rng.integers(1, 4))):
                r = int(rng.integers(0, y.shape[0]))
                lo = int(rng.integers(0, n_eta))
                vals = y[r, lo:lo + int(rng.integers(1, 60))]
                vals[:] = (rng.choice([1.0, -1.0, -0.0, 1e-310, -5e-324],
                                      vals.size)
                           * rng.uniform(0.5, 2.0, vals.size))
            xi = math.exp(-nu_dt) * g.eta
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                want = PchipInterpolator(g.eta, y, axis=1)(xi)
            got = _ou_plan(g, 1.0, nu_dt).resample(y)
            assert got.tobytes() == want.tobytes(), trial

    @pytest.mark.parametrize("k_max,eta_max,n_eta", LATTICES[:4])
    def test_step_matches_per_call_scipy_reference(self, k_max, eta_max, n_eta):
        # the reference rebuilds three scipy interpolants per call
        g = PhaseGrid(k_max=k_max, eta_max=eta_max, n_eta=n_eta,
                      dt=2.0 * eta_max / n_eta)
        nu, dt = 1e-3, 0.5 * g.dt
        rng = np.random.default_rng(7)
        f = SpectralField(grid=g, data=(
            self.rough_rows(rng, g.n_k, n_eta)
            + 1j * self.rough_rows(rng, g.n_k, n_eta)))
        eta = g.eta
        xi = math.exp(-nu * dt) * eta
        growth = np.exp(0.5 * np.expm1(-2.0 * nu * dt) * eta ** 2)
        mu = np.exp(-0.5 * eta ** 2)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            p_re = PchipInterpolator(eta, f.data.real, axis=1)(xi)
            p_im = PchipInterpolator(eta, f.data.imag, axis=1)(xi)
            p_mu = PchipInterpolator(eta, mu)(xi)
        want = ((p_re + 1j * p_im) * growth
                + f.data[:, g.i_zero][:, None] * (mu - p_mu * growth)[None, :])
        ou_step(f, nu, dt)
        assert f.data.tobytes() == want.tobytes()

    def test_plan_keyed_on_whole_grid(self):
        a = small_grid(eta_max=16.0, n_eta=256)
        b = small_grid(eta_max=8.0, n_eta=256)
        pa, pb = _ou_plan(a, 0.1, 0.05), _ou_plan(b, 0.1, 0.05)
        assert pa is not pb
        assert not np.array_equal(pa.resample.s, pb.resample.s)
        assert not np.array_equal(pa.growth, pb.growth)
        assert _ou_plan(small_grid(eta_max=16.0, n_eta=256), 0.1, 0.05) is pa

    def test_plan_arrays_read_only(self):
        plan = _ou_plan(small_grid(), 0.1, 0.05)
        arrays = [plan.growth, plan.defect] + [
            getattr(plan.resample, f.name) for f in fields(plan.resample)]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_cached_plan_gives_same_bytes(self):
        g = small_grid()
        rng = np.random.default_rng(5)
        data = (self.rough_rows(rng, g.n_k, g.n_eta)
                + 1j * self.rough_rows(rng, g.n_k, g.n_eta))
        nu, dt = 0.37, 0.0625   # a key no other test uses: first call builds
        start = _ou_plan.cache_info()
        f1 = SpectralField(grid=g, data=data.copy())
        ou_step(f1, nu, dt)
        built = _ou_plan.cache_info()
        f2 = SpectralField(grid=g, data=data.copy())
        ou_step(f2, nu, dt)
        reused = _ou_plan.cache_info()
        assert built.misses == start.misses + 1
        assert reused.hits == built.hits + 1
        assert f1.data.tobytes() == f2.data.tobytes()

    @pytest.mark.parametrize("j,tol", [(1, 5e-7), (2, 5e-6)])
    def test_hermite_profile_decay_rates(self, j, tol):
        # eta^j e^{-eta^2/2} picks up exactly e^{-j nu dt}
        nu, dt = 0.1, 0.1
        g = PhaseGrid(k_max=1, eta_max=8.0, n_eta=3200, dt=0.005)
        prof = g.eta ** j * np.exp(-g.eta ** 2 / 2)
        f = SpectralField.zeros(g)
        f.data[g.k_index(0)] = prof
        ou_step(f, nu, dt)
        expect = np.exp(-j * nu * dt) * prof
        assert np.max(np.abs(f.data[g.k_index(0)].real - expect)) < tol


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
        # h = mu(v-a) - mu(v) transforms to (e^{-i a eta} - 1) mu_hat
        a = 1e-3
        g = PhaseGrid(k_max=1, eta_max=8.0, n_eta=800, dt=0.02)
        f = SpectralField.zeros(g)
        f.data[g.k_index(0)] = (np.exp(-1j * a * g.eta) - 1.0) * np.exp(-g.eta ** 2 / 2)
        m = compute_moments(f, coulomb(1))
        u0 = m.u[g.k_index(0)]
        assert abs(u0 - a) < 1e-6
        # Gauss-Hermite oracle for the first moment in physical variables:
        # integral of v (mu(v-a) - mu(v)) dv
        nodes, weights = roots_hermite(80)
        v = np.sqrt(2.0) * nodes
        vals = v * (np.exp(-(v - a) ** 2 / 2) - np.exp(-v ** 2 / 2)) / np.sqrt(2 * np.pi)
        oracle = np.sum(weights * vals * np.exp(nodes ** 2) * np.sqrt(2.0))
        assert abs(oracle - a) < 1e-9
        assert abs(m.m1[g.k_index(0)] - oracle) < 1e-6

    def test_closure_residuals(self):
        g = small_grid(k_max=3, eta_max=12.0, n_eta=192)
        f = SpectralField.zeros(g)
        mu = np.exp(-g.eta ** 2 / 2)
        for k, amp in ((1, 0.08 + 0.02j), (2, 0.03 - 0.01j), (3, 0.01j)):
            f.data[g.k_index(k)] = amp * np.exp(-(g.eta - 0.2 * k) ** 2 / 2)
            f.data[g.k_index(-k)] = np.conj(amp) * np.exp(-(g.eta + 0.2 * k) ** 2 / 2)
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
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            c = rng.uniform(-0.5, 0.5)
            for sign in (1, -1):  # h(-k, eta) = conj(h(k, -eta))
                x = sign * g.eta - c
                row = a * mu + 0.1 * b * x * np.exp(-x ** 2 / 2)
                f.data[g.k_index(sign * k)] = row if sign > 0 else np.conj(row)
        f.data[g.k_index(0)] = 0.02 * rng.standard_normal() * g.eta ** 2 * mu
        assert f.reality_defect() < 1e-15
        rows = [g.k_index(k) for k in (-3, -2, -1, 1, 2, 3)]
        sup = float(np.max(np.abs(ref_x_profile(f.data[:, g.i_zero],
                                                g.k_values))))
        f.data[rows] *= (0.499 if rho_amp is None else rho_amp) / sup
        m = compute_moments(f, coulomb(3))
        if rho_amp is None:
            assert 0.498 < m.sup_rho < 0.5
        rho_mat = conv_matrix(m.rho)
        u = ref_closure_solve(rho_mat, m.m1)
        assert rel_gap(m.u, u) <= 1e-13
        m_t = m.m2 - conv_matrix(m.m1) @ u
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
        closure = np.eye(g.n_k) + conv_matrix(m.rho)
        u = np.linalg.solve(closure, m.m1)
        m_t = m.m2 - conv_matrix(m.m1) @ u
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

    def test_projection_postconditions(self):
        g = small_grid(k_max=2, eta_max=20.0, n_eta=320)
        w = coulomb(2)
        f, report = init_state(
            InitialData(eps=1e-3, modes=(Mode(1, 0.8 + 0.3j, 0.7, 1.0),)), g, w)
        c = conserved_quantities(f, w)
        assert abs(c.mass) < 1e-14
        assert abs(c.momentum) < 1e-14
        assert abs(total_energy(c) - np.pi) < 1e-12
        assert f.reality_defect() < 1e-16
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

    def test_zero_mode_bump_rejected(self):
        with pytest.raises(DomainError):
            Mode(0, 1.0)

    def test_bump_outside_band_rejected(self):
        g = small_grid(k_max=2)
        with pytest.raises(DomainError):
            init_state(InitialData(eps=0.1, modes=(Mode(3, 1.0),)), g, coulomb(2))

    def test_wide_bump_raises_aliasing(self):
        g = small_grid(k_max=1, eta_max=8.0, n_eta=64)
        with pytest.raises(AliasingError):
            init_state(InitialData(eps=0.1, modes=(Mode(1, 1.0, 0.0, 2.0),)),
                       g, coulomb(1))


class TestNonlinearRhs:
    def test_zero_state_gives_zero(self):
        g = small_grid()
        f = SpectralField.zeros(g)
        m = compute_moments(f, coulomb(2))
        out = _rhs_full(f, m, nu=1e-2)
        assert np.all(out == 0)

    def test_mass_column_identically_zero(self):
        g = small_grid(k_max=2, eta_max=20.0, n_eta=320)
        w = coulomb(2)
        f, _ = init_state(InitialData(eps=0.05,
                                      modes=(Mode(1, 0.8 + 0.3j, 0.7, 1.0),)), g, w)
        m = compute_moments(f, w)
        out = _rhs_full(f, m, nu=1e-2)
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
        m = compute_moments(f, w)
        out = _rhs_full(f, m, nu=0.0)
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
        m = HydroMoments(rho=z.copy(), m1=z.copy(), m2=z.copy(), u=z.copy(),
                         m_t=m_t, T=z.copy(), e_field=z.copy(), sup_rho=0.0)
        out = _rhs_full(f, m, nu=nu)
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


def ref_rhs_linear(field, w):
    g = field.grid
    rho = field.data[:, g.i_zero]
    kf = g.k_values.astype(float)
    e = -1j * kf * ref_kernel_row(g, w) * rho
    eta = g.eta
    return -np.outer(e, 1j * eta * mu_hat(eta))


class TestStepPlan:
    # the four benchmark lattices and a non-dyadic one, as
    # (k_max, eta_max, n_eta)
    LATTICES = [(4, 142.0, 1136), (2, 146.0, 584), (1, 153.25, 2452),
                (2, 64.0, 512), (3, 15.0, 900)]

    @staticmethod
    def seeded_field(g, seed):
        """Gaussian bumps with random complex amplitudes, centers and widths
        under random complex noise in the low bits."""
        rng = np.random.default_rng(seed)
        col = (g.n_k, 1)
        amp = 0.01 * (rng.standard_normal(col) + 1j * rng.standard_normal(col))
        bumps = amp * np.exp(-(g.eta - rng.uniform(-1.0, 1.0, col)) ** 2
                             / (2.0 * rng.uniform(0.7, 1.5, col) ** 2))
        noise = (rng.standard_normal((g.n_k, g.n_eta))
                 + 1j * rng.standard_normal((g.n_k, g.n_eta)))
        return SpectralField(grid=g, data=bumps + 1e-7 * noise)

    @pytest.mark.parametrize("k_max,eta_max,n_eta", LATTICES)
    def test_matches_per_call_reference(self, k_max, eta_max, n_eta):
        # the moment columns, guard readings, conserved quantities and the
        # linear RHS are the reference's bytes; the direct closure solve and
        # the fused RHS reorder sums and agree to rounding
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
            assert rel_gap(_rhs_full(f, m, nu), ref_rhs_full(f, want, nu)) \
                <= 1e-14
        assert _rhs_linear(f, w).tobytes() == ref_rhs_linear(f, w).tobytes()

    def test_plan_arrays_read_only(self):
        g = small_grid()
        plan = _step_plan(g)
        arrays = [getattr(plan, fld.name) for fld in fields(plan)]
        arrays += list(_force_rows(g, coulomb(2))) + [_conv_index(g.n_k)]
        for a in arrays:
            with pytest.raises(ValueError):
                a.flat[0] = 1.0

    def test_kernels_on_one_grid_get_their_own_rows(self):
        g = small_grid(k_max=2)
        f = self.seeded_field(g, 3)
        custom = InteractionKernel(
            label="custom", table={1: 0.7, -1: 0.7, 2: 0.05, -2: 0.05})
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
        return _rhs_linear(SpectralField(grid=field.grid, data=data), w)

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
        f.data[:, -300:] = complex(-0.0, -0.0)
        f.data[:, 400:420] = complex(-0.0, 0.0)
        f.data[:, g.i_zero] = [complex(0.2, -0.0), complex(0.0, -0.0),
                               complex(-0.0, 0.3)]
        return f

    def test_matches_four_stage_rk4_bytes(self):
        f = self.landau_field()
        w = coulomb(1)
        want = ref_rk4_linear_substep(f, w, 0.0625)
        _rk4_substep(f, 1e-5, w, "linear", 0.0625)
        assert f.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("entry", [complex(-0.0, -0.0),
                                       complex(-0.0, -1e-3)])
    def test_negative_zero_real_part_changes_only_zero_signs(self, entry):
        # the one case where the stages can see +0.0 in place of -0.0
        f = self.landau_field()
        w = coulomb(1)
        for row in range(3):
            f.data[row, f.grid.i_zero] = entry
        want = ref_rk4_linear_substep(f, w, 0.0625)
        _rk4_substep(f, 1e-5, w, "linear", 0.0625)
        assert np.array_equal(f.data, want)

    def test_one_rhs_evaluation_per_substep(self, monkeypatch):
        f = self.landau_field()
        w = coulomb(1)
        calls = []

        def counted(field, kernel):
            calls.append(field.time)
            return _rhs_linear(field, kernel)

        monkeypatch.setattr(solver, "_rhs_linear", counted)
        _rk4_substep(f, 1e-5, w, "linear", 0.0625)
        assert len(calls) == 1
        f, _ = init_state(InitialData(eps=1e-3, modes=(Mode(1, 1.0),)),
                          f.grid, w)
        step(f, 1e-5, w, "linear")
        assert len(calls) == 1 + 2


class TestStep:
    def test_zero_state_fixed_point(self):
        g = small_grid(k_max=2, eta_max=12.0, n_eta=96)
        w = coulomb(2)
        f, _ = init_state(InitialData(eps=0.0, modes=(Mode(1, 1.0),)), g, w)
        before = f.data.copy()
        diag = step(f, 0.05, w, "full")
        assert np.max(np.abs(f.data - before)) < 1e-14
        assert diag.boundary_ratio == 0.0

    def test_free_mode_degenerates_to_transport(self):
        g = small_grid(k_max=2, eta_max=16.0, n_eta=256)
        w = coulomb(2)
        f, _ = init_state(InitialData(eps=0.1, modes=(Mode(1, 1.0, 0.0, 1.0),)), g, w)
        manual = f.copy()
        step(f, 0.0, w, "free")
        transport_step(manual)
        # step symmetrizes the unpaired left-edge column after transport,
        # so the manual route needs the same pass before comparing bits
        manual.enforce_reality()
        assert np.array_equal(f.data, manual.data)

    def test_guard_readings_match_direct_measurements(self):
        # step reads the reality defect and the edge ratio off its own
        # guards; replay the substeps and measure both from scratch
        g = small_grid(k_max=2, eta_max=12.0, n_eta=96)
        w = coulomb(2)
        nu = 1e-2
        f, _ = init_state(
            InitialData(eps=0.05, modes=(Mode(1, 0.8 + 0.3j, 0.7, 1.0),)), g, w)
        for _ in range(3):
            step(f, nu, w, "full")
        replay = f.copy()
        diag = step(f, nu, w, "full")
        ou_step(replay, nu, 0.5 * g.dt)
        _rk4_substep(replay, nu, w, "full", 0.5 * g.dt)
        transport_step(replay)
        _rk4_substep(replay, nu, w, "full", 0.5 * g.dt)
        ou_step(replay, nu, 0.5 * g.dt)
        defect = float(np.max(np.abs(replay.data - replay._mirror())))
        replay.data = 0.5 * (replay.data + replay._mirror())
        edge = np.concatenate([replay.data[:, :2], replay.data[:, -2:]], axis=1)
        ratio = float(np.max(np.abs(edge))) / float(np.max(np.abs(replay.data)))
        assert np.array_equal(f.data, replay.data)
        assert defect > 0.0 and ratio > 0.0
        assert diag.reality_defect == defect
        assert diag.boundary_ratio == ratio

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
        for name in ("ou_step", "_rk4_substep", "transport_step"):
            monkeypatch.setattr(solver, name,
                                lambda *a, name=name: substeps.append(name))
        with pytest.raises(DomainError, match="collision frequency"):
            step(f, nu, w, mode)
        assert substeps == []
        assert f.data.tobytes() == data
        assert f.time == time

    def test_failing_step_leaves_field_unchanged(self):
        # a bump centred off zero reaches the edge of this window after 32
        # steps; the 33rd trips the edge guard after its substeps have run
        g = small_grid(k_max=2, eta_max=16.0, n_eta=128)
        w = coulomb(2)
        f, _ = init_state(InitialData(eps=1e-3, modes=(Mode(1, 1.0, 6.0, 1.0),)),
                          g, w)
        for n in range(1, 200):
            data, time = f.data.tobytes(), f.time
            try:
                step(f, 1e-3, w, "full")
            except AliasingError:
                break
        else:
            pytest.fail("the bump never reached the window edge")
        assert n == 33
        assert f.data.tobytes() == data
        assert f.time == time

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
            InitialData(eps=1e-4, modes=(Mode(1, 0.8 + 0.3j, 0.7, 1.0),)), g, w)
        c0 = conserved_quantities(f, w)
        res = run_simulation(f, 1e-3, w, 32, mode="full")
        c1 = conserved_quantities(res.final, w)
        assert res.max_mass_drift == 0.0
        assert res.max_momentum_drift < 1e-12
        assert abs(total_energy(c1) - total_energy(c0)) / total_energy(c0) < 1e-7
        assert res.max_reality_defect < 1e-13

    def test_moderate_amplitude_energy_exchange_bounded(self):
        g = small_grid(k_max=2, eta_max=20.0, n_eta=320)
        w = coulomb(2)
        f, _ = init_state(
            InitialData(eps=0.05, modes=(Mode(1, 0.8 + 0.3j, 0.7, 1.0),)), g, w)
        c0 = conserved_quantities(f, w)
        res = run_simulation(f, 1e-2, w, 32, mode="full")
        c1 = conserved_quantities(res.final, w)
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
        assert res.mass.shape == (11,)
        assert res.times[-1] == pytest.approx(10 * g.dt)

    def test_recorded_conserved_quantities_are_those_of_the_states(self):
        # the records and drift maxima come from the march's one measurement
        # per state; replay and measure directly.  The off-centre complex
        # bump gives nonzero momentum drifts and reality defects.
        g = small_grid(k_max=1, eta_max=16.0, n_eta=128)
        w = coulomb(1)
        f, _ = init_state(InitialData(
            eps=1e-2, modes=(Mode(1, 0.8 + 0.3j, 0.7, 1.0),)), g, w)
        replay = f.copy()
        res = run_simulation(f, 1e-2, w, 7, mode="full")
        want = [conserved_quantities(replay, w)]
        defects = []
        for _ in range(7):
            defects.append(step(replay, 1e-2, w, "full").reality_defect)
            want.append(conserved_quantities(replay, w))
        assert res.mass.tolist() == [c.mass for c in want]
        assert res.momentum.tolist() == [c.momentum for c in want]
        assert res.kinetic_energy.tolist() == [c.kinetic_energy for c in want]
        assert res.field_energy.tolist() == [c.field_energy for c in want]
        pairs = list(zip(want, want[1:]))
        assert res.max_mass_drift == max(abs(b.mass - a.mass) for a, b in pairs)
        assert res.max_momentum_drift == max(
            abs(b.momentum - a.momentum) for a, b in pairs)
        assert res.max_momentum_drift > 0.0
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
            k=1, nu=nu, delta=0.0,
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

        def counted(field, kernel):
            measured.append(field.time)
            return conserved_quantities(field, kernel)

        monkeypatch.setattr(solver, "conserved_quantities", counted)
        res = run_simulation(f, 1e-2, w, 7, mode=mode)
        assert measured == res.times.tolist()
        assert len(measured) == 7 + 1

