"""Characteristics and damping weights against independent oracles.

Oracles: mpmath high-precision closed forms for the critical-trace exponent,
scipy solve_ivp for the characteristic ODE, and scipy quad for the general
exponent integral.
"""

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from quad_oracle import adaptive_simpson_batch
from vpfp.errors import DomainError, RangeError
from vpfp.linear_theory import InteractionKernel, kernel_K0
from vpfp.semigroup import (
    bar_eta,
    check_propS_bounds,
    eta_ct,
    s_density_exponent,
    s_general_exponent,
)


def density_exponent_oracle(dt, k, nu):
    """-(k^2/nu) g(dt) evaluated at 60 decimal digits."""
    with mpmath.workdps(60):
        x = mpmath.mpf(nu) * mpmath.mpf(dt)
        g = (mpmath.mpf(dt)
             + 2 * (mpmath.exp(-x) - 1) / mpmath.mpf(nu)
             - (mpmath.exp(-2 * x) - 1) / (2 * mpmath.mpf(nu)))
        return float(-mpmath.mpf(k) ** 2 / mpmath.mpf(nu) * g)


class TestEtaCt:
    def test_zero_time(self):
        assert eta_ct(0.0, 3, 1e-3) == 0.0

    def test_saturation(self):
        # 1 - exp(-nu t) -> 1, so the critical frequency saturates at k/nu.
        assert eta_ct(1e5, 1, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_collisionless_limit(self):
        with mpmath.workdps(50):
            want = float(2 * (1 - mpmath.exp(mpmath.mpf("-1e-8"))) / mpmath.mpf("1e-8"))
        assert eta_ct(1.0, 2, 1e-8) == pytest.approx(want, abs=1e-7)

    def test_vectorized_matches_scalar(self):
        t = np.linspace(0.0, 40.0, 11)
        got = eta_ct(t, 2, 1e-3)
        for ti, gi in zip(t, got):
            assert gi == eta_ct(float(ti), 2, 1e-3)

    def test_collisionless_limit_is_exact(self):
        assert eta_ct(3.0, 2, 0.0) == 6.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            eta_ct(1.0, 1, -1e-3)
        with pytest.raises(DomainError):
            eta_ct(-1.0, 1, 1e-3)


class TestBarEta:
    def test_initial_time(self):
        assert bar_eta(0.0, 4, 7.25, 1e-3) == 7.25

    def test_zero_on_critical_trace(self):
        for k in (1, 2, 4):
            for nu in (1e-5, 1e-3):
                for t in (0.5, 3.0, 25.0):
                    eta = eta_ct(t, k, nu)
                    assert abs(bar_eta(t, k, eta, nu)) <= 1e-13 * abs(k) * np.exp(nu * t)

    def test_ode_oracle(self):
        # bar_eta solves d/ds w = nu w - k with w(0) = eta.
        rng = np.random.default_rng(7)
        for _ in range(12):
            k = int(rng.integers(-4, 5))
            eta = float(rng.normal(0, 10))
            nu = float(10 ** rng.uniform(-5, -2))
            t = float(rng.uniform(0.1, 20.0))
            sol = solve_ivp(lambda s, w: nu * w - k, (0.0, t), [eta],
                            rtol=1e-12, atol=1e-14, dense_output=True)
            assert bar_eta(t, k, eta, nu) == pytest.approx(
                sol.y[0, -1], abs=1e-10, rel=1e-10)

    def test_overflow_guard(self):
        with pytest.raises(RangeError):
            bar_eta(1e6, 1, 1.0, 1e-2)


class TestSDensity:
    def test_zero_elapsed(self):
        assert s_density_exponent(0.0, 3, 1e-3) == 0.0

    def test_near_collisionless_value(self):
        # Leading behavior exp(-k^2 nu dt^3 / 3).
        v = np.exp(s_density_exponent(1.0, 1, 1e-6))
        assert v == pytest.approx(float(np.exp(-1e-6 / 3.0)), rel=1e-9)

    @pytest.mark.parametrize("x", [1e-6, 1e-4, 3e-3, 0.05, 0.0999, 0.1001, 0.5, 1.0, 10.0])
    @pytest.mark.parametrize("k", [1, 4])
    def test_mpmath_oracle_across_branches(self, x, k):
        nu = 1e-3
        dt = x / nu
        got = s_density_exponent(dt, k, nu)
        want = density_exponent_oracle(dt, k, nu)
        assert got == pytest.approx(want, rel=5e-13)

    def test_collisionless_invariant(self):
        # For nu dt <= 1e-3 the exponent is within 1e-3 relative of -k^2 nu dt^3/3.
        for nu in (1e-7, 1e-8):
            for k in (1, 2, 4):
                dt = 1e-3 / nu * 0.99
                got = s_density_exponent(dt, k, nu)
                lead = -k * k * nu * dt ** 3 / 3.0
                assert got == pytest.approx(lead, rel=1e-3)

    def test_strictly_decreasing(self):
        t = np.geomspace(1e-3, 3e3, 200)
        e = s_density_exponent(t, 2, 1e-4)
        assert np.all(np.diff(e) < 0.0)

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            s_density_exponent(-0.5, 1, 1e-3)


class TestSGeneral:
    def test_empty_interval(self):
        assert s_general_exponent(2.0, 2.0, 3, 1.5, 1e-3) == 0.0

    def test_quad_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            k = int(rng.integers(-4, 5))
            eta = float(rng.normal(0, 8))
            nu = float(10 ** rng.uniform(-5, -2))
            t = float(rng.uniform(0.5, 30.0))
            tau = float(rng.uniform(0.0, t))

            def w2(s):
                return np.exp(nu * s) ** 2 * (eta - eta_ct(s, k, nu)) ** 2

            ref, err = quad(w2, tau, t, epsabs=1e-14, epsrel=1e-12, limit=200)
            got = float(s_general_exponent(t, tau, k, eta, nu))
            assert got == pytest.approx(-nu * ref, rel=1e-10, abs=1e-13)

    def test_trace_identity(self):
        # S(t, tau; k, eta_ct(t - tau, k)) reduces exactly to the critical
        # trace weight of the elapsed time: this is the random-grid version.
        rng = np.random.default_rng(5)
        n = 400
        nu = 10 ** rng.uniform(-5, -2, n)
        k = rng.integers(1, 5, n).astype(float)
        dt = rng.uniform(0.0, 5.0, n) * nu ** (-1.0 / 3.0)
        eta = eta_ct(dt, k, 1.0)  # placeholder, replaced per point below
        eta = np.array([eta_ct(float(d), float(kk), float(nn))
                        for d, kk, nn in zip(dt, k, nu)])
        got = s_general_exponent(dt, np.zeros(n), k, eta, nu)
        want = np.array([s_density_exponent(float(d), float(kk), float(nn))
                         for d, kk, nn in zip(dt, k, nu)])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + 1e-14)

    def test_exponent_additivity(self):
        rng = np.random.default_rng(11)
        n = 300
        nu = 10 ** rng.uniform(-5, -2, n)
        k = rng.integers(-4, 5, n).astype(float)
        eta = rng.normal(0, 10, n)
        t = rng.uniform(0.0, 5.0, n) * nu ** (-1.0 / 3.0)
        tau = t * rng.uniform(0, 1, n)
        tau2 = tau * rng.uniform(0, 1, n)
        whole = s_general_exponent(t, tau2, k, eta, nu)
        left = s_general_exponent(t, tau, k, eta, nu)
        right = s_general_exponent(tau, tau2, k, eta, nu)
        assert np.all(np.abs(whole - (left + right))
                      <= 1e-12 * np.abs(whole) + 1e-14)

    def test_fixed_point_past_phi_overflow(self):
        # eta = k/nu stays put, so the exponent is -nu (k/nu)^2 t even where
        # expm1(2 nu t) overflows.
        assert s_general_exponent(400.0, 0.0, 1, 1.0, 1.0) == -400.0

    def test_value_in_unit_interval(self):
        e = s_general_exponent(10.0, 0.0, 2, -3.0, 1e-4)
        assert e <= 0.0 and 0.0 < np.exp(e) <= 1.0

    def test_rejects_reversed_times(self):
        with pytest.raises(DomainError):
            s_general_exponent(1.0, 2.0, 1, 0.0, 1e-3)


class TestPropSBounds:
    def test_certificate(self):
        rep = check_propS_bounds()
        assert rep.satisfied
        assert rep.failures == []
        # The certified rate approaches 1/3 deep in the weak-collision regime;
        # the grid's largest nu t pulls it slightly below.
        assert 0.2 < rep.constants["delta0"] < 0.34
        assert 1.0 <= rep.constants["b_constant"] < 1.5

    def test_rejects_zero_mode(self):
        with pytest.raises(DomainError):
            check_propS_bounds(k_values=(0, 1))



# References for the shared characteristic: the formulas as they read when
# bar_eta, the S integrand, kernel_K0 and each norm row wrote it themselves.

def ref_phi1(x):
    x = -np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 0.0, x)
    with np.errstate(invalid="ignore", over="ignore"):
        direct = np.expm1(xs) / np.where(small, 1.0, xs)
    t = np.where(small, x, 0.0)
    series = 1.0 + t / 2.0 * (1.0 + t / 3.0 * (1.0 + t / 4.0 * (
        1.0 + t / 5.0 * (1.0 + t / 6.0))))
    return np.where(small, series, direct)


def ref_bar_eta(tau, k, eta, nu):
    tau = np.asarray(tau, dtype=float)
    x = nu * tau
    return np.exp(x) * (np.asarray(eta, dtype=float)
                        - np.asarray(k, dtype=float) * tau * ref_phi1(x))


def ref_bar_eta_sq_nodes(k, eta, nu):
    def f(idx, s):
        x = nu[idx, None] * s
        w = np.exp(x) * (eta[idx, None] - k[idx, None] * s * ref_phi1(x))
        return w * w

    return f


def ref_s_general_exponent(t, tau, k, eta, nu):
    t, tau, k, eta, nu = (a.ravel() for a in np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (t, tau, k, eta, nu))))
    integral = adaptive_simpson_batch(ref_bar_eta_sq_nodes(k, eta, nu),
                                      tau, t, rtol=1e-13)
    return -nu * np.maximum(integral, 0.0)


def ref_kernel_K0(dt, k, nu, w):
    dt = np.asarray(dt, dtype=float)
    t_tilde = dt * ref_phi1(nu * dt)
    expo = s_density_exponent(dt, k, nu) - 0.5 * (k * t_tilde) ** 2
    return w(k) * k * k * t_tilde * np.exp(expo)


class TestCharacteristicBits:
    """The shared characteristic reproduces each former copy bit for bit,
    and the closed-form S exponent its former quadrature."""

    @staticmethod
    def seeded_points(seed, n=240):
        """Random (t, tau, k, eta, nu) with nu = 1e-9, k = 0 and the
        critical trace eta = k t each in its own sixth of the batch."""
        rng = np.random.default_rng(seed)
        nu = 10 ** rng.uniform(-6, -1, n)
        nu[: n // 6] = 1e-9
        k = rng.integers(-4, 5, n).astype(float)
        k[n // 6: n // 3] = 0.0
        t = rng.uniform(0.0, 5.0, n) * nu ** (-1.0 / 3.0)
        t = np.minimum(t, 650.0 / nu)
        tau = t * rng.uniform(0.0, 1.0, n)
        eta = rng.normal(0.0, 10.0, n)
        eta[n // 3: n // 2] = k[n // 3: n // 2] * t[n // 3: n // 2]
        return t, tau, k, eta, nu

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bar_eta(self, seed):
        t, _, k, eta, nu = self.seeded_points(seed)
        for nu_i in (0.0, 1e-9, 1e-3):
            tt = np.minimum(t, 650.0 / nu_i) if nu_i else t
            got = bar_eta(tt, k, eta, nu_i)
            assert got.tobytes() == ref_bar_eta(tt, k, eta, nu_i).tobytes()
        got = np.array([bar_eta(ti, ki, ei, ni)
                        for ti, ki, ei, ni in zip(t, k, eta, nu)])
        want = np.array([float(ref_bar_eta(ti, ki, ei, ni))
                         for ti, ki, ei, ni in zip(t, k, eta, nu)])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_s_general_exponent(self, seed):
        # The closed form against the Simpson integral of bar_eta^2: the
        # seeded points agree to 1.03e-13 relative.
        t, tau, k, eta, nu = self.seeded_points(seed)
        got = s_general_exponent(t, tau, k, eta, nu)
        want = ref_s_general_exponent(t, tau, k, eta, nu)
        assert np.all(np.abs(got - want) <= 2e-13 * np.abs(want))
        shaped = s_general_exponent(t.reshape(12, 20), tau.reshape(12, 20),
                                    k.reshape(12, 20), eta.reshape(12, 20),
                                    nu.reshape(12, 20))
        assert shaped.shape == (12, 20)
        assert shaped.tobytes() == got.tobytes()

    @pytest.mark.parametrize("nu", [1e-9, 1e-5, 1e-3, 0.3])
    def test_kernel_K0(self, nu):
        w = InteractionKernel.coulomb()
        dt = np.concatenate([[0.0], np.geomspace(1e-3, 2e3, 400)])
        for k in (1, -2, 3):
            got = kernel_K0(dt, k, nu, w)
            assert got.tobytes() == ref_kernel_K0(dt, k, nu, w).tobytes()
