"""Multiplier and weighted-norm layer against quadrature, mpmath and moment oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_hermite

from quad_oracle import adaptive_simpson_batch
from vpfp import multiplier
from vpfp.errors import DomainError
from vpfp.grids import PhaseGrid, SpectralField
from vpfp.io_config import RunConfig
from vpfp.multiplier import (
    _ladder_norm_sq,
    NormSpec,
    a_weight,
    bracket,
    check_propM,
    m_eval,
    m_eval_grid,
    m_exponent_grid,
    norm_d,
    norm_f,
    norm_sobolev_moment,
)
from vpfp.semigroup import bar_eta
from vpfp.solver import InitialData, Mode, init_state, step


def multiplier_oracle(t, k, eta, nu):
    """Independent quadrature of the multiplier exponent."""
    r = nu ** (1.0 / 3.0)

    def integrand(s):
        w = bar_eta(s, k, eta, nu)
        return r / (1.0 + r * r * w * w)

    val, _ = quad(integrand, 0.0, t, epsabs=1e-13, epsrel=1e-12, limit=400)
    return math.exp(-val)


def m_crossing_estimate(t, k, eta, nu):
    """Collisionless closed form of the multiplier for k != 0.

    Freezing the characteristic drift at slope -k gives
    exp(-(arctan(nu^(1/3) eta) - arctan(nu^(1/3) (eta - k t))) / k),
    accurate to O(nu t) against m_eval.
    """
    r = nu ** (1.0 / 3.0)
    return math.exp(-(math.atan(r * eta) - math.atan(r * (eta - k * t))) / k)


def small_grid(k_max=2, eta_max=16.0, n_eta=128):
    return PhaseGrid(k_max=k_max, eta_max=eta_max, n_eta=n_eta,
                     dt=2.0 * eta_max / n_eta)


class TestMEval:
    def test_initial_value(self):
        assert m_eval(0.0, 3, 4.0, 1e-3) == 1.0

    def test_zero_mode_closed_form(self):
        for nu in (1e-5, 1e-3):
            r = nu ** (1.0 / 3.0)
            for t in (0.5 / r, 2.0 / r, 5.0 / r):
                assert m_eval(t, 0, 0.0, nu) == pytest.approx(
                    math.exp(-r * t), abs=1e-10)

    @pytest.mark.parametrize("k,eta,nu,t_units", [
        (1, 0.0, 1e-3, 2.0),
        (2, 25.0, 1e-3, 4.0),
        (4, -10.0, 1e-5, 3.0),
        (0, 7.0, 1e-4, 1.5),
        (-2, 12.0, 1e-4, 2.5),
    ])
    def test_quad_oracle(self, k, eta, nu, t_units):
        t = t_units * nu ** (-1.0 / 3.0)
        assert m_eval(t, k, eta, nu) == pytest.approx(
            multiplier_oracle(t, k, eta, nu), rel=1e-8)

    def test_monotone_nonincreasing(self):
        ts = np.linspace(0.0, 300.0, 40)
        vals = m_eval_grid(ts, 1.0, 5.0, 1e-3)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)

    def test_rate_matches_integrand(self):
        # d/dt (-log M) equals the defining integrand.
        nu, k, eta = 1e-3, 2, 8.0
        t0 = 1.7 * nu ** (-1.0 / 3.0)
        h = 1e-3 * nu ** (-1.0 / 3.0)
        e_up = m_exponent_grid(t0 + h, k, eta, nu)
        e_dn = m_exponent_grid(t0 - h, k, eta, nu)
        rate = (e_up - e_dn) / (2 * h)
        r = nu ** (1.0 / 3.0)
        w = bar_eta(t0, k, eta, nu)
        want = r / (1.0 + r * r * w * w)
        assert rate == pytest.approx(want, rel=1e-5)

    def test_crossing_estimate(self):
        # Weak collisions: the frozen-drift closed form tracks the quadrature.
        nu = 1e-6
        k, eta = 1, 20.0
        t = 40.0
        est = m_crossing_estimate(t, k, eta, nu)
        assert m_eval(t, k, eta, nu) == pytest.approx(est, rel=5e-3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            m_eval(1.0, 1, 0.0, -1e-3)
        with pytest.raises(DomainError):
            m_eval(-1.0, 1, 0.0, 1e-3)


class TestNormSpec:
    def test_defaults_valid(self):
        spec = NormSpec()
        assert (spec.s, spec.c, spec.m) == (4.0, 0.025, 2)

    @pytest.mark.parametrize("kwargs", [
        {"s": -1.0},
        {"c": -0.1},
        {"m": -1},
        {"m": 1.5},
        {"s": float("nan")},
        {"c": float("inf")},
        {"m": float("nan")},
        {"m": float("inf")},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(DomainError):
            NormSpec(**kwargs)


class TestAWeight:
    def test_bracket_example(self):
        spec = NormSpec(s=1.0)
        got = a_weight(0.0, 1, math.sqrt(2.0), 1e-3, spec)
        assert got == pytest.approx(2.0, rel=1e-12)

    def test_zero_mode_ignores_time(self):
        spec = NormSpec(s=2.0)
        v1 = a_weight(0.0, 0, 3.0, 1e-3, spec)
        v2 = a_weight(57.0, 0, 3.0, 1e-3, spec)
        assert v1 == v2 == pytest.approx(10.0, rel=1e-12)

    def test_multiplier_envelope(self):
        # A is sandwiched between c_m and 1 times its multiplier-free value.
        spec = NormSpec()
        nu, k, t = 1e-3, 2, 30.0
        eta = np.linspace(-20, 20, 11)
        full = a_weight(t, k, eta, nu, spec)
        bare = (math.exp(spec.c * nu ** (1.0 / 3.0) * t)
                * bracket(k, eta) ** spec.s)
        ratio = full / bare
        assert np.all(ratio <= 1.0 + 1e-12)
        assert np.all(ratio > 0.05)


class TestNormF:
    def test_zero_field(self):
        grid = small_grid()
        f = SpectralField.zeros(grid)
        assert norm_f(f, NormSpec(), 1e-3) == 0.0

    def test_plain_l2_case(self):
        # s = 0, c = 0, m = 0 at t = 0 reduces to the lattice L2 norm.
        grid = small_grid()
        f = SpectralField.zeros(grid)
        f.data[grid.k_index(1)] = np.exp(-grid.eta ** 2 / 2.0)
        f.data[grid.k_index(-1)] = np.exp(-grid.eta ** 2 / 2.0)
        spec = NormSpec(s=0.0, c=0.0, m=0)
        want = math.sqrt(np.sum(np.abs(f.data) ** 2) * grid.d_eta)
        assert norm_f(f, spec, 1e-3, t=0.0) == pytest.approx(want, rel=1e-12)

    def test_moment_ladder_against_hermite_oracle(self):
        # Single spatial mode with Gaussian profile: the alpha = 1 rung is
        # the squared velocity moment of the physical profile, computable
        # by Gauss-Hermite quadrature.
        grid = small_grid(eta_max=24.0, n_eta=512)
        f = SpectralField.zeros(grid)
        f.data[grid.k_index(1)] = np.exp(-grid.eta ** 2 / 2.0)
        f.data[grid.k_index(-1)] = np.exp(-grid.eta ** 2 / 2.0)
        spec = NormSpec(s=0.0, c=0.0, m=1)
        got = norm_f(f, spec, 1e-3, t=0.0)
        # Profile g(v) with g_hat(eta) = exp(-eta^2/2) has g(v) =
        # exp(-v^2/2)/sqrt(2 pi); Parseval per mode: int |g_hat|^2 d_eta.
        nodes, weights = roots_hermite(80)
        # int v^2 |g_hat-transform pair|: use Parseval with d/d_eta instead.
        d_gauss = -grid.eta * np.exp(-grid.eta ** 2 / 2.0)
        l2 = np.sum(np.exp(-grid.eta ** 2)) * grid.d_eta
        l2_v = np.sum(d_gauss ** 2) * grid.d_eta
        want = math.sqrt(2 * (l2 + l2_v / 4.0))
        assert got == pytest.approx(want, rel=1e-10)
        # Cross-check the lattice sums against continuum Gauss-Hermite values
        # of int exp(-eta^2) and int eta^2 exp(-eta^2).
        gh_l2 = float(np.sum(weights))
        gh_l2_v = float(np.sum(weights * nodes ** 2))
        assert l2 == pytest.approx(gh_l2, rel=1e-8)
        assert l2_v == pytest.approx(gh_l2_v, rel=1e-8)

    def test_rejects_undecayed_boundary(self):
        grid = small_grid(eta_max=4.0, n_eta=64)
        f = SpectralField.zeros(grid)
        f.data[grid.k_index(0)] = np.exp(-grid.eta ** 2 / 2.0)
        with pytest.raises(DomainError):
            norm_f(f, NormSpec(), 1e-3)


class TestNormD:
    def test_initial_time_weight_is_eta(self):
        grid = small_grid()
        f = SpectralField.zeros(grid)
        prof = np.exp(-grid.eta ** 2 / 2.0)
        f.data[grid.k_index(1)] = prof
        f.data[grid.k_index(-1)] = prof
        spec = NormSpec(s=0.0, c=0.0, m=0)
        got = norm_d(f, spec, 1e-3, t=0.0)
        want = math.sqrt(2 * np.sum((grid.eta * prof) ** 2) * grid.d_eta)
        assert got == pytest.approx(want, rel=1e-12)


class TestNormSobolevMoment:
    def test_gaussian_zero_mode(self):
        grid = small_grid(eta_max=24.0, n_eta=512)
        f = SpectralField.zeros(grid)
        f.data[grid.k_index(0)] = np.exp(-grid.eta ** 2 / 2.0)
        got = norm_sobolev_moment(f, s=0.0, q=0)
        want = math.sqrt(np.sum(np.exp(-grid.eta ** 2)) * grid.d_eta)
        assert got == pytest.approx(want, rel=1e-12)


class TestCheckPropM:
    def test_certificate(self):
        rep = check_propM()
        cons = rep.constants
        assert all(np.isfinite(v) for v in cons.values())
        assert cons["b_min"] >= 1.0 - 1e-12
        assert cons["k0_closed_form_err"] <= 1e-10
        # Envelope floor on the standard grid; the documented value is
        # just below 0.1, so pin a regression band rather than a bound.
        assert 0.085 < cons["c_m"] < 0.105
        assert rep.satisfied


# References for the shared characteristic and exponent front end: the
# multiplier integrand, its front end and the norm_d row as they read when
# each wrote the characteristic itself.

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


def ref_m_integrand(k, eta, nu):
    def f(idx, s):
        x = nu[idx, None] * s
        with np.errstate(over="ignore"):
            w = np.exp(np.minimum(x, 700.0)) * (
                eta[idx, None] - k[idx, None] * s * ref_phi1(x))
            y = nu[idx, None] ** (2.0 / 3.0) * w * w
        y = np.where(np.isfinite(y), y, np.inf)
        return nu[idx, None] ** (1.0 / 3.0) / (1.0 + y)

    return f


# Tolerance the multiplier quadrature ran at.
REF_M_RTOL = 1e-10


def ref_m_exponent_grid(t, k, eta, nu, rtol=REF_M_RTOL):
    t_a, k_a, eta_a, nu_a = np.broadcast_arrays(
        np.asarray(t, dtype=float), np.asarray(k, dtype=float),
        np.asarray(eta, dtype=float), np.asarray(nu, dtype=float))
    shape = t_a.shape
    t_a, k_a, eta_a, nu_a = (a.ravel() for a in (t_a, k_a, eta_a, nu_a))
    out = adaptive_simpson_batch(ref_m_integrand(k_a, eta_a, nu_a),
                                 np.zeros_like(t_a), t_a, rtol=rtol)
    return out.reshape(shape)


def ref_m_eval_grid(t, k, eta, nu, rtol=REF_M_RTOL):
    return np.exp(-ref_m_exponent_grid(t, k, eta, nu, rtol=rtol))


def ref_norm_d_row(grid, nu, t):
    x = nu * t
    return np.exp(x) * (grid.eta[None, :]
                        - grid.k_values[:, None].astype(float) * t * ref_phi1(x))


def ref_characteristic(s, k, eta, nu):
    x = nu * s
    return np.exp(x) * (eta - k * s * ref_phi1(x))


class TestWeightBits:
    """M and the weighted norms against the Simpson quadrature the
    multiplier used to run at REF_M_RTOL; each bound is about twice the
    largest gap measured on its inputs."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_m_exponent_grid(self, seed):
        rng = np.random.default_rng(seed)
        n = 120
        nu = 10 ** rng.uniform(-6, -1, n)
        nu[:20] = 1e-9
        k = rng.integers(-4, 5, n).astype(float)
        k[20:40] = 0.0
        t = rng.uniform(0.0, 5.0, n) * nu ** (-1.0 / 3.0)
        eta = rng.normal(0.0, 10.0, n)
        eta[40:60] = k[40:60] * t[40:60]
        # nu t past the 700 clamp, up to 3000
        nu[100:] = rng.uniform(0.5, 2.0, 20)
        t[100:] = rng.uniform(700.0, 3000.0, 20) / nu[100:]
        got = m_exponent_grid(t, k, eta, nu)
        want = ref_m_exponent_grid(t, k, eta, nu)
        # Largest gap 9.9e-11 relative, inside the quadrature's 1e-10.
        assert np.all(np.abs(got - want) <= 2e-10 * want)
        assert np.all(nu[100:] * t[100:] > 700.0)
        assert np.all(np.isfinite(got))
        assert m_eval(float(t[0]), int(k[0]), float(eta[0]), float(nu[0])) == \
            pytest.approx(float(ref_m_eval_grid(t[0], k[0], eta[0], nu[0])),
                          rel=2e-10)

    @pytest.fixture(scope="class")
    def marched(self):
        """The weighted-energy lattice (5 x 512 at dt = 0.25) after 40 full
        steps of the default datum at the default nu = 1e-3."""
        cfg = RunConfig()
        grid = PhaseGrid(k_max=2, eta_max=64.0, n_eta=512, dt=0.25)
        w = cfg.kernel_object(k_max=2)
        field, _ = init_state(InitialData(eps=cfg.eps, modes=(
            Mode(cfg.mode_k, 1.0, cfg.mode_center, cfg.mode_width),)), grid, w)
        for _ in range(40):
            step(field, cfg.nu, w, "full")
        return field

    def test_norms_on_marched_field(self, marched, monkeypatch):
        nu, spec = RunConfig().nu, RunConfig().norm_spec()
        got_f = norm_f(marched, spec, nu)
        got_d = norm_d(marched, spec, nu)
        monkeypatch.setattr(multiplier, "m_eval_grid", ref_m_eval_grid)
        want_f = math.sqrt(_ladder_norm_sq(marched, spec, nu, marched.time,
                                           None))
        want_d = math.sqrt(_ladder_norm_sq(
            marched, spec, nu, marched.time,
            ref_norm_d_row(marched.grid, nu, marched.time)))
        assert marched.time == 10.0
        # Measured gaps: 7.2e-14 (norm_f) and 5.3e-13 (norm_d).
        assert got_f == pytest.approx(want_f, rel=1.5e-13)
        assert got_d == pytest.approx(want_d, rel=1.1e-12)

    def test_check_propM(self, monkeypatch):
        kwargs = dict(k_values=(1, -2), nu_values=(1e-5, 1e-3), n_eta=7,
                      n_t=3, n_pairs=60)
        got = check_propM(**kwargs).constants
        monkeypatch.setattr(multiplier, "m_eval_grid", ref_m_eval_grid)
        monkeypatch.setattr(multiplier, "_characteristic", ref_characteristic)
        want = check_propM(**kwargs).constants
        assert got.keys() == want.keys()
        # Largest gap 1.5e-10 relative (c_ratio); k0_closed_form_err is a
        # rounding-level absolute error on either side.
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=3e-10, abs=1e-15), key


def multiplier_mp_oracle(t, k, eta, nu):
    """-log M by 40-digit mpmath quadrature, split where bar_eta crosses 0."""
    with mpmath.workdps(40):
        t, k, eta, nu = (mpmath.mpf(float(v)) for v in (t, k, eta, nu))
        r = mpmath.cbrt(nu)

        def integrand(s):
            u = mpmath.exp(nu * s)
            w = u * eta - k * (u - 1) / nu
            return r / (1 + (r * w) ** 2)

        points = [mpmath.mpf(0), t]
        if k != 0 and k / (k - nu * eta) > 0:
            crossing = mpmath.log(k / (k - nu * eta)) / nu
            if 0 < crossing < t:
                points.insert(1, crossing)
        return float(mpmath.quad(integrand, points))


class TestClosedForm:
    """The closed-form multiplier exponent against independent integrals."""

    def test_sweep_against_quadrature(self):
        # Simpson at rtol 1e-13 over nu from 1e-9 to 0.3, k = 0 and the
        # critical trace included; 40-digit mpmath at nu = 2 and 10, where
        # the Simpson batch does not reach 1e-13.
        rng = np.random.default_rng(13)
        nu = np.repeat(np.geomspace(1e-9, 0.3, 8), 48)
        k = np.tile(np.repeat([0.0, 1.0, -2.0, 5.0], 12), 8)
        t = rng.uniform(0.0, 5.0, nu.size) * nu ** (-1.0 / 3.0)
        t[::6] *= 1e-4
        eta = rng.normal(0.0, 10.0, nu.size)
        trace = slice(1, None, 4)
        eta[trace] = k[trace] * t[trace] * (
            -np.expm1(-nu[trace] * t[trace]) / (nu[trace] * t[trace]))
        got = m_exponent_grid(t, k, eta, nu)
        want = ref_m_exponent_grid(t, k, eta, nu, rtol=1e-13)
        assert np.all(np.abs(got - want) <= 1e-11 * want)
        for nu_big in (2.0, 10.0):
            for _ in range(12):
                k_i = float(rng.integers(-4, 5))
                eta_i = float(rng.normal(0.0, 10.0))
                t_i = float(rng.uniform(0.0, 5.0)) * nu_big ** (-1.0 / 3.0)
                want_i = multiplier_mp_oracle(t_i, k_i, eta_i, nu_big)
                got_i = float(m_exponent_grid(t_i, k_i, eta_i, nu_big))
                assert got_i == pytest.approx(want_i, rel=5e-12)

    def test_regression_points(self):
        # nu t = 300 stopped the panel-doubling quadrature with NumericError,
        # and at t = 1000 it missed the integral by 2.9e-9 relative.
        value = m_eval(3e5, 1, 3.0, 1e-3)
        assert np.isfinite(value) and 0.0 < value < 1.0
        got = float(m_exponent_grid(1000.0, -2.0, -40.0, 1e-3))
        assert got == pytest.approx(
            multiplier_mp_oracle(1000.0, -2.0, -40.0, 1e-3), rel=1e-12)
