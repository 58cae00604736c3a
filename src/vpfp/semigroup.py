"""Dissipation semigroup of the drift-diffusion flow in Fourier variables.

Working on the Fourier side of phase space, k is an integer wavenumber and
eta the velocity-frequency variable.  The linear collisional flow moves a
frequency along the characteristic

    bar_eta(s; k, eta) = exp(nu s) * (eta - eta_ct(s, k, nu)),
    eta_ct(t, k, nu)   = k (1 - exp(-nu t)) / nu,

and damps amplitude by the weight

    S(t, tau; k, eta) = exp(-nu * int_tau^t bar_eta(s; k, eta)^2 ds).

eta_ct is the critical frequency: the location whose characteristic passes
through 0 at time t, i.e. the point of least damping.  Along the critical
trace S collapses to a function of the elapsed time only, s_density, for
which a closed form of the exponent exists.

All weights are returned as SemigroupValue pairs (value, exponent) so that
regimes where the value underflows remain comparable through the exponent.
Exponents are computed by quadrature (see _quad) rather than by closed-form
differences, which cancel catastrophically for nu t << 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._quad import adaptive_simpson_batch
from .errors import DomainError, RangeError
from .reports import BoundReport

# exp overflows just above 709; keep a margin for squaring.
_EXP_ARG_MAX = 700.0

# Taylor branch threshold for (1 - exp(-x))/x style ratios.
_SERIES_CUT = 1e-4

# Relative tolerance of the exponent quadrature.  One order below the
# 1e-12 identity tolerances certified downstream.
_EXPONENT_RTOL = 1e-13

# s_density switches from the closed form to a series in x = nu*t below
# this cut; the closed form loses ~8 digits near x = 1e-4 while the series
# truncation error at the cut is ~1e-14 relative.
_DENSITY_SERIES_CUT = 0.1

# Coefficients of g(t) = t + 2 expm1(-x)/nu - expm1(-2x)/(2 nu), x = nu t,
# as nu * g = sum_{n>=3} c_n x^n with c_n = (-1)^n (2 - 2^(n-1)) / n!.
_DENSITY_SERIES = (
    1.0 / 3.0,
    -1.0 / 4.0,
    7.0 / 60.0,
    -1.0 / 24.0,
    31.0 / 2520.0,
    -1.0 / 320.0,
    127.0 / 181440.0,
    -17.0 / 120960.0,
    511.0 / 19958400.0,
)


def _psi(x: np.ndarray) -> np.ndarray:
    """(exp(x) - 1) / x with a 6-term Taylor branch near 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SERIES_CUT
    xs = np.where(small, 0.0, x)
    with np.errstate(invalid="ignore", over="ignore"):
        direct = np.expm1(xs) / np.where(small, 1.0, xs)
    t = np.where(small, x, 0.0)
    series = 1.0 + t / 2.0 * (1.0 + t / 3.0 * (1.0 + t / 4.0 * (
        1.0 + t / 5.0 * (1.0 + t / 6.0))))
    return np.where(small, series, direct)


def _phi1(x: np.ndarray) -> np.ndarray:
    """(1 - exp(-x)) / x; equals _psi(-x)."""
    return _psi(-np.asarray(x, dtype=float))


def _check_nu(nu: float, allow_zero: bool = False) -> float:
    nu = float(nu)
    ok = np.isfinite(nu) and (nu >= 0.0 if allow_zero else nu > 0.0)
    if not ok:
        kind = "nonnegative" if allow_zero else "positive"
        raise DomainError(f"collision frequency must be {kind}, got {nu}")
    return nu


def eta_ct(t, k, nu):
    """Critical frequency k (1 - exp(-nu t)) / nu, vectorized over t and k.

    Args:
        t: time(s), >= 0.
        k: integer wavenumber(s).
        nu: collision frequency, >= 0 (the nu = 0 limit is k t, exact
            through the series branch).

    Returns:
        float or ndarray matching the broadcast shape of t and k.
    """
    nu = _check_nu(nu, allow_zero=True)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise DomainError("time must be nonnegative")
    out = np.asarray(k, dtype=float) * t_arr * _phi1(nu * t_arr)
    if np.ndim(t) == 0 and np.ndim(k) == 0:
        return float(out)
    return out


def bar_eta(tau, k, eta, nu):
    """Characteristic position exp(nu tau) * (eta - eta_ct(tau, k, nu)).

    Equals exp(nu tau) eta - k (exp(nu tau) - 1) / nu; the factored form is
    used so that the zero on the critical trace is exact.  Accepts nu = 0
    (limit eta - k tau).  Raises RangeError when nu * tau would overflow
    the exponential.
    """
    nu = _check_nu(nu, allow_zero=True)
    tau_arr = np.asarray(tau, dtype=float)
    if np.any(tau_arr < 0.0):
        raise DomainError("time must be nonnegative")
    x = nu * tau_arr
    if np.any(x > _EXP_ARG_MAX):
        raise RangeError(
            f"nu * tau = {float(np.max(x)):.3g} exceeds {_EXP_ARG_MAX:g}; "
            "the characteristic is no longer representable"
        )
    out = np.exp(x) * (np.asarray(eta, dtype=float)
                       - np.asarray(k, dtype=float) * tau_arr * _phi1(x))
    if np.ndim(tau) == 0 and np.ndim(k) == 0 and np.ndim(eta) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class SemigroupValue:
    """A damping weight kept as (value, exponent) with value = exp(exponent).

    exponent <= 0 always carries full information; value is its float64
    rendering and may underflow to 0 below exp(-745).
    """

    value: float
    exponent: float

    @staticmethod
    def from_exponent(exponent: float) -> "SemigroupValue":
        exponent = float(exponent)
        if exponent > 0.0:
            raise DomainError(f"damping exponent must be <= 0, got {exponent}")
        return SemigroupValue(value=float(np.exp(exponent)), exponent=exponent)


def _bar_eta_sq_nodes(k, eta, nu):
    """Integrand rows for the general exponent quadrature."""

    def f(idx: np.ndarray, s: np.ndarray) -> np.ndarray:
        x = nu[idx, None] * s
        w = np.exp(x) * (eta[idx, None]
                         - k[idx, None] * s * _phi1(x))
        return w * w

    return f


def s_general_exponent(t, tau, k, eta, nu, rtol: float = _EXPONENT_RTOL):
    """Exponent of S(t, tau; k, eta), vectorized over equal-length arrays.

    Args:
        t, tau: times with t >= tau >= 0.
        k: wavenumbers (any integers, including 0).
        eta: frequencies.
        nu: collision frequencies, > 0.
        rtol: quadrature tolerance on the exponent.

    Returns:
        ndarray of exponents, each <= 0.
    """
    t_a, tau_a, k_a, eta_a, nu_a = np.broadcast_arrays(
        np.asarray(t, dtype=float), np.asarray(tau, dtype=float),
        np.asarray(k, dtype=float), np.asarray(eta, dtype=float),
        np.asarray(nu, dtype=float))
    shape = t_a.shape
    t_a = t_a.ravel()
    tau_a = tau_a.ravel()
    k_a = k_a.ravel()
    eta_a = eta_a.ravel()
    nu_a = nu_a.ravel()
    if np.any(nu_a <= 0.0):
        raise DomainError("collision frequency must be positive")
    if np.any(tau_a < 0.0) or np.any(t_a < tau_a):
        raise DomainError("times must satisfy t >= tau >= 0")
    if np.any(nu_a * t_a > _EXP_ARG_MAX):
        raise RangeError("nu * t overflows the characteristic exponential")
    integral = adaptive_simpson_batch(
        _bar_eta_sq_nodes(k_a, eta_a, nu_a),
        tau_a, t_a, rtol=rtol)
    # Quadrature noise can leave a tiny negative integral at exact zeros.
    expo = -nu_a * np.maximum(integral, 0.0)
    return expo.reshape(shape)


def s_general(t: float, tau: float, k: int, eta: float, nu: float) -> SemigroupValue:
    """Damping weight S(t, tau; k, eta) accumulated between times tau and t."""
    expo = s_general_exponent(
        np.atleast_1d(float(t)), np.atleast_1d(float(tau)),
        np.atleast_1d(float(k)), np.atleast_1d(float(eta)),
        np.atleast_1d(float(nu)))
    return SemigroupValue.from_exponent(float(expo[0]))


def s_density_exponent(dt, k, nu):
    """Exponent of the critical-trace weight s_density(dt, k, nu).

    Closed form -(k^2/nu) * (dt + 2 expm1(-x)/nu - expm1(-2x)/(2 nu)) with
    x = nu dt, replaced below x < 0.1 by the series
    -(k^2 nu dt^3) * sum c_n x^(n-3) to preserve relative accuracy.
    Vectorized over dt and k.
    """
    nu = _check_nu(nu)
    dt_a = np.asarray(dt, dtype=float)
    if np.any(dt_a < 0.0):
        raise DomainError("elapsed time must be nonnegative")
    k_a = np.asarray(k, dtype=float)
    x = nu * dt_a
    if np.any(x > _EXP_ARG_MAX):
        raise RangeError("nu * dt overflows the characteristic exponential")
    small = x < _DENSITY_SERIES_CUT
    poly = np.zeros_like(x, dtype=float)
    for c in reversed(_DENSITY_SERIES):
        poly = poly * x + c
    series = -(k_a ** 2) * nu * dt_a ** 3 * poly
    with np.errstate(invalid="ignore"):
        g = dt_a + 2.0 * np.expm1(-x) / nu - np.expm1(-2.0 * x) / (2.0 * nu)
    direct = -(k_a ** 2) / nu * g
    out = np.where(small, series, direct)
    if np.ndim(dt) == 0 and np.ndim(k) == 0:
        return float(out)
    return out


def s_density(dt: float, k: int, nu: float) -> SemigroupValue:
    """Weight on the critical trace: S(t, tau) depends only on dt = t - tau."""
    return SemigroupValue.from_exponent(float(s_density_exponent(float(dt), k, nu)))


def _default_time_grid(nu: float, span: float, n_t: int) -> np.ndarray:
    """Log-spaced times in (0, span * nu^(-1/3)]."""
    t_max = span * nu ** (-1.0 / 3.0)
    return np.geomspace(t_max * 1e-3, t_max, n_t)


def check_propS_bounds(
    k_values=(1, 2, 3, 4),
    nu_values=(1e-5, 1e-3),
    n_t: int = 120,
    t_span: float = 10.0,
    p: float = 1.0,
    delta: float = 0.01,
) -> BoundReport:
    """Certify the enhanced-dissipation envelope of the critical-trace weight.

    Three certificates over the sample grid:
      * delta0: the largest rate (found by bisection to 3 significant digits)
        with -log s_density(t, k) >= delta0 * min(nu k^2 t^3, k^2 t / nu)
        at every grid point.
      * monotonicity of s_density in t along every (k, nu) line.
      * b_constant: max over elapsed times of
        exp(delta nu^(1/3) dt) * s_density(dt, k)^p, certifying that the
        p-th power of the weight absorbs a slow exponential growth factor.

    Args:
        k_values: spatial modes, all nonzero.
        nu_values: collision frequencies.
        n_t: points per time grid, log-spaced in (0, t_span * nu^(-1/3)].
        t_span: time horizon in units of nu^(-1/3).
        p: power of the weight in the b certificate, in (0, 1] or above.
        delta: rate of the growth factor in the b certificate.

    Returns:
        BoundReport with constants delta0, b_constant and failure samples
        for any monotonicity violation.
    """
    if any(k == 0 for k in k_values):
        raise DomainError("bounds are stated for spatial modes k != 0")
    if p <= 0.0:
        raise DomainError("weight power p must be positive")
    failures = []
    exps = {}
    for nu in nu_values:
        t = _default_time_grid(nu, t_span, n_t)
        for k in k_values:
            e = s_density_exponent(t, k, nu)
            exps[(k, nu)] = (t, e)
            bad = np.nonzero(np.diff(e) >= 0.0)[0]
            for i in bad:
                failures.append({
                    "kind": "monotonicity", "k": k, "nu": nu,
                    "t": float(t[i + 1]), "exponent": float(e[i + 1]),
                })

    def delta_ok(d: float) -> bool:
        for (k, nu), (t, e) in exps.items():
            envelope = d * np.minimum(nu * k * k * t ** 3, k * k * t / nu)
            if np.any(-e < envelope):
                return False
        return True

    if delta_ok(1.0):
        delta0 = 1.0
    else:
        lo, hi = 0.0, 1.0
        # Bisect to 3 significant digits of the admissible rate.
        while hi - lo > 1e-3 * hi and hi > 1e-12:
            mid = 0.5 * (lo + hi)
            if delta_ok(mid):
                lo = mid
            else:
                hi = mid
        delta0 = lo

    b_constant = 0.0
    for (k, nu), (t, e) in exps.items():
        vals = np.exp(delta * nu ** (1.0 / 3.0) * t + p * e)
        b_constant = max(b_constant, float(np.max(vals)))
    # dt = 0 contributes exactly 1.
    b_constant = max(b_constant, 1.0)

    return BoundReport(
        name="critical_trace_envelope",
        satisfied=(delta0 > 0.0 and not failures),
        constants={"delta0": float(delta0), "b_constant": b_constant,
                   "p": float(p), "delta": float(delta)},
        details={"k_values": list(k_values), "nu_values": list(nu_values),
                 "n_t": n_t, "t_span": t_span},
        failures=failures,
    )

