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
trace S collapses to a function S_ct(dt, k) of the elapsed time only, for
which a closed form of the exponent exists (s_density_exponent).

Weights are returned as exponents, which stay comparable where the weight
underflows.  _characteristic is the one place bar_eta is written, and
_exponent_quadrature the one quadrature front end (see _quad) of S and of
the ghost multiplier; closed-form differences cancel for nu t << 1.
"""

from __future__ import annotations

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

# s_density_exponent switches from the closed form to a series in x = nu*t
# below this cut; the closed form loses ~8 digits near x = 1e-4 while the
# series truncation error at the cut is ~1e-14 relative.
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


def _phi1(x: np.ndarray) -> np.ndarray:
    """(1 - exp(-x)) / x = expm1(y) / y, y = -x; 6-term Taylor near 0."""
    y = -np.asarray(x, dtype=float)
    small = np.abs(y) < _SERIES_CUT
    ys = np.where(small, 0.0, y)
    with np.errstate(invalid="ignore", over="ignore"):
        direct = np.expm1(ys) / np.where(small, 1.0, ys)
    t = np.where(small, y, 0.0)
    series = 1.0 + t / 2.0 * (1.0 + t / 3.0 * (1.0 + t / 4.0 * (
        1.0 + t / 5.0 * (1.0 + t / 6.0))))
    return np.where(small, series, direct)


def _characteristic(s, k, eta, nu):
    """bar_eta(s; k, eta) = exp(nu s) (eta - k s phi1(nu s)), broadcasting.

    The exponent is clamped at _EXP_ARG_MAX, which only the multiplier
    integrand reaches past; every other caller keeps nu s below it."""
    x = nu * s
    with np.errstate(over="ignore"):
        return np.exp(np.minimum(x, _EXP_ARG_MAX)) * (eta - k * s * _phi1(x))


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
    out = _characteristic(tau_arr, np.asarray(k, dtype=float),
                          np.asarray(eta, dtype=float), nu)
    if np.ndim(tau) == 0 and np.ndim(k) == 0 and np.ndim(eta) == 0:
        return float(out)
    return out


def _exponent_quadrature(g, tau, t, k, eta, nu, rtol, check):
    """int_tau^t g(s, k, eta, nu) ds over broadcastable arrays, for a
    pointwise integrand g.  check(t, tau, nu) validates the raveled times
    after the shared collision-frequency check."""
    arrays = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (t, tau, k, eta, nu)))
    t_a, tau_a, k_a, eta_a, nu_a = (a.ravel() for a in arrays)
    if np.any(nu_a <= 0.0):
        raise DomainError("collision frequency must be positive")
    check(t_a, tau_a, nu_a)

    def f(idx: np.ndarray, s: np.ndarray) -> np.ndarray:
        return g(s, k_a[idx, None], eta_a[idx, None], nu_a[idx, None])

    return adaptive_simpson_batch(f, tau_a, t_a, rtol=rtol).reshape(
        arrays[0].shape)


def _s_rate(s, k, eta, nu):
    w = _characteristic(s, k, eta, nu)
    return w * w


def _check_s_times(t, tau, nu):
    if np.any(tau < 0.0) or np.any(t < tau):
        raise DomainError("times must satisfy t >= tau >= 0")
    if np.any(nu * t > _EXP_ARG_MAX):
        raise RangeError("nu * t overflows the characteristic exponential")


def s_general_exponent(t, tau, k, eta, nu, rtol: float = _EXPONENT_RTOL):
    """Exponent of S(t, tau; k, eta), vectorized over broadcastable arrays.

    Args:
        t, tau: times with t >= tau >= 0.
        k: wavenumbers (any integers, including 0).
        eta: frequencies.
        nu: collision frequencies, > 0.
        rtol: quadrature tolerance on the exponent.

    Returns:
        ndarray of exponents, each <= 0.
    """
    integral = _exponent_quadrature(_s_rate, tau, t, k, eta, nu, rtol,
                                    _check_s_times)
    # Quadrature noise can leave a tiny negative integral at exact zeros.
    return -np.asarray(nu, dtype=float) * np.maximum(integral, 0.0)


def s_density_exponent(dt, k, nu):
    """Exponent of the critical-trace weight S_ct(dt, k, nu).

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
        with -log S_ct(t, k) >= delta0 * min(nu k^2 t^3, k^2 t / nu)
        at every grid point.
      * monotonicity of S_ct in t along every (k, nu) line.
      * b_constant: max over elapsed times of
        exp(delta nu^(1/3) dt) * S_ct(dt, k)^p, certifying that the
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
        t_max = t_span * nu ** (-1.0 / 3.0)
        t = np.geomspace(t_max * 1e-3, t_max, n_t)
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

