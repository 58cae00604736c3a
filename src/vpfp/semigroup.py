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
underflows.  _characteristic is the one place bar_eta is written: the
solver's free flow takes the feet of its characteristics from it, and
their damping from s_general_exponent.  In u = exp(nu s) the
characteristic is linear, bar_eta = (eta - k/nu) u + k/nu, so S and the
ghost multiplier (see multiplier) integrate in closed form; for
nu (t - tau) < 1 the S exponent is regrouped so that it keeps its digits.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, RangeError
from .reports import BoundReport

# exp overflows just above 709; keep a margin for squaring.
_EXP_ARG_MAX = 700.0

# Taylor branch threshold for (1 - exp(-x))/x style ratios.
_SERIES_CUT = 1e-4

# s_density_exponent switches from the closed form to a series in x = nu*t
# below this cut (s_general_exponent likewise below |x| < cut); the closed
# form loses ~8 digits near x = 1e-4 while the series truncation error at
# the cut is ~1e-14 relative.
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
    exponent reaches past, where its arctan has saturated; every other
    caller keeps nu s below it."""
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


def _check_s_times(t, tau, nu):
    if np.any(tau < 0.0) or np.any(t < tau):
        raise DomainError("times must satisfy t >= tau >= 0")
    if np.any(nu * t > _EXP_ARG_MAX):
        raise RangeError("nu * t overflows the characteristic exponential")


def _density_series(x):
    """sum_{n>=3} c_n x^(n-3): nu g / x^3 for |x| < _DENSITY_SERIES_CUT."""
    poly = np.zeros_like(x, dtype=float)
    for c in reversed(_DENSITY_SERIES):
        poly = poly * x + c
    return poly


def s_general_exponent(t, tau, k, eta, nu):
    """Exponent of S(t, tau; k, eta), vectorized over broadcastable arrays.

    Restarting the flow at tau, bar_eta(s; k, eta) = bar_eta(s - tau; k, e)
    with e = bar_eta(tau; k, eta), so with T = t - tau and y = nu T

        int_tau^t bar_eta^2 ds = T (a^2 phi(2y) + 2ab phi(y) + b^2),

    a = e - k/nu, b = k/nu and phi(z) = expm1(z)/z.  Below y = 1 the same
    integral is taken as e^2 T phi(2y) - e k T^2 phi(y)^2 + k^2 T^3 P(-y),
    P(x) = nu g(x) / x^3 with g as in s_density_exponent.

    Args:
        t, tau: times with t >= tau >= 0.
        k: wavenumbers (any integers, including 0).
        eta: frequencies.
        nu: collision frequencies, > 0.

    Returns:
        ndarray of exponents, each <= 0.
    """
    t, tau, k, eta, nu = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (t, tau, k, eta, nu)))
    if np.any(nu <= 0.0):
        raise DomainError("collision frequency must be positive")
    _check_s_times(t, tau, nu)
    e = _characteristic(tau, k, eta, nu)
    span = t - tau
    y = nu * span
    phi_y, phi_2y = _phi1(-y), _phi1(-2.0 * y)
    b = k / nu
    a = e - b
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # a = 0 is the fixed point bar_eta = k/nu, where phi(2y) may be inf.
        late = span * (np.where(a == 0.0, 0.0, a * a * phi_2y)
                       + 2.0 * a * b * phi_y + b * b)
        p = np.where(y < _DENSITY_SERIES_CUT, _density_series(-y),
                     (y - 2.0 * np.expm1(y) + 0.5 * np.expm1(2.0 * y)) / y ** 3)
        early = span * (e * e * phi_2y - e * k * span * phi_y ** 2
                        + k * k * span ** 2 * p)
    integral = np.where(y < 1.0, early, late)
    # Cancellation can leave a tiny negative integral at exact zeros.
    return -nu * np.maximum(integral, 0.0)


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
    series = -(k_a ** 2) * nu * dt_a ** 3 * _density_series(x)
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

