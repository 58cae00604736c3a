"""Ghost-weight multiplier and the weighted norms built from it.

The multiplier

    M(t, k, eta) = exp( -int_0^t nu^(1/3) / (1 + nu^(2/3) bar_eta(s; k, eta)^2) ds )

pays a total price of order one per characteristic crossing of the critical
point and decays at the full rate nu^(1/3) while the characteristic sits
inside the critical layer |bar_eta| <= nu^(-1/3).  It multiplies a Japanese
bracket and a slow exponential to form the working weight

    A(t, k, eta) = exp(c nu^(1/3) t) <k, eta>^s M(t, k, eta)      (k != 0)
    A(t, 0, eta) = <eta>^s,

with <k, eta> = (1 + k^2 + eta^2)^(1/2).  The characteristic is linear in
u = exp(nu s), so -log M integrates in closed form (m_exponent_grid).  The
norms layered on top are the A-weighted velocity-moment ladders (norm_f,
norm_d) and an unweighted Sobolev-moment norm (norm_sobolev_moment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .grids import PhaseGrid, SpectralField
from .reports import BoundReport
from .semigroup import _characteristic, _phi1

# Norms require this much decay at the lattice edge for the spectral
# derivatives to be trustworthy.
_NORM_BOUNDARY = 1e-12

# Cap on the derivative ladder depth accepted by the weighted norms.
_MAX_LADDER = 8


@dataclass(frozen=True)
class NormSpec:
    """Parameters of the A-weighted norms norm_f and norm_d.

    Attributes:
        s: regularity exponent of the bracket weight.
        c: rate of the slow exponential growth factor, in units of nu^(1/3).
        m: depth of the velocity-moment ladder.
    """

    s: float = 4.0
    c: float = 0.025
    m: int = 2

    def __post_init__(self):
        if not 0.0 <= self.s < math.inf:
            raise DomainError("regularity s must be finite and nonnegative")
        if not 0.0 <= self.c < math.inf:
            raise DomainError("growth rate c must be finite and nonnegative")
        if not 0 <= self.m < math.inf or self.m != int(self.m):
            raise DomainError("ladder depth m must be a nonnegative integer")


def m_exponent_grid(t, k, eta, nu) -> np.ndarray:
    """-log M over broadcastable arrays of (t, k, eta, nu), in closed form.

    With r = nu^(1/3), q = r k / nu, x = nu t, sigma = k t (1 - exp(-x)) / x,
    v0 = r eta and vt = r bar_eta(t; k, eta),

        -log M = r / (1 + q^2) [-L / (2 nu) - (q / nu) (arctan vt - arctan v0)],
        L = log((exp(-2x) + r^2 (eta - sigma)^2) / (1 + v0^2)).

    L is log1p(z), z = (expm1(-2x) - r^2 sigma (2 eta - sigma)) / (1 + v0^2),
    while the ratio stays above 1/2, and the plain log below.  For x < 1 the
    arctan difference is taken as one arctan2 of vt - v0 = r t phi(x)
    (nu eta - k), phi(x) = expm1(x)/x, so neither cancels at small t.
    """
    t, k, eta, nu = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (t, k, eta, nu)))
    if np.any(nu <= 0.0):
        raise DomainError("collision frequency must be positive")
    if np.any(t < 0.0):
        raise DomainError("time must be nonnegative")
    r = nu ** (1.0 / 3.0)
    q = r * k / nu
    x = nu * t
    sigma = k * t * _phi1(x)
    v0 = r * eta
    vt = r * _characteristic(t, k, eta, nu)
    z = ((np.expm1(-2.0 * x) - r * r * sigma * (2.0 * eta - sigma))
         / (1.0 + v0 * v0))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_ratio = np.where(
            z > -0.5, np.log1p(z),
            np.logaddexp(-2.0 * x, 2.0 * np.log(r * np.abs(eta - sigma)))
            - np.log1p(v0 * v0))
        d_v = r * t * _phi1(-x) * (nu * eta - k)
        d_arctan = np.where(x < 1.0, np.arctan2(d_v, 1.0 + vt * v0),
                            np.arctan(vt) - np.arctan(v0))
    return r / (1.0 + q * q) * (-log_ratio / (2.0 * nu) - q / nu * d_arctan)


def m_eval_grid(t, k, eta, nu) -> np.ndarray:
    """Multiplier values over broadcastable arrays; each in (0, 1]."""
    return np.exp(-m_exponent_grid(t, k, eta, nu))


def m_eval(t: float, k: int, eta: float, nu: float) -> float:
    """Multiplier at a single phase point."""
    return float(m_eval_grid(float(t), float(k), float(eta), nu))


def bracket(k, eta):
    """Japanese bracket <k, eta> = (1 + k^2 + eta^2)^(1/2)."""
    k_a = np.asarray(k, dtype=float)
    eta_a = np.asarray(eta, dtype=float)
    return np.sqrt(1.0 + k_a * k_a + eta_a * eta_a)


def a_weight(t: float, k: int, eta, nu: float, spec: NormSpec):
    """Working weight A(t, k, eta); vectorized over eta."""
    eta_a = np.asarray(eta, dtype=float)
    if k == 0:
        out = (1.0 + eta_a * eta_a) ** (spec.s / 2.0)
    else:
        out = (np.exp(spec.c * nu ** (1.0 / 3.0) * t)
               * bracket(k, eta_a) ** spec.s
               * m_eval_grid(t, float(k), eta_a, nu))
    if np.ndim(eta) == 0:
        return float(out)
    return out


def _check_norm_input(field: SpectralField, depth: int) -> None:
    scale = float(np.max(np.abs(field.data)))
    if scale == 0.0:
        return
    if field.boundary_amplitude() > _NORM_BOUNDARY * scale:
        raise DomainError(
            "field has not decayed to 1e-12 of its max at the lattice edge; "
            "weighted norms would alias")
    if depth > _MAX_LADDER:
        raise DomainError(f"derivative depth {depth} beyond the grid budget")


def _eta_derivative_stack(data: np.ndarray, d_eta: float, max_order: int) -> list[np.ndarray]:
    """[(i d/d_eta)^a data for a in 0..max_order] by spectral differentiation."""
    if max_order == 0:
        return [data]
    spec = np.fft.fft(data, axis=1)
    omega = 2.0 * np.pi * np.fft.fftfreq(data.shape[1], d=d_eta)
    out = [data]
    for a in range(1, max_order + 1):
        out.append(np.fft.ifft(spec * (-omega) ** a, axis=1))
    return out


def _a_matrix(grid: PhaseGrid, spec: NormSpec, nu: float, t: float) -> np.ndarray:
    """A(t, k, eta) over the full lattice."""
    eta = grid.eta
    out = np.empty((grid.n_k, grid.n_eta))
    for k in grid.k_values:
        out[grid.k_index(int(k))] = a_weight(t, int(k), eta, nu, spec)
    return out


def _ladder_norm_sq(field: SpectralField, spec: NormSpec, nu: float,
                    t: float, point_weight: np.ndarray | None) -> float:
    grid = field.grid
    _check_norm_input(field, spec.m)
    a_mat = _a_matrix(grid, spec, nu, t)
    if point_weight is not None:
        a_mat = a_mat * np.abs(point_weight)
    derivs = _eta_derivative_stack(field.data, grid.d_eta, spec.m)
    total = 0.0
    for alpha in range(spec.m + 1):
        term = np.sum(np.abs(a_mat * derivs[alpha]) ** 2) * grid.d_eta
        total += math.exp(-2.0 * alpha * nu * t) / 4.0 ** alpha * term
    return total


def norm_f(field: SpectralField, spec: NormSpec, nu: float,
           t: float | None = None) -> float:
    """Primary weighted norm: A-weighted moment ladder of depth m.

    norm^2 = sum_{alpha <= m} e^(-2 alpha nu t) / 4^alpha
             * sum_k int |A (i d/d_eta)^alpha h|^2 d_eta.
    """
    if t is None:
        t = field.time
    return math.sqrt(_ladder_norm_sq(field, spec, nu, t, None))


def norm_d(field: SpectralField, spec: NormSpec, nu: float,
           t: float | None = None) -> float:
    """Damping norm: the norm_f ladder with one shifted-gradient factor
    bar_eta(t; k, eta) inserted under the weight."""
    if t is None:
        t = field.time
    grid = field.grid
    if nu * t > 700.0:
        raise DomainError("nu t overflows the characteristic exponential")
    w = _characteristic(t, grid.k_values[:, None].astype(float),
                        grid.eta[None, :], nu)
    return math.sqrt(_ladder_norm_sq(field, spec, nu, t, w))


def norm_sobolev_moment(field: SpectralField, s: float, q: int) -> float:
    """Unweighted Sobolev-moment norm of regularity s and moment budget q.

    norm^2 = sum_{i <= q} C(q, i) sum_k int <k, eta>^(2s)
             |(i d/d_eta)^i h|^2 d_eta.
    """
    grid = field.grid
    if q < 0 or q != int(q):
        raise DomainError("moment budget must be a nonnegative integer")
    _check_norm_input(field, int(q))
    brack = bracket(grid.k_values[:, None].astype(float), grid.eta[None, :])
    weight = brack ** (2.0 * s)
    derivs = _eta_derivative_stack(field.data, grid.d_eta, int(q))
    total = 0.0
    for i in range(int(q) + 1):
        total += (math.comb(int(q), i)
                  * float(np.sum(weight * np.abs(derivs[i]) ** 2)) * grid.d_eta)
    return math.sqrt(total)


def check_propM(
    k_values=(1, 2, 4),
    nu_values=(1e-5, 1e-3),
    n_eta: int = 21,
    eta_span: float = 50.0,
    n_t: int = 12,
    t_span: float = 5.0,
    n_pairs: int = 400,
    seed: int = 0,
) -> BoundReport:
    """Certify the multiplier's working properties on a standard grid.

    Constants reported:
      (a) c_m: min of M over the grid; the lower envelope of the weight.
      (b) b_min: min of 1/(1+y) + y with y = nu^(2/3) bar_eta^2, the exact
          pointwise identity showing multiplier decay plus collisional
          damping never drops below the full rate nu^(1/3); >= 1 always.
      (c) c_ratio: max over sampled pairs, including pairs with exactly one
          zero mode, of |1 - M(l, xi)/M(k, eta)| * nu^(1/3) max(<eta>, <k>)
          / (<k - l, eta - xi>^3 <t>^2); finite commutator-type constant.
      (d) d_deriv: max |dM/d_eta| / nu^(1/3) by central differences with
          step 1e-3 nu^(-1/3).
      (e) k0_closed_form_err: max |M(t, 0, 0) - exp(-nu^(1/3) t)|.

    Returns:
        BoundReport with those constants; satisfied means all are finite
        and b_min >= 1 up to roundoff.
    """
    rng = np.random.default_rng(seed)
    etas = np.linspace(-eta_span, eta_span, n_eta)
    c_m = np.inf
    b_min = np.inf
    d_deriv = 0.0
    c_ratio = 0.0
    k0_err = 0.0
    for nu in nu_values:
        r = nu ** (1.0 / 3.0)
        ts = np.geomspace(0.05, t_span, n_t) / r
        for t in ts:
            # (e) zero-mode closed form.
            k0_err = max(k0_err, abs(m_eval(t, 0, 0.0, nu) - math.exp(-r * t)))
            point_list = []
            m_list = []
            for k in k_values:
                m_row = m_eval_grid(t, float(k), etas, nu)
                c_m = min(c_m, float(np.min(m_row)))
                w = _characteristic(t, k, etas, nu)
                y = r * r * w * w
                b_min = min(b_min, float(np.min(1.0 / (1.0 + y) + y)))
                h = 1e-3 / r
                m_up = m_eval_grid(t, float(k), etas + h, nu)
                m_dn = m_eval_grid(t, float(k), etas - h, nu)
                d_deriv = max(d_deriv, float(np.max(np.abs(m_up - m_dn) / (2 * h))) / r)
                point_list.extend((float(k), float(e)) for e in etas)
                m_list.extend(m_row.tolist())
            # zero-mode points for the pair sweep.
            m0_row = m_eval_grid(t, 0.0, etas, nu)
            point_list.extend((0.0, float(e)) for e in etas)
            m_list.extend(m0_row.tolist())
            pts = np.array(point_list)
            ms = np.array(m_list)
            idx_a = rng.integers(0, len(pts), n_pairs)
            idx_b = rng.integers(0, len(pts), n_pairs)
            keep = ~((pts[idx_a, 0] == 0.0) & (pts[idx_b, 0] == 0.0))
            ka, ea, ma = pts[idx_a, 0][keep], pts[idx_a, 1][keep], ms[idx_a][keep]
            kb, eb, mb = pts[idx_b, 0][keep], pts[idx_b, 1][keep], ms[idx_b][keep]
            num = np.abs(1.0 - mb / ma) * r * np.maximum(
                np.sqrt(1.0 + ea * ea), np.sqrt(1.0 + ka * ka))
            den = (1.0 + (ka - kb) ** 2 + (ea - eb) ** 2) ** 1.5 * (1.0 + t * t)
            c_ratio = max(c_ratio, float(np.max(num / den)))
    constants = {
        "c_m": float(c_m),
        "b_min": float(b_min),
        "c_ratio": float(c_ratio),
        "d_deriv": float(d_deriv),
        "k0_closed_form_err": float(k0_err),
    }
    finite = all(np.isfinite(v) for v in constants.values())
    return BoundReport(
        name="multiplier_properties",
        satisfied=finite and b_min >= 1.0 - 1e-12,
        constants=constants,
        details={"k_values": list(k_values), "nu_values": list(nu_values),
                 "eta_span": eta_span, "n_eta": n_eta, "n_t": n_t,
                 "t_span": t_span},
    )
