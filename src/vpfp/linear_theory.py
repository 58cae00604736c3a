"""Scalar density equation of the linearized dynamics.

Eliminating the distribution from the linearized system leaves a Volterra
equation for the premultiplied density Phi(t) = exp(delta nu^(1/3) t) rho(t, k):

    Phi(t) = F(t) + int_0^t K(t, tau) Phi(tau) d tau,

where F is the premultiplied free-streaming contribution of the initial data
and the physical memory kernel is -kernel_K0(t - tau):

    kernel_K0(dt) = exp(delta nu^(1/3) dt) S_ct(dt, k)
                    * w_hat(k) k^2 t~ mu_hat(k t~),   t~ = (1 - e^(-nu dt)) / nu,

with S_ct the critical-trace weight (semigroup.s_density_exponent).

kernel_K0 is reported with the positive sign; volterra_solve inserts the
physical minus sign itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NumericError
from .reports import FitResult
from .semigroup import eta_ct, s_density_exponent


def mu_hat(eta):
    """Frequency profile of the background Maxwellian: exp(-eta^2 / 2)."""
    eta_a = np.asarray(eta, dtype=float)
    out = np.exp(-0.5 * eta_a * eta_a)
    if np.ndim(eta) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class InteractionKernel:
    """Nonnegative interaction weights w_hat(k) for k != 0.

    Attributes:
        label: short name used in manifests.
        table: explicit weights for the modes that carry any; missing modes
            weigh 0.  Weights must satisfy 0 <= w_hat(k) <= C / |k| for some
            C.
    """

    label: str
    table: dict[int, float]

    def __post_init__(self):
        for k, v in self.table.items():
            if k == 0:
                raise DomainError("interaction weight is defined for k != 0 only")
            if not 0.0 <= v < np.inf:
                raise DomainError(f"weight at k={k} must be finite and >= 0")

    def __call__(self, k: int) -> float:
        if k == 0:
            raise DomainError("interaction weight is defined for k != 0 only")
        return self.table.get(int(k), 0.0)

    @staticmethod
    def coulomb(k_max: int = 64) -> "InteractionKernel":
        return InteractionKernel(
            label="coulomb",
            table={k: 1.0 / (k * k) for k in range(-k_max, k_max + 1) if k != 0})

    @staticmethod
    def screened(k_max: int = 64) -> "InteractionKernel":
        return InteractionKernel(
            label="screened",
            table={k: 1.0 / (1.0 + k * k) for k in range(-k_max, k_max + 1) if k != 0})

    @staticmethod
    def none() -> "InteractionKernel":
        return InteractionKernel(label="none", table={})


def kernel_K0(dt, k: int, nu: float, delta: float, w: InteractionKernel):
    """Premultiplied memory kernel magnitude at elapsed time dt (vectorized).

    Returns the positive formula; the physical convolution uses -kernel_K0.
    """
    if k == 0:
        raise DomainError("the density equation lives on k != 0")
    dt_a = np.asarray(dt, dtype=float)
    if np.any(dt_a < 0.0):
        raise DomainError("elapsed time must be nonnegative")
    t_tilde = eta_ct(dt_a, 1, nu)
    expo = (delta * nu ** (1.0 / 3.0) * dt_a
            + s_density_exponent(dt_a, k, nu)
            - 0.5 * (k * t_tilde) ** 2)
    out = w(k) * k * k * t_tilde * np.exp(expo)
    if np.ndim(dt) == 0:
        return float(out)
    return out


@dataclass
class VolterraProblem:
    """One density-equation solve.

    Attributes:
        k: spatial mode, != 0.
        nu: collision frequency.
        delta: premultiplication rate (units of nu^(1/3)).
        source: premultiplied forcing F sampled on the time grid
            t_j = j dt, j = 0 .. round(t_final / dt).
        dt: time step.
        t_final: horizon.
        kernel_override: optional callable dt -> K used verbatim (with its
            own sign) in place of the physical -kernel_K0; for validation
            against closed forms.
    """

    k: int
    nu: float
    delta: float
    source: np.ndarray
    dt: float
    t_final: float
    kernel_override: Callable | None = None


@dataclass
class VolterraResult:
    t: np.ndarray
    rho: np.ndarray
    phi: np.ndarray
    meta: dict = field(default_factory=dict)


def volterra_solve(problem: VolterraProblem, w: InteractionKernel | None = None) -> VolterraResult:
    """March the Volterra equation with the product trapezoid rule.

    Second order in dt.  The physical kernel vanishes at dt = 0, making the
    update explicit; synthetic kernels with K(0) != 0 are handled through
    the implicit (1 - dt K(0) / 2) factor.

    Returns:
        VolterraResult with the premultiplied solution phi and the density
        rho = exp(-delta nu^(1/3) t) phi.  meta carries a resolution warning
        when the kernel varies by more than 50% across the first step.
    """
    if problem.dt <= 0.0 or problem.t_final <= 0.0:
        raise DomainError("dt and t_final must be positive")
    n = int(round(problem.t_final / problem.dt))
    if n < 2:
        raise DomainError("horizon must cover at least two steps")
    t = np.arange(n + 1) * problem.dt
    if problem.kernel_override is not None:
        kern = np.asarray([problem.kernel_override(float(dt)) for dt in t],
                          dtype=complex)
    else:
        if w is None:
            raise DomainError("an interaction kernel is required")
        kern = -kernel_K0(t, problem.k, problem.nu, problem.delta, w).astype(complex)
    f = np.asarray(problem.source, dtype=complex)
    if f.shape != t.shape:
        raise DomainError(f"source grid has shape {f.shape}, expected {t.shape}")
    meta: dict = {"n_steps": n, "dt": problem.dt}
    scale = max(abs(kern[1]), abs(kern[2]))
    if scale > 0 and abs(kern[2] - kern[1]) > 0.5 * scale:
        meta["resolution_warning"] = (
            "kernel varies by more than 50% per step near t = 0; "
            "halve dt for a trustworthy solution")
    phi = np.empty(n + 1, dtype=complex)
    phi[0] = f[0]
    half = 0.5 * problem.dt
    implicit = 1.0 - half * kern[0]
    if abs(implicit) < 1e-12:
        raise NumericError("implicit trapezoid factor vanished; reduce dt")
    for i in range(1, n + 1):
        acc = f[i] + half * kern[i] * phi[0]
        if i > 1:
            acc = acc + problem.dt * np.dot(kern[i - 1:0:-1], phi[1:i])
        phi[i] = acc / implicit
    decay = np.exp(-problem.delta * problem.nu ** (1.0 / 3.0) * t)
    return VolterraResult(t=t, rho=decay * phi, phi=phi, meta=meta)


def free_streaming_source(h_in_hat: Callable, t, k: int, nu: float):
    """Density radiated by freely advected initial data (not premultiplied).

    rho_free(t) = S_ct(t, k) * h_in_hat(k, eta_ct(t, k, nu)).
    """
    if k == 0:
        raise DomainError("the density equation lives on k != 0")
    t_a = np.atleast_1d(np.asarray(t, dtype=float))
    eta_q = eta_ct(t_a, k, nu)
    vals = np.asarray([h_in_hat(k, float(e)) for e in eta_q], dtype=complex)
    out = np.exp(s_density_exponent(t_a, k, nu)) * vals
    if np.ndim(t) == 0:
        return complex(out[0])
    return out


def fit_decay_rate(t, values, window: tuple[float, float]) -> FitResult:
    """Least-squares exponential fit of a positive series on a time window.

    Args:
        t: time grid.
        values: series, must be strictly positive inside the window.
        window: (t_lo, t_hi) inclusive fit range.

    Returns:
        FitResult with rate (positive = decay), amplitude, r_squared; a
        series with no variation comes back flat with rate 0.
    """
    t = np.asarray(t, dtype=float)
    v = np.asarray(values, dtype=float)
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    if np.count_nonzero(mask) < 3:
        raise DomainError("fit window must contain at least three samples")
    if np.any(v[mask] <= 0.0):
        raise DomainError("series must be strictly positive inside the fit window")
    x = t[mask]
    y = np.log(v[mask])
    if np.max(y) - np.min(y) < 1e-13:
        return FitResult(rate=0.0, amplitude=float(np.exp(y[0])),
                         r_squared=0.0, flat=True)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return FitResult(rate=float(-slope), amplitude=float(np.exp(intercept)),
                     r_squared=r2, flat=False)
