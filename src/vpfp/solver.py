"""Nonlinear integrator on the truncated Fourier lattice.

State and splitting.  The unknown h(t, k, eta) is the Fourier transform of
the perturbation around the global Maxwellian, stored unmixed (no moving
frame).  One time step of size dt = d_eta composes five exact or
Runge-Kutta sub-flows symmetrically:

    OU(dt/2) o N(dt/2) o T(dt) o N(dt/2) o OU(dt/2)

  * T: free streaming is an exact integer column shift per row,
    h(k, eta) <- h(k, eta + k dt).
  * OU: the drift-diffusion flow nu(-eta^2 - eta d_eta) is exact on
    characteristics, h(k, eta) <- h(k, e^(-nu dt) eta) exp(expm1(-2 nu dt)
    eta^2 / 2), resampled by monotone cubic interpolation plus an
    equilibrium-defect correction that makes Maxwellian-profile rows and
    the eta = 0 column exact.  The contracted points, their intervals and
    local coordinates, the growth row and the defect row depend only on
    (grid, nu, dt) and form a cached OU plan; each substep computes only
    the PCHIP slopes of its data, and only on the rows and columns between
    the first and last nonzero ones, the columns widened by the
    interpolant's reach of 3; every other point is +0.0.  The resampler
    repeats scipy's PchipInterpolator operation for operation, so a
    substep gives the same bytes as resampling with scipy.
  * N: the coupling terms (self-consistent force and the moment-feedback
    corrections that give the collision operator its local conservation
    laws) integrated with classical RK4, moments recomputed every stage.
    The k-convolutions commute with the eta-row multiplications and the
    eta stencil, so a stage applies its three moment convolutions to the
    state as one stacked (3 n_k x n_k) product and takes the eta-derivative
    of one block only; the background and Maxwellian-profile terms are
    rank-1 products with two cached rows.  The eta rows, kernel rows and
    x-profile matrix these stages read depend only on the grid and the
    kernel row and are cached read-only as well.  The linear coupling
    reads only the eta = 0 column, which its own increment leaves
    unchanged up to the sign of a zero, so a linear substep evaluates it
    once for all four stages.

Convolutions in k are exact direct sums over the truncated band.  The
moment closure follows the density, momentum and second-moment columns of
the lattice through one-sided stencils at eta = 0 and solves the band
systems (1 + rho) u = m1 and (1 + rho) T = m_t for the velocity u and
temperature T directly, one call each of numpy's LAPACK solve kernel,
after guards that keep the state in the perturbative regime where
1 + rho is well conditioned.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg._umath_linalg import solve1

from .errors import (
    AliasingError,
    DomainError,
    InvariantError,
    StateEscapeError,
)
from .grids import PhaseGrid, SpectralField
from .linear_theory import InteractionKernel, mu_hat

# Positivity floor for the reconstructed temperature profile.  The density
# profile clears it whenever sup|rho| < CLOSURE_SUP_BOUND <= 1 - the floor.
POSITIVITY_FLOOR = 0.5

# Sup-norm bound on the density profile; below it the closure matrix
# 1 + rho has a Neumann series and is well conditioned.
CLOSURE_SUP_BOUND = 0.5

# Oversampling factor of the spatial profile used by the guards.
_X_OVERSAMPLE = 4

_MODES = ("full", "linear", "free")


def conv_matrix(coeffs: np.ndarray) -> np.ndarray:
    """Band-truncated convolution as a matrix acting on mode vectors.

    coeffs is indexed like grid.k_values along its last axis; the (i, j)
    entry is coeffs(k_i - k_j) when the difference stays inside the band,
    else 0, so conv_matrix(a) @ b is the exact convolution truncated to the
    band.  Leading axes of coeffs give a stack of matrices.
    """
    n = coeffs.shape[-1]
    pad = np.zeros(coeffs.shape[:-1] + (2 * n - 1,), dtype=coeffs.dtype)
    pad[..., n - 1 - (n // 2): n - 1 - (n // 2) + n] = coeffs
    return pad[..., _conv_index(n)]


@functools.lru_cache(maxsize=16)
def _conv_index(n: int) -> np.ndarray:
    idx = np.arange(n)
    return _read_only((idx[:, None] - idx[None, :]) + n - 1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _StepPlan:
    """What the coupling RHS and the moment closure need that depends only
    on the grid: eta rows of shape (1, n_eta), the two Maxwellian-profile
    rows of the rank-1 RHS terms, and the matrix taking band coefficients
    to their real spatial profile sum_k c(k) e^(i k x) on an oversampled
    uniform x grid."""

    eta: np.ndarray        # eta
    neg_eta2: np.ndarray   # -(eta^2)
    i_eta_mu: np.ndarray   # 1j eta mu_hat(eta), one-dimensional
    eta2_mu: np.ndarray    # eta^2 mu_hat(eta), one-dimensional
    x_modes: np.ndarray    # e^(i k x), shape (n_x, n_k)


@functools.lru_cache(maxsize=16)
def _step_plan(grid: PhaseGrid) -> _StepPlan:
    eta = grid.eta
    n_x = _X_OVERSAMPLE * grid.n_k
    x = 2.0 * np.pi * np.arange(n_x) / n_x
    row = eta[None, :]
    mu = mu_hat(eta)
    return _StepPlan(*(_read_only(a) for a in (
        row, -(row ** 2), 1j * eta * mu, eta ** 2 * mu,
        np.exp(1j * np.outer(x, grid.k_values)))))


def _force_rows(grid: PhaseGrid, w: InteractionKernel) -> tuple[np.ndarray, np.ndarray]:
    """-1j k w(k) and (k w(k))^2 on each lattice row (the k = 0 row carries
    no force), cached on the grid and the kernel's row values."""
    return _force_rows_of(grid, tuple(
        w(k) if k != 0 else 0.0 for k in range(-grid.k_max, grid.k_max + 1)))


@functools.lru_cache(maxsize=16)
def _force_rows_of(grid: PhaseGrid, w_row: tuple) -> tuple[np.ndarray, np.ndarray]:
    kf = grid.k_values.astype(float)
    wk = np.array(w_row)
    return _read_only(-1j * kf * wk), _read_only((kf * wk) ** 2)


@dataclass
class HydroMoments:
    """Per-mode hydrodynamic readouts at one instant.

    rho, m1, m2 are the density, momentum and second-moment columns; u and
    T solve the closures (1 + rho) u = m1 and (1 + rho) T = m_t, with
    m_t = m2 - m1 * u (all products as band convolutions, the two systems
    solved directly in band form); e_field is the self-consistent force
    coefficient -i k w(k) rho(k).
    """

    rho: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    u: np.ndarray
    m_t: np.ndarray
    T: np.ndarray
    e_field: np.ndarray
    sup_rho: float


def _eta_stencils(d: np.ndarray, g: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
    """Fourth-order first and second eta-derivatives at eta = 0 of data
    whose last axis is the grid's eta."""
    j = g.i_zero
    h = g.d_eta
    d1 = (d[..., j - 2] - 8.0 * d[..., j - 1] + 8.0 * d[..., j + 1] - d[..., j + 2]) / (12.0 * h)
    d2 = (-d[..., j - 2] + 16.0 * d[..., j - 1] - 30.0 * d[..., j]
          + 16.0 * d[..., j + 1] - d[..., j + 2]) / (12.0 * h * h)
    return d1, d2


def _closure_solve(closure: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve closure @ x = b with solve1, the gufunc numpy.linalg.solve
    dispatches a single right-hand side to, without numpy's per-call
    overhead.  numpy ships it, so the closure needs no scipy.linalg, whose
    import costs about 0.3 s.

    solve1 factors and solves in one LAPACK gesv call, and gives numpy's
    bytes at any BLAS thread count.  A factorization kept for two getrs
    solves does not: OpenBLAS's getrs rounds a single right-hand side
    differently at two threads than at one, and two right-hand sides start
    threads that cost more than the second factorization saves.  A
    singular system comes back as NaN, which the temperature guard in
    compute_moments rejects.
    """
    return solve1(closure, b, signature="DD->D")


def compute_moments(field: SpectralField, w: InteractionKernel) -> HydroMoments:
    """Hydrodynamic readouts with regime guards.

    Raises:
        StateEscapeError: when sup_x |rho(x)| >= CLOSURE_SUP_BOUND, past
            which the closure matrix 1 + rho is no longer well conditioned
            (below it the density 1 + rho stays above POSITIVITY_FLOOR),
            when the density is not finite, or when the reconstructed
            temperature profile is not above POSITIVITY_FLOOR (a NaN
            temperature, as a singular closure gives, included).
    """
    g = field.grid
    x_modes = _step_plan(g).x_modes
    d1, d2 = _eta_stencils(field.data, g)
    rho = field.data[:, g.i_zero].copy()
    m1 = 1j * d1
    m2 = -d2
    rho_x = (x_modes @ rho).real
    sup_rho = float(np.max(np.abs(rho_x)))
    if not sup_rho < CLOSURE_SUP_BOUND:
        raise StateEscapeError(
            f"density profile reached sup {sup_rho:.3g}, not below "
            f"{CLOSURE_SUP_BOUND}; the moment closure is no longer perturbative")
    closure = np.eye(g.n_k) + conv_matrix(rho)
    u = _closure_solve(closure, m1)
    m_t = m2 - conv_matrix(m1) @ u
    temp = _closure_solve(closure, m_t)
    temp_x = (x_modes @ temp).real
    temp_min = float(np.min(1.0 + temp_x))
    if not temp_min > POSITIVITY_FLOOR:
        raise StateEscapeError(
            f"temperature profile 1 + T reached min {temp_min:.3g}, not above "
            f"the positivity floor {POSITIVITY_FLOOR}")
    e_field = _force_rows(g, w)[0] * rho
    return HydroMoments(rho=rho, m1=m1, m2=m2, u=u, m_t=m_t, T=temp,
                        e_field=e_field, sup_rho=sup_rho)


@dataclass(frozen=True)
class ConservedQuantities:
    mass: float
    momentum: float
    kinetic_energy: float
    field_energy: float


def conserved_quantities(field: SpectralField, w: InteractionKernel) -> ConservedQuantities:
    """Mass and momentum perturbations and the two energy reservoirs.

    mass = 2 pi Re h(0, 0); momentum = 2 pi Re M1(0);
    kinetic = pi (1 + Re M2(0)); field = pi sum_k k^2 w(k)^2 |rho(k)|^2.
    """
    g = field.grid
    d1, d2 = _eta_stencils(field.data, g)
    i0 = g.k_index(0)
    mass = 2.0 * math.pi * float(field.data[i0, g.i_zero].real)
    momentum = 2.0 * math.pi * float((1j * d1[i0]).real)
    kinetic = math.pi * (1.0 + float((-d2[i0]).real))
    rho = field.data[:, g.i_zero]
    field_e = math.pi * float(np.sum(_force_rows(g, w)[1] * np.abs(rho) ** 2))
    return ConservedQuantities(mass=mass, momentum=momentum,
                               kinetic_energy=kinetic, field_energy=field_e)


@dataclass(frozen=True)
class Mode:
    """One Gaussian bump of initial data: amp * exp(-(eta - center)^2 / (2 width^2))
    on spatial mode k.  The reality partner on -k is added automatically;
    list each +/- pair only once."""

    k: int
    amp: complex
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if self.k == 0:
            raise DomainError("initial bumps live on k != 0; the x-average "
                              "is controlled by the projections")
        # written so that NaN fails each check
        if not 0.0 < self.width < math.inf:
            raise DomainError("bump width must be positive and finite")
        if not (abs(self.amp) < math.inf and abs(self.center) < math.inf):
            raise DomainError("bump amplitude and center must be finite")


@dataclass(frozen=True)
class InitialData:
    """Perturbation datum: Gaussian bumps scaled by eps, plus conservation
    projections.

    Attributes:
        eps: overall amplitude; each bump amplitude is multiplied by it.
        modes: bump list; reality partners are implied.
    """

    eps: float
    modes: tuple[Mode, ...]

    def __post_init__(self):
        if not 0.0 <= self.eps < math.inf:
            raise DomainError("eps must be nonnegative and finite")
        seen = set()
        for mo in self.modes:
            if -mo.k in seen:
                raise DomainError(
                    f"bumps listed on both k = {mo.k} and k = {-mo.k}; the "
                    "reality partner is implied, list each pair once")
            seen.add(mo.k)


def init_state(data: InitialData, grid: PhaseGrid, w: InteractionKernel) -> tuple[SpectralField, dict]:
    """Build the initial lattice state and project onto the constraint set.

    Projections, in order and mutually non-interfering:
      1. mass: subtract h(0,0) times the Maxwellian profile from the k = 0 row;
      2. momentum: subtract the odd profile c1 * i eta e^(-eta^2/2) so the
         first-moment stencil vanishes;
      3. energy: add c2 * eta^2 e^(-eta^2/2) so the total energy equals the
         unperturbed value pi, i.e. M2(0) = -field_energy / pi.

    Returns:
        (field, report); the report records the removed defects and eps.

    Raises:
        InvariantError: if the raw datum violates reality symmetry.
        AliasingError: if a bump does not fit inside the lattice window.
    """
    f = SpectralField.zeros(grid)
    eta = grid.eta
    for mo in data.modes:
        if abs(mo.k) > grid.k_max:
            raise DomainError(f"mode {mo.k} outside the lattice band")
        if abs(mo.center) + 6.0 * mo.width > grid.eta_max:
            raise AliasingError(
                f"bump at center {mo.center} width {mo.width} does not decay "
                "inside the lattice window")
        f.data[grid.k_index(mo.k)] += mo.amp * np.exp(
            -(eta - mo.center) ** 2 / (2 * mo.width ** 2))
        f.data[grid.k_index(-mo.k)] += np.conj(mo.amp) * np.exp(
            -(eta + mo.center) ** 2 / (2 * mo.width ** 2))
    report: dict = {}
    f.data *= data.eps
    defect = f.reality_defect()
    if defect > 1e-10 * max(float(np.max(np.abs(f.data))), 1e-300):
        raise InvariantError(f"raw datum breaks reality symmetry by {defect:.3e}")

    mu = mu_hat(eta)
    i0k = grid.k_index(0)
    # 1. mass
    mass_defect = complex(f.data[i0k, grid.i_zero])
    f.data[i0k] -= mass_defect * mu
    report["mass_removed"] = mass_defect
    # 2. momentum (odd imaginary profile, stencil-exact)
    r_prof = 1j * eta * mu
    r_d1, _ = _eta_stencils(r_prof, grid)
    c1 = complex(_eta_stencils(f.data[i0k], grid)[0]) / complex(r_d1)
    f.data[i0k] -= c1 * r_prof
    report["momentum_removed"] = complex(2.0 * math.pi * (1j * c1 * r_d1).real)
    # 3. energy (even profile, stencil-exact second moment)
    q_prof = eta ** 2 * mu
    cons = conserved_quantities(f, w)
    m2_target = -cons.field_energy / math.pi
    _, q_d2 = _eta_stencils(q_prof, grid)
    c2 = -(complex(_eta_stencils(f.data[i0k], grid)[1]) + m2_target) / complex(q_d2)
    f.data[i0k] += c2 * q_prof
    report["energy_shift"] = float(c2.real)
    f.enforce_reality()
    scale_now = float(np.max(np.abs(f.data)))
    if scale_now > 0 and f.boundary_amplitude() > 1e-12 * scale_now:
        raise AliasingError("initial datum is not below 1e-12 of its peak at "
                            "the window edge; enlarge eta_max")
    report["eps"] = data.eps
    return f, report


def transport_step(field: SpectralField) -> None:
    """Exact shear transport h(k, eta) <- h(k, eta + k dt) as column shifts.

    Row k shifts by k columns; one call per time step.  Raises AliasingError
    when the amplitude falling off the window is significant.
    """
    g = field.grid
    n = g.n_eta
    norm = math.sqrt(float(np.sum(np.abs(field.data) ** 2)))
    dropped_sq = 0.0
    for k in g.k_values:
        if k == 0:
            continue
        i = g.k_index(int(k))
        shift = int(k)
        row = field.data[i]
        if shift > 0:
            dropped_sq += float(np.sum(np.abs(row[:shift]) ** 2))
            row[:n - shift] = row[shift:].copy()
            row[n - shift:] = 0.0
        else:
            s = -shift
            dropped_sq += float(np.sum(np.abs(row[n - s:]) ** 2))
            row[s:] = row[:n - s].copy()
            row[:s] = 0.0
    if norm > 0 and math.sqrt(dropped_sq) > 1e-12 * norm:
        raise AliasingError(
            f"transport dropped amplitude {math.sqrt(dropped_sq):.3e} "
            f"({math.sqrt(dropped_sq) / norm:.2e} of the state); enlarge eta_max")


# Rows are resampled in blocks of at most this many values.  A block's
# dozen temporaries then stay in a 2 MB L2 cache: on 33 x 2048 (66 stacked
# rows) blocks of 8 rows ran a resample in ~5 ms against ~11 ms unblocked
# (2-core Xeon, one BLAS thread); blocks of 12 rows were as slow as none.
_BLOCK_VALUES = 1 << 14


def _edge_slope(h0, h1, m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """Moler's one-sided three-point end slope, limited to keep the shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    flip = np.sign(d) != np.sign(m0)
    over = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3. * np.abs(m0))
    return np.where(flip, 0.0, np.where(over, 3. * m0, d))


@dataclass(frozen=True)
class _ContractedPchip:
    """Monotone cubic (Fritsch-Carlson / Fritsch-Butland PCHIP) resampling
    of rows sampled at fixed breakpoints x onto fixed increasing points xi.

    Everything that depends only on x and xi is held here; a call computes
    the node slopes of the data and evaluates.  The arithmetic repeats
    scipy's PchipInterpolator(x, y, axis=1)(xi) operation for operation, so
    the result is the same to the bit.
    """

    idx: np.ndarray   # interval of each xi: x[i] <= xi < x[i + 1], in [0, n - 2]
    s: np.ndarray     # local coordinate xi - x[idx], and its powers
    s2: np.ndarray
    s3: np.ndarray
    h: np.ndarray     # breakpoint spacings
    w1: np.ndarray    # harmonic-mean weights at the interior breakpoints
    w2: np.ndarray
    w12: np.ndarray

    @classmethod
    def build(cls, x: np.ndarray, xi: np.ndarray) -> "_ContractedPchip":
        n = x.shape[0]
        idx = np.clip(np.searchsorted(x, xi, side="right") - 1, 0, n - 2)
        s = xi - x[idx]
        s2 = s * s
        h = x[1:] - x[:-1]
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        return cls(*(_read_only(a) for a in
                     (idx, s, s2, s2 * s, h, w1, w2, w1 + w2)))

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """Values at xi of the PCHIP interpolants of the rows of y.

        A value on interval idx reads y only at idx - 1 ... idx + 2, and
        where those are all zero the power sum's 0.0 seed makes it +0.0.  So
        only the rows from the first to the last one with a nonzero entry
        are resampled (the imaginary half of a real field is all zero), and
        only on the columns from the first to the last nonzero one, widened
        by 3 on each side, with the plan sliced to match; every other point
        gets +0.0.  A window end node reads only zeros, so its one-sided
        slope is zero like its full one.
        """
        out = np.zeros((y.shape[0], self.idx.shape[0]))
        rows = np.flatnonzero(y.any(axis=1))
        if rows.size == 0:
            return out
        r0, r1 = rows[0], rows[-1] + 1
        y = y[r0:r1]
        cols = np.flatnonzero(y.any(axis=0))
        m, n = y.shape
        a, b = max(cols[0] - 3, 0), min(cols[-1] + 4, n)
        # the points on intervals a ... b - 2
        p0, p1 = np.searchsorted(self.idx, (a, b - 1))
        window = _ContractedPchip(
            self.idx[p0:p1] - a, self.s[p0:p1], self.s2[p0:p1],
            self.s3[p0:p1], self.h[a:b - 1], self.w1[a:b - 2],
            self.w2[a:b - 2], self.w12[a:b - 2])
        y = y[:, a:b]
        part = out[r0:r1, p0:p1]
        n_blocks = -(-m * (b - a) // _BLOCK_VALUES)
        block = -(-m // n_blocks)
        for r in range(0, m, block):
            part[r:r + block] = window._rows(y[r:r + block])
        return out

    def _rows(self, y: np.ndarray) -> np.ndarray:
        h = self.h
        mk = (y[:, 1:] - y[:, :-1]) / h
        smk = np.sign(mk)
        # a node takes the harmonic mean only between two slopes of one
        # strict sign; a sign change or a zero slope on either side gives 0
        monotone = smk[:, 1:] * smk[:, :-1] > 0
        # flat stretches (underflowed tails) make the harmonic mean overflow
        # harmlessly; those nodes are not monotone and take 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inner = 1.0 / ((self.w1 / mk[:, :-1] + self.w2 / mk[:, 1:]) / self.w12)
        dk = np.empty_like(y)
        dk[:, 1:-1] = np.where(monotone, inner, 0.0)
        dk[:, 0] = _edge_slope(h[0], h[1], mk[:, 0], mk[:, 1])
        dk[:, -1] = _edge_slope(h[-1], h[-2], mk[:, -1], mk[:, -2])
        # cubic Hermite coefficients per interval, highest power first
        t = (dk[:, :-1] + dk[:, 1:] - 2 * mk) / h
        c0 = t / h
        c1 = (mk - dk[:, :-1]) / h - t
        i = self.idx
        # the leading 0.0 + is the power sum's seed; it turns -0.0 into 0.0
        return (0.0 + np.take(y, i, axis=1) + np.take(dk, i, axis=1) * self.s
                + np.take(c1, i, axis=1) * self.s2
                + np.take(c0, i, axis=1) * self.s3)


@dataclass(frozen=True)
class _OUPlan:
    """What ou_step needs that depends only on (grid, nu, dt)."""

    resample: _ContractedPchip   # onto xi = e^(-nu dt) eta
    growth: np.ndarray           # exp(expm1(-2 nu dt) eta^2 / 2)
    defect: np.ndarray           # mu - P_mu(xi) * growth


@functools.lru_cache(maxsize=16)
def _ou_plan(grid: PhaseGrid, nu: float, dt: float) -> _OUPlan:
    eta = grid.eta
    resample = _ContractedPchip.build(eta, math.exp(-nu * dt) * eta)
    growth = np.exp(0.5 * np.expm1(-2.0 * nu * dt) * eta ** 2)
    mu = mu_hat(eta)
    defect = mu - resample(mu[None, :])[0] * growth
    return _OUPlan(resample, _read_only(growth), _read_only(defect))


def ou_step(field: SpectralField, nu: float, dt: float) -> None:
    """Exact drift-diffusion flow resampled onto the lattice.

    h(k, eta) <- h(k, e^(-nu dt) eta) * exp(expm1(-2 nu dt) eta^2 / 2),
    evaluated by monotone cubic interpolation at the contracted points plus
    an equilibrium-defect correction

        new(eta) += h(k, 0) * [mu(eta) - P_mu(e^(-nu dt) eta) G(eta)]

    which vanishes at eta = 0 and makes rows proportional to the Maxwellian
    profile exact.

    The contracted points, their intervals and local coordinates, the growth
    row G and the defect row are an OU plan, built on the first call for a
    (grid, nu, dt) and cached; a call only computes the PCHIP slopes of the
    real and imaginary rows, stacked into one real array.  The result is
    bit-identical to evaluating scipy's PchipInterpolator(eta, row, axis=1)
    at the contracted points.
    """
    if dt < 0.0:
        raise DomainError("time step must be nonnegative")
    if dt == 0.0 or nu == 0.0:
        return
    g = field.grid
    plan = _ou_plan(g, nu, dt)
    p = plan.resample(np.concatenate((field.data.real, field.data.imag)))
    field.data = ((p[:g.n_k] + 1j * p[g.n_k:]) * plan.growth
                  + field.data[:, g.i_zero][:, None] * plan.defect[None, :])


def _rhs_full(field: SpectralField, m: HydroMoments,
              nu: float) -> np.ndarray:
    """Force plus collisional moment feedback,

        i eta (A h) - eta^2 (B h) - eta D (C h)
            - (e + nu m1) (i eta mu) - nu m_t (eta^2 mu)

    with A = conv(-e - nu m1), B = conv(nu (rho + m_t)), C = conv(nu rho)
    and D the 4th-order centered eta-derivative, zero at the two edge
    columns on each side.  The three convolutions are one stacked product,
    with i folded into A and D's 1 / (12 d_eta) into C so that the A and C
    blocks share their eta factor.  The last two terms are the background
    row under the force and the Maxwellian profile of the moment feedback.
    """
    g = field.grid
    p = _step_plan(g)
    n = g.n_k
    feed = m.e_field + nu * m.m1
    coeffs = np.stack((-1j * feed, nu * (m.rho + m.m_t),
                       nu / (12.0 * g.d_eta) * m.rho))
    a_h, b_h, c_h = (conv_matrix(coeffs).reshape(3 * n, n)
                     @ field.data).reshape(3, n, -1)
    a_h[:, 2:-2] -= (c_h[:, :-4] - c_h[:, 4:]) - 8.0 * (c_h[:, 1:-3] - c_h[:, 3:-1])
    out = p.eta * a_h
    out += p.neg_eta2 * b_h
    out -= np.outer(feed, p.i_eta_mu)
    out -= np.outer(nu * m.m_t, p.eta2_mu)
    return out


def _rhs_linear(field: SpectralField, w: InteractionKernel) -> np.ndarray:
    g = field.grid
    e = _force_rows(g, w)[0] * field.data[:, g.i_zero]
    return -np.outer(e, _step_plan(g).i_eta_mu)


def _rk4_substep(field: SpectralField, nu: float, w: InteractionKernel,
                 mode: str, dt: float) -> None:
    """Classical RK4 on the coupling terms.

    The linear RHS reads only the eta = 0 column, where i eta mu is zero, so
    the four stages see that column unchanged and one evaluation serves all
    of them; the stage sum keeps its order, so the bytes are RK4's.  The one
    exception is a row whose eta = 0 entry has real part -0.0 and imaginary
    part <= -0.0: a stage may see +0.0 there, and some zeros of the result
    then differ from RK4's in sign, never in value.
    """
    if mode == "free":
        return
    y = field.data
    if mode == "linear":
        k1 = _rhs_linear(field, w)
        field.data = y + dt / 6.0 * (k1 + 2.0 * k1 + 2.0 * k1 + k1)
        return

    def f_of(data: np.ndarray) -> np.ndarray:
        probe = SpectralField(grid=field.grid, data=data, time=field.time)
        return _rhs_full(probe, compute_moments(probe, w), nu)

    k1 = f_of(y)
    k2 = f_of(y + 0.5 * dt * k1)
    k3 = f_of(y + 0.5 * dt * k2)
    k4 = f_of(y + dt * k3)
    field.data = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass
class StepDiagnostics:
    """Guard readings of one step: the reality defect its symmetrization
    removed and the edge-to-peak amplitude ratio."""

    reality_defect: float
    boundary_ratio: float


def step(field: SpectralField, nu: float, w: InteractionKernel,
         mode: str = "full") -> StepDiagnostics:
    """Advance one full time step and report its guard readings.

    The substeps advance a copy of the field; its data and time are written
    back only after every guard has passed, so a step that raises leaves
    the field as it was.
    """
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}")
    if not 0.0 <= nu < math.inf:
        raise DomainError(f"collision frequency must be finite and "
                          f"nonnegative, got nu = {nu!r}")
    dt = field.grid.dt
    new = field.copy()
    ou_step(new, nu, 0.5 * dt)
    _rk4_substep(new, nu, w, mode, 0.5 * dt)
    transport_step(new)
    _rk4_substep(new, nu, w, mode, 0.5 * dt)
    ou_step(new, nu, 0.5 * dt)
    if not np.all(np.isfinite(new.data)):
        raise StateEscapeError("state left the representable range (non-finite "
                               "amplitudes); the run has blown up")
    defect = new.enforce_reality()
    edge_ratio = new.check_boundary()
    new.time += dt
    field.data = new.data
    field.time = new.time
    return StepDiagnostics(reality_defect=defect, boundary_ratio=edge_ratio)


def march(field: SpectralField, nu: float, w: InteractionKernel, n_steps: int,
          mode: str,
          observe: Callable[[SpectralField, ConservedQuantities, int], bool | None]
          ) -> tuple[float, float, float]:
    """Advance the field up to n_steps steps, measuring every state once.

    The conserved quantities are measured on the initial state and after
    each step.  observe(field, cons, i) sees state i (0 is the initial
    state) with its conserved quantities; a true return stops the march
    there.  Returns the largest |mass drift|, |momentum drift| and reality
    defect over the steps taken.
    """
    cons = conserved_quantities(field, w)
    max_dm = max_dp = max_re = 0.0
    i = 0
    while not observe(field, cons, i) and i < n_steps:
        diag = step(field, nu, w, mode)
        after = conserved_quantities(field, w)
        max_dm = max(max_dm, abs(after.mass - cons.mass))
        max_dp = max(max_dp, abs(after.momentum - cons.momentum))
        max_re = max(max_re, diag.reality_defect)
        cons = after
        i += 1
    return max_dm, max_dp, max_re


@dataclass
class RunResult:
    """Time series collected by run_simulation at every step."""

    times: np.ndarray
    rho: np.ndarray
    e_field: np.ndarray
    mass: np.ndarray
    momentum: np.ndarray
    kinetic_energy: np.ndarray
    field_energy: np.ndarray
    max_mass_drift: float
    max_momentum_drift: float
    max_reality_defect: float
    final: SpectralField


def run_simulation(field: SpectralField, nu: float, w: InteractionKernel,
                   n_steps: int, mode: str = "full") -> RunResult:
    """March n_steps from the given state, collecting moment series.

    The march's observer records the moments and conserved quantities of
    the initial instant and of the state after every step; the drift
    maxima are the march's.
    """
    if n_steps < 1:
        raise DomainError("need at least one step")
    rows = []

    def record(f: SpectralField, c: ConservedQuantities, _i: int) -> None:
        m = compute_moments(f, w)
        rows.append((f.time, m.rho, m.e_field, c.mass, c.momentum,
                     c.kinetic_energy, c.field_energy))

    max_dm, max_dp, max_re = march(field, nu, w, n_steps, mode, record)
    times, rho, e_field, mass, momentum, kinetic, field_e = (
        np.asarray(col) for col in zip(*rows))
    return RunResult(times=times, rho=rho, e_field=e_field, mass=mass,
                     momentum=momentum, kinetic_energy=kinetic,
                     field_energy=field_e, max_mass_drift=max_dm,
                     max_momentum_drift=max_dp, max_reality_defect=max_re,
                     final=field)
