"""Nonlinear integrator on the truncated Fourier lattice.

State and splitting.  The unknown h(t, k, eta) is the Fourier transform of
the perturbation around the global Maxwellian, stored unmixed (no moving
frame).  Every datum is real and parity-even, h(-k, -eta) = h(k, eta), and
each sub-flow maps such states to such states, so h is stored as real
numbers and every lattice-sized array of the step is real; the n_k-long
moment vectors of the closure stay complex.  One time step of size
dt = d_eta composes five exact or Runge-Kutta sub-flows symmetrically:

    OU(dt/2) o N(dt/2) o T(dt) o N(dt/2) o OU(dt/2)

  * T: free streaming is an exact integer column shift per row,
    h(k, eta) <- h(k, eta + k dt).
  * OU: the drift-diffusion flow nu(-eta^2 - eta d_eta) is exact on
    characteristics, h(k, eta) <- h(k, e^(-nu dt) eta) exp(expm1(-2 nu dt)
    eta^2 / 2), resampled by monotone cubic interpolation plus an
    equilibrium-defect correction that makes Maxwellian-profile rows and
    the eta = 0 column exact.  The contracted points, their intervals and
    local coordinates, the growth row and the defect row depend only on
    (grid, nu, dt) and form an OU plan; each substep computes only
    the PCHIP slopes of its data, and only on the columns between the
    first and last nonzero ones, widened by the interpolant's reach of 3;
    every other point is +0.0.  The resampler repeats scipy's
    PchipInterpolator operation for operation, so a substep gives the same
    bytes as resampling with scipy.
  * N: the coupling terms (self-consistent force and the moment-feedback
    corrections that give the collision operator its local conservation
    laws) integrated with classical RK4, moments recomputed every stage.
    The k-convolutions commute with the eta-row multiplications and the
    eta stencil, so a stage applies its three moment convolutions to the
    state as one real stacked (3 n_k x n_k) product and takes the
    eta-derivative of one block only; the background and Maxwellian-profile
    terms are rank-1 products with two fixed rows.  The linear coupling
    reads only the eta = 0 column, which its own increment leaves
    unchanged up to the sign of a zero, so a linear substep evaluates it
    once for all four stages.

The step is a function of the state and a per-run plan.  A Stepper for one
(grid, nu, kernel row, mode) holds every array the step reads that depends
only on those four (the OU plan, the eta rows, the kernel rows, the
x-profile matrix and the convolution index, all read-only) and every
lattice-sized buffer its stages write.  step takes its stepper from one
cache, the only plan cache of the module.  The readouts take the grid's
nu = 0 free-mode stepper from it: a recorded density is the state's eta = 0
column and its force the force row times it, so only full mode's RK4
stages and compute_moments run the closure.  The stepper is the only
implementation of the sub-flows and the guards, so the closure, the RHS,
the resampler and the symmetrization each exist once.  The buffers keep
each operation's operands and order, so they change no byte of any result.

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
from .grids import BOUNDARY_SENTINEL, PhaseGrid, SpectralField, mirrored
from .linear_theory import InteractionKernel, mu_hat

# Positivity floor for the reconstructed temperature profile.  The density
# profile clears it whenever sup|rho| < CLOSURE_SUP_BOUND <= 1 - the floor.
POSITIVITY_FLOOR = 0.5

# Sup-norm bound on the density profile; below it the closure matrix
# 1 + rho has a Neumann series and is well conditioned.
CLOSURE_SUP_BOUND = 0.5

# A reality defect above this fraction of the max amplitude, measured before
# the state is averaged with its mirror, indicates a structural bug rather
# than roundoff.
REALITY_DRIFT_LIMIT = 1e-10

# Oversampling factor of the spatial profile used by the guards.
_X_OVERSAMPLE = 4

_MODES = ("full", "linear", "free")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass
class HydroMoments:
    """Per-mode hydrodynamic readouts at one instant.

    rho, m1, m2 are the density, momentum and second-moment columns; u and
    T solve the closures (1 + rho) u = m1 and (1 + rho) T = m_t, with
    m_t = m2 - m1 * u (all products as band convolutions, the two systems
    solved directly in band form); e_field is the self-consistent force
    coefficient -i k w(k) rho(k).  rho and m2 are real; the others are
    complex, m1, u and e_field purely imaginary on a real state.
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
    whose last axis is the grid's eta.  Both multiply by the reciprocal of
    the stencil's denominator; a division rounds differently and moves the
    campaign outputs at rounding level.

    A lattice has few rows, so each row's five columns go through Python
    floats: the same IEEE operations in the same order as the array form,
    without numpy's per-call cost on n_k-long columns."""
    j = g.i_zero
    h = g.d_eta
    r1 = 1.0 / (12.0 * h)
    r2 = 1.0 / (12.0 * h * h)
    cols = d[..., j - 2:j + 3]
    rows = cols.tolist() if cols.ndim == 2 else [cols.tolist()]
    d1 = [(a - 8.0 * b + 8.0 * e - f) * r1 for a, b, _, e, f in rows]
    d2 = [(-a + 16.0 * b - 30.0 * c + 16.0 * e - f) * r2
          for a, b, c, e, f in rows]
    if cols.ndim == 1:
        return np.float64(d1[0]), np.float64(d2[0])
    return np.array(d1), np.array(d2)


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
    """Hydrodynamic readouts with regime guards, by the closure every RK4
    stage of the step runs (Stepper.closure).

    Raises:
        StateEscapeError: when sup_x |rho(x)| >= CLOSURE_SUP_BOUND, past
            which the closure matrix 1 + rho is no longer well conditioned
            (below it the density 1 + rho stays above POSITIVITY_FLOOR),
            when the density is not finite, or when the reconstructed
            temperature profile is not above POSITIVITY_FLOOR (a NaN
            temperature, as a singular closure gives, included).
    """
    rho, *rest = _stepper(field.grid, w).closure(field.data)
    return HydroMoments(rho.copy(), *rest)


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
    return _stepper(field.grid, w).conserved(field)


@dataclass(frozen=True)
class Mode:
    """One Gaussian bump of initial data: amp * exp(-(eta - center)^2 / (2 width^2))
    on spatial mode k, with a real amplitude.  The reality partner
    amp * exp(-(eta + center)^2 / (2 width^2)) on -k is added automatically;
    list each +/- pair only once."""

    k: int
    amp: float
    center: float = 0.0
    width: float = 1.0

    def __post_init__(self):
        if not isinstance(self.k, (int, np.integer)):
            raise DomainError(f"bump mode k = {self.k!r} is not an integer")
        if np.iscomplexobj(self.amp):
            raise DomainError(f"bump on mode k = {self.k} has complex amplitude "
                              f"{self.amp!r}; the lattice state is real")
        if self.k == 0:
            raise DomainError("initial bumps live on k != 0; the x-average "
                              "is set by the energy projection")
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


# an overflowing datum is rejected by the non-finite guard that ends
# init_state, not reported as a warning on the way there
@np.errstate(over="ignore", invalid="ignore")
def init_state(data: InitialData, grid: PhaseGrid, w: InteractionKernel) -> tuple[SpectralField, dict]:
    """Build the initial lattice state and project it onto the energy shell.

    The bumps sit on the rows +-k != 0, so the k = 0 row starts at zero and
    the datum carries no mass and, being real, no momentum perturbation.
    The one projection adds c2 * eta^2 e^(-eta^2/2) to the k = 0 row so
    that the total energy equals the unperturbed value pi, i.e.
    M2(0) = -field_energy / pi.  The state then goes through the step's
    guards and is averaged with its mirror (Stepper._symmetrize).

    Returns:
        (field, report); the report records the energy shift c2 and eps.

    Raises:
        AliasingError: if a bump does not fit inside the lattice window.
        StateEscapeError: if the datum or its projection is not finite.
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
        f.data[grid.k_index(-mo.k)] += mo.amp * np.exp(
            -(eta + mo.center) ** 2 / (2 * mo.width ** 2))
    f.data *= data.eps
    # column 0 has no mirror sample, so it is the only place the datum can
    # break the reality symmetry; this bounds it far below the drift limit
    _check_init_edge(f)

    # energy (even profile, stencil-exact second moment)
    i0k = grid.k_index(0)
    q_prof = eta ** 2 * mu_hat(eta)
    m2_target = -conserved_quantities(f, w).field_energy / math.pi
    _, q_d2 = _eta_stencils(q_prof, grid)
    c2 = -(float(_eta_stencils(f.data[i0k], grid)[1]) + m2_target) / float(q_d2)
    f.data[i0k] += c2 * q_prof
    _stepper(grid, w)._symmetrize(f.data)
    _check_init_edge(f)
    return f, {"energy_shift": c2, "eps": data.eps}


def _check_init_edge(f: SpectralField) -> None:
    scale = float(np.max(np.abs(f.data)))
    if scale > 0 and f.boundary_amplitude() > 1e-12 * scale:
        raise AliasingError("initial datum is not below 1e-12 of its peak at "
                            "the window edge; enlarge eta_max")


def transport_step(d: np.ndarray, g: PhaseGrid) -> np.ndarray:
    """Exact shear transport h(k, eta) <- h(k, eta + k dt) of the state d on
    the grid g as column shifts.

    Row k shifts by k columns into a new array, which is returned; one call
    per time step.  Raises AliasingError when the amplitude falling off the
    window is significant.
    """
    n = g.n_eta
    sq = d * d
    norm = math.sqrt(float(sq.sum()))
    out = np.empty_like(d)
    dropped_sq = 0.0
    for i, k in enumerate(range(-g.k_max, g.k_max + 1)):
        row = d[i]
        if k > 0:
            dropped_sq += float(sq[i, :k].sum())
            out[i, :n - k] = row[k:]
            out[i, n - k:] = 0.0
        elif k < 0:
            dropped_sq += float(sq[i, n + k:].sum())
            out[i, -k:] = row[:n + k]
            out[i, :-k] = 0.0
        else:
            out[i] = row
    if norm > 0 and math.sqrt(dropped_sq) > 1e-12 * norm:
        raise AliasingError(
            f"transport dropped amplitude {math.sqrt(dropped_sq):.3e} "
            f"({math.sqrt(dropped_sq) / norm:.2e} of the state); enlarge eta_max")
    return out


# Rows are resampled in blocks of at most this many values.  A block's
# dozen temporaries then stay in a 2 MB L2 cache: on 33 x 2048 (66 stacked
# rows) blocks of 8 rows ran a resample in ~5 ms against ~11 ms unblocked
# (2-core Xeon, one BLAS thread); blocks of 12 rows were as slow as none.
_BLOCK_VALUES = 1 << 14


def _sign(x: float) -> float:
    """numpy.sign of a float, NaN for NaN."""
    return (x > 0) - (x < 0) if x == x else math.nan


def _edge_slopes(h0: float, h1: float, m0: np.ndarray,
                 m1: np.ndarray) -> list[float]:
    """Moler's one-sided three-point end slope of each row, limited to keep
    the shape.  A block has few rows, so each row goes through Python
    floats: scipy's IEEE operations in scipy's order, without numpy's
    per-call cost on columns a few values long."""
    out = []
    for a, b in zip(m0.tolist(), m1.tolist()):
        d = ((2 * h0 + h1) * a - h0 * b) / (h0 + h1)
        s = _sign(a)
        if _sign(d) != s:
            out.append(0.0)
        elif s != _sign(b) and abs(d) > 3. * abs(a):
            out.append(3. * a)
        else:
            out.append(d)
    return out


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

    def __call__(self, y: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
        """Values at xi of the PCHIP interpolants of the rows of y, as a new
        array; work, when given, is a (5, y.size) scratch block for the
        slopes and the power sum.

        A value on interval idx reads y only at idx - 1 ... idx + 2, and
        where those are all zero the power sum's 0.0 seed makes it +0.0.  So
        only the columns a ... b - 1 from the first to the last nonzero one
        are resampled, widened by 3 on each side, onto the points p0 ... p1
        - 1 on intervals a ... b - 2; every other point gets +0.0.  A window
        end node reads only zeros, so its one-sided slope is zero like its
        full one.
        """
        m, n = y.shape
        n_xi = self.idx.shape[0]
        cols = np.flatnonzero(y.any(axis=0))
        if cols.size == 0:
            return np.zeros((m, n_xi))
        a, b = max(cols[0] - 3, 0), min(cols[-1] + 4, n)
        p0, p1 = self.idx.searchsorted((a, b - 1))
        y = y[:, a:b]
        i = self.idx[p0:p1] - a
        n_blocks = -(-m * (b - a) // _BLOCK_VALUES)
        block = -(-m // n_blocks)
        if work is None:
            work = np.empty((5, block * n))
        out = (np.empty if p1 - p0 == n_xi else np.zeros)((m, n_xi))
        for r in range(0, m, block):
            out[r:r + block, p0:p1] = self._rows(y[r:r + block], a, b, p0, p1,
                                                 i, work)
        return out

    def _rows(self, y: np.ndarray, a, b, p0, p1, i: np.ndarray,
              work: np.ndarray) -> np.ndarray:
        """The window's values, as a view of work: y holds columns a ... b -
        1, and i is the interval of each point p0 ... p1 - 1, counted from
        a.  Each of work's rows holds one array at a time."""
        m, w = y.shape

        def buf(row: int, cols: int) -> np.ndarray:
            return work[row, :m * cols].reshape(m, cols)

        h = self.h[a:b - 1]
        mk = np.subtract(y[:, 1:], y[:, :-1], out=buf(0, w - 1))
        mk /= h
        smk = np.sign(mk, out=buf(1, w - 1))
        # a node takes the harmonic mean only between two slopes of one
        # strict sign; a sign change or a zero slope on either side gives 0
        monotone = np.multiply(smk[:, 1:], smk[:, :-1], out=buf(2, w - 2)) > 0
        # flat stretches (underflowed tails) make the harmonic mean overflow
        # harmlessly; those nodes are not monotone and take 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            inner = np.divide(self.w1[a:b - 2], mk[:, :-1], out=buf(1, w - 2))
            inner += np.divide(self.w2[a:b - 2], mk[:, 1:], out=buf(2, w - 2))
            inner /= self.w12[a:b - 2]
            np.divide(1.0, inner, out=inner)
        dk = buf(3, w)
        dk[:, 1:-1] = 0.0
        np.copyto(dk[:, 1:-1], inner, where=monotone)
        h0, h1, h_1, h_2 = h[[0, 1, -1, -2]].tolist()
        dk[:, 0] = _edge_slopes(h0, h1, mk[:, 0], mk[:, 1])
        dk[:, -1] = _edge_slopes(h_1, h_2, mk[:, -1], mk[:, -2])
        # cubic Hermite coefficients per interval, highest power first
        t = np.add(dk[:, :-1], dk[:, 1:], out=buf(1, w - 1))
        t -= np.multiply(2, mk, out=buf(2, w - 1))
        t /= h
        c0 = np.divide(t, h, out=buf(2, w - 1))
        c1 = np.subtract(mk, dk[:, :-1], out=buf(4, w - 1))
        c1 /= h
        c1 -= t
        # the leading 0.0 + is the power sum's seed; it turns -0.0 into 0.0;
        # the indices are in range, and "clip" takes into out unbuffered
        out = y.take(i, axis=1, out=buf(0, p1 - p0), mode="clip")
        np.add(0.0, out, out=out)
        term = buf(1, p1 - p0)
        for c, s in ((dk, self.s), (c1, self.s2), (c0, self.s3)):
            out += np.multiply(c.take(i, axis=1, out=term, mode="clip"),
                               s[p0:p1], out=term)
        return out


@dataclass(frozen=True)
class _OUPlan:
    """The drift-diffusion flow over one (grid, nu, dt): the resampler onto
    xi = e^(-nu dt) eta, the growth row and the equilibrium-defect row."""

    resample: _ContractedPchip
    growth: np.ndarray           # exp(expm1(-2 nu dt) eta^2 / 2)
    defect: np.ndarray           # mu - P_mu(xi) * growth
    i_zero: int

    @classmethod
    def build(cls, grid: PhaseGrid, nu: float, dt: float) -> "_OUPlan":
        eta = grid.eta
        resample = _ContractedPchip.build(eta, math.exp(-nu * dt) * eta)
        growth = np.exp(0.5 * np.expm1(-2.0 * nu * dt) * eta ** 2)
        mu = mu_hat(eta)
        defect = mu - resample(mu[None, :])[0] * growth
        return cls(resample, _read_only(growth), _read_only(defect),
                   grid.i_zero)

    def __call__(self, y: np.ndarray, scratch: np.ndarray | None = None,
                 work: np.ndarray | None = None) -> np.ndarray:
        """resample(y) * growth + y(k, 0) * defect as a new array; scratch,
        when given, holds the defect term, and work the resampler's."""
        out = self.resample(y, work)
        out *= self.growth
        out += np.multiply(y[:, self.i_zero, None], self.defect, out=scratch)
        return out


@dataclass
class StepDiagnostics:
    """Guard readings of one step: the reality defect its symmetrization
    removed and the edge-to-peak amplitude ratio."""

    reality_defect: float
    boundary_ratio: float


class Stepper:
    """The time step for one (grid, nu, kernel row, mode), with its plan and
    its buffers.

    The plan is every array the step reads that depends only on those four:
    the eta rows of the coupling RHS and the two Maxwellian-profile rows of
    its rank-1 terms, the kernel's force and energy rows, the matrix taking
    band coefficients to their real spatial profile on an oversampled x
    grid, the convolution index and the OU plan of a half step.  Every plan
    array is read-only.  The buffers hold the RK4 stages, the stacked
    coupling product, the OU resampler's slopes and power sum and the
    guards' scratch.  No buffer carries anything
    from one call to the next, so fields that share a stepper give the
    bytes each gives alone; one stepper serves one thread at a time.

    Each operation keeps the operands and the order of the formulas in the
    docstrings, and a ufunc writing into a buffer rounds as one writing a
    new array, so the buffers change no byte of the result.
    """

    def __init__(self, grid: PhaseGrid, w_row: tuple, nu: float, mode: str):
        self.grid, self.nu, self.mode = grid, nu, mode
        n, n_eta = grid.n_k, grid.n_eta
        eta = grid.eta
        mu = mu_hat(eta)
        n_x = _X_OVERSAMPLE * n
        x = 2.0 * np.pi * np.arange(n_x) / n_x
        kf = grid.k_values.astype(float)
        wk = np.array(w_row)
        idx = np.arange(n)
        self.half_dt = 0.5 * grid.dt
        self.i_zero = grid.i_zero
        # the stencil of C = conv(nu rho) carries D's 1 / (12 d_eta)
        self.c_scale = nu / (12.0 * grid.d_eta)
        self.eta = _read_only(eta[None, :])
        self.neg_eta2 = _read_only(-(self.eta ** 2))
        self.eta_mu = _read_only(eta * mu)
        self.eta2_mu = _read_only(eta ** 2 * mu)
        self.x_modes = _read_only(np.exp(1j * np.outer(x, grid.k_values)))
        self.force_row = _read_only(-1j * kf * wk)    # the k = 0 row carries no force
        self.energy_row = _read_only((kf * wk) ** 2)
        self.eye = _read_only(np.eye(n))
        self.conv_index = _read_only((idx[:, None] - idx[None, :]) + n - 1)
        self.band = slice(n // 2, n // 2 + n)
        self.ou = _OUPlan.build(grid, nu, self.half_dt) if nu > 0 else None
        # zero-bordered coefficient rows the convolution matrices gather from
        self._pad_rho = np.zeros(2 * n - 1)
        self._pad_m1 = np.zeros(2 * n - 1, dtype=complex)
        shape = (n, n_eta)
        # two scratch blocks for the guards, the OU defect term and the
        # RHS's stencil and rank-1 terms
        self._tmp, self._aux = np.empty((2,) + shape)
        # the OU resampler's five rows and the RK4 stages (three, and the
        # stacked product's three in full mode) never run at once, so they
        # share one work block
        n_work = max(5 if nu > 0 else 0, {"full": 6, "linear": 3}.get(mode, 0))
        work = np.empty((n_work,) + shape)
        if self.ou is not None:
            self._ou_work = work[:5].reshape(5, n * n_eta)
        if mode != "free":
            self._acc, self._k, self._stage = work[:3]
        if mode == "full":
            # the RHS's three coefficient rows, the flat index of their
            # stacked (3 n_k x n_k) convolution matrix and the product's
            # blocks
            self._pad_rhs = np.zeros((3, 2 * n - 1))
            self._rhs_rows = tuple(self._pad_rhs[:, self.band])
            self._rhs_index = _read_only(
                (np.arange(3)[:, None, None] * (2 * n - 1)
                 + self.conv_index).reshape(3 * n, n))
            self._prod = work[3:6].reshape(3 * n, n_eta)
            self._blocks = tuple(work[3:6])

    def conv(self, pad: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
        """Band-truncated convolution as a matrix acting on mode vectors.

        coeffs is indexed like grid.k_values; the (i, j) entry is
        coeffs(k_i - k_j) when the difference stays inside the band, else
        0, so conv(pad, a) @ b is the exact convolution truncated to the
        band.  pad is a zero-bordered row of length 2 n_k - 1 and coeffs'
        dtype, written in its middle.
        """
        pad[self.band] = coeffs
        return pad[self.conv_index]

    def closure(self, y: np.ndarray) -> tuple:
        """(rho, m1, m2, u, m_t, T, e_field, sup_rho) of the state y, in the
        order and with the meaning of HydroMoments' fields; rho is a view of
        y's eta = 0 column.  Raises compute_moments' StateEscapeErrors."""
        d1, d2 = _eta_stencils(y, self.grid)
        rho = y[:, self.i_zero]
        m1 = 1j * d1
        m2 = -d2
        rho_x = (self.x_modes @ rho).real
        sup_rho = float(np.abs(rho_x).max())
        if not sup_rho < CLOSURE_SUP_BOUND:
            raise StateEscapeError(
                f"density profile reached sup {sup_rho:.3g}, not below "
                f"{CLOSURE_SUP_BOUND}; the moment closure is no longer perturbative")
        closure = self.eye + self.conv(self._pad_rho, rho)
        u = _closure_solve(closure, m1)
        m_t = m2 - self.conv(self._pad_m1, m1) @ u
        temp = _closure_solve(closure, m_t)
        temp_x = (self.x_modes @ temp).real
        temp_min = float((1.0 + temp_x).min())
        if not temp_min > POSITIVITY_FLOOR:
            raise StateEscapeError(
                f"temperature profile 1 + T reached min {temp_min:.3g}, not above "
                f"the positivity floor {POSITIVITY_FLOOR}")
        return rho, m1, m2, u, m_t, temp, self.force_row * rho, sup_rho

    def conserved(self, field: SpectralField) -> ConservedQuantities:
        """conserved_quantities of the field; it stencils the k = 0 row."""
        row = field.data[self.grid.k_index(0)]
        d1, d2 = _eta_stencils(row, self.grid)
        return ConservedQuantities(
            mass=2.0 * math.pi * float(row[self.i_zero]),
            momentum=2.0 * math.pi * float((1j * d1).real),
            kinetic_energy=math.pi * (1.0 + float(-d2)),
            field_energy=math.pi * float(np.sum(
                self.energy_row * np.abs(field.data[:, self.i_zero]) ** 2)))

    def rhs_full(self, y: np.ndarray, rho: np.ndarray, m1: np.ndarray,
                 m_t: np.ndarray, e_field: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Force plus collisional moment feedback,

            i eta (A h) - eta^2 (B h) - eta D (C h)
                - (e + nu m1) (i eta mu) - nu m_t (eta^2 mu)

        with A = conv(-e - nu m1), B = conv(nu (rho + m_t)), C = conv(nu rho)
        and D the 4th-order centered eta-derivative, zero at the two edge
        columns on each side.  The three convolutions are one stacked
        product, with i folded into A and D's 1 / (12 d_eta) into C so that
        the A and C blocks share their eta factor.  The last two terms are
        the background row under the force and the Maxwellian profile of the
        moment feedback.  On a real state e + nu m1 is purely imaginary and
        m_t real, so the coefficient rows and every term are real.
        """
        nu = self.nu
        feed = e_field + nu * m1
        r_a, r_b, r_c = self._rhs_rows
        r_a[...] = (-1j * feed).real
        r_b[...] = (nu * (rho + m_t)).real
        np.multiply(self.c_scale, rho, out=r_c)
        np.matmul(self._pad_rhs.take(self._rhs_index), y, out=self._prod)
        a_h, b_h, c_h = self._blocks
        # a_h[:, 2:-2] -= (c_h[:, :-4] - c_h[:, 4:])
        #                 - 8 (c_h[:, 1:-3] - c_h[:, 3:-1])
        edge = np.subtract(c_h[:, :-4], c_h[:, 4:], out=self._tmp[:, :-4])
        inner = np.subtract(c_h[:, 1:-3], c_h[:, 3:-1], out=self._aux[:, :-4])
        inner *= 8.0
        edge -= inner
        a_h[:, 2:-2] -= edge
        out = np.multiply(self.eta, a_h, out=out)
        b_h *= self.neg_eta2
        out += b_h
        # the rank-1 terms feed.imag x eta mu and nu m_t.real x eta^2 mu
        out += np.multiply(feed.imag[:, None], self.eta_mu, out=self._tmp)
        out -= np.multiply((nu * m_t.real)[:, None], self.eta2_mu, out=self._tmp)
        return out

    def rhs_linear(self, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The linear coupling -e (i eta mu), e = -i k w(k) rho(k): it reads
        only the eta = 0 column."""
        e = self.force_row * y[:, self.i_zero]
        return np.multiply(e.imag[:, None], self.eta_mu, out=out)

    def rk4_substep(self, y: np.ndarray) -> np.ndarray:
        """Classical RK4 on the coupling terms over half a time step,

            y + dt/6 (k1 + 2 k2 + 2 k3 + k4),

        as a new array; y itself in free mode.  The sum is accumulated stage
        by stage in that order.

        The linear RHS reads only the eta = 0 column, where eta mu is zero,
        so the four stages see that column unchanged and one evaluation
        serves all of them; the stage sum keeps its order, so the bytes are
        RK4's.  The one exception is a row whose eta = 0 entry is -0.0: a
        stage may see +0.0 there, and some zeros of the result then differ
        from RK4's in sign, never in value.
        """
        if self.mode == "free":
            return y
        dt = self.half_dt
        acc, k, stage = self._acc, self._k, self._stage
        if self.mode == "linear":
            k1 = self.rhs_linear(y, k)
            two = np.multiply(k1, 2.0, out=stage)
            np.add(k1, two, out=acc)
            acc += two
            acc += k1
        else:
            self._stage_rhs(y, acc)                        # k1
            np.multiply(acc, 0.5 * dt, out=stage)
            stage += y
            self._stage_rhs(stage, k)                      # k2
            np.multiply(k, 0.5 * dt, out=stage)
            stage += y
            k *= 2.0
            acc += k
            self._stage_rhs(stage, k)                      # k3
            np.multiply(k, dt, out=stage)
            stage += y
            k *= 2.0
            acc += k
            self._stage_rhs(stage, k)                      # k4
            acc += k
        acc *= dt / 6.0
        return y + acc

    def _stage_rhs(self, y: np.ndarray, out: np.ndarray) -> None:
        rho, m1, _, _, m_t, _, e_field, _ = self.closure(y)
        self.rhs_full(y, rho, m1, m_t, e_field, out)

    def advance(self, field: SpectralField) -> StepDiagnostics:
        """One time step of the field; see step.

        Every substep writes a new array or a buffer, never the field's
        data, which is replaced, with the time, only after every guard has
        passed: a step that raises leaves the field as it was, and an array
        the field held before keeps its bytes.
        """
        y = field.data
        if self.ou is not None:
            y = self.ou(y, self._tmp, self._ou_work)
        y = self.rk4_substep(y)
        y = transport_step(y, self.grid)
        y = self.rk4_substep(y)
        if self.ou is not None:
            y = self.ou(y, self._tmp, self._ou_work)
        defect, edge_ratio = self._symmetrize(y)
        field.data = y
        field.time += self.grid.dt
        return StepDiagnostics(reality_defect=defect, boundary_ratio=edge_ratio)

    def _symmetrize(self, y: np.ndarray) -> tuple[float, float]:
        """The step's guards on the new state y (a step's or init_state's),
        which is averaged in place with its mirror: the non-finite check, the reality drift measured
        before the averaging and the edge sentinel after it.  Returns the
        reality defect and the edge-to-peak ratio (0.0 for a zero state)."""
        mag = np.abs(y, out=self._tmp)
        # NaN and inf both fail it
        scale = float(mag.max())
        if not scale < math.inf:
            raise StateEscapeError("state left the representable range (non-finite "
                                   "amplitudes); the run has blown up")
        mirror = mirrored(y, out=self._aux)
        defect = float(np.abs(np.subtract(y, mirror, out=mag), out=mag).max())
        if defect > REALITY_DRIFT_LIMIT * scale:
            raise InvariantError(
                f"reality symmetry drift {defect:.3e} exceeds "
                f"{REALITY_DRIFT_LIMIT:g} of the field scale {scale:.3e}")
        y += mirror
        y *= 0.5
        mag = np.abs(y, out=self._tmp)
        scale = float(mag.max())
        if scale == 0.0:
            return defect, 0.0
        edge = max(float(mag[:, :2].max()), float(mag[:, -2:].max()))
        if edge > BOUNDARY_SENTINEL * scale:
            raise AliasingError(
                f"boundary amplitude {edge:.3e} exceeds {BOUNDARY_SENTINEL:g} "
                f"of the field scale {scale:.3e}; enlarge eta_max")
        return defect, edge / scale


# The one plan cache: a stepper per (grid, kernel row, nu, mode).  A march
# uses two at once, its step's, whose RK4 stages run its only closures, and
# the readouts'; four keep a campaign's next cell from rebuilding them, while
# the buffers of its finished cells (echo marches five nu cells) are let go.
_cached_stepper = functools.lru_cache(maxsize=4)(Stepper)


def _stepper(grid: PhaseGrid, w: InteractionKernel, nu: float = 0.0,
             mode: str = "free") -> Stepper:
    """The cached stepper, keyed on the whole grid, the kernel's row values,
    nu and mode.  The readouts, which depend on the grid and the kernel
    only, use the nu = 0 free-mode stepper, which holds no OU plan and no
    RK4 buffers."""
    w_row = tuple(w(k) if k != 0 else 0.0
                  for k in range(-grid.k_max, grid.k_max + 1))
    return _cached_stepper(grid, w_row, nu, mode)


def step(field: SpectralField, nu: float, w: InteractionKernel,
         mode: str = "full") -> StepDiagnostics:
    """Advance one full time step and report its guard readings.

    The step composes OU(dt/2) o N(dt/2) o T(dt) o N(dt/2) o OU(dt/2), then
    rejects a non-finite state, averages the state with its mirror after
    checking the reality drift, and checks the edge sentinel.  It runs the
    cached stepper of (grid, nu, kernel, mode).  A step that raises leaves
    the field as it was.
    """
    if mode not in _MODES:
        raise DomainError(f"mode must be one of {_MODES}")
    if not 0.0 <= nu < math.inf:
        raise DomainError(f"collision frequency must be finite and "
                          f"nonnegative, got nu = {nu!r}")
    return _stepper(field.grid, w, nu, mode).advance(field)


def march(field: SpectralField, nu: float, w: InteractionKernel, n_steps: int,
          mode: str,
          observe: Callable[[SpectralField, ConservedQuantities, int], bool | None]
          ) -> tuple[float, float, float]:
    """Advance the field up to n_steps steps, measuring every state once.

    The conserved quantities are measured on the initial state and after
    each step by the readout stepper, looked up once.  observe(field, cons,
    i) sees state i (0 is the initial state) with its conserved quantities;
    a true return stops the march there.  Returns the largest |mass drift|,
    |momentum drift| and reality defect over the steps taken.
    """
    readout = _stepper(field.grid, w)
    cons = readout.conserved(field)
    max_dm = max_dp = max_re = 0.0
    i = 0
    while not observe(field, cons, i) and i < n_steps:
        diag = step(field, nu, w, mode)
        after = readout.conserved(field)
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
    kinetic_energy: np.ndarray
    field_energy: np.ndarray
    max_mass_drift: float
    max_momentum_drift: float
    max_reality_defect: float
    final: SpectralField


def run_simulation(field: SpectralField, nu: float, w: InteractionKernel,
                   n_steps: int, mode: str = "full") -> RunResult:
    """March n_steps from the given state, collecting moment series.

    The march's observer records the initial instant and the state after
    every step: the density is the state's eta = 0 column and the force the
    force row times it, so no closure runs; the drift maxima are the march's.
    """
    if n_steps < 1:
        raise DomainError("need at least one step")
    rows = []

    def record(f: SpectralField, c: ConservedQuantities, _i: int) -> None:
        rows.append((f.time, f.data[:, f.grid.i_zero].copy(),
                     c.kinetic_energy, c.field_energy))

    max_dm, max_dp, max_re = march(field, nu, w, n_steps, mode, record)
    times, rho, kinetic, field_e = (np.asarray(col) for col in zip(*rows))
    return RunResult(times=times, rho=rho,
                     e_field=_stepper(field.grid, w).force_row * rho,
                     kinetic_energy=kinetic, field_energy=field_e,
                     max_mass_drift=max_dm, max_momentum_drift=max_dp,
                     max_reality_defect=max_re, final=field)
