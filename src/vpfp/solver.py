"""Nonlinear integrator on the truncated Fourier lattice.

State and splitting.  The unknown h(t, k, eta) is the Fourier transform of
the perturbation around the global Maxwellian, stored unmixed (no moving
frame).  Every datum is real and parity-even, h(-k, -eta) = h(k, eta), and
each sub-flow maps such states to such states, so h is stored as real
numbers and every lattice-sized array of the step is real; the n_k-long
moment vectors of the closure stay complex.  One time step of size
dt = d_eta composes the paper's collisional free-streaming semigroup S and
the coupling terms N symmetrically:

    N(dt/2) o S(dt) o N(dt/2)

  * S: free streaming together with the drift-diffusion flow
    nu(-eta^2 - eta d_eta) is exact on characteristics,
    h(k, eta) <- h(k, foot) S(dt; k, foot): the foot is semigroup's
    _characteristic run back over dt, and S(dt; k, foot), the exponential
    of s_general_exponent, is the damping along it.  The row is read at
    the foot by six-point Lagrange interpolation, which carries
    polynomials of degree 5 exactly, plus an equilibrium-defect correction
    that makes Maxwellian rows and the mass entry h(0, 0) exact.  The node
    indices and the weights, with the damping folded in, depend only on
    (grid, nu, dt) and form a free-flow plan.  A point reads the six
    columns around its foot, so only the points whose nodes reach the
    columns from the first to the last nonzero one are computed; every
    other point is +0.0.  Beyond the window the rows read as zero, and a
    step that would carry more than 1e-12 of the state's norm off the
    window raises.  At nu = 0 the same plan is the undamped shear: the foot
    is eta + k dt, a whole number of columns, its weights are exactly
    0, 0, 1, 0, 0, 0, and S is the integer column shift per row.
  * N: the coupling terms (self-consistent force and the moment-feedback
    corrections that give the collision operator its local conservation
    laws) integrated with classical RK4, moments recomputed every stage.
    The k-convolutions commute with the eta-row multiplications and the
    eta stencil, so a stage applies its three moment convolutions to the
    state as one real stacked (3 n_k x n_k) product and takes the
    eta-derivative of one block only; the background and Maxwellian-profile
    terms are rank-1 products with two fixed rows.  The linear coupling
    reads only the eta = 0 column, where it vanishes, so it is constant
    along its own flow and a linear substep takes that flow exactly,
    y + (dt/2) N(y).  Free mode has no coupling.

The step is a function of the state and a per-run plan.  A Stepper for one
(grid, nu, kernel row, mode) holds every array the step reads that depends
only on those four (the free-flow plan, the eta rows, the kernel rows, the
x-profile matrix and the convolution index, all read-only) and every
lattice-sized buffer its stages write.  step takes its stepper from one
cache, the only plan cache of the module.  The readouts take the grid's
nu = 0 free-mode stepper from it: a recorded density is the state's eta = 0
column and its force the force row times it, so only full mode's RK4
stages and compute_moments run the closure.  The stepper is the only
implementation of the sub-flows and the guards, so the closure, the
coupling, the free flow and the symmetrization each exist once.  The
buffers keep each operation's operands and order, so they change no byte
of any result.

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
from dataclasses import dataclass, replace
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
from .semigroup import _characteristic, s_general_exponent

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


def _check_dropped(lost: np.ndarray, y: np.ndarray) -> None:
    """Raise AliasingError when the amplitude lost, what a step carries of
    the state y off the window, holds more than 1e-12 of y's L2 norm."""
    dropped = math.sqrt(float((lost * lost).sum()))
    # y's norm is needed only when something was lost
    if dropped > 0.0:
        norm = math.sqrt(float((y * y).sum()))
        if dropped > 1e-12 * norm:
            raise AliasingError(
                f"free streaming dropped amplitude {dropped:.3e} "
                f"({dropped / norm:.2e} of the state); enlarge eta_max")


# Offsets, from the cell that holds a foot, of the six nodes the value at
# the foot is interpolated from.
_NODES = range(-2, 4)


def _lagrange_weights(s: np.ndarray) -> np.ndarray:
    """The Lagrange weights of the nodes -2 ... 3 at s in [0, 1), stacked on
    a new leading axis; at s = 0 they are exactly 0, 0, 1, 0, 0, 0."""
    out = []
    for m in _NODES:
        num, den = 1.0, 1.0
        for j in _NODES:
            if j != m:
                num = num * (s - j)
                den *= m - j
        out.append(num / den)
    return np.stack(out)


@dataclass(frozen=True)
class _FreeFlow:
    """The collisional free streaming S(dt) of one (grid, nu, dt),

        h(k, eta) <- h(k, foot) exp(s_general_exponent(dt, 0, k, foot, nu)),

    where foot = e^(-nu dt) eta - k expm1(-nu dt) / nu is the point the
    characteristic through eta left a step earlier (semigroup's
    _characteristic at -dt) and the exponential is the exact damping along
    it.  With nu = 0 the foot is eta + k dt and there is no damping; the
    feet and the images are then counted in columns of width grid.dt, which
    PhaseGrid holds to the spacing, so with dt = grid.dt they are whole
    columns even where the two differ by rounding, the weights are exactly
    0, 0, 1, 0, 0, 0 and the flow is the integer shift of each row.

    h(k, foot) is interpolated through the six nodes around the foot, so
    polynomials of degree 5 are carried exactly.  base is the flat index of
    each point's first node and weights the six Lagrange weights times the
    damping.  Near the window edge the nodes move inside the window and a
    node outside it gets weight 0: the rows are zero beyond the window.
    first and last are the least and largest first-node column over the
    rows at each point.  defect is the exact flow of the Maxwellian row
    minus its interpolation: adding y(k, 0) times it makes the k = 0 row's
    mass entry and every Maxwellian row exact.  drop is the flat index of
    every entry the flow carries off the window [-eta_max, eta_max), and
    fade the damping it has on the way.
    """

    grid: PhaseGrid
    base: np.ndarray
    weights: np.ndarray
    first: np.ndarray
    last: np.ndarray
    drop: np.ndarray
    fade: np.ndarray
    defect: np.ndarray

    @classmethod
    def build(cls, grid: PhaseGrid, nu: float, dt: float) -> "_FreeFlow":
        n = grid.n_eta
        k = grid.k_values[:, None]
        eta = grid.eta
        if nu > 0.0:
            foot = _characteristic(-dt, k, eta, nu)
            u = foot / grid.d_eta + grid.i_zero
            damp = np.exp(s_general_exponent(dt, 0.0, k, foot, nu))
            image = _characteristic(dt, k, eta, nu)
            gone = (image < eta[0]) | (image >= grid.eta_max)
            fade = np.exp(s_general_exponent(dt, 0.0, k, eta, nu))
        else:
            shift = k * (dt / grid.dt)
            u = np.arange(n) + shift
            foot = (u - grid.i_zero) * grid.d_eta
            damp = fade = np.ones(u.shape)
            image = np.arange(n) - shift
            gone = (image < 0) | (image >= n)
        cell = np.floor(u)
        lagrange = _lagrange_weights(u - cell)
        start = cell.astype(np.intp) + _NODES[0]
        first = np.clip(start, 0, n - len(_NODES))
        # the Lagrange index of each of the nodes first ... first + 5
        src = first - start + np.arange(len(_NODES))[:, None, None]
        inside = (src >= 0) & (src < len(_NODES))
        weights = np.where(inside, np.take_along_axis(
            lagrange, np.clip(src, 0, len(_NODES) - 1), axis=0), 0.0) * damp
        # resample reads no defect, so the plan that measures it has none
        plan = cls(grid, *(_read_only(a) for a in (
            first + n * np.arange(grid.n_k)[:, None], weights,
            first.min(axis=0), first.max(axis=0), np.flatnonzero(gone),
            fade[gone])), defect=None)
        defect = (mu_hat(foot) * damp
                  - plan.resample(np.tile(mu_hat(eta), (grid.n_k, 1))))
        return replace(plan, defect=_read_only(defect))

    def resample(self, y: np.ndarray, term: np.ndarray | None = None,
                 index: np.ndarray | None = None) -> np.ndarray:
        """The interpolated and damped values sum_j weights[j] y[base + j]
        as a new array, without the defect term; term and index, when
        given, are float scratch of y's shape and integer scratch of
        y.size entries.

        A point reads y only at its nodes, and where those are all zero its
        value is zero.  So only the points p0 ... p1 - 1 whose nodes, on
        some row, reach the columns from the first to the last nonzero one
        are computed; every other point is +0.0.  The six products are
        summed in node order.
        """
        m, n = y.shape
        cols = np.flatnonzero(y.any(axis=0))
        p0 = p1 = 0
        if cols.size:
            p0 = int(self.last.searchsorted(cols[0] + 1 - len(_NODES)))
            p1 = int(self.first.searchsorted(cols[-1], side="right"))
        out = (np.empty if p1 - p0 == n else np.zeros)((m, n))
        size = m * max(p1 - p0, 0)
        if size == 0:
            return out
        if term is None:
            term, index = np.empty(size), np.empty(size, dtype=np.intp)
        t = term.reshape(-1)[:size].reshape(m, -1)
        idx = index[:size].reshape(m, -1)
        np.copyto(idx, self.base[:, p0:p1])
        flat = y.reshape(-1)
        acc = out[:, p0:p1]
        for j in range(len(_NODES)):
            # base + j stays on the point's row, and "clip" takes into t
            # unbuffered
            np.take(flat[j:], idx, out=t, mode="clip")
            if j == 0:
                np.multiply(t, self.weights[0, :, p0:p1], out=acc)
            else:
                t *= self.weights[j, :, p0:p1]
                acc += t
        return out

    def __call__(self, y: np.ndarray, term: np.ndarray | None = None,
                 index: np.ndarray | None = None) -> np.ndarray:
        """S(dt) of the state y, resample(y) + y(k, 0) defect, as a new
        array; term and index are resample's scratch.  Raises
        AliasingError, before anything is computed, when the amplitude the
        flow carries off the window is significant."""
        _check_dropped(y.reshape(-1).take(self.drop) * self.fade, y)
        out = self.resample(y, term, index)
        out += np.multiply(y[:, self.grid.i_zero, None], self.defect, out=term)
        return out


class Stepper:
    """The time step for one (grid, nu, kernel row, mode), with its plan and
    its buffers.

    The plan is every array the step reads that depends only on those four:
    the eta rows of the coupling RHS and the two Maxwellian-profile rows of
    its rank-1 terms, the kernel's force and energy rows, the matrix taking
    band coefficients to their real spatial profile on an oversampled x
    grid, the convolution index and the free-flow plan of a step.  Every
    plan array is read-only.  The buffers hold full mode's RK4 stages and
    stacked coupling product, the free flow's node indices and terms and
    the guards' scratch.  No buffer carries anything from one call to the
    next, so fields that share a stepper give the bytes each gives alone;
    one stepper serves one thread at a time.

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
        self.flow = _FreeFlow.build(grid, nu, grid.dt)
        # zero-bordered coefficient rows the convolution matrices gather from
        self._pad_rho = np.zeros(2 * n - 1)
        self._pad_m1 = np.zeros(2 * n - 1, dtype=complex)
        shape = (n, n_eta)
        # two scratch blocks for the guards, the free flow's terms and the
        # RHS's stencil and rank-1 terms, and the free flow's node indices
        self._tmp, self._aux = np.empty((2,) + shape)
        self._index = np.empty(n * n_eta, dtype=np.intp)
        if mode == "full":
            # the three RK4 stages, the RHS's three coefficient rows, the
            # flat index of their stacked (3 n_k x n_k) convolution matrix
            # and the product's blocks
            work = np.empty((6,) + shape)
            self._acc, self._k, self._stage = work[:3]
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

    def linear_substep(self, y: np.ndarray) -> np.ndarray:
        """The exact flow of the linear coupling -e (i eta mu),
        e = -i k w(k) rho(k), over half a time step, as a new array.

        The coupling reads only the eta = 0 column, where eta mu is zero,
        so it is constant along its own flow, which is y + dt/2 N(y): the
        row coefficients dt/2 Im(e) times eta mu, plus y.  The eta = 0
        column keeps its values.
        """
        e = self.force_row * y[:, self.i_zero]
        out = np.multiply((self.half_dt * e.imag)[:, None], self.eta_mu)
        out += y
        return out

    def rk4_substep(self, y: np.ndarray) -> np.ndarray:
        """Classical RK4 on the full coupling terms over half a time step,

            y + dt/6 (k1 + 2 k2 + 2 k3 + k4),

        as a new array.  The sum is accumulated stage by stage in that
        order.
        """
        dt = self.half_dt
        acc, k, stage = self._acc, self._k, self._stage
        self._stage_rhs(y, acc)                            # k1
        np.multiply(acc, 0.5 * dt, out=stage)
        stage += y
        self._stage_rhs(stage, k)                          # k2
        np.multiply(k, 0.5 * dt, out=stage)
        stage += y
        k *= 2.0
        acc += k
        self._stage_rhs(stage, k)                          # k3
        np.multiply(k, dt, out=stage)
        stage += y
        k *= 2.0
        acc += k
        self._stage_rhs(stage, k)                          # k4
        acc += k
        acc *= dt / 6.0
        return y + acc

    def _stage_rhs(self, y: np.ndarray, out: np.ndarray) -> None:
        rho, m1, _, _, m_t, _, e_field, _ = self.closure(y)
        self.rhs_full(y, rho, m1, m_t, e_field, out)

    def advance(self, field: SpectralField) -> float:
        """One time step of the field, N(dt/2) o S(dt) o N(dt/2) and the
        guards; see step.

        Every substep writes a new array or a buffer, never the field's
        data, which is replaced, with the time, only after every guard has
        passed: a step that raises leaves the field as it was, and an array
        the field held before keeps its bytes.
        """
        y = field.data
        if self.mode == "free":
            y = self.flow(y, self._tmp, self._index)
        else:
            half = (self.rk4_substep if self.mode == "full"
                    else self.linear_substep)
            y = half(self.flow(half(y), self._tmp, self._index))
        defect = self._symmetrize(y)
        field.data = y
        field.time += self.grid.dt
        return defect

    def _symmetrize(self, y: np.ndarray) -> float:
        """The step's guards on the new state y (a step's or init_state's),
        which is averaged in place with its mirror: the non-finite check,
        the reality drift measured before the averaging and the edge
        sentinel after it.  Returns the reality defect."""
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
        edge = max(float(mag[:, :2].max()), float(mag[:, -2:].max()))
        if edge > BOUNDARY_SENTINEL * scale:
            raise AliasingError(
                f"boundary amplitude {edge:.3e} exceeds {BOUNDARY_SENTINEL:g} "
                f"of the field scale {scale:.3e}; enlarge eta_max")
        return defect


# The one plan cache: a stepper per (grid, kernel row, nu, mode).  A march
# uses two at once, its step's, whose RK4 stages run its only closures, and
# the readouts'; four keep a campaign's next cell from rebuilding them, while
# the buffers of its finished cells (echo marches five nu cells) are let go.
_cached_stepper = functools.lru_cache(maxsize=4)(Stepper)


def _stepper(grid: PhaseGrid, w: InteractionKernel, nu: float = 0.0,
             mode: str = "free") -> Stepper:
    """The cached stepper, keyed on the whole grid, the kernel's row values,
    nu and mode.  The readouts, which depend on the grid and the kernel
    only, use the nu = 0 free-mode stepper, which has no RK4 buffers."""
    w_row = tuple(w(k) if k != 0 else 0.0
                  for k in range(-grid.k_max, grid.k_max + 1))
    return _cached_stepper(grid, w_row, nu, mode)


def step(field: SpectralField, nu: float, w: InteractionKernel,
         mode: str = "full") -> float:
    """Advance one full time step and return the reality defect its
    symmetrization removed.

    The step composes N(dt/2) o S(dt) o N(dt/2): the coupling's flow over
    half a step, RK4 in full mode and exact in linear mode, on either side
    of one application of the collisional free streaming S(dt) (free mode
    takes S(dt) alone).  It then rejects a non-finite state, averages the
    state with its mirror after checking the reality drift, and checks the
    edge sentinel.  It runs the cached stepper of (grid, nu, kernel,
    mode).  A step that raises leaves the field as it was; S raises
    AliasingError when it would carry more than 1e-12 of the state's norm
    off the window.
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
        defect = step(field, nu, w, mode)
        after = readout.conserved(field)
        max_dm = max(max_dm, abs(after.mass - cons.mass))
        max_dp = max(max_dp, abs(after.momentum - cons.momentum))
        max_re = max(max_re, defect)
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
                     max_reality_defect=max_re)
