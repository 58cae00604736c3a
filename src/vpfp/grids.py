"""Truncated Fourier lattice and the state container living on it.

The state h is stored unmixed: rows are integer wavenumbers k in
[-k_max, k_max], columns are uniform samples of the velocity-frequency
variable eta in [-eta_max, eta_max).  The time step is tied to the eta
spacing (dt = d_eta) so that the shear transport step is an exact integer
column shift per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, DomainError, InvariantError

# Fraction of the max amplitude tolerated at the lattice edge before a step
# is declared aliased.
BOUNDARY_SENTINEL = 1e-8

# Pre-enforcement reality drift above this fraction of the max amplitude
# indicates a structural bug rather than roundoff.
REALITY_DRIFT_LIMIT = 1e-10


@dataclass(frozen=True)
class PhaseGrid:
    """Geometry of the truncated lattice.

    Attributes:
        k_max: largest spatial mode kept; rows cover [-k_max, k_max].
        eta_max: half-width of the frequency window.
        n_eta: number of frequency samples (even); eta_j = (j - n_eta/2) d_eta.
        dt: time step, must equal d_eta = 2 eta_max / n_eta exactly.
    """

    k_max: int
    eta_max: float
    n_eta: int
    dt: float

    def __post_init__(self):
        if self.k_max < 1:
            raise DomainError("k_max must be at least 1")
        if self.n_eta < 8 or self.n_eta % 2:
            raise DomainError("n_eta must be even and at least 8")
        if not 0 < self.eta_max < np.inf:
            raise DomainError("eta_max must be positive and finite")
        d_eta = 2.0 * self.eta_max / self.n_eta
        # written so that a NaN dt fails it
        if not abs(self.dt - d_eta) <= 1e-12 * d_eta:
            raise DomainError(
                f"dt must equal the eta spacing {d_eta!r}, got {self.dt!r}")

    @property
    def d_eta(self) -> float:
        return 2.0 * self.eta_max / self.n_eta

    @property
    def n_k(self) -> int:
        return 2 * self.k_max + 1

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(-self.k_max, self.k_max + 1)

    @property
    def eta(self) -> np.ndarray:
        j = np.arange(self.n_eta)
        return (j - self.n_eta // 2) * self.d_eta

    @property
    def i_zero(self) -> int:
        """Column index of eta = 0 (exact by construction)."""
        return self.n_eta // 2

    def k_index(self, k: int) -> int:
        if abs(k) > self.k_max:
            raise DomainError(f"mode {k} outside [-{self.k_max}, {self.k_max}]")
        return k + self.k_max


@dataclass
class SpectralField:
    """State on a PhaseGrid: data[k_index, eta_index], plus the clock.

    Physical states satisfy the reality symmetry
    data(-k, -eta) = conj(data(k, eta)).
    """

    grid: PhaseGrid
    data: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        want = (self.grid.n_k, self.grid.n_eta)
        if self.data.shape != want:
            raise DomainError(f"data shape {self.data.shape} != {want}")
        if self.data.dtype != np.complex128:
            self.data = self.data.astype(np.complex128)

    @classmethod
    def zeros(cls, grid: PhaseGrid) -> "SpectralField":
        return cls(grid=grid, data=np.zeros((grid.n_k, grid.n_eta), dtype=np.complex128))

    def copy(self) -> "SpectralField":
        return SpectralField(grid=self.grid, data=self.data.copy(), time=self.time)

    def _mirror(self) -> np.ndarray:
        """conj(data(-k, -eta)) resampled onto the lattice.

        Column 0 (eta = -eta_max) has no mirror sample and pairs with itself.
        """
        flipped = np.conj(self.data[::-1, ::-1])
        out = np.empty_like(self.data)
        out[:, 1:] = flipped[:, :-1]
        out[:, 0] = np.conj(self.data[::-1, 0])
        return out

    def reality_defect(self) -> float:
        """Max deviation from the reality symmetry, absolute."""
        return float(np.max(np.abs(self.data - self._mirror())))

    def enforce_reality(self) -> float:
        """Average the state with its mirror; error out on structural drift.

        Returns the reality defect measured before the averaging.
        """
        mirror = self._mirror()
        defect = float(np.max(np.abs(self.data - mirror)))
        scale = float(np.max(np.abs(self.data)))
        if scale > 0 and defect > REALITY_DRIFT_LIMIT * scale:
            raise InvariantError(
                f"reality symmetry drift {defect:.3e} exceeds "
                f"{REALITY_DRIFT_LIMIT:g} of the field scale {scale:.3e}")
        self.data = 0.5 * (self.data + mirror)
        return defect

    def boundary_amplitude(self) -> float:
        """Largest magnitude on the two outermost columns of each side."""
        edges = np.concatenate([self.data[:, :2].ravel(), self.data[:, -2:].ravel()])
        return float(np.max(np.abs(edges)))

    def check_boundary(self) -> float:
        """Edge-to-peak amplitude ratio, 0.0 for a zero state; raises
        AliasingError above the sentinel."""
        scale = float(np.max(np.abs(self.data)))
        if scale == 0.0:
            return 0.0
        edge = self.boundary_amplitude()
        if edge > BOUNDARY_SENTINEL * scale:
            raise AliasingError(
                f"boundary amplitude {edge:.3e} exceeds {BOUNDARY_SENTINEL:g} "
                f"of the field scale {scale:.3e}; enlarge eta_max")
        return edge / scale
