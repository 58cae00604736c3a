"""Truncated Fourier lattice and the state container living on it.

The state h is stored unmixed: rows are integer wavenumbers k in
[-k_max, k_max], columns are uniform samples of the velocity-frequency
variable eta in [-eta_max, eta_max).  The time step is tied to the eta
spacing (dt = d_eta) so that collisionless free streaming is an exact
integer column shift per row.  Every datum is real and parity-even, and
the flow keeps it that way, so the state is stored as real numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Fraction of the max amplitude tolerated at the lattice edge before a step
# is declared aliased.
BOUNDARY_SENTINEL = 1e-8


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
        for name in ("k_max", "n_eta"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise DomainError(
                    f"{name} = {getattr(self, name)!r} is not an integer")
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
    """Real state on a PhaseGrid: data[k_index, eta_index], plus the clock.

    Physical states satisfy the reality symmetry, which for real data
    reads data(-k, -eta) = data(k, eta).
    """

    grid: PhaseGrid
    data: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        want = (self.grid.n_k, self.grid.n_eta)
        if self.data.shape != want:
            raise DomainError(f"data shape {self.data.shape} != {want}")
        if np.iscomplexobj(self.data):
            raise DomainError("the lattice state is real; got complex data")
        if self.data.dtype != np.float64:
            self.data = self.data.astype(np.float64)

    @classmethod
    def zeros(cls, grid: PhaseGrid) -> "SpectralField":
        return cls(grid=grid, data=np.zeros((grid.n_k, grid.n_eta)))

    def copy(self) -> "SpectralField":
        return SpectralField(grid=self.grid, data=self.data.copy(), time=self.time)

    def boundary_amplitude(self) -> float:
        """Largest magnitude on the two outermost columns of each side."""
        edges = np.concatenate([self.data[:, :2].ravel(), self.data[:, -2:].ravel()])
        return float(np.max(np.abs(edges)))


def mirrored(data: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """data(-k, -eta) resampled onto the lattice, written into out when
    given.

    Column 0 (eta = -eta_max) has no mirror sample and pairs with itself.
    """
    if out is None:
        out = np.empty_like(data)
    out[:, 1:] = data[::-1, :0:-1]
    out[:, 0] = data[::-1, 0]
    return out

