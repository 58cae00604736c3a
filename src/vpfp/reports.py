"""Small result containers returned by certification checks and experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class BoundReport:
    """Outcome of a numerical certification sweep.

    satisfied is the overall verdict, constants holds the named scalar
    certificates (best constants, certified rates), details carries grids
    and per-case tables, and failures lists the sample points that broke
    a monotonicity or sign requirement, if any.
    """

    name: str
    satisfied: bool
    constants: dict[str, float]
    details: dict[str, Any] = field(default_factory=dict)
    failures: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class FitResult:
    """Least-squares exponential fit log y = log amplitude - rate * t.

    flat marks series with no usable variation (rate pinned to 0).
    """

    rate: float
    amplitude: float
    r_squared: float
    flat: bool = False

