"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: invariant-type failures (bad configs,
violated state invariants, guard trips) exit with code 2, numeric failures
(overflow, an undecayed kernel, disagreeing routes) with code 3.
"""


class VpfpError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class DomainError(VpfpError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ConfigError(VpfpError):
    """Configuration text is malformed, has unknown keys, or violates ranges."""


class InvariantError(VpfpError):
    """A runtime state invariant failed (reality symmetry, conservation, ...)."""


class StateEscapeError(InvariantError):
    """The solution left the perturbative regime guarded by the moment closure.

    Raised when the spatial density profile reaches the sup bound past which
    the closure matrix 1 + rho is no longer well conditioned, or the
    temperature reconstruction drops below the positivity floor.
    """


class AliasingError(InvariantError):
    """Significant amplitude reached the edge of the truncated lattice."""


class HorizonError(VpfpError):
    """A measurement target was not reached before the configured final time."""


class NumericError(VpfpError):
    """A numerical method failed to reach its required tolerance."""

    exit_code = 3


class RangeError(NumericError):
    """An intermediate quantity left the representable floating-point range."""
