"""Exception types shared across the package.

Argument validation uses plain ValueError; the classes here mark failure
modes a caller may want to catch separately (integration breakdown,
refused configurations, numerical sanity violations).
"""


class QlreError(Exception):
    """Base class for package-specific failures."""


class UnsupportedConfigurationError(QlreError):
    """A requested combination of backend and noise terms is not supported."""


class IntegrationFailure(QlreError):
    """A Krylov substep underflowed: no substep passed the error estimate."""


class ConvergenceFailure(QlreError):
    """Steady-state search did not reach the residual tolerance within MAX_SWEEPS sweeps."""


class NumericalFailure(QlreError):
    """An internal numerical sanity check failed (e.g. complex eigenvalue residue)."""


class UndefinedResultError(QlreError):
    """The requested quantity is not defined for the given input."""


class MemoryGuardExceeded(QlreError):
    """A run needs a dense block above a fixed size limit (dynamics.LEVEL_BLOCK_LIMIT)."""


def at_sample(times, k: int) -> str:
    """Where sample k of a batched evaluation sits, for an error message ('' without times)."""
    return "" if times is None else f" at scaled time {times[k]:.6g}"
