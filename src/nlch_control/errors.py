"""Exception types shared across the package.

Exit-code policy for the CLI: configuration / hypothesis problems map to 2,
solver failures to 3, verification failures to 4.
"""


class NLCHError(Exception):
    """Base class for all package errors."""


class GridError(NLCHError):
    """Invalid grid definition (wrong dimension, too few cells, bad extent)."""


class FieldShapeError(NLCHError):
    """Fields or control stacks defined on mismatched grids or step counts."""


class KernelResolutionError(NLCHError):
    """Kernel width too small for the grid: the sampled kernel would alias."""


class HypothesisViolationError(NLCHError):
    """A structural hypothesis on the model parameters fails.

    Carries the computed ellipticity margin so callers can report how far
    the configuration is from admissibility.
    """

    def __init__(self, message: str, margin: float | None = None):
        super().__init__(message)
        self.margin = margin


class SolverError(NLCHError):
    """A solver could not be set up (its implicit diagonal is not positive and
    finite, or scipy's SuperLU module is missing or rejects the call) or an
    optimiser iterate is not finite, in which case the message names the
    iterate, its cost and its stationarity residual."""


class InstabilityError(NLCHError):
    """Blow-up guard tripped during time stepping."""

    def __init__(self, message: str, step: int, sup_norm: float, guard: float):
        super().__init__(message)
        self.step = step
        self.sup_norm = sup_norm
        self.guard = guard


class StaleTrajectoryError(NLCHError):
    """adjoint_sweep given other model parameters or another kernel, or
    mass_balance_residual given other parameters or other controls, than the
    trajectory was simulated with; every other consumer of a trajectory
    reads them from it."""


class ConfigError(NLCHError):
    """Configuration file invalid; collects every failure, not just the first."""

    def __init__(self, failures: list[str]):
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {m}" for m in failures))
        self.failures = list(failures)
