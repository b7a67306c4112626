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
    """Linear solver or optimiser failed; carries iteration diagnostics."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class InstabilityError(NLCHError):
    """Blow-up guard tripped during time stepping."""

    def __init__(self, message: str, step: int, sup_norm: float, guard: float):
        super().__init__(message)
        self.step = step
        self.sup_norm = sup_norm
        self.guard = guard


class StaleTrajectoryError(NLCHError):
    """Sensitivity data requested for a trajectory simulated from other inputs."""


class ChemotaxisScopeError(NLCHError):
    """Control-theory operations called with chi != 0.

    The adjoint/optimality machinery is only defined in the chemotaxis-free
    regime; forward simulation with chi > 0 remains available.
    """


class ConfigError(NLCHError):
    """Configuration file invalid; collects every failure, not just the first."""

    def __init__(self, failures: list[str]):
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {m}" for m in failures))
        self.failures = list(failures)
