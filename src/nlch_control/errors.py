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
    """A structural hypothesis on the model parameters fails; an ellipticity
    failure states the margin c0 and chi^2 in its message
    (physics.ellipticity_margin computes c0)."""


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
    """A trajectory given inputs other than its own. Raised at two sites:
    StateTrajectory.require_inputs, when adjoint_sweep gets other model
    parameters or another kernel, or mass_balance_residual other
    parameters; and mass_balance_residual, when it gets other controls.
    Every other consumer of a trajectory reads its inputs from it, and a
    held linearisation factor lives on the trajectory it belongs to."""


class ConfigError(NLCHError):
    """Configuration file invalid; collects every failure, not just the first."""

    def __init__(self, failures: list[str]):
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {m}" for m in failures))
        self.failures = list(failures)
