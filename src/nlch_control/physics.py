"""Pointwise nonlinearities (double-well potential, proliferation ramp,
therapy distribution weight), model parameters, and the structural
admissibility gate.

Each nonlinearity evaluates elementwise on a float64 array of any shape, to
the derivative order the scheme and its linearisation use: F up to F''; P
and h evaluate their rates, and rates_with_slopes gives them together with
their first derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolationError
from .kernels import KernelData


@dataclass(frozen=True)
class PotentialSpec:
    """Quartic double well F(s) = (1 - s^2)^2 / 4 with equal minima at +-1.

    Analytic derivatives up to order 2: F' = s^3 - s, F'' = 3 s^2 - 1.
    """

    def evaluate(self, s: np.ndarray, order: int = 0) -> np.ndarray:
        if order == 0:
            return 0.25 * (1.0 - s * s) ** 2
        if order == 1:
            return s * s * s - s
        if order == 2:
            return 3.0 * s * s - 1.0
        raise ValueError("potential derivatives available up to order 2")

    @property
    def second_derivative_min(self) -> float:
        # global minimum of F'' over the real line, attained at s = 0
        return -1.0


# the model's one potential: the quartic double well has no parameters
POTENTIAL = PotentialSpec()


def _clipped_t(s: np.ndarray) -> np.ndarray:
    """t = (s + 1) / 2 clipped to [0, 1]; minimum of maximum gives np.clip's
    bits without its Python wrapper, which costs more than the arithmetic on
    a small grid."""
    return np.minimum(np.maximum((s + 1.0) * 0.5, 0.0), 1.0)


def _ramp_value(t: np.ndarray) -> np.ndarray:
    """C^2 ramp at the clipped t = clip((s + 1) / 2, 0, 1): 0 below s = -1,
    1 above s = +1, in between the quintic smoothstep
    q(t) = 6 t^5 - 15 t^4 + 10 t^3.

    q' and q'' vanish at both ends, so the clamped ramp is C^2. The value
    uses the exact symmetry q(t) = 1 - q(1 - t) for t > 1/2, which keeps the
    absolute rounding error near the upper seam at machine level (the direct
    polynomial cancels catastrophically there); the derivative
    q'(t) = 30 t^2 (1 - t)^2 (_ramp_slope) is already cancellation-free.
    """
    near = np.minimum(t, 1.0 - t)
    q_near = near * near * near * (10.0 + near * (-15.0 + 6.0 * near))
    return np.where(t <= 0.5, q_near, 1.0 - q_near)


def _ramp_slope(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The ramp's derivative at s, given t = clip((s + 1) / 2, 0, 1)."""
    # clamped regions are exactly flat
    return np.where((s <= -1.0) | (s >= 1.0), 0.0, 30.0 * t * t * (1.0 - t) ** 2 * 0.5)


def _ramp_with_slope(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ramp and its derivative at s from one clip."""
    t = _clipped_t(s)
    return _ramp_value(t), _ramp_slope(s, t)


@dataclass(frozen=True)
class ProliferationSpec:
    """Proliferation rate P: bounded in [0, 1], C^2, non-decreasing.

    smoothed_ramp replaces the piecewise-linear ramp max(0, min((1+s)/2, 1))
    with a quintic smoothstep over the same band [-1, 1] so that P', P'' are
    continuous (the control theory needs C^2). constant_zero switches the
    reactions off entirely.
    """

    family: str = "smoothed_ramp"

    def __post_init__(self):
        if self.family not in ("smoothed_ramp", "constant_zero"):
            raise HypothesisViolationError(f"unknown proliferation family {self.family!r}")

    def evaluate(self, s: np.ndarray) -> np.ndarray:
        if self.family == "constant_zero":
            return np.zeros_like(s)
        return _ramp_value(_clipped_t(s))


@dataclass(frozen=True)
class DistributionSpec:
    """Radiotherapy distribution weight: same ramp as P, or identically one."""

    family: str = "same_as_p"

    def __post_init__(self):
        if self.family not in ("same_as_p", "constant_one"):
            raise HypothesisViolationError(f"unknown distribution family {self.family!r}")

    def evaluate(self, s: np.ndarray) -> np.ndarray:
        if self.family == "constant_one":
            return np.ones_like(s)
        return _ramp_value(_clipped_t(s))


@dataclass(frozen=True)
class ModelParams:
    """Physical coefficients and scheme stabilisation.

    A, B weight the local and nonlocal parts of the free energy, chi is the
    chemotaxis coupling, lambda_s the implicit stabilisation shift of the
    time stepper. The potential F is always POTENTIAL.
    """

    A: float
    B: float
    chi: float = 0.0
    proliferation: ProliferationSpec = field(default_factory=ProliferationSpec)
    distribution: DistributionSpec = field(default_factory=DistributionSpec)
    lambda_s: float = 2.0

    def __post_init__(self):
        # NaN passes every comparison below, and an infinite coefficient
        # makes the margin or the implicit diagonal non-finite
        failures = [f"{name} must be finite, got {value}"
                    for name, value in (("A", self.A), ("B", self.B), ("chi", self.chi),
                                        ("lambda_s", self.lambda_s))
                    if not np.isfinite(value)]
        if self.A <= 0.0:
            failures.append(f"A must be > 0, got {self.A}")
        if self.B <= 0.0:
            failures.append(f"B must be > 0, got {self.B}")
        if self.chi < 0.0:
            failures.append(f"chi must be >= 0, got {self.chi}")
        if self.lambda_s < 0.0:
            failures.append(f"lambda_s must be >= 0, got {self.lambda_s}")
        if failures:
            raise HypothesisViolationError("; ".join(failures))

    @property
    def distribution_is_proliferation(self) -> bool:
        """True when h and P are one function, so h, h' can reuse P, P'. With
        constant_zero P, same_as_p still makes h the ramp."""
        return (self.distribution.family == "same_as_p"
                and self.proliferation.family == "smoothed_ramp")


def rates_with_slopes(params: ModelParams, s: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(P, P', h, h') at s, what a linearisation reads, with each ramp
    clipped once; P and h are bitwise the evaluate(s) of
    params.proliferation and params.distribution. The only place the
    slopes are formed."""
    if params.proliferation.family == "constant_zero":
        prolif = (np.zeros_like(s), np.zeros_like(s))
    else:
        prolif = _ramp_with_slope(s)
    if params.distribution_is_proliferation:
        return *prolif, *prolif
    if params.distribution.family == "constant_one":
        return *prolif, np.ones_like(s), np.zeros_like(s)
    return *prolif, *_ramp_with_slope(s)


def ellipticity_margin(params: ModelParams, kernel: KernelData) -> float:
    """Lower bound c0 of A F''(s) + B a(x) over all s and grid points.

    Uses the global minimum of F'' (conservative: the hypothesis quantifies
    over all real s). Admissibility requires c0 > chi^2; this function only
    reports the margin.
    """
    return params.A * POTENTIAL.second_derivative_min + params.B * float(np.min(kernel.a))


def require_ellipticity(params: ModelParams, kernel: KernelData) -> None:
    """Gate used before any solve: raise unless c0 > chi^2 (ellipticity_margin
    gives c0). Reads only A, B and chi, so it gates raw configuration values."""
    margin = ellipticity_margin(params, kernel)
    threshold = params.chi * params.chi
    if not (margin > threshold):
        raise HypothesisViolationError(
            f"ellipticity hypothesis violation: c0 = {margin:.6g} <= chi^2 = {threshold:.6g} "
            "(need A*min F'' + B*min a > chi^2)"
        )
