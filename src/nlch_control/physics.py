"""Scalar nonlinearities (double-well potential, proliferation ramp, therapy
distribution weight), model parameters, and the structural admissibility gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolationError
from .kernels import KernelData


def _as_array(s):
    arr = np.asarray(s, dtype=np.float64)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class PotentialSpec:
    """Quartic double well F(s) = (1 - s^2)^2 / 4 with equal minima at +-1.

    Analytic derivatives up to order 3: F' = s^3 - s, F'' = 3 s^2 - 1,
    F''' = 6 s.
    """

    family: str = "quartic_double_well"

    def __post_init__(self):
        if self.family != "quartic_double_well":
            raise HypothesisViolationError(f"unknown potential family {self.family!r}")

    def evaluate(self, s, order: int = 0):
        arr, scalar = _as_array(s)
        if order == 0:
            out = 0.25 * (1.0 - arr * arr) ** 2
        elif order == 1:
            out = arr * arr * arr - arr
        elif order == 2:
            out = 3.0 * arr * arr - 1.0
        elif order == 3:
            out = 6.0 * arr
        else:
            raise ValueError("potential derivatives available up to order 3")
        return float(out) if scalar else out

    @property
    def second_derivative_min(self) -> float:
        # global minimum of F'' over the real line, attained at s = 0
        return -1.0


def _smoothstep(t: np.ndarray, order: int) -> np.ndarray:
    """Quintic smoothstep q(t) = 6 t^5 - 15 t^4 + 10 t^3 on [0, 1].

    q' and q'' vanish at both ends, giving a C^2 ramp once clamped. The value
    branch uses the exact symmetry q(t) = 1 - q(1 - t) for t > 1/2, which
    keeps the absolute rounding error near the upper seam at machine level
    (the direct polynomial cancels catastrophically there); the derivatives
    are already in factored, cancellation-free form.
    """
    if order == 0:
        near = np.minimum(t, 1.0 - t)
        q_near = near * near * near * (10.0 + near * (-15.0 + 6.0 * near))
        return np.where(t <= 0.5, q_near, 1.0 - q_near)
    if order == 1:
        return 30.0 * t * t * (1.0 - t) ** 2
    if order == 2:
        return 60.0 * t * (1.0 - t) * (1.0 - 2.0 * t)
    raise ValueError("smoothstep derivatives available up to order 2")


def _ramp(s, order: int):
    """C^2 ramp: 0 below -1, 1 above +1, quintic smoothstep in between."""
    arr, scalar = _as_array(s)
    t = np.clip((arr + 1.0) * 0.5, 0.0, 1.0)
    out = _smoothstep(t, order) * (0.5 ** order)
    if order > 0:
        # clamped regions are exactly flat
        out = np.where((arr <= -1.0) | (arr >= 1.0), 0.0, out)
    return float(out) if scalar else out


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

    def evaluate(self, s, order: int = 0):
        if order not in (0, 1, 2):
            raise ValueError("proliferation derivatives available up to order 2")
        if self.family == "constant_zero":
            arr, scalar = _as_array(s)
            out = np.zeros_like(arr)
            return float(out) if scalar else out
        return _ramp(s, order)


@dataclass(frozen=True)
class DistributionSpec:
    """Radiotherapy distribution weight: same ramp as P, or identically one."""

    family: str = "same_as_p"

    def __post_init__(self):
        if self.family not in ("same_as_p", "constant_one"):
            raise HypothesisViolationError(f"unknown distribution family {self.family!r}")

    def evaluate(self, s, order: int = 0):
        if order not in (0, 1, 2):
            raise ValueError("distribution derivatives available up to order 2")
        if self.family == "constant_one":
            arr, scalar = _as_array(s)
            out = np.ones_like(arr) if order == 0 else np.zeros_like(arr)
            return float(out) if scalar else out
        return _ramp(s, order)


@dataclass(frozen=True)
class ModelParams:
    """Physical coefficients and scheme stabilisation.

    A, B weight the local and nonlocal parts of the free energy, chi is the
    chemotaxis coupling, lambda_s the implicit stabilisation shift of the
    time stepper.
    """

    A: float
    B: float
    chi: float = 0.0
    potential: PotentialSpec = field(default_factory=PotentialSpec)
    proliferation: ProliferationSpec = field(default_factory=ProliferationSpec)
    distribution: DistributionSpec = field(default_factory=DistributionSpec)
    lambda_s: float = 2.0

    def __post_init__(self):
        failures = []
        if not (self.A > 0.0):
            failures.append(f"A must be > 0, got {self.A}")
        if not (self.B > 0.0):
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


def ellipticity_margin(params: ModelParams, kernel: KernelData) -> float:
    """Lower bound c0 of A F''(s) + B a(x) over all s and grid points.

    Uses the global minimum of F'' (conservative: the hypothesis quantifies
    over all real s). Admissibility requires c0 > chi^2; this function only
    reports the margin.
    """
    return params.A * params.potential.second_derivative_min + params.B * float(
        np.min(kernel.a_field.values)
    )


def require_ellipticity(params: ModelParams, kernel: KernelData) -> float:
    """Gate used before any solve: raise unless c0 > chi^2."""
    margin = ellipticity_margin(params, kernel)
    threshold = params.chi * params.chi
    if not (margin > threshold):
        raise HypothesisViolationError(
            f"ellipticity hypothesis fails: c0 = {margin:.6g} <= chi^2 = {threshold:.6g} "
            "(need A*min F'' + B*min a > chi^2)",
            margin=margin,
        )
    return margin
