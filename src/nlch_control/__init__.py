"""Nonlocal Cahn-Hilliard tumour-growth simulation and adjoint-based optimal
control of radiotherapy/chemotherapy sources."""

from .geometry import GridSpec, ScalarField, inner_product, mass
from .kernels import KernelData, KernelSpec, build_kernel
from .physics import (DistributionSpec, ModelParams, PotentialSpec,
                      ProliferationSpec, ellipticity_margin, require_ellipticity)
from .forward import (ControlPair, State, StateTrajectory, TimeGrid, free_energy,
                      mass_balance_residual, simulate)
from .sensitivity import (AdjointTrajectory, TangentTrajectory, adjoint_sweep,
                          duality_gap, tangent_sweep)
from .control import (BoxConstraints, CostSpec, OptimizeReport, PgdOptions,
                      cost, pgd_optimize, project_box, projection_formula_defect,
                      reduced_gradient, stationarity_residual)
from .config import RunConfig, config_from_dict, load_config

__all__ = [
    "GridSpec", "ScalarField", "inner_product", "mass",
    "KernelData", "KernelSpec", "build_kernel",
    "DistributionSpec", "ModelParams", "PotentialSpec", "ProliferationSpec",
    "ellipticity_margin", "require_ellipticity",
    "ControlPair", "State", "StateTrajectory", "TimeGrid", "free_energy",
    "mass_balance_residual", "simulate",
    "AdjointTrajectory", "TangentTrajectory", "adjoint_sweep",
    "duality_gap", "tangent_sweep",
    "BoxConstraints", "CostSpec", "OptimizeReport", "PgdOptions", "cost",
    "pgd_optimize", "project_box", "projection_formula_defect", "reduced_gradient",
    "stationarity_residual",
    "RunConfig", "config_from_dict", "load_config",
]
