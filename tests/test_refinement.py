"""Observed orders of the scheme under refinement, by self-convergence.

The run is dense 1D on [0, 1] with chi = 0.3, a Gaussian kernel of width
0.2, phi0 = 0.5 cos(pi x), sigma0 = 0.3, a Gaussian bump of therapy u,
v = 0 and T = 0.1. Over four levels, each refined by 2, the differences
d_k between levels k and k + 1 give two orders log2(d_k / d_(k+1)), each
from three levels. A fine field is compared on the coarse grid through the
average of each pair of cells, and every norm is the grid's L2 norm of phi
and of sigma at T. Everything is numpy only (at most 256 cells) and runs in
well under a second.

Measured (numpy 2.4, OpenBLAS, x86-64):
- in h, 32 to 256 cells at 400 steps: phi 2.0006 and 2.0001, sigma 1.9993
  and 1.9998;
- in dt at 64 cells, 40 to 320 steps: phi 0.9295 and 0.9645, sigma 0.9630
  and 0.9800. The linearly implicit Euler step approaches 1 from below
  (from 20 steps the first phi order reads 0.86).

Each bound keeps a margin of 0.05: the h orders lie within 0.05 of 2, and
the dt orders at least 0.88 (0.05 under the lowest measured) and at most
1.05 (0.05 over the step's order 1).
"""

import numpy as np
import pytest

from nlch_control import (ControlPair, GridSpec, KernelSpec, ModelParams, ScalarField,
                          TimeGrid, build_kernel, simulate)

T = 0.1


def final_state(cells: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    grid = GridSpec((cells,), (1.0,))
    kernel = build_kernel(KernelSpec("gaussian", 4.0, 0.2), grid)
    x = grid.mesh()[0].reshape(-1)
    bump = np.exp(-((x - 0.3) / 0.1) ** 2)
    controls = ControlPair(grid, np.broadcast_to(bump, (steps, cells)),
                           np.broadcast_to(np.zeros(cells), (steps, cells)))
    traj = simulate(ScalarField(grid, 0.5 * np.cos(np.pi * x)), ScalarField.constant(grid, 0.3),
                    controls, ModelParams(A=0.5, B=1.0, chi=0.3), kernel, TimeGrid(T, steps),
                    record_monitors=False)
    return traj.phi[-1], traj.sigma[-1]


def rms(f: np.ndarray) -> float:
    """The L2 norm on [0, 1] of a cell field: sqrt(h sum f^2)."""
    return float(np.sqrt(np.mean(f * f)))


def orders(differences: list[float]) -> list[float]:
    return [float(np.log2(a / b)) for a, b in zip(differences, differences[1:])]


def coarsen(f: np.ndarray) -> np.ndarray:
    """A field on 2n cells averaged onto n, each pair of cells to one."""
    return 0.5 * (f[0::2] + f[1::2])


@pytest.mark.parametrize("component", [0, 1], ids=["phi", "sigma"])
def test_order_in_h_is_two(component):
    levels = [final_state(cells, 400)[component] for cells in (32, 64, 128, 256)]
    differences = [rms(coarse - coarsen(fine)) for coarse, fine in zip(levels, levels[1:])]
    assert all(abs(order - 2.0) <= 0.05 for order in orders(differences))


@pytest.mark.parametrize("component", [0, 1], ids=["phi", "sigma"])
def test_order_in_dt_is_one(component):
    levels = [final_state(64, steps)[component] for steps in (40, 80, 160, 320)]
    differences = [rms(coarse - fine) for coarse, fine in zip(levels, levels[1:])]
    assert all(0.88 <= order <= 1.05 for order in orders(differences))
