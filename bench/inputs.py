"""Seeded CSV inputs for the CLI workloads, drawn with numpy alone.

The designs copy the null, power, heteroskedastic and discrete-instrument
data-generating processes of the library's Monte Carlo families, but this
module never imports `ivcheck`: a change to `ivcheck.simulate` cannot change
the bytes a CLI workload reads.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

SIGMA_SIZE = np.array([[1.0, 0.5], [0.5, 2.0]])
SIGMA_POWER = np.array([[1.0, 0.5], [0.5, 1.0]])
POWER_L, POWER_SIGMA = 0.5, 0.25
HETERO_RHO = 1.0
DISCRETE_CELLS = 25  # cell-means caps the instrument at 50 distinct values

DESIGNS = ("null", "power", "hetero", "discrete")


def _normal_pair(gen, cov, n):
    return gen.standard_normal((n, 2)) @ np.linalg.cholesky(cov).T


def draw(design: str, n: int, seed: int):
    """(y, x, z) columns of one design; the same (design, n, seed) gives the same draws."""
    gen = np.random.default_rng([seed, DESIGNS.index(design), n])
    if design == "null":
        z = gen.uniform(-3.0, 3.0, n)
        uv = _normal_pair(gen, SIGMA_SIZE, n)
        x = 3.0 * z + uv[:, 1]
        return 2.0 * x + uv[:, 0], x, z
    if design == "power":
        z = gen.uniform(-3.0, 3.0, n)
        e = _normal_pair(gen, SIGMA_POWER, n)
        bump = np.exp(-0.5 * (z / POWER_SIGMA) ** 2) / math.sqrt(2.0 * math.pi)
        u = POWER_L / POWER_SIGMA * bump + np.clip(e[:, 0], -3.0, 3.0)
        x = 3.0 * z + e[:, 1]
        return 2.0 * x + u, x, z
    if design == "hetero":
        x = gen.uniform(-3.0, 3.0, n)
        u = gen.standard_normal(n) * np.sqrt(1.0 + HETERO_RHO / 9.0 * x**2)
        return 2.0 * x + u, x, x.copy()
    if design == "discrete":
        levels = np.linspace(-3.0, 3.0, DISCRETE_CELLS)
        z = levels[gen.integers(0, DISCRETE_CELLS, n)]
        uv = _normal_pair(gen, SIGMA_SIZE, n)
        x = 3.0 * z + uv[:, 1]
        return 2.0 * x + uv[:, 0], x, z
    raise ValueError(f"unknown design {design!r}")


def write_inputs(directory, n: int, seed: int) -> dict:
    """Write one CSV per design (columns y, x, z) and return {design: path}."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for design in DESIGNS:
        path = directory / f"{design}.csv"
        np.savetxt(path, np.column_stack(draw(design, n, seed)), fmt="%.17g",
                   delimiter=",", header="y,x,z", comments="")
        paths[design] = path
    return paths
