"""Nonparametric conditional means as linear smoothers.

Polynomial series regression, local linear regression with an Epanechnikov
kernel, and exact cell means for discrete conditioning variables are all
linear in the values they smooth: theta(v) = L(v) @ coef with coef = P @ W.
A `Smoother` holds the design map L, the coefficients and their covariance,
summed from each observation's influence on them. Pointwise standard errors,
and the Gaussian process the sup test simulates, both come from it. The
local-linear kernel works on the rows sorted by z, in blocks that meet only
the grid points whose kernel windows reach them, so none of its arrays grows
with grid points x rows; the local-linear propensity of `mte` sums its surface
over the same blocks. Cell means group the rows by cell once and take each
cell's mean and covariance block from sums over its rows divided by its count,
so none of theirs grows with cells x rows. The `fit_*` functions wrap the same
smoothers for a single column. A smoother that cannot estimate some grid
points holds the others only; `drop_grid_points` leaves them out of the
caller's grid, for the reason that `DROP_REASONS` gives per method.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .data import distinct
from .errors import EmptyWindow, InsufficientData, RankDeficient, TooManyCells
from .estimators import _check_rank

S_FLOOR = 1e-12
MAX_CELLS = 50
# the local-linear kernel runs over blocks of this many (grid point, row) cells
# at most, so its temporaries stay small whatever n and the grid size are
LOCAL_LINEAR_BLOCK_CELLS = 2**15


def default_series_order(n: int) -> int:
    """ceil(7 n^(1/5)), capped at 16 and at n - 2.

    The generous constant deliberately undersmooths: a rich basis is what
    makes the small-sample rejection rates of the sup test match the
    documented finite-sample behavior, while the cap keeps large samples
    stable.
    """
    return int(min(16, np.ceil(7.0 * n**0.2), n - 2))


def capped_series_order(z, order: int | None = None) -> int:
    """`order`, else `default_series_order(n)`, capped at the distinct values of z minus one.

    Degree d - 1 already fits d support points exactly; a higher one is collinear.
    """
    if order is None:
        order = default_series_order(len(z))
    return min(order, len(distinct(z)) - 1)


def nonlinear_step_series_order(n: int) -> int:
    """ceil(1.5 n^(1/5)), capped at n - 2.

    Residuals from a nonlinear first step carry a smooth artifact driven by
    the sampling noise of the transformation parameter; a coarse basis keeps
    the sup test from mistaking that artifact for a violated moment.
    """
    return int(min(np.ceil(1.5 * n**0.2), n - 2))


def rule_of_thumb_bandwidth(z: np.ndarray) -> float:
    """1.06 sd(z) n^(-1/5)."""
    z = np.asarray(z, dtype=float)
    return float(1.06 * np.std(z) * len(z) ** (-0.2))


def epanechnikov(u: np.ndarray) -> np.ndarray:
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u**2), 0.0)


def clamp_s(s: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Floor degenerate standard errors so the standardized process stays finite."""
    floor = S_FLOOR * (1.0 + np.abs(theta))
    return np.maximum(s, floor)


def series_basis(z: np.ndarray, order: int, lo: float, hi: float) -> np.ndarray:
    """Degree-`order` polynomial basis with z mapped onto [-1, 1] via [lo, hi].

    Legendre polynomials span the same space as raw powers but keep the design
    matrix well conditioned at high orders.
    """
    z = np.asarray(z, dtype=float).ravel()
    t = 2.0 * (z - lo) / (hi - lo) - 1.0
    # legvander's recurrence, operation for operation, without importing numpy.polynomial
    v = np.empty((order + 1, len(t)))
    v[0] = 1.0
    if order > 0:
        v[1] = t
        for i in range(2, order + 1):
            v[i] = (v[i - 1] * t * (2 * i - 1) - v[i - 2] * (i - 1)) / i
    return np.ascontiguousarray(v.T)


def _influence_cov(psi: np.ndarray) -> np.ndarray:
    """flat(psi) @ flat(psi).T, for psi[a, j, i] observation i's influence on coef[j, a]."""
    flat = psi.reshape(-1, psi.shape[-1])
    return flat @ flat.T


@dataclass(frozen=True)
class Smoother:
    """theta(v) = design(v) @ coef for each column of W, with coef = P @ W.

    cov is the HC0 covariance of the coefficients, stacked column by column of
    W: the sum over observations of the outer product of each one's influence
    on them (`_influence_cov`).
    """

    design: Callable  # v (G,) -> L (G, k), or a point smoother's coefficient indices (G,)
    coef: np.ndarray  # (k, m)
    cov: np.ndarray  # (m k, m k)

    def evaluate(self, v):
        """theta and floored pointwise standard errors at v, each (m, len(v))."""
        return self.evaluate_design(self.design(np.atleast_1d(np.asarray(v, dtype=float))))

    def evaluate_design(self, design):
        """`evaluate` at the points whose design rows are `design` (G, k), or coefficient indices (G,)."""
        k = len(self.coef)
        if design.dtype.kind == "i":  # a point smoother: theta is the coefficients at the indices
            theta, var = self.coef[design].T, self.cov.diagonal().reshape(-1, k)[:, design]
            return theta, clamp_s(np.sqrt(var.clip(min=0.0)), theta)
        theta = (design @ self.coef).T
        s = np.empty_like(theta)
        for a in range(len(s)):
            block = self.cov[a * k : (a + 1) * k, a * k : (a + 1) * k]
            s[a] = np.sqrt(np.einsum("ij,jk,ik->i", design, block, design).clip(min=0.0))
        return theta, clamp_s(s, theta)


def _point_design(points, v):
    """The index of each point of v into the sorted `points`, whose coefficients are the fit there."""
    index = np.searchsorted(points, v)
    found = np.append(points, np.nan)[index] == v  # past the end is NaN, equal to nothing
    if not np.all(found):
        raise EmptyWindow(v[~found].tolist())
    return index


def series_smoother(z, w, order: int, lo: float, hi: float) -> Smoother:
    """Least squares of each column of w (n, m) on the Legendre basis over [lo, hi]."""
    n = len(z)
    if not 1 <= order < n - 1:
        raise InsufficientData(f"series order must satisfy 1 <= order < n - 1 "
                               f"(n={n}, order={order})")
    if not lo < hi:
        raise RankDeficient("conditioning variable is constant")
    b = series_basis(z, order, lo, hi)
    # R of b = QR has b's singular values, and pinv = R^-1 R^-T b' needs no tall SVD
    r = np.linalg.qr(b, mode="r")
    _check_rank(r, "the series basis of this order", rows=n)
    r_inv = np.linalg.inv(r)
    pinv = r_inv @ (r_inv.T @ b.T)  # (k, n)
    coef = pinv @ w
    resid = w - b @ coef
    design = partial(series_basis, order=order, lo=lo, hi=hi)
    return Smoother(design, coef, _influence_cov(pinv[None] * resid.T[:, None, :]))


def _positive(bandwidth) -> float:
    if not bandwidth > 0:
        raise InsufficientData("bandwidth must be positive")
    return float(bandwidth)


@dataclass(frozen=True)
class _LocalLines:
    """Kernel-weighted local lines of z at grid points, built on blocks of rows sorted by z.

    `at` sorts the rows and the grid once and returns the lines at the points
    whose window supports a non-degenerate local line, with their kernel sums
    s0, s1, s2, and `ok`, which flags those points in the caller's order. A
    block of rows meets only the points whose windows [g - h, g + h] can reach
    it, so every pass touches the in-window (point, row) cells and the few more
    of a padded window, which the kernel zeroes. `intercept` and `slope` turn a
    block of `blocks()` into weight rows. A point's sums, and the products over
    its rows, add up block by block, so the last bits depend on the block size.
    """

    z: np.ndarray  # (n,) sorted
    order: np.ndarray  # (n,) the caller's row of each sorted row
    grid: np.ndarray  # (G,) the kept grid points, sorted
    index: np.ndarray  # (G,) the caller's position of each kept grid point
    bandwidth: float
    sums: np.ndarray  # (3, G): s0, s1, s2
    denom: np.ndarray  # (G,): s0 s2 - s1^2

    @classmethod
    def at(cls, z, grid, bandwidth) -> tuple[_LocalLines, np.ndarray]:
        z = np.asarray(z, dtype=float).ravel()
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        order, index = np.argsort(z, kind="stable"), np.argsort(grid, kind="stable")
        sums = np.zeros((3, len(grid)))
        # every sorted point, to sum the kernel over; its denom is set from the sums below
        every = cls(z[order], order, grid[index], index, _positive(bandwidth), sums, sums[0])
        for points, _, du, k in every.blocks():
            sums[:, points] += k.sum(axis=1), (k * du).sum(axis=1), (k * du**2).sum(axis=1)
        s0, s1, s2 = sums
        denom = s0 * s2 - s1**2
        scale = np.maximum(s0 * np.maximum(s2, every.bandwidth**2), 1e-300)
        kept = (s0 > 0) & (denom > 1e-12 * scale)
        ok = kept[np.argsort(index)]  # in the caller's grid order
        return replace(every, grid=every.grid[kept], index=index[kept], sums=sums[:, kept],
                       denom=denom[kept]), ok

    def blocks(self):
        """(points, rows, du, k) per block of LOCAL_LINEAR_BLOCK_CELLS // G sorted rows.

        `points` slices the grid points whose windows can reach the rows,
        du = z[rows] - grid[points] and k is its kernel weight.
        """
        h = self.bandwidth
        # past h by more than any rounding of z - g, so no in-window row is missed
        ends = np.abs(np.concatenate([self.z[:1], self.z[-1:], self.grid[:1], self.grid[-1:]]))
        pad = h * (1.0 + 1e-6) + 4 * np.finfo(float).eps * ends.max(initial=0.0)
        step = max(1, LOCAL_LINEAR_BLOCK_CELLS // max(len(self.grid), 1))
        for start in range(0, len(self.z), step):
            rows = slice(start, start + step)
            z = self.z[rows]
            lo = np.searchsorted(self.grid, z[0] - pad, side="left")
            hi = np.searchsorted(self.grid, z[-1] + pad, side="right")
            if lo < hi:
                points = slice(lo, hi)
                du = z[None, :] - self.grid[points, None]
                yield points, rows, du, epanechnikov(du / h)

    def intercept(self, points, du, k) -> np.ndarray:
        _, s1, s2 = self.sums[:, points, None]
        return k * (s2 - s1 * du) / self.denom[points, None]

    def slope(self, points, du, k) -> np.ndarray:
        s0, s1, _ = self.sums[:, points, None]
        return k * (s0 * du - s1) / self.denom[points, None]


def local_linear_weights(z, grid, bandwidth: float):
    """Smoother weight matrix A (grid x n) with theta(grid) = A w, held dense.

    Returns (A, ok) where ok flags grid points whose kernel window supports a
    non-degenerate local line; rows with ok=False are zero. Only the
    `probe-npreg` request of bench/replay.py and the dense oracles of the
    tests call it; the smoother and the propensity walk `blocks()`.
    """
    lines, ok = _LocalLines.at(z, grid, bandwidth)
    a = np.zeros((len(ok), len(lines.z)))
    for points, rows, du, k in lines.blocks():
        a[lines.index[points, None], lines.order[rows]] = lines.intercept(points, du, k)
    return a, ok


# why a method's fit leaves grid points out: the warning, the error, summary() and `ivcheck mte`
DROP_REASONS = {"local-linear": "empty kernel windows",
                "cell-means": "one-row cells or cells of one value"}


def drop_grid_points(grid, ok, method: str):
    """(grid[ok], the number dropped), warning with `DROP_REASONS[method]` when some are.

    When every point is dropped the caller raises instead, so no warning.
    """
    dropped = int((~ok).sum())
    if 0 < dropped < len(ok):
        warnings.warn(f"dropping {dropped} grid points with {DROP_REASONS[method]}", stacklevel=3)
    return grid[ok], dropped


def local_linear_smoother(z, w, grid, bandwidth: float):
    """Local lines of each column of w (n, m) at the grid points.

    Returns (smoother, ok). Each residual comes from the grid point's own
    local line. The lines are built only at the grid points whose window
    supports one (ok=True), in sorted order, so the smoother's process does
    not depend on the order of the grid.
    """
    lines, ok = _LocalLines.at(z, grid, bandwidth)
    w = w[lines.order]
    m, g = w.shape[1], len(lines.grid)
    beta, coef = np.zeros((g, m)), np.zeros((g, m))
    for points, rows, du, k in lines.blocks():
        beta[points] += lines.slope(points, du, k) @ w[rows]
        coef[points] += lines.intercept(points, du, k) @ w[rows]
    # the influences are the intercept weights times the residuals of each
    # point's own line; a block adds their products to its points' covariance
    cov = np.zeros((m, g, m, g))
    for points, rows, du, k in lines.blocks():
        resid = w[rows].T[:, None, :] - coef[points].T[:, :, None] - beta[points].T[:, :, None] * du
        block = _influence_cov(lines.intercept(points, du, k) * resid)
        cov[:, points, :, points] += block.reshape(m, len(du), m, len(du))
    return Smoother(partial(_point_design, lines.grid), coef, cov.reshape(m * g, m * g)), ok


def cells(z):
    """(values, cell, counts): the distinct values of z, each row's cell and each cell's rows."""
    values, cell, counts = np.unique(
        np.asarray(z, dtype=float).ravel(), return_inverse=True, return_counts=True
    )
    if len(values) > MAX_CELLS:
        raise TooManyCells(f"{len(values)} distinct values exceed the cap of {MAX_CELLS}")
    return values, cell, counts


def cell_means_smoother(z, w):
    """Within-cell means of each column of w (n, m), with ddof=1 standard errors.

    Returns (smoother, ok) where ok flags the cells of `np.unique(z)` whose
    rows take at least two values in every column of w. A one-row cell, or one
    whose rows share a value of some column, has no within-cell variance to
    estimate: its standard error would sit at the floor and decide a sup test
    alone. It is left out of the smoother. The rows are grouped by cell once,
    and every cell quantity is a sum over its rows divided by its count: the
    mean, and the covariance block sum(r_a r_b) / (n_c (n_c - 1)) of its
    residuals r, so the covariance is block-diagonal, one (m x m) block per cell.
    """
    values, cell, counts = cells(z)
    # a float copy of w with each cell's rows together; numpy radix-sorts the
    # smallest unsigned type that holds a cell index, uint8 under MAX_CELLS
    order = np.argsort(cell.astype(np.min_scalar_type(len(values) - 1)), kind="stable")
    w = np.asarray(w, dtype=float)[order]
    m, starts = w.shape[1], np.cumsum(counts) - counts
    ok = np.all(np.maximum.reduceat(w, starts) > np.minimum.reduceat(w, starts), axis=1)
    coef = np.add.reduceat(w, starts) / counts[:, None]
    w -= np.repeat(coef, counts, axis=0)  # the residuals
    kept = counts[ok]
    k = len(kept)
    blocks = np.stack([np.add.reduceat(w * w[:, [a]], starts)[ok] for a in range(m)], axis=1)
    cov = np.zeros((m, k, m, k))
    cov[:, np.arange(k), :, np.arange(k)] = blocks / (kept * (kept - 1))[:, None, None]
    return Smoother(partial(_point_design, values[ok]), coef[ok], cov.reshape(m * k, m * k)), ok


@dataclass(frozen=True)
class CondMeanFit:
    """Fitted conditional mean, evaluable pointwise with a standard error."""

    smoother_at: Callable  # v (G,) -> Smoother whose design covers v

    def evaluate(self, v):
        """Return (theta_hat, s) at scalar or vector v."""
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        theta, s = self.smoother_at(v_arr).evaluate(v_arr)
        if np.isscalar(v) or np.asarray(v).ndim == 0:
            return float(theta[0, 0]), float(s[0, 0])
        return theta[0], s[0]


def _column(x) -> np.ndarray:
    return np.asarray(x, dtype=float).ravel()


def fit_series(w, z, order: int | None = None) -> CondMeanFit:
    """Polynomial series regression of w on z, HC0 standard errors, of `capped_series_order`."""
    w, z = _column(w), _column(z)
    smoother = series_smoother(z, w[:, None], capped_series_order(z, order),
                               float(z.min()), float(z.max()))
    return CondMeanFit(lambda v: smoother)


def fit_local_linear(w, z, bandwidth=None) -> CondMeanFit:
    """Local linear regression of w on z with an Epanechnikov kernel."""
    w, z = _column(w), _column(z)
    if len(z) < 10:
        raise InsufficientData("local linear regression needs n >= 10")
    if bandwidth is None:
        bandwidth = rule_of_thumb_bandwidth(z)
    bandwidth = _positive(bandwidth)
    # the fit at the evaluation points is the smoother's coefficient vector,
    # so the smoother is built for each call of `evaluate`
    return CondMeanFit(lambda v: local_linear_smoother(z, w[:, None], v, bandwidth)[0])


def fit_cell_means(w, z) -> CondMeanFit:
    """Exact within-cell means for a discrete conditioning variable (<= MAX_CELLS cells).

    Cells with one row, or whose rows share one value of w, are left out:
    evaluating there raises EmptyWindow.
    """
    smoother, _ = cell_means_smoother(_column(z), _column(w)[:, None])
    return CondMeanFit(lambda v: smoother)
