"""Nonparametric conditional means as linear smoothers.

Polynomial series regression, local linear regression with an Epanechnikov
kernel, and exact cell means for discrete conditioning variables are all
linear in the values they smooth: theta(v) = L(v) @ coef with coef = P @ W.
A `Smoother` holds the design map L, the coefficients and their covariance,
summed from each observation's influence on them. `Smoother.process`
standardizes the Gaussian process the sup test simulates: the symmetric root of
the coefficients' correlation matrix, the draw map and s, the sd of what is
drawn, for either design. The root is total, so a zero covariance draws 0 and
has s = 0. `process` is the one reader of a fitted smoother: the sup test and
the public `fit_*` both read theta and s from it. One local-linear engine fits
the lines in z of the sup test and of the propensity of `mte`, and the control
function's planes in (x, rank), all through one coefficient pass: it works on
rows sorted once, in blocks that meet only the points whose kernel windows
reach them, so none of its arrays grows with points x rows, and one
determinant rule decides where it can fit. Cell means group the rows by cell
once, so none of theirs grows with cells x rows. Each of the three takes the
conditioning column itself and sums its covariance in one routine,
`_influence_cov`, over blocks of row influences. The `fit_*` functions wrap the
same smoothers for a single column. A smoother that cannot estimate some grid
points holds the others only; `drop_grid_points` leaves them out of the
caller's grid, for the reason that `DROP_REASONS` gives per method.
"""

from __future__ import annotations

import warnings
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .data import MIN_ROWS, distinct
from .errors import EmptyWindow, InsufficientData, RankDeficient, TooManyCells
from .estimators import _design, _least_squares, series_basis

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
    The first rows usually hold order + 1 distinct values already, and then
    the values of the other rows are not counted.
    """
    if order is None:
        order = default_series_order(len(z))
    if len(distinct(z[: 4 * (order + 1)])) > order:
        return order
    return min(order, len(distinct(z)) - 1)


def nonlinear_step_series_order(n: int) -> int:
    """ceil(1.5 n^(1/5)), capped at n - 2.

    Residuals from a nonlinear first step carry a smooth artifact driven by
    the sampling noise of the transformation parameter; a coarse basis keeps
    the sup test from mistaking that artifact for a violated moment.
    """
    return int(min(np.ceil(1.5 * n**0.2), n - 2))


def rule_of_thumb_bandwidth(z: np.ndarray) -> float:
    """1.06 sd(z) n^(-1/5); a constant z, of sd 0 up to rounding, raises RankDeficient."""
    z = np.asarray(z, dtype=float)
    if not z.min() < z.max():
        raise RankDeficient("conditioning variable is constant")
    return float(1.06 * np.std(z) * len(z) ** (-0.2))


def epanechnikov(u: np.ndarray) -> np.ndarray:
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u**2), 0.0)


def _influence_cov(blocks, lead, m: int, g: int) -> np.ndarray:
    """sum_i psi_i psi_i', (*lead, m g, m g), over blocks (points, psi) of the row influences.

    psi[..., a, p, i] is row i's influence on coefficient p of the slice `points` of column a.
    """
    cov = np.zeros((*lead, m, g, m, g))
    for points, psi in blocks:
        flat = psi.reshape(psi.shape[:-3] + (-1, psi.shape[-1]))
        block = cov[..., points, :, points]  # a view, so += adds into cov
        block += (flat @ flat.swapaxes(-1, -2)).reshape(block.shape)
    return cov.reshape(*lead, m * g, m * g)


class Smoother(NamedTuple):
    """theta(v) = design(v) @ coef for each column of W, with coef = P @ W.

    cov is the HC0 covariance of the coefficients, stacked column by column of
    W: the sum over observations of the outer product of each one's influence
    on them (`_influence_cov`). A series smoother of a stack of datasets has
    the stack's leading axis on coef, cov, its design's v and L, and theta and s.
    `process` is its one reader.
    """

    design: Callable  # v (G,) -> L (G, k), or a point smoother's coefficient indices (G,)
    coef: np.ndarray  # (k, m)
    cov: np.ndarray  # (m k, m k)

    def process(self, grid):
        """theta, s and the draw map of the standardized Gaussian process on the grid, each with
        a leading slice axis: one slice, or R of a stacked series grid (R, G).

        Given the data, the estimate is linear in the smoothed values: with root' root = cov
        for the coefficients (`_root`) and L the design, the draws are N(0, I) normals (draws,
        columns x coefficients) times the fixed map root L', or root[:, L] where L indexes
        coefficients. s is the sd of what is drawn, the column norms of that map, and the draw
        map is the map over s, whatever the units of the moments; a column of s = 0 draws 0.
        """
        design, (k, m) = self.design(grid), self.coef.shape[-2:]  # design (..., G, k) or (G,)
        root = _root(self.cov.reshape(-1, m * k, m * k)).reshape(-1, m * k, m, k)
        if design.dtype.kind == "i":  # the coefficients at the indices
            theta = self.coef[design].T
            # in C order, as the dense product's: fancy indexing laid one column's map out
            # transposed, and the draws' product then rounded differently from the dense one's
            draw_map = np.take(root, design, axis=-1)
        else:
            theta = (design @ self.coef).swapaxes(-1, -2)
            draw_map = root @ design.swapaxes(-1, -2)[..., None, :, :]
        s = np.sqrt(np.einsum("ijag,ijag->iag", draw_map, draw_map))  # (slices, m, G)
        draw_map = np.divide(draw_map, s[:, None], out=np.zeros_like(draw_map),
                             where=s[:, None] > 0.0).reshape(len(root), m * k, -1)
        return theta.reshape(s.shape), s, draw_map


def _root(cov: np.ndarray) -> np.ndarray:
    """S D per slice of a stack cov (slices, p, p), with root' root = cov: D = diag(sd) holds the
    coefficients' sds, and S is the principal square root of their correlation matrix, its
    negative eigenvalues taken as 0. One `eigh` call factors every slice on its own.

    Any root draws the same law; this one moves with cov continuously, so a last-bit change
    in a nearly singular cov moves the draws little (by about its square root where
    eigenvalues are at rounding level). It is total: a coefficient of zero sd has a zero row
    and column in the correlation matrix and a zero column in the root, so a zero cov has a
    zero root.
    """
    sd = np.sqrt(cov.diagonal(axis1=-2, axis2=-1))
    inverse = np.divide(1.0, sd, out=np.zeros_like(sd), where=sd > 0.0)
    eigenvalues, vectors = np.linalg.eigh(cov * inverse[..., None] * inverse[..., None, :])
    root = (vectors * np.sqrt(eigenvalues.clip(min=0.0))[..., None, :]) @ vectors.swapaxes(-1, -2)
    return root * sd[..., None, :]


def _point_design(points, v):
    """The index of each point of v into the sorted `points`, whose coefficients are the fit there."""
    index = np.searchsorted(points, v)
    found = np.append(points, np.nan)[index] == v  # past the end is NaN, equal to nothing
    if not np.all(found):
        raise EmptyWindow(v[~found].tolist())
    return index


def series_smoother(z, w, order: int, lo, hi) -> Smoother:
    """Least squares of each column of w (n, m) on the Legendre basis over [lo, hi].

    A stack of z (R, n) and w (R, n, m) takes lo and hi per slice and gives a
    stacked smoother, whose slices equal each one's own smoother bit for bit.
    """
    n = z.shape[-1]
    if not np.less(lo, hi).all():
        raise RankDeficient("conditioning variable is constant")
    if not 1 <= order < n - 1:
        raise InsufficientData(f"series order must satisfy 1 <= order < n - 1 "
                               f"(n={n}, order={order})")
    b = series_basis(z, order, lo, hi)
    coef, pinv, _ = _least_squares(b, w, "the series basis of this order")
    psi = pinv[..., None, :, :] * (w - b @ coef).swapaxes(-1, -2)[..., None, :]  # (..., m, k, n)
    cov = _influence_cov([(slice(None), psi)], coef.shape[:-2], w.shape[-1], order + 1)
    return Smoother(partial(series_basis, order=order, lo=lo, hi=hi), coef, cov)


def _positive(bandwidth) -> float:
    if not bandwidth > 0:
        raise InsufficientData("bandwidth must be positive")
    return float(bandwidth)


class _LocalLinear(NamedTuple):
    """Kernel-weighted local-linear fits at points in d coordinates, on rows sorted on coordinate 0.

    `sort` sorts the rows once. `at` sums each point's normal matrix A = D'KD,
    D = [1, u - point] and K the product Epanechnikov kernel with one bandwidth
    per axis, block by block, so its last bits depend on the block size. It
    keeps the points where `min_rows` or more rows carry weight and
    det A > 1e-12 A00 prod_j max(Ajj, h_j^2), and returns the fits there, sorted,
    with `ok` flagging them in the caller's order. A block of `blocks()` meets
    only the points whose coordinate-0 windows can reach its rows; `weights`
    turns it into weight rows, and `fit` into each point's local coefficients.
    """

    u: np.ndarray  # (n, d) sorted on coordinate 0
    order: np.ndarray  # (n,) the caller's row of each sorted row
    bandwidth: np.ndarray  # (d,)
    points: np.ndarray | None = None  # (G, d) the kept points, sorted on coordinate 0
    index: np.ndarray | None = None  # (G,) the caller's position of each kept point
    inverse: np.ndarray | None = None  # (G, d + 1, d + 1) the inverse of each kept A

    @classmethod
    def sort(cls, u, bandwidth) -> _LocalLinear:
        """The rows of u, (n,) or (n, d), sorted on coordinate 0."""
        u = np.asarray(u, dtype=float).reshape(len(u), -1)
        order = np.argsort(u[:, 0], kind="stable")
        return cls(u[order], order, np.array([_positive(h) for h in np.atleast_1d(bandwidth)]))

    def at(self, points, min_rows: int = 0) -> tuple[_LocalLinear, np.ndarray]:
        d = self.u.shape[1]
        points = np.asarray(points, dtype=float).reshape(-1, d)
        index = np.argsort(points[:, 0], kind="stable")
        every = self._replace(points=points[index], index=index)
        normal, count = np.zeros((len(points), d + 1, d + 1)), np.zeros(len(points), dtype=int)
        for block, _, du, k in every.blocks():
            design = _design(du)  # (P, R, d + 1)
            normal[block] += (k[:, None] * design.transpose(0, 2, 1)) @ design
            count[block] += np.count_nonzero(k, axis=1)
        diag = normal.diagonal(axis1=1, axis2=2)
        scale = diag[:, 0] * np.prod(np.maximum(diag[:, 1:], self.bandwidth**2), axis=1)
        kept = (count >= min_rows) & (np.linalg.det(normal) > 1e-12 * scale)
        return every._replace(points=every.points[kept], index=index[kept],
                              inverse=np.linalg.inv(normal[kept])), kept[np.argsort(index)]

    def blocks(self):
        """(points, rows, du, k) per block of LOCAL_LINEAR_BLOCK_CELLS // G sorted rows.

        `points` slices the points whose coordinate-0 windows can reach the rows,
        du = u[rows] - points[points] is (P, R, d) and k (P, R) its kernel weight.
        """
        first, grid = self.u[:, 0], self.points[:, 0]
        if not len(grid):
            return
        # past h by more than any rounding of u - point, so no in-window row is missed
        ends = np.abs(np.concatenate([first[:1], first[-1:], grid[:1], grid[-1:]]))
        pad = self.bandwidth[0] * (1.0 + 1e-6) + 4 * np.finfo(float).eps * ends.max()
        lowest, stop = np.searchsorted(first, [grid[0] - pad, grid[-1] + pad], side="right")
        step = max(1, LOCAL_LINEAR_BLOCK_CELLS // len(grid))
        for start in range(lowest, stop, step):
            rows = slice(start, min(start + step, stop))
            lo = np.searchsorted(grid, first[start] - pad, side="left")
            hi = np.searchsorted(grid, first[rows][-1] + pad, side="right")
            if lo < hi:
                points = slice(lo, hi)
                du = self.u[None, rows] - self.points[points, None]
                yield points, rows, du, np.prod(epanechnikov(du / self.bandwidth), axis=-1)

    def weights(self, points, du, k) -> np.ndarray:
        """(d + 1, P, R): each row's weight in each local coefficient; row 0 is the intercept."""
        inverse = self.inverse[points].transpose(1, 0, 2)[..., None]  # (d + 1, P, d + 1, 1)
        terms = (inverse[:, :, j + 1] * du[..., j] for j in range(du.shape[-1]))
        return k * sum(terms, inverse[:, :, 0])

    def fit(self, w) -> np.ndarray:
        """(d + 1, G, ...): each kept point's local intercept and slopes of w (n, ...).

        w is in the caller's row order; each block gathers its own rows.
        """
        coef = np.zeros((self.u.shape[1] + 1, len(self.points), *np.shape(w)[1:]))
        for points, rows, du, k in self.blocks():
            coef[:, points] += self.weights(points, du, k) @ np.take(w, self.order[rows], axis=0)
        return coef


def local_linear_weights(z, grid, bandwidth: float):
    """Smoother weight matrix A (grid x n) with theta(grid) = A w, held dense.

    Returns (A, ok) where ok flags grid points whose kernel window supports a
    local line (`_LocalLinear`); rows with ok=False are zero. Only the
    `probe-npreg` request of bench/replay.py and the dense oracles of the
    tests call it; the smoother, the propensity and the planes take `fit`.
    """
    lines, ok = _LocalLinear.sort(z, bandwidth).at(grid)
    a = np.zeros((len(ok), len(lines.u)))
    for points, rows, du, k in lines.blocks():
        a[lines.index[points, None], lines.order[rows]] = lines.weights(points, du, k)[0]
    return a, ok


MIN_EFFECTIVE_OBS = 5  # rows with kernel weight that a control function's local plane needs
# why a method's fit leaves grid points out: the warning, the error, summary() and `ivcheck mte`
DROP_REASONS = {"local-linear": "empty kernel windows",
                "cell-means": "one-row cells or cells of one value",
                "control-function": f"fewer than {MIN_EFFECTIVE_OBS} rows with kernel weight "
                                    "or no plane by the determinant rule"}


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
    lines, ok = _LocalLinear.sort(z, bandwidth).at(grid)
    fit = lines.fit(w)  # each kept point's intercept and slope, per column of w
    # the influences: the intercept weights times the residuals of each point's own line
    cov = _influence_cov(((points, lines.weights(points, du, k)[0]
                           * (np.take(w, lines.order[rows], axis=0).T[:, None]
                              - fit[0, points].T[..., None]
                              - fit[1, points].T[..., None] * du[..., 0]))
                          for points, rows, du, k in lines.blocks()),
                         (), w.shape[1], len(lines.points))
    return Smoother(partial(_point_design, lines.points[:, 0]), fit[0], cov), ok


def cells(z, name="z"):
    """(values, cell, counts): the distinct values of z, each row's cell and each cell's rows.

    More than MAX_CELLS distinct values raise TooManyCells, naming z's column `name`.
    """
    values, cell, counts = np.unique(  # + 0.0 makes -0.0 0.0: one zero cell, of one sign
        np.asarray(z, dtype=float).ravel() + 0.0, return_inverse=True, return_counts=True
    )
    if len(values) > MAX_CELLS:
        raise TooManyCells(f"column {name!r} has {len(values)} distinct values, above the cap "
                           f"of {MAX_CELLS} for cell means")
    return values, cell, counts


def cell_means_smoother(z, w):
    """Within-cell means of each column of w (n, m), with ddof=1 standard errors.

    z is the conditioning column, grouped into its `cells`. Returns (smoother, ok)
    where ok flags the cells of `np.unique(z)` whose rows take at least two values
    in every column of w. A one-row cell, or one whose rows share a value of some
    column, has no within-cell variance: its s would be 0, or rounding, and decide
    a sup test alone. It is left out of the smoother. The rows are grouped by cell
    once; a cell's mean is the sum over its rows divided by its count, and its
    (m x m) block of the block-diagonal covariance is sum(r_a r_b) / (n_c (n_c - 1))
    of its residuals r, one block of `_influence_cov` per cell.
    """
    values, cell, counts = cells(z)
    # a float copy of w with each cell's rows together; numpy radix-sorts the
    # smallest unsigned type that holds a cell index, uint8 under MAX_CELLS
    order = np.argsort(cell.astype(np.min_scalar_type(len(values) - 1)), kind="stable")
    w = np.take(np.asarray(w, dtype=float), order, axis=0)
    m, starts = w.shape[1], np.cumsum(counts) - counts
    ok = np.all(np.maximum.reduceat(w, starts) > np.minimum.reduceat(w, starts), axis=1)
    coef = np.add.reduceat(w, starts) / counts[:, None]
    w -= np.repeat(coef, counts, axis=0)  # the residuals
    # (m, 1, n) influences: residuals over sqrt(n_c (n_c - 1)), or 1 in a left-out one-row cell
    psi = np.divide(w.T, np.repeat(np.sqrt(np.maximum(counts * (counts - 1.0), 1.0)), counts),
                    order="C")[:, None]
    cut = zip(starts[ok].tolist(), (starts + counts)[ok].tolist())
    cov = _influence_cov(((slice(j, j + 1), psi[..., lo:hi]) for j, (lo, hi) in enumerate(cut)),
                         (), m, int(ok.sum()))
    return Smoother(partial(_point_design, values[ok]), coef[ok], cov), ok


class CondMeanFit(NamedTuple):
    """Fitted conditional mean, evaluable pointwise with a standard error."""

    smoother_at: Callable  # v (G,) -> Smoother whose design covers v

    def evaluate(self, v):
        """Return (theta_hat, s) at scalar or vector v, from `Smoother.process` of the one slice."""
        v_arr = np.atleast_1d(np.asarray(v, dtype=float))
        (theta,), (s,), _ = self.smoother_at(v_arr).process(v_arr)
        if np.ndim(v) == 0:
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
    if len(z) < MIN_ROWS:
        raise InsufficientData(f"local linear regression needs n >= {MIN_ROWS}")
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
