"""Nonparametric control-function estimation: propensity P(z, x) as the
first-stage rank, conditional potential-outcome surfaces, MTE and ASF.

Used as the fallback when the parametric specification test rejects.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .data import (
    MIN_ROWS,
    Dataset,
    _checked_replace,
    _quantiles,
    conditioning_grid,
    empirical_quantile,
)
from .errors import (InsufficientData, IvcheckError, MissingBounds, OffSupport, RankDeficient,
                     check_finite_scalars, check_outcome_bounds)
from .npreg import (
    MIN_EFFECTIVE_OBS,
    _LocalLinear,
    cells,
    drop_grid_points,
    rule_of_thumb_bandwidth,
)

PROPENSITY_METHODS = ("local-linear", "cell-means")
X_GRID_COUNT = 40  # regressor grid of the propensity surface
Z_GRID_COUNT = 50  # instrument grid of the local-linear propensity
FULL_SUPPORT_LO = 0.02
FULL_SUPPORT_HI = 0.98
P_GRID = np.round(np.arange(0.01, 1.0, 0.01), 10)  # 99 rank points of the ASF integral
UNIFORMITY_BINS = 4  # instrument bins of uniformity_diagnostic
V_GRID = np.round(np.arange(0.1, 1.0, 0.1), 10)  # ranks of condition1_diagnostic
Z_BINS = 10  # instrument bins of condition1_diagnostic


def pava_increasing(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators: closest nondecreasing sequence in least squares."""
    y = np.asarray(y, dtype=float)
    levels = list(y)
    weights = [1.0] * len(y)
    i = 0
    while i < len(levels) - 1:
        if levels[i] > levels[i + 1] + 0.0:
            pooled = (levels[i] * weights[i] + levels[i + 1] * weights[i + 1]) / (
                weights[i] + weights[i + 1]
            )
            weights[i] += weights[i + 1]
            levels[i] = pooled
            del levels[i + 1], weights[i + 1]
            i = max(i - 1, 0)
        else:
            i += 1
    return np.repeat(levels, [int(w) for w in weights])


def _quantile_bins(z: np.ndarray, bins: int):
    """(edges, cell): bins between sample quantiles of z, each [lo, hi) but the last [lo, hi]."""
    edges = np.array(_quantiles(z, np.linspace(0, 1, bins + 1)))
    return edges, np.clip(np.searchsorted(edges, z, side="right") - 1, 0, bins - 1)


def _bilinear(z_grid, x_grid, surface, z, x) -> np.ndarray:
    """Bilinear interpolation on a strictly increasing (z_grid, x_grid) mesh.

    Along x it repeats np.interp's arithmetic, ends held constant, for all
    points at once; along z the weight is clipped to [0, 1].
    """
    z = np.asarray(z, dtype=float)
    x = np.asarray(x, dtype=float)
    zi = np.clip(np.searchsorted(z_grid, z) - 1, 0, len(z_grid) - 2)
    xj = np.clip(np.searchsorted(x_grid, x, side="right") - 1, 0, len(x_grid) - 2)
    below, above = x < x_grid[0], x >= x_grid[-1]

    def along_x(row):
        lo, hi = surface[row, xj], surface[row, xj + 1]
        inner = (hi - lo) / (x_grid[xj + 1] - x_grid[xj]) * (x - x_grid[xj]) + lo
        return np.where(below, surface[row, 0], np.where(above, surface[row, -1], inner))

    t = np.clip((z - z_grid[zi]) / (z_grid[zi + 1] - z_grid[zi]), 0.0, 1.0)
    return np.clip((1 - t) * along_x(zi) + t * along_x(zi + 1), 0.0, 1.0)


class PropensityFit(NamedTuple):
    z_grid: np.ndarray
    x_grid: np.ndarray
    surface: np.ndarray  # (len(z_grid), len(x_grid)), isotone in x, clipped to [0,1]
    v_hat: np.ndarray
    monotonicity_report: dict  # z-grid value -> raw violation fraction before isotonization
    method: str
    dropped_grid_points: int = 0  # instrument grid points left out, for npreg.DROP_REASONS[method]

    def evaluate(self, z, x):
        """Bilinear interpolation of the surface, clamped to [0, 1]; scalars give a float."""
        out = _bilinear(self.z_grid, self.x_grid, self.surface, z, x)
        return float(out) if out.ndim == 0 else out

    def support_p_given_x(self, x):
        """[p_lo, p_hi]: range of the fitted propensity over the instrument grid."""
        col = self.evaluate(self.z_grid, np.full(len(self.z_grid), x))
        return float(col.min()), float(col.max())


def fit_propensity(ds: Dataset, method: str = "local-linear") -> PropensityFit:
    """Estimate P(z, x) = P(X <= x | Z = z) on a grid, clip and isotonize in x.

    `method` is one of PROPENSITY_METHODS. The local-linear fit uses the rule
    of thumb bandwidth and drops, with a warning, instrument grid points where
    it builds no local line; `dropped_grid_points` counts them. Raw
    monotonicity violations are recorded per z before the correction so the
    strict-monotonicity requirement stays checkable. Neither method holds an
    array of instrument grid points x rows. The local-linear surface is the
    local intercepts (`npreg._LocalLinear.fit`) of the (x <= x_grid) indicators,
    summed over the kernel windows of the rows sorted by z one block at a time.
    A cell's surface is the share of its rows with x at or below each x-grid
    point, counted in one pass.
    """
    if ds.k_x != 1 or ds.k_z != 1:
        raise IvcheckError("fit_propensity expects scalar x and z")
    x = ds.x[:, 0]
    z = ds.z[:, 0]
    if method not in PROPENSITY_METHODS:
        raise IvcheckError(f"propensity method must be one of {', '.join(PROPENSITY_METHODS)}, "
                           f"got {method!r}")
    if ds.n < MIN_ROWS:
        raise InsufficientData(f"the propensity needs n >= {MIN_ROWS} rows, got {ds.n}")
    x_grid = conditioning_grid(x, count=X_GRID_COUNT)
    dropped = 0
    if method == "cell-means":
        z_grid, cell, counts = cells(z, (ds.column_names.get("z") or ["z1"])[0])
        # x <= x_grid[j] exactly when the first grid point at or above x is j or before it,
        # so a cell's count at j sums its rows' first points up to j
        hits = np.bincount(cell * (len(x_grid) + 1) + np.searchsorted(x_grid, x),
                            minlength=len(z_grid) * (len(x_grid) + 1))
        surface = np.cumsum(hits.reshape(len(z_grid), -1)[:, :-1], axis=1) / counts[:, None]
    else:
        z_grid = conditioning_grid(z, count=Z_GRID_COUNT)
        lines, ok = _LocalLinear.sort(z, rule_of_thumb_bandwidth(z)).at(z_grid)
        z_grid, dropped = drop_grid_points(z_grid, ok, method)
        # the sorted grid is z_grid itself: the local intercepts of the (x <= x_grid) indicators
        surface = lines.fit(x[:, None] <= x_grid)[0]
    if len(z_grid) < 2:
        raise InsufficientData(
            f"propensity needs 2 or more instrument grid points with data, got {len(z_grid)}"
        )
    surface = np.clip(surface, 0.0, 1.0)
    mono = dict(zip(z_grid.tolist(), (np.diff(surface, axis=1) < 0).mean(axis=1).tolist()))
    # pooled means of values in [0, 1] stay in [0, 1]: rounding is monotone
    iso = np.array([pava_increasing(row) for row in surface])
    return PropensityFit(
        z_grid=z_grid,
        x_grid=x_grid,
        surface=iso,
        v_hat=_bilinear(z_grid, x_grid, iso, z, x),
        monotonicity_report=mono,
        method=method,
        dropped_grid_points=dropped,
    )


def ks_distance_uniform(u: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sample to U[0, 1]."""
    u = np.sort(np.clip(np.asarray(u, dtype=float), 0.0, 1.0))
    n = len(u)
    if n == 0:
        return 1.0
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - u), np.max(u - (grid - 1.0 / n))))


class UniformityReport(NamedTuple):
    overall: float
    by_bin: dict  # bin label -> KS distance within the instrument bin

    @property
    def worst_bin(self) -> float:
        return max(self.by_bin.values()) if self.by_bin else self.overall


def uniformity_diagnostic(pf: PropensityFit, z: np.ndarray | None = None) -> UniformityReport:
    """KS distance of v_hat to U[0, 1], overall and within UNIFORMITY_BINS instrument bins."""
    overall = ks_distance_uniform(pf.v_hat)
    by_bin = {}
    if z is not None:
        edges, cell = _quantile_bins(np.asarray(z, dtype=float).ravel(), UNIFORMITY_BINS)
        for b in range(UNIFORMITY_BINS):
            mask = cell == b
            if mask.sum() >= 10:
                label = f"z in [{edges[b]:.3g}, {edges[b + 1]:.3g}]"
                by_bin[label] = ks_distance_uniform(pf.v_hat[mask])
    return UniformityReport(overall=overall, by_bin=by_bin)


class _ControlFunctionFields(NamedTuple):
    x: np.ndarray
    v_hat: np.ndarray
    y: np.ndarray
    bandwidth_x: float
    bandwidth_p: float
    rows: _LocalLinear  # (x, v_hat), sorted on x


class ControlFunctionFit(_ControlFunctionFields):
    """Local planes of y in (x, v_hat). `rows` is built from the other five fields, once per
    fit: the constructor and `_replace` take those five, and build it again."""

    __slots__ = ()

    def __new__(cls, x, v_hat, y, bandwidth_x, bandwidth_p):
        rows = _LocalLinear.sort(np.column_stack([x, v_hat]), [bandwidth_x, bandwidth_p])
        return super().__new__(cls, x, v_hat, y, bandwidth_x, bandwidth_p, rows)

    def __getnewargs__(self):
        return self[:-1]

    _replace = _checked_replace

    def planes(self, x0: float, p0s, w: np.ndarray):
        """Local planes in (x, rank) of w, (n,) or (n, m), at (x0, p) for each p in p0s.

        values[i] is the plane's intercept at p0s[i], a float or a row of m.
        ok[i] is False, and values[i] NaN, where under MIN_EFFECTIVE_OBS rows
        carry weight or the plane fails the determinant rule of
        `npreg._LocalLinear`. Only the blocks of `rows` near x0 are visited.
        """
        points = np.column_stack([np.full(len(p0s), x0), p0s])
        planes, ok = self.rows.at(points, MIN_EFFECTIVE_OBS)
        values = np.full((len(p0s), *np.shape(w)[1:]), np.nan)
        values[planes.index] = planes.fit(w)[0]
        return values, ok

    def cond_mean(self, x0: float, p0: float) -> float:
        """E[Y | X = x0, first-stage rank = p0] by bivariate local linear regression."""
        values, ok = self.planes(x0, [p0], self.y)
        if not ok[0]:
            raise OffSupport(x0, p0)
        return float(values[0])


def fit_control_function(ds: Dataset, pf: PropensityFit) -> ControlFunctionFit:
    """Bivariate local-linear surfaces of Y on (X, v_hat).

    Each coordinate's bandwidth is the rule of thumb 1.06 sd n^(-1/6), the
    rank's sd floored at 0.05. A constant regressor raises RankDeficient, decided by
    its values, as its sd can be rounding rather than 0.
    """
    if len(pf.v_hat) != ds.n:
        raise InsufficientData("propensity fit does not match the dataset")
    x = ds.x[:, 0]
    if not x.min() < x.max():
        raise RankDeficient(f"regressor {(ds.column_names.get('x') or ['x1'])[0]!r} is "
                            "constant: the control function needs it to vary")
    n = ds.n
    return ControlFunctionFit(
        x=x,
        v_hat=pf.v_hat,
        y=ds.y,
        bandwidth_x=float(1.06 * np.std(x) * n ** (-1.0 / 6.0)),
        bandwidth_p=float(1.06 * max(np.std(pf.v_hat), 0.05) * n ** (-1.0 / 6.0)),
    )


def estimate_mte(cf: ControlFunctionFit, p: float, x: float, x_prime: float) -> float:
    """MTE(p; x, x') = cond_mean(x, p) - cond_mean(x', p); zero exactly at x = x'.

    A NaN or infinite p, x or x' raises DomainError.
    """
    check_finite_scalars(p=p, x=x, x_prime=x_prime)
    at_x = cf.cond_mean(x, p)
    return 0.0 if x == x_prime else at_x - cf.cond_mean(x_prime, p)


class AsfEstimate(NamedTuple):
    x: float
    value: float | None  # point estimate when the rank support is (conventionally) full
    interval: tuple | None  # (lower, upper) under partial support with outcome bounds
    support: tuple  # (p_lo, p_hi)
    dropped_points: int = 0  # support points left out, for npreg.DROP_REASONS["control-function"]

    @property
    def is_point(self) -> bool:
        return self.value is not None


def estimate_asf(
    cf: ControlFunctionFit,
    pf: PropensityFit,
    x: float,
    outcome_bounds: tuple | None = None,
) -> AsfEstimate:
    """Integrate cond_mean(x, .) over the first-stage rank, at the points of P_GRID.

    Full support (operationally p_lo <= 0.02 and p_hi >= 0.98) gives a point;
    otherwise the partial-identification interval needs outcome bounds and has
    width (Y_u - Y_l) (1 - p_hi + p_lo) exactly. Points of the support without
    a local plane are left out of the integral and counted in dropped_points.
    A NaN or infinite x, or outcome bounds that are not finite with lower <=
    upper, raise DomainError.
    """
    check_finite_scalars(x=x)
    check_outcome_bounds(outcome_bounds)
    p_lo, p_hi = pf.support_p_given_x(x)
    pts = P_GRID[(p_lo <= P_GRID) & (P_GRID <= p_hi)]
    means, ok = cf.planes(x, pts, cf.y)
    pts, means, dropped = pts[ok], means[ok], int((~ok).sum())
    if len(pts) < 2:
        raise OffSupport(x, (p_lo + p_hi) / 2.0)
    partial = float(np.trapezoid(means, pts))
    value = interval = None
    if p_lo <= FULL_SUPPORT_LO and p_hi >= FULL_SUPPORT_HI:
        # extend the trapezoid to [0, 1] with flat tails over the tiny gaps
        value = float(partial + means[0] * pts[0] + means[-1] * (1.0 - pts[-1]))
    elif outcome_bounds is None:
        raise MissingBounds(
            f"rank support [{p_lo:.3f}, {p_hi:.3f}] at x={x} is partial; supply outcome bounds"
        )
    else:
        gap = 1.0 - p_hi + p_lo
        interval = (partial + float(outcome_bounds[0]) * gap,
                    partial + float(outcome_bounds[1]) * gap)
    return AsfEstimate(x=x, value=value, interval=interval, support=(p_lo, p_hi),
                       dropped_points=dropped)


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / len(a)
    fb = np.searchsorted(b, pooled, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


class Condition1Report(NamedTuple):
    v_grid: np.ndarray
    coverage: dict  # v -> fraction of the x-range spanned by h_v over instrument bins
    injectivity_violations: int
    flagged_pairs: tuple  # (v, bin_i, bin_j, ks_distance)
    monotonicity_violations: float  # mean raw violation fraction from the propensity fit


def condition1_diagnostic(pf: PropensityFit, ds: Dataset) -> Condition1Report:
    """Surjectivity/injectivity diagnostics for the map z -> Q_{X|Z=z}(v).

    Evaluated at the ranks v of V_GRID over Z_BINS quantile bins of the
    instrument. When two instrument bins map to (numerically) the same x at a
    common rank, compares the outcome distributions of the two bins near that x.
    pf is the propensity fitted on ds, whose x grid spans the 1% to 99% centiles of x.
    """
    x = ds.x[:, 0]
    z = ds.z[:, 0]
    _, cell = _quantile_bins(z, Z_BINS)
    members = [cell == b for b in range(Z_BINS)]
    x_lo, x_hi = pf.x_grid[0], pf.x_grid[-1]
    spacing = (x_hi - x_lo) / max(len(pf.x_grid) - 1, 1)
    tol = 0.5 * spacing
    coverage = {}
    violations = 0
    flagged = []
    # h_v of every instrument bin (rows) at every rank of V_GRID (columns)
    quantiles = np.array([empirical_quantile(x[m], V_GRID) if m.sum() >= 5
                          else np.full(len(V_GRID), np.nan) for m in members])
    for v, h in zip(V_GRID, quantiles.T):
        valid = ~np.isnan(h)
        hv = h[valid]
        if len(hv) == 0:
            coverage[float(v)] = 0.0
            continue
        coverage[float(v)] = float(
            np.clip((hv.max() - hv.min()) / max(x_hi - x_lo, 1e-12), 0.0, 1.0)
        )
        idx = np.flatnonzero(valid)
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                if abs(h[idx[a]] - h[idx[b]]) < tol:
                    violations += 1
                    x0 = 0.5 * (h[idx[a]] + h[idx[b]])
                    near_a = members[idx[a]] & (np.abs(x - x0) <= tol)
                    near_b = members[idx[b]] & (np.abs(x - x0) <= tol)
                    if near_a.sum() >= 5 and near_b.sum() >= 5:
                        ks = ks_two_sample(ds.y[near_a], ds.y[near_b])
                        flagged.append((float(v), int(idx[a]), int(idx[b]), ks))
    mono = float(np.mean(list(pf.monotonicity_report.values()))) if pf.monotonicity_report else 0.0
    return Condition1Report(
        v_grid=V_GRID.copy(),
        coverage=coverage,
        injectivity_violations=violations,
        flagged_pairs=tuple(flagged),
        monotonicity_violations=mono,
    )
