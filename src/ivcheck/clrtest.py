"""Intersection-bounds sup test with precision correction and adaptive selection.

Each conditional moment is estimated on a grid by one of the linear smoothers
of `npreg`. Given the data, the estimate is Gaussian with the smoother's
coefficient covariance (Chernozhukov, Chetverikov and Kato 2013), so one
`npreg.Smoother.process` maps every method's smoother to theta, s and the draw
map of its standardized estimation process. Each part of a system is sized
against the array budget just before it is fitted. The test then selects
moments near the binding boundary and reports the precision-corrected sup
statistic (Chernozhukov, Lee and Rosen 2013) per significance level.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from . import npreg
from .data import (
    MIN_ROWS,
    Dataset,
    RngSpec,
    _checked_replace,
    _quantiles,
    check_finite,
    conditioning_grid,
)
from .errors import (
    ArrayTooLarge,
    EmptyGrid,
    InsufficientData,
    InvalidGrid,
    IvcheckError,
    SimulationBudgetTooSmall,
)
from .estimators import fit_boxcox, fit_iv, fit_ols
from .moments import (
    Conditioning,
    ModelForm,
    ModelSpec,
    MomentSystem,
    build_for_spec,
    build_parametric_grid,
)

DEFAULT_ALPHAS = (0.10, 0.05, 0.01)
METHODS = ("series", "local-linear", "cell-means")
# run_test refuses arrays above this many bytes before it allocates them,
# rather than fail in numpy's allocator
ARRAY_BUDGET_BYTES = 2**32
VARIANCE_SERIES_ORDER = 2


class _TestConfigFields(NamedTuple):
    alpha_levels: tuple = DEFAULT_ALPHAS
    grid_count: int = 100
    method: str = "series"  # one of METHODS
    series_order: int | None = None
    bandwidth: float | None = None
    mult_draws: int = 1000


class TestConfig(_TestConfigFields):
    """The sup test's settings, checked when made and when `_replace`d."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.alpha_levels or not all(0.0 < a < 1.0 for a in self.alpha_levels):
            raise IvcheckError("alpha levels must be one or more values in (0, 1), "
                               f"got {self.alpha_levels}")
        if self.grid_count < 2:
            raise IvcheckError(f"grid count must be at least 2, got {self.grid_count}")
        if self.method not in METHODS:
            raise IvcheckError(f"method must be one of {', '.join(METHODS)}, got {self.method!r}")
        if self.series_order is not None and self.series_order < 1:
            raise IvcheckError(f"series order must be at least 1, got {self.series_order}")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise IvcheckError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.mult_draws < 200:
            raise SimulationBudgetTooSmall(f"need at least 200 multiplier draws, "
                                           f"got {self.mult_draws}")
        return self

    _replace = _checked_replace

    def with_level(self, alpha: float) -> TestConfig:
        """This config with `alpha` added to the computed levels if missing."""
        if alpha in self.alpha_levels:
            return self
        levels = tuple(sorted((*self.alpha_levels, alpha), reverse=True))
        return self._replace(alpha_levels=levels)


class LevelResult(NamedTuple):
    alpha: float
    k_crit: float
    k_crit_full: float
    theta_corrected: float
    reject: bool
    selected_set_size: int


class TestReport(NamedTuple):
    alpha_levels: tuple
    levels: dict  # alpha -> LevelResult
    grid: np.ndarray  # conditioning grid actually used
    theta: np.ndarray  # (n_moments, len(grid))
    s: np.ndarray
    moment_labels: tuple
    kappa: float
    gamma_n: float
    diagnostics: dict

    def reject(self, alpha: float) -> bool:
        return self.levels[alpha].reject

    def theta_corrected(self, alpha: float) -> float:
        return self.levels[alpha].theta_corrected

    def summary(self) -> str:
        lines = []
        diag = self.diagnostics
        lines.append(
            f"Intersection-bounds test on {len(self.grid)} grid points x "
            f"{len(self.moment_labels)} moments ({diag.get('method', '?')})"
        )
        for key in ("conditioning_column", "series_order", "bandwidth", "mult_draws", "seed", "n"):
            if key in diag:
                lines.append(f"  {key} = {diag[key]}")
        dropped = diag.get("dropped_grid_points", 0)
        if dropped > 0:
            lines.append(f"  dropped_grid_points = {dropped} ({npreg.DROP_REASONS[diag['method']]})")
        if diag.get("s_rounding", 0) > 0:
            lines.append(f"  s_rounding = {diag['s_rounding']} "
                         "(standard errors within rounding of 0)")
        lines.append(f"  adaptive selection: gamma_n = {self.gamma_n:.6f}, kappa_n = {self.kappa:.4f}")
        for alpha in self.alpha_levels:
            res = self.levels[alpha]
            verdict = "REJECT H0" if res.reject else "fail to reject H0"
            lines.append(
                f"  alpha = {alpha:5.2%}:  theta_corrected = {res.theta_corrected:+.6f}  "
                f"k = {res.k_crit:.4f}  |V_hat| = {res.selected_set_size}  -> {verdict}"
            )
        return "\n".join(lines)

    def to_rows(self):
        """Flat rows (dicts) describing every level result, for CSV output."""
        shared = {"kappa_n": self.kappa, "gamma_n": self.gamma_n, "grid_size": len(self.grid),
                  "n_moments": len(self.moment_labels),
                  **{key: self.diagnostics.get(key, "")
                     for key in ("method", "series_order", "bandwidth", "mult_draws", "seed")}}
        return [{**level._asdict(), "reject": int(level.reject), **shared}
                for level in map(self.levels.get, self.alpha_levels)]


class IdentifiedSet(NamedTuple):
    theta_grid: tuple
    accepted: tuple
    alpha: float

    @property
    def empty(self) -> bool:
        return len(self.accepted) == 0


def _signed_sup(z: np.ndarray, sign: float) -> np.ndarray:
    """Per-draw max over the columns of sign * z, for z of shape (draws, columns).

    Reducing first and scaling after is exact (rounding is monotone), so the
    signed copy of the draws is never built. Adding 0.0 turns a -0.0 sup, as of
    draws that are all 0, into 0.0 and leaves every other value as it is.
    """
    return sign * (z.max(axis=1) if sign > 0 else z.min(axis=1)) + 0.0


def _check_array_budget(cfg: TestConfig, base, n_grid: int, order) -> None:
    """Raise ArrayTooLarge if one of the largest arrays of the part about to be fitted, its
    moment values base (..., n, m) on n_grid points, would exceed ARRAY_BUDGET_BYTES.

    Those are, in float64, per slice the coefficient covariance and its root
    ((base moments x coefficients) squared), the draw map of `npreg.Smoother.process`
    (base moments x coefficients by base moments x grid points) and, for series (`order`
    set), the influences of `npreg.series_smoother` (base moments x coefficients x rows);
    and once, as each slice's draws are freed before the next's, the standardized draws
    (draws x base moments x grid points). Local-linear and cell means have one coefficient
    per grid point: the hint names what sizes the array, and fewer slices for a stack.
    """
    (n, m), slices = base.shape[-2:], int(np.prod(base.shape[:-2]))
    n_coef = n_grid if order is None else order + 1
    draw_keys, cov_keys, map_keys = {
        "series": ("sim.multiplier_draws or grid.count", "npreg.series_order", "grid.count"),
        "local-linear": ("sim.multiplier_draws or grid.count", "grid.count", "grid.count"),
        "cell-means": ("sim.multiplier_draws", "the base moments", "the base moments"),
    }[cfg.method]
    per_slice = [((m * n_coef) ** 2, "the coefficient covariance", cov_keys),
                 (m * n_coef * m * n_grid, "the draw map", map_keys)]
    if order is not None:
        per_slice.append((m * n_coef * n, "the series influences", "npreg.series_order"))
    stack = f", or pass fewer than {slices} slices" if slices > 1 else ""
    arrays = [(cfg.mult_draws * m * n_grid, "the draw tensor", draw_keys),
              *((slices * size, name, keys + stack) for size, name, keys in per_slice)]
    size, name, keys = max(arrays, key=lambda array: array[0])
    if 8 * size > ARRAY_BUDGET_BYTES:
        raise ArrayTooLarge(f"{name} would take {8 * size / 2**30:.3g} GiB, above the "
                            f"{ARRAY_BUDGET_BYTES / 2**30:.3g} GiB budget; lower {keys}")


def run_test(ms: MomentSystem, grid=None, cfg: TestConfig = TestConfig(),
             rng: RngSpec = RngSpec()) -> TestReport | list[TestReport]:
    """Precision-corrected sup test of H0: sup_v theta(v) <= 0: `decide` on `estimate`.

    A stacked moment system takes one RngSpec per slice and gives one report
    per slice, in a list, each equal to the slice's own run_test bit for bit.
    Each slice's draws are made, decided and freed before the next slice's.
    """
    # map, unlike a loop variable, lets go of each estimate before the next one is drawn
    tail = partial(decide, moments=ms.moments, alpha_levels=cfg.alpha_levels)
    reports = list(map(tail, _estimates(ms, grid, cfg, rng)))
    return reports if ms.base.ndim == 3 else reports[0]


class Estimate(NamedTuple):
    """The base moments on the grid and their standardized process: run_test's first stage."""
    grid: np.ndarray  # conditioning grid actually used
    theta: np.ndarray  # (n_base, len(grid))
    s: np.ndarray
    zstar: np.ndarray  # (draws, n_base, len(grid))
    n: int
    diagnostics: dict


def estimate(ms: MomentSystem, grid=None, cfg: TestConfig = TestConfig(),
             rng: RngSpec = RngSpec()) -> Estimate:
    """Fit the smoother of every base moment of one system on the grid and draw its process.

    A series fit without `cfg.series_order` uses `npreg.default_series_order(n)`;
    the spec-dependent orders are set by `test_model`. Either is capped at the
    number of distinct conditioning values minus one. Grid points that the
    local-linear or cell-means smoother cannot estimate are dropped, with the
    warning of `npreg.drop_grid_points`, and counted in
    `diagnostics["dropped_grid_points"]`. The (base moment, grid point) pairs whose s
    is at most n eps times the RMS of the base column, zero up to rounding, are
    counted in `diagnostics["s_rounding"]`; their draws are 0 where s is 0. An array of
    `_check_array_budget` above ARRAY_BUDGET_BYTES raises ArrayTooLarge before the
    smoother is fitted. A NaN or inf among the conditioning or moment values raises
    NonFiniteValue, an empty grid EmptyGrid, a grid with a non-finite point,
    or a series grid without two distinct points, InvalidGrid, and fewer than
    `data.MIN_ROWS` rows InsufficientData.
    """
    (est,) = _estimates(ms, grid, cfg, rng)
    return est


def _estimates(ms: MomentSystem, grid, cfg: TestConfig, rng):
    """`estimate` of each slice of a stacked moment system, in order; one system is a stack of one.

    A stacked system (base (R, n, m), conditioning (R, n)) takes a sequence of one
    RngSpec per slice, and one system one RngSpec; anything else raises IvcheckError.
    Each slice's grid and series order are set first: the grid
    passed in, checked here, else `conditioning_grid` for series and local-linear and
    the distinct values of `npreg.cells` for cell means, so that more than
    `npreg.MAX_CELLS` of them in any slice raise TooManyCells before any part is fitted.
    Every smoother takes the slice's conditioning column, and its fit is read through
    `npreg.Smoother.process`. The stack is then fitted part by part
    (`_fit_part`): whole when the method is series and its slices share the
    series order and the grid size, so that the least squares, the influence
    covariance, the grid design and the draw map run once on the stack, one
    system as a stack of one; else one slice at a time, as local-linear and cell means, whose
    windows differ per slice, always go. Either way each slice equals its own
    `estimate` bit for bit. This is a generator: a part is checked against
    the array budget and fitted, and a slice's draws are made, when it is
    reached.
    """
    check_finite(ms.conditioning.shape, conditioning=ms.conditioning, base=ms.base)
    if ms.conditioning.shape[-1] < MIN_ROWS:
        raise InsufficientData(f"the sup test needs n >= {MIN_ROWS} rows, "
                               f"got {ms.conditioning.shape[-1]}")
    stacked, got = ms.conditioning.ndim == 2, rng
    if not stacked:
        ms = ms._replace(base=ms.base[None], conditioning=ms.conditioning[None])
    c, method, rng = ms.conditioning, cfg.method, list(rng) if stacked else [rng]
    if len(rng) != len(c) or not all(isinstance(r, RngSpec) for r in rng):
        raise IvcheckError((f"a stack of {len(c)} slices takes a sequence of {len(c)} RngSpecs"
                            if stacked else "one system takes one RngSpec") + f", got {got!r}")
    orders = [npreg.capped_series_order(ci, cfg.series_order) if method == "series" else None
              for ci in c]
    if grid is not None:
        if method == "cell-means":
            raise IvcheckError("cell-means evaluates at the distinct conditioning values; "
                               "pass grid=None")
        grid = np.asarray(grid, dtype=float).ravel()
        if grid.size == 0:
            raise EmptyGrid("conditioning grid is empty")
        if not np.isfinite(grid).all():
            raise InvalidGrid("conditioning grid has non-finite points "
                              f"{grid[~np.isfinite(grid)].tolist()}")
        if method == "series" and not grid.min() < grid.max():
            raise InvalidGrid("a series fit needs a conditioning grid of two distinct points")
        grids = [grid] * len(c)
    elif method == "cell-means":
        grids = [npreg.cells(ci, ms.conditioning_column)[0] for ci in c]
    else:
        # a grid.count too large for one slice is refused before its points are built
        _check_array_budget(cfg, ms.base[0], cfg.grid_count, orders[0])
        grids = [conditioning_grid(ci, count=cfg.grid_count) for ci in c]
    if method == "series" and len({*orders}) == len({len(g) for g in grids}) == 1:
        parts = [(slice(None), np.stack(grids), orders[0], rng)]
    else:
        parts = [(i, grids[i], orders[i], [r]) for i, r in enumerate(rng)]
    for part in parts:
        yield from _fit_part(ms, cfg, *part)


def _fit_part(ms: MomentSystem, cfg: TestConfig, part, grid, order, rngs):
    """The estimates of one part of a stacked system: slice `part`, or the whole stack
    (part = slice(None)) of a series fit of one order on the grids (R, G)."""
    c, base, method = ms.conditioning[part], ms.base[part], cfg.method
    _check_array_budget(cfg, base, grid.shape[-1], order)
    smoothing = {}  # the smoother's entries of the diagnostics
    ok = None  # which grid points the smoother can estimate, if it can miss some
    if method == "series":
        smoothing["series_order"] = order
        smoother = npreg.series_smoother(c, base, order, grid.min(axis=-1), grid.max(axis=-1))
    elif method == "local-linear":  # one slice
        smoothing["bandwidth"] = cfg.bandwidth or npreg.rule_of_thumb_bandwidth(c)
        smoother, ok = npreg.local_linear_smoother(c, base, grid, smoothing["bandwidth"])
    else:
        smoother, ok = npreg.cell_means_smoother(c, base)
    if ok is not None:
        grid, smoothing["dropped_grid_points"] = npreg.drop_grid_points(grid, ok, method)
        if grid.size == 0:
            raise EmptyGrid(f"all grid points have {npreg.DROP_REASONS[method]}")
    theta, s, draw_map = smoother.process(grid)
    grid = grid.reshape(-1, grid.shape[-1])
    # the s within rounding of 0, against n eps times the RMS of its base column in its slice
    rms = np.sqrt(np.mean(np.square(base), axis=-2)).reshape(len(s), -1, 1)
    rounding = (s <= c.shape[-1] * np.finfo(float).eps * rms).sum(axis=(1, 2))
    for i, r in enumerate(rngs):
        diag = {"method": method, "mult_draws": cfg.mult_draws, "n": c.shape[-1], "seed": r.seed,
                "stream": r.stream, "conditioning_column": ms.conditioning_column, **smoothing,
                "s_rounding": int(rounding[i])}
        # the slice's draws, made in this statement so that no local name holds them: they
        # go with the estimate once it is decided, before the next slice's are made
        yield Estimate(grid[i], theta[i], s[i],
                       (r.generator().standard_normal((cfg.mult_draws, draw_map.shape[1]))
                        @ draw_map[i]).reshape(cfg.mult_draws, len(s[i]), -1), c.shape[-1], diag)


def decide(est: Estimate, moments, alpha_levels) -> TestReport:
    """The sup test on an estimate: the signed moments, their sup, kappa, V_hat and k per level."""
    labels, bases, signs = zip(*moments)
    theta = np.array(signs)[:, None] * est.theta[list(bases)]
    s = est.s[list(bases)]

    per_moment = [_signed_sup(est.zstar[:, b, :], sign) for _, b, sign in moments]
    sups_full = np.maximum.reduce(per_moment)
    gamma_n = 1.0 - 0.1 / np.log(est.n)
    upper = [1.0 - alpha for alpha in alpha_levels]
    kappa, *k_full = _quantiles(sups_full, [gamma_n, *upper])
    # plug-in estimate of the kappa-close-to-binding set: keep inequalities
    # whose estimate is within kappa standard errors of the largest one
    selected = theta >= float(theta.max()) - kappa * s
    parts = []
    for (_, b, sign), keep, full in zip(moments, selected, per_moment):
        if keep.all():
            parts.append(full)
        elif keep.any():
            parts.append(_signed_sup(est.zstar[:, b, keep], sign))
    k_sel = _quantiles(np.maximum.reduce(parts), upper)

    levels = {}
    for alpha, k, k_f in zip(alpha_levels, k_sel, k_full):
        theta_corr = float(np.max(theta - k * s)) + 0.0  # 0.0, not -0.0, on a zero slice
        levels[alpha] = LevelResult(
            alpha=alpha,
            k_crit=k,
            k_crit_full=k_f,
            theta_corrected=theta_corr,
            reject=bool(theta_corr > 0.0),
            selected_set_size=int(selected.sum()),
        )
    return TestReport(
        alpha_levels=tuple(alpha_levels),
        levels=levels,
        grid=est.grid,
        theta=theta,
        s=s,
        moment_labels=labels,
        kappa=kappa,
        gamma_n=gamma_n,
        diagnostics=dict(est.diagnostics),
    )


def first_step_fit(ds: Dataset, spec: ModelSpec):
    """Fit the parametric first step implied by the model spec."""
    if spec.form is ModelForm.LINEAR:
        if spec.conditioning is Conditioning.ON_Z:
            return fit_iv(ds)
        return fit_ols(ds)
    return fit_boxcox(ds, use_iv=spec.conditioning is Conditioning.ON_Z)


def test_model(
    ds: Dataset,
    spec: ModelSpec,
    cfg: TestConfig = TestConfig(),
    rng: RngSpec = RngSpec(),
) -> TestReport | list[TestReport]:
    """Estimate, build the moment system, and run the sup test.

    A series fit without `series_order` takes the spec's default: the coarse
    VARIANCE_SERIES_ORDER under homoskedasticity, `nonlinear_step_series_order`
    after a Box-Cox first step, else run_test's `default_series_order`. A
    stacked Dataset takes one RngSpec per slice and gives a list of reports,
    each equal to the slice's own test_model bit for bit.
    """
    fit = first_step_fit(ds, spec)
    ms = build_for_spec(fit, spec, ds)
    if cfg.method == "series" and cfg.series_order is None:
        if spec.homoskedastic:
            # the heavy tails of squared residuals make a rich series fit
            # too noisy to detect smooth variance deviations
            cfg = cfg._replace(series_order=VARIANCE_SERIES_ORDER)
        elif spec.form is ModelForm.BOXCOX:
            cfg = cfg._replace(series_order=npreg.nonlinear_step_series_order(ds.n))
    report = run_test(ms, None, cfg, rng)
    for i, one in [((), report)] if ds.y.ndim == 1 else enumerate(report):
        one.diagnostics["first_step"] = _fit_summary(fit, i)
    return report


def _fit_summary(fit, i=()):
    """The first step's numbers: of slice i of a stacked fit, or with i = () of an unstacked one."""
    if hasattr(fit, "beta"):
        f = fit.first_stage_f
        return {
            "method": fit.method.value,
            "beta": [float(v) for v in fit.beta[i]],
            "sigma2_hat": float(np.asarray(fit.sigma2_hat)[i]),
            "first_stage_f": None if f is None else float(np.asarray(f)[i]),
        }
    return {
        "method": "boxcox-profile",
        "beta": [float(np.asarray(fit.beta0)[i]), float(np.asarray(fit.beta1)[i])],
        "lambda": float(np.asarray(fit.lam)[i]),
    }


def identified_set(
    ds: Dataset,
    evaluator,
    theta_grid,
    alpha: float = 0.05,
    cfg: TestConfig = TestConfig(),
    rng: RngSpec = RngSpec(),
    conditioning: Conditioning = Conditioning.ON_Z,
) -> IdentifiedSet:
    """Grid search: keep the theta whose exogeneity moments Y - evaluator(X, theta) pass.

    An empty theta_grid raises EmptyGrid, and one with a NaN or infinite theta InvalidGrid.
    """
    theta_grid = list(theta_grid)
    if not theta_grid:
        raise EmptyGrid("theta_grid is empty")
    bad = [theta for theta in theta_grid if not np.isfinite(theta).all()]
    if bad:
        raise InvalidGrid(f"theta_grid has {len(bad)} non-finite points, the first {bad[0]}")
    cfg = cfg.with_level(alpha)
    accepted = []
    for i, theta in enumerate(theta_grid):
        ms = build_parametric_grid(ds, evaluator, theta, conditioning)
        report = run_test(ms, None, cfg, rng.substream(i))
        if not report.reject(alpha):
            accepted.append(theta)
    return IdentifiedSet(theta_grid=tuple(theta_grid), accepted=tuple(accepted), alpha=alpha)
