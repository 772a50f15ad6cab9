"""Intersection-bounds sup test with precision correction and adaptive selection.

Each conditional moment is estimated on a grid by one of the linear smoothers
of `npreg`. Given the data, the estimate is Gaussian with the smoother's
coefficient covariance (Chernozhukov, Chetverikov and Kato 2013), so one
`_process` draws the standardized estimation process for every method. The
test then selects moments near the binding boundary and reports the
precision-corrected sup statistic (Chernozhukov, Lee and Rosen 2013) per
significance level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import npreg
from .npreg import ARRAY_BUDGET_BYTES
from .data import Dataset, RngSpec, _quantiles, conditioning_grid, distinct
from .errors import (
    ArrayTooLarge,
    DegenerateVariance,
    EmptyGrid,
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
VARIANCE_SERIES_ORDER = 2
# why a method leaves grid points out, for the warning, the error and summary()
DROP_REASONS = {"local-linear": "empty kernel windows",
                "cell-means": "one-row cells or cells of one value"}


@dataclass(frozen=True)
class TestConfig:
    alpha_levels: tuple = DEFAULT_ALPHAS
    grid_count: int = 100
    centile_lo: float = 0.01
    centile_hi: float = 0.99
    method: str = "series"  # one of METHODS
    series_order: int | None = None
    bandwidth: float | None = None
    mult_draws: int = 1000

    def __post_init__(self):
        if not all(0.0 < a < 1.0 for a in self.alpha_levels):
            raise IvcheckError(f"every alpha level must lie in (0, 1), got {self.alpha_levels}")
        if self.grid_count < 2:
            raise IvcheckError(f"grid count must be at least 2, got {self.grid_count}")
        if self.method not in METHODS:
            raise IvcheckError(f"method must be one of {', '.join(METHODS)}, got {self.method!r}")
        if not 0.0 <= self.centile_lo < self.centile_hi <= 1.0:
            raise IvcheckError("grid centiles must satisfy 0 <= lo < hi <= 1, "
                               f"got {self.centile_lo} and {self.centile_hi}")
        if self.series_order is not None and self.series_order < 1:
            raise IvcheckError(f"series order must be at least 1, got {self.series_order}")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise IvcheckError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.mult_draws < 200:
            raise SimulationBudgetTooSmall(f"need at least 200 multiplier draws, "
                                           f"got {self.mult_draws}")

    def with_level(self, alpha: float) -> TestConfig:
        """This config with `alpha` added to the computed levels if missing."""
        if alpha in self.alpha_levels:
            return self
        levels = tuple(sorted((*self.alpha_levels, alpha), reverse=True))
        return replace(self, alpha_levels=levels)


@dataclass(frozen=True)
class LevelResult:
    alpha: float
    k_crit: float
    k_crit_full: float
    theta_corrected: float
    reject: bool
    selected_set_size: int


@dataclass(frozen=True)
class TestReport:
    alpha_levels: tuple
    levels: dict  # alpha -> LevelResult
    grid: np.ndarray  # conditioning grid actually used
    theta: np.ndarray  # (n_moments, len(grid))
    s: np.ndarray
    moment_labels: tuple
    kappa: float
    gamma_n: float
    diagnostics: dict = field(default_factory=dict)

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
            lines.append(f"  dropped_grid_points = {dropped} ({DROP_REASONS[diag['method']]})")
        if diag.get("s_floored", 0) > 0:
            lines.append(f"  s_floored = {diag['s_floored']} (standard errors at the floor)")
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
        rows = []
        diag = self.diagnostics
        for alpha in self.alpha_levels:
            res = self.levels[alpha]
            rows.append(
                {
                    "alpha": alpha,
                    "k_crit": res.k_crit,
                    "k_crit_full": res.k_crit_full,
                    "theta_corrected": res.theta_corrected,
                    "reject": int(res.reject),
                    "selected_set_size": res.selected_set_size,
                    "kappa_n": self.kappa,
                    "gamma_n": self.gamma_n,
                    "grid_size": len(self.grid),
                    "n_moments": len(self.moment_labels),
                    "method": diag.get("method", ""),
                    "series_order": diag.get("series_order", ""),
                    "bandwidth": diag.get("bandwidth", ""),
                    "mult_draws": diag.get("mult_draws", ""),
                    "seed": diag.get("seed", ""),
                }
            )
        return rows


@dataclass(frozen=True)
class IdentifiedSet:
    theta_grid: tuple
    accepted: tuple
    alpha: float

    @property
    def empty(self) -> bool:
        return len(self.accepted) == 0


def _chol_psd(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor with a small diagonal jitter for nearly singular covariances."""
    jitter = max(np.trace(cov) / len(cov), 1.0) * 1e-12
    for _ in range(12):
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(len(cov)))
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise DegenerateVariance("coefficient covariance is not positive semidefinite")


def _process(smoother: npreg.Smoother, grid, rng, draws):
    """theta, s and standardized draws of the smoother's Gaussian process on the grid.

    Given the data, the estimate is linear in the moment values: with
    cov = chol chol' in coefficient space and L the design, the standardized
    draws are N(0, I) normals times the fixed map chol' L' / s, one product.
    """
    design = smoother.design(grid)  # (G, k)
    theta_base, s_base = smoother.evaluate_design(design)  # (n_base, G)
    n_base, k = theta_base.shape[0], design.shape[1]
    chol_t = _chol_psd(smoother.cov).T
    draw_map = (chol_t.reshape(n_base * k, n_base, k) @ design.T) / s_base
    zstar_base = rng.standard_normal((draws, n_base * k)) @ draw_map.reshape(n_base * k, -1)
    return theta_base, s_base, zstar_base.reshape(draws, n_base, -1)


def _signed_sup(z: np.ndarray, sign: float) -> np.ndarray:
    """Per-draw max over the columns of sign * z, for z of shape (draws, columns).

    Reducing first and scaling after is exact (rounding is monotone), so the
    signed copy of the draws is never built.
    """
    return sign * (z.max(axis=1) if sign > 0 else z.min(axis=1))


def _check_array_budget(cfg: TestConfig, ms: MomentSystem, n_grid: int, n_coef: int) -> None:
    """Raise ArrayTooLarge if one of run_test's largest arrays would exceed ARRAY_BUDGET_BYTES.

    Those are, in float64, the standardized draws (draws x base moments x grid
    points), the coefficient covariance and its Cholesky factor ((base moments
    x coefficients) squared) and the draw map of `_process` (base moments x
    coefficients by base moments x grid points). A local-linear smoother has
    one coefficient per grid point.
    """
    m = ms.base.shape[1]
    arrays = [
        (cfg.mult_draws * m * n_grid, "the draw tensor", "sim.multiplier_draws or grid.count"),
        ((m * n_coef) ** 2, "the coefficient covariance",
         "npreg.series_order" if cfg.method == "series" else "grid.count"),
        (m * n_coef * m * n_grid, "the draw map", "grid.count"),
    ]
    size, name, keys = max(arrays, key=lambda array: array[0])
    if 8 * size > ARRAY_BUDGET_BYTES:
        raise ArrayTooLarge(f"{name} would take {8 * size / 2**30:.3g} GiB, above the "
                            f"{ARRAY_BUDGET_BYTES / 2**30:.3g} GiB budget; lower {keys}")


def run_test(ms: MomentSystem, grid=None, cfg: TestConfig = TestConfig(),
             rng: RngSpec = RngSpec()) -> TestReport:
    """Precision-corrected sup test of H0: sup_v theta(v) <= 0: `decide` on `estimate`."""
    return decide(estimate(ms, grid, cfg, rng), ms.moments, cfg.alpha_levels)


@dataclass(frozen=True)
class Estimate:
    """The base moments on the grid and their standardized process: run_test's first stage."""
    grid: np.ndarray  # conditioning grid actually used
    theta: np.ndarray  # (n_base, len(grid))
    s: np.ndarray
    zstar: np.ndarray  # (draws, n_base, len(grid))
    n: int
    diagnostics: dict


def estimate(ms: MomentSystem, grid=None, cfg: TestConfig = TestConfig(),
             rng: RngSpec = RngSpec()) -> Estimate:
    """Fit the smoother of every base moment on the grid and draw its process.

    A series fit without `cfg.series_order` uses `npreg.default_series_order(n)`;
    the spec-dependent orders are set by `test_model`. Either is capped at the
    number of distinct conditioning values minus one. Local-linear grid points
    with empty kernel windows, and cell-means cells with one row or one value
    of a base moment, are dropped, with a warning, and counted in
    `diagnostics["dropped_grid_points"]`. A draw tensor or coefficient
    covariance above ARRAY_BUDGET_BYTES raises ArrayTooLarge before anything
    is allocated. A grid with a non-finite point, or a series grid without two
    distinct points, raises InvalidGrid.
    """
    c = ms.conditioning
    n = len(c)
    method = cfg.method
    diagnostics = {"method": method, "mult_draws": cfg.mult_draws, "n": n,
                   "seed": rng.seed, "stream": rng.stream,
                   "conditioning_column": ms.conditioning_column}
    gen = rng.generator()

    ok = None  # which grid points the smoother can estimate, if it can miss some
    if method == "cell-means":
        if grid is not None:
            raise IvcheckError("cell-means evaluates at the distinct conditioning values; "
                               "pass grid=None")
        # at most MAX_CELLS cells, so the smoother itself stays small
        smoother, ok = npreg.cell_means_smoother(c, ms.base)
        grid = distinct(c)
        _check_array_budget(cfg, ms, len(grid), len(grid))
    else:
        n_grid = n_coef = cfg.grid_count if grid is None else np.size(grid)
        if method == "series":
            order = npreg.capped_series_order(c, cfg.series_order)
            n_coef = order + 1
        _check_array_budget(cfg, ms, n_grid, n_coef)
        if grid is None:
            grid = conditioning_grid(c, cfg.centile_lo, cfg.centile_hi, cfg.grid_count)
        grid = np.asarray(grid, dtype=float)
        if grid.size == 0:
            raise EmptyGrid("conditioning grid is empty")
        if not np.isfinite(grid).all():
            raise InvalidGrid("conditioning grid has non-finite points "
                              f"{grid[~np.isfinite(grid)].tolist()}")
        if method == "series":
            if not grid.min() < grid.max():
                raise InvalidGrid("a series fit needs a conditioning grid of two distinct points")
            diagnostics["series_order"] = order
            smoother = npreg.series_smoother(c, ms.base, order, float(grid.min()), float(grid.max()))
        else:  # local-linear
            bandwidth = cfg.bandwidth
            if bandwidth is None:
                bandwidth = npreg.rule_of_thumb_bandwidth(c)
            diagnostics["bandwidth"] = bandwidth
            smoother, ok = npreg.local_linear_smoother(c, ms.base, grid, bandwidth)
    if ok is not None:
        grid = npreg.drop_grid_points(grid, ok, DROP_REASONS[method])
        diagnostics["dropped_grid_points"] = int((~ok).sum())
        if grid.size == 0:
            raise EmptyGrid(f"all grid points have {DROP_REASONS[method]}")
    theta_base, s_base, zstar_base = _process(smoother, grid, gen, cfg.mult_draws)

    floored = s_base <= npreg.S_FLOOR * (1.0 + np.abs(theta_base))
    if np.all(floored):
        raise DegenerateVariance("all standard errors at the numerical floor")
    diagnostics["s_floored"] = int(floored.sum())
    return Estimate(grid, theta_base, s_base, zstar_base, n, diagnostics)


def decide(est: Estimate, moments, alpha_levels) -> TestReport:
    """The sup test on an estimate: the signed moments, their sup, kappa, V_hat and k per level."""
    labels, bases, signs = zip(*moments)
    theta = np.array(signs)[:, None] * est.theta[list(bases)]
    s = est.s[list(bases)]

    per_moment = [_signed_sup(est.zstar[:, b, :], sign) for _, b, sign in moments]
    sups_full = np.maximum.reduce(per_moment)
    gamma_n = 1.0 - 0.1 / np.log(est.n) if est.n > 1 else 0.5
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
        theta_corr = float(np.max(theta - k * s))
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
) -> TestReport:
    """Estimate, build the moment system, and run the sup test.

    A series fit without `series_order` takes the spec's default: the coarse
    VARIANCE_SERIES_ORDER under homoskedasticity, `nonlinear_step_series_order`
    after a Box-Cox first step, else run_test's `default_series_order`.
    """
    fit = first_step_fit(ds, spec)
    ms = build_for_spec(fit, spec, ds)
    if cfg.method == "series" and cfg.series_order is None:
        if spec.homoskedastic:
            # the heavy tails of squared residuals make a rich series fit
            # too noisy to detect smooth variance deviations
            cfg = replace(cfg, series_order=VARIANCE_SERIES_ORDER)
        elif spec.form is ModelForm.BOXCOX:
            cfg = replace(cfg, series_order=npreg.nonlinear_step_series_order(ds.n))
    report = run_test(ms, None, cfg, rng)
    report.diagnostics["first_step"] = _fit_summary(fit)
    return report


def _fit_summary(fit):
    if hasattr(fit, "beta"):
        return {
            "method": fit.method.value,
            "beta": [float(v) for v in fit.beta],
            "sigma2_hat": fit.sigma2_hat,
            "first_stage_f": fit.first_stage_f,
        }
    return {
        "method": "boxcox-profile",
        "beta": [fit.beta0, fit.beta1],
        "lambda": fit.lam,
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
    """Grid search: keep the theta whose exogeneity moments Y - evaluator(X, theta) pass."""
    theta_grid = list(theta_grid)
    if not theta_grid:
        raise EmptyGrid("theta_grid is empty")
    cfg = cfg.with_level(alpha)
    accepted = []
    for i, theta in enumerate(theta_grid):
        ms = build_parametric_grid(ds, evaluator, theta, conditioning)
        report = run_test(ms, None, cfg, rng.substream(i))
        if not report.reject(alpha):
            accepted.append(theta)
    return IdentifiedSet(theta_grid=tuple(theta_grid), accepted=tuple(accepted), alpha=alpha)
