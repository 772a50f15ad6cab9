import ctypes
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from ivcheck import clrtest, npreg
from ivcheck.clrtest import TestConfig as Cfg
from ivcheck.clrtest import decide, estimate, first_step_fit, identified_set, run_test
from ivcheck.clrtest import test_model as model_test
from ivcheck.data import Dataset, RngSpec
from ivcheck.errors import (
    ArrayTooLarge,
    DegenerateSupport,
    EmptyGrid,
    InsufficientData,
    InvalidGrid,
    IvcheckError,
    NonFiniteValue,
    SimulationBudgetTooSmall,
    TooManyCells,
)
from ivcheck.estimators import fit_iv
from ivcheck.mte import fit_propensity
from ivcheck.npreg import (
    default_series_order,
    fit_cell_means,
    fit_local_linear,
    fit_series,
    nonlinear_step_series_order,
)
from ivcheck.moments import (
    Conditioning,
    ModelForm,
    ModelSpec,
    MomentSystem,
    _paired,
)


def _one_sided(w, cond):
    return MomentSystem(base=np.asarray(w, dtype=float)[:, None],
                        moments=(("w+", 0, 1.0),),
                        conditioning=np.asarray(cond, dtype=float))
from ivcheck.simulate import DgpFamily, DgpSpec, _openblas_setter, generate, model_spec_for

IV_SPEC = ModelSpec(form=ModelForm.LINEAR, conditioning=Conditioning.ON_Z)


def _report_invariants(report):
    alphas = sorted(report.alpha_levels, reverse=True)  # e.g. 0.10, 0.05, 0.01
    prev_k, prev_theta, prev_reject = -np.inf, np.inf, True
    for a in alphas:
        lv = report.levels[a]
        assert lv.reject == (lv.theta_corrected > 0.0)
        assert lv.k_crit <= lv.k_crit_full + 1e-12
        # alpha decreasing: k grows, corrected estimate falls, rejection monotone
        assert lv.k_crit >= prev_k - 1e-12
        assert lv.theta_corrected <= prev_theta + 1e-12
        if lv.reject:
            assert prev_reject
        prev_k, prev_theta, prev_reject = lv.k_crit, lv.theta_corrected, lv.reject


def test_interior_null_never_rejects():
    g = np.random.default_rng(0)
    n = 2000
    z = g.uniform(-1, 1, n)
    w = -1.0 + 0.1 * g.standard_normal(n)
    ms = _one_sided(w, z)
    report = run_test(ms, None, Cfg(), RngSpec(seed=1))
    for a in report.alpha_levels:
        assert not report.levels[a].reject
    _report_invariants(report)


def test_two_cell_max_gaussian_critical_value():
    g = np.random.default_rng(1)
    n = 4000
    z = np.repeat([0.0, 1.0], n // 2)
    w = g.standard_normal(n)
    ms = _one_sided(w, z)
    report = run_test(ms, None, Cfg(method="cell-means", mult_draws=4000),
                      RngSpec(seed=2))
    # analytic 95% quantile of the max of two independent standard normals:
    # solve Phi(q)^2 = 0.95
    q = stats.norm.ppf(np.sqrt(0.95))
    assert abs(report.levels[0.05].k_crit_full - q) < 0.05


def test_size_linear_iv_null_moderate():
    rejections = 0
    base = RngSpec(seed=3)
    for rep in range(60):
        ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=3000), base.substream(rep))
        report = model_test(ds, IV_SPEC, Cfg(), base.substream(rep).substream(7919))
        rejections += report.levels[0.05].reject
    assert rejections <= 10  # ~5% nominal; generous 60-rep bound


def test_report_invariants_on_null_and_power():
    for fam, kw in ((DgpFamily.LINEAR_IV_NULL, {}),
                    (DgpFamily.LINEAR_IV_POWER, {"L": 1.0, "sigma": 0.25})):
        sp = DgpSpec(family=fam, n=1000, **kw)
        ds = generate(sp, RngSpec(seed=4))
        report = model_test(ds, model_spec_for(sp), Cfg(), RngSpec(seed=5))
        _report_invariants(report)


def test_power_dgp_rejects():
    sp = DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=1000, L=1.0, sigma=0.25)
    rejections = 0
    base = RngSpec(seed=6)
    for rep in range(20):
        ds = generate(sp, base.substream(rep))
        report = model_test(ds, IV_SPEC, Cfg(), base.substream(rep).substream(7919))
        rejections += report.levels[0.05].reject
    assert rejections >= 19


def test_binary_z_never_rejects():
    g = np.random.default_rng(7)
    n = 500
    z = g.integers(0, 2, n).astype(float)
    x = z + g.standard_normal(n)
    y = 2.0 * x + g.standard_normal(n)
    ds = Dataset(y=y, x=x, z=z)
    report = model_test(ds, IV_SPEC, Cfg(method="cell-means"), RngSpec(seed=8))
    assert np.max(np.abs(report.theta)) < 1e-10
    for a in report.alpha_levels:
        assert not report.levels[a].reject


def test_decision_invariant_under_affine_y():
    sp = DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=800, L=0.5, sigma=0.5)
    ds = generate(sp, RngSpec(seed=9))
    r1 = model_test(ds, IV_SPEC, Cfg(), RngSpec(seed=10))
    ds2 = Dataset(y=4.0 * ds.y + 7.0, x=ds.x, z=ds.z)
    r2 = model_test(ds2, IV_SPEC, Cfg(), RngSpec(seed=10))
    for a in r1.alpha_levels:
        assert r1.levels[a].reject == r2.levels[a].reject
        assert abs(r1.levels[a].k_crit - r2.levels[a].k_crit) < 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(100, 500),
    family=st.sampled_from([DgpFamily.LINEAR_IV_NULL, DgpFamily.LINEAR_IV_POWER,
                            DgpFamily.HETERO_POWER]),
    method=st.sampled_from(clrtest.METHODS),
    log_a=st.floats(-6.0, 6.0),
    shift=st.floats(-1e3, 1e3),
)
# kappa moved by 1.1e-9 relative: 100 local lines from 100 rows
@example(seed=87, n=100, family=DgpFamily.LINEAR_IV_POWER, method="local-linear", log_a=0.0,
         shift=1.0)
def test_decisions_invariant_under_affine_maps_of_y(seed, n, family, method, log_a, shift):
    """The exogeneity test of a y + b, a in [1e-6, 1e6] and b = a shift: the decision and
    |V_hat| of y at every level, and kappa within 1e-9 relative. The IV residuals are a times
    those of y up to rounding, so theta and s are too, and the standardized draws are the
    same. An example within 1e-8 of the scale max |theta| + k_full max s of a decision or
    of the selection boundary is skipped, as rounding may cross it. z is rounded to seven
    values for cell means.

    Local-linear kappa gets 1e-7: at n = 100 its 100 local lines have a rank-deficient
    correlation matrix, whose eigenvalues at rounding level (about eps) enter the root as
    their square roots (about 1e-8), so a last-bit change of the residuals moved kappa by up
    to 4.4e-9 relative in two sweeps of 4000 examples, where series moved it by at most
    4.6e-10 and cell means by 0."""
    ds = generate(DgpSpec(family=family, n=n), RngSpec(seed=seed))
    if method == "cell-means":
        ds = ds._replace(z=np.round(3 * ds.z / np.abs(ds.z).max()))
    a = 10.0**log_a
    cfg = Cfg(method=method, mult_draws=300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # grid points dropped alike for y and a y + b
        unit = model_test(ds, IV_SPEC, cfg, RngSpec(seed=seed))
        mapped = model_test(ds._replace(y=a * ds.y + a * shift), IV_SPEC, cfg,
                            RngSpec(seed=seed))
    levels = [unit.levels[alpha] for alpha in unit.alpha_levels]
    scale = np.abs(unit.theta).max() + max(lv.k_crit_full for lv in levels) * unit.s.max()
    boundary = unit.theta.max() - unit.kappa * unit.s
    assume(min(abs(lv.theta_corrected) for lv in levels) > 1e-8 * scale)
    assume(np.abs(unit.theta - boundary).min() > 1e-8 * scale)
    rel = 1e-7 if method == "local-linear" else 1e-9
    assert mapped.kappa == pytest.approx(unit.kappa, rel=rel, abs=0)
    for alpha, lv in zip(unit.alpha_levels, levels):
        assert mapped.reject(alpha) == lv.reject
        assert mapped.levels[alpha].selected_set_size == lv.selected_set_size


def test_simulation_budget_guard():
    g = np.random.default_rng(11)
    ms = _one_sided(g.standard_normal(100), g.uniform(-1, 1, 100))
    with pytest.raises(SimulationBudgetTooSmall):
        run_test(ms, None, Cfg(mult_draws=50), RngSpec(seed=12))


@pytest.mark.parametrize("cfg, size, keys", [
    # draws x base moments x grid points
    (Cfg(grid_count=40), 8 * 1000 * 40, "sim.multiplier_draws or grid.count"),
    # (base moments x grid points)^2, a local line per grid point: here larger
    # than the draw tensor
    (Cfg(method="local-linear", grid_count=300, mult_draws=200), 8 * 300**2, "grid.count"),
    # base moments x coefficients x rows, the series influences: here larger
    # than the draw tensor, the covariance and the draw map
    (Cfg(series_order=15, grid_count=2, mult_draws=200), 8 * 16 * 300, "npreg.series_order"),
    # draws x base moments x distinct cells: grid.count sets no cell-means grid
    (Cfg(method="cell-means", grid_count=2), 8 * 1000 * 10, "sim.multiplier_draws"),
], ids=["draw-tensor", "local-linear-covariance", "series-influences", "cell-means-draw-tensor"])
def test_array_budget_is_the_computed_size(cfg, size, keys):
    g = np.random.default_rng(11)
    w, z = g.standard_normal(300), g.uniform(-1, 1, 300)
    if cfg.method == "cell-means":
        z = np.floor(5 * z)  # 10 cells of about 30 rows
    ms = _one_sided(w, z)
    with mock.patch.object(clrtest, "ARRAY_BUDGET_BYTES", size):
        run_test(ms, None, cfg, RngSpec(seed=12))
    with mock.patch.object(clrtest, "ARRAY_BUDGET_BYTES", size - 1):
        with pytest.raises(ArrayTooLarge, match=f"{size / 2**30:.3g} GiB .* lower {keys}$"):
            run_test(ms, None, cfg, RngSpec(seed=12))


def test_array_budget_counts_every_slice_of_a_stacked_part():
    """A 20-slice series stack is sized as one part: its influences, 20 x 17 coefficients x
    2000 rows, exceed a 1 MiB budget and are refused before any of them is allocated."""
    g = np.random.default_rng(41)
    z = g.uniform(-1, 1, (20, 2000))
    stack = MomentSystem(base=g.standard_normal((20, 2000, 1)), moments=(("w+", 0, 1.0),),
                         conditioning=z)
    rngs = [RngSpec(seed=i) for i in range(20)]
    with mock.patch.object(clrtest, "ARRAY_BUDGET_BYTES", 2**20):
        tracemalloc.start()
        try:
            with pytest.raises(ArrayTooLarge, match="^the series influences would take 0.00507 "
                               "GiB, .* lower npreg.series_order, or pass fewer than 20 slices$"):
                run_test(stack, None, Cfg(), rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        one = stack._replace(base=stack.base[0], conditioning=z[0])
        assert run_test(one, None, Cfg(), rngs[0]).diagnostics["series_order"] == 16


@pytest.mark.parametrize("method", ["series", "local-linear"])
def test_array_budget_refuses_a_grid_count_before_its_points_are_built(method):
    g = np.random.default_rng(11)
    ms = _one_sided(g.standard_normal(300), g.uniform(-1, 1, 300))
    tracemalloc.start()
    try:
        with pytest.raises(ArrayTooLarge, match="lower (sim.multiplier_draws or )?grid.count$"):
            run_test(ms, None, Cfg(method=method, grid_count=10**8), RngSpec(seed=12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the 10^8 points alone would take 763 MiB


def test_local_linear_memory_bounded_at_200k():
    g = np.random.default_rng(32)
    n = 200_000
    ms = _paired([g.standard_normal(n)], ["resid"], g.uniform(-3, 3, n), "z")
    tracemalloc.start()
    try:
        report = run_test(ms, None, Cfg(method="local-linear"), RngSpec(seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few copies of the rows and blocks of bounded size: nothing of grid points x rows
    assert peak <= 32 * n + 16 * 2**20


def test_local_linear_report_is_the_sorted_grids_permuted():
    g = np.random.default_rng(35)
    n = 400
    z = g.uniform(-1, 1, n)
    ms = _paired([g.standard_normal(n) + 0.3 * z], ["resid"], z, "z")
    # a duplicate point, and one beyond the data that is dropped
    grid = np.sort(np.r_[np.linspace(-0.95, 0.95, 30), 0.2, 3.0])
    shuffle = g.permutation(len(grid))
    cfg = Cfg(method="local-linear")
    with pytest.warns(UserWarning, match="dropping 1 grid points"):
        report = run_test(ms, grid, cfg, RngSpec(seed=3))
    with pytest.warns(UserWarning, match="dropping 1 grid points"):
        shuffled = run_test(ms, grid[shuffle], cfg, RngSpec(seed=3))
    place = np.searchsorted(report.grid, shuffled.grid)  # in the sorted grid's report
    assert np.array_equal(shuffled.grid, report.grid[place])
    assert np.array_equal(shuffled.theta, report.theta[:, place])
    assert np.array_equal(shuffled.s, report.s[:, place])
    assert (shuffled.kappa, shuffled.levels) == (report.kappa, report.levels)
    assert shuffled.diagnostics == report.diagnostics
    assert report.diagnostics["dropped_grid_points"] == 1


@pytest.mark.parametrize("cfg, fitter", [
    (Cfg(method="series", series_order=6), lambda w, z: fit_series(w, z, 6)),
    (Cfg(method="local-linear", bandwidth=0.3), lambda w, z: fit_local_linear(w, z, 0.3)),
    (Cfg(method="cell-means"), lambda w, z: fit_cell_means(w, z)),
])
def test_run_test_matches_public_fit(cfg, fitter):
    g = np.random.default_rng(12)
    n = 800
    z = g.uniform(-1, 1, n)
    if cfg.method == "cell-means":
        z = np.round(4 * z)
    w = np.sin(2 * z) + (0.5 + z**2) * g.standard_normal(n)
    report = run_test(_one_sided(w, z), None, cfg, RngSpec(seed=0))
    theta, s = fitter(w, z).evaluate(report.grid)
    assert np.allclose(report.theta[0], theta, rtol=0, atol=1e-10)
    assert np.allclose(report.s[0], s, rtol=0, atol=1e-10)


@pytest.mark.parametrize("order", [49, 60])
def test_series_order_must_stay_below_n_minus_one(order):
    g = np.random.default_rng(13)
    z = g.uniform(-1, 1, 50)
    ms = _one_sided(g.standard_normal(50), z)
    with pytest.raises(InsufficientData):
        run_test(ms, None, Cfg(series_order=order), RngSpec(seed=0))


def test_fewer_rows_than_the_floor_raise_insufficient_data():
    g = np.random.default_rng(14)
    z = g.uniform(-1, 1, (2, npreg.MIN_ROWS - 1))
    for method in ("series", "local-linear", "cell-means"):
        cfg = Cfg(method=method)
        ms = _one_sided(g.standard_normal(npreg.MIN_ROWS - 1), np.round(z[0]))
        with pytest.raises(InsufficientData, match=f"n >= {npreg.MIN_ROWS} rows, got 9"):
            run_test(ms, None, cfg, RngSpec(seed=0))
        stack = ms._replace(base=g.standard_normal((2, npreg.MIN_ROWS - 1, 1)),
                            conditioning=np.round(z))
        with pytest.raises(InsufficientData, match=f"n >= {npreg.MIN_ROWS} rows"):
            run_test(stack, None, cfg, [RngSpec(seed=0), RngSpec(seed=1)])
    ds = Dataset(y=g.standard_normal(9), x=z[1] + 0.1 * z[0], z=z[1])
    with pytest.raises(InsufficientData, match=f"n >= {npreg.MIN_ROWS} rows"):
        model_test(ds, IV_SPEC, Cfg(), RngSpec(seed=0))
    with pytest.raises(InsufficientData, match=f"n >= {npreg.MIN_ROWS} rows"):
        identified_set(ds, lambda x, theta: theta * x[:, 0], [1.0, 2.0])


@pytest.mark.parametrize("method", ["series", "local-linear"])
def test_constant_conditioning_column_is_refused_by_its_grid(method):
    ms = _paired([np.random.default_rng(17).standard_normal(200)], ["w"], np.full(200, 0.1), "z")
    with pytest.raises(DegenerateSupport, match="quantiles coincide"):
        run_test(ms, None, Cfg(method=method), RngSpec(seed=0))


@pytest.mark.parametrize("method", ["series", "local-linear", "series-stack"])
def test_zero_moments_are_decided_not_refused(method):
    """A zero coefficient covariance has a zero root: s and every draw are 0, so kappa, k and
    theta_corrected are 0.0 (not -0.0), every point counts in s_rounding, and the test does
    not reject; in a series stack the zero slice does so beside a normal one."""
    z = np.random.default_rng(15).uniform(-1, 1, 200)
    ms = _paired([np.zeros(200)], ["zero"], z, "z")
    if method == "series-stack":
        base = np.stack([np.random.default_rng(16).standard_normal((200, 1)), ms.base])
        ms = ms._replace(base=base, conditioning=np.stack([z, z]))
        normal, report = run_test(ms, None, Cfg(), [RngSpec(seed=0)] * 2)
        assert normal.diagnostics["s_rounding"] == 0 and normal.kappa > 0
    else:
        report = run_test(ms, None, Cfg(method=method), RngSpec(seed=0))
    assert report.diagnostics["s_rounding"] == len(report.grid) > 0
    assert not np.any(report.s)
    for level in report.levels.values():
        values = [report.kappa, level.k_crit, level.k_crit_full, level.theta_corrected]
        assert not np.any(values) and not np.signbit(values).any()  # 0.0, not -0.0
        assert not level.reject
    assert "-0.0" not in report.summary()


def test_identified_set_keeps_an_exact_fit_theta():
    """A theta whose moments are all 0 is decided on the grid, not refused: with y = 0 the
    slope 0 fits exactly and is kept, while slopes that leave E[x | z] = z are rejected."""
    g = np.random.default_rng(0)
    z = g.uniform(-1, 1, 500)
    ds = Dataset(y=np.zeros(500), x=z + g.standard_normal(500), z=z)
    for thetas, accepted in [([-1.0, 0.0, 1.0], (0.0,)), ([-1.0, -0.5], ())]:
        out = identified_set(ds, lambda x, theta: theta * x[:, 0], thetas, rng=RngSpec(seed=1))
        assert out.accepted == accepted, thetas


@pytest.mark.parametrize("family, spec, default", [
    (DgpFamily.LINEAR_IV_NULL, IV_SPEC, default_series_order),
    (DgpFamily.LINEAR_OLS_NULL,
     ModelSpec(conditioning=Conditioning.ON_X, homoskedastic=True),
     lambda n: 2),
    (DgpFamily.BOXCOX_IV_NULL, ModelSpec(form=ModelForm.BOXCOX), nonlinear_step_series_order),
], ids=["linear", "homoskedastic", "boxcox"])
def test_series_order_rule(family, spec, default):
    n = 400
    ds = generate(DgpSpec(family=family, n=n), RngSpec(seed=22))
    report = model_test(ds, spec, Cfg(), RngSpec(seed=23))
    assert report.diagnostics["series_order"] == default(n)
    report = model_test(ds, spec, Cfg(series_order=5), RngSpec(seed=23))
    assert report.diagnostics["series_order"] == 5


def test_config_rejects_unknown_method():
    with pytest.raises(IvcheckError, match="method must be one of"):
        Cfg(method="kernel")


@pytest.mark.parametrize("kwargs, error", [
    ({"mult_draws": 100}, SimulationBudgetTooSmall),
    ({"bandwidth": 0.0}, IvcheckError),
    ({"bandwidth": -1.0}, IvcheckError),
    ({"bandwidth": float("nan")}, IvcheckError),
    ({"series_order": 0}, IvcheckError),
], ids=["draws", "bandwidth-zero", "bandwidth-negative", "bandwidth-nan", "series-order"])
def test_config_rejects_out_of_range_values(kwargs, error):
    with pytest.raises(error):
        Cfg(**kwargs)


def test_config_rejects_empty_alpha_levels():
    """No level, no decision: `summary()` would print none and `reject` raise KeyError."""
    with pytest.raises(IvcheckError, match="alpha levels"):
        Cfg(alpha_levels=())


def test_config_replace_goes_through_its_checks():
    # `_replace`, as `with_level` and test_model's series order use it, checks the new config
    with pytest.raises(IvcheckError, match="method must be one of"):
        Cfg()._replace(method="kernel")
    with pytest.raises(SimulationBudgetTooSmall):
        Cfg()._replace(mult_draws=100)
    with pytest.raises(IvcheckError, match="alpha levels"):
        Cfg().with_level(1.5)
    assert Cfg()._replace(series_order=3) == Cfg(series_order=3)


def test_first_step_fit_dispatch():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=300), RngSpec(seed=13))
    fit = first_step_fit(ds, IV_SPEC)
    assert np.allclose(fit.beta, fit_iv(ds).beta)


def test_diagnostics_record_setup():
    sp = DgpSpec(family=DgpFamily.BOXCOX_IV_NULL, n=400, lam=0.0)
    ds = generate(sp, RngSpec(seed=14))
    report = model_test(ds, model_spec_for(sp), Cfg(), RngSpec(seed=15))
    # nonlinear first step: coarse basis recorded in the report
    assert report.diagnostics["series_order"] <= 7
    assert report.diagnostics["mult_draws"] == 1000
    assert "first_step" in report.diagnostics


def test_identified_set_contains_truth():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=1500), RngSpec(seed=16))
    fit = fit_iv(ds)
    grid = [(0.0, 2.0), (fit.beta[0], fit.beta[1]), (0.0, -2.0)]
    out = identified_set(ds, lambda x, th: th[0] + th[1] * x[:, 0], grid, alpha=0.05,
                         rng=RngSpec(seed=17), conditioning=Conditioning.ON_Z)
    assert (0.0, 2.0) in [tuple(t) for t in out.accepted]
    assert tuple(grid[1]) in [tuple(np.asarray(t, dtype=float)) for t in out.accepted]
    assert not out.empty


def test_identified_set_rejects_wrong_sign():
    g = np.random.default_rng(18)
    n = 1500
    z = g.uniform(-3, 3, n)
    x = 3.0 * z + g.standard_normal(n)
    y = 2.0 * x + g.standard_normal(n)
    ds = Dataset(y=y, x=x, z=z)
    out = identified_set(ds, lambda xx, th: th[0] + th[1] * xx[:, 0], [(0.0, -2.0)],
                         alpha=0.05, rng=RngSpec(seed=19), conditioning=Conditioning.ON_Z)
    assert out.empty


def test_identified_set_empty_grid():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=200), RngSpec(seed=20))
    with pytest.raises(EmptyGrid):
        identified_set(ds, lambda x, th: th[0] + th[1] * x[:, 0], [], rng=RngSpec(seed=21))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_identified_set_refuses_a_non_finite_theta(bad):
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=200), RngSpec(seed=20))
    with pytest.raises(InvalidGrid, match=rf"^theta_grid has 1 non-finite points, the first "
                                          rf"\({bad}, 2.0\)$"):
        identified_set(ds, lambda x, th: th[0] + th[1] * x[:, 0], [(0.0, 2.0), (bad, 2.0)],
                       rng=RngSpec(seed=21))


@pytest.mark.parametrize("levels", [2, 7, 11])
def test_series_order_capped_on_discrete_conditioning(levels):
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=400), RngSpec(seed=5))
    z = ds.z[:, 0]
    z = np.round((z - z.min()) / (z.max() - z.min()) * (levels - 1))
    report = model_test(Dataset(y=ds.y, x=ds.x, z=z), IV_SPEC, Cfg(), RngSpec(seed=6))
    # degree levels - 1 fits every support point; the default of 16 is collinear
    assert report.diagnostics["series_order"] == levels - 1
    _report_invariants(report)


def test_local_linear_records_dropped_grid_points():
    g = np.random.default_rng(24)
    n = 600
    z = np.where(g.random(n) < 0.5, g.uniform(-3, -1, n), g.uniform(1, 3, n))
    ms = _one_sided(g.standard_normal(n), z)
    with pytest.warns(UserWarning, match="empty kernel windows"):
        report = run_test(ms, None, Cfg(method="local-linear", bandwidth=0.3), RngSpec(seed=0))
    dropped = report.diagnostics["dropped_grid_points"]
    assert dropped > 0 and dropped + len(report.grid) == 100
    assert f"dropped_grid_points = {dropped}" in report.summary()
    full = run_test(_one_sided(g.standard_normal(n), g.uniform(-3, 3, n)), None,
                    Cfg(method="local-linear", bandwidth=0.3), RngSpec(seed=0))
    assert full.diagnostics["dropped_grid_points"] == 0
    assert "dropped_grid_points" not in full.summary()


def test_cell_means_drops_one_row_cells():
    # a cell of one row has no within-cell variance; kept, it bound at the
    # standard-error floor and rejected on every seed
    rejections = 0
    for seed in range(40):
        ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=500), RngSpec(seed=seed))
        z = np.round(ds.z[:, 0] / 1.5) * 1.5
        z[0] = 0.7
        with pytest.warns(UserWarning, match="dropping 1 grid points with one-row cells"):
            report = model_test(Dataset(y=ds.y, x=ds.x, z=z), IV_SPEC, Cfg(method="cell-means"),
                                RngSpec(seed=seed))
        assert report.diagnostics["dropped_grid_points"] == 1
        assert 0.7 not in report.grid
        rejections += report.reject(0.05)
    assert "dropped_grid_points = 1 (one-row cells or cells of one value)" in report.summary()
    assert rejections <= 4


def test_cell_means_drops_cells_of_one_value():
    # a cell whose rows share one value of w has s at the floor, about 1e-12;
    # kept, it set kappa near 2e6 and rejected pure noise on every seed
    rejections = 0
    for seed in range(20):
        g = np.random.default_rng(seed)
        z = np.round(3 * g.uniform(-1, 1, 400))
        w = g.standard_normal(400)
        w[z == 0] = -0.01
        with pytest.warns(UserWarning,
                          match="dropping 1 grid points with one-row cells or cells of one value"):
            report = run_test(_paired([w], ["w"], z, "z"), None, Cfg(method="cell-means"),
                              RngSpec(seed=seed))
        assert report.diagnostics["dropped_grid_points"] == 1
        assert 0.0 not in report.grid and report.kappa < 10
        rejections += report.reject(0.01)
    assert rejections <= 1


@pytest.mark.parametrize("seed", [1, 3])
def test_cell_means_read_one_zero(seed):
    """A rounded z holds -0.0 and 0.0: the report's grid is the smoother's cell values bit for
    bit, and neither it nor the propensity's cell-means instrument grid reads -0.0.

    Sorting the raw column kept -0.0 on both seeds: in the grid, the cell values and the
    propensity's grid on seed 1, and in the grid alone on seed 3.
    """
    g = np.random.default_rng(seed)
    z = np.round(2 * g.uniform(-1, 1, 300))
    assert np.signbit(z[z == 0]).any() and not np.signbit(z[z == 0]).all()
    w = g.standard_normal(300)
    report = run_test(_paired([w], ["w"], z, "z"), None, Cfg(method="cell-means"),
                      RngSpec(seed=0))
    values, ok = npreg.cells(z)[0], npreg.cell_means_smoother(z, w[:, None])[1]
    assert report.grid.tobytes() == values[ok].tobytes()
    x = z + g.standard_normal(300)
    z_grid = fit_propensity(Dataset(y=x + g.standard_normal(300), x=x, z=z), "cell-means").z_grid
    for grid in (report.grid, z_grid):
        assert 0.0 in grid and not np.signbit(grid[grid == 0]).any()


def test_cell_means_without_a_two_row_cell_is_an_empty_grid():
    ms = _one_sided(np.arange(10.0), np.arange(10.0))
    with pytest.raises(EmptyGrid, match="one-row cells"):
        run_test(ms, None, Cfg(method="cell-means"), RngSpec(seed=0))


def test_cell_means_refuses_a_grid():
    g = np.random.default_rng(25)
    z = np.round(4 * g.uniform(-1, 1, 300))
    ms = _one_sided(g.standard_normal(300), z)
    with pytest.raises(IvcheckError, match="cell-means"):
        run_test(ms, np.array([-1.0, 0.0, 1.0]), Cfg(method="cell-means"), RngSpec(seed=0))


def test_cell_means_caps_the_sup_test_at_max_cells():
    """The sup test meets the cell cap of `npreg.cells`: -0.0 and 0.0 count as one value, so
    MAX_CELLS values with both zeros run, and one value more raises TooManyCells."""
    g = np.random.default_rng(8)
    values = np.array([-0.0, *range(npreg.MAX_CELLS)])
    z = np.repeat(values, 4)
    report = run_test(_one_sided(g.standard_normal(len(z)), z), None, Cfg(method="cell-means"),
                      RngSpec(seed=0))
    assert len(report.grid) == npreg.MAX_CELLS
    z = np.repeat(np.append(values, npreg.MAX_CELLS), 4)
    ms = _one_sided(g.standard_normal(len(z)), z)._replace(conditioning_column="z")
    with pytest.raises(TooManyCells, match=f"^column 'z' has {npreg.MAX_CELLS + 1} distinct "
                                           f"values, above the cap of {npreg.MAX_CELLS} for "
                                           "cell means$"):
        run_test(ms, None, Cfg(method="cell-means"), RngSpec(seed=0))


def _pinned_systems():
    g = np.random.default_rng(2024)
    n = 400
    z = g.uniform(-1, 1, n)
    u = g.standard_normal(n) * (1.0 + 0.5 * z**2)
    w = u + 0.4 * np.maximum(z, 0.0)
    pair = _paired([w], ["resid"], z, "z")
    homo = _paired([u, u**2 - np.mean(u**2)], ["resid", "var"], z, "z")
    cells = _paired([w], ["resid"], np.round(3 * z), "z")
    return {
        "series-pair": (pair, Cfg(grid_count=40)),
        "series-homoskedastic": (homo, Cfg(grid_count=40, series_order=2)),
        "series-one-sided": (_one_sided(w, z), Cfg(grid_count=40)),
        "local-linear": (pair, Cfg(grid_count=40, method="local-linear")),
        "cell-means": (cells, Cfg(method="cell-means")),
    }


# kappa, then (k_crit, k_crit_full, theta_corrected, |V_hat|) at alpha = .10, .05, .01,
# (OpenBLAS, x86-64) from the fused draw map chol' L' / s and the series fit from the QR's R,
# with s that of the covariance without its jitter, floored at 1e-12 (1 + |theta|), and a
# jitter of max(trace / len, 1) 1e-12.
PINNED_PARENT = {
    "series-pair": (3.365723846477604, (
        (2.810656624697008, 2.9099041680607094, -0.2705274320273408, 61),
        (3.0277147904079076, 3.154879006148779, -0.31874692885399636, 61),
        (3.376207194397651, 3.5250941377330203, -0.37831740177719353, 61),
    )),
    "series-homoskedastic": (3.4150656284712726, (
        (1.9614128139964528, 2.608266596520607, 0.075705570592214, 21),
        (2.2825977455601043, 2.9414917161141396, 0.027531184140840548, 21),
        (2.9244002321732867, 3.4991620350810804, -0.06873248820839778, 21),
    )),
    "series-one-sided": (3.2426293176211316, (
        (2.5787628138817498, 2.6162839013221117, -0.21651775534438084, 36),
        (2.8598365840356212, 2.9107385179467804, -0.2819817856119465, 36),
        (3.2860453357695842, 3.2950573102984566, -0.36290534545510955, 36),
    )),
    # the kernel summed over blocks of rows sorted by z, each line's weights from the inverse
    # of its normal matrix; with the closed-form 2 x 2 solve of the lines before it, these were
    # (3.4492734257575464, ((2.712601915679045, 2.8468210717074958, -0.1769047469983961, 49),
    #  (3.0195511213056574, 3.1289273926756054, -0.22370038368302703, 49),
    #  (3.428668339318103, 3.5311298584560764, -0.2860719433567344, 49)))
    "local-linear": (3.449273425757533, (
        (2.712601915679052, 2.84682107170751, -0.17690474699839714, 49),
        (3.019551121305657, 3.1289273926756023, -0.22370038368302692, 49),
        (3.4286683393181074, 3.5311298584560835, -0.286071943356735, 49),
    )),
    # the cell means and covariance blocks as per-cell sums over the rows divided by counts
    "cell-means": (3.0208471554364333, (
        (2.392665673234702, 2.427699055865768, -0.11554713876833486, 13),
        (2.6933017824440255, 2.7156094719897754, -0.15800869609760418, 13),
        (3.2162186984424075, 3.2529601954992136, -0.23186498257465585, 13),
    )),
}

# The signed-copy sup that drew through two products and a division and fitted series by a
# tall SVD gave these within 1e-12 relative:
# "series-pair": (3.3657238464776014, (
#     (2.8106566246970117, 2.909904168060711, -0.27052743202734175, 61),
#     (3.027714790407905, 3.1548790061487804, -0.3187469288539959, 61),
#     (3.376207194397649, 3.5250941377330247, -0.3783174017771933, 61),
# )),
# "series-homoskedastic": (3.415065628471269, (
#     (1.961412813996459, 2.608266596520607, 0.07570557059221267, 21),
#     (2.282597745560092, 2.9414917161141423, 0.027531184140842102, 21),
#     (2.924400232173286, 3.49916203508108, -0.06873248820839789, 21),
# )),
# "series-one-sided": (3.2426293176211316, (
#     (2.57876281388175, 2.616283901322113, -0.216517755344381, 36),
#     (2.8598365840356226, 2.9107385179467835, -0.28198178561194687, 36),
#     (3.286045335769584, 3.2950573102984553, -0.36290534545510944, 36),
# )),
# "local-linear": (3.4492734257575206, (
#     (2.7126019156790204, 2.846821071707525, -0.17690474699839237, 49),
#     (3.0195511213056565, 3.1289273926756063, -0.22370038368302686, 49),
#     (3.428668339318092, 3.5311298584560946, -0.28607194335673275, 49),
# )),
# "cell-means": (3.020847155436433, (
#     (2.392665673234702, 2.427699055865768, -0.11554713876833489, 13),
#     (2.693301782444026, 2.7156094719897754, -0.15800869609760426, 13),
#     (3.216218698442408, 3.2529601954992136, -0.23186498257465593, 13),
# )),


# the same, with s the sd of the draws, the column norms of chol' L', and a jitter of
# trace / len 1e-12
PINNED_CHOLESKY = {
    "series-pair": (3.3657238463905714, (
        (2.8106566246689857, 2.90990416800743, -0.2705274320217474, 61),
        (3.027714790317432, 3.15487900618384, -0.3187469288394077, 61),
        (3.376207194252343, 3.5250941377245453, -0.37831740175333295, 61),
    )),
    "series-homoskedastic": (3.4150656282980125, (
        (1.9614128139396847, 2.608266596279963, 0.07570557060049754, 21),
        (2.2825977454917195, 2.9414917160148986, 0.027531184150828614, 21),
        (2.924400232044376, 3.4991620349734855, -0.06873248818940714, 21),
    )),
    "series-one-sided": (3.2426293176064704, (
        (2.5787628138195493, 2.6162839012907484, -0.21651775533075007, 36),
        (2.859836583999151, 2.9107385178828804, -0.28198178560440174, 36),
        (3.286045335695153, 3.2950573101986005, -0.3629053454433384, 36),
    )),
    "local-linear": (3.4492734254651247, (
        (2.7126019145056848, 2.8468210723774834, -0.17690474681981594, 49),
        (3.0195511212775736, 3.1289273908963064, -0.22370038367908318, 49),
        (3.4286683371314406, 3.5311298570350114, -0.2860719430237524, 49),
    )),
    "cell-means": (3.0208471553592005, (
        (2.3926656731609612, 2.427699055841999, -0.11554713875819386, 13),
        (2.6933017823804044, 2.715609471905539, -0.1580086960889269, 13),
        (3.2162186984149295, 3.252960195394715, -0.23186498257114327, 13),
    )),
}


# the same, drawn through the root S D of the coefficient covariance (`npreg._root`), S the
# principal square root of the correlation matrix, with no jitter
PINNED = {
    "series-pair": (3.367770975068247, (
        (2.8117180556563004, 2.897283016847062, -0.2707746466586031, 61),
        (3.0588219252209266, 3.130157486635341, -0.32406430940772424, 61),
        (3.351373703533826, 3.556736293951996, -0.3740724231832391, 61),
    )),
    "series-homoskedastic": (3.4006692931444125, (
        (1.9843833654060261, 2.5723595183456522, 0.07226022770137963, 21),
        (2.268836632172849, 2.9461776530306545, 0.029595207478085417, 21),
        (2.9282825318114036, 3.5783572325042377, -0.0693147926215476, 21),
    )),
    "series-one-sided": (3.233192173935663, (
        (2.591377535471264, 2.609492953459355, -0.21945581148352472, 36),
        (2.846308859772946, 2.880547622046949, -0.2788310848187055, 36),
        (3.2777338775527247, 3.3443377042130833, -0.36148460431128093, 36),
    )),
    "local-linear": (3.4631695497374912, (
        (2.665829450872172, 2.884090461908218, -0.1697740972693017, 49),
        (3.0014485559954607, 3.121325235115854, -0.22094057504437464, 49),
        (3.5286472766685084, 3.593970867808248, -0.30131413308260147, 49),
    )),
    "cell-means": (3.0208471553592005, (
        (2.3926656731609612, 2.427699055841999, -0.1155471387579198, 13),
        (2.6933017823804044, 2.715609471905539, -0.15800869608861842, 13),
        (3.2162186984149295, 3.252960195394715, -0.2318649825707749, 13),
    )),
}


def _pinned_outputs(name):
    ms, cfg = _pinned_systems()[name]
    report = run_test(ms, None, cfg, RngSpec(seed=11))
    return report.kappa, tuple((lv.k_crit, lv.k_crit_full, lv.theta_corrected,
                                lv.selected_set_size)
                               for lv in (report.levels[a] for a in report.alpha_levels))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_test_outputs_pinned(name):
    assert _pinned_outputs(name) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED_PARENT))
def test_run_test_outputs_near_parent_pins(name):
    """The root of the correlation matrix draws the same law as the jittered Cholesky factors
    before it, in another realization: the same |V_hat| and decisions as both.

    The numbers move as a new realization of the draws does (kappa by at most 0.42%, k and
    theta_corrected by at most 7.5%), so only |V_hat| and the decisions are compared.
    """
    _, levels = _pinned_outputs(name)
    for pins in (PINNED_PARENT, PINNED_CHOLESKY):
        for got, pinned in zip(levels, pins[name][1], strict=True):
            assert got[3] == pinned[3]
            assert (got[2] > 0.0) == (pinned[2] > 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(200, 5000),
    kind=st.sampled_from(["continuous", "ties", "constant"]),
    n=st.integers(2, 10**6),
)
def test_quantiles_equal_numpy(seed, size, kind, n):
    g = np.random.default_rng(seed)
    x = g.standard_normal(size)
    if kind == "ties":
        x = np.round(x, 1)
    elif kind == "constant":
        x = np.full(size, x[0])
    qs = [0.0, 1.0, 1.0 - 0.1 / np.log(n), 0.9, 0.95, 0.99]
    assert clrtest._quantiles(x, qs) == np.quantile(x, qs).tolist()


def _two_product_draws(smoother, grid, rng, draws):
    """Oracle: coefficient noise root' @ normals, then the design, then a division by the sd
    of that map from the normals; the sd, and theta as the design times the coefficients.

    A point smoother's design, the index of each grid point's coefficient, is
    taken as the dense one-hot selector of those coefficients.
    """
    design = smoother.design(grid)
    if design.ndim == 1:
        design = np.eye(len(smoother.coef))[design]
    k = design.shape[1]
    n_base = len(smoother.cov) // k
    (root,) = npreg._root(smoother.cov[None])  # root' root = cov
    # the sd of the map from the normals to each point's draw
    s_base = np.sqrt(((design @ root.T.reshape(n_base, k, -1)) ** 2).sum(axis=-1))
    eps = rng.standard_normal((draws, n_base * k)) @ root
    zstar = (eps.reshape(-1, k) @ design.T).reshape(draws, n_base, -1) / s_base
    return zstar, s_base, (design @ smoother.coef).T


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(40, 300),
    n_base=st.integers(1, 3),
    method=st.sampled_from(["series", "local-linear", "cell-means"]),
)
def test_process_matches_two_product_oracle(seed, n, n_base, method):
    g = np.random.default_rng(seed)
    z = g.uniform(-1, 1, n)
    if method == "cell-means":
        z = np.round(3 * z)
    base = g.standard_normal((n, n_base)) * (1.0 + z[:, None] ** 2)
    grid = np.linspace(-0.9, 0.9, 15)
    if method == "series":
        smoother = npreg.series_smoother(z, base, 4, -0.9, 0.9)
    elif method == "local-linear":
        smoother, ok = npreg.local_linear_smoother(z, base, grid, 0.5)
        grid = grid[ok]
    else:
        smoother, ok = npreg.cell_means_smoother(z, base)
        grid = np.unique(z)[ok]
    (theta,), (s,), (draw_map,) = smoother.process(grid)
    normals = np.random.default_rng(seed).standard_normal((300, len(draw_map)))
    zstar = (normals @ draw_map).reshape(300, n_base, -1)
    oracle, s_oracle, theta_oracle = _two_product_draws(smoother, grid,
                                                        np.random.default_rng(seed), 300)
    assert zstar.shape == oracle.shape == (300, n_base, len(grid))
    assert np.max(np.abs(zstar - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    assert np.max(np.abs(s - s_oracle)) <= 1e-12 * np.max(s_oracle)
    # a point smoother's coefficients at the indices are its one-hot product bit for bit
    assert np.array_equal(theta, theta_oracle)


def _expanded_tail(ms, n, theta_base, s_base, zstar_base, alphas):
    """Oracle: the sup test over the full signed copy of the draws."""
    signs = np.array([m[2] for m in ms.moments])
    bases = np.array([m[1] for m in ms.moments])
    theta = (signs[:, None] * theta_base[bases]).ravel()
    s = s_base[bases].ravel()
    flat_z = (signs[None, :, None] * zstar_base[:, bases, :]).reshape(len(zstar_base), -1)
    sups_full = flat_z.max(axis=1)
    kappa = float(np.quantile(sups_full, 1.0 - 0.1 / np.log(n)))
    selected = theta >= theta.max() - kappa * s
    sups_sel = flat_z[:, selected].max(axis=1)
    levels = []
    for a in alphas:
        k = float(np.quantile(sups_sel, 1.0 - a))
        levels.append((k, float(np.quantile(sups_full, 1.0 - a)),
                       float(np.max(theta - k * s)), int(selected.sum())))
    return kappa, tuple(levels)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(40, 150),
    n_base=st.integers(1, 3),
    picks=st.lists(st.tuples(st.integers(0, 2), st.sampled_from([1.0, -1.0])),
                   min_size=1, max_size=5),
    method=st.sampled_from(["series", "local-linear", "cell-means"]),
)
def test_sup_matches_expanded_oracle(seed, n, n_base, picks, method):
    g = np.random.default_rng(seed)
    z = g.uniform(-1, 1, n)
    if method == "cell-means":
        z = np.round(3 * z)
    base = g.standard_normal((n, n_base)) + g.uniform(-1, 1, n_base) * z[:, None]
    moments = tuple((f"m{j}", b % n_base, sign) for j, (b, sign) in enumerate(picks))
    ms = MomentSystem(base=base, moments=moments, conditioning=z)
    cfg = Cfg(grid_count=12, series_order=3, bandwidth=0.5, mult_draws=200, method=method)
    est = estimate(ms, None, cfg, RngSpec(seed=seed % 1000))
    report = decide(est, ms.moments, cfg.alpha_levels)
    kappa, levels = _expanded_tail(ms, n, est.theta, est.s, est.zstar, cfg.alpha_levels)
    assert report.kappa == kappa
    assert tuple((lv.k_crit, lv.k_crit_full, lv.theta_corrected, lv.selected_set_size)
                 for lv in (report.levels[a] for a in report.alpha_levels)) == levels
    # V_hat as the report states it. It holds the arg-max of theta_hat, but not
    # always that of theta_hat - k s: the rule drops points whose s is small.
    selected = report.theta >= report.theta.max() - report.kappa * report.s
    assert selected.flat[np.argmax(report.theta)]
    assert all(lv.selected_set_size == selected.sum() for lv in report.levels.values())


def _assert_same_report(got, want):
    assert (got.alpha_levels, got.levels, got.moment_labels, got.kappa, got.gamma_n,
            got.diagnostics) == (want.alpha_levels, want.levels, want.moment_labels,
                                 want.kappa, want.gamma_n, want.diagnostics)
    for field in ("grid", "theta", "s"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


@pytest.mark.parametrize("name", ["series-pair", "local-linear", "cell-means"])
def test_decide_on_one_estimate_equals_run_test(name):
    """One Estimate serves the +/- pair and its + moment alone, each as run_test gives it."""
    pair, cfg = _pinned_systems()[name]
    plus = pair._replace(moments=pair.moments[:1])
    est = estimate(pair, None, cfg, RngSpec(seed=11))
    for ms in (pair, plus):
        report = decide(est, ms.moments, cfg.alpha_levels)
        _assert_same_report(report, run_test(ms, None, cfg, RngSpec(seed=11)))
    # a report owns its diagnostics, so decorating one leaves the estimate's alone
    report.diagnostics["first_step"] = {}
    assert "first_step" not in est.diagnostics


@pytest.mark.parametrize("method", ["series", "local-linear"])
@pytest.mark.parametrize("grid", [[0.1, np.nan, 0.5], [0.1, np.inf], [-np.inf, 0.2, 0.4]])
def test_non_finite_grid_is_refused(method, grid):
    g = np.random.default_rng(31)
    z = g.uniform(-1, 1, 300)
    ms = _one_sided(g.standard_normal(300), z)
    for stage in (run_test, estimate):
        with pytest.raises(InvalidGrid, match="grid has non-finite points"):
            stage(ms, np.array(grid), Cfg(method=method), RngSpec(seed=0))


@pytest.mark.parametrize("method", ["series", "local-linear"])
def test_empty_grid_is_refused(method):
    g = np.random.default_rng(33)
    z = g.uniform(-1, 1, 300)
    ms = _one_sided(g.standard_normal(300), z)
    for stage in (run_test, estimate):
        with pytest.raises(EmptyGrid, match="^conditioning grid is empty$"):
            stage(ms, np.array([]), Cfg(method=method), RngSpec(seed=0))


@pytest.mark.parametrize("grid", [[0.3], [0.3, 0.3, 0.3]])
def test_series_grid_needs_two_distinct_points(grid):
    g = np.random.default_rng(32)
    z = g.uniform(-1, 1, 300)
    ms = _one_sided(g.standard_normal(300), z)
    for stage in (run_test, estimate):
        with pytest.raises(InvalidGrid, match="series fit needs a conditioning grid"):
            stage(ms, np.array(grid), Cfg(), RngSpec(seed=0))
    # local-linear estimates at a single point
    report = run_test(ms, np.array(grid), Cfg(method="local-linear"), RngSpec(seed=0))
    assert len(report.grid) == len(grid)


@pytest.mark.parametrize("method", clrtest.METHODS)
@pytest.mark.parametrize("block, rows, value", [
    ("conditioning", [0], np.inf),
    ("conditioning", list(range(10)), np.inf),
    ("base", [5], np.inf),
    ("base", [5], np.nan),
], ids=["inf-z", "ten-inf-z", "inf-w", "nan-w"])
def test_non_finite_moment_system_is_refused(method, block, rows, value):
    # these ended in numpy's LinAlgError or zero-size reductions, a misleading constant-
    # variable or bandwidth error, or, for cell means, a decision
    g = np.random.default_rng(34)
    z = g.uniform(-1, 1, 200)
    values = {"conditioning": np.round(3 * z) if method == "cell-means" else z,
              "base": g.standard_normal(200)}
    values[block][rows] = value
    ms = _paired([values["base"]], ["w"], values["conditioning"], "z")
    with pytest.raises(NonFiniteValue) as bad:
        run_test(ms, None, Cfg(method=method, mult_draws=200), RngSpec(seed=0))
    assert (bad.value.row, bad.value.col) == (rows[0], block)


def test_non_finite_stacked_moment_system_names_the_row_in_its_slice():
    g = np.random.default_rng(35)
    w = g.standard_normal((3, 200))
    w[2, 7] = np.nan
    ms = _paired([w], ["w"], g.uniform(-1, 1, (3, 200)), "z")
    with pytest.raises(NonFiniteValue) as bad:
        run_test(ms, None, Cfg(mult_draws=200), [RngSpec(seed=0, stream=i) for i in range(3)])
    assert (bad.value.row, bad.value.col) == (7, "base")


def test_floored_standard_errors_are_reported():
    """A kernel window whose w is constant has s within rounding of 0 (2.7e-19 to 2e-17 here,
    against 8.8e-3 and up elsewhere): counted and shown by summary().

    (Cell means leave a cell of one value out instead.)
    """
    g = np.random.default_rng(3)
    z = g.uniform(-1, 1, 400)
    w = g.standard_normal(400)
    w[z < -0.6] = 0.25
    ms = _paired([w], ["resid"], z, "z")
    cfg = Cfg(method="local-linear", bandwidth=0.1)
    report = run_test(ms, None, cfg, RngSpec(seed=0))
    assert len(report.grid) == 100
    # the grid points below -0.7, whose windows hold only the constant rows
    # with s floored: diagnostics["s_floored"] == 15, "s_floored = 15 (standard errors at the
    # floor)"; with the Cholesky jitter, "s_jitter = 15 (drawn variances over half jitter)"
    assert report.diagnostics["s_rounding"] == 15 == np.sum(report.grid < -0.7)
    assert "s_rounding = 15 (standard errors within rounding of 0)" in report.summary()
    clean = run_test(_paired([g.standard_normal(400)], ["resid"], z, "z"), None, cfg,
                     RngSpec(seed=0))
    assert clean.diagnostics["s_rounding"] == 0
    assert "s_rounding" not in clean.summary()


def test_root_is_relative_to_the_covariance():
    """A covariance scaled by 1e-20 gets 1e-10 times the root, and the root's square is the
    covariance; a zero covariance has a zero root, and the root of a stack is each slice's
    own root bit for bit."""
    g = np.random.default_rng(6)
    a, thin = g.standard_normal((30, 20)), g.standard_normal((8, 20))
    cov = a.T @ a
    one_zero = cov.copy()
    one_zero[3], one_zero[:, 3] = 0.0, 0.0  # a coefficient of zero sd
    stack = np.stack([cov, 1e-20 * cov, np.zeros_like(cov), thin.T @ thin, one_zero])
    roots = npreg._root(stack)
    root, small, zero = roots[:3]
    assert np.abs(root.T @ root - cov).max() <= 1e-12 * np.abs(cov).max()
    assert np.abs(small - 1e-10 * root).max() <= 1e-12 * 1e-10 * np.abs(root).max()
    assert not zero.any() and not roots[4][:, 3].any()
    for i, got in enumerate(roots):
        assert np.array_equal(got, npreg._root(stack[i : i + 1])[0])


@pytest.mark.parametrize("method", clrtest.METHODS)
def test_decisions_invariant_to_the_scale_of_the_moments(method):
    """Moments in units x c, c from 1e-8 to 1e8: the same decision and |V_hat| at every level
    on every seed, and kappa within 1e-6 relative, since s is the sd of the draws and no
    absolute floor enters.

    w = N(0, 1) + 0.4 1{z > 0.5}, z ~ U(-1, 1) (rounded to seven values for cell means),
    paired moments, n = 400. At c = 1e-8 the absolute floors of the jitter and of s
    (max(trace / len, 1) 1e-12 and 1e-12 (1 + |theta|)) took every rejection away.
    """
    rejections = 0
    for seed in range(4):
        g = np.random.default_rng(seed)
        z = g.uniform(-1, 1, 400)
        if method == "cell-means":
            z = np.round(3 * z)
        w = g.standard_normal(400) + 0.4 * (z > 0.5)
        unit, *scaled = (run_test(_paired([c * w], ["w"], z, "z"), None, Cfg(method=method),
                                  RngSpec(seed=seed)) for c in (1.0, 1e-8, 1e-4, 1e4, 1e8))
        rejections += unit.reject(0.05)
        for report in scaled:
            assert report.kappa == pytest.approx(unit.kappa, rel=1e-6, abs=0)
            for alpha in unit.alpha_levels:
                assert report.reject(alpha) == unit.reject(alpha)
                assert (report.levels[alpha].selected_set_size
                        == unit.levels[alpha].selected_set_size)
    assert rejections > 0


def test_a_kernel_window_of_one_value_keeps_kappa_below_ten():
    """Noise with w = 0.25 on z < -0.6, local-linear at the rule-of-thumb bandwidth: the windows
    of one value have s within rounding of 0 and are divided by it, so kappa stays below
    10 on every seed. With s of the covariance floored at 1e-12 (1 + |theta|), their draws
    were about 1e6 times wider than N(0, 1), and kappa read about 2.5e6."""
    for seed in range(5):
        g = np.random.default_rng(seed)
        z = g.uniform(-1, 1, 400)
        w = g.standard_normal(400)
        w[z < -0.6] = 0.25
        report = run_test(_paired([w], ["w"], z, "z"), None, Cfg(method="local-linear"),
                          RngSpec(seed=seed))
        assert report.kappa < 10
        assert report.diagnostics["s_rounding"] > 0


def test_homoskedasticity_test_draws_alike_in_units_times_a_thousandth():
    """hetero-power data in units x 1e-3 put the squared-residual moment in units x 1e-6,
    where its coefficient variances sat below the absolute jitter floor: kappa and the
    full-set k now equal those in units x 1 within 1e-6 relative, on every seed.

    Decisions are not compared: V_hat compares theta across the residual and its square,
    each in its own units, so V_hat, k and the decisions still move with the units (2 of
    these 20 seeds decide differently).
    """
    spec = DgpSpec(family=DgpFamily.HETERO_POWER, n=1000, rho=0.9)
    for seed in range(20):
        ds = generate(spec, RngSpec(seed=seed))
        unit, milli = (model_test(Dataset(y=c * ds.y, x=c * ds.x, z=c * ds.z),
                                  model_spec_for(spec), Cfg(), RngSpec(seed=seed))
                       for c in (1.0, 1e-3))
        assert milli.kappa == pytest.approx(unit.kappa, rel=1e-6, abs=0)
        for alpha in unit.alpha_levels:
            assert (milli.levels[alpha].k_crit_full
                    == pytest.approx(unit.levels[alpha].k_crit_full, rel=1e-6, abs=0))

def _random_paired(seed, n, n_base, tied, method):
    """(g, ms): paired moments of n_base columns on z ~ U(-1, 1), rounded to 0.1 when tied or
    for cell means, and the generator that drew them."""
    g = np.random.default_rng(seed)
    z = g.uniform(-1, 1, n)
    if tied or method == "cell-means":
        z = np.round(z, 1)
    base = g.standard_normal((n, n_base)) + g.uniform(-0.4, 0.4, n_base) * z[:, None]
    return g, _paired(list(base.T), [f"w{b}" for b in range(n_base)], z, "z")


def _assert_same_decisions(report, other, tol):
    """theta_corrected within tol at every level, and the same decision wherever it is
    farther than tol from 0."""
    for alpha in report.alpha_levels:
        got, want = other.theta_corrected(alpha), report.theta_corrected(alpha)
        assert abs(got - want) <= tol
        if abs(want) > tol:
            assert other.reject(alpha) == report.reject(alpha)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(60, 400),
    n_base=st.integers(1, 2),
    tied=st.booleans(),
    method=st.sampled_from(["series", "local-linear", "cell-means"]),
    bandwidth=st.sampled_from([None, 0.6]),
)
# the worst of the sweep through the jittered Cholesky factor: 2.9e-5
@example(seed=420, n=60, n_base=1, tied=True, method="local-linear", bandwidth=0.6)
def test_decisions_invariant_to_row_permutation(seed, n, n_base, tied, method, bandwidth):
    """Permuting the rows of the base moments and the conditioning column moves no decision.

    theta_corrected moves by at most 1e-7 max(1, |theta|): rounding in sums taken in
    row order, which the root of a rank-deficient local-linear covariance (n < base
    moments x grid points) carries into the draws continuously. Over 6000 examples the
    worst move was 2.8e-8 (3e-5 through the jittered Cholesky factor before, which
    this test then bounded by 1e-5). A decision is compared wherever theta_corrected is
    farther than that from 0.
    """
    g, ms = _random_paired(seed, n, n_base, tied, method)
    perm = g.permutation(n)
    permuted = ms._replace(base=ms.base[perm], conditioning=ms.conditioning[perm])
    cfg = Cfg(method=method, bandwidth=bandwidth, mult_draws=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # grid points dropped alike in both
        report, report_permuted = (run_test(m, None, cfg, RngSpec(seed=seed % 1000))
                                   for m in (ms, permuted))
    _assert_same_decisions(report, report_permuted, 1e-7 * max(1.0, np.abs(report.theta).max()))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(150, 400),
    n_base=st.integers(1, 2),
    tied=st.booleans(),
    method=st.sampled_from(["series", "local-linear", "cell-means"]),
    bandwidth=st.sampled_from([None, 0.6]),
    log_scale=st.floats(-2.0, 2.0),
    shift=st.floats(-100.0, 100.0),
)
def test_decisions_invariant_to_affine_map_of_conditioning(seed, n, n_base, tied, method,
                                                           bandwidth, log_scale, shift):
    """An increasing affine map a z + b of the conditioning column moves no decision.

    The series basis maps the grid's [lo, hi] onto [-1, 1], the rule-of-thumb
    bandwidth scales with sd(z), a set bandwidth is mapped with z, and cells are
    labels. theta_corrected may move by rounding only: at most
    1e-8 max(1, |theta|). 30 grid points keep n above the base moments times the
    grid points, so the covariance is not rank deficient. A decision is
    compared wherever theta_corrected is farther than that from 0.
    """
    a = 10.0**log_scale
    _, ms = _random_paired(seed, n, n_base, tied, method)
    mapped = ms._replace(conditioning=a * ms.conditioning + shift)
    cfgs = [Cfg(method=method, bandwidth=h, grid_count=30, mult_draws=200)
            for h in (bandwidth, None if bandwidth is None else a * bandwidth)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # grid points dropped alike in both
        report, report_mapped = (run_test(m, None, cfg, RngSpec(seed=seed % 1000))
                                 for m, cfg in zip((ms, mapped), cfgs))
    _assert_same_decisions(report, report_mapped, 1e-8 * max(1.0, np.abs(report.theta).max()))


def _stack_of_three(method):
    """(stacked system, its three slices, cfg): paired moments of two base columns, n = 300.

    The series stack's slice 1 has z rounded to three values, so its series
    order is capped at 2 while the others' is 16, and the stack is fitted one
    slice at a time; "series-shared" keeps z continuous, so the three slices
    are fitted as one stack.
    """
    g = np.random.default_rng(41)
    z = g.uniform(-1, 1, (3, 300))
    if method == "series":
        z[1] = np.round(z[1])
    elif method == "cell-means":
        z = np.round(3 * z)
    base = g.standard_normal((3, 300, 2)) + g.uniform(-0.4, 0.4, (3, 1, 2)) * z[..., None]
    stack = _paired([base[..., 0], base[..., 1]], ["w0", "w1"], z, "z")
    slices = [stack._replace(base=stack.base[i], conditioning=z[i]) for i in range(3)]
    cfg = Cfg(method=method.removesuffix("-shared"), mult_draws=200)
    return stack, slices, cfg


@pytest.mark.parametrize("method", ["series", "series-shared", "local-linear", "cell-means"])
def test_stacked_run_test_equals_each_slice_alone(method):
    stack, slices, cfg = _stack_of_three(method)
    rngs = [RngSpec(seed=5, stream=i) for i in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # grid points dropped alike in both
        reports = run_test(stack, None, cfg, rngs)
        alone = [run_test(ms, None, cfg, rng) for ms, rng in zip(slices, rngs)]
    if cfg.method == "series":
        orders = [report.diagnostics["series_order"] for report in reports]
        assert orders == ([16, 16, 16] if method == "series-shared" else [16, 2, 16])
    assert len(reports) == 3
    for got, want in zip(reports, alone):
        _assert_same_report(got, want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(40, 300),
    n_base=st.integers(1, 3),
    tied=st.booleans(),
    method=st.sampled_from(["series", "local-linear", "cell-means"]),
)
@example(seed=20, n=40, n_base=1, tied=False, method="local-linear")  # an edge window of s = 0
def test_report_invariants_hold_on_random_systems(seed, n, n_base, tied, method):
    """What every report states, on paired moments, whose sups are never negative.

    The bounds, all exact but one: reject(alpha) == (theta_corrected(alpha) > 0);
    k_crit <= k_crit_full + 1e-12, the quantile of a smaller sup at the same
    level; 1 <= |V_hat| <= moments x grid points, since kappa >= 0 keeps the
    arg-max of theta_hat; theta_corrected non-decreasing in alpha, so that
    rejections nest; theta_corrected <= max theta_hat, as k >= 0; s >= 0, and 0 only at
    the (base moment, point) pairs that `s_rounding` counts; and theta and s of shape
    (moments, grid points).
    """
    _, ms = _random_paired(seed, n, n_base, tied, method)
    cfg = Cfg(alpha_levels=(0.2, 0.1, 0.05, 0.01), method=method, mult_draws=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # dropped grid points
        report = run_test(ms, None, cfg, RngSpec(seed=seed % 1000))
    shape = (2 * n_base, len(report.grid))
    assert report.theta.shape == report.s.shape == shape
    assert np.all(report.s >= 0.0)
    assert np.array_equal(report.s[::2], report.s[1::2])  # each base column's + and - moments
    assert np.sum(report.s[::2] == 0.0) <= report.diagnostics["s_rounding"]
    levels = [report.levels[alpha] for alpha in sorted(report.alpha_levels)]
    for lv in levels:
        assert lv.reject == (lv.theta_corrected > 0.0)
        assert lv.k_crit <= lv.k_crit_full + 1e-12
        assert 1 <= lv.selected_set_size <= shape[0] * shape[1]
        assert lv.theta_corrected <= report.theta.max()
    corrected = [lv.theta_corrected for lv in levels]
    assert corrected == sorted(corrected)


# --- the sup test under the BLAS thread count ---
#
# Written down before the first run: 160 random systems (seeds 1000-1159, series on even
# seeds and local-linear on odd ones), n from 60 to 400 rows, 1-3 paired base columns at
# scales e^U(-2, 2), z tied to one decimal on 30% of them, series orders 2-16 and
# bandwidths 0.2-0.8 drawn; 33 have fewer rows than coefficients. Each runs at 1 and at 2
# OpenBLAS threads in this process. Bound: no decision moves, and at every level
# |d theta_corrected| / max_g(|theta_g| + k s_g) and |d k| / k are at most THREAD_GAP.
# (The relative gap of theta_corrected alone is ill-conditioned where it is near 0.)
THREAD_GAP = 1e-6


def _thread_systems():
    """(seed, ms, cfg) of the 160 systems above."""
    for seed in range(1000, 1160):
        g = np.random.default_rng(seed)
        n, n_base = int(g.integers(60, 401)), int(g.integers(1, 4))
        z = g.uniform(-1, 1, n)
        if g.uniform() < 0.3:
            z = np.round(z, 1)
        base = np.exp(g.uniform(-2, 2, n_base)) * (
            g.standard_normal((n, n_base)) + g.uniform(-0.4, 0.4, n_base) * z[:, None])
        ms = _paired(list(base.T), [f"w{b}" for b in range(n_base)], z, "z")
        if seed % 2 == 0:
            cfg = Cfg(series_order=int(g.integers(2, 17)))
        else:
            cfg = Cfg(method="local-linear", bandwidth=float(g.uniform(0.2, 0.8)))
        yield seed, ms, cfg


def _thread_gap(one, two):
    """The larger of |d theta_corrected| / max_g(|theta_g| + k s_g) and |d k| / k over the
    levels, or inf if a decision moved."""
    gaps = [0.0]
    for alpha in one.alpha_levels:
        got, want = two.levels[alpha], one.levels[alpha]
        if got.reject != want.reject:
            return np.inf
        scale = np.max(np.abs(one.theta) + want.k_crit * one.s)
        gaps += [abs(got.theta_corrected - want.theta_corrected) / scale,
                 abs(got.k_crit - want.k_crit) / want.k_crit]
    return max(gaps)


def test_sup_test_is_stable_across_blas_threads():
    """The root of the correlation matrix moves with the covariance continuously, so the last
    bits that the BLAS thread count moves stay last bits: no decision moves, and every gap is
    at most THREAD_GAP. With the jittered Cholesky factor the worst gap was 1.2e-5 (full
    rank) and 2.4e-5 (fewer rows than coefficients)."""
    setter = _openblas_setter()
    if setter is None:
        pytest.skip("numpy's OpenBLAS is not found")
    handle = ctypes.CDLL(setter[0])
    set_threads, get_threads = (getattr(handle, setter[1].replace("_set_", verb))
                                for verb in ("_set_", "_get_"))
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    before, gaps = get_threads(), {}
    try:
        for seed, ms, cfg in _thread_systems():
            reports = []
            for threads in (1, 2):
                set_threads(threads)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # grid points dropped alike in both
                    reports.append(run_test(ms, None, cfg, RngSpec(seed=seed)))
            gaps[seed] = _thread_gap(*reports)
    finally:
        set_threads(before)
    assert max(gaps.values()) <= THREAD_GAP, max(gaps.items(), key=lambda item: item[1])
