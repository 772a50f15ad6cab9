import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivcheck import mte, npreg
from ivcheck.data import Dataset, conditioning_grid
from ivcheck.errors import (
    DomainError,
    InsufficientData,
    IvcheckError,
    MissingBounds,
    OffSupport,
    RankDeficient,
)
from ivcheck.mte import (
    MIN_EFFECTIVE_OBS,
    P_GRID,
    Z_GRID_COUNT,
    condition1_diagnostic,
    estimate_asf,
    estimate_mte,
    fit_control_function,
    fit_propensity,
    ks_distance_uniform,
    pava_increasing,
    uniformity_diagnostic,
)
from ivcheck.npreg import epanechnikov, local_linear_weights, rule_of_thumb_bandwidth


def _heterogeneous_ds(n=5000, seed=42):
    g = np.random.default_rng(seed)
    z = g.uniform(0, 1, n)
    v = g.uniform(0, 1, n)
    x = 3.0 * z + v
    y = x * (1.0 + v) + 0.1 * g.standard_normal(n)
    return Dataset(y=y, x=x, z=z), v


def test_pava_increasing():
    y = np.array([1.0, 3.0, 2.0, 4.0])
    out = pava_increasing(y)
    assert np.all(np.diff(out) >= 0)
    assert np.allclose(out, [1.0, 2.5, 2.5, 4.0])


def test_propensity_additive_analytic():
    g = np.random.default_rng(0)
    n = 5000
    z = g.uniform(0, 1, n)
    x = z + g.uniform(0, 1, n)
    ds = Dataset(y=np.zeros(n), x=x, z=z)
    pf = fit_propensity(ds)
    # analytic P(z, x) = clip(x - z, 0, 1)
    errs = [abs(pf.evaluate(zv, zv + 0.5) - 0.5) for zv in (0.2, 0.5, 0.8)]
    assert max(errs) < 0.05
    assert np.all(pf.v_hat >= 0) and np.all(pf.v_hat <= 1)


def test_propensity_independent_case():
    g = np.random.default_rng(1)
    n = 5000
    z = g.uniform(0, 1, n)
    x = g.standard_normal(n)
    ds = Dataset(y=np.zeros(n), x=x, z=z)
    pf = fit_propensity(ds)
    xs = np.sort(x)
    gaps = []
    for zv in (0.25, 0.5, 0.75):
        for xv in np.quantile(x, [0.2, 0.5, 0.8]):
            marg = np.searchsorted(xs, xv, side="right") / n
            gaps.append(abs(pf.evaluate(zv, xv) - marg))
    assert max(gaps) < 0.05


def _evaluate_one(pf, z, x):
    """Per-point bilinear interpolation through np.interp: the reference loop."""
    zi = min(max(int(np.searchsorted(pf.z_grid, z)) - 1, 0), len(pf.z_grid) - 2)
    row_lo = np.interp(x, pf.x_grid, pf.surface[zi])
    row_hi = np.interp(x, pf.x_grid, pf.surface[zi + 1])
    t = np.clip((z - pf.z_grid[zi]) / (pf.z_grid[zi + 1] - pf.z_grid[zi]), 0.0, 1.0)
    return float(np.clip((1 - t) * row_lo + t * row_hi, 0.0, 1.0))


def test_propensity_evaluate_arrays_match_scalar_loop():
    ds, _ = _heterogeneous_ds(2000, 5)
    pf = fit_propensity(ds)
    # inside the grid, on grid nodes, and beyond every edge (clamped)
    z = np.r_[pf.z_grid[[0, 3, -1]], 0.37, 0.61, -1.0, 2.0, 0.5, 0.5]
    x = np.r_[pf.x_grid[[0, 5, -1]], 1.3, 2.9, 1.0, 2.0, -10.0, 10.0]
    loop = np.array([_evaluate_one(pf, zv, xv) for zv, xv in zip(z, x)])
    np.testing.assert_allclose(pf.evaluate(z, x), loop, rtol=0, atol=1e-12)
    assert isinstance(pf.evaluate(0.37, 1.3), float)
    assert abs(pf.evaluate(0.37, 1.3) - _evaluate_one(pf, 0.37, 1.3)) <= 1e-12
    v_loop = [_evaluate_one(pf, zv, xv) for zv, xv in zip(ds.z[:, 0], ds.x[:, 0])]
    np.testing.assert_allclose(pf.v_hat, v_loop, rtol=0, atol=1e-12)


@pytest.mark.parametrize("method, binary", [("local-linear", True), ("cell-means", False)])
def test_propensity_needs_two_instrument_grid_points(method, binary):
    # a binary z leaves every local-linear window empty; a constant z is a single cell
    g = np.random.default_rng(142)
    n = 300
    z = g.integers(0, 2, n).astype(float) if binary else np.ones(n)
    x = z + g.standard_normal(n)
    with pytest.raises(InsufficientData):
        fit_propensity(Dataset(y=x + g.standard_normal(n), x=x, z=z), method=method)


def test_propensity_warns_on_dropped_grid_points():
    # no instrument in (-1, 1): the z-grid points there have empty kernel windows
    g = np.random.default_rng(0)
    n = 500
    z = np.where(g.random(n) < 0.5, g.uniform(-3, -1, n), g.uniform(1, 3, n))
    x = z + g.standard_normal(n)
    with pytest.warns(UserWarning, match="dropping 6 grid points with empty kernel windows"):
        pf = fit_propensity(Dataset(y=x, x=x, z=z))
    assert len(pf.z_grid) == 44
    assert pf.dropped_grid_points == 6
    assert fit_propensity(Dataset(y=x, x=x, z=np.round(z)), method="cell-means"
                          ).dropped_grid_points == 0


def test_propensity_grid_sizes():
    ds, _ = _heterogeneous_ds(2000, 2)
    pf = fit_propensity(ds)
    assert (len(pf.z_grid), len(pf.x_grid)) == (50, 40)
    assert pf.surface.shape == (50, 40)


def test_local_linear_propensity_memory_bounded_at_200k():
    g = np.random.default_rng(33)
    n = 200_000
    z = g.uniform(0, 1, n)
    x = 3.0 * z + g.uniform(0, 1, n)
    ds = Dataset(y=x + 0.1 * g.standard_normal(n), x=x, z=z)
    tracemalloc.start()
    try:
        fit_propensity(ds, method="local-linear")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few (n,) arrays and one block's kernel arrays, about 22 MiB; the dense
    # (z grid x n) weights and (x grid x n) indicators alone took 137 MiB
    assert peak <= 48 * 2**20


@pytest.mark.parametrize("ties", [False, True])
def test_cell_means_propensity_equals_dense(ties):
    """Counts per cell against dense cell weights times (x grid x n) indicators.

    With ties, x takes few values, so rows sit exactly on x-grid points.
    """
    g = np.random.default_rng(37)
    n = 3000
    z = np.concatenate([g.integers(0, 12, n), [20.0]])
    x = 0.3 * z + g.standard_normal(n + 1)
    if ties:
        x = np.round(x)
    pf = fit_propensity(Dataset(y=x, x=x, z=z), method="cell-means")
    values, inverse, counts = np.unique(z, return_inverse=True, return_counts=True)
    a = (inverse[None, :] == np.arange(len(values))[:, None]) / counts[:, None]
    indicators = (x[None, :] <= pf.x_grid[:, None]).astype(float)
    surface = np.clip(a @ indicators.T, 0.0, 1.0)
    assert np.array_equal(pf.z_grid, values)
    assert np.abs(pf.surface - surface).max() <= 1e-12
    assert np.abs(pf.v_hat - mte._bilinear(values, pf.x_grid, surface, z, x)).max() <= 1e-12
    # a count of rows at or below an increasing grid never falls
    assert set(pf.monotonicity_report.values()) == {0.0}


def test_cell_means_propensity_memory_bounded_at_100k():
    g = np.random.default_rng(38)
    n = 100_000
    z = g.integers(0, 50, n).astype(float)
    x = 0.1 * z + g.standard_normal(n)
    ds = Dataset(y=x, x=x, z=z)
    tracemalloc.start()
    try:
        fit_propensity(ds, method="cell-means")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few (n,) arrays; dense (cells x n) weights and (x grid x n) indicators took 49-72 MiB
    assert peak <= 24 * 2**20


def _dense_local_linear_propensity(z, x, x_grid):
    """Dense (z grid x n) kernel weights at the kept points times (x grid x n) indicators."""
    z_grid = conditioning_grid(z, count=Z_GRID_COUNT)
    a, ok = local_linear_weights(z, z_grid, rule_of_thumb_bandwidth(z))
    return a[ok] @ (x[None, :] <= x_grid[:, None]).T, z_grid[ok], int((~ok).sum())


@pytest.mark.parametrize("gap", [False, True])
def test_local_linear_propensity_equals_dense(gap):
    """The blocked surface against the dense oracle, within 1e-12 of its largest value.

    With a gap in z, the grid points inside it have empty kernel windows.
    """
    g = np.random.default_rng(39)
    n = 3000
    z = g.uniform(-3, 3, n)
    if gap:
        z = np.where(g.random(n) < 0.5, g.uniform(-3, -1, n), g.uniform(1, 3, n))
    x = z + g.standard_normal(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore" if gap else "error")
        pf = fit_propensity(Dataset(y=x, x=x, z=z), method="local-linear")
    raw, z_grid, dropped = _dense_local_linear_propensity(z, x, pf.x_grid)
    assert (dropped > 0) == gap and pf.dropped_grid_points == dropped
    assert np.array_equal(pf.z_grid, z_grid)
    iso = np.array([np.clip(pava_increasing(row), 0.0, 1.0) for row in np.clip(raw, 0.0, 1.0)])
    assert np.abs(pf.surface - iso).max() <= 1e-12 * np.abs(iso).max()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(200, 800),
       method=st.sampled_from(["local-linear", "cell-means"]))
def test_propensity_invariant_to_row_order(seed, n, method):
    g = np.random.default_rng(seed)
    z = g.uniform(-2, 2, n)
    if method == "cell-means":
        z = np.round(2 * z)
    x = z + g.standard_normal(n)
    perm = g.permutation(n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pf = fit_propensity(Dataset(y=x, x=x, z=z), method=method)
        shuffled = fit_propensity(Dataset(y=x[perm], x=x[perm], z=z[perm]), method=method)
    assert np.array_equal(shuffled.z_grid, pf.z_grid)
    assert shuffled.dropped_grid_points == pf.dropped_grid_points
    assert np.abs(shuffled.surface - pf.surface).max() <= 1e-12
    assert np.abs(shuffled.v_hat - pf.v_hat[perm]).max() <= 1e-12


def test_local_linear_propensity_holds_no_grid_by_rows_array():
    g = np.random.default_rng(40)
    n = 100_000
    z = g.uniform(-3, 3, n)
    x = 3.0 * z + g.standard_normal(n)
    ds = Dataset(y=x, x=x, z=z)
    tracemalloc.start()
    try:
        pf = fit_propensity(ds, method="local-linear")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pf.dropped_grid_points == 0
    # a few (n,) arrays and one block's kernel arrays; the dense (z grid x n)
    # weights and (x grid x n) indicators took 72.5 MiB
    assert peak <= 24 * 2**20


def test_propensity_unknown_method():
    ds, _ = _heterogeneous_ds(200, 2)
    with pytest.raises(IvcheckError, match="local-linear, cell-means"):
        fit_propensity(ds, method="kernel")


def test_propensity_monotone_after_isotonization():
    ds, _ = _heterogeneous_ds(2000, 2)
    pf = fit_propensity(ds)
    for i in range(len(pf.z_grid)):
        assert np.all(np.diff(pf.surface[i]) >= -1e-12)
    assert all(v < 0.2 for v in pf.monotonicity_report.values())


def test_uniformity_diagnostic_valid_dgp():
    ds, _ = _heterogeneous_ds(5000, 3)
    pf = fit_propensity(ds)
    rep = uniformity_diagnostic(pf)
    assert rep.overall < 0.05


def test_diagnostic_bins_and_ranks():
    ds, _ = _heterogeneous_ds(2000, 2)
    pf = fit_propensity(ds)
    assert len(uniformity_diagnostic(pf, ds.z[:, 0]).by_bin) == 4
    assert np.array_equal(condition1_diagnostic(pf, ds).v_grid, np.arange(1, 10) / 10)


def test_ks_uniform_sorted_grid():
    n = 1000
    u = (np.arange(n) + 0.5) / n
    assert ks_distance_uniform(u) <= 1.0 / (2 * n) + 1e-9


def test_control_function_closed_form():
    g = np.random.default_rng(4)
    n = 5000
    z = g.uniform(0, 1, n)
    v = g.uniform(0, 1, n)
    x = 3.0 * z + v
    y = 2.0 * x + v
    ds = Dataset(y=y, x=x, z=z)
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)
    errs = []
    for xv in (1.5, 2.0, 2.5):
        for p in (0.3, 0.5, 0.7):
            errs.append(abs(cf.cond_mean(xv, p) - (2.0 * xv + p)))
    assert max(errs) < 0.15


@pytest.mark.parametrize("bandwidths", [{"bandwidth_x": 0.0}, {"bandwidth_p": 0.0},
                                        {"bandwidth_x": -0.5}, {"bandwidth_p": -0.1}])
def test_control_function_rejects_nonpositive_bandwidth(bandwidths):
    ds, _ = _heterogeneous_ds(500, 7)
    cf = fit_control_function(ds, fit_propensity(ds))
    with pytest.raises(InsufficientData, match="bandwidth must be positive"):
        cf._replace(**bandwidths)


def test_control_function_replace_rebuilds_its_rows():
    ds, _ = _heterogeneous_ds(500, 7)
    cf = fit_control_function(ds, fit_propensity(ds))
    wide = cf._replace(bandwidth_x=2 * cf.bandwidth_x)
    assert np.array_equal(wide.rows.bandwidth, [2 * cf.bandwidth_x, cf.bandwidth_p])
    assert np.array_equal(cf.rows.bandwidth, [cf.bandwidth_x, cf.bandwidth_p])
    fresh = type(cf)(cf.x, cf.v_hat, cf.y, 2 * cf.bandwidth_x, cf.bandwidth_p)
    values = [fit.planes(1.5, P_GRID, fit.y)[0] for fit in (wide, fresh, cf)]
    assert np.array_equal(values[0], values[1], equal_nan=True)
    assert not np.array_equal(values[0], values[2], equal_nan=True)
    with pytest.raises(TypeError):
        cf._replace(rows=cf.rows)  # derived from the other fields, never set


def test_control_function_rejects_constant_regressor():
    # a constant regressor has no bandwidth: it is refused before one is computed
    ds, _ = _heterogeneous_ds(500, 7)
    pf = fit_propensity(ds)
    flat = Dataset(y=ds.y, x=np.full(ds.n, 2.0), z=ds.z)
    with pytest.raises(RankDeficient, match="^regressor 'x1' is constant: the control "
                                            "function needs it to vary$"):
        fit_control_function(flat, pf)


def test_control_function_rejects_a_constant_regressor_by_its_values():
    # 0.1 on 1000 rows has sd 4.7e-18, not 0: a bandwidth from it would build a fit on
    # which every conditional mean is off support
    ds, _ = _heterogeneous_ds(1000, 7)
    flat = Dataset(y=ds.y, x=np.full(ds.n, 0.1), z=ds.z, column_names={"x": ["dose"]})
    assert np.std(flat.x) > 0
    with pytest.raises(RankDeficient, match="^regressor 'dose' is constant"):
        fit_control_function(flat, fit_propensity(ds))


def test_control_function_rule_of_thumb_bandwidths():
    # 1.06 sd n^(-1/6) per coordinate, the rank's sd floored at 0.05
    ds, _ = _heterogeneous_ds(2000, 2)
    cf = fit_control_function(ds, fit_propensity(ds))
    assert cf.bandwidth_x == pytest.approx(0.2777776926902765, rel=1e-12)
    assert cf.bandwidth_p == pytest.approx(0.08347339907232283, rel=1e-12)


def test_asf_integrates_over_99_rank_points():
    ds, _ = _heterogeneous_ds(2000, 2)
    pf = fit_propensity(ds)
    asf = estimate_asf(fit_control_function(ds, pf), pf, 2.0)
    assert asf.value == pytest.approx(3.0079520597289795, rel=1e-12)
    assert np.array_equal(P_GRID, np.arange(1, 100) / 100)


def _dense_planes(cf, x0, p0s, w):
    """Oracle: each point's plane from its own product kernel over every row, in row order.

    Returns (values, ok, cond). A plane is kept where MIN_EFFECTIVE_OBS or more
    rows carry weight and its normal matrix A has
    det A > 1e-12 A00 max(A11, hx^2) max(A22, hp^2); cond is A's 2-norm condition.
    """
    values, ok, cond = np.full(len(p0s), np.nan), np.zeros(len(p0s), dtype=bool), np.ones(len(p0s))
    for i, p in enumerate(p0s):
        k = (epanechnikov((cf.x - x0) / cf.bandwidth_x)
             * epanechnikov((cf.v_hat - p) / cf.bandwidth_p))
        d = np.column_stack([np.ones(len(k)), cf.x - x0, cf.v_hat - p])
        dk = d * k[:, None]
        a = dk.T @ d
        scale = a[0, 0] * max(a[1, 1], cf.bandwidth_x**2) * max(a[2, 2], cf.bandwidth_p**2)
        if np.count_nonzero(k) >= MIN_EFFECTIVE_OBS and np.linalg.det(a) > 1e-12 * scale:
            ok[i], values[i], cond[i] = True, np.linalg.solve(a, dk.T @ w)[0], np.linalg.cond(a)
    return values, ok, cond


def _per_point_asf(cf, pf, x):
    """Oracle: the ASF from the dense planes at the rank points of the support.

    Returns the partial integral, the point value and the count of points left out.
    """
    p_lo, p_hi = pf.support_p_given_x(x)
    inside = P_GRID[(p_lo <= P_GRID) & (P_GRID <= p_hi)]
    means, ok, _ = _dense_planes(cf, x, inside, cf.y)
    pts, means = inside[ok], means[ok]
    partial = float(np.trapezoid(means, pts))
    value = float(partial + means[0] * pts[0] + means[-1] * (1.0 - pts[-1]))
    return partial, value, int((~ok).sum())


@pytest.mark.parametrize("x", [2.0, 1.2, 0.5, 3.4])
def test_asf_one_kernel_pass_per_rank_point(x):
    ds, _ = _heterogeneous_ds(2000, 2)
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)
    p_lo, p_hi = pf.support_p_given_x(x)
    with mock.patch.object(mte.ControlFunctionFit, "planes", autospec=True,
                           side_effect=mte.ControlFunctionFit.planes) as planes:
        asf = estimate_asf(cf, pf, x, outcome_bounds=(0.0, 1.0))
    # one call, with every rank point of the support
    planes.assert_called_once()
    assert np.array_equal(planes.call_args.args[2], P_GRID[(p_lo <= P_GRID) & (P_GRID <= p_hi)])
    partial, value, dropped = _per_point_asf(cf, pf, x)
    assert asf.dropped_points == dropped
    # the oracle sums each plane's rows in row order, the engine in blocks of sorted rows
    if asf.is_point:
        assert asf.value == pytest.approx(value, rel=1e-11)
    else:
        # the lower end adds 0.0 times the gap, so it is the partial integral itself
        assert asf.interval[0] == pytest.approx(partial, rel=1e-11)


def test_asf_reports_dropped_rank_points():
    # few rows near x = 0.05: some rank windows there hold under MIN_EFFECTIVE_OBS rows
    ds, _ = _heterogeneous_ds(500, 7)
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)
    asf = estimate_asf(cf, pf, 0.05, outcome_bounds=(0.0, 1.0))
    partial, _, dropped = _per_point_asf(cf, pf, 0.05)
    assert asf.dropped_points == dropped == 6
    assert asf.interval[0] == pytest.approx(partial, rel=1e-11)


def _two_point_regressor_ds(n=1000, seed=0):
    """x in {0, 10} with P(x = 0 | z) = 0.5 + 0.3 (z - 0.5)."""
    g = np.random.default_rng(seed)
    z = g.uniform(0, 1, n)
    x = np.where(g.uniform(0, 1, n) < 0.5 + 0.3 * (z - 0.5), 0.0, 10.0)
    return Dataset(y=x + g.standard_normal(n), x=x, z=z)


def test_cond_mean_without_a_local_plane_is_off_support():
    # the x-kernel at 0 keeps only rows with x = 0, so the weighted rows do not span a
    # plane; a kernel-weighted mean (-0.1098 here) is no local-plane estimate
    ds = _two_point_regressor_ds()
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)
    assert np.count_nonzero(epanechnikov((cf.v_hat - 0.5) / cf.bandwidth_p)
                            * (cf.x == 0.0)) >= MIN_EFFECTIVE_OBS
    values, ok = cf.planes(0.0, [0.5], cf.y)
    assert not ok[0] and np.isnan(values[0])
    with pytest.raises(OffSupport):
        cf.cond_mean(0.0, 0.5)
    with pytest.raises(OffSupport):
        estimate_mte(cf, 0.5, 0.0, 10.0)


def test_mte_zero_at_equal_points():
    ds, _ = _heterogeneous_ds(2000, 6)
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)
    assert estimate_mte(cf, 0.5, 2.0, 2.0) == 0.0


def test_mte_antisymmetry():
    ds, _ = _heterogeneous_ds(3000, 7)
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)
    a = estimate_mte(cf, 0.5, 2.2, 1.8)
    b = estimate_mte(cf, 0.5, 1.8, 2.2)
    assert abs(a + b) < 1e-12


def test_mte_homogeneous_effect():
    g = np.random.default_rng(8)
    n = 5000
    z = g.uniform(0, 1, n)
    v = g.uniform(0, 1, n)
    x = 3.0 * z + v
    y = 2.0 * x + 0.2 * g.standard_normal(n)
    ds = Dataset(y=y, x=x, z=z)
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)
    for p in (0.3, 0.5, 0.7):
        assert abs(estimate_mte(cf, p, 2.2, 1.8) - 0.8) < 0.2


def test_mte_heterogeneous_oracle():
    ds, _ = _heterogeneous_ds()
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)
    for p in np.linspace(0.1, 0.9, 9):
        est = estimate_mte(cf, float(p), 2.2, 1.8)
        assert abs(est - 0.4 * (1.0 + p)) < 0.25


def test_asf_point_full_support():
    ds, _ = _heterogeneous_ds()
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)
    asf = estimate_asf(cf, pf, 2.0)
    assert asf.is_point
    assert abs(asf.value - 3.0) < 0.15  # E[x (1+V)] at x=2 is 2 * 1.5


def test_asf_partial_support_width_exact():
    ds, _ = _heterogeneous_ds()
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)
    lo, hi = float(ds.y.min()), float(ds.y.max())
    asf = estimate_asf(cf, pf, 0.5, outcome_bounds=(lo, hi))
    assert not asf.is_point
    width = asf.interval[1] - asf.interval[0]
    p_lo, p_hi = asf.support
    assert abs(width - (hi - lo) * (1.0 - p_hi + p_lo)) < 1e-10


def test_asf_partial_needs_bounds():
    ds, _ = _heterogeneous_ds(3000, 9)
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)
    with pytest.raises(MissingBounds):
        estimate_asf(cf, pf, 0.5)


@pytest.fixture(scope="module")
def fits_of_partial_support():
    """(cf, pf) whose rank support at x = 0.5 is partial, and full at x = 2."""
    ds, _ = _heterogeneous_ds(2000, 10)
    pf = fit_propensity(ds)
    return fit_control_function(ds, pf), pf


@pytest.mark.parametrize("call, message", [
    (lambda cf, pf: estimate_mte(cf, np.nan, 2.2, 1.8), "p must be finite, got nan"),
    (lambda cf, pf: estimate_mte(cf, 0.5, np.nan, 1.8), "x must be finite, got nan"),
    (lambda cf, pf: estimate_mte(cf, 0.5, 2.2, np.inf), "x_prime must be finite, got inf"),
    (lambda cf, pf: estimate_mte(cf, 0.5, -np.inf, -np.inf), "x must be finite, got -inf"),
    (lambda cf, pf: estimate_asf(cf, pf, np.nan), "x must be finite, got nan"),
    (lambda cf, pf: estimate_asf(cf, pf, 0.5, (np.nan, 1.0)), "y_lower must be finite, got nan"),
    (lambda cf, pf: estimate_asf(cf, pf, 0.5, (0.0, np.inf)), "y_upper must be finite, got inf"),
    (lambda cf, pf: estimate_asf(cf, pf, 0.5, (5.0, 1.0)),
     "outcome bounds must have lower <= upper, got (5.0, 1.0)"),
    (lambda cf, pf: estimate_asf(cf, pf, 2.0, (5.0, 1.0)),
     "outcome bounds must have lower <= upper, got (5.0, 1.0)"),
], ids=["mte-p-nan", "mte-x-nan", "mte-x-prime-inf", "mte-equal-points-inf", "asf-x-nan",
        "asf-lower-nan", "asf-upper-inf", "asf-bounds-reversed-partial",
        "asf-bounds-reversed-full"])
def test_non_finite_evaluation_points_are_refused(fits_of_partial_support, call, message):
    cf, pf = fits_of_partial_support
    assert not estimate_asf(cf, pf, 0.5, (0.0, 1.0)).is_point
    assert estimate_asf(cf, pf, 2.0).is_point
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(cf, pf)


def test_off_support_raises():
    ds, _ = _heterogeneous_ds(2000, 10)
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)
    with pytest.raises(OffSupport):
        estimate_mte(cf, 0.5, 50.0, 50.0)


def test_location_equivariance():
    ds, _ = _heterogeneous_ds(3000, 11)
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)
    ds2 = Dataset(y=ds.y + 10.0, x=ds.x, z=ds.z)
    cf2 = fit_control_function(ds2, pf)
    assert abs(cf2.cond_mean(2.0, 0.5) - cf.cond_mean(2.0, 0.5) - 10.0) < 1e-9
    assert abs(estimate_mte(cf2, 0.5, 2.2, 1.8) - estimate_mte(cf, 0.5, 2.2, 1.8)) < 1e-9


def test_condition1_additive_no_violations():
    g = np.random.default_rng(12)
    n = 3000
    z = g.uniform(0, 1, n)
    x = 2.0 * z + g.uniform(0, 1, n)
    ds = Dataset(y=np.zeros(n), x=x, z=z)
    rep = condition1_diagnostic(fit_propensity(ds), ds)
    assert rep.injectivity_violations == 0


def _rounded_instrument(n, seed):
    """z = round(4 U(0, 1)), x = z + N(0, 1), y = x + N(0, 1): (z, its cell-means control function)."""
    g = np.random.default_rng(seed)
    z = np.round(4 * g.uniform(0, 1, n))
    x = z + g.standard_normal(n)
    ds = Dataset(y=x + g.standard_normal(n), x=x, z=z)
    return z, fit_control_function(ds, fit_propensity(ds, method="cell-means"))


def test_cond_mean_on_collinear_rows_is_off_support():
    # cell-means ranks are piecewise linear in x within a z cell: the window here holds
    # 24 rows of one cell, on one line in (x, v_hat) up to rounding, and solving anyway
    # gave 62.4 for E[Y | X = 4.4, rank 0.5] with Y = X + noise
    z, cf = _rounded_instrument(1000, 0)
    k = epanechnikov((cf.x - 4.4) / cf.bandwidth_x) * epanechnikov((cf.v_hat - 0.5) / cf.bandwidth_p)
    assert np.count_nonzero(k) == 24 and np.unique(z[k > 0]).tolist() == [4.0]
    with pytest.raises(OffSupport):
        cf.cond_mean(4.4, 0.5)


def test_cond_mean_of_a_near_singular_plane_is_off_support():
    # 6 rows of one z cell, enough for MIN_EFFECTIVE_OBS, whose normal matrix passes a
    # singular-value test at 3 eps but not the determinant rule: solving it anyway gave
    # 47006.44 for E[Y | X = 4, rank 0.21] with y in [-4.2, 7.9]
    z, cf = _rounded_instrument(3000, 14)
    k = epanechnikov((cf.x - 4.0) / cf.bandwidth_x) * epanechnikov((cf.v_hat - 0.21) / cf.bandwidth_p)
    assert np.count_nonzero(k) == 6 >= MIN_EFFECTIVE_OBS and np.unique(z[k > 0]).tolist() == [4.0]
    with pytest.raises(OffSupport):
        cf.cond_mean(4.0, 0.21)


@pytest.mark.parametrize("rows_per_block", [1, 7, 3000])
def test_planes_equal_dense_oracle(rows_per_block):
    """Blocks of 1 row, of 7, or one block of every row, against the dense planes.

    Under cell-means ranks many windows hold rows of one cell, near one line in
    (x, rank), so planes are both kept and dropped, and a kept plane's rounding
    grows with the condition of its normal matrix.
    """
    _, cf = _rounded_instrument(3000, 14)
    kept = dropped = 0
    for x0 in (-1.0, 0.5, 2.0, 4.0, 6.5):
        with mock.patch.object(npreg, "LOCAL_LINEAR_BLOCK_CELLS", rows_per_block * len(P_GRID)):
            values, ok = cf.planes(x0, P_GRID, cf.y)
        want, want_ok, cond = _dense_planes(cf, x0, P_GRID, cf.y)
        assert np.array_equal(ok, want_ok) and np.isnan(values[~ok]).all()
        tol = 64 * np.finfo(float).eps * cond[ok] * np.abs(cf.y).max()
        assert (np.abs(values[ok] - want[ok]) <= tol).all()
        kept, dropped = kept + ok.sum(), dropped + (~ok).sum()
    assert kept > 0 and dropped > 0


def test_planes_run_on_rows_sorted_once():
    ds, _ = _heterogeneous_ds(2000, 2)
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)
    with mock.patch.object(npreg._LocalLinear, "sort", side_effect=AssertionError("sorted again")):
        estimate_mte(cf, 0.5, 2.0, 1.5)
        estimate_asf(cf, pf, 2.0)


def test_condition1_flags_pairs_when_x_ignores_z():
    # x independent of z: every bin has the same quantiles up to noise
    g = np.random.default_rng(0)
    n = 1000
    z = g.uniform(0, 1, n)
    x = g.standard_normal(n)
    ds = Dataset(y=g.standard_normal(n), x=x, z=z)
    rep = condition1_diagnostic(fit_propensity(ds), ds)
    assert rep.injectivity_violations == 84
    assert len(rep.flagged_pairs) == 24
    assert all(0.0 <= ks <= 1.0 for *_, ks in rep.flagged_pairs)


def _roundtrip_violations(x, z):
    """Rows where Q(F(x)) != x within cells of z: its values, or Z_BINS quantile bins past MAX_CELLS."""
    values, cells = np.unique(z, return_inverse=True)
    if len(values) > npreg.MAX_CELLS:
        _, cells = mte._quantile_bins(z, mte.Z_BINS)
    violations = 0
    for cell in np.unique(cells):
        xc = x[cells == cell]
        f = np.searchsorted(np.sort(xc), xc, side="right") / len(xc)
        violations += int(np.sum(mte.empirical_quantile(xc, f) != xc))
    return violations


def test_quantile_roundtrip_distinct_values():
    g = np.random.default_rng(13)
    ds = Dataset(y=g.standard_normal(200), x=g.standard_normal(200),
                 z=g.integers(0, 3, 200).astype(float))
    assert _roundtrip_violations(ds.x[:, 0], ds.z[:, 0]) == 0


def test_quantile_roundtrip_many_random_datasets():
    violations = 0
    for i in range(200):
        g = np.random.default_rng(i)
        m = int(g.integers(20, 120))
        z = g.integers(0, 4, m).astype(float) if i % 2 else g.uniform(0, 1, m)
        x = np.round(g.standard_normal(m), 1) if i % 3 == 0 else g.standard_normal(m)
        violations += _roundtrip_violations(x, z)
    assert violations == 0


def test_asf_far_beyond_the_regressor_is_off_support():
    # x = 50 on x in [0, 4]: the rank support is there, but no point of it has a plane
    ds, _ = _heterogeneous_ds(2000, 42)
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)
    assert pf.support_p_given_x(50.0)[1] - pf.support_p_given_x(50.0)[0] > 0.2
    with pytest.raises(OffSupport, match="x=50.0"):
        estimate_asf(cf, pf, 50.0, outcome_bounds=(-100.0, 100.0))


def test_control_function_refuses_a_dataset_of_another_length():
    ds, _ = _heterogeneous_ds(500, 7)
    pf = fit_propensity(ds)
    shorter = Dataset(y=ds.y[:-1], x=ds.x[:-1], z=ds.z[:-1])
    with pytest.raises(InsufficientData, match="^propensity fit does not match the dataset$"):
        fit_control_function(shorter, pf)


def test_condition1_coverage_is_zero_without_a_bin_of_five_rows():
    # 30 rows over 10 instrument bins: 3 rows each, too few for any h_v
    g = np.random.default_rng(3)
    z = g.uniform(0, 1, 30)
    x = z + g.standard_normal(30)
    ds = Dataset(y=x, x=x, z=z)
    rep = condition1_diagnostic(fit_propensity(ds), ds)
    assert rep.coverage == {float(v): 0.0 for v in mte.V_GRID}
    assert rep.injectivity_violations == 0 and rep.flagged_pairs == ()


def test_ks_distance_of_no_sample_is_one():
    assert ks_distance_uniform(np.array([])) == 1.0
