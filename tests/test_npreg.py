import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivcheck import npreg
from ivcheck.data import RngSpec
from ivcheck.errors import EmptyWindow, InsufficientData, RankDeficient, TooManyCells
from ivcheck.npreg import (
    default_series_order,
    epanechnikov,
    fit_cell_means,
    fit_local_linear,
    fit_series,
    cell_means_smoother,
    local_linear_smoother,
    local_linear_weights,
    nonlinear_step_series_order,
    rule_of_thumb_bandwidth,
    series_basis,
    series_smoother,
)
from ivcheck.simulate import DgpFamily, DgpSpec, generate
from ivcheck.estimators import fit_iv


def test_series_exact_linear():
    g = np.random.default_rng(0)
    z = g.uniform(-2, 2, 100)
    w = 2.0 + 3.0 * z
    fit = fit_series(w, z, order=3)
    for v in (-1.5, 0.0, 1.2):
        th, s = fit.evaluate(v)
        assert abs(th - (2.0 + 3.0 * v)) < 1e-10
        assert s <= 1e-8


def test_series_basis_collinear_on_three_values():
    # degree 5 on 3 distinct z values: the basis has rank 3, not 6
    z = np.repeat([-1.0, 0.0, 1.0], 20)
    with pytest.raises(RankDeficient, match="series basis"):
        series_smoother(z, z[:, None], 5, -1.0, 1.0)


def test_series_normal_equations_oracle():
    g = np.random.default_rng(1)
    z = g.uniform(-2, 2, 200)
    w = z**2 + g.standard_normal(200)
    fit = fit_series(w, z, order=4)
    lo, hi = z.min(), z.max()
    b = series_basis(z, 4, lo, hi)
    gamma = np.linalg.solve(b.T @ b, b.T @ w)
    th, _ = fit.evaluate(0.0)
    oracle = series_basis(np.array([0.0]), 4, lo, hi)[0] @ gamma
    assert abs(th - oracle) < 1e-10


def test_series_sup_shrinks_with_n():
    def med_sup(n):
        sups = []
        for rep in range(20):
            ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=n),
                          RngSpec(seed=55).substream(rep))
            resid = fit_iv(ds).residuals
            fit = fit_series(resid, ds.z[:, 0])
            grid = np.linspace(np.quantile(ds.z, 0.01), np.quantile(ds.z, 0.99), 100)
            sups.append(max(abs(fit.evaluate(v)[0]) for v in grid))
        return np.median(sups)

    assert med_sup(3000) < med_sup(500)


def test_series_insufficient_data():
    with pytest.raises(InsufficientData):
        fit_series(np.arange(3.0), np.arange(3.0), order=5)


def test_local_linear_insufficient_data():
    with pytest.raises(InsufficientData, match="n >= 10"):
        fit_local_linear(np.arange(5.0), np.arange(5.0), bandwidth=1.0)


def test_series_order_capped_at_distinct_values():
    g = np.random.default_rng(8)
    z = g.integers(0, 7, 400).astype(float)
    w = np.sin(z) + g.standard_normal(400)
    levels = np.unique(z)
    # degree 6 through 7 support points: the series fit is the cell means
    theta, _ = fit_series(w, z).evaluate(levels)
    assert np.allclose(theta, fit_cell_means(w, z).evaluate(levels)[0], atol=1e-8)


def test_series_default_orders():
    assert default_series_order(200) == 16
    assert default_series_order(20) == 16 or default_series_order(20) <= 18
    assert nonlinear_step_series_order(2000) == 7
    assert nonlinear_step_series_order(200) <= nonlinear_step_series_order(20000)


def test_series_basis_span_matches_raw_powers():
    z = np.linspace(0.0, 10.0, 40)
    b = series_basis(z, 3, 0.0, 10.0)
    raw = np.column_stack([z**k for k in range(4)])
    # same column space: projecting raw powers on the basis reproduces them
    proj = b @ np.linalg.lstsq(b, raw, rcond=None)[0]
    assert np.allclose(proj, raw, atol=1e-8)


@pytest.mark.parametrize("order", [0, 1, 2, 7, 16])
def test_series_basis_is_legvander(order):
    g = np.random.default_rng(order)
    z = np.concatenate([g.uniform(-2.0, 3.0, 500), [-2.0, 3.0, 0.5]])
    b = series_basis(z, order, -2.0, 3.0)
    t = 2.0 * (z - -2.0) / (3.0 - -2.0) - 1.0
    assert np.array_equal(b, np.polynomial.legendre.legvander(t, order))
    assert b.flags.c_contiguous


def test_local_linear_constant():
    g = np.random.default_rng(2)
    z = g.uniform(-1, 1, 60)
    w = np.full(60, 4.2)
    fit = fit_local_linear(w, z, bandwidth=0.5)
    for v in (-0.5, 0.0, 0.5):
        th, _ = fit.evaluate(v)
        assert abs(th - 4.2) < 1e-10


@pytest.mark.parametrize("fitter", [fit_series, fit_local_linear,
                                    lambda w, z: rule_of_thumb_bandwidth(z)],
                         ids=["series", "local-linear", "bandwidth"])
def test_public_fit_refuses_a_constant_column_as_constant(fitter):
    """Not for its series order of 0 or its rule-of-thumb bandwidth of 0 (np.std of 50 copies
    of 0.1 rounds to 2.8e-17)."""
    w = np.random.default_rng(8).standard_normal(50)
    with pytest.raises(RankDeficient, match="^conditioning variable is constant$"):
        fitter(w, np.full(50, 0.1))


def test_cell_means_fit_a_constant_column_as_one_cell():
    w = np.random.default_rng(8).standard_normal(50)
    theta, s = fit_cell_means(w, np.full(50, 0.1)).evaluate(0.1)
    assert theta == pytest.approx(w.mean(), abs=1e-15)
    assert s == pytest.approx(w.std(ddof=1) / np.sqrt(50), rel=1e-12)


def test_local_linear_hand_oracle():
    z = np.array([-1.0, -0.5, 0.0, 0.3, 0.6, 0.9, 1.4, -1.3, 1.1, 0.45])
    w = np.array([0.2, 0.5, 1.1, 0.9, 1.7, 2.1, 2.4, -0.1, 2.2, 1.3])
    h = 1.0
    fit = fit_local_linear(w, z, bandwidth=h)
    v = 0.1
    k = epanechnikov((z - v) / h)
    d = np.column_stack([np.ones(len(z)), z - v])
    coef = np.linalg.solve(d.T @ (d * k[:, None]), d.T @ (k * w))
    th, _ = fit.evaluate(v)
    assert abs(th - coef[0]) < 1e-10


def test_local_linear_sine_recovery():
    g = np.random.default_rng(3)
    z = g.uniform(-3, 3, 5000)
    w = np.sin(z) + g.standard_normal(5000)
    fit = fit_local_linear(w, z)
    grid = np.linspace(-2.8, 2.8, 50)
    err = max(abs(fit.evaluate(v)[0] - np.sin(v)) for v in grid)
    assert err < 0.1


def test_local_linear_empty_window_reported():
    z = np.array([0.0, 0.1, 0.2, 5.0, 5.1, 5.2, 5.3, 5.4, 5.5, 5.6])
    grid = np.array([0.1, 2.5, 5.3])
    a, ok = local_linear_weights(z, grid, bandwidth=0.5)
    assert ok[0] and ok[2] and not ok[1]


def _dense_local_linear(z, w, grid, h):
    """The local-linear kernel as one dense (grid x n) pass: (a, ok, coef, psi)."""
    du = z[None, :] - grid[:, None]
    k = epanechnikov(du / h)
    s0 = k.sum(axis=1)
    s1 = (k * du).sum(axis=1)
    s2 = (k * du**2).sum(axis=1)
    denom = s0 * s2 - s1**2
    scale = np.maximum(s0 * np.maximum(s2, h**2), 1e-300)
    ok = (s0 > 0) & (denom > 1e-12 * scale)
    safe = np.where(ok, denom, 1.0)[:, None]
    a = np.where(ok[:, None], k * (s2[:, None] - s1[:, None] * du) / safe, 0.0)
    slope = np.where(ok[:, None], k * (s0[:, None] * du - s1[:, None]) / safe, 0.0)
    coef = a[ok] @ w
    beta = slope[ok] @ w
    resid = w.T[:, None, :] - coef.T[:, :, None] - beta.T[:, :, None] * du[ok][None]
    return a, ok, coef, a[ok][None] * resid


def _assert_near_dense(z, w, grid, h):
    """Both kernel entry points against the dense oracle, within 1e-12 of the largest value.

    The smoother holds the kept points in sorted order, so its coef and cov
    are compared with the oracle's on the sorted grid.
    """
    a, ok, _, _ = _dense_local_linear(z, w, grid, h)
    _, _, coef, psi = _dense_local_linear(z, w, np.sort(grid), h)
    flat = psi.reshape(-1, len(z))
    smoother, ok_smoother = local_linear_smoother(z, w, grid, h)
    a_blocked, ok_weights = local_linear_weights(z, grid, h)
    assert np.array_equal(ok_smoother, ok) and np.array_equal(ok_weights, ok)
    theta = smoother.process(grid[ok])[0][0].T  # at the kept points in the caller's order
    for got, want in ((smoother.coef, coef), (smoother.cov, flat @ flat.T), (a_blocked, a),
                      (theta, a[ok] @ w)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    return ok


@pytest.mark.parametrize("rows_per_block", [1, 7, 1000])
@pytest.mark.parametrize("m", [1, 2])
def test_blocked_local_linear_equals_dense(rows_per_block, m):
    g = np.random.default_rng(31)
    n = 300
    # a gap in z empties the windows of the grid points inside it
    z = np.concatenate([g.uniform(-3, -1, n // 2), g.uniform(1, 3, n - n // 2)])
    w = g.standard_normal((n, m))
    grid = np.linspace(-2.9, 2.9, 60)
    h = 0.4
    # blocks of 1 row, of 7, or one block of every row
    with mock.patch.object(npreg, "LOCAL_LINEAR_BLOCK_CELLS", rows_per_block * len(grid)):
        ok = _assert_near_dense(z, w, grid, h)
    assert 0 < (~ok).sum() < len(grid)


@pytest.mark.parametrize("rows_per_block", [1, 7, 1000])
def test_local_linear_window_edges_equal_dense(rows_per_block):
    """An unsorted grid with a duplicate point, rows at g +- h and a point beyond the data."""
    g = np.random.default_rng(33)
    h = 0.3
    grid = np.array([0.7, -1.1, 2.9, 0.1, 0.7, -2.35, 9.0])
    # rows at each window's rounded ends, and one float step to either side of them
    ends = np.concatenate([grid[:-1] - h, grid[:-1] + h])
    edges = np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])
    z = g.permutation(np.concatenate([edges, g.uniform(-3, 3, 200)]))
    w = g.standard_normal((len(z), 2))
    with mock.patch.object(npreg, "LOCAL_LINEAR_BLOCK_CELLS", rows_per_block * len(grid)):
        ok = _assert_near_dense(z, w, grid, h)
    assert ok.tolist() == [True] * 6 + [False]  # no row within h of 9.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 300), m=st.integers(1, 2),
       decimals=st.sampled_from([0, 1, None]), h=st.floats(0.2, 1.5))
def test_local_linear_lines_at_a_permuted_grid(seed, n, m, decimals, h):
    """Random z with a gap and ties, and a shuffled grid with duplicates and points beyond the data.

    The smoother on a permuted grid holds the same lines bit for bit, with ok
    permuted the same way, and the weights keep the same points, with rows at
    them within 1e-12 of the dense oracle's largest value and zero elsewhere.
    Rounding in the kernel sums grows with the condition of a line's design,
    s0 max(s2, h^2) / (s0 s2 - s1^2), which is large where a few rows at the
    edge of a window barely span a line, so such a row gets that factor of eps.
    """
    g = np.random.default_rng(seed)
    z = np.where(g.random(n) < 0.5, g.uniform(-3, -1, n), g.uniform(1, 3, n))
    if decimals is not None:
        z = np.round(z, decimals)
    w = g.standard_normal((n, m))
    grid = np.concatenate([g.uniform(-4, 4, g.integers(2, 30)), [-6.0, 6.0]])
    grid = g.permutation(np.concatenate([grid, grid[: g.integers(1, 4)]]))
    perm = g.permutation(len(grid))
    smoother, ok = local_linear_smoother(z, w, grid, h)
    permuted, ok_permuted = local_linear_smoother(z, w, grid[perm], h)
    assert np.array_equal(ok_permuted, ok[perm])
    assert np.array_equal(permuted.coef, smoother.coef)
    assert np.array_equal(permuted.cov, smoother.cov)
    a, ok_weights = local_linear_weights(z, grid, h)
    a_dense, ok_dense, _, _ = _dense_local_linear(z, w, grid, h)
    assert np.array_equal(ok_weights, ok) and np.array_equal(ok_dense, ok)
    assert not ok[np.abs(grid) == 6.0].any() and not a[~ok].any()
    du = z[None, :] - grid[ok, None]
    k = epanechnikov(du / h)
    s0, s1, s2 = k.sum(axis=1), (k * du).sum(axis=1), (k * du**2).sum(axis=1)
    cond = s0 * np.maximum(s2, h**2) / (s0 * s2 - s1**2)
    tol = np.maximum(1e-12, 64 * np.finfo(float).eps * cond) * np.abs(a_dense[ok]).max(initial=0.0)
    assert (np.abs(a[ok] - a_dense[ok]) <= tol[:, None]).all()


def test_rule_of_thumb_bandwidth():
    z = np.random.default_rng(4).standard_normal(1000)
    assert abs(rule_of_thumb_bandwidth(z) - 1.06 * np.std(z) * 1000**-0.2) < 1e-12


def test_cell_means_exact():
    z = np.array([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
    w = np.array([0.5, 1.5, 1.5, 2.5, 2.5, 3.5])
    fit = fit_cell_means(w, z)
    for v, m in ((1.0, 1.0), (2.0, 2.0), (3.0, 3.0)):
        th, _ = fit.evaluate(v)
        assert th == m


def test_cell_means_group_by_oracle():
    g = np.random.default_rng(5)
    z = g.integers(0, 5, 300).astype(float)
    w = g.standard_normal(300)
    fit = fit_cell_means(w, z)
    for v in np.unique(z):
        th, s = fit.evaluate(v)
        cell = w[z == v]
        assert abs(th - cell.mean()) < 1e-12
        assert abs(s - cell.std(ddof=1) / np.sqrt(len(cell))) < 1e-10


def test_cell_means_leaves_out_one_row_cells():
    z = np.array([1.0, 1.0, 2.0, 3.0, 3.0])
    w = np.array([0.5, 1.5, 7.0, 2.5, 3.5])
    fit = fit_cell_means(w, z)
    assert fit.evaluate(3.0)[0] == 3.0
    with pytest.raises(EmptyWindow, match="too few observations"):
        fit.evaluate(2.0)


def test_cell_means_too_many_cells():
    z = np.arange(100.0)
    with pytest.raises(TooManyCells):
        fit_cell_means(np.zeros(100), z)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), lead=st.sampled_from([(), (3,)]), m=st.integers(1, 3),
       g=st.integers(1, 12), n=st.integers(1, 60))
def test_influence_cov_sums_blocks(seed, lead, m, g, n):
    """Blocks of row influences sum to the dense sum_i psi_i psi_i', within 1e-12 of its largest entry.

    The rows are cut into random blocks, and each block's rows influence a
    random slice of the points only, as a kernel block's rows or a cell's do.
    """
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((*lead, m, g, n)) * rng.uniform(0.1, 10.0, n)
    cuts = np.unique(np.r_[0, rng.integers(0, n + 1, rng.integers(0, 6)), n])
    blocks = []
    for start, stop in zip(cuts[:-1], cuts[1:]):
        lo, hi = np.sort(rng.choice(g + 1, 2, replace=False))
        psi[..., :lo, start:stop] = psi[..., hi:, start:stop] = 0.0
        blocks.append((slice(lo, hi), psi[..., lo:hi, start:stop]))
    flat = psi.reshape(*lead, m * g, n)
    want = flat @ flat.swapaxes(-1, -2)
    got = npreg._influence_cov(iter(blocks), lead, m, g)
    assert got.shape == want.shape == (*lead, m * g, m * g)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _dense_cell_means(z, w):
    """Cell means as dense (cells x n) weights and (m x cells x n) influences: (ok, coef, cov)."""
    values, inverse, counts = np.unique(z, return_inverse=True, return_counts=True)
    member = inverse[None, :] == np.arange(len(values))[:, None]
    ok = np.array([np.ptp(w[row], axis=0).min() > 0 for row in member])
    a, counts = (member / counts[:, None])[ok], counts[ok]
    coef = a @ w
    resid = w.T[:, None, :] - coef.T[:, :, None]
    psi = (a * np.sqrt(counts / (counts - 1))[:, None])[None] * resid
    flat = psi.reshape(-1, psi.shape[-1])
    return ok, coef, flat @ flat.T


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 400), m=st.integers(1, 3),
       decimals=st.sampled_from([0, 1, None]))
def test_cell_means_equal_dense(seed, n, m, decimals):
    """Per-cell sums over counts against the dense weights, within 1e-12 of the largest value.

    Beside the random cells: a one-row cell, a cell constant in the first
    column, one constant in the last column only when m > 1, and w rounded to
    ties.
    """
    g = np.random.default_rng(seed)
    z = np.concatenate([np.round(3 * g.uniform(-1, 1, n)), [9.0], [-7.0] * 4, [8.0] * 3])
    w = g.standard_normal((len(z), m)) * (1.0 + z[:, None] ** 2)
    if decimals is not None:
        w = np.round(w, decimals)
    w[z == -7.0, 0] = 0.25
    w[z == 8.0, -1] = -1.5
    w[z == 8.0, 0] = [0.0, 1.0, 2.0]
    ok, coef, cov = _dense_cell_means(z, w)
    smoother, ok_smoother = cell_means_smoother(z, w)
    assert np.array_equal(ok_smoother, ok)
    assert not ok[np.unique(z) == 9.0] and not ok[np.unique(z) == -7.0]
    assert ok[np.unique(z) == 8.0] == (m == 1)
    for got, want in ((smoother.coef, coef), (smoother.cov, cov)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_cell_means_memory_bounded_at_200k():
    g = np.random.default_rng(36)
    n = 200_000
    z = g.integers(0, 50, n).astype(float)
    w = g.standard_normal((n, 2))
    tracemalloc.start()
    try:
        smoother, ok = cell_means_smoother(z, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.all() and smoother.cov.shape == (100, 100)
    # a few (n,) and (n, 2) arrays; dense (cells x n) weights alone would take 76 MiB
    assert peak <= 32 * 2**20


def _selector(smoother):
    """The smoother with its point design read through the dense one-hot selector of its coefficients."""
    eye = np.eye(len(smoother.coef))
    return smoother._replace(design=lambda v: eye[smoother.design(v)])


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 300), m=st.integers(1, 3),
       method=st.sampled_from(["local-linear", "cell-means"]))
@example(seed=1, n=41, m=1, method="local-linear")  # broke bit identity under fancy indexing
def test_point_design_reads_the_selector_by_index(seed, n, m, method):
    """A point smoother read at its points by index equals the dense one-hot selector bit for bit.

    Local-linear grids are shuffled, with duplicates and points beyond the
    data; cell means are read at their cells, shuffled and repeated. Points
    that are not among the smoother's (beyond the data, a one-row cell, a
    value between cells) raise EmptyWindow naming them.
    """
    g = np.random.default_rng(seed)
    if method == "local-linear":
        z = g.uniform(-2, 2, n)
        grid = np.concatenate([g.uniform(-1.5, 1.5, g.integers(2, 30)), [-5.0, 5.0]])
        grid = g.permutation(np.concatenate([grid, grid[: g.integers(1, 4)]]))
        w = g.standard_normal((n, m)) * (1.0 + z[:, None] ** 2)
        smoother, ok = local_linear_smoother(z, w, grid, g.uniform(0.3, 1.0))
        points, missing = grid[ok], grid[~ok]
    else:
        z = np.concatenate([np.round(3 * g.uniform(-1, 1, n)), [9.0]])
        w = g.standard_normal((len(z), m)) * (1.0 + z[:, None] ** 2)
        smoother, ok = cell_means_smoother(z, w)
        values = np.unique(z)
        points = g.choice(values[ok], size=2 * ok.sum())
        missing = np.concatenate([values[~ok], values[ok][:1] + 0.5])
    assert points.size and missing.size
    index = smoother.design(points)
    assert index.dtype.kind == "i" and index.shape == points.shape
    draws = [s.process(points) for s in (smoother, _selector(smoother))]
    for got, want in zip(*((theta[0], s[0], np.random.default_rng(seed).standard_normal(
            (200, draw_map.shape[1])) @ draw_map[0]) for theta, s, draw_map in draws)):
        assert _same_bits(got, want)
    with pytest.raises(EmptyWindow) as raised:
        smoother.design(g.permutation(np.concatenate([points, missing])))
    assert sorted(raised.value.points) == sorted(missing.tolist())


def test_point_design_of_no_points_raises_empty_window():
    z = w = np.linspace(0, 1, 50)
    with pytest.raises(EmptyWindow) as raised:
        fit_local_linear(w, z, bandwidth=0.1).evaluate(np.array([5.0, 6.0]))
    assert raised.value.points == [5.0, 6.0]
    with pytest.raises(EmptyWindow):
        npreg._point_design(np.array([]), np.array([0.0]))


def test_smoother_linearity_and_scale():
    g = np.random.default_rng(6)
    z = g.uniform(-1, 1, 150)
    w1 = g.standard_normal(150)
    w2 = g.standard_normal(150)
    for fitter in (lambda w: fit_series(w, z, order=4),
                   lambda w: fit_local_linear(w, z, bandwidth=0.7),
                   lambda w: fit_cell_means(w, np.round(z))):
        fa, fb = fitter(w1), fitter(w2)
        fc = fitter(2.0 * w1 - 3.0 * w2)
        v = 0.0
        assert abs(fc.evaluate(v)[0] - (2.0 * fa.evaluate(v)[0] - 3.0 * fb.evaluate(v)[0])) < 1e-9
        fs = fitter(5.0 * w1)
        assert abs(fs.evaluate(v)[1] - 5.0 * fa.evaluate(v)[1]) < 1e-9


@pytest.mark.parametrize("fitter", [lambda w, z: fit_series(w, z),
                                    lambda w, z: fit_local_linear(w, z, 0.4)],
                         ids=["series", "local-linear"])
def test_public_fit_of_zero_moments_has_zero_standard_errors(fitter):
    """The public fit reads theta and s from the same root as the sup test, which is total:
    moments at 0 give theta = 0 and s = 0, and only the sup test refuses them."""
    z = np.random.default_rng(7).uniform(-1, 1, 200)
    v = np.linspace(-0.8, 0.8, 9)
    theta, s = fitter(np.zeros(200), z).evaluate(v)
    assert not theta.any() and not s.any()
    assert fitter(np.zeros(200), z).evaluate(0.1) == (0.0, 0.0)
