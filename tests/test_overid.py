import numpy as np
import pytest

from ivcheck.data import Dataset, RngSpec
from ivcheck.errors import DegenerateVariance, InsufficientData, RankDeficient, SingularWeight
from ivcheck.estimators import fit_gmm2step, polynomial_instruments
from ivcheck.overid import OveridMethod, chi2_sf, hansen_j, sargan
from ivcheck.simulate import DgpFamily, DgpSpec, generate


def _iv_ds(n=1000, seed=0):
    return generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=n), RngSpec(seed=seed))


def test_just_identified_statistics_zero():
    ds = _iv_ds(400, 1)
    for fn in (sargan, hansen_j):
        rep = fn(ds, instrument_fn=polynomial_instruments(1))
        assert rep.statistic <= 1e-8
        assert rep.dof == 0
        assert rep.p_value == 1.0


def test_sargan_projection_oracle_ten_rows():
    g = np.random.default_rng(2)
    z = g.uniform(-1, 1, 10)
    x = z + 0.3 * g.standard_normal(10)
    y = 2.0 * x + 0.3 * g.standard_normal(10)
    ds = Dataset(y=y, x=x, z=z)
    rep = sargan(ds)
    # explicit projection-matrix oracle: 2SLS residuals, then n R^2 of u on H
    h = np.column_stack([np.ones(10), z, z**2, z**3])
    d = np.column_stack([np.ones(10), x])
    p = h @ np.linalg.inv(h.T @ h) @ h.T
    beta = np.linalg.solve(d.T @ p @ d, d.T @ p @ y)
    u = y - d @ beta
    stat = (u @ p @ u) / (u @ u / 10)
    assert abs(rep.statistic - stat) < 1e-8
    assert rep.dof == 2
    assert rep.method is OveridMethod.SARGAN


def test_sargan_power_on_contaminated_dgp():
    sp = DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=1000, L=1.0, sigma=0.5)
    from scipy import stats
    crit = stats.chi2.ppf(0.90, 2)
    base = RngSpec(seed=3)
    rejections = sum(
        sargan(generate(sp, base.substream(rep))).statistic > crit for rep in range(60)
    )
    assert rejections >= 55  # paper-level power is near 100%


def test_hansen_close_to_sargan_under_homoskedasticity():
    rels = []
    base = RngSpec(seed=4)
    for rep in range(10):
        g = base.substream(rep).generator()
        n = 5000
        z = g.uniform(-3, 3, n)
        x = 3.0 * z + g.standard_normal(n)
        y = 2.0 * x + g.standard_normal(n)  # U independent of Z, homoskedastic
        ds = Dataset(y=y, x=x, z=z)
        s = sargan(ds).statistic
        j = hansen_j(ds).statistic
        rels.append(abs(j - s) / max(s, 1e-12))
    assert np.median(rels) < 0.10


def test_statistics_scale_and_permutation_invariant():
    ds = _iv_ds(500, 5)
    perm = np.random.default_rng(6).permutation(ds.n)
    ds_perm = Dataset(y=ds.y[perm], x=ds.x[perm], z=ds.z[perm])
    ds_scaled = Dataset(y=5.0 * ds.y, x=ds.x, z=ds.z)
    for fn in (sargan, hansen_j):
        s0 = fn(ds).statistic
        assert abs(fn(ds_perm).statistic - s0) < 1e-8
        assert abs(fn(ds_scaled).statistic - s0) < 1e-8


def test_pvalue_upper_tail_chi2():
    from scipy import stats
    ds = _iv_ds(800, 7)
    rep = sargan(ds)
    assert abs(rep.p_value - stats.chi2.sf(rep.statistic, rep.dof)) < 1e-10


@pytest.mark.parametrize("dof", range(1, 61))
def test_chi2_sf_matches_scipy(dof):
    from scipy import stats
    x = np.geomspace(1e-8, 1200.0, 120)
    got = np.array([chi2_sf(float(v), dof) for v in x])
    np.testing.assert_allclose(got, stats.chi2.sf(x, dof), rtol=1e-12, atol=0.0)


def test_chi2_sf_edges():
    from scipy import stats
    for dof in (1, 2, 7):
        assert chi2_sf(0.0, dof) == 1.0
        assert chi2_sf(1e300, dof) == 0.0
    for x in (450.0, 499.0, 500.0, 501.0, 560.0):
        p = chi2_sf(x, 500)
        assert np.isfinite(p) and 0.0 < p < 1.0
        np.testing.assert_allclose(p, stats.chi2.sf(x, 500), rtol=1e-12)


def test_chi2_sf_of_infinity_is_zero():
    for dof in (1, 2, 7):
        assert chi2_sf(float("inf"), dof) == 0.0


def test_rank_deficient_instruments():
    n = 50
    z = np.ones(n)
    x = np.arange(n, dtype=float)
    with pytest.raises(RankDeficient):
        sargan(Dataset(y=x.copy(), x=x, z=z))


def test_fewer_rows_than_instruments_raises_rank_deficient():
    """Three rows and the four degree-3 instruments (1, h(z)): a typed error, not numpy's."""
    g = np.random.default_rng(10)
    z = g.uniform(0, 1, 3)
    x = z + g.standard_normal(3)
    ds = Dataset(y=2.0 * x + g.standard_normal(3), x=x, z=z)
    for fn in (sargan, hansen_j, fit_gmm2step):
        with pytest.raises(RankDeficient, match=r"fewer rows \(3\) than columns \(4\)"):
            fn(ds)


def test_fewer_rows_than_the_floor_raise_insufficient_data():
    """Six rows clear the four instrument columns but not the 10-row floor, one or stacked."""
    g = np.random.default_rng(3)
    z = g.uniform(0, 1, (2, 6))
    x = z + 0.3 * g.standard_normal((2, 6))
    y = 2.0 * x + g.standard_normal((2, 6))
    for ds in (Dataset(y=y[0], x=x[0], z=z[0]), Dataset(y=y, x=x[..., None], z=z[..., None])):
        for fn in (sargan, hansen_j):
            with pytest.raises(InsufficientData, match=r"n >= 10 rows, got 6"):
                fn(ds)


def test_statistics_do_not_depend_on_instrument_units():
    g = np.random.default_rng(8)
    n = 2000
    z = g.uniform(0, 10, n)
    x = 3.0 * z + g.standard_normal(n)
    y = 2.0 * x + g.standard_normal(n)
    base = Dataset(y=y, x=x, z=z)
    ref = (sargan(base).statistic, hansen_j(base).statistic, fit_gmm2step(base).beta)
    for scale in (10.0, 100.0, 1000.0):
        ds = Dataset(y=y, x=x, z=scale * z)
        np.testing.assert_allclose(sargan(ds).statistic, ref[0], rtol=1e-8)
        np.testing.assert_allclose(hansen_j(ds).statistic, ref[1], rtol=1e-8)
        np.testing.assert_allclose(fit_gmm2step(ds).beta, ref[2], rtol=1e-8)


@pytest.mark.parametrize("mu, rtol", [(10.0, 1e-6), (1e2, 1e-6), (1e3, 1e-6), (1e4, 1e-6),
                                      (1e6, 1e-5)])
def test_statistics_do_not_depend_on_location(mu, rtol):
    # (z, x, y) + mu (1, 1, 2) moves only the intercept; the J statistics and the slope stay
    for seed in range(20):
        ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=2000), RngSpec(seed=seed))
        far = Dataset(y=ds.y + 2.0 * mu, x=ds.x + mu, z=ds.z + mu)
        for fn in (lambda d: sargan(d).statistic, lambda d: hansen_j(d).statistic,
                   lambda d: fit_gmm2step(d).beta[1]):
            np.testing.assert_allclose(fn(far), fn(ds), rtol=rtol, atol=0.0)


def test_zero_instrument_column_is_rank_deficient():
    g = np.random.default_rng(9)
    x = g.standard_normal(200)
    ds = Dataset(y=2.0 * x + g.standard_normal(200), x=x, z=np.zeros(200))
    for fn in (sargan, hansen_j, fit_gmm2step):
        with pytest.raises(RankDeficient):
            fn(ds)


def _exact_fit_ds(noise_sd, n=100, seed=0):
    g = np.random.default_rng(seed)
    z = g.uniform(0, 1, n)
    x = z + g.standard_normal(n)
    return Dataset(y=1.0 + 2.0 * x + noise_sd * g.standard_normal(n), x=x, z=z)


@pytest.mark.parametrize("fn", [sargan, hansen_j, fit_gmm2step])
def test_exact_fit_is_degenerate(fn):
    # residuals near 1e-15 would give a statistic made of rounding noise
    with pytest.raises(DegenerateVariance, match="rounding level"):
        fn(_exact_fit_ds(0.0))


@pytest.mark.parametrize("fn", [sargan, hansen_j])
def test_tiny_noise_still_gives_a_statistic(fn):
    rep = fn(_exact_fit_ds(1e-6))
    assert np.isfinite(rep.statistic) and 0.0 <= rep.p_value <= 1.0


def _singular_weight_ds():
    """z in 0..4 with 40 rows each and x = z; the error alternates +-1 where z <= 2 and is 0 above.

    The first-step residuals vanish in two of the five cells, so the
    second-step weight matrix, the mean of h h' u^2, has rank 3 of 4.
    """
    z = np.repeat(np.arange(5.0), 40)
    e = np.where(z <= 2, np.tile([1.0, -1.0], 100), 0.0)
    return Dataset(y=1.0 + 2.0 * z + e, x=z, z=z)


@pytest.mark.parametrize("fn", [hansen_j, fit_gmm2step])
def test_rank_deficient_second_step_weight(fn):
    with pytest.raises(SingularWeight, match="second-step weight matrix is rank deficient"):
        fn(_singular_weight_ds())


def test_sargan_needs_no_second_step_weight():
    # the homoskedastic weight is E_n[hh'] E_n[u^2], full rank: 2SLS fits the cell means exactly
    rep = sargan(_singular_weight_ds())
    assert 0.0 <= rep.statistic < 1e-20 and rep.dof == 2 and rep.p_value == 1.0
