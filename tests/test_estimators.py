import tracemalloc
from unittest import mock

import numpy as np
import pytest

from ivcheck import estimators
from ivcheck.data import Dataset, RngSpec
from ivcheck.errors import DomainError, RankDeficient, RelevanceWarning
from ivcheck.estimators import (
    LAMBDA_GRID,
    FitMethod,
    boxcox_transform,
    fit_boxcox,
    fit_gmm2step,
    fit_iv,
    fit_ols,
    polynomial_instruments,
)
from ivcheck.simulate import DgpFamily, DgpSpec, generate


def _linear_ds(n=200, seed=0):
    g = np.random.default_rng(seed)
    x = g.uniform(-3, 3, n)
    y = 1.0 + 2.0 * x
    return Dataset(y=y, x=x, z=x)


def test_ols_noiseless_recovery():
    fit = fit_ols(_linear_ds())
    assert abs(fit.beta[0] - 1.0) < 1e-12
    assert abs(fit.beta[1] - 2.0) < 1e-12


def test_ols_five_point_hand_oracle():
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = np.array([0.0, 1.0, 2.0, 3.0, 5.0])
    fit = fit_ols(Dataset(y=y, x=x, z=x))
    # normal equations: slope = Sxy/Sxx = 12/10, intercept = 2.2 - 1.2 * 2
    assert abs(fit.beta[1] - 1.2) < 1e-10
    assert abs(fit.beta[0] - (-0.2)) < 1e-10


def test_ols_large_sample_near_truth():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_OLS_NULL, n=100_000), RngSpec(seed=1))
    fit = fit_ols(ds)
    assert abs(fit.beta[0] - 0.0) < 0.02
    assert abs(fit.beta[1] - 2.0) < 0.02


def test_ols_residual_identity_and_orthogonality():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_OLS_NULL, n=500), RngSpec(seed=2))
    fit = fit_ols(ds)
    design = np.column_stack([np.ones(ds.n), ds.x])
    assert np.allclose(fit.residuals, ds.y - design @ fit.beta, atol=1e-12)
    assert np.all(np.abs(design.T @ fit.residuals / ds.n) < 1e-10)


def test_ols_rank_deficient():
    x = np.column_stack([np.arange(10.0), 2.0 * np.arange(10.0)])
    with pytest.raises(RankDeficient):
        fit_ols(Dataset(y=np.arange(10.0), x=x, z=x))


def test_fewer_rows_than_regressors_raises_rank_deficient():
    """A design wider than it is tall has no least squares: a typed error naming both counts."""
    with pytest.raises(RankDeficient, match=r"fewer rows \(1\) than columns \(2\)"):
        fit_ols(Dataset(y=[1.0], x=[2.0], z=[3.0]))
    g = np.random.default_rng(12)
    x, z = g.standard_normal((3, 3)), g.standard_normal((3, 3))
    ds = Dataset(y=g.standard_normal(3), x=x, z=z)
    for fit in (fit_ols, fit_iv):
        with pytest.raises(RankDeficient, match=r"fewer rows \(3\) than columns \(4\)"):
            fit(ds)


def test_iv_equals_ols_when_z_is_x():
    g = np.random.default_rng(3)
    x = g.uniform(-2, 2, 300)
    y = 3.0 * x + g.standard_normal(300)
    ds = Dataset(y=y, x=x, z=x)
    assert np.allclose(fit_iv(ds).beta, fit_ols(ds).beta, atol=1e-12)


def test_iv_covariance_ratio_oracle():
    y = np.array([1.0, 2.0, 0.5, 3.0, 2.5, 1.5])
    x = np.array([0.2, 1.1, -0.3, 2.0, 1.4, 0.7])
    z = np.array([0.5, 1.0, 0.0, 1.8, 1.5, 0.9])
    ds = Dataset(y=y, x=x, z=z)
    fit = fit_iv(ds)
    # explicit two-pass covariance oracle
    cov_yz = np.mean((y - y.mean()) * (z - z.mean()))
    cov_xz = np.mean((x - x.mean()) * (z - z.mean()))
    b1 = cov_yz / cov_xz
    assert abs(fit.beta[1] - b1) < 1e-10
    assert abs(fit.beta[0] - (y.mean() - b1 * x.mean())) < 1e-10


SIX_ROWS = Dataset(y=np.array([1.0, 2.0, 0.5, 3.0, 2.5, 1.5]),
                   x=np.array([0.2, 1.1, -0.3, 2.0, 1.4, 0.7]),
                   z=np.array([0.5, 1.0, 0.0, 1.8, 1.5, 0.9]))

# beta of each first step, pinned bit for bit, as the reduced form of `_linear_step`
# computes it: one least squares of (X, Y) on Z, then beta = Pi^-1 gamma
PINNED_BETA = {
    ("ols", "six"): (0.7966714905933431, 1.121562952243126),
    ("iv", "six"): (0.792364990689013, 1.126629422718808),
    ("ols", 0): (0.03506970007765082, 2.00477461829241),
    ("ols", 1): (0.02761162422846989, 1.9907502280966964),
    ("ols", 2): (-0.0029593511414051053, 2.0369421371856493),
    ("ols", 3): (0.010649973163615082, 2.0595490062325985),
    ("ols", 4): (-0.0031513636403116955, 2.005322181175571),
    ("ols", 5): (-0.05935725162850799, 1.9608349171520978),
    ("ols", 6): (-0.005070622664990183, 1.9847360545430695),
    ("ols", 7): (-0.0930549420350324, 2.0106750114981544),
    ("ols", 8): (0.0525945094107937, 1.9698017354461559),
    ("ols", 9): (0.01527324728922849, 1.9779963666936262),
    ("iv", 0): (0.01919928013512464, 2.006608071924784),
    ("iv", 1): (0.05509832180590659, 2.0070034724137598),
    ("iv", 2): (0.04117565382989582, 2.0031062921410148),
    ("iv", 3): (0.035366550934165415, 2.0073664884809985),
    ("iv", 4): (-0.031353738669488665, 1.98650578312464),
    ("iv", 5): (-0.0518538170958438, 2.0007847797726255),
    ("iv", 6): (-0.019151099636365704, 2.002472831760603),
    ("iv", 7): (-0.0762978017298612, 2.0066646618424278),
    ("iv", 8): (0.00912017240247284, 2.0048428668193488),
    ("iv", 9): (-0.0031161353430762184, 2.0042302742245774),
}
PINNED_SIX_RESIDUALS = {
    "ols": (-0.02098408104196836, -0.030390738060781963, 0.03979739507959473,
            -0.039797395079595344, 0.1331403762662804, -0.08176555716353118),
    "iv": (-0.017690875232774683, -0.03165735567970218, 0.0456238361266294,
           -0.045623836126629236, 0.1303538175046559, -0.0810055865921786),
}
# the same fits from lstsq (OLS) and the normal equations of E_n[Z X'] (IV), which
# the reduced form replaced: it stays within 1e-12 relative of them
PARENT_BETA = {
    ("ols", "six"): (0.7966714905933439, 1.1215629522431254),
    ("iv", "six"): (0.7923649906890134, 1.1266294227188076),
    ("ols", 0): (0.035069700077650756, 2.004774618292409),
    ("ols", 1): (0.02761162422846995, 1.9907502280966969),
    ("ols", 2): (-0.002959351141405312, 2.0369421371856484),
    ("ols", 3): (0.01064997316361524, 2.059549006232598),
    ("ols", 4): (-0.0031513636403118295, 2.0053221811755715),
    ("ols", 5): (-0.059357251628508086, 1.9608349171520982),
    ("ols", 6): (-0.005070622664990154, 1.98473605454307),
    ("ols", 7): (-0.09305494203503237, 2.010675011498154),
    ("ols", 8): (0.05259450941079371, 1.969801735446157),
    ("ols", 9): (0.015273247289228681, 1.9779963666936264),
    ("iv", 0): (0.01919928013512456, 2.006608071924787),
    ("iv", 1): (0.05509832180590693, 2.007003472413761),
    ("iv", 2): (0.04117565382989533, 2.0031062921410143),
    ("iv", 3): (0.03536655093416566, 2.0073664884809994),
    ("iv", 4): (-0.03135373866948858, 1.9865057831246435),
    ("iv", 5): (-0.05185381709584381, 2.0007847797726246),
    ("iv", 6): (-0.01915109963636617, 2.0024728317606026),
    ("iv", 7): (-0.07629780172986118, 2.006664661842427),
    ("iv", 8): (0.009120172402472882, 2.0048428668193514),
    ("iv", 9): (-0.003116135343077166, 2.0042302742245757),
}
PARENT_SIX_RESIDUALS = {
    "ols": (-0.020984081041969027, -0.030390738060781963, 0.039797395079593734,
            -0.0397973950795949, 0.1331403762662804, -0.08176555716353162),
    "iv": (-0.017690875232774905, -0.03165735567970174, 0.04562383612662885,
           -0.04562383612662879, 0.1303538175046559, -0.0810055865921786),
}


def _pinned_fit(method, case):
    """(ds, fit) of a PINNED_BETA key: SIX_ROWS, or `generate` at n = 500 with that seed."""
    if case == "six":
        ds = SIX_ROWS
    else:
        family = DgpFamily.LINEAR_OLS_NULL if method == "ols" else DgpFamily.LINEAR_IV_NULL
        ds = generate(DgpSpec(family=family, n=500), RngSpec(seed=case))
    return ds, {"ols": fit_ols, "iv": fit_iv}[method](ds)


@pytest.mark.parametrize("method, case", list(PINNED_BETA))
def test_linear_fit_vcov_is_hc0_sandwich(method, case):
    ds, fit = _pinned_fit(method, case)
    # A^-1 (sum_i z_i z_i' u_i^2 / n) A^-T / n, A = E_n[Z X'] and Z = X for OLS
    dx = np.column_stack([np.ones(ds.n), ds.x])
    dz = dx if method == "ols" else np.column_stack([np.ones(ds.n), ds.z])
    a_inv = np.linalg.inv(dz.T @ dx / ds.n)
    meat = sum(np.outer(zi, zi) * ui**2 for zi, ui in zip(dz, fit.residuals)) / ds.n
    want = a_inv @ meat @ a_inv.T / ds.n
    assert np.abs(fit.vcov - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("method, case", list(PINNED_BETA))
def test_linear_fit_beta_and_residuals_pinned(method, case):
    ds, fit = _pinned_fit(method, case)
    beta = np.array(PINNED_BETA[method, case])
    assert np.array_equal(fit.beta, beta)
    if case == "six":
        assert np.array_equal(fit.residuals, np.array(PINNED_SIX_RESIDUALS[method]))
    else:
        assert np.array_equal(fit.residuals, ds.y - np.column_stack([np.ones(ds.n), ds.x]) @ beta)
    np.testing.assert_allclose(fit.beta, PARENT_BETA[method, case], rtol=1e-12, atol=0)
    if case == "six":
        np.testing.assert_allclose(fit.residuals, PARENT_SIX_RESIDUALS[method], rtol=1e-12, atol=0)


@pytest.mark.parametrize("mu", [0.0, 1e2, 1e3, 1e4, 1e6])
def test_linear_slopes_accurate_far_from_the_origin(mu):
    """Regressors and instruments at mu + noise: the slopes stay within 1e-10 of the centred formula.

    The reference is the centred covariance ratio in long double. Normal
    equations of E_n[Z X'] square the conditioning that the mean brings in,
    and refuse the fit as rank deficient from mu = 1e4.
    """
    g = np.random.default_rng(0)
    n = 1000
    x = mu + g.standard_normal(n)
    z = x + 0.5 * g.standard_normal(n)
    y = 2.0 * x + g.standard_normal(n)
    ds = Dataset(y=y, x=x, z=z)
    xl, zl, yl = (np.asarray(v, dtype=np.longdouble) for v in (x, z, y))
    xc, zc, yc = xl - xl.mean(), zl - zl.mean(), yl - yl.mean()
    for fit, want in ((fit_ols(ds), (xc @ yc) / (xc @ xc)), (fit_iv(ds), (zc @ yc) / (zc @ xc))):
        assert abs(fit.beta[1] - float(want)) <= 1e-10 * abs(float(want)), fit.method


def _lstsq_first_stage_f(ds):
    """The first-stage F by one least squares per column of x: the minimum over the columns."""
    dz = np.column_stack([np.ones(ds.n), ds.z])
    kz = dz.shape[1]
    fs = []
    for xj in ds.x.T:
        g, *_ = np.linalg.lstsq(dz, xj, rcond=None)
        rss1 = float(np.sum((xj - dz @ g) ** 2))
        rss0 = float(np.sum((xj - xj.mean()) ** 2))
        fs.append((rss0 - rss1) / (kz - 1) / (rss1 / (ds.n - kz)))
    return min(fs)


def test_first_stage_f_matches_per_column_least_squares():
    g = np.random.default_rng(16)
    n = 500
    z = g.standard_normal((n, 2))
    x = z @ np.array([[1.0, 0.3], [0.2, 0.6]]) + g.standard_normal((n, 2))
    y = x @ np.array([2.0, -1.0]) + g.standard_normal(n)
    ds = Dataset(y=y, x=x, z=z)
    fit = fit_iv(ds)
    assert fit.first_stage_f == pytest.approx(_lstsq_first_stage_f(ds), rel=1e-10, abs=0)
    # a weak instrument: the same F, below the threshold that warns
    z = g.standard_normal(n)
    x = 0.02 * z + g.standard_normal(n)
    ds = Dataset(y=2.0 * x + g.standard_normal(n), x=x, z=z)
    with pytest.warns(RelevanceWarning):
        fit = fit_iv(ds)
    assert fit.first_stage_f < estimators.RELEVANCE_F_THRESHOLD
    assert fit.first_stage_f == pytest.approx(_lstsq_first_stage_f(ds), rel=1e-10, abs=0)


def test_iv_weak_instrument_warns():
    g = np.random.default_rng(15)
    n = 200
    z = g.standard_normal(n)
    x = 0.01 * z + g.standard_normal(n)
    y = 2.0 * x + g.standard_normal(n)
    with pytest.warns(RelevanceWarning):
        fit_iv(Dataset(y=y, x=x, z=z))


def test_iv_large_sample_near_truth():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=100_000), RngSpec(seed=4))
    fit = fit_iv(ds)
    assert abs(fit.beta[1] - 2.0) < 0.05
    assert fit.method is FitMethod.IV


def test_iv_instrument_orthogonality():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=2000), RngSpec(seed=5))
    fit = fit_iv(ds)
    zd = np.column_stack([np.ones(ds.n), ds.z])
    assert np.all(np.abs(zd.T @ fit.residuals / ds.n) < 1e-10)


def test_iv_binary_instrument_cell_means_zero():
    g = np.random.default_rng(6)
    n = 400
    z = g.integers(0, 2, n).astype(float)
    x = 1.5 * z + g.standard_normal(n)
    y = 2.0 * x + g.standard_normal(n)
    fit = fit_iv(Dataset(y=y, x=x, z=z))
    for v in (0.0, 1.0):
        assert abs(np.mean(fit.residuals[z == v])) < 1e-10


def test_polynomial_instruments_take_a_1d_z_as_one_column():
    z = np.random.default_rng(9).uniform(-2.0, 5.0, 100)
    h = polynomial_instruments(3)
    assert h(z).shape == (100, 3)
    assert np.array_equal(h(z), h(z[:, None]))


def test_gmm_just_identified_equals_iv():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=1000), RngSpec(seed=7))
    g = fit_gmm2step(ds, instrument_fn=polynomial_instruments(1))
    iv = fit_iv(ds)
    assert np.allclose(g.beta, iv.beta, atol=1e-10)


def test_gmm_overidentified_near_truth():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=100_000), RngSpec(seed=8))
    fit = fit_gmm2step(ds)
    assert abs(fit.beta[0] - 0.0) < 0.05
    assert abs(fit.beta[1] - 2.0) < 0.05


def test_gmm_eight_row_matrix_oracle():
    g = np.random.default_rng(9)
    z = g.uniform(-1, 1, 8)
    x = z + 0.1 * g.standard_normal(8)
    y = 2.0 * x + 0.1 * g.standard_normal(8)
    ds = Dataset(y=y, x=x, z=z)
    fit = fit_gmm2step(ds)
    # direct matrix oracle for both steps
    h = np.column_stack([np.ones(8), z, z**2, z**3])
    d = np.column_stack([np.ones(8), x])
    w1 = np.linalg.inv(h.T @ h / 8)
    g1 = h.T @ d / 8
    b1 = np.linalg.solve(g1.T @ w1 @ g1, g1.T @ w1 @ (h.T @ y / 8))
    u1 = y - d @ b1
    omega = (h * u1[:, None]**2).T @ h / 8
    w2 = np.linalg.inv(omega)
    b2 = np.linalg.solve(g1.T @ w2 @ g1, g1.T @ w2 @ (h.T @ y / 8))
    assert np.allclose(fit.beta, b2, atol=1e-8)
    assert np.allclose(fit.beta_first_step, b1, atol=1e-8)
    assert np.allclose(fit.vcov, np.linalg.inv(g1.T @ w2 @ g1) / 8, rtol=0.0, atol=1e-8)
    # (z, x, y) + mu (1, 1, 2) moves only the intercept: beta0 -> beta0 + mu (2 - beta1), so
    # the covariance is that of the reparametrisation T = [[1, -mu], [0, 1]]
    mu = 100.0
    far = fit_gmm2step(Dataset(y=y + 2.0 * mu, x=x + mu, z=z + mu))
    t = np.array([[1.0, -mu], [0.0, 1.0]])
    np.testing.assert_allclose(far.vcov, t @ fit.vcov @ t.T, rtol=1e-8, atol=0.0)


def test_boxcox_transform_branches():
    x = np.array([1.0, 2.0, 4.0])
    assert np.allclose(boxcox_transform(x, 0.0), np.log(x))
    assert np.allclose(boxcox_transform(x, 1.0), x - 1.0)
    with pytest.raises(DomainError):
        boxcox_transform(np.array([-1.0, 2.0]), 0.5)


def test_boxcox_transform_near_lambda_zero():
    """At lambda = 4e-17 the transform is log x to rounding, not (x^lambda - 1) / lambda = 0."""
    x = np.array([0.01, 0.5, 1.0, 1.5, 2.0, 4.0, 13.9, 1e3])
    got = boxcox_transform(x, 4e-17)
    assert np.all(np.abs(got - np.log(x)) <= 1e-15 * np.abs(np.log(x)))


def test_boxcox_log_model_fits_next_to_lambda_zero():
    """The first refinement grid around a coarse minimum of -0.05 ends at 4.2e-17, not at 0.

    There x^lambda - 1 rounds to 0 on every row, which made the linear step
    rank deficient and the fit raise.
    """
    g = np.random.default_rng(14)
    n = 1000
    x = 1.0 + g.uniform(0.2, 3.8, n)
    y = 2.0 * np.log(x) + 0.3 * g.standard_normal(n)
    fit = fit_boxcox(Dataset(y=y, x=x, z=x))
    assert abs(fit.lam) < 0.05
    d = np.column_stack([np.ones(n), boxcox_transform(x, fit.lam)])
    assert np.allclose((fit.beta0, fit.beta1), np.linalg.lstsq(d, y, rcond=None)[0], rtol=1e-8)


def test_boxcox_noiseless_lambda_one():
    g = np.random.default_rng(10)
    x = g.uniform(0.5, 10.0, 200)
    y = 1.0 + 2.0 * (x - 1.0)
    fit = fit_boxcox(Dataset(y=y, x=x, z=x))
    assert abs(fit.lam - 1.0) < 1e-6
    assert abs(fit.beta0 - 1.0) < 1e-8
    assert abs(fit.beta1 - 2.0) < 1e-8


def test_boxcox_log_branch_recovery():
    ds = generate(DgpSpec(family=DgpFamily.BOXCOX_OLS_NULL, n=5000, lam=0.0), RngSpec(seed=11))
    fit = fit_boxcox(ds)
    # within one coarse grid step of 0
    assert abs(fit.lam) <= 0.05 + 1e-9


def test_boxcox_profile_curve_brute_force_oracle():
    g = np.random.default_rng(12)
    x = g.uniform(0.5, 5.0, 50)
    y = 2.0 * np.log(x) + 0.3 * g.standard_normal(50)
    ds = Dataset(y=y, x=x, z=x)
    fit = fit_boxcox(ds)
    for lam, sse in fit.profile_sse_curve:
        xt = boxcox_transform(x, lam)
        d = np.column_stack([np.ones(50), xt])
        b, *_ = np.linalg.lstsq(d, y, rcond=None)
        r = y - d @ b
        assert abs(sse - r @ r) < 1e-8


def test_boxcox_residuals_consistent():
    ds = generate(DgpSpec(family=DgpFamily.BOXCOX_IV_NULL, n=800, lam=0.0), RngSpec(seed=13))
    fit = fit_boxcox(ds, use_iv=True)
    xt = boxcox_transform(ds.x[:, 0], fit.lam)
    assert np.allclose(fit.residuals, ds.y - fit.beta0 - fit.beta1 * xt, atol=1e-10)


def _boxcox_reference(ds, use_iv):
    """Per-lambda loop of the Box-Cox profile: (lam, beta, residuals) at the first minimum."""
    x, y = ds.x[:, 0], ds.y
    dz = np.column_stack([np.ones(ds.n), ds.z[:, 0]])

    def sweep(grid):
        top = None
        for lam in grid:
            d = np.column_stack([np.ones(ds.n), boxcox_transform(x, lam)])
            if use_iv:
                beta = np.linalg.solve(dz.T @ d, dz.T @ y)
            else:
                beta = np.linalg.lstsq(d, y, rcond=None)[0]
            resid = y - d @ beta
            if top is None or resid @ resid < top[0]:
                top = (resid @ resid, float(lam), beta, resid)
        return top

    best = sweep(LAMBDA_GRID)
    span = float(np.max(np.diff(LAMBDA_GRID)))
    for _ in range(3):
        span /= 4.0
        best = sweep(np.linspace(best[1] - 4.0 * span, best[1] + 4.0 * span, 17))
    return best[1:]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("use_iv", [False, True], ids=["ols", "iv"])
def test_boxcox_matches_per_lambda_loop(use_iv, seed):
    family = DgpFamily.BOXCOX_IV_NULL if use_iv else DgpFamily.BOXCOX_OLS_NULL
    ds = generate(DgpSpec(family=family, n=500, lam=0.0), RngSpec(seed=seed))
    fit = fit_boxcox(ds, use_iv=use_iv)
    lam, beta, resid = _boxcox_reference(ds, use_iv)
    assert 0.0 in fit.profile_sse_curve[:, 0]
    assert fit.lam == lam
    assert np.max(np.abs(np.array([fit.beta0, fit.beta1]) - beta)) < 1e-10
    assert np.max(np.abs(fit.residuals - resid)) < 1e-10
    # lambda blocks of 7 rows: the first minimum must survive the block edges
    with mock.patch.object(estimators, "BOXCOX_BLOCK_CELLS", 7 * ds.n):
        small = fit_boxcox(ds, use_iv=use_iv)
    assert small.lam == fit.lam
    assert np.max(np.abs(small.residuals - fit.residuals)) < 1e-12
    assert np.allclose(small.profile_sse_curve, fit.profile_sse_curve, rtol=1e-12, atol=0)


@pytest.mark.parametrize("use_iv", [False, True], ids=["ols", "iv"])
def test_boxcox_rank_deficient_step(use_iv):
    g = np.random.default_rng(15)
    x = g.uniform(0.5, 5.0, 100)
    # OLS: a constant regressor; IV: a constant instrument
    ds = Dataset(y=g.standard_normal(100), x=np.full(100, 2.0) if not use_iv else x,
                 z=np.full(100, 3.0) if use_iv else x)
    with pytest.raises(RankDeficient, match="Box-Cox linear step"):
        fit_boxcox(ds, use_iv=use_iv)


@pytest.mark.parametrize("use_iv", [False, True], ids=["ols", "iv"])
def test_boxcox_memory_bounded_at_200k(use_iv):
    g = np.random.default_rng(16)
    n = 200_000
    z = g.uniform(0.0, 1.0, n)
    x = 0.5 + 2.0 * z + g.uniform(0.0, 1.0, n)
    ds = Dataset(y=np.log(x) + 0.1 * g.standard_normal(n), x=x, z=z)
    tracemalloc.start()
    try:
        fit_boxcox(ds, use_iv=use_iv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


def test_boxcox_domain_error():
    with pytest.raises(DomainError):
        fit_boxcox(Dataset(y=np.arange(5.0), x=np.arange(-2.0, 3.0), z=np.arange(5.0)))


def test_boxcox_default_grid():
    assert len(LAMBDA_GRID) == 81
    assert LAMBDA_GRID[0] == -2.0 and LAMBDA_GRID[-1] == 2.0
    assert np.allclose(np.diff(LAMBDA_GRID), 0.05)


def test_affine_equivariance():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_OLS_NULL, n=300), RngSpec(seed=14))
    fit = fit_ols(ds)
    ds2 = Dataset(y=3.0 * ds.y + 5.0, x=ds.x, z=ds.z)
    fit2 = fit_ols(ds2)
    assert abs(fit2.beta[1] - 3.0 * fit.beta[1]) < 1e-10
    assert abs(fit2.beta[0] - (3.0 * fit.beta[0] + 5.0)) < 1e-10
    assert np.allclose(fit2.residuals, 3.0 * fit.residuals, atol=1e-10)


def test_sqrt_n_rate_of_plugin():
    def med_err(n):
        errs = []
        for rep in range(50):
            ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=n),
                          RngSpec(seed=100).substream(rep))
            errs.append(abs(fit_iv(ds).beta[1] - 2.0))
        return np.median(errs)

    ratio = med_err(1000) / med_err(4000)
    assert 1.4 <= ratio <= 2.6  # 2.0 +/- 30%
