"""End-to-end acceptance checks: one test per release criterion.

Each test exercises the library the way a study would — fixed seeds, Monte
Carlo rejection rates, and closed-form oracles — and states its tolerance
inline.  These are slower than the unit suites (minutes, not seconds).
"""

import numpy as np
import pytest

from ivcheck.clrtest import TestConfig as Cfg
from ivcheck.clrtest import run_test
from ivcheck.clrtest import test_model as model_test
from ivcheck.data import Dataset, RngSpec, empirical_quantile
from ivcheck.estimators import fit_iv, polynomial_instruments
from ivcheck.moments import Conditioning, ModelForm, ModelSpec, _paired, build_for_spec
from ivcheck.npreg import fit_series, series_basis
from ivcheck.overid import hansen_j, sargan
from ivcheck.mte import (
    estimate_asf,
    estimate_mte,
    fit_control_function,
    fit_propensity,
)
from ivcheck.simulate import DgpFamily, DgpSpec, Method, generate, run_study

SEED = RngSpec(seed=0)
ALPHAS = (0.10, 0.05, 0.01)


def _rates(result, label, method="cmi"):
    return tuple(result.rate(label, method, a) for a in ALPHAS)


def _se(result, label, alpha, method="cmi"):
    (cell,) = [c for c in result.cells
               if c.dgp == label and c.method == method and c.alpha == alpha]
    return cell.mc_se


# --- 1. size control: linear IV null at n = 3000 tracks the reference rates ---

@pytest.fixture(scope="module")
def linear_null_n3000():
    return run_study([DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=3000)],
                     [Method.CMI], reps=200, rng=SEED)


def test_01_size_control_linear_iv_null(linear_null_n3000):
    label = DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=3000).label()
    rates = _rates(linear_null_n3000, label)
    targets = (0.080, 0.046, 0.014)
    for rate, target in zip(rates, targets):
        assert abs(rate - target) <= 0.045, (rates, targets)


# --- 2. small-sample over-rejection appears at n = 200 and fades by n = 2000 ---

def test_02_small_n_over_rejection_pattern():
    small = DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=200)
    mid = DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=2000)
    result = run_study([small, mid], [Method.CMI], reps=200, rng=SEED)
    rate_small = result.rate(small.label(), "cmi", 0.10)
    rate_mid = result.rate(mid.label(), "cmi", 0.10)
    assert rate_small >= 0.30, rate_small
    assert rate_mid < rate_small, (rate_mid, rate_small)


# --- 3. power against a peaked exogeneity violation, monotone in its scale ---

@pytest.fixture(scope="module")
def power_by_L():
    specs = [DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=1000, L=L, sigma=0.25)
             for L in (0.1, 0.5, 1.0)]
    return specs, run_study(specs, [Method.CMI], reps=100, rng=SEED)


def test_03_power_high_and_monotone_in_deviation_scale(power_by_L):
    specs, result = power_by_L
    mid = specs[1].label()
    rates_mid = _rates(result, mid)
    assert all(r >= 0.95 for r in rates_mid), rates_mid
    r_lo, r_mid, r_hi = (result.rate(s.label(), "cmi", 0.05) for s in specs)
    tol_hi = 2.0 * (_se(result, specs[2].label(), 0.05) + _se(result, mid, 0.05))
    tol_lo = 2.0 * (_se(result, mid, 0.05) + _se(result, specs[0].label(), 0.05))
    assert r_hi >= r_mid - tol_hi, (r_hi, r_mid)
    assert r_mid >= r_lo - tol_lo, (r_mid, r_lo)


# --- 4. power grows as the deviation gets more peaked (sigma decreases) ---

def test_04_power_nondecreasing_as_sigma_shrinks():
    specs = [DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=1000, L=0.5, sigma=s)
             for s in (1.0, 0.5, 0.25)]
    result = run_study(specs, [Method.CMI], reps=100, rng=SEED)
    rates = [result.rate(s.label(), "cmi", 0.05) for s in specs]
    ses = [_se(result, s.label(), 0.05) for s in specs]
    for i in range(2):
        tol = 2.0 * (ses[i] + ses[i + 1])
        assert rates[i + 1] >= rates[i] - tol, rates


# --- 5. homoskedasticity test: strong heteroskedasticity caught, weak spared ---

def test_05_homoskedasticity_power_and_null_behaviour():
    strong = DgpSpec(family=DgpFamily.HETERO_POWER, n=1000, rho=0.9)
    weak = DgpSpec(family=DgpFamily.HETERO_POWER, n=1000, rho=0.1)
    result = run_study([strong, weak], [Method.CMI], reps=100, rng=SEED)
    assert result.rate(strong.label(), "cmi", 0.05) >= 0.95
    assert result.rate(weak.label(), "cmi", 0.05) < 0.30


# --- 6. conditional-moment test dominates Sargan's statistic cell by cell ---

def test_06_cmi_at_least_as_powerful_as_sargan():
    specs = [DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=n, L=0.5, sigma=0.25)
             for n in (250, 500, 1000)]
    result = run_study(specs, [Method.CMI, Method.SARGAN], reps=100, rng=SEED)
    for spec in specs:
        cmi = result.rate(spec.label(), "cmi", 0.05)
        srg = result.rate(spec.label(), "sargan", 0.05)
        assert cmi >= srg, (spec.label(), cmi, srg)


# --- 7. size under an estimated power transform, with the known lam = -1 bump ---

def test_07_power_transform_size_and_negative_exponent_anomaly():
    lam0 = DgpSpec(family=DgpFamily.BOXCOX_IV_NULL, n=2000, lam=0.0)
    lam_neg = DgpSpec(family=DgpFamily.BOXCOX_IV_NULL, n=2000, lam=-1.0)
    result = run_study([lam0, lam_neg], [Method.CMI], reps=100, rng=RngSpec(seed=21))
    assert result.rate(lam0.label(), "cmi", 0.05) <= 0.08
    assert result.rate(lam_neg.label(), "cmi", 0.10) > result.rate(lam0.label(), "cmi", 0.10)


# --- 8. binary instrument: cell-means moments are identically zero ---

def test_08_binary_instrument_never_rejects():
    rng = np.random.default_rng(5)
    max_abs_theta, rejections = 0.0, 0
    for rep in range(100):
        n = 400
        z = rng.integers(0, 2, n).astype(float)
        v = rng.standard_normal(n)
        x = 1.5 * z + v
        y = 2.0 * x + 0.5 * v + rng.standard_normal(n)
        ds = Dataset(y=y, x=x, z=z)
        spec = ModelSpec(form=ModelForm.LINEAR, conditioning=Conditioning.ON_Z)
        report = model_test(ds, spec, Cfg(method="cell-means"), RngSpec(seed=rep))
        max_abs_theta = max(max_abs_theta, float(np.max(np.abs(report.theta))))
        if any(report.levels[a].reject for a in report.alpha_levels):
            rejections += 1
    assert max_abs_theta <= 1e-10, max_abs_theta
    assert rejections == 0, rejections


# --- 9. closed-form oracles for the estimators and statistics ---

def test_09_oracle_equivalences():
    # just-identified IV equals the covariance ratio
    y = np.array([1.0, 2.0, 0.5, 3.0, 2.5, 1.5])
    x = np.array([0.2, 1.1, -0.3, 2.0, 1.4, 0.7])
    z = np.array([0.5, 1.0, 0.0, 1.8, 1.5, 0.9])
    fit = fit_iv(Dataset(y=y, x=x, z=z))
    b1 = np.mean((y - y.mean()) * (z - z.mean())) / np.mean((x - x.mean()) * (z - z.mean()))
    assert abs(fit.beta[1] - b1) < 1e-10
    assert abs(fit.beta[0] - (y.mean() - b1 * x.mean())) < 1e-10

    # overidentification statistic equals the explicit projection formula
    g = np.random.default_rng(2)
    z10 = g.uniform(-1, 1, 10)
    x10 = z10 + 0.3 * g.standard_normal(10)
    y10 = 2.0 * x10 + 0.3 * g.standard_normal(10)
    ds10 = Dataset(y=y10, x=x10, z=z10)
    rep = sargan(ds10)
    h = np.column_stack([np.ones(10), z10, z10**2, z10**3])
    d = np.column_stack([np.ones(10), x10])
    p = h @ np.linalg.inv(h.T @ h) @ h.T
    beta = np.linalg.solve(d.T @ p @ d, d.T @ p @ y10)
    u = y10 - d @ beta
    assert abs(rep.statistic - (u @ p @ u) / (u @ u / 10)) < 1e-8
    assert rep.dof == 2

    # just-identified instrument sets give a null statistic for both variants
    g = np.random.default_rng(3)
    z_j = g.uniform(-1, 1, 400)
    x_j = z_j + 0.3 * g.standard_normal(400)
    ds_j = Dataset(y=2.0 * x_j + 0.3 * g.standard_normal(400), x=x_j, z=z_j)
    for fn in (sargan, hansen_j):
        rep_j = fn(ds_j, instrument_fn=polynomial_instruments(1))
        assert rep_j.statistic <= 1e-8 and rep_j.dof == 0 and rep_j.p_value == 1.0

    # series smoother equals the normal-equations solution
    g = np.random.default_rng(1)
    zs = g.uniform(-2, 2, 200)
    ws = zs**2 + g.standard_normal(200)
    sfit = fit_series(ws, zs, order=4)
    b = series_basis(zs, 4, zs.min(), zs.max())
    gamma = np.linalg.solve(b.T @ b, b.T @ ws)
    th, _ = sfit.evaluate(0.0)
    oracle = series_basis(np.array([0.0]), 4, zs.min(), zs.max())[0] @ gamma
    assert abs(th - oracle) < 1e-10


# --- 10. plugging in the first-step estimate costs less as n grows ---

def test_10_plugin_gap_shrinks_with_n():
    def corrected_gap(n, seed):
        g = np.random.default_rng(seed)
        z = g.uniform(-3, 3, n)
        uv = g.multivariate_normal([0, 0], [[1, 0.5], [0.5, 2]], size=n, method="cholesky")
        x = 3.0 * z + uv[:, 1]
        y = 2.0 * x + uv[:, 0]
        ds = Dataset(y=y, x=x, z=z)
        spec = ModelSpec(form=ModelForm.LINEAR, conditioning=Conditioning.ON_Z)
        ms_hat = build_for_spec(fit_iv(ds), spec, ds)
        rep_hat = run_test(ms_hat, None, Cfg(), RngSpec(seed=seed))
        ms_true = _paired([y - 2.0 * x], ["resid"], ds.z[:, 0], "residual at the true slope")
        rep_true = run_test(ms_true, None, Cfg(), RngSpec(seed=seed))
        return abs(rep_hat.theta_corrected(0.05) - rep_true.theta_corrected(0.05))

    gaps = {n: np.median([corrected_gap(n, 1000 + i) for i in range(50)])
            for n in (1000, 4000)}
    assert gaps[4000] < gaps[1000], gaps


# --- 11. control-function recovery of marginal effects and the ASF ---

def test_11_control_function_recovery():
    g = np.random.default_rng(42)
    n = 5000
    z = g.uniform(0, 1, n)
    v = g.uniform(0, 1, n)
    x = 3.0 * z + v
    y = x * (1.0 + v) + 0.1 * g.standard_normal(n)
    ds = Dataset(y=y, x=x, z=z)
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)

    x1, x0 = 2.2, 1.8
    for p in np.linspace(0.1, 0.9, 9):
        truth = (x1 - x0) * (1.0 + p)
        assert abs(estimate_mte(cf, float(p), x1, x0) - truth) <= 0.25, p

    asf = estimate_asf(cf, pf, 2.0)
    assert asf.is_point
    assert abs(asf.value - 3.0) <= 0.15, asf.value

    lo, hi = float(ds.y.min()), float(ds.y.max())
    partial = estimate_asf(cf, pf, 0.5, outcome_bounds=(lo, hi))
    assert not partial.is_point
    p_lo, p_hi = partial.support
    width = partial.interval[1] - partial.interval[0]
    assert abs(width - (hi - lo) * (1.0 - p_hi + p_lo)) < 1e-10


# --- 12. the inverse conditional CDF reproduces every observed value ---

def test_12_quantile_roundtrip_identity():
    g = np.random.default_rng(0)
    total = 0
    for rep in range(1000):
        n = int(g.integers(30, 120))
        z = g.integers(0, 4, n).astype(float)
        x = g.normal(size=n)
        if rep % 3 == 0:  # force ties in x within cells
            x = np.round(x, 1)
        g.normal(size=n)  # the outcome draw, kept so later samples match their seeds
        for cell in np.unique(z):
            xc = x[z == cell]
            f = np.searchsorted(np.sort(xc), xc, side="right") / len(xc)
            total += int(np.sum(empirical_quantile(xc, f) != xc))
    assert total == 0, total


# --- 13. study results are bit-identical across worker counts ---

def test_13_determinism_across_worker_counts():
    specs = [DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=300)]
    r1 = run_study(specs, [Method.CMI], reps=20, rng=RngSpec(seed=7), jobs=1)
    r3 = run_study(specs, [Method.CMI], reps=20, rng=RngSpec(seed=7), jobs=3)
    assert r1.to_rows() == r3.to_rows()


# --- 14-17. local-linear and cell means under the size contract, with power floors ---
#
# Written down before the first run, and not to be moved or re-seeded to make a change
# pass. Size: linear-iv-null at n = 3000, 400 replications, the 5% rate within
# 0.05 +- 0.033. Power: linear-iv-power (L = 0.5, sigma = 0.25) at n = 1000, 100
# replications, the 5% rate at least 0.90. Seeds: size 2201 (local-linear) and 2202 (cell
# means), power 2203 (local-linear) and 2204 (cell means); each replication's data come from
# substream(rep) of its seed and its draws from substream(rep).substream(7919), as in
# run_study. Cell means run on z rounded to the 19 values np.round(3 z) / 3, which is also
# the instrument; no DGP family rounds z, so they call test_model directly.

SIZE_BAND = 0.033
POWER_FLOOR = 0.90
IV_SPEC = ModelSpec(form=ModelForm.LINEAR, conditioning=Conditioning.ON_Z)


def _cell_means_rate(spec, reps, seed):
    """The 5% rejection rate of cell means on `spec` with z rounded to thirds."""
    rejections = 0
    for rep in range(reps):
        sub = RngSpec(seed=seed).substream(rep)
        ds = generate(spec, sub)
        z = np.round(3.0 * ds.z[:, 0]) / 3.0
        rounded = Dataset(y=ds.y, x=ds.x[:, 0], z=z)
        report = model_test(rounded, IV_SPEC, Cfg(method="cell-means"), sub.substream(7919))
        rejections += report.reject(0.05)
    return rejections / reps


def test_14_size_control_local_linear():
    spec = DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=3000)
    result = run_study([spec], [Method.CMI], reps=400, cfg=Cfg(method="local-linear"),
                       rng=RngSpec(seed=2201))
    rate = result.rate(spec.label(), "cmi", 0.05)
    assert abs(rate - 0.05) <= SIZE_BAND, rate


def test_15_size_control_cell_means_on_19_values():
    rate = _cell_means_rate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=3000), 400, 2202)
    assert abs(rate - 0.05) <= SIZE_BAND, rate


def test_16_power_floor_local_linear():
    spec = DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=1000, L=0.5, sigma=0.25)
    result = run_study([spec], [Method.CMI], reps=100, cfg=Cfg(method="local-linear"),
                       rng=RngSpec(seed=2203))
    rate = result.rate(spec.label(), "cmi", 0.05)
    assert rate >= POWER_FLOOR, rate


def test_17_power_floor_cell_means_on_19_values():
    spec = DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=1000, L=0.5, sigma=0.25)
    rate = _cell_means_rate(spec, 100, 2204)
    assert rate >= POWER_FLOOR, rate


# --- 18-23. the homoskedasticity test under the size contract, with power floors ---
#
# Written down before the first run, and not to be moved or re-seeded to make a change
# pass. The homoskedastic null: hetero-power at rho = 0 under its family's spec (linear,
# conditioning on x, exogeneity and homoskedasticity), 400 replications, the 5% rate within
# 0.05 +- SIZE_BAND, at n = 1000 and 3000. Power: hetero-power at rho = 0.9, n = 1000, 100
# replications, the 5% rate at least POWER_FLOOR. Local-linear runs through run_study;
# cell means run on x rounded to the 19 values np.round(3 x) / 3 with y = 2 x + u rebuilt
# on the rounded x, so the null still holds, through test_model with the replications'
# streams of tests 15 and 17. Seeds: size 2401 and 2402 (local-linear, n = 1000 and
# 3000), 2403 and 2404 (cell means), power 2405 (local-linear) and 2406 (cell means).
# The left skew of a squared residual's studentized local mean over-rejects the null
# (ROADMAP item 24): the tests that fail are strict xfails, with the first run's rate, so
# that a fix must flip them.

HETERO_SPEC = ModelSpec(form=ModelForm.LINEAR, conditioning=Conditioning.ON_X,
                        homoskedastic=True)


def _local_linear_rate(spec, reps, seed):
    """The 5% rejection rate of local-linear on `spec` through run_study."""
    result = run_study([spec], [Method.CMI], reps=reps, cfg=Cfg(method="local-linear"),
                       rng=RngSpec(seed=seed))
    return result.rate(spec.label(), "cmi", 0.05)


def _homoskedastic_cell_means_rate(spec, reps, seed):
    """The 5% rejection rate of cell means on `spec` with x rounded to thirds."""
    rejections = 0
    for rep in range(reps):
        sub = RngSpec(seed=seed).substream(rep)
        ds = generate(spec, sub)
        x = ds.x[:, 0]
        rounded = np.round(3.0 * x) / 3.0
        ds = Dataset(y=ds.y + 2.0 * (rounded - x), x=rounded, z=rounded)
        report = model_test(ds, HETERO_SPEC, Cfg(method="cell-means"), sub.substream(7919))
        rejections += report.reject(0.05)
    return rejections / reps


@pytest.mark.parametrize("n, seed", [
    pytest.param(1000, 2401, marks=pytest.mark.xfail(strict=True, reason="rate 0.26 at 5%")),
    pytest.param(3000, 2402, marks=pytest.mark.xfail(strict=True, reason="rate 0.13 at 5%")),
])
def test_18_19_homoskedastic_size_local_linear(n, seed):
    rate = _local_linear_rate(DgpSpec(family=DgpFamily.HETERO_POWER, n=n, rho=0.0), 400, seed)
    assert abs(rate - 0.05) <= SIZE_BAND, rate


@pytest.mark.parametrize("n, seed", [
    pytest.param(1000, 2403, marks=pytest.mark.xfail(strict=True, reason="rate 0.3475 at 5%")),
    pytest.param(3000, 2404, marks=pytest.mark.xfail(strict=True, reason="rate 0.1325 at 5%")),
])
def test_20_21_homoskedastic_size_cell_means_on_19_values(n, seed):
    rate = _homoskedastic_cell_means_rate(DgpSpec(family=DgpFamily.HETERO_POWER, n=n, rho=0.0),
                                          400, seed)
    assert abs(rate - 0.05) <= SIZE_BAND, rate


def test_22_homoskedastic_power_floor_local_linear():
    rate = _local_linear_rate(DgpSpec(family=DgpFamily.HETERO_POWER, n=1000, rho=0.9), 100, 2405)
    assert rate >= POWER_FLOOR, rate


@pytest.mark.xfail(strict=True, reason="rate 0.89 at 5%")
def test_23_homoskedastic_power_floor_cell_means_on_19_values():
    rate = _homoskedastic_cell_means_rate(DgpSpec(family=DgpFamily.HETERO_POWER, n=1000, rho=0.9),
                                          100, 2406)
    assert rate >= POWER_FLOOR, rate


# --- 24-26. a binary outcome under the size contract ---
#
# Written down before the first run, and not to be moved or re-seeded to make a change
# pass. A correctly specified linear probability model: x takes the 19 values
# np.round(3 U(-3, 3)) / 3, y ~ Bernoulli(0.5 + 0.15 x), and the data are
# Dataset(y, x, z=x); the spec tests exogeneity conditioning on x, n = 1000, 400
# replications, the 5% rate within 0.05 +- SIZE_BAND, one test per smoother. Replication
# rep draws its data from np.random.default_rng([2501, rep]) and its multiplier draws from
# RngSpec(seed=2501).substream(rep). An edge cell of about 26 rows at P = 0.05 holds one y
# value in about a quarter of the runs, and its residual, a constant, has no within-cell
# variance; local-linear windows and the series fit read it with s near 0 and reject (ROADMAP
# item 26). The tests that fail are strict xfails, with the first run's rate.

LPM_SPEC = ModelSpec(form=ModelForm.LINEAR, conditioning=Conditioning.ON_X)


def _lpm_rate(method, reps, seed):
    """The 5% rejection rate of `method` on the linear probability model."""
    rejections = 0
    for rep in range(reps):
        g = np.random.default_rng([seed, rep])
        x = np.round(3.0 * g.uniform(-3.0, 3.0, 1000)) / 3.0
        y = (g.uniform(size=1000) < 0.5 + 0.15 * x).astype(float)
        report = model_test(Dataset(y=y, x=x, z=x), LPM_SPEC, Cfg(method=method),
                            RngSpec(seed=seed).substream(rep))
        rejections += report.reject(0.05)
    return rejections / reps


@pytest.mark.parametrize("method", [
    pytest.param("series", marks=pytest.mark.xfail(strict=True, reason="rate 0.7025 at 5%")),
    pytest.param("local-linear", marks=pytest.mark.xfail(strict=True, reason="rate 0.465 at 5%")),
    pytest.param("cell-means", marks=pytest.mark.xfail(strict=True, reason="rate 0.195 at 5%")),
])
def test_24_26_binary_outcome_size(method):
    rate = _lpm_rate(method, 400, 2501)
    assert abs(rate - 0.05) <= SIZE_BAND, rate
