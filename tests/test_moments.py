import warnings

import numpy as np
import pytest

from ivcheck.clrtest import test_model as model_test
from ivcheck.data import Dataset, RngSpec
from ivcheck.errors import EvaluatorDomainError
from ivcheck.estimators import boxcox_transform, fit_iv, fit_ols
from ivcheck.moments import (
    Conditioning,
    ModelForm,
    ModelSpec,
    build_for_spec,
    build_parametric_grid,
)
from ivcheck.simulate import DgpFamily, DgpSpec, generate

IV_SPEC = ModelSpec(form=ModelForm.LINEAR, conditioning=Conditioning.ON_Z)
OLS_HOMO_SPEC = ModelSpec(form=ModelForm.LINEAR, conditioning=Conditioning.ON_X,
                          homoskedastic=True)


def test_exogeneity_sign_symmetry():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=500), RngSpec(seed=1))
    ms = build_for_spec(fit_iv(ds), IV_SPEC, ds)
    assert ms.n_moments == 2
    values = np.column_stack([sign * ms.base[:, idx] for _, idx, sign in ms.moments])
    assert np.allclose(values.sum(axis=1), 0.0, atol=1e-12)


def test_exogeneity_moment_conditions():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=2000), RngSpec(seed=2))
    ms = build_for_spec(fit_iv(ds), IV_SPEC, ds)
    label, idx, sign = ms.moments[0]
    w1 = sign * ms.base[:, idx]
    assert abs(np.mean(w1)) < 1e-10
    assert abs(np.mean(w1 * ds.z[:, 0])) < 1e-10
    assert np.array_equal(ms.conditioning, ds.z[:, 0])


def test_homoskedasticity_four_moments_centered():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_OLS_NULL, n=800), RngSpec(seed=3))
    ms = build_for_spec(fit_ols(ds), OLS_HOMO_SPEC, ds)
    assert ms.n_moments == 4
    labels = [m[0] for m in ms.moments]
    assert any(lbl.startswith("var") for lbl in labels)
    for lbl, idx, sign in ms.moments:
        if lbl.startswith("var"):
            assert abs(np.mean(sign * ms.base[:, idx])) < 1e-10


def test_homoskedasticity_hand_oracle():
    y = np.array([1.0, 3.0, 2.0, 4.0])
    x = np.array([0.0, 1.0, 2.0, 3.0])
    ds = Dataset(y=y, x=x, z=x)
    fit = fit_ols(ds)
    ms = build_for_spec(fit, OLS_HOMO_SPEC, ds)
    resid = fit.residuals
    sigma2 = np.mean(resid**2)
    var_plus = next(sign * ms.base[:, idx] for lbl, idx, sign in ms.moments
                    if lbl == "var+")
    assert np.allclose(var_plus, resid**2 - sigma2, atol=1e-12)


def test_hetero_signal_visible_in_variance_moment():
    ds = generate(DgpSpec(family=DgpFamily.HETERO_POWER, n=100_000, rho=0.9), RngSpec(seed=4))
    fit = fit_ols(ds)
    resid = fit.residuals
    sigma2 = np.mean(resid**2)
    x = ds.x[:, 0]
    edge = resid[np.abs(x) > 2.7] ** 2 - sigma2
    # at |x| ~ 3 the conditional variance is 1 + 0.9, about 0.6 above the average level
    assert np.mean(edge) > 0.3


def test_parametric_grid_matches_exogeneity_at_iv_estimate():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=400), RngSpec(seed=5))
    fit = fit_iv(ds)
    ms_grid = build_parametric_grid(ds, lambda x, th: th[0] + th[1] * x[:, 0],
                                    (fit.beta[0], fit.beta[1]), Conditioning.ON_Z)
    ms_exo = build_for_spec(fit, IV_SPEC, ds)
    w_grid = ms_grid.moments[0][2] * ms_grid.base[:, ms_grid.moments[0][1]]
    w_exo = ms_exo.moments[0][2] * ms_exo.base[:, ms_exo.moments[0][1]]
    assert np.allclose(w_grid, w_exo, atol=1e-10)


def test_parametric_grid_boxcox_noiseless():
    g = np.random.default_rng(6)
    x = g.uniform(0.5, 8.0, 100)
    y = 2.0 * (x - 1.0)
    ds = Dataset(y=y, x=x, z=x)
    ms = build_parametric_grid(ds, lambda xx, th: th[0] + th[1] * boxcox_transform(xx[:, 0], th[2]),
                               (0.0, 2.0, 1.0), Conditioning.ON_X)
    w1 = ms.moments[0][2] * ms.base[:, ms.moments[0][1]]
    assert np.allclose(w1, 0.0, atol=1e-12)


def test_parametric_grid_off_truth_sample_mean_oracle():
    g = np.random.default_rng(7)
    x = g.uniform(-1, 1, 200)
    y = 2.0 * x
    ds = Dataset(y=y, x=x, z=x)
    ms = build_parametric_grid(ds, lambda xx, th: th[0] + th[1] * xx[:, 0], (1.0, 0.0),
                               Conditioning.ON_X)
    w1 = ms.moments[0][2] * ms.base[:, ms.moments[0][1]]
    assert abs(np.mean(w1) - np.mean(y - 1.0)) < 1e-12
    assert abs(np.mean(w1)) > 0.5


def test_parametric_grid_domain_error():
    ds = Dataset(y=np.arange(4.0), x=np.array([-1.0, 1.0, 2.0, 3.0]), z=np.arange(4.0))
    with pytest.raises(EvaluatorDomainError):
        build_parametric_grid(ds, lambda xx, th: th[0] + th[1] * boxcox_transform(xx[:, 0], th[2]),
                              (0.0, 2.0, 0.5), Conditioning.ON_X)


@pytest.mark.parametrize("evaluator, message", [
    (lambda xx, th: np.zeros(3), "wrong-shaped array"),
    (lambda xx, th: np.where(xx[:, 0] > 2.0, np.nan, th * xx[:, 0]), "non-finite values"),
], ids=["wrong-shape", "nan"])
def test_parametric_grid_refuses_a_bad_evaluator(evaluator, message):
    ds = Dataset(y=np.arange(4.0), x=np.array([-1.0, 1.0, 2.0, 3.0]), z=np.arange(4.0))
    with pytest.raises(EvaluatorDomainError, match=message):
        build_parametric_grid(ds, evaluator, 2.0)


def test_build_for_spec_dispatch():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_OLS_NULL, n=300), RngSpec(seed=8))
    fit = fit_ols(ds)
    assert build_for_spec(fit, OLS_HOMO_SPEC, ds).n_moments == 4
    exo_only = ModelSpec(form=ModelForm.LINEAR, conditioning=Conditioning.ON_X)
    assert build_for_spec(fit, exo_only, ds).n_moments == 2


def test_scale_equivariance_of_system():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_OLS_NULL, n=300), RngSpec(seed=9))
    ms1 = build_for_spec(fit_ols(ds), OLS_HOMO_SPEC, ds)
    ds2 = Dataset(y=3.0 * ds.y, x=ds.x, z=ds.z)
    ms2 = build_for_spec(fit_ols(ds2), OLS_HOMO_SPEC, ds2)
    for (lbl, idx, sign), (lbl2, idx2, sign2) in zip(ms1.moments, ms2.moments):
        w1 = sign * ms1.base[:, idx]
        w2 = sign2 * ms2.base[:, idx2]
        factor = 3.0 if lbl.startswith("resid") else 9.0
        assert np.allclose(w2, factor * w1, atol=1e-9)


def test_conditioning_on_first_of_several_columns_warns():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=300), RngSpec(seed=2))
    z2 = RngSpec(seed=3).generator().standard_normal(ds.n)
    two = Dataset(y=ds.y, x=ds.x, z=np.column_stack([ds.z[:, 0], z2]),
                  column_names={"y": "y", "x": ["x"], "z": ["z1", "z2"]})
    with pytest.warns(UserWarning, match="column 'z1' only; 'z2' left out"):
        ms = build_for_spec(fit_iv(ds), IV_SPEC, two)
    assert ms.conditioning_column == "z1"
    assert np.array_equal(ms.conditioning, two.z[:, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = model_test(ds, IV_SPEC)
    assert report.diagnostics["conditioning_column"] == "z1"
    assert "conditioning_column = z1" in report.summary()
