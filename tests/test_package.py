import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ivcheck

# the public names of the package, as they were when every submodule was imported eagerly
PUBLIC = [
    "AsfEstimate", "BoxCoxFit", "CONFIG_KEYS", "CondMeanFit", "Condition1Report",
    "Conditioning", "ControlFunctionFit", "Dataset", "DgpFamily", "DgpSpec", "FitMethod",
    "IdentifiedSet", "IvcheckError", "LevelResult", "LinearFit", "Method", "ModelForm",
    "ModelSpec", "MomentSystem", "OveridReport", "PropensityFit", "RelevanceWarning",
    "RngSpec", "StudyResult", "TestConfig", "TestReport", "UniformityReport",
    "boxcox_transform", "build_for_spec", "build_parametric_grid", "clrtest",
    "condition1_diagnostic", "conditioning_grid", "data", "default_series_order",
    "empirical_quantile", "errors", "estimate_asf", "estimate_mte", "estimators",
    "fit_boxcox", "fit_cell_means", "fit_control_function", "fit_gmm2step", "fit_iv",
    "fit_local_linear", "fit_ols", "fit_propensity", "fit_series", "generate",
    "hansen_j", "identified_set", "load_csv", "model_spec_for", "moments", "mte", "npreg",
    "overid", "parse_config", "polynomial_instruments", "power_curve",
    "rule_of_thumb_bandwidth", "run_study", "run_test", "sargan", "simulate",
    "test_model", "uniformity_diagnostic", "write_csv",
]
SUBMODULES = ["clrtest", "data", "errors", "estimators", "moments", "mte", "npreg", "overid",
              "simulate"]


def run_python(*argv):
    src = str(Path(ivcheck.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    return run


def test_import_loads_no_submodule():
    run = run_python("-c", "import sys, ivcheck; print(sorted(m for m in sys.modules "
                           "if m.startswith('ivcheck.')))")
    assert run.stdout.strip() == "[]"


def test_public_names_are_pinned():
    assert len(PUBLIC) == 69
    assert sorted(ivcheck.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(ivcheck))


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_the_submodule_object(name):
    value = getattr(ivcheck, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"ivcheck.{name}")
    else:
        owner = f"ivcheck.{ivcheck._OWNER[name]}"
        assert value is getattr(importlib.import_module(owner), name)
        # the submodule that defines it, not one that imports it (CONFIG_KEYS is a dict)
        assert getattr(value, "__module__", owner) == owner


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ivcheck.no_such_name  # noqa: B018
    assert not hasattr(ivcheck, "PROPENSITY_METHODS")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ivcheck import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert namespace["run_study"] is ivcheck.simulate.run_study


def _records():
    """One instance of every public record but CondMeanFit, whose field is a closure, from
    small fits; the StudyResult holds CellResults."""
    from ivcheck import (Conditioning, DgpFamily, DgpSpec, ModelForm, ModelSpec, RngSpec,
                         TestConfig, build_for_spec, condition1_diagnostic, estimate_asf,
                         fit_boxcox, fit_control_function, fit_iv, fit_propensity, generate,
                         identified_set, run_study, sargan, test_model, uniformity_diagnostic)

    spec = DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=300)
    rng = RngSpec(seed=4, stream=2)
    ds = generate(spec, rng)
    cfg = TestConfig(mult_draws=200, grid_count=20)
    model = ModelSpec(form=ModelForm.LINEAR, conditioning=Conditioning.ON_Z)
    pf = fit_propensity(ds)
    cf = fit_control_function(ds, pf)
    boxcox = generate(DgpSpec(family=DgpFamily.BOXCOX_IV_NULL, n=300, lam=0.5), rng)
    report = test_model(ds, model, cfg, rng)
    return [spec, rng, ds, cfg, model, fit_iv(ds), fit_boxcox(boxcox, use_iv=True),
            build_for_spec(fit_iv(ds), model, ds), report, report.levels[0.05],
            identified_set(ds, lambda x, theta: theta * x[:, 0], [1.0, 2.0], cfg=cfg),
            sargan(ds), pf, cf, uniformity_diagnostic(pf, ds.z[:, 0]),
            condition1_diagnostic(pf, ds), estimate_asf(cf, pf, 0.0, (-100.0, 100.0)),
            run_study([spec], reps=2, cfg=cfg, rng=rng)]


def test_every_public_record_round_trips_through_pickle():
    # the jobs > 1 pool pickles TestConfig, RngSpec and DgpSpec; the others go to user code
    records = _records()
    public = {name for name in PUBLIC if isinstance(getattr(ivcheck, name), type)
              and issubclass(getattr(ivcheck, name), tuple)}
    assert {type(r).__name__ for r in records} == public - {"CondMeanFit"}
    for record in records:
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is type(record)
        np.testing.assert_equal(back, record)
        assert back._fields == record._fields
    ds = pickle.loads(pickle.dumps(records[2]))
    assert not any(block.flags.writeable for block in ds[:3])
