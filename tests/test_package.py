import importlib
import os
import subprocess
import sys
from pathlib import Path

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
