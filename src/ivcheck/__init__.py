"""Specification testing for separable models via conditional-moment inequalities.

Public surface: data containers and RNG plumbing, parametric first-step
estimators, nonparametric conditional means, moment-system construction, the
precision-corrected sup test, classical overidentification statistics, the
control-function module, and a Monte Carlo harness.

`import ivcheck` loads no submodule. Each public name below is resolved on
first access by importing the submodule that defines it (PEP 562), so a
program pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "_config": ("CONFIG_KEYS", "parse_config"),
    "clrtest": ("IdentifiedSet", "LevelResult", "TestConfig", "TestReport", "identified_set",
                "run_test", "test_model"),
    "data": ("Dataset", "RngSpec", "conditioning_grid", "empirical_quantile", "load_csv",
             "write_csv"),
    "errors": ("IvcheckError", "RelevanceWarning"),
    "estimators": ("BoxCoxFit", "FitMethod", "LinearFit", "boxcox_transform", "fit_boxcox",
                   "fit_gmm2step", "fit_iv", "fit_ols", "polynomial_instruments"),
    "moments": ("Conditioning", "ModelForm", "ModelSpec", "MomentSystem", "build_for_spec",
                "build_parametric_grid"),
    "mte": ("AsfEstimate", "Condition1Report", "ControlFunctionFit", "PropensityFit",
            "UniformityReport", "condition1_diagnostic", "estimate_asf", "estimate_mte",
            "fit_control_function", "fit_propensity", "uniformity_diagnostic"),
    "npreg": ("CondMeanFit", "default_series_order", "fit_cell_means", "fit_local_linear",
              "fit_series", "rule_of_thumb_bandwidth"),
    "overid": ("OveridReport", "hansen_j", "sargan"),
    "simulate": ("DgpFamily", "DgpSpec", "Method", "StudyResult", "generate", "model_spec_for",
                 "power_curve", "run_study"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

# a private module's names are public, the module itself is not
__all__ = sorted([*(m for m in _EXPORTS if not m.startswith("_")), *_OWNER])


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule also binds it as an attribute of this package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
