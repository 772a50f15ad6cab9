"""Specification testing for separable models via conditional-moment inequalities.

Public surface: data containers and RNG plumbing, parametric first-step
estimators, nonparametric conditional means, moment-system construction, the
precision-corrected sup test, classical overidentification statistics, the
control-function module, and a Monte Carlo harness.
"""

__version__ = "0.1.0"

from .clrtest import (
    IdentifiedSet,
    LevelResult,
    TestConfig,
    TestReport,
    identified_set,
    run_test,
    test_model,
)
from .data import (
    CONFIG_KEYS,
    Dataset,
    RngSpec,
    conditioning_grid,
    empirical_quantile,
    load_csv,
    parse_config,
    write_csv,
)
from .errors import IvcheckError, RelevanceWarning
from .estimators import (
    BoxCoxFit,
    FitMethod,
    LinearFit,
    boxcox_transform,
    fit_boxcox,
    fit_gmm2step,
    fit_iv,
    fit_ols,
    polynomial_instruments,
)
from .moments import (
    Conditioning,
    ModelForm,
    ModelSpec,
    MomentSystem,
    build_for_spec,
    build_parametric_grid,
)
from .mte import (
    AsfEstimate,
    Condition1Report,
    ControlFunctionFit,
    PropensityFit,
    UniformityReport,
    condition1_diagnostic,
    estimate_asf,
    estimate_mte,
    fit_control_function,
    fit_propensity,
    quantile_roundtrip_check,
    uniformity_diagnostic,
)
from .npreg import (
    CondMeanFit,
    default_series_order,
    fit_cell_means,
    fit_local_linear,
    fit_series,
    rule_of_thumb_bandwidth,
)
from .overid import OveridReport, hansen_j, sargan
from .simulate import (
    DgpFamily,
    DgpSpec,
    Method,
    StudyResult,
    generate,
    model_spec_for,
    power_curve,
    run_study,
)

__all__ = [name for name in dir() if not name.startswith("_")]
