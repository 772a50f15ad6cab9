"""Classical overidentification benchmarks: Sargan and Hansen J statistics."""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .data import MIN_ROWS, Dataset
from .errors import InsufficientData
from .estimators import _gmm

JUST_IDENTIFIED_TOL = 1e-8


class OveridMethod(Enum):
    SARGAN = "sargan"
    HANSEN_J = "hansen-j"


class OveridReport(NamedTuple):
    statistic: float
    dof: int
    p_value: float
    method: OveridMethod


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X > x) of a chi-square with integer dof >= 1.

    Closed form of Abramowitz & Stegun 26.4.4-5: erfc(sqrt(x/2)) for odd dof,
    plus the Poisson-type terms (x/2)^a e^(-x/2) / Gamma(a + 1) for
    a = dof/2 - 1, dof/2 - 2, ... >= 0, each taken in log space. Every term
    is positive, so the sum loses no precision to cancellation.
    """
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    h = x / 2.0
    log_h = math.log(h)
    start = (dof % 2) / 2.0
    terms = [
        math.exp((start + j) * log_h - h - math.lgamma(start + j + 1.0)) for j in range(dof // 2)
    ]
    if dof % 2:
        terms.append(math.erfc(math.sqrt(h)))
    return min(math.fsum(terms), 1.0)


def _report(ds: Dataset, instrument_fn, method: OveridMethod) -> OveridReport | list[OveridReport]:
    """The J statistic of `_gmm` on dim h - dim x degrees of freedom.

    After `_gmm`'s own checks, fewer than `MIN_ROWS` rows raise InsufficientData.
    A stacked Dataset gives one report per slice, in a list.
    """
    _, stats, _, _, dof = _gmm(ds, instrument_fn, efficient=method is OveridMethod.HANSEN_J)
    if ds.n < MIN_ROWS:
        raise InsufficientData(f"the overidentification test needs n >= {MIN_ROWS} rows, "
                               f"got {ds.n}")
    reports = []
    for statistic in map(float, np.ravel(stats)):
        p = 1.0 if dof == 0 or statistic < JUST_IDENTIFIED_TOL else chi2_sf(statistic, dof)
        reports.append(OveridReport(statistic=statistic, dof=dof, p_value=p, method=method))
    return reports[0] if ds.y.ndim == 1 else reports


def sargan(ds: Dataset, instrument_fn=None) -> OveridReport | list[OveridReport]:
    """Sargan statistic: J at 2SLS with the homoskedastic weight (E_n[hh'] E_n[u^2])^-1.

    This equals n R^2 of the 2SLS residual regressed on the instruments. A
    stacked Dataset gives one report per slice, in a list.
    """
    return _report(ds, instrument_fn, OveridMethod.SARGAN)


def hansen_j(ds: Dataset, instrument_fn=None) -> OveridReport | list[OveridReport]:
    """Hansen J: n gbar' W gbar at the two-step efficient GMM estimate, W its weight.

    A stacked Dataset gives one report per slice, in a list.
    """
    return _report(ds, instrument_fn, OveridMethod.HANSEN_J)
