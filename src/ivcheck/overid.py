"""Classical overidentification benchmarks: Sargan and Hansen J statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset
from .errors import RankDeficient
from .estimators import _check_rank, _design, fit_gmm2step, polynomial_instruments

JUST_IDENTIFIED_TOL = 1e-8


class OveridMethod(Enum):
    SARGAN = "sargan"
    HANSEN_J = "hansen-j"


@dataclass(frozen=True)
class OveridReport:
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


def _finish(statistic: float, dof: int, method: OveridMethod) -> OveridReport:
    statistic = max(float(statistic), 0.0)
    if dof == 0 or abs(statistic) < JUST_IDENTIFIED_TOL:
        return OveridReport(statistic=statistic, dof=dof, p_value=1.0, method=method)
    p = chi2_sf(statistic, dof)
    return OveridReport(statistic=statistic, dof=dof, p_value=p, method=method)


def sargan(ds: Dataset, instrument_fn=None) -> OveridReport:
    """Sargan statistic: n R^2 of the 2SLS residual regressed on the instruments."""
    if instrument_fn is None:
        instrument_fn = polynomial_instruments(3)
    h = _design(instrument_fn(ds.z))
    dx = _design(ds.x)
    n = ds.n
    if h.shape[1] < dx.shape[1]:
        raise RankDeficient("dim h(Z) below the number of parameters")
    _check_rank(h, "instrument matrix")
    # 2SLS through the instrument projection
    hth_inv = np.linalg.inv(h.T @ h)
    px = h @ (hth_inv @ (h.T @ dx))
    _check_rank(px.T @ dx / n, "projected design")
    beta = np.linalg.solve(px.T @ dx, px.T @ ds.y)
    u = ds.y - dx @ beta
    fitted = h @ (hth_inv @ (h.T @ u))
    statistic = n * float(u @ fitted) / float(u @ u)
    dof = h.shape[1] - dx.shape[1]
    return _finish(statistic, dof, OveridMethod.SARGAN)


def hansen_j(ds: Dataset, instrument_fn=None) -> OveridReport:
    """Hansen J: n gbar' W gbar at the two-step efficient GMM estimate."""
    if instrument_fn is None:
        instrument_fn = polynomial_instruments(3)
    fit = fit_gmm2step(ds, instrument_fn)
    h = _design(instrument_fn(ds.z))
    dx = _design(ds.x)
    n = ds.n
    # weight from first-step residuals, as used in the second step
    r1 = ds.y - dx @ fit.beta_first_step
    omega = (h * r1[:, None]).T @ (h * r1[:, None]) / n
    w = np.linalg.inv(omega)
    gbar = h.T @ fit.residuals / n
    statistic = n * float(gbar @ w @ gbar)
    dof = h.shape[1] - dx.shape[1]
    return _finish(statistic, dof, OveridMethod.HANSEN_J)
