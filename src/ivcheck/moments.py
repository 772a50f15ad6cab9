"""Moment systems: the signed residual transforms implied by a model specification."""

from __future__ import annotations

import warnings
from enum import Enum
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .errors import EvaluatorDomainError, IvcheckError
from .estimators import BoxCoxFit


class ModelForm(Enum):
    LINEAR = "linear"
    BOXCOX = "box-cox"


class Conditioning(Enum):
    ON_Z = "z"
    ON_X = "x"


class ModelSpec(NamedTuple):
    """The model a first step estimates and what its moments test.

    Exogeneity of the error given the conditioning column is always tested;
    `homoskedastic=True` tests constant conditional variance jointly with it.
    """

    form: ModelForm = ModelForm.LINEAR
    conditioning: Conditioning = Conditioning.ON_Z
    homoskedastic: bool = False


class MomentSystem(NamedTuple):
    """Signed moment values W_j per row plus the scalar conditioning column.

    Columns of `base` hold the unsigned transforms and `moments` lists
    (label, base_index, sign); the systems built here come in +/- pairs. The
    system of a stacked Dataset has the stack's leading axis on base and
    conditioning, and one tuple of moments shared by every slice.
    """

    base: np.ndarray  # (n, n_base) unsigned moment values
    moments: tuple  # of (label, base_index, sign)
    conditioning: np.ndarray  # (n,) scalar conditioning values
    conditioning_column: str = ""  # name of the column the moments condition on

    @property
    def n_moments(self) -> int:
        return len(self.moments)


def _conditioning_column(ds: Dataset, conditioning: Conditioning):
    """(values, name) of the first column of z (or x); the others are left out."""
    block = conditioning.value
    values = ds.z if conditioning is Conditioning.ON_Z else ds.x
    names = ds.column_names.get(block) or [f"{block}{i + 1}" for i in range(values.shape[-1])]
    if len(names) > 1:
        warnings.warn(
            f"moments condition on {block} column {names[0]!r} only; "
            f"{', '.join(map(repr, names[1:]))} left out",
            stacklevel=2,
        )
    return values[..., 0], names[0]


def _paired(base_cols, labels, conditioning, column) -> MomentSystem:
    base = np.stack(base_cols, axis=-1)
    moments = []
    for b, label in enumerate(labels):
        moments.append((f"{label}+", b, 1.0))
        moments.append((f"{label}-", b, -1.0))
    return MomentSystem(
        base=base,
        moments=tuple(moments),
        conditioning=np.asarray(conditioning, dtype=float),
        conditioning_column=column,
    )


def build_parametric_grid(
    ds: Dataset, evaluator, theta, conditioning: Conditioning = Conditioning.ON_Z
) -> MomentSystem:
    """W1 = Y - m(X, theta) at a fixed parameter point (no estimation step).

    The evaluator m(x, theta), called with the (n, k_x) regressors, carries
    the functional form. This route tests exogeneity only.
    """
    try:
        m = np.asarray(evaluator(ds.x, theta), dtype=float).ravel()
    except (IvcheckError, ValueError, FloatingPointError) as exc:
        raise EvaluatorDomainError(f"evaluator failed on the data range: {exc}") from exc
    if m.shape != ds.y.shape:
        raise EvaluatorDomainError("evaluator returned a wrong-shaped array")
    if not np.all(np.isfinite(m)):
        raise EvaluatorDomainError("evaluator produced non-finite values on data range")
    resid = ds.y - m
    cond, column = _conditioning_column(ds, conditioning)
    return _paired([resid], ["resid"], cond, column)


def build_for_spec(fit, spec: ModelSpec, ds: Dataset) -> MomentSystem:
    """W = +/- residual, plus +/- (U^2 - sigma2_hat) under homoskedasticity.

    The moments condition on the instrument (or regressor).
    """
    resid = fit.residuals
    cols, labels = [resid], ["resid"]
    if spec.homoskedastic:
        if isinstance(fit, BoxCoxFit):
            raise IvcheckError("homoskedasticity moments require a linear fit")
        # the first step's mean(U^2), 1/n, matching the population identity; per slice of a stack
        cols.append(resid**2 - np.expand_dims(fit.sigma2_hat, -1))
        labels.append("var")
    cond, column = _conditioning_column(ds, spec.conditioning)
    return _paired(cols, labels, cond, column)
