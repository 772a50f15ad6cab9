"""Exception types shared across the library, and the numpy-free checks of scalar
arguments that `mte` and the CLI share: `check_finite_scalars`, `check_outcome_bounds`."""

import math


class IvcheckError(Exception):
    """Base class for all library errors."""


class MissingColumn(IvcheckError):
    def __init__(self, name):
        super().__init__(f"column {name!r} not found in file header")
        self.name = name


class ParseError(IvcheckError):
    def __init__(self, row, col, value):
        super().__init__(f"cannot parse {value!r} at row {row}, column {col!r}")
        self.row = row
        self.col = col


class NonFiniteValue(IvcheckError):
    def __init__(self, row, col):
        super().__init__(f"non-finite value at row {row}, column {col!r}")
        self.row = row
        self.col = col


class EmptyData(IvcheckError):
    pass


class DegenerateSupport(IvcheckError):
    pass


class RankDeficient(IvcheckError):
    pass


class SingularWeight(IvcheckError):
    pass


class DomainError(IvcheckError):
    pass


def check_finite_scalars(**values) -> None:
    """DomainError naming the first of `values` that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def check_outcome_bounds(outcome_bounds) -> None:
    """DomainError unless the outcome bounds are None or finite with lower <= upper."""
    if outcome_bounds is not None:
        check_finite_scalars(y_lower=outcome_bounds[0], y_upper=outcome_bounds[1])
        if not outcome_bounds[0] <= outcome_bounds[1]:
            raise DomainError(f"outcome bounds must have lower <= upper, got "
                              f"({outcome_bounds[0]}, {outcome_bounds[1]})")


class InsufficientData(IvcheckError):
    pass


class TooManyCells(IvcheckError):
    pass


class EmptyWindow(IvcheckError):
    def __init__(self, points):
        super().__init__(f"too few observations to estimate at {points}")
        self.points = points


class DegenerateVariance(IvcheckError):
    pass


class SimulationBudgetTooSmall(IvcheckError):
    pass


class ArrayTooLarge(IvcheckError):
    pass


class EvaluatorDomainError(IvcheckError):
    pass


class EmptyGrid(IvcheckError):
    pass


class InvalidGrid(IvcheckError):
    pass


class OffSupport(IvcheckError):
    def __init__(self, x, p):
        super().__init__(f"point (x={x}, p={p}) is outside the estimated support")
        self.x = x
        self.p = p


class MissingBounds(IvcheckError):
    pass


class RelevanceWarning(UserWarning):
    """First-stage F-statistic below the weak-instrument reporting threshold."""
