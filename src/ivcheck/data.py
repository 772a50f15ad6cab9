"""Data containers, CSV ingestion, and RNG plumbing."""

from __future__ import annotations

import csv
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateSupport,
    EmptyData,
    IvcheckError,
    MissingColumn,
    NonFiniteValue,
    ParseError,
)

MIN_ROWS = 10  # the fewest rows of the sup test, the propensity, overid and fit_local_linear


def _checked_replace(record, **changes):
    """`_replace` of a record whose class checks or derives its fields in `__new__`: the new
    record goes through that `__new__` too, as at construction. `__getnewargs__` gives
    the fields that `__new__` takes."""
    return type(record)(**{**dict(zip(record._fields, record.__getnewargs__())), **changes})


class _DatasetFields(NamedTuple):
    y: np.ndarray
    x: np.ndarray
    z: np.ndarray
    column_names: dict


class Dataset(_DatasetFields):
    """Immutable (y, x, z) sample.

    y is a length-n vector, x an (n, k_x) matrix and z an (n, k_z) matrix.
    All entries are finite; the three blocks share the row count. A stack of
    samples of one size puts a leading axis on all three: y (R, n), x (R, n, k_x)
    and z (R, n, k_z). The blocks are read-only float arrays, and `column_names`
    defaults to a new empty dict.
    """

    __slots__ = ()

    def __new__(cls, y, x, z, column_names=None):
        y = np.atleast_1d(np.asarray(y, dtype=float))
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        if y.ndim == 1:
            x = x[:, None] if x.ndim == 1 else x
            z = z[:, None] if z.ndim == 1 else z
        if not (y.ndim <= 2 and x.ndim == z.ndim == y.ndim + 1):
            raise IvcheckError("y must be one-dimensional, with x and z (n,) or (n, k), or a "
                               "stack: y (R, n) with x and z (R, n, k)")
        if not (y.shape == x.shape[:-1] == z.shape[:-1]):
            raise IvcheckError("y, x, z must share the row count")
        if y.shape[-1] < 1:
            raise EmptyData("dataset has no rows")
        check_finite(y.shape, y=y, x=x, z=z)
        y.setflags(write=False)
        x.setflags(write=False)
        z.setflags(write=False)
        return super().__new__(cls, y, x, z, {} if column_names is None else column_names)

    _replace = _checked_replace

    @property
    def n(self) -> int:
        return self.y.shape[-1]

    @property
    def k_x(self) -> int:
        return self.x.shape[-1]

    @property
    def k_z(self) -> int:
        return self.z.shape[-1]


def check_finite(rows: tuple, **blocks) -> None:
    """Raise NonFiniteValue naming the first block with a NaN or inf and its row within
    its slice; each block has the leading shape `rows`, (n,) or a stack's (R, n)."""
    for name, block in blocks.items():
        if not np.isfinite(block).all():
            idx = np.argwhere(~np.isfinite(block.reshape(*rows, -1)))[0]
            raise NonFiniteValue(int(idx[-2]), name)


def load_csv(path, y_col, x_cols, z_cols) -> Dataset:
    """Load a Dataset from a comma-delimited file with one header row.

    Raises MissingColumn, ParseError, NonFiniteValue or EmptyData; rows keep
    file order. A leading UTF-8 byte-order mark, as spreadsheet exports write
    it, is not part of the first header cell. NumPy's C parser (`np.loadtxt`)
    reads the selected columns, rounding each number as `float` does. A file
    that it refuses, or that holds a quote or a non-finite value, is read again
    cell by cell (`_read_cells`), which decides it and names a bad cell.
    """
    if isinstance(x_cols, str):
        x_cols = [x_cols]
    if isinstance(z_cols, str):
        z_cols = [z_cols]
    names = [y_col, *x_cols, *z_cols]
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyData(f"{path} is empty") from None
        header = [h.strip() for h in header]
        for name in names:
            if name not in header:
                raise MissingColumn(name)
        cols = [header.index(name) for name in names]
        arr = _parse_columns(fh, cols)
        if arr is None:
            fh.seek(0)
            next(reader)
            arr = _read_cells(reader, names, cols)
    if not len(arr):
        raise EmptyData(f"{path} has no data rows")
    ky = 1
    kx = len(x_cols)
    return Dataset(
        y=arr[:, 0],
        x=arr[:, ky : ky + kx],
        z=arr[:, ky + kx :],
        column_names={"y": y_col, "x": list(x_cols), "z": list(z_cols)},
    )


def _parse_columns(lines, cols) -> np.ndarray | None:
    """Columns `cols` of the comma-delimited `lines` as (rows, len(cols)) floats, by np.loadtxt.

    None where `_read_cells` must decide: a line that loadtxt refuses, a
    non-finite value, or a quote, which csv reads as quoting and loadtxt would not.
    """
    try:
        with warnings.catch_warnings():
            # a file without data rows warns "input contained no data"; load_csv raises EmptyData
            warnings.simplefilter("ignore", UserWarning)
            arr = np.loadtxt(_unquoted(lines), delimiter=",", usecols=cols, comments=None,
                             ndmin=2)
    except ValueError:
        return None
    return arr if np.isfinite(arr).all() else None


def _unquoted(lines):
    """The lines, up to one with a quote, which raises ValueError: csv reads a quoted cell
    whole, where np.loadtxt would split it at its commas and shift the columns after it."""
    for line in lines:
        if '"' in line:
            raise ValueError("a quoted cell")
        yield line


def _read_cells(reader, names, cols) -> np.ndarray:
    """The columns `cols`, named `names`, of the csv rows of `reader`, one `float` per cell.

    Blank and whitespace-only rows are skipped. A cell that is not a number
    raises ParseError, and a NaN or inf NonFiniteValue, with its data row, blank
    rows counted.
    """
    rows = []
    for i, raw in enumerate(reader):
        if not raw or all(not c.strip() for c in raw):
            continue
        rec = []
        for name, col in zip(names, cols):
            cell = raw[col].strip() if col < len(raw) else ""
            try:
                val = float(cell)
            except ValueError:
                raise ParseError(i, name, cell) from None
            if not math.isfinite(val):
                raise NonFiniteValue(i, name)
            rec.append(val)
        rows.append(rec)
    return np.asarray(rows, dtype=float)


def write_csv(ds: Dataset, path) -> None:
    """Write a Dataset back to CSV; load_csv(write_csv(ds)) round-trips exactly."""
    names = ds.column_names or {}
    y_col = names.get("y", "y")
    x_cols = names.get("x") or [f"x{i + 1}" for i in range(ds.k_x)]
    z_cols = names.get("z") or [f"z{i + 1}" for i in range(ds.k_z)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([y_col, *x_cols, *z_cols])
        for i in range(ds.n):
            writer.writerow(
                [repr(float(v)) for v in (ds.y[i], *ds.x[i], *ds.z[i])]
            )


def empirical_quantile(values: np.ndarray, u):
    """Left-continuous inverse CDF inf{a : F(a) >= u} at a scalar u (a float) or an array.

    u <= 0 gives the minimum; u > 1 and NaN give the maximum.
    """
    srt = np.sort(np.asarray(values, dtype=float))
    n = len(srt)
    # first index with F = (k+1)/n >= u; comparing against the same float
    # quotients keeps F(Q(F(x))) round-trips exact
    q = srt[np.minimum(np.searchsorted(np.arange(1, n + 1) / n, u, side="left"), n - 1)]
    return float(q) if q.ndim == 0 else q


def conditioning_grid(values, count=100):
    """Equally spaced grid between the 1% and 99% empirical centiles of a scalar column.

    The centiles differ, so the points are distinct even on a discrete column,
    unless the centiles are only a few ulps apart: duplicates are collapsed
    then, and the grid has fewer than `count` points.
    """
    values = np.asarray(values, dtype=float).ravel()
    # one sort for both centiles
    lo, hi = empirical_quantile(values, [0.01, 0.99]).tolist()
    if not lo < hi:
        raise DegenerateSupport(f"centile 0.01 and 0.99 quantiles coincide at {lo}")
    return distinct(np.linspace(lo, hi, count))


def distinct(values) -> np.ndarray:
    """The sorted distinct values of a NaN-free array, as `np.unique(values)` gives them.

    One sort and a mask of neighbours that differ, `np.unique`'s own sort path;
    `np.unique` itself, called without `return_inverse` or `return_counts`,
    asks `np.ma.is_masked` and so imports numpy.ma into a cold process.
    """
    srt = np.sort(np.asarray(values).ravel())
    new = np.empty(len(srt), dtype=bool)
    new[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=new[1:])
    return srt[new]


def _quantiles(x: np.ndarray, qs) -> list:
    """np.quantile(x, qs) bit for bit, from one sort: numpy's linear rule and t >= 0.5 branch.

    np.quantile partitions at the `np.unique` of its indices, which imports numpy.ma.
    """
    xs = np.sort(x)
    pos = (len(xs) - 1) * np.asarray(qs, dtype=float)
    lo = np.floor(pos)
    t = pos - lo
    lo = lo.astype(np.intp)
    below, above = xs[lo], xs[np.minimum(lo + 1, len(xs) - 1)]
    diff = above - below
    return np.where(t >= 0.5, above - diff * (1 - t), below + diff * t).tolist()


class RngSpec(NamedTuple):
    """Deterministic RNG handle: identical (seed, stream) gives identical draws."""

    seed: int = 0
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        )

    def substream(self, index: int) -> "RngSpec":
        """Child stream for worker/replication `index`; order-independent."""
        return self._replace(stream=self.stream * 1_000_003 + index + 1)
