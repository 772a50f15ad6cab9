"""Data containers, CSV ingestion, and RNG plumbing."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateSupport,
    EmptyData,
    IvcheckError,
    MissingColumn,
    NonFiniteValue,
    ParseError,
)


@dataclass(frozen=True)
class Dataset:
    """Immutable (y, x, z) sample.

    y is a length-n vector, x an (n, k_x) matrix and z an (n, k_z) matrix.
    All entries are finite; the three blocks share the row count.
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray
    column_names: dict = field(default_factory=dict)

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        x = np.asarray(self.x, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if z.ndim == 1:
            z = z[:, None]
        if y.ndim != 1:
            raise IvcheckError("y must be one-dimensional")
        if not (len(y) == x.shape[0] == z.shape[0]):
            raise IvcheckError("y, x, z must share the row count")
        if len(y) < 1:
            raise EmptyData("dataset has no rows")
        for name, block in (("y", y), ("x", x), ("z", z)):
            if not np.all(np.isfinite(block)):
                idx = np.argwhere(~np.isfinite(np.atleast_2d(block.T).T))[0]
                raise NonFiniteValue(int(idx[0]), name)
        y.setflags(write=False)
        x.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def k_x(self) -> int:
        return self.x.shape[1]

    @property
    def k_z(self) -> int:
        return self.z.shape[1]


def load_csv(path, y_col, x_cols, z_cols) -> Dataset:
    """Load a Dataset from a comma-delimited file with one header row.

    Raises MissingColumn, ParseError, NonFiniteValue or EmptyData; rows keep
    file order.
    """
    if isinstance(x_cols, str):
        x_cols = [x_cols]
    if isinstance(z_cols, str):
        z_cols = [z_cols]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyData(f"{path} is empty") from None
        header = [h.strip() for h in header]
        pos = {}
        for name in [y_col, *x_cols, *z_cols]:
            if name not in header:
                raise MissingColumn(name)
            pos[name] = header.index(name)
        rows = []
        for i, raw in enumerate(reader):
            if not raw or all(not c.strip() for c in raw):
                continue
            rec = []
            for name in [y_col, *x_cols, *z_cols]:
                cell = raw[pos[name]].strip() if pos[name] < len(raw) else ""
                try:
                    val = float(cell)
                except ValueError:
                    raise ParseError(i, name, cell) from None
                if not math.isfinite(val):
                    raise NonFiniteValue(i, name)
                rec.append(val)
            rows.append(rec)
    if not rows:
        raise EmptyData(f"{path} has no data rows")
    arr = np.asarray(rows, dtype=float)
    ky = 1
    kx = len(x_cols)
    return Dataset(
        y=arr[:, 0],
        x=arr[:, ky : ky + kx],
        z=arr[:, ky + kx :],
        column_names={"y": y_col, "x": list(x_cols), "z": list(z_cols)},
    )


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


def conditioning_grid(values, centile_lo=0.01, centile_hi=0.99, count=100):
    """Equally spaced grid between two empirical centiles of a scalar column.

    Duplicate points (possible when the column is discrete) are collapsed;
    the effective grid size may therefore be below `count`.
    """
    values = np.asarray(values, dtype=float).ravel()
    if not 0.0 <= centile_lo < centile_hi <= 1.0:
        raise IvcheckError("need 0 <= centile_lo < centile_hi <= 1")
    lo = empirical_quantile(values, centile_lo) if centile_lo > 0 else float(values.min())
    hi = empirical_quantile(values, centile_hi)
    if not lo < hi:
        raise DegenerateSupport(
            f"centile {centile_lo} and {centile_hi} quantiles coincide at {lo}"
        )
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


@dataclass(frozen=True)
class RngSpec:
    """Deterministic RNG handle: identical (seed, stream) gives identical draws."""

    seed: int = 0
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        )

    def substream(self, index: int) -> "RngSpec":
        """Child stream for worker/replication `index`; order-independent."""
        return replace(self, stream=self.stream * 1_000_003 + index + 1)
