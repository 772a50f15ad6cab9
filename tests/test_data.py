import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivcheck import CONFIG_KEYS, data, parse_config
from ivcheck.data import (
    Dataset,
    RngSpec,
    conditioning_grid,
    empirical_quantile,
    load_csv,
    write_csv,
)
from ivcheck.errors import (
    DegenerateSupport,
    EmptyData,
    IvcheckError,
    MissingColumn,
    NonFiniteValue,
    ParseError,
)
from ivcheck.simulate import DgpFamily, DgpSpec, generate


def test_load_csv_three_rows(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("y,x,z\n1,2,3\n4,5,6\n7,8,9\n")
    ds = load_csv(p, "y", ["x"], ["z"])
    assert ds.n == 3 and ds.k_x == 1 and ds.k_z == 1
    assert np.array_equal(ds.y, [1.0, 4.0, 7.0])
    assert np.array_equal(ds.x[:, 0], [2.0, 5.0, 8.0])


def test_load_csv_skips_a_byte_order_mark(tmp_path):
    # a spreadsheet's "CSV UTF-8" export starts with a BOM, which is no part of the first column name
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbfy,x,z\n1,2,3\n4,5,6\n")
    ds = load_csv(p, "y", ["x"], ["z"])
    assert np.array_equal(ds.y, [1.0, 4.0]) and np.array_equal(ds.z[:, 0], [3.0, 6.0])


def test_load_csv_nan_cell_rejected(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("y,x,z\n1,NaN,3\n")
    with pytest.raises(NonFiniteValue):
        load_csv(p, "y", ["x"], ["z"])


def test_load_csv_missing_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("y,x\n1,2\n")
    with pytest.raises(MissingColumn):
        load_csv(p, "y", ["x"], ["z"])


def test_load_csv_parse_error(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("y,x,z\n1,abc,3\n")
    with pytest.raises((ParseError, NonFiniteValue)):
        load_csv(p, "y", ["x"], ["z"])


def test_load_csv_empty(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("y,x,z\n")
    with pytest.raises(EmptyData):
        load_csv(p, "y", ["x"], ["z"])


BLANK_ROWS = 'y,x,z\n1,2,3\n\n  ,  \n"1.5",2.5,3.5\n'


def test_load_csv_skips_blank_rows_and_reads_quoted_cells(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(BLANK_ROWS)
    ds = load_csv(p, "y", ["x"], ["z"])
    assert np.array_equal(ds.y, [1.0, 1.5]) and np.array_equal(ds.x[:, 0], [2.0, 2.5])


def test_parse_error_counts_every_record_after_the_header(tmp_path):
    # the blank and all-space rows are skipped, but they are records: 2,abc,1 is row 4
    p = tmp_path / "d.csv"
    p.write_text(BLANK_ROWS + "2,abc,1\n")
    with pytest.raises(ParseError, match="at row 4, column 'x'") as info:
        load_csv(p, "y", ["x"], ["z"])
    assert info.value.row == 4


def test_dataset_of_no_rows_is_refused():
    with pytest.raises(EmptyData, match="dataset has no rows"):
        Dataset(y=[], x=[], z=[])


def test_write_then_read_roundtrip(tmp_path):
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=1000), RngSpec(seed=3))
    p = tmp_path / "sim.csv"
    write_csv(ds, p)
    back = load_csv(p, "y", ["x1"], ["z1"])
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.z, ds.z)


_EDGE_VALUES = (-0.0, 5e-324, 1e308, -1e308)


@st.composite
def _blocks(draw):
    """(y (n,), x (n, k_x), z (n, k_z)) of any finite floats, k_x and k_z in 1-3."""
    n, k_x, k_z = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    value = st.one_of(st.sampled_from(_EDGE_VALUES),
                      st.floats(allow_nan=False, allow_infinity=False))
    y, x, z = (np.array(draw(st.lists(value, min_size=n * k, max_size=n * k))).reshape(n, k)
               for k in (1, k_x, k_z))
    return y[:, 0], x, z


@settings(max_examples=100, deadline=None, derandomize=True)
@given(blocks=_blocks())
@example(blocks=(np.array([-0.0, 5e-324, 1e308]), np.array([[-1e308], [-0.0], [5e-324]]),
                 np.array([[1e308, -5e-324], [0.1, -0.0], [-1e308, 2.0]])))
def test_write_then_read_roundtrips_every_float(blocks):
    """load_csv(write_csv(ds)) gives back every block bit for bit, signed zeros, subnormals
    and the largest magnitudes included."""
    ds = Dataset(*blocks)
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "d.csv"
        write_csv(ds, p)
        back = load_csv(p, "y", [f"x{i + 1}" for i in range(ds.k_x)],
                        [f"z{i + 1}" for i in range(ds.k_z)])
    for got, want in ((back.y, ds.y), (back.x, ds.x), (back.z, ds.z)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_dataset_rejects_nonfinite():
    with pytest.raises(IvcheckError):
        Dataset(y=np.array([1.0, np.inf]), x=np.array([1.0, 2.0]), z=np.array([1.0, 2.0]))


def test_dataset_rejects_row_mismatch():
    with pytest.raises(IvcheckError):
        Dataset(y=np.array([1.0, 2.0]), x=np.array([1.0, 2.0, 3.0]), z=np.array([1.0, 2.0]))


def test_dataset_stack_needs_its_column_axis():
    """A stack puts R before the n rows of y, x and z; a column vector y is not one."""
    col = np.arange(4.0)[:, None]
    with pytest.raises(IvcheckError, match="one-dimensional"):
        Dataset(y=col, x=col, z=col)
    stack = Dataset(y=np.ones((2, 4)), x=np.ones((2, 4, 1)), z=np.zeros((2, 4, 1)))
    assert (stack.n, stack.k_x, stack.k_z) == (4, 1, 1)
    z = np.zeros((2, 4, 1))
    z[1, 2] = np.nan
    with pytest.raises(NonFiniteValue) as bad:
        Dataset(y=np.ones((2, 4)), x=np.ones((2, 4, 1)), z=z)
    assert (bad.value.row, bad.value.col) == (2, "z")


def test_grid_1_to_100():
    z = np.arange(1.0, 101.0)
    grid = conditioning_grid(z, count=100)
    # empirical-quantile oracle by sorting: left-continuous inverse CDF
    lo = empirical_quantile(z, 0.01)
    hi = empirical_quantile(z, 0.99)
    assert len(grid) == 100
    assert abs(grid[0] - lo) < 1e-12 and abs(grid[-1] - hi) < 1e-12
    assert 1.0 <= grid[0] <= 3.0 and 98.0 <= grid[-1] <= 100.0


def test_grid_constant_degenerate():
    with pytest.raises(DegenerateSupport):
        conditioning_grid(np.full(50, 7.0))


def test_grid_uniform_endpoints():
    z = np.random.default_rng(0).uniform(-3, 3, 3000)
    grid = conditioning_grid(z)
    assert abs(grid[0] - (-2.94)) < 0.15
    assert abs(grid[-1] - 2.94) < 0.15


def test_grid_strictly_increasing():
    z = np.random.default_rng(1).standard_normal(500)
    grid = conditioning_grid(z, count=64)
    assert np.all(np.diff(grid) > 0)
    assert len(grid) == 64


def test_grid_collapses_duplicates_on_discrete_column():
    z = np.repeat([0.0, 1.0, 2.0], 50)
    grid = conditioning_grid(z, count=100)
    assert np.all(np.diff(grid) > 0)
    assert len(grid) <= 100


def test_empirical_quantile_left_continuous():
    v = np.array([3.0, 1.0, 2.0])
    assert empirical_quantile(v, 1 / 3) == 1.0
    assert empirical_quantile(v, 1 / 3 + 1e-9) == 2.0
    assert empirical_quantile(v, 1.0) == 3.0
    assert empirical_quantile(v, 0.0) == 1.0


def test_empirical_quantile_array_matches_scalar():
    v = np.array([3.0, 1.0, 2.0])
    u = np.array([-1.0, 0.0, 1 / 3, 1.0, 1.5, np.nan])
    q = empirical_quantile(v, u)
    assert np.array_equal(q, [empirical_quantile(v, a) for a in u])
    assert np.array_equal(q, [1.0, 1.0, 1.0, 3.0, 3.0, 3.0])


def _rounded_samples(seed, n, decimals):
    """Ten rows of n normal draws times 10, rounded to `decimals`, so that rows hold ties."""
    return np.round(10 * np.random.default_rng(seed).standard_normal((10, n)), decimals)


def _first_cells_of_seed_0():
    """x rounded to 0.1 (30 to 119 rows) per cell of z (4 values), drawn from seed 0."""
    g = np.random.default_rng(0)
    n = int(g.integers(30, 120))
    z = g.integers(0, 4, n).astype(float)
    x = np.round(g.normal(size=n), 1)
    return [x[z == cell] for cell in np.unique(z)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(samples=st.builds(_rounded_samples, st.integers(0, 2**32 - 1), st.integers(1, 200),
                         st.integers(0, 1)))
@example(samples=[np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0])])
@example(samples=_first_cells_of_seed_0())
def test_empirical_quantile_inverts_the_empirical_cdf(samples):
    """Q(F(x)) == x for every value of every row, ties included."""
    for x in samples:
        f = np.searchsorted(np.sort(x), x, side="right") / len(x)
        assert np.array_equal(empirical_quantile(x, f), x)


def test_right_continuous_inverse_breaks_the_roundtrip():
    # the identity above is the left-continuous inverse's: the right-continuous one fails it
    x = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0])
    n = len(x)
    f = np.searchsorted(x, x, side="right") / n
    right_cont = x[np.minimum(np.searchsorted(np.arange(1, n + 1) / n, f, side="right"), n - 1)]
    assert np.any(right_cont != x)


def test_rng_spec_reproducible():
    a = RngSpec(seed=11, stream=2).generator().standard_normal(5)
    b = RngSpec(seed=11, stream=2).generator().standard_normal(5)
    c = RngSpec(seed=11, stream=3).generator().standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_substreams_distinct():
    base = RngSpec(seed=5)
    assert base.substream(1) != base.substream(2)
    a = base.substream(1).generator().standard_normal(3)
    b = base.substream(2).generator().standard_normal(3)
    assert not np.array_equal(a, b)


def test_parse_config_known_keys(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text("grid.count = 50\ntest.alpha_levels = 0.10,0.05\nrng.seed = 9\n")
    cfg = parse_config(p)
    assert cfg["grid.count"] == 50
    assert cfg["test.alpha_levels"] == (0.10, 0.05)
    assert cfg["rng.seed"] == 9


def test_parse_config_unknown_key_rejected(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text("not.a.key = 1\n")
    with pytest.raises(IvcheckError):
        parse_config(p)


def test_config_keys_documented():
    for key in ("grid.count", "test.alpha_levels", "npreg.method", "sim.replications",
                "sim.multiplier_draws", "rng.seed"):
        assert key in CONFIG_KEYS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("Recognized keys:", 1)[1].split("A value that does not parse", 1)[0]
    assert set(re.findall(r"`([a-z_]+\.[a-z_]+)`", listed)) == set(CONFIG_KEYS)


# (file bytes, y column, x columns, z columns), each read by np.loadtxt or by the per-cell reader
CSV_CORPUS = {
    "crlf": (b"y,x,z\r\n1,2,3\r\n4,5,6\r\n", "y", ["x"], ["z"]),
    "lone-cr": (b"y,x,z\r1,2,3\r4,5,6\r", "y", ["x"], ["z"]),
    "bom": (b"\xef\xbb\xbfy,x,z\n1,2,3\n4,5,6\n", "y", ["x"], ["z"]),
    "blank-lines": (b"y,x,z\n\n1,2,3\n\r\n\n4,5,6\n\n", "y", ["x"], ["z"]),
    "whitespace-line": (b"y,x,z\n1,2,3\n \t \n4,5,6\n", "y", ["x"], ["z"]),
    "quoted-cell": (b'y,x,z\n"1.5",2,3\n4,"5",6\n', "y", ["x"], ["z"]),
    # csv reads "c,d" as one cell; split at its comma, x and z would read 5 and 2
    "quoted-comma": (b'y,s,a,x,z\n1,"c,d",5,2,3\n', "y", ["x"], ["z"]),
    "underscore": (b"y,x,z\n1_0,2,3\n", "y", ["x"], ["z"]),
    "padded": (b"y,x,z\n 4 ,\t2,3 \n", "y", ["x"], ["z"]),
    "unicode-digit": ("y,x,z\n\u0661,2,3\n".encode(), "y", ["x"], ["z"]),
    # the per-cell reader names the file's column and counts the blank row, Dataset would not
    "nan": (b"y,x1,z\n1,2,3\n\n4,nan,6\n", "y", ["x1"], ["z"]),
    "minus-inf": (b"y,x,w\n\n1,2,-inf\n", "y", ["x"], ["w"]),
    "overflow": (b"y,x,z\n1e999,2,3\n", "y", ["x"], ["z"]),
    "nan-unread": (b"y,x,z,w\n1,2,3,nan\n", "y", ["x"], ["z"]),
    "text-cell": (b"y,x,z\n1,2,3\n\n4,abc,6\n", "y", ["x"], ["z"]),
    "empty-cell": (b"y,x,z\n1,,3\n", "y", ["x"], ["z"]),
    "short-row": (b"y,x,z\n1,2,3\n4,5\n", "y", ["x"], ["z"]),
    "extra-columns": (b"y,x,z\n1,2,3,4,5\n6,7,8\n", "y", ["x"], ["z"]),
    "x-is-z": (b"y,x\n1,2\n3,4\n", "y", ["x"], ["x"]),
    "column-order": (b"z,x2,y,x1\n1,2,3,4\n5,6,7,8\n", "y", ["x1", "x2"], ["z"]),
    "single-row": (b"y,x,z\n1,2,3", "y", ["x"], ["z"]),
    "negative-zero": (b"y,x,z\n-0,-0.0,0\n", "y", ["x"], ["z"]),
    "many-digits": (b"y,x,z\n0.1000000000000000055511151231257827021181583404541015625001,"
                    b"5e-324,1.7976931348623157e308\n", "y", ["x"], ["z"]),
    "header-only": (b"y,x,z\n", "y", ["x"], ["z"]),
    "header-and-blank-lines": (b"y,x,z\n\n\n", "y", ["x"], ["z"]),
    "empty-file": (b"", "y", ["x"], ["z"]),
    "missing-column": (b"y,x\n1,2\n", "y", ["x"], ["z"]),
}


def _load_or_error(path, y, x, z):
    try:
        ds = load_csv(path, y, x, z)
    except IvcheckError as exc:
        return type(exc), str(exc)
    return [(a.shape, a.strides, a.dtype, a.flags.writeable, a.tobytes()) for a in ds[:3]] + [
        ds.column_names]


@pytest.mark.parametrize("case", CSV_CORPUS)
def test_load_csv_matches_the_per_cell_reader(tmp_path, monkeypatch, case):
    # np.loadtxt reads the file, else the per-cell reader does: the same Dataset bit for bit,
    # or the same error and message, as the per-cell reader gives alone
    content, *columns = CSV_CORPUS[case]
    p = tmp_path / "d.csv"
    p.write_bytes(content)
    loaded = _load_or_error(p, *columns)
    monkeypatch.setattr(data, "_parse_columns", lambda lines, cols: None)
    assert loaded == _load_or_error(p, *columns)


def test_load_csv_reads_a_plain_file_without_the_per_cell_reader(tmp_path, monkeypatch):
    p = tmp_path / "d.csv"
    write_csv(generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=200), RngSpec(seed=1)), p)
    reference = load_csv(p, "y", ["x1"], ["z1"])
    monkeypatch.setattr(data, "_read_cells", None)  # calling it would raise TypeError
    ds = load_csv(p, "y", ["x1"], ["z1"])
    assert all(np.array_equal(a, b) for a, b in zip(ds[:3], reference[:3]))


def test_dataset_replace_goes_through_its_checks():
    ds = Dataset(y=[1.0, 2.0], x=[3.0, 4.0], z=[5.0, 6.0])
    moved = ds._replace(z=[[7], [8]])
    assert moved.z.dtype == float and not moved.z.flags.writeable
    assert np.array_equal(moved.z, [[7.0], [8.0]]) and moved.y is ds.y
    with pytest.raises(NonFiniteValue, match="row 1"):
        ds._replace(z=[1.0, np.nan])
    with pytest.raises(IvcheckError, match="share the row count"):
        ds._replace(x=[1.0])


def test_dataset_column_names_default_to_a_new_dict():
    one, two = (Dataset(y=[1.0], x=[2.0], z=[3.0]) for _ in range(2))
    one.column_names["y"] = "outcome"
    assert one.column_names == {"y": "outcome"} and two.column_names == {}
