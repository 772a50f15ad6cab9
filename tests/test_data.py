import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivcheck import CONFIG_KEYS, parse_config
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
