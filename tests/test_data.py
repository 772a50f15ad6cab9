import re
from pathlib import Path

import numpy as np
import pytest

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


def test_write_then_read_roundtrip(tmp_path):
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=1000), RngSpec(seed=3))
    p = tmp_path / "sim.csv"
    write_csv(ds, p)
    back = load_csv(p, "y", ["x1"], ["z1"])
    assert np.array_equal(back.y, ds.y)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.z, ds.z)


def test_dataset_rejects_nonfinite():
    with pytest.raises(IvcheckError):
        Dataset(y=np.array([1.0, np.inf]), x=np.array([1.0, 2.0]), z=np.array([1.0, 2.0]))


def test_dataset_rejects_row_mismatch():
    with pytest.raises(IvcheckError):
        Dataset(y=np.array([1.0, 2.0]), x=np.array([1.0, 2.0, 3.0]), z=np.array([1.0, 2.0]))


def test_grid_1_to_100():
    z = np.arange(1.0, 101.0)
    grid = conditioning_grid(z, 0.01, 0.99, 100)
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
    assert cfg["test.alpha_levels"] == "0.10,0.05"
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
