import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import ivcheck
from ivcheck.cli import _TEST_CONFIG_FIELDS, EXIT_ERROR, EXIT_OK, EXIT_REJECT, main
from ivcheck.clrtest import TestConfig as Cfg
from ivcheck.data import RngSpec, write_csv
from ivcheck.simulate import DgpFamily, DgpSpec, generate


@pytest.fixture(scope="module")
def null_csv(tmp_path_factory):
    p = tmp_path_factory.mktemp("fixtures") / "null.csv"
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=2000), RngSpec(seed=0))
    write_csv(ds, p)
    return str(p)


@pytest.fixture(scope="module")
def power_csv(tmp_path_factory):
    p = tmp_path_factory.mktemp("fixtures") / "power.csv"
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=2000, L=1.0, sigma=0.25),
                  RngSpec(seed=1))
    write_csv(ds, p)
    return str(p)


def _args(path, *extra):
    return [*extra[:1], path, "--x-cols", "x1", "--z-cols", "z1", *extra[1:]]


def test_fit_prints_and_exits_zero(null_csv, capsys):
    code = main(_args(null_csv, "fit", "--estimator", "iv"))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "fit on n = 2000" in out
    assert "(se " in out and "first-stage F" in out


def test_test_null_accepts(null_csv, capsys):
    code = main(_args(null_csv, "test", "--seed", "3"))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "reject" in out.lower()


def test_test_power_rejects_with_exit_2(power_csv):
    code = main(_args(power_csv, "test", "--seed", "3"))
    assert code == EXIT_REJECT


def test_test_writes_csv_and_manifest(power_csv, tmp_path):
    out = tmp_path / "report.csv"
    manifest = tmp_path / "run.json"
    code = main(_args(power_csv, "test", "--seed", "3",
                      "--out", str(out), "--manifest", str(manifest)))
    assert code == EXIT_REJECT
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    # pinned result-file schema
    assert set(rows[0]) == {"alpha", "k_crit", "k_crit_full", "theta_corrected",
                            "reject", "selected_set_size", "kappa_n", "gamma_n",
                            "grid_size", "n_moments", "method", "series_order",
                            "bandwidth", "mult_draws", "seed"}
    assert {row["alpha"] for row in rows} == {"0.1", "0.05", "0.01"}
    assert all(row["reject"] == "1" for row in rows)
    with open(manifest) as fh:
        meta = json.load(fh)
    assert meta["seed"] == 3
    assert meta["tool"] == "ivcheck"
    assert "command" in meta and "version" in meta


def test_overid_just_identified(null_csv, capsys):
    code = main(_args(null_csv, "overid", "--degree", "1"))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "0" in out


def test_overid_sargan_reports_pvalue(power_csv, capsys):
    code = main(_args(power_csv, "overid", "--statistic", "sargan"))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "p" in out.lower()


def test_identified_set_brackets_truth(null_csv, capsys):
    code = main(_args(null_csv, "identified-set",
                      "--theta-lo", "1.0", "--theta-hi", "3.0",
                      "--theta-count", "9", "--seed", "5"))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "2.0" in out or "accepted" in out.lower()


def test_mte_subcommand(tmp_path, capsys):
    g = np.random.default_rng(7)
    n = 4000
    z = g.uniform(0, 1, n)
    v = g.uniform(0, 1, n)
    x = 3.0 * z + v
    y = x * (1.0 + v) + 0.1 * g.standard_normal(n)
    from ivcheck.data import Dataset
    p = tmp_path / "mte.csv"
    write_csv(Dataset(y=y, x=x, z=z), p)
    out_csv = tmp_path / "mte-out.csv"
    code = main(_args(str(p), "mte", "--x", "2.2", "--x-prime", "1.8",
                      "--asf-x", "2.0", "--out", str(out_csv)))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "mte" in out.lower()
    overall, worst = re.search(r"KS to U\[0,1\] = ([0-9.]+), "
                               r"worst conditional bin = ([0-9.]+)", out).groups()
    assert overall != worst
    with open(out_csv) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["p", "mte", "x", "asf"]
    assert rows[-1]["asf"] and not rows[0]["asf"]


def test_mte_binary_instrument_exits_one(tmp_path, capsys):
    g = np.random.default_rng(142)
    n = 300
    z = g.integers(0, 2, n).astype(float)
    x = z + g.standard_normal(n)
    from ivcheck.data import Dataset
    p = tmp_path / "binary-z.csv"
    write_csv(Dataset(y=x + g.standard_normal(n), x=x, z=z), p)
    code = main(_args(str(p), "mte", "--x", "1", "--x-prime", "0"))
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_simulate_smoke(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code = main(["simulate", "--family", "linear-iv-null", "--n", "300",
                 "--reps", "3", "--seed", "11", "--out", str(out)])
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3  # one row per alpha level
    assert list(rows[0]) == ["dgp", "method", "alpha", "rejection_rate", "replications",
                             "mc_se", "failures"]


@pytest.mark.parametrize("config", [
    "npreg.method = local-linear\nnpreg.bandwidth = -1\n",
    "npreg.method = local-linear\nnpreg.bandwidth = 0\n",
    "npreg.method = kernel\n",
    "test.alpha_levels = 1.5\n",
    "grid.count = 1\n",
    "grid.count = ten\n",
    "test.alpha_levels = a,b\n",
    "rng.seed = -1\n",
    "npreg.bandwidth_scale = 2\n",
    # refused by their computed size, before the arrays are allocated
    "sim.multiplier_draws = 100000000000\n",
    "npreg.method = local-linear\ngrid.count = 100000000\n",
])
def test_bad_config_values_exit_one(null_csv, tmp_path, capsys, config):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config)
    code = main(_args(null_csv, "test", "--config", str(cfg)))
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("config", [
    "sim.multiplier_draws = 100\n",
    "grid.centile_lo = 0.9\ngrid.centile_hi = 0.1\n",
], ids=["draws", "centiles"])
def test_simulate_bad_config_exits_one(tmp_path, capsys, config):
    # rejected when the config is read, not as a failure of every replication
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config)
    code = main(["simulate", "--family", "linear-iv-null", "--n", "200", "--reps", "3",
                 "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert "rejection rate" not in captured.out
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("flags", [
    ["--jobs", "0"],
    ["--jobs", "-3"],
    ["--methods", "cmi,foo"],
    ["--methods", "cmi,,sargan"],
], ids=["jobs-zero", "jobs-negative", "unknown-method", "empty-method"])
def test_simulate_bad_flags_exit_one(capsys, flags):
    code = main(["simulate", "--family", "linear-iv-null", "--n", "200", "--reps", "3", *flags])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert "rejection rate" not in captured.out
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if "--methods" in flags:
        assert "cmi, sargan, hansen-j" in lines[0]


def test_every_test_config_field_has_a_config_key():
    assert set(_TEST_CONFIG_FIELDS.values()) == {f.name for f in dataclasses.fields(Cfg)}


def test_seed_flag_overrides_config(null_csv, tmp_path):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("rng.seed = 7\n")
    manifest = tmp_path / "run.json"
    code = main(_args(null_csv, "test", "--seed", "3", "--config", str(cfg),
                      "--manifest", str(manifest)))
    with open(manifest) as fh:
        meta = json.load(fh)
    assert meta["seed"] == 3
    assert meta["exit_code"] == code


def test_reps_flag_overrides_config(tmp_path):
    cfg = tmp_path / "reps.cfg"
    cfg.write_text("sim.replications = 5\n")
    out = tmp_path / "study.csv"
    code = main(["simulate", "--family", "linear-iv-null", "--n", "300", "--reps", "2",
                 "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert {row["replications"] for row in rows} == {"2"}


def test_alpha_outside_default_levels_decides(tmp_path):
    # a weak alternative that the test rejects at 0.2 but not at 0.05
    p = tmp_path / "weak.csv"
    write_csv(generate(DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=2000, L=0.2, sigma=0.25),
                       RngSpec(seed=13)), p)
    out = tmp_path / "report.csv"
    assert main(_args(str(p), "test")) == EXIT_OK
    code = main(_args(str(p), "test", "--alpha", "0.2", "--out", str(out)))
    with open(out) as fh:
        rows = {row["alpha"]: row for row in csv.DictReader(fh)}
    assert set(rows) == {"0.2", "0.1", "0.05", "0.01"}
    assert rows["0.2"]["reject"] == "1" and rows["0.05"]["reject"] == "0"
    assert code == EXIT_REJECT


def test_identified_set_rejects_homoskedastic_flag(null_csv, capsys):
    code = main(_args(null_csv, "identified-set", "--theta-lo", "1.0", "--theta-hi", "3.0",
                      "--homoskedastic"))
    assert code == EXIT_ERROR


def test_identified_set_two_regressors_exits_one(tmp_path, capsys):
    g = np.random.default_rng(143)
    n = 500
    x = g.standard_normal((n, 2))
    y = 2.0 * x[:, 0] + 5.0 * x[:, 1] + g.standard_normal(n)
    from ivcheck.data import Dataset
    p = tmp_path / "two-x.csv"
    write_csv(Dataset(y=y, x=x, z=x), p)
    code = main(["identified-set", str(p), "--x-cols", "x1,x2", "--z-cols", "z1,z2",
                 "--theta-lo", "1.0", "--theta-hi", "3.0", "--theta-count", "5"])
    captured = capsys.readouterr()
    assert code == EXIT_ERROR
    assert "identified set" not in captured.out
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "x1, x2" in lines[0]


def test_missing_file_exits_one(capsys):
    code = main(["fit", "/nonexistent/file.csv"])
    assert code == EXIT_ERROR


def test_unknown_flag_exits_one(capsys):
    code = main(["fit", "--definitely-not-a-flag"])
    assert code == EXIT_ERROR


def test_version_flag_exits_zero(capsys):
    code = main(["--version"])
    assert code == EXIT_OK


def test_cli_import_leaves_scipy_out():
    src = str(Path(ivcheck.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, ivcheck.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_test_request_leaves_numpy_polynomial_out(null_csv):
    # the series basis runs the Legendre recurrence itself
    src = str(Path(ivcheck.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys; from ivcheck.cli import main; "
            f"code = main({_args(null_csv, 'test')!r}); "
            "print(code, 'numpy.polynomial' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] in ("0 False", "2 False")


def test_mte_over_the_array_budget_exits_one(null_csv, capsys):
    from ivcheck import mte

    with mock.patch.object(mte, "ARRAY_BUDGET_BYTES", 2**20):
        code = main(_args(null_csv, "mte"))
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "budget" in lines[0]


def _run_cli(*argv, flags=()):
    src = str(Path(ivcheck.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *flags, "-m", "ivcheck.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_mte_reports_dropped_grid_points(tmp_path):
    # the gapped instrument of the propensity tests: 44 of 50 z-grid points kept
    g = np.random.default_rng(0)
    n = 500
    z = np.where(g.random(n) < 0.5, g.uniform(-3, -1, n), g.uniform(1, 3, n))
    x = z + g.standard_normal(n)
    from ivcheck.data import Dataset
    p = tmp_path / "gapped.csv"
    write_csv(Dataset(y=x, x=x, z=z), p)
    run = _run_cli(*_args(str(p), "mte"))
    assert run.returncode == EXIT_OK, run.stderr
    assert "dropped_grid_points = 6" in run.stdout
    assert run.stderr.splitlines() == [
        "warning: dropping 6 grid points with empty kernel windows"]


def test_overid_exact_fit_exits_one(tmp_path, capsys):
    g = np.random.default_rng(0)
    z = g.uniform(0, 1, 100)
    x = z + g.standard_normal(100)
    from ivcheck.data import Dataset
    p = tmp_path / "exact.csv"
    write_csv(Dataset(y=1.0 + 2.0 * x, x=x, z=z), p)
    for statistic in ("sargan", "hansen-j"):
        code = main(_args(str(p), "overid", "--statistic", statistic))
        err = capsys.readouterr().err
        assert code == EXIT_ERROR
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


def _one_error_line(err):
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1, err
    return lines[0]


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    p = tmp_path_factory.mktemp("fixtures") / "small.csv"
    write_csv(generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=200), RngSpec(seed=0)), p)
    return str(p)


HEAVY = {"ivcheck.mte", "ivcheck.simulate", "ivcheck.overid", "multiprocessing",
         "concurrent.futures.process"}
# the sup test and what only it needs
PIPELINE = {"ivcheck.clrtest", "ivcheck.npreg", "ivcheck.moments", "numpy.random"}


@pytest.mark.parametrize("argv, codes, excluded", [
    (["--version"], {EXIT_OK}, {"numpy"}),
    (["--help"], {EXIT_OK}, {"numpy"}),
    (["test", "--help"], {EXIT_OK}, {"numpy"}),
    (["fit", "--definitely-not-a-flag"], {EXIT_ERROR}, {"numpy"}),
    (["fit", "DATA"], {EXIT_OK}, PIPELINE | HEAVY),
    (["overid", "DATA"], {EXIT_OK}, PIPELINE | HEAVY - {"ivcheck.overid"}),
    (["mte", "DATA"], {EXIT_OK}, {"ivcheck.clrtest", "ivcheck.moments"} | HEAVY - {"ivcheck.mte"}),
    (["test", "DATA"], {EXIT_OK, EXIT_REJECT}, HEAVY),
    (["identified-set", "DATA", "--theta-lo", "1", "--theta-hi", "3", "--theta-count", "3"],
     {EXIT_OK}, HEAVY),
], ids=["--version", "--help", "test-help", "unknown-flag", "fit", "overid", "mte", "test",
        "identified-set"])
def test_cli_request_imports_only_its_subcommand(small_csv, argv, codes, excluded):
    if "DATA" in argv:
        argv = _args(small_csv, argv[0], *argv[2:])
    run = _run_cli(*argv, flags=("-X", "importtime"))
    assert run.returncode in codes, run.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:") and "|" in line}
    assert "ivcheck.errors" in imported
    assert not imported & excluded


def test_fit_boxcox_refuses_gmm(null_csv, capsys):
    # the Box-Cox profile is fitted by OLS or IV: gmm is refused, not fitted as OLS
    code = main(_args(null_csv, "fit", "--form", "boxcox", "--estimator", "gmm"))
    captured = capsys.readouterr()
    line = _one_error_line(captured.err)
    assert code == EXIT_ERROR and line.startswith("error: ")
    assert "ols" in line and "iv" in line
    assert "box-cox fit" not in captured.out


def test_bad_family_names_the_families(capsys):
    code = main(["simulate", "--family", "linear-iv", "--n", "200", "--reps", "2"])
    line = _one_error_line(capsys.readouterr().err)
    assert code == EXIT_ERROR and line.startswith("error: ")
    assert all(f.value in line for f in DgpFamily)


def test_bad_propensity_method_names_the_methods(null_csv, capsys):
    from ivcheck.mte import PROPENSITY_METHODS

    code = main(_args(null_csv, "mte", "--propensity-method", "series"))
    line = _one_error_line(capsys.readouterr().err)
    assert code == EXIT_ERROR and line.startswith("error: ")
    assert all(m in line for m in PROPENSITY_METHODS)


def test_bad_method_names_the_methods(null_csv, capsys):
    from ivcheck.clrtest import METHODS

    code = main(_args(null_csv, "test", "--method", "kernel"))
    line = _one_error_line(capsys.readouterr().err)
    assert code == EXIT_ERROR
    assert all(m in line for m in METHODS)


@pytest.mark.parametrize("count", ["0", "-1"])
def test_identified_set_refuses_empty_theta_grid(null_csv, capsys, count):
    code = main(_args(null_csv, "identified-set", "--theta-lo", "1.0", "--theta-hi", "3.0",
                      "--theta-count", count))
    line = _one_error_line(capsys.readouterr().err)
    assert code == EXIT_ERROR and line.startswith("error: ") and "--theta-count" in line


@pytest.mark.parametrize("degree", ["0", "-2"])
def test_overid_refuses_degree_below_one(null_csv, capsys, degree):
    code = main(_args(null_csv, "overid", "--degree", degree))
    line = _one_error_line(capsys.readouterr().err)
    assert code == EXIT_ERROR and line.startswith("error: ") and "degree" in line


def test_mte_reports_points_off_the_rank_support(null_csv, capsys):
    code = main(_args(null_csv, "mte", "--x", "100", "--x-prime", "0"))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    skipped = [line for line in out.splitlines() if line.startswith("  MTE(")]
    assert skipped == [f"  MTE(p={p:.2f}; 100.0, 0.0): off the rank support"
                       for p in np.linspace(0.1, 0.9, 9)]


def test_mte_reports_a_window_without_a_plane_off_the_rank_support(tmp_path, capsys):
    # x in {0, 10}: the rows near x = 0 all have x = 0 and span no local plane
    g = np.random.default_rng(0)
    n = 1000
    z = g.uniform(0, 1, n)
    x = np.where(g.uniform(0, 1, n) < 0.5 + 0.3 * (z - 0.5), 0.0, 10.0)
    from ivcheck.data import Dataset
    p = tmp_path / "two-point-x.csv"
    write_csv(Dataset(y=x + g.standard_normal(n), x=x, z=z), p)
    # x' = 0 takes the x = x' path, which needs the same plane as an MTE at x
    for x_prime in (10.0, 0.0):
        code = main(_args(str(p), "mte", "--x", "0", "--x-prime", str(x_prime)))
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert f"  MTE(p=0.50; 0.0, {x_prime}): off the rank support" in out.splitlines()


def test_mte_reports_dropped_rank_points(tmp_path, capsys):
    # few rows near x = 0.05: 6 rank points of the support have no local plane
    g = np.random.default_rng(7)
    n = 500
    z = g.uniform(0, 1, n)
    v = g.uniform(0, 1, n)
    x = 3.0 * z + v
    from ivcheck.data import Dataset
    p = tmp_path / "edge.csv"
    write_csv(Dataset(y=x * (1.0 + v) + 0.1 * g.standard_normal(n), x=x, z=z), p)
    code = main(_args(str(p), "mte", "--asf-x", "0.05", "--y-lower", "0", "--y-upper", "1"))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "dropped_rank_points = 6 (off the rank support)" in out.splitlines()
    code = main(_args(str(p), "mte", "--asf-x", "2.0"))
    assert code == EXIT_OK
    assert "dropped_rank_points" not in capsys.readouterr().out


@pytest.mark.parametrize("flag, family, name", [
    ("--sigma", "linear-iv-power", "sigma"),
    ("--deviation", "linear-iv-power", "L"),
    ("--lam", "boxcox-iv-null", "lam"),
    ("--rho", "hetero-power", "rho"),
])
def test_simulate_refuses_non_finite_parameters(capsys, flag, family, name):
    code = main(["simulate", "--family", family, "--n", "200", "--reps", "2", flag, "nan"])
    captured = capsys.readouterr()
    line = _one_error_line(captured.err)
    assert code == EXIT_ERROR and "rejection rate" not in captured.out
    assert line == f"error: {name} must be finite, got nan"
