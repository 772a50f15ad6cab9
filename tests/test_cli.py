import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ivcheck
from ivcheck import CONFIG_KEYS, parse_config
from ivcheck.cli import EXIT_ERROR, EXIT_OK, EXIT_REJECT, _test_config, build_parser, main
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


@pytest.fixture(scope="module")
def rank_csv(tmp_path_factory):
    # z ~ U(-3, 3), x = 3 z + noise, y = 2 x + noise: full rank support at x = 0
    p = tmp_path_factory.mktemp("fixtures") / "rank.csv"
    g = np.random.default_rng(0)
    z = g.uniform(-3, 3, 2000)
    x = 3 * z + g.standard_normal(2000)
    np.savetxt(p, np.c_[2 * x + g.standard_normal(2000), x, z], delimiter=",",
               header="y,x,z", comments="")
    return str(p)


BAD_EVALUATION_FLAGS = [
    (["mte", "--x", "nan", "--x-prime", "1"], "x must be finite, got nan"),
    (["mte", "--x", "1", "--x-prime", "inf"], "x_prime must be finite, got inf"),
    (["mte", "--asf-x", "nan"], "x must be finite, got nan"),
    (["mte", "--asf-x", "0", "--y-lower", "nan", "--y-upper", "1"],
     "y_lower must be finite, got nan"),
    (["mte", "--asf-x", "0", "--y-lower", "1", "--y-upper", "-1"],
     "outcome bounds must have lower <= upper, got (1.0, -1.0)"),
    (["identified-set", "--theta-lo", "nan", "--theta-hi", "3"],
     "--theta-lo and --theta-hi must be finite, got nan and 3.0"),
    (["identified-set", "--theta-lo", "1", "--theta-hi", "inf"],
     "--theta-lo and --theta-hi must be finite, got 1.0 and inf"),
]
BAD_EVALUATION_IDS = ["mte-x-nan", "mte-x-prime-inf", "asf-x-nan", "asf-lower-nan",
                      "asf-bounds-reversed", "identified-set-lo-nan", "identified-set-hi-inf"]


@pytest.mark.parametrize("argv, message", BAD_EVALUATION_FLAGS, ids=BAD_EVALUATION_IDS)
def test_non_finite_evaluation_points_exit_one(rank_csv, capsys, argv, message):
    code = main([argv[0], rank_csv, "--z-cols", "z", *argv[1:]])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert err.splitlines() == [f"error: {message}"], err


@pytest.mark.parametrize("argv, message", [
    *BAD_EVALUATION_FLAGS,
    (["identified-set", "--theta-lo", "1", "--theta-hi", "3", "--theta-count", "0"],
     "--theta-count must be at least 1, got 0"),
], ids=[*BAD_EVALUATION_IDS, "identified-set-count-0"])
def test_bad_evaluation_flags_exit_before_numpy_loads(rank_csv, argv, message):
    run = _run_cli(argv[0], rank_csv, "--z-cols", "z", *argv[1:], flags=("-X", "importtime"))
    assert run.returncode == EXIT_ERROR
    lines = run.stderr.splitlines()
    imported = {line.rsplit("|", 1)[1].strip() for line in lines
                if line.startswith("import time:") and "|" in line}
    assert "ivcheck.errors" in imported and "numpy" not in imported
    assert [line for line in lines if not line.startswith("import time:")] == [f"error: {message}"]


@pytest.mark.parametrize("argv, message", [
    (["--x", "nan", "--x-prime", "1"], "x must be finite, got nan"),
    (["--x", "1", "--x-prime", "inf"], "x_prime must be finite, got inf"),
    (["--asf-x", "inf"], "x must be finite, got inf"),
    (["--asf-x", "0", "--y-lower", "5", "--y-upper", "1"],
     "outcome bounds must have lower <= upper, got (5.0, 1.0)"),
    (["--y-lower", "-1", "--y-upper", "nan"], "y_upper must be finite, got nan"),
], ids=["x-nan", "x-prime-inf", "asf-x-inf", "bounds-reversed", "upper-nan"])
def test_mte_refuses_bad_evaluation_flags_before_reading_the_csv(rank_csv, tmp_path, capsys,
                                                                  argv, message):
    # the data's own lines (the rank diagnostics) never print, and a missing file is not read
    for path in (rank_csv, str(tmp_path / "missing.csv")):
        code = main(["mte", path, "--z-cols", "z", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"], captured.err


@pytest.mark.parametrize("rows, argv", [
    (1, ["fit"]),
    (3, ["overid"]),
    (3, ["fit", "--estimator", "gmm"]),
])
def test_fewer_rows_than_columns_exits_one(tmp_path, capsys, rows, argv):
    from ivcheck.data import Dataset
    g = np.random.default_rng(rows)
    x, z = g.standard_normal(rows), g.uniform(0, 1, rows)
    p = tmp_path / "short.csv"
    write_csv(Dataset(y=2.0 * x + g.standard_normal(rows), x=x, z=z), p)
    code = main(_args(str(p), *argv))
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "fewer rows" in lines[0]


@pytest.mark.parametrize("argv", [["test"], ["mte", "--x", "1", "--x-prime", "0"]])
def test_fewer_rows_than_the_floor_exit_one(tmp_path, capsys, argv):
    p = tmp_path / "three.csv"
    p.write_text("y,x,z\n1,2,3\n2,1.5,1\n0.5,0.2,2\n")
    code = main([argv[0], str(p), *argv[1:]])
    line = _one_error_line(capsys.readouterr().err)
    assert code == EXIT_ERROR
    assert "n >= 10 rows, got 3" in line, line


@pytest.mark.parametrize("statistic", ["sargan", "hansen-j"])
def test_overid_below_the_floor_exits_one(tmp_path, capsys, statistic):
    # six rows and four instrument columns: enough for the J statistic, too few for its p-value
    g = np.random.default_rng(3)
    z = g.uniform(0, 1, 6)
    x = z + 0.3 * g.standard_normal(6)
    p = tmp_path / "six.csv"
    np.savetxt(p, np.c_[2 * x + g.standard_normal(6), x, z], delimiter=",", header="y,x,z",
               comments="")
    code = main(["overid", str(p), "--z-cols", "z", "--statistic", statistic])
    line = _one_error_line(capsys.readouterr().err)
    assert code == EXIT_ERROR
    assert "n >= 10 rows, got 6" in line, line


def test_fit_boxcox_writes_the_profile_fit(tmp_path, capsys):
    from ivcheck.data import load_csv
    from ivcheck.estimators import fit_boxcox
    g = np.random.default_rng(14)
    x = 1 + g.uniform(0.2, 3.8, 1000)
    p, out = tmp_path / "log14.csv", tmp_path / "boxcox.csv"
    np.savetxt(p, np.c_[2 * np.log(x) + 0.3 * g.standard_normal(1000), x], delimiter=",",
               header="y,x", comments="")
    code = main(["fit", str(p), "--form", "boxcox", "--out", str(out)])
    assert code == EXIT_OK
    assert "box-cox fit: lambda = " in capsys.readouterr().out
    with open(out) as fh:
        (row,) = csv.DictReader(fh)
    fit = fit_boxcox(load_csv(p, "y", "x", "x"))
    assert [float(row[key]) for key in ("lambda", "beta0", "beta1")] == [fit.lam, fit.beta0,
                                                                         fit.beta1]


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
], ids=["draws"])
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


@pytest.fixture(scope="module")
def two_csv(tmp_path_factory):
    # two regressors x1, x2 and two instruments z1, z2; y and x positive for Box-Cox
    p = tmp_path_factory.mktemp("fixtures") / "two.csv"
    g = np.random.default_rng(0)
    z = g.uniform(0, 1, (200, 2))
    x = np.abs(z + g.standard_normal((200, 2))) + 0.5
    y = np.abs(1.0 + x[:, 0] + g.standard_normal(200)) + 1.0
    np.savetxt(p, np.c_[y, x, z], delimiter=",", header="y,x1,x2,z1,z2", comments="")
    return str(p)


@pytest.mark.parametrize("argv, message", [
    (["fit", "TWO", "--x-cols", "x1", "--z-cols", "z1,z2", "--estimator", "iv"],
     "fit_iv needs a just-identified system (k_z=2, k_x=1)"),
    (["test", "TWO", "--x-cols", "x1", "--z-cols", "z1", "--form", "boxcox", "--homoskedastic"],
     "homoskedasticity moments require a linear fit"),
    (["mte", "TWO", "--x-cols", "x1,x2", "--z-cols", "z1"], "fit_propensity expects scalar x and z"),
    (["fit", "TWO", "--x-cols", "x1,x2", "--z-cols", "z1,z2", "--form", "boxcox"],
     "fit_boxcox expects a scalar regressor"),
    (["overid", "TWO", "--x-cols", "x1,x2", "--z-cols", "z1", "--degree", "1"],
     "dim h(Z) below the number of parameters"),
    (["fit", "EMPTY"], "empty.csv is empty"),
    (["test", "TWO", "--x-cols", "x1", "--z-cols", "z1", "--config", "NOEQ"],
     "config line 2: expected key = value"),
], ids=["iv-overidentified", "boxcox-homoskedastic", "mte-two-regressors",
        "boxcox-two-regressors", "overid-too-few-instruments", "empty-csv", "config-without-equals"])
def test_bad_input_exits_one_with_its_error(two_csv, tmp_path, capsys, argv, message):
    files = {"TWO": two_csv, "EMPTY": tmp_path / "empty.csv", "NOEQ": tmp_path / "noeq.cfg"}
    files["EMPTY"].write_text("")
    files["NOEQ"].write_text("# the count\ngrid.count 50\n")
    code = main([str(files.get(a, a)) for a in argv])
    line = _one_error_line(capsys.readouterr().err)
    assert code == EXIT_ERROR
    assert line.startswith("error: ") and line.endswith(message), line


def test_every_test_config_field_has_a_config_key():
    fields = {field for _, field in CONFIG_KEYS.values()} - {None}
    assert fields == {f.name for f in dataclasses.fields(Cfg)}


def test_a_config_of_every_key_sets_the_test_config(tmp_path):
    cfg = tmp_path / "all.cfg"
    cfg.write_text("grid.count = 50\ntest.alpha_levels = 0.2, 0.1\nnpreg.method = local-linear\n"
                   "npreg.series_order = 3\nnpreg.bandwidth = 0.5\nsim.replications = 7\n"
                   "sim.multiplier_draws = 300\nrng.seed = 4\n")
    args = build_parser().parse_args(["test", "data.csv", "--alpha", "0.05"])
    assert _test_config(args, parse_config(cfg)) == Cfg(
        alpha_levels=(0.2, 0.1, 0.05), grid_count=50, method="local-linear", series_order=3,
        bandwidth=0.5, mult_draws=300)


@pytest.mark.parametrize("config, message", [
    ("no.such.key = 1\n", "error: config line 2: unknown key 'no.such.key'"),
    ("test.alpha_levels = a,b\n", "error: config line 2: bad value 'a,b' for test.alpha_levels"),
], ids=["unknown-key", "bad-alpha-list"])
def test_bad_config_exits_before_numpy_loads(small_csv, tmp_path, config, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# a comment\n" + config)
    run = _run_cli(*_args(small_csv, "test", "--config", str(cfg)), flags=("-X", "importtime"))
    assert run.returncode == EXIT_ERROR
    lines = run.stderr.splitlines()
    imported = {line.rsplit("|", 1)[1].strip() for line in lines
                if line.startswith("import time:") and "|" in line}
    assert "ivcheck._config" in imported and "numpy" not in imported
    assert [line for line in lines if not line.startswith("import time:")] == [message]


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
    # the series basis runs the Legendre recurrence itself, and only --manifest writes JSON
    src = str(Path(ivcheck.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = ("import sys; from ivcheck.cli import main; "
            f"code = main({_args(null_csv, 'test')!r}); "
            "print(code, 'numpy.polynomial' in sys.modules, 'json' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] in ("0 False False", "2 False False")


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


def test_singular_second_step_weight_exits_one(tmp_path, capsys):
    z = np.repeat(np.arange(5.0), 40)
    e = np.where(z <= 2, np.tile([1.0, -1.0], 100), 0.0)
    from ivcheck.data import Dataset
    p = tmp_path / "singular-weight.csv"
    write_csv(Dataset(y=1.0 + 2.0 * z + e, x=z, z=z), p)
    for argv in (("overid", "--statistic", "hansen-j"), ("fit", "--estimator", "gmm")):
        code = main(_args(str(p), *argv))
        err = capsys.readouterr().err
        assert code == EXIT_ERROR, argv
        lines = err.strip().splitlines()
        # the singular value is rounding noise, about 1e-17
        assert len(lines) == 1, argv
        assert lines[0].startswith("error: second-step weight matrix is rank deficient"), argv


def test_fit_reads_a_csv_with_a_byte_order_mark(null_csv, tmp_path, capsys):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbf" + Path(null_csv).read_bytes())
    code = main(_args(str(p), "fit", "--estimator", "iv"))
    assert code == EXIT_OK, capsys.readouterr().err
    assert "fit on n = 2000" in capsys.readouterr().out


def test_too_few_instrument_values_name_their_cause(tmp_path, capsys):
    # a binary z has 2 distinct values: its degree-3 polynomials are collinear with (1, z)
    g = np.random.default_rng(0)
    z = g.integers(0, 2, 500).astype(float)
    x = z + g.standard_normal(500)
    from ivcheck.data import Dataset
    p = tmp_path / "binary.csv"
    write_csv(Dataset(y=2.0 * x + g.standard_normal(500), x=x, z=z), p)
    for argv in (("overid", "--statistic", "sargan"), ("overid", "--statistic", "hansen-j"),
                 ("fit", "--estimator", "gmm")):
        code = main(_args(str(p), *argv))
        line = _one_error_line(capsys.readouterr().err)
        assert code == EXIT_ERROR, argv
        assert "degree-d polynomials need d + 1 distinct values" in line, line


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
    from ivcheck.npreg import DROP_REASONS
    p = tmp_path / "edge.csv"
    write_csv(Dataset(y=x * (1.0 + v) + 0.1 * g.standard_normal(n), x=x, z=z), p)
    code = main(_args(str(p), "mte", "--asf-x", "0.05", "--y-lower", "0", "--y-upper", "1"))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert f"dropped_rank_points = 6 ({DROP_REASONS['control-function']})" in out.splitlines()
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
