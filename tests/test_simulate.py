import ctypes
import gc
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ivcheck import simulate
from ivcheck.clrtest import TestConfig as Cfg
from ivcheck.data import Dataset, RngSpec
from ivcheck.errors import IvcheckError, RelevanceWarning
from ivcheck.moments import Conditioning, ModelForm
from ivcheck.simulate import (
    DESIGNS,
    DgpFamily,
    DgpSpec,
    Method,
    _openblas_setter,
    _pin_blas,
    generate,
    model_spec_for,
    power_curve,
    run_study,
)


def test_linear_iv_null_moment_oracle():
    ds = generate(DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=100_000), RngSpec(seed=0))
    x, z = ds.x[:, 0], ds.z[:, 0]
    cov_xz = np.mean((x - x.mean()) * (z - z.mean()))
    # Cov(X, Z) = gamma1 Var(Z) = 3 * 3 for Z uniform on [-3, 3]
    assert abs(cov_xz - 9.0) < 0.2


def test_power_dgp_l_zero_collapses_to_null():
    n = 100_000
    sp0 = DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=n, L=0.0, sigma=0.5)
    ds0 = generate(sp0, RngSpec(seed=1))
    u0 = ds0.y - 2.0 * ds0.x[:, 0]
    g = RngSpec(seed=2).generator()
    vv = g.multivariate_normal([0, 0], [[1, 0.5], [0.5, 1]], size=n, method="cholesky")
    u_ref = np.clip(vv[:, 0], -3.0, 3.0)
    ks = stats.ks_2samp(u0, u_ref).statistic
    assert ks < 0.02


def test_power_dgp_conditional_mean_shape():
    sp = DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=1_000_000, L=1.0, sigma=0.5)
    ds = generate(sp, RngSpec(seed=3))
    z = ds.z[:, 0]
    u = ds.y - 2.0 * ds.x[:, 0]
    edges = np.linspace(-3, 3, 31)
    gaps = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (z >= lo) & (z < hi)
        mid = 0.5 * (lo + hi)
        gaps.append(abs(u[sel].mean() - 2.0 * stats.norm.pdf(mid / 0.5)))
    assert max(gaps) < 0.02


def test_truncated_noise_mean_zero():
    sp = DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=1_000_000, L=0.0, sigma=0.5)
    ds = generate(sp, RngSpec(seed=4))
    u = ds.y - 2.0 * ds.x[:, 0]
    assert abs(u.mean()) < 0.005
    assert np.all(np.abs(u) <= 3.0 + 1e-9)


def test_boxcox_null_positive_x_and_half_open_z():
    sp = DgpSpec(family=DgpFamily.BOXCOX_IV_NULL, n=50_000, lam=0.0)
    ds = generate(sp, RngSpec(seed=5))
    assert np.all(ds.x > 0)
    assert np.all(ds.z > 0) and np.all(ds.z <= 10.0)


def test_model_spec_for_families():
    # family -> (form, conditioning, tested with homoskedasticity)
    expected = {
        DgpFamily.LINEAR_IV_NULL: (ModelForm.LINEAR, Conditioning.ON_Z, False),
        DgpFamily.LINEAR_OLS_NULL: (ModelForm.LINEAR, Conditioning.ON_X, False),
        DgpFamily.BOXCOX_IV_NULL: (ModelForm.BOXCOX, Conditioning.ON_Z, False),
        DgpFamily.BOXCOX_OLS_NULL: (ModelForm.BOXCOX, Conditioning.ON_X, False),
        DgpFamily.LINEAR_IV_POWER: (ModelForm.LINEAR, Conditioning.ON_Z, False),
        DgpFamily.LINEAR_OLS_POWER: (ModelForm.LINEAR, Conditioning.ON_X, False),
        DgpFamily.BOXCOX_POWER: (ModelForm.BOXCOX, Conditioning.ON_Z, False),
        DgpFamily.HETERO_POWER: (ModelForm.LINEAR, Conditioning.ON_X, True),
    }
    assert set(expected) == set(DgpFamily)
    for family, (form, conditioning, homoskedastic) in expected.items():
        spec = model_spec_for(DgpSpec(family=family, n=100, rho=0.5))
        assert spec.form is form
        assert spec.conditioning is conditioning
        assert spec.homoskedastic is homoskedastic


def test_readme_family_table_matches_designs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)` \| (IV|OLS) \| ([a-z-]+) \| ([a-z]+) \| (.+) \|$", readme, re.M)
    documented = {DgpFamily(row[0]): (row[1] == "IV", *row[2:]) for row in rows}
    expected = {}
    for family, d in DESIGNS.items():
        spec = model_spec_for(DgpSpec(family=family, n=100))
        assumptions = "exogeneity and homoskedasticity" if spec.homoskedastic else "exogeneity"
        form = "linear" if spec.form is ModelForm.LINEAR else "Box-Cox"
        tested = f"{form}, {assumptions} given {spec.conditioning.value}"
        expected[family] = (d.instrumented, d.form.value, d.deviation.value, tested)
    assert documented == expected


# First five values of (y, x, z) per family for RngSpec(seed=0), n=50, lam=0.5,
# L=0.5, sigma=0.25, rho=1.0; a change to any family's random stream shows here.
STREAM_HEADS = {
    DgpFamily.LINEAR_IV_NULL: (
        [13.938361655047139, -12.47852203735048, 14.311687648415216, -14.107129733426309, 2.508626123579884],
        [7.383047603689164, -6.1984650324406925, 7.011277330395018, -6.646330383818207, 0.1939798069653058],
        [2.657625317297276, -1.1019770856870115, 1.3340555318989527, -2.2463814874038404, -0.46214182491017963],
    ),
    DgpFamily.LINEAR_OLS_NULL: (
        [4.487517082263362, -2.3369686170637545, 2.58651909132881, -6.648474116077141, -0.6351506621951795],
        [2.657625317297276, -1.1019770856870115, 1.3340555318989527, -2.2463814874038404, -0.46214182491017963],
        [2.657625317297276, -1.1019770856870115, 1.3340555318989527, -2.2463814874038404, -0.46214182491017963],
    ),
    DgpFamily.BOXCOX_IV_NULL: (
        [12.542931861593559, 5.979615150106176, 13.00126630815355, 1.6413820697247004, 10.795007538354628],
        [18.85875105765759, 6.326743047709962, 17.455962507694665, 2.6048757870471793, 10.039932531995246],
        [9.429375528828794, 3.163371523854981, 7.223425886498253, 1.2560308543269327, 4.229763625149701],
    ),
    DgpFamily.BOXCOX_OLS_NULL: (
        [7.455181755577626, 2.9813333376056352, 6.668980765016664, -1.6727998473410466, 4.515688646124989],
        [9.429375528828794, 3.163371523854981, 7.223425886498253, 1.2560308543269327, 4.229763625149701],
        [9.429375528828794, 3.163371523854981, 7.223425886498253, 1.2560308543269327, 4.229763625149701],
    ),
    DgpFamily.LINEAR_IV_POWER: (
        [14.059897021046051, -10.50879950472369, 12.333168494182196, -14.452509603643625, 2.2939283150288947],
        [7.44381528668862, -5.21362785485608, 6.0220174917105815, -6.819020318926865, 0.014374841517871717],
        [2.657625317297276, -1.1019770856870115, 1.3340555318989527, -2.2463814874038404, -0.46214182491017963],
    ),
    DgpFamily.LINEAR_OLS_POWER: (
        [4.487517082263362, -2.3369204396061893, 2.5865196144646623, -6.648474116077141, -0.49063853985130046],
        [2.657625317297276, -1.1019770856870115, 1.3340555318989527, -2.2463814874038404, -0.46214182491017963],
        [2.657625317297276, -1.1019770856870115, 1.3340555318989527, -2.2463814874038404, -0.46214182491017963],
    ),
    DgpFamily.BOXCOX_POWER: (
        [12.542931861593559, 5.979615150106176, 12.520807044978714, 1.525327619809389, 10.681129919283688],
        [18.85875105765759, 6.326743047709962, 16.466702669010232, 2.5120617086538655, 9.860327566547813],
        [9.429375528828794, 3.163371523854981, 7.223425886498253, 1.2560308543269327, 4.229763625149701],
    ),
    DgpFamily.HETERO_POWER: (
        [4.209436184761552, -2.3456584606316615, 2.5788155586071713, -7.185842611151306, -0.6317401327285772],
        [2.657625317297276, -1.1019770856870115, 1.3340555318989527, -2.2463814874038404, -0.46214182491017963],
        [2.657625317297276, -1.1019770856870115, 1.3340555318989527, -2.2463814874038404, -0.46214182491017963],
    ),
}


@pytest.mark.parametrize("family, cov", [
    (DgpFamily.LINEAR_IV_NULL, [[1.0, 0.5], [0.5, 2.0]]),
    (DgpFamily.LINEAR_IV_POWER, [[1.0, 0.5], [0.5, 1.0]]),
], ids=["size", "power"])
def test_generate_draws_errors_as_multivariate_normal(family, cov):
    # L = 0 leaves the power design's errors at clip(u, -3, 3)
    spec = DgpSpec(family=family, n=500, L=0.0, sigma=0.25)
    for seed in range(20):
        ds = generate(spec, RngSpec(seed=seed))
        gen = RngSpec(seed=seed).generator()
        c = gen.uniform(-3.0, 3.0, spec.n)
        u, v = gen.multivariate_normal([0.0, 0.0], cov, size=spec.n, method="cholesky").T
        x = 3.0 * c + v
        if family is DgpFamily.LINEAR_IV_POWER:
            u = np.clip(u, -3.0, 3.0)
        assert np.array_equal(ds.x[:, 0], x)
        assert np.array_equal(ds.y, 2.0 * x + u)


@pytest.mark.parametrize("family", list(DgpFamily), ids=lambda f: f.value)
def test_generate_stream_pinned(family):
    spec = DgpSpec(family=family, n=50, lam=0.5, L=0.5, sigma=0.25, rho=1.0)
    ds = generate(spec, RngSpec(seed=0))
    for got, want in zip((ds.y, ds.x[:, 0], ds.z[:, 0]), STREAM_HEADS[family]):
        np.testing.assert_allclose(got[:5], want, rtol=1e-12, atol=1e-12)


def test_spec_validation():
    with pytest.raises(IvcheckError):
        DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=100, L=-1.0, sigma=0.5)
    with pytest.raises(IvcheckError):
        DgpSpec(family=DgpFamily.HETERO_POWER, n=100, rho=2.0)
    with pytest.raises(IvcheckError):
        DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=10)


def test_spec_replace_goes_through_its_checks():
    spec = DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=100)
    with pytest.raises(IvcheckError, match="n must be at least 50"):
        spec._replace(n=10)
    with pytest.raises(IvcheckError, match="n must be at least 50"):
        power_curve(spec, [40], reps=1)  # each n goes through `_replace`
    assert spec._replace(n=60) == DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=60)


def test_generate_tells_one_rng_spec_from_a_sequence_of_them():
    # a RngSpec is a tuple too, but only a list or tuple of them draws a stack
    spec = DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=100)
    one = generate(spec, RngSpec(seed=2, stream=1))
    assert one.y.shape == (100,) and one.x.shape == (100, 1)
    for specs in ([RngSpec(seed=2, stream=1), RngSpec(seed=3)],
                  (RngSpec(seed=2, stream=1), RngSpec(seed=3))):
        stack = generate(spec, specs)
        assert stack.y.shape == (2, 100) and stack.z.shape == (2, 100, 1)
        assert np.array_equal(stack.y[0], one.y) and np.array_equal(stack.x[0], one.x)


def test_run_study_rates_and_se():
    specs = [DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=400, L=1.0, sigma=0.25)]
    res = run_study(specs, [Method.CMI, Method.SARGAN], reps=30, cfg=Cfg(),
                    rng=RngSpec(seed=6), jobs=1)
    for cell in res.cells:
        assert 0.0 <= cell.rejection_rate <= 1.0
        r = cell.rejection_rate
        assert abs(cell.mc_se - np.sqrt(r * (1 - r) / cell.replications)) < 1e-12
    # strong signal: CMI rejects most of the time at 10%
    assert res.rate(specs[0].label(), "cmi", 0.10) >= 0.8


def test_study_rate_of_a_missing_cell_raises_key_error():
    cell = simulate.CellResult(dgp="null", method="cmi", alpha=0.05, rejection_rate=0.25,
                               replications=4, mc_se=0.2)
    res = simulate.StudyResult(cells=(cell,), runtime_seconds=0.0, config={})
    assert res.rate("null", "cmi", 0.05) == 0.25
    with pytest.raises(KeyError):
        res.rate("null", "sargan", 0.05)


def test_run_study_refuses_one_spec_for_a_sequence():
    spec = DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=300)
    with pytest.raises(IvcheckError, match=re.escape(
            f"run_study takes a sequence of DgpSpec, got one: {spec!r}")):
        run_study(spec, reps=1)


def test_run_study_deterministic_across_workers():
    specs = [DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=300),
             DgpSpec(family=DgpFamily.HETERO_POWER, n=300, rho=0.9)]
    for methods, jobs in (([Method.CMI], 3), ([Method.CMI, Method.SARGAN], 2)):
        r1 = run_study(specs, methods, reps=12, cfg=Cfg(), rng=RngSpec(seed=7), jobs=1)
        rj = run_study(specs, methods, reps=12, cfg=Cfg(), rng=RngSpec(seed=7), jobs=jobs)
        assert r1.to_rows() == rj.to_rows()


def _blas_threads():
    lib, name = _openblas_setter()
    return getattr(ctypes.CDLL(lib), name.replace("_set_", "_get_"))()


def test_run_study_records_worker_blas_threads():
    spec = [DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=200)]
    serial = run_study(spec, [Method.SARGAN], reps=2, rng=RngSpec(seed=1), jobs=1)
    assert serial.config["worker_blas_threads"] is None
    setter = _openblas_setter()
    before = _blas_threads() if setter else None
    pooled = run_study(spec, [Method.SARGAN], reps=2, rng=RngSpec(seed=1), jobs=2)
    assert pooled.config["worker_blas_threads"] == (1 if setter else None)
    if setter:
        assert _blas_threads() == before  # the calling process keeps its threads
        with ProcessPoolExecutor(1, initializer=_pin_blas, initargs=setter) as pool:
            assert pool.submit(_blas_threads).result(timeout=60) == 1


def _worker_pids():
    return {p.pid for p in multiprocessing.active_children()}


def _study(jobs, seed=12):
    spec = [DgpSpec(family=DgpFamily.HETERO_POWER, n=300, rho=0.9)]
    return run_study(spec, [Method.CMI, Method.SARGAN], reps=8, rng=RngSpec(seed=seed),
                     jobs=jobs).to_rows()


def test_run_study_reuses_its_workers():
    serial = _study(1)
    first = _study(2)
    workers = _worker_pids()
    second = _study(2)
    assert len(workers) == 2 and _worker_pids() == workers
    assert first == second == serial


def test_run_study_replaces_workers_when_jobs_changes():
    serial = _study(1, seed=13)
    seen = []
    for jobs in (2, 3, 2):
        assert _study(jobs, seed=13) == serial
        seen.append(_worker_pids())
        assert len(seen[-1]) == jobs
    assert not seen[0] & seen[1] and not seen[1] & seen[2]


def test_run_study_replaces_a_pool_whose_worker_died():
    first = _study(2, seed=14)
    victim = multiprocessing.active_children()[0]
    os.kill(victim.pid, signal.SIGKILL)
    # the pool's manager thread may reap the worker first, and a join here then returns
    # before that thread has stored the exit code, so wait on the exit code itself
    deadline = time.monotonic() + 60
    while victim.exitcode is None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert victim.exitcode == -signal.SIGKILL
    assert _study(2, seed=14) == first
    assert victim.pid not in _worker_pids()


def test_dropping_a_pool_right_after_a_worker_died_returns():
    # A worker killed while idle may hold the call queue's read lock; which of the two holds
    # it varies, so each is killed in turn. In a subprocess, so that a hang fails the test.
    code = """
import multiprocessing, os, signal
from ivcheck import simulate
from ivcheck.data import RngSpec
spec = [simulate.DgpSpec(family=simulate.DgpFamily.LINEAR_IV_NULL, n=200)]
for victim in (0, 1, 0, 1):
    simulate.run_study(spec, [simulate.Method.SARGAN], reps=4, rng=RngSpec(seed=1), jobs=2)
    os.kill(multiprocessing.active_children()[victim].pid, signal.SIGKILL)
    simulate._drop_pool()  # before the pool's manager thread has seen the death
"""
    src = str(Path(simulate.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert run.returncode == 0, run.stderr


def test_run_study_failure_counting():
    # n below the validity floor triggers per-replication failures, not a crash
    specs = [DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=50)]
    res = run_study(specs, [Method.CMI], reps=5, cfg=Cfg(series_order=60),
                    rng=RngSpec(seed=8), jobs=1)
    for cell in res.cells:
        assert cell.failures > 0
        assert cell.failures + cell.replications == 5


def test_power_curve_rows_and_dominance():
    rows = power_curve(DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=250, L=1.0, sigma=0.25),
                       [250, 500], [Method.CMI, Method.SARGAN], reps=10,
                       cfg=Cfg(), rng=RngSpec(seed=9))
    assert {r["n"] for r in rows} == {250, 500}
    for r in rows:
        assert set(r) >= {"n", "method", "alpha", "rate", "mc_se"}


def test_power_curve_same_rows_in_workers():
    spec = DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=200, L=1.0, sigma=0.25)
    rows = [power_curve(spec, [200, 300, 400], [Method.CMI, Method.SARGAN], reps=6,
                        rng=RngSpec(seed=15), jobs=jobs) for jobs in (1, 2)]
    assert rows[0] == rows[1]


def test_run_study_refuses_zero_replications():
    with pytest.raises(IvcheckError, match="reps must be >= 1"):
        run_study([DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=200)], [Method.CMI], reps=0)


def test_power_curve_requires_increasing_n():
    with pytest.raises(IvcheckError):
        power_curve(DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=250, L=1.0, sigma=0.25),
                    [500, 250], [Method.CMI], reps=2, cfg=Cfg(), rng=RngSpec(seed=10))


def test_generate_deterministic():
    sp = DgpSpec(family=DgpFamily.BOXCOX_POWER, n=500, L=0.5, sigma=0.5)
    a = generate(sp, RngSpec(seed=11))
    b = generate(sp, RngSpec(seed=11))
    assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x)


FAMILY_PARAMS = {"lam": 0.5, "L": 0.5, "sigma": 0.25, "rho": 1.0}


def _recorded(monkeypatch, name, field):
    """Wrap simulate.<name> so that it appends `field` of every report it returns."""
    seen, real = [], getattr(simulate, name)

    def recording(*args):
        reports = real(*args)
        seen.extend(getattr(r, field) if field != "theta_corrected" else
                    [r.theta_corrected(a) for a in r.alpha_levels] for r in reports)
        return reports

    monkeypatch.setattr(simulate, name, recording)
    return seen


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(list(DgpFamily)),
    n=st.integers(60, 1500),
    reps=st.integers(1, 10),
    seed=st.integers(0, 2**16),
)
def test_chunk_equals_replications_one_at_a_time(family, n, reps, seed):
    """One stacked chunk decides as its replications run alone, with the same
    theta_corrected and Sargan p, compared with ==; Hansen J decides alike too."""
    spec = DgpSpec(family=family, n=n, **FAMILY_PARAMS)
    rng = RngSpec(seed=seed).substream(1_000)
    cfg = Cfg(mult_draws=200)
    runs = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        for chunks in ([range(reps)], [range(rep, rep + 1) for rep in range(reps)]):
            theta = _recorded(monkeypatch, "test_model", "theta_corrected")
            p = _recorded(monkeypatch, "sargan", "p_value")
            rows = [row for chunk in chunks for row in simulate._chunk(
                (spec, list(Method), cfg, rng, chunk))[0]]
            runs.append((rows, theta, p))
            monkeypatch.undo()
    assert runs[0] == runs[1]
    rows, theta, p = runs[0]
    assert len(rows) == len(theta) == len(p) == reps


def _weak_and_constant_instruments(monkeypatch, rng, constant):
    """Patch generate: replication `constant` gets a constant instrument, every odd one an
    instrument unrelated to x (a weak first stage); the others are left alone."""
    real = simulate.generate
    reps = {rng.substream(rep).stream: rep for rep in range(64)}

    def patched(spec, subs):
        ds = real(spec, subs)
        z = np.array(ds.z)
        for i, sub in enumerate(subs):
            rep = reps[sub.stream]
            if rep == constant:
                z[i] = 1.0
            elif rep % 2:
                z[i] = np.random.default_rng(rep).uniform(-3.0, 3.0, z[i].shape)
        return Dataset(ds.y, ds.x, z)

    monkeypatch.setattr(simulate, "generate", patched)


@pytest.mark.parametrize("constant", [2, None], ids=["failing-chunk", "clean-chunk"])
def test_chunk_with_a_failing_replication(monkeypatch, constant):
    """Only the replication with a constant instrument fails, once per method, and every
    weak first stage warns once, as when each replication runs alone."""
    spec = DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=200)
    methods = [Method.CMI, Method.SARGAN]
    base = RngSpec(seed=21)
    _weak_and_constant_instruments(monkeypatch, base.substream(1_000), constant)
    runs = []
    for chunks in ([range(6)], [range(rep, rep + 1) for rep in range(6)]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = [row for chunk in chunks for row in simulate._chunk(
                (spec, methods, Cfg(), base.substream(1_000), chunk))[0]]
        runs.append((rows, sum(issubclass(w.category, RelevanceWarning) for w in caught)))
    assert runs[0] == runs[1]
    rows, weak = runs[0]
    assert weak == 3  # replications 1, 3 and 5
    failed = [rep for rep, row in enumerate(rows) if None in row.values()]
    assert failed == ([] if constant is None else [constant])
    assert all(rows[rep][m.value] is None for m in methods for rep in failed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RelevanceWarning)
        study = run_study([spec], methods, reps=6, rng=base, jobs=1)
    assert all(cell.failures == (constant is not None) for cell in study.cells)


@pytest.mark.parametrize("constant", [2, None], ids=["failing-chunk", "clean-chunk"])
def test_study_counts_the_chunks_whose_stacked_pass_raised(monkeypatch, capsys, constant):
    """The chunk with a constant instrument falls back to one replication at a time, and
    the study record and `ivcheck simulate` say so; a clean study reads 0 and prints nothing."""
    from ivcheck.cli import main

    spec = DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=200)
    base = RngSpec(seed=21)
    _weak_and_constant_instruments(monkeypatch, base.substream(1_000), constant)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RelevanceWarning)
        study = run_study([spec], [Method.CMI, Method.SARGAN], reps=6, rng=base, jobs=1)
        code = main(["simulate", "--family", "linear-iv-null", "--n", "200", "--reps", "6",
                     "--methods", "cmi,sargan", "--seed", "21"])
    assert study.config["unstacked_chunks"] == (constant is not None)
    assert all(cell.failures == (constant is not None) for cell in study.cells)
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("unstacked_chunks")]
    assert lines == ([] if constant is None else
                     ["unstacked_chunks = 1 (a stacked pass raised, so its replications ran "
                      "one at a time)"])


def test_pooled_study_counts_no_unstacked_chunk_when_none_raised():
    study = run_study([DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=200)], reps=4,
                      rng=RngSpec(seed=3), jobs=2)
    assert study.config["unstacked_chunks"] == 0


def test_study_leaves_no_reference_cycles():
    """The benchmark's study frees every array it stacks by reference counting alone."""
    specs = [DgpSpec(family=DgpFamily.LINEAR_IV_NULL, n=1000),
             DgpSpec(family=DgpFamily.LINEAR_IV_POWER, n=1000, L=0.5, sigma=0.25),
             DgpSpec(family=DgpFamily.BOXCOX_IV_NULL, n=1000, lam=0.5),
             DgpSpec(family=DgpFamily.HETERO_POWER, n=1000, rho=1.0)]
    methods = [Method.CMI, Method.SARGAN]
    run_study(specs, methods, 6, Cfg(), RngSpec(seed=0, stream=1), jobs=1)  # first calls
    gc.collect()
    gc.disable()
    try:
        run_study(specs, methods, 6, Cfg(), RngSpec(seed=0, stream=2), jobs=1)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_chunks_depend_on_n_only():
    assert simulate.chunk_size(1000) == 8 and simulate.chunk_size(20_000) == 1
    assert [list(c) for c in simulate._chunks(11, 8)] == [list(range(8)), [8, 9, 10]]
