"""ivcheck benchmark: three closed-loop workloads with one client each.

    python3 bench/run.py --workload cli-2k --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; it imports `ivcheck` from the checkout's
`src`. With `--trace 0` it times the workload and prints the end-to-end
metrics; with `--trace 1` it makes one traced pass instead and prints the
per-layer metrics (see `traced_run`). The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. A detailed
record, with the environment, goes to bench/work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"

import inputs  # noqa: E402
import mc  # noqa: E402
import mix  # noqa: E402
import spans  # noqa: E402
from replay import PROBES  # noqa: E402

# Why each workload was chosen, and what it should and should not move. A
# timed run makes a fixed number of operations (see operation_count): about
# --seconds of work at the seed commit's speed on a 2-vCPU host (`op_s`, the
# seconds of one operation there), at least `min_ops`, in whole steps of
# `step`. cli-2k needs three cycles of the mix for its tail to fall among the
# heavy requests; mc-parallel needs 60 calls for a steady median and tail,
# because its calls' latencies spread widely (0.4 to 1.7 s). The traced pass
# runs the CLI mix on `trace_rows`-row inputs.
WORKLOADS = {
    "cli-2k": {
        "kind": "cli", "n": 2_000, "op_s": 1.45, "min_ops": 3 * len(mix.MIX),
        "step": len(mix.MIX), "trace_rows": 2_000,
        "why": "Cold `python -m ivcheck.cli` requests on 2k-row CSVs. Import and the first "
               "BLAS calls make up most of each request (a warm run_test takes about 7 ms "
               "here), so this moves with cold-start work and not with large-n kernels.",
    },
    "mc-serial": {
        "kind": "mc", "jobs": 1, "op_s": 0.19, "min_ops": 20, "step": 1,
        "trace_rows": 100_000,
        "why": "In-process run_study with jobs=1: thousands of small generate -> first step "
               "-> run_test -> sargan calls, where per-call overhead dominates and no pool "
               "runs. The no-change control for mc-parallel.",
    },
    "mc-parallel": {
        "kind": "mc", "jobs": 2, "op_s": 0.5, "min_ops": 60, "step": 1,
        "trace_rows": 100_000,
        "why": "The same study with jobs=2: run_study makes a new process pool per spec and "
               "forks workers that each run default OpenBLAS threads on the same cores, so "
               "a pool or BLAS-pinning change shows here.",
    },
}
SETUP_REPEATS = 3
FINGERPRINT_OPS = 10  # mc operations whose null decisions are fingerprinted
MC_TRACE_REPS = 25  # replications per family in the traced pass
HARD_LIMIT_S = 150.0  # no operation starts after this, whatever else holds
GRACE_S = 25.0  # an operation started before the limit may run this much past it


def operation_count(spec: dict, seconds: float) -> int:
    """Operations of a timed run; the same for every commit at a given --seconds."""
    ops = max(spec["min_ops"], round(seconds / spec["op_s"]))
    return -(-ops // spec["step"]) * spec["step"]


def child_env() -> dict:
    """The caller's environment plus PYTHONPATH naming this checkout's src.

    *_NUM_THREADS variables are passed through as found, never set.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def environment() -> dict:
    from importlib import metadata

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ivcheck").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_config": blas.get("openblas configuration"),
        "openblas_threads": _openblas_threads(np),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def _openblas_threads(np):
    """Threads of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    return None


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()

    def timeout(self) -> float:
        """Timeout for a child process started now."""
        return max(self.left(), 0.0) + GRACE_S


# --- CLI workloads --------------------------------------------------------------------------


def cli_setup(n: int, seed: int, directory: Path):
    """Write the inputs and warm up with one cold `ivcheck --version`.

    Returns (seconds, paths, seconds of the `--version` process).
    """
    started = time.perf_counter()
    paths = inputs.write_inputs(directory, n, seed)
    warm = time.perf_counter()
    subprocess.run([sys.executable, "-m", "ivcheck.cli", "--version"], env=child_env(),
                   capture_output=True, check=True, timeout=120)
    done = time.perf_counter()
    return done - started, paths, done - warm


def run_process(argv, req, out: Path, cwd: Path, deadline: Deadline):
    """One child process; returns (latency, problems, decisions).

    `req` is the mix request whose output the process makes (see mix.check),
    or None for a probe, which only has to exit 0.
    """
    out.unlink(missing_ok=True)
    started = time.perf_counter()
    try:
        cp = subprocess.run(argv, env=child_env(), capture_output=True, text=True, cwd=cwd,
                            timeout=deadline.timeout())
    except subprocess.TimeoutExpired:
        return time.perf_counter() - started, ["timed out"], ""
    latency = time.perf_counter() - started
    if req is None:
        bad = [] if cp.returncode == 0 else [f"exit {cp.returncode}: {cp.stderr.strip()[-300:]}"]
        return latency, bad, ""
    problems, decisions = mix.check(req, cp.returncode, cp.stdout, cp.stderr, out)
    return latency, problems, decisions


def run_request(req, paths, seed, outdir: Path, deadline: Deadline):
    """One cold `python -m ivcheck.cli` process."""
    out = outdir / f"{req.name}.csv"
    argv = [sys.executable, "-m", "ivcheck.cli", *mix.cli_argv(req, paths[req.design], seed, out)]
    return run_process(argv, req, out, outdir, deadline)


def _digest(paths) -> str:
    h = hashlib.sha256()
    for design in sorted(paths):
        h.update(Path(paths[design]).read_bytes())
    return h.hexdigest()


def cli_workload(n, seed, ops, work: Path, deadline: Deadline) -> dict:
    setups, digests = [], set()
    for i in range(SETUP_REPEATS):
        took, paths, _ = cli_setup(n, seed, work / f"inputs{i}")
        setups.append(took)
        digests.add(_digest(paths))
    problems = [] if len(digests) == 1 else ["inputs differ between set-ups of one seed"]
    latencies, failed, decisions = [], 0, {}
    started = time.perf_counter()
    for i in range(ops):
        if deadline.left() <= 0:
            problems.append(f"out of time after {i} of {ops} operations")
            failed += ops - i
            break
        req = mix.MIX[i % len(mix.MIX)]
        latency, bad, dec = run_request(req, paths, seed, work, deadline)
        latencies.append(latency)
        failed += bool(bad)
        problems += [f"{req.name}: {p}" for p in bad]
        if req.kind == "null" and req.name not in decisions:
            decisions[req.name] = dec
    wall = time.perf_counter() - started
    return {
        "setups": setups, "latencies": latencies, "wall": wall, "failed": failed,
        "problems": problems, "decisions": decisions,
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    }


# --- Monte Carlo workloads ------------------------------------------------------------------


def mc_study(jobs: int, seed: int, stream: int, reps: int = mc.REPS_PER_CALL):
    from ivcheck.clrtest import TestConfig
    from ivcheck.data import RngSpec
    from ivcheck.simulate import run_study

    return run_study(mc.specs(), mc.methods(), reps, TestConfig(),
                     RngSpec(seed=seed, stream=stream), jobs=jobs)


def mc_setup(jobs: int, seed: int) -> float:
    """Seconds for a fresh interpreter to import ivcheck and run a two-replication study."""
    code = (f"import sys; sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]; import run; "
            f"run.mc_study({jobs}, {seed}, stream=1_000_000, reps=2)")
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                   check=True, timeout=120)
    return time.perf_counter() - started


def mc_workload(jobs, seed, ops, deadline: Deadline) -> dict:
    setups = [mc_setup(jobs, seed) for _ in range(SETUP_REPEATS)]
    mc_study(jobs, seed, stream=1_000_000, reps=4)  # this process's own import and warm-up
    latencies, failed, counts, decisions, problems = [], 0, {}, {}, []
    failed_reps = 0
    started = time.perf_counter()
    for i in range(ops):
        if deadline.left() <= 0:
            problems.append(f"out of time after {i} of {ops} operations")
            failed += ops - i
            break
        t0 = time.perf_counter()
        result = mc_study(jobs, seed, stream=1 + i)
        latencies.append(time.perf_counter() - t0)
        bad = mc.tally(result, counts)
        failed_reps += bad
        failed += bool(bad)
        if i < FINGERPRINT_OPS:
            decisions[f"op{i}"] = mc.null_decisions(result)
    wall = time.perf_counter() - started
    problems += mc.band_problems(counts)
    if failed_reps:
        problems.append(f"{failed_reps} failed replications")
    if problems:
        failed = ops  # a rate outside its band makes every operation suspect
    return {
        "setups": setups, "latencies": latencies, "wall": wall, "failed": failed,
        "problems": problems, "decisions": decisions,
        "reps": len(latencies) * mc.REPS_PER_CALL * len(mc.FAMILIES),
        "peak_rss_mb": max(peak_rss_mb(resource.RUSAGE_SELF),
                           peak_rss_mb(resource.RUSAGE_CHILDREN)),
        "rates": {f"{k[0]}/{k[1]}": v[0] / v[1] for k, v in sorted(counts.items())},
    }


# --- traced pass ----------------------------------------------------------------------------


def replay(op, seed, work: Path, deadline: Deadline, spans_out=None, memory=False):
    """Run replay.py for one request or probe, traced when `spans_out` is given."""
    out = work / f"{op}.csv"
    argv = [sys.executable, str(BENCH / "replay.py"), op, "--inputs", str(work / "inputs"),
            "--seed", str(seed), "--out", str(out)]
    if spans_out is not None:
        argv += ["--spans", str(spans_out)] + (["--memory"] if memory else [])
    return run_process(argv, mix.BY_NAME.get(op), out, work, deadline)


MEMORY_OPS = ("test-series-null", "test-local-linear", "test-cell-means", "test-homoskedastic",
              "probe-npreg")


def traced_run(name, seed, work: Path, deadline: Deadline) -> dict:
    """One traced pass: the CLI mix run with and without spans, then a Monte Carlo slice.

    Every workload makes both parts, so every per-layer metric is measured on
    every workload: the CLI part on the workload's `trace_rows`-row inputs,
    the Monte Carlo part with MC_TRACE_REPS replications per family. Each
    request and probe runs through replay.py twice in a fresh interpreter,
    untraced (the cli.<request> latencies) and then traced, and both runs
    must pass the request's checks and make the same decisions. The tracing
    overhead compares the two on cli-*, and a traced with an untraced jobs=1
    study on mc-*. Allocation peaks come from a third, separate replay,
    because tracemalloc slows what it watches.
    """
    spec = WORKLOADS[name]
    n = spec["trace_rows"]
    tracer = spans.Tracer()
    problems, failed_ops = [], set()
    _, _, version_s = cli_setup(n, seed, work / "inputs")

    untraced, traced = {}, {}
    for op in [r.name for r in mix.MIX] + list(PROBES):
        untraced[op], bad, plain = replay(op, seed, work, deadline)
        tracer.op = op
        parent = len(tracer.spans)
        spans_out = work / f"spans-{op}.json"
        with tracer.span(f"replay.{op}"):
            traced[op], bad_traced, got = replay(op, seed, work, deadline, spans_out)
        bad += [f"traced: {p}" for p in bad_traced]
        if spans_out.is_file():
            tracer.spans += spans.load_spans(spans_out, op, parent, len(tracer.spans))
        else:
            bad.append("traced: no spans written")
        if got != plain:
            bad.append(f"traced decisions {got} differ from the untraced {plain}")
        problems += [f"{op}: {p}" for p in bad]
        failed_ops.update([op] if bad else [])

    cli_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)  # the largest replay process so far
    memory_spans = []
    for op in MEMORY_OPS:
        spans_out = work / f"memory-{op}.json"
        _, bad, _ = replay(op, seed, work, deadline, spans_out, memory=True)
        if bad or not spans_out.is_file():
            problems += [f"{op} (memory): {p}" for p in bad or ["no spans written"]]
            failed_ops.add(f"{op} (memory)")
            continue
        memory_spans += spans.load_spans(spans_out, op, None, len(memory_spans))

    # Monte Carlo slice, same streams throughout: untraced and traced jobs=1
    # studies alternate twice (the host's speed drifts), then one jobs=2 study.
    mc_study(1, seed, stream=1_000_000, reps=2)  # first BLAS calls, outside the timings
    serial_s = traced_s = 0.0
    tracer.op = "mc"
    for _ in range(2):
        started = time.perf_counter()
        serial = mc_study(1, seed, stream=0, reps=MC_TRACE_REPS)
        serial_s += time.perf_counter() - started
        restore = spans.instrument(tracer)
        started = time.perf_counter()
        traced_mc = mc_study(1, seed, stream=0, reps=MC_TRACE_REPS)
        traced_s += time.perf_counter() - started
        restore()
    started = time.perf_counter()
    parallel = mc_study(2, seed, stream=0, reps=MC_TRACE_REPS)
    parallel_s = time.perf_counter() - started
    if not serial.cells == parallel.cells == traced_mc.cells:
        problems.append("run_study cells differ between jobs=1, jobs=2 and the traced pass")
        failed_ops.add("mc")
    failed_reps = mc.tally(serial, {})
    if failed_reps:
        problems.append(f"mc: {failed_reps} failed replications")
        failed_ops.add("mc")
    reps = MC_TRACE_REPS * len(mc.FAMILIES)

    if spec["kind"] == "cli":
        overhead = sum(traced.values()) / sum(untraced.values()) - 1.0
    else:
        overhead = traced_s / serial_s - 1.0
    metrics = layer_metrics(tracer.spans, memory_spans, n, untraced, version_s)
    metrics["cli.peak_rss_mb"] = (cli_rss, "MB")
    st = spans.self_times(tracer.spans)

    def mc_self(name):
        return median_self(tracer.spans, st, {"mc"}, name), "s"

    metrics.update({
        "estimators.fit_boxcox_s": mc_self("estimators.fit_boxcox"),
        "clrtest.run_test_s.mc": mc_self("clrtest.run_test"),
        "overid.sargan_s": mc_self("overid.sargan"),
        "simulate.generate_s": mc_self("simulate.generate"),
        "simulate.rep_s": (serial_s / (2 * reps), "s"),
        "simulate.parallel_efficiency": (serial_s / 2 / (2.0 * parallel_s), "ratio"),
        "simulate.failed_reps_ratio": (failed_reps / (reps * len(mc.METHODS)), "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    # operations: the CLI requests and probes, the memory replays, the Monte Carlo slice
    attempted = len(mix.MIX) + len(PROBES) + len(MEMORY_OPS) + 1
    return {"metrics": metrics, "attempted": attempted, "failed": len(failed_ops),
            "problems": problems, "untraced_s": untraced, "traced_s": traced,
            "mc_s": {"serial": serial_s, "parallel": parallel_s, "traced": traced_s}}


def median_self(span_list, self_t, ops, *names):
    """Median self time of the spans called one of `names` in operations `ops`."""
    return spans.median([t for s, t in zip(span_list, self_t) if s.name in names and s.op in ops])


METHOD_REQUESTS = {
    "series": ("test-series-null", "test-series-power"),
    "local-linear": ("test-local-linear",),
    "cell-means": ("test-cell-means",),
    "series-homoskedastic": ("test-homoskedastic",),
}


def layer_metrics(span_list, memory_spans, n, untraced, version_s) -> dict:
    """Per-layer numbers of the CLI part of a traced pass: {name: (value, unit)}."""
    ops = {r.name for r in mix.MIX} | set(PROBES)
    requests = {r.name for r in mix.MIX}
    st = spans.self_times(span_list)

    def pick(name, within=ops):
        return [(s, t) for s, t in zip(span_list, st) if s.name == name and s.op in within]

    def peak(name, within=ops):
        return max(s.peak_mb for s in memory_spans if s.name == name and s.op in within)

    def med(*names, within=ops):
        return median_self(span_list, st, within, *names)

    load = med("data.load_csv")
    warm = [s.end - s.start for s, _ in pick("clrtest.run_test", {"probe-warm"})]
    idset = pick("clrtest.identified_set")[0][0]
    m = {
        "init.import_s": (spans.median([s.end - s.start for s, _ in pick("init.import")]), "s"),
        "cli.version_s": (version_s, "s"),
    }
    for req in mix.MIX:
        m[f"cli.{req.name}.p50_s"] = (untraced[req.name], "s")
    m.update({
        "data.load_csv_s": (load, "s"),
        "data.load_csv_rows_per_s": (n / load, "1/s"),
        "estimators.first_step_s": (med("estimators.fit_iv", "estimators.fit_ols",
                                        within=requests), "s"),
        "moments.build_s": (med("moments.build_for_spec", "moments.build_parametric_grid"), "s"),
        "npreg.local_linear_weights_s": (med("npreg.local_linear_weights"), "s"),
        "npreg.local_linear_weights_peak_mb": (
            peak("npreg.local_linear_weights"), "MB"),
        "npreg.fit_series_s": (med("npreg.fit_series"), "s"),
        "npreg.fit_cell_means_s": (med("npreg.fit_cell_means"), "s"),
    })
    for method, reqs in METHOD_REQUESTS.items():
        m[f"clrtest.run_test_s.{method}"] = (med("clrtest.run_test", within=set(reqs)), "s")
        m[f"clrtest.run_test_peak_mb.{method}"] = (
            peak("clrtest.run_test", set(reqs)), "MB")
    m.update({
        "clrtest.first_call_s": (warm[0], "s"),
        "clrtest.warm_call_s": (spans.median(warm[1:]), "s"),
        "clrtest.identified_set_s": (idset.end - idset.start, "s"),
        "clrtest.identified_set_per_theta_s": ((idset.end - idset.start) / mix.THETA_COUNT, "s"),
        "overid.hansen_j_s": (med("overid.hansen_j"), "s"),
        "mte.fit_propensity_s": (med("mte.fit_propensity"), "s"),
        "mte.fit_control_function_s": (med("mte.fit_control_function"), "s"),
        "mte.estimate_mte_s": (med("mte.estimate_mte"), "s"),
        "mte.estimate_asf_s": (med("mte.estimate_asf"), "s"),
        "mte.diagnostics_s": (med("mte.uniformity_diagnostic")
                              + med("mte.condition1_diagnostic"), "s"),
    })
    return m


# --- output ---------------------------------------------------------------------------------


def stored_decisions(name: str, seed: int):
    path = BENCH / "baseline.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh).get("decisions", {}).get(name, {}).get(str(seed))


def end_to_end(r: dict) -> dict:
    tail, pct = spans.tail(r["latencies"])
    return {
        "setup_s": (spans.median(r["setups"]), "s"),
        "wall_s": (r["wall"], "s"),
        "op_p50_s": (spans.median(r["latencies"]), "s"),
        "op_tail_s": (tail, "s", f"p{pct:.1f} of {len(r['latencies'])} operations"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }


def printed_only(r: dict) -> dict:
    """Metrics printed beside the end-to-end ones but left out of the JSON result.

    A timed run makes a fixed number of operations, so on mc-* reps_per_s is a
    constant over wall_s, and wall_s already carries it.
    """
    if "reps" not in r:
        return {}
    return {"reps_per_s": (r["reps"] / r["wall"], "1/s", f"{r['reps']} replications")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ivcheck" / "cli.py").is_file():
        print(f"error: no ivcheck sources under {SRC}; run from a checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    deadline = Deadline(HARD_LIMIT_S)
    spec = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = environment()
    try:
        if args.trace:
            r = traced_run(args.workload, args.seed, work, deadline)
            metrics, attempted, failed = r["metrics"], r["attempted"], r["failed"]
        elif spec["kind"] == "cli":
            ops = operation_count(spec, args.seconds)
            r = cli_workload(spec["n"], args.seed, ops, work, deadline)
        else:
            ops = operation_count(spec, args.seconds)
            r = mc_workload(spec["jobs"], args.seed, ops, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {spec['why']}")
    shown = metrics if args.trace else {}
    if not args.trace:
        attempted, failed = ops, r["failed"]
        metrics = end_to_end(r)
        shown = {**metrics, **printed_only(r)}
    for problem in r["problems"]:
        print(f"  FAILED {problem}")
    for key, (value, unit, *note) in shown.items():
        print(f"  {key:40s} {value:14.6g} {unit:6s} {' '.join(note)}")
    print(f"  {'fail_ratio':40s} {failed / attempted:14.6g} {'ratio':6s} "
          f"{failed} of {attempted} operations failed")
    if not args.trace:
        moved = mix.changed(r["decisions"], stored_decisions(args.workload, args.seed))
        print(f"  null-data decisions: fingerprint {mix.fingerprint(r['decisions'])}, changed vs "
              f"the seed commit: {'none stored for this seed' if moved is None else moved}")
    print(f"  environment: {json.dumps(env)}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "result": r,
              "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}}
    with open(WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"correct": failed == 0 and not r["problems"], "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
