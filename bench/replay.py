"""Run one CLI request, or one layer probe, in a fresh interpreter.

    python bench/replay.py REQUEST --inputs DIR --seed N --out OUT.csv [--spans SPANS.json [--memory]]

It times `import ivcheck` and `import ivcheck.cli`, then calls
`ivcheck.cli.main` with the request's arguments, exactly as `python -m
ivcheck.cli` does, and exits with its exit code. With --spans it first wraps
the public functions listed in `spans.TRACED` wherever an `ivcheck` module
(`cli` included) holds them, and writes the spans to SPANS.json at the end;
without it, nothing is wrapped, so the two runs differ only by the tracing.
--memory adds the allocation peaks of `spans.MEMORY_SPANS` (and their cost to
the timings). Run with PYTHONPATH naming the checkout's `src`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mix
from spans import Tracer, instrument

PROBES = ("probe-warm", "probe-npreg")
WARM_CALLS = 5


def probe(name, paths, seed):
    """Layer probes the CLI cannot reach: a warm run_test and the public smoother API."""
    from ivcheck import clrtest, data, estimators, moments, npreg

    def load(design):
        return data.load_csv(paths[design], "y", ["x"], ["z"])

    ds = load("null")
    if name == "probe-warm":
        # first run_test in a fresh interpreter, then the warm calls
        fit = clrtest.first_step_fit(ds, moments.ModelSpec())
        ms = moments.build_for_spec(fit, moments.ModelSpec(), ds)
        for _ in range(1 + WARM_CALLS):
            clrtest.run_test(ms, None, clrtest.TestConfig(), data.RngSpec(seed=seed))
    else:
        # the smoothers on the first-step residuals
        z = ds.z[:, 0]
        resid = estimators.fit_iv(ds).residuals
        npreg.fit_series(resid, z)
        grid = data.conditioning_grid(z, count=50)
        npreg.local_linear_weights(z, grid, npreg.rule_of_thumb_bandwidth(z))
        cells = load("discrete")
        npreg.fit_cell_means(estimators.fit_iv(cells).residuals, cells.z[:, 0])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("request", choices=[r.name for r in mix.MIX] + list(PROBES))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--memory", action="store_true")
    args = parser.parse_args()
    tracer = Tracer(op=args.request, memory=args.memory)
    with tracer.span("init.import"):
        import ivcheck  # noqa: F401  (the timed cold import)
    with tracer.span("cli.import"):
        import ivcheck.cli
    if args.spans:
        instrument(tracer)
    paths = {p.stem: p for p in Path(args.inputs).glob("*.csv")}
    code = 0
    if args.request in PROBES:
        probe(args.request, paths, args.seed)
    else:
        req = mix.BY_NAME[args.request]
        code = ivcheck.cli.main(mix.cli_argv(req, paths[req.design], args.seed, args.out))
    if args.spans:
        tracer.dump(args.spans)
    sys.exit(code)


if __name__ == "__main__":
    main()
