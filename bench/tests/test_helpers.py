"""Tests of the benchmark's own helpers: python -m pytest bench/tests"""

import hashlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import mc  # noqa: E402
import mix  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, instrument, self_times, tail  # noqa: E402


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(100, 0, -1))  # 100 distinct values, unsorted
    value, pct = tail(samples)
    assert sum(s > value for s in samples) == 10
    assert (value, pct) == (90, 90.0)


def test_tail_with_eleven_samples_is_the_minimum():
    value, pct = tail([5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert (value, pct) == (1.0, pytest.approx(100 / 11))


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(range(10))


def _span(name, start, end, parent):
    return Span(name, start, end, parent, "op")


def test_self_time_subtracts_nested_children():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("child", 1.0, 4.0, 0),
        _span("grandchild", 2.0, 3.0, 1),
        _span("child", 5.0, 6.0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 5.0, 0),
        _span("b", 3.0, 7.0, 0),  # overlaps a on [3, 5]
        _span("c", 4.0, 4.5, 0),  # inside both
        _span("d", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_nests_spans_and_records_parents():
    tracer = Tracer(op="req")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent, inner.op) == (None, 0, "req")
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_tracer_memory_peak_includes_child_allocations():
    tracer = Tracer(memory=True)
    with tracer.span("clrtest.run_test"):
        with tracer.span("npreg.local_linear_weights"):
            block = bytearray(8 * 2**20)
            del block
    outer, inner = tracer.spans
    assert inner.peak_mb >= 8.0
    assert outer.peak_mb >= inner.peak_mb


def _digest(directory):
    return hashlib.sha256(b"".join(p.read_bytes() for p in sorted(directory.glob("*.csv"))))


def test_generator_bytes_depend_only_on_the_seed(tmp_path):
    a = _digest(Path(inputs.write_inputs(tmp_path / "a", 300, 7)["null"]).parent).hexdigest()
    b = _digest(Path(inputs.write_inputs(tmp_path / "b", 300, 7)["null"]).parent).hexdigest()
    c = _digest(Path(inputs.write_inputs(tmp_path / "c", 300, 8)["null"]).parent).hexdigest()
    assert a == b
    assert a != c


def test_generator_designs_have_their_shape():
    y, x, z = inputs.draw("discrete", 5000, 0)
    assert len(set(z)) <= inputs.DISCRETE_CELLS
    y, x, z = inputs.draw("hetero", 5000, 0)
    assert (x == z).all()


def test_changed_counts_flipped_decisions_and_moved_counts():
    assert mix.changed({"a": "0101"}, None) is None
    assert mix.changed({"a": "0101", "b": "1"}, {"a": "0111", "b": "1"}) == 1
    assert mix.changed({"op0": "3010", "op9": "1"}, {"op0": "5010"}) == 2


def test_band_is_never_tighter_than_three_standard_errors():
    for ref in (0.0, 0.03, 0.5, 1.0):
        lo, hi = mc.band(ref, 200)
        q = min(max(ref, 0.05), 0.95)
        se = (q * (1 - q) / 200) ** 0.5
        assert ref - lo >= min(3 * se, ref) - 1e-12
        assert hi - ref >= min(3 * se, 1 - ref) - 1e-12


def test_check_flags_a_broken_report_invariant(tmp_path):
    out = tmp_path / "report.csv"
    out.write_text("alpha,theta_corrected,reject,selected_set_size\n"
                   "0.1,0.5,1,3\n0.05,-0.2,1,3\n0.01,-0.4,0,0\n")
    problems, decisions = mix.check(mix.BY_NAME["test-series-null"], 2, "", "", out)
    assert decisions == "110"
    assert any("theta_corrected" in p for p in problems)
    assert any("empty selected set" in p for p in problems)


MTE_STDOUT = """\
first-stage rank diagnostics: KS to U[0,1] = 0.0281, worst conditional bin = 0.0281
invertibility: 0 injectivity violations, minimum rank coverage = 0.7817
""" + "".join(f"  MTE(p=0.{k}0; 1.0, -1.0) = +4.0{k}1199\n" for k in range(1, 10)) + """\
  ASF(0.0) = +0.022335 (rank support [0.000, 1.000])
"""


def _mte_problems(stdout):
    problems, _ = mix.check(mix.BY_NAME["mte"], 0, stdout, "", None)
    return problems


def test_mte_check_passes_every_estimate_printed():
    assert _mte_problems(MTE_STDOUT) == []
    partial = MTE_STDOUT.replace("ASF(0.0) = +0.022335", "ASF(0.0) in [-1.5, +2.5]")
    assert _mte_problems(partial) == []


def test_mte_check_fails_when_only_diagnostics_are_printed():
    diagnostics = "".join(MTE_STDOUT.splitlines(keepends=True)[:2])
    assert len(_mte_problems(diagnostics)) == 2


def test_mte_check_fails_a_skipped_point_or_a_non_finite_value():
    skipped = MTE_STDOUT.replace("  MTE(p=0.50; 1.0, -1.0) = +4.051199\n", "")
    assert any("8 MTE estimates" in p for p in _mte_problems(skipped))
    assert any("non-finite" in p for p in _mte_problems(MTE_STDOUT.replace("+4.021199", "nan")))


def test_operation_count_is_whole_cycles_with_the_tail_among_heavy_requests():
    cli = run.WORKLOADS["cli-2k"]
    for seconds in (1, 20, 60):
        ops = run.operation_count(cli, seconds)
        assert ops >= 3 * len(mix.MIX) and ops % len(mix.MIX) == 0
        # five light requests a cycle fill the lowest ranks; the tail has ten above it
        assert ops - 10 > 5 * ops // len(mix.MIX)
    mc_serial = run.WORKLOADS["mc-serial"]
    assert run.operation_count(mc_serial, 20) == round(20 / mc_serial["op_s"])
    assert run.operation_count(mc_serial, 1) == mc_serial["min_ops"]


def test_instrument_wraps_what_the_cli_calls_and_restores_it():
    import ivcheck.cli
    import ivcheck.clrtest

    original = ivcheck.cli.test_model
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        assert ivcheck.cli.test_model is not original
        assert ivcheck.cli.test_model is ivcheck.clrtest.test_model
        assert ivcheck.clrtest.run_test.__wrapped__.__module__ == "ivcheck.clrtest"
    finally:
        restore()
    assert ivcheck.cli.test_model is original
