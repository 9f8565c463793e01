"""Self-test of the benchmark: every workload runs clean at tiny sizes, and a
corrupted result counts as a failure."""

import dataclasses
import io
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
from refkernel import Reference  # noqa: E402
from spans import NULL_TRACER  # noqa: E402

TINY = {"query": (5, 0.4), "fourreg": (12, 0.4), "verify": (0, 0.5)}  # size, seconds


@pytest.fixture
def fresh_modules():
    """measure() re-imports the library; put the session's modules back."""
    saved = {k: v for k, v in sys.modules.items() if k.startswith(("adjmatroid", "workloads"))}
    yield
    for k in [k for k in sys.modules if k.startswith(("adjmatroid", "workloads"))]:
        del sys.modules[k]
    sys.modules.update(saved)


def tiny_report(name, trace):
    size, seconds = TINY[name]
    return run.measure(name, seed=3, seconds=seconds, trace=trace, size=size, setup_repeats=1)


def printed_result(report):
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.print_report(report)
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", ["query", "fourreg"])
def test_untraced_run_is_clean_and_prints_end_to_end_metrics(fresh_modules, name):
    report = tiny_report(name, trace=False)
    assert report["attempted"] >= 2 and report["failed"] == 0, report["failures"]
    result = printed_result(report)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.metric_specs()["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_are_clean_and_cover_every_layer_metric(fresh_modules):
    produced = {"trace.overhead_ms"}
    for name in run.WORKLOADS:
        report = tiny_report(name, trace=True)
        assert report["failed"] == 0, report["failures"]
        result = printed_result(report)
        assert set(result["metrics"]) == set(run.metric_specs()["per_layer"])
        produced |= {k for k, v in report["layers"].items() if v > 0}
    assert set(run.metric_specs()["per_layer"]) <= produced


def op_outputs(w, inp):
    return [fn(NULL_TRACER) for _, fn in w.segments(inp)]


def test_corrupted_results_fail_their_checks():
    import workloads
    from adjmatroid.polynomials import BivariatePolynomial

    q = workloads.WORKLOADS["query"]
    inp = q.make_inputs(random.Random(5), 1, 5)[0]
    outs = op_outputs(q, inp)
    assert q.check(inp, outs) == []
    (i, j, c), *rest = outs[0]["interlace"].terms
    outs[0]["interlace"] = BivariatePolynomial(((i, j, c + 1), *rest))
    assert q.check(inp, outs)

    f = workloads.WORKLOADS["fourreg"]
    inp = f.make_inputs(random.Random(5), 1, 12)[0]
    outs = op_outputs(f, inp)
    assert f.check(inp, outs) == []
    outs[0]["nullity"] += 1
    assert f.check(inp, outs)

    from adjmatroid.verify import CheckResult

    v = workloads.WORKLOADS["verify"]
    vin = v.make_inputs(random.Random(5), 1, 0)[0]
    passing = [CheckResult(k, n) for k, n in workloads.EXPECTED_VERIFY_COUNTS.items()]
    assert v.check(vin, [passing]) == []
    fewer = passing[:-1]
    assert v.check(vin, [fewer])
    witnessed = [dataclasses.replace(passing[0], failures=["[vertices a] seed 0"])] + passing[1:]
    assert v.check(vin, [witnessed])


def test_runner_counts_corrupted_and_raising_ops_as_failed():
    import workloads

    f = workloads.WORKLOADS["fourreg"]
    inp = f.make_inputs(random.Random(5), 1, 12)[0]

    def wrong_nullity(i):
        def op(tr):
            out = workloads.fourreg_op(i, tr)
            return {**out, "nullity": out["nullity"] + 1}
        return [("op", op)]

    def raising(i):
        def op(tr):
            raise ValueError("boom")
        return [("op", op)]

    tally = run.Tally()
    ref = Reference()
    assert tally.run(f, inp, NULL_TRACER, ref) is not None
    tally.run(dataclasses.replace(f, segments=wrong_nullity), inp, NULL_TRACER, ref)
    assert tally.run(dataclasses.replace(f, segments=raising), inp, NULL_TRACER, ref) is None
    assert (tally.attempted, tally.failed) == (3, 2)


def test_tail_has_ten_ops_beyond_it():
    values = [float(v) for v in range(100)]
    value, pct = run.tail(values)
    assert value == 89.0 and sum(v > value for v in values) == 10 and pct == 90.0
