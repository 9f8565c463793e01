"""Reference-speed benchmark of adjmatroid.

Run from the root of a checkout:

    python3 bench/run.py [--workload query|fourreg|verify|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Each workload runs in a fresh process with one caller and one thread, as a
closed loop: the next op starts when the previous one has been checked.
The op count is fixed by --seconds: it is the number of ops that take that
long at reference speed.  Every op's output is checked outside the timed
interval.  All times are scaled to reference speed (see refkernel.py); raw
times are printed beside them for information.

--trace 0 prints the end-to-end metrics, --trace 1 reruns every op traced
and untraced and prints the per-layer metrics; the names and units of both
come from BENCHMARK.json.  The last line of a run is one JSON object with
the keys correct, attempted, failed and metrics.  `--workload all` runs the
three workloads one after another, each in its own process.  README.md
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refkernel import NOMINAL_MS, Reference
from spans import NULL_TRACER as NULL, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("query", "fourreg", "verify")
# n of each generated graph; verify runs its suites at fixed settings.
SIZES = {"query": 9, "fourreg": 150, "verify": 0}
# Op time at reference speed, used only to turn --seconds into an op count.
NOMINAL_OP_MS = {"query": 115.0, "fourreg": 160.0, "verify": 1000.0}
# Set-ups per trace-0 run; setup_s is their median.
SETUP_REPEATS = {"query": 5, "fourreg": 5, "verify": 3}
# op_tail_ms is the latency with this many ops beyond it.
TAIL_BEYOND = 10
# The warm-up op's input comes from this seed on every run, so that setup_s
# measures the same work whatever --seed is.
WARM_UP_SEED = 0


def op_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds * 1000 / NOMINAL_OP_MS[workload]))


def load_workloads():
    """Import the workload module, and with it the library, afresh."""
    for name in list(sys.modules):
        if name in ("workloads", "adjmatroid") or name.startswith("adjmatroid."):
            del sys.modules[name]
    return importlib.import_module("workloads")


def set_up(name: str, seed: int, ops: int, size: int, ref: Reference):
    """Import, generate the inputs and run the warm-up op.

    Returns the workload, the inputs, the warm-up's input and outputs (or
    the exception it raised), and the set-up time in seconds at reference
    speed and raw.
    """
    before = ref.sample()
    t0 = time.perf_counter()
    w = load_workloads().WORKLOADS[name]
    inputs = w.make_inputs(random.Random(seed), ops, size)
    (warm_inp,) = w.make_inputs(random.Random(WARM_UP_SEED), 1, size)
    try:
        warm = [fn(NULL) for _, fn in w.segments(warm_inp)]
    except Exception as exc:  # counted as a failed op by the caller
        warm = exc
    raw = time.perf_counter() - t0
    scaled = raw * ref.factor(before, ref.sample())
    return w, inputs, (warm_inp, warm), scaled, raw


def timed_op(w, inp, tr, ref: Reference):
    """Run one op, each segment between two kernel samples.

    Returns the op time in ms at reference speed and raw, the segment
    outputs, and the reference factor of each segment's root span.
    """
    gc.collect()
    before = ref.sample()
    scaled = raw = 0.0
    outs = []
    factors: dict[int, float] = {}
    for seg_name, fn in w.segments(inp):
        root = len(tr.spans)
        t0 = time.perf_counter()
        with tr.span(seg_name):
            out = fn(tr)
        ms = (time.perf_counter() - t0) * 1e3
        after = ref.sample()
        factors[root] = ref.factor(before, after)
        scaled += ms * factors[root]
        raw += ms
        outs.append(out)
        before = after
    return scaled, raw, outs, factors


def check_op(w, inp, outs) -> list[str]:
    try:
        return w.check(inp, outs)
    except Exception as exc:  # a crashing check is a failed op, not a crashed run
        return [f"check raised {exc!r}"]


class Tally:
    """Ops attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, bad: list[str]) -> None:
        self.attempted += 1
        if bad:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append("; ".join(bad))

    def run(self, w, inp, tr, ref: Reference):
        """Time and check one op; None if it raised."""
        try:
            scaled, raw, outs, factors = timed_op(w, inp, tr, ref)
        except Exception as exc:  # a raising op is a failed op
            self.add([f"op raised {exc!r}"])
            return None
        self.add(check_op(w, inp, outs))
        return scaled, raw, outs, factors


def tail_rank(n: int) -> tuple[int, float]:
    """Index in sorted order of the value with TAIL_BEYOND values beyond
    it (the smallest when there are fewer), and its percentile."""
    k = max(0, n - TAIL_BEYOND - 1)
    return k, 100.0 * (k + 1) / n


def tail(values: list[float]) -> tuple[float, float]:
    k, pct = tail_rank(len(values))
    return sorted(values)[k], pct


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: int | None = None, setup_repeats: int | None = None) -> dict:
    """One run of one workload; returns the report as a dict."""
    ops = op_count(name, seconds)
    size = SIZES[name] if size is None else size
    ref = Reference()
    tally = Tally()
    repeats = 1 if trace else (setup_repeats or SETUP_REPEATS[name])
    setups = []
    for _ in range(repeats):
        w, inputs, warm, scaled, raw = set_up(name, seed, ops, size, ref)
        setups.append((scaled, raw))
    warm_inp, warm_outs = warm
    if isinstance(warm_outs, Exception):
        tally.add([f"warm-up op raised {warm_outs!r}"])
    else:
        tally.add(check_op(w, warm_inp, warm_outs))
    del warm, warm_outs
    # Freeze what set-up left, so the collection before each op stays cheap
    # and no op pays for a full collection of the inputs.
    gc.collect()
    gc.freeze()
    report = {
        "workload": name, "seed": seed, "size": size, "ops": ops, "trace": int(trace),
        "setup_s": [s[0] for s in setups], "setup_raw_s": [s[1] for s in setups],
    }
    if not trace:
        report["op_ms"], report["op_raw_ms"] = [], []
        for inp in inputs:
            t = tally.run(w, inp, NULL, ref)
            if t is not None:
                report["op_ms"].append(t[0])
                report["op_raw_ms"].append(t[1])
    else:
        tracer = Tracer()
        plain, traced, counts, factors = [], [], [], {}
        for i, inp in enumerate(inputs):
            tracer.op = i
            for tr in ((NULL, tracer) if i % 2 == 0 else (tracer, NULL)):
                t = tally.run(w, inp, tr, ref)
                if t is None:
                    continue
                (traced if tr is tracer else plain).append(t[0])
                if tr is tracer:
                    factors.update(t[3])
                    counts.append(w.counts(inp, t[2]))
        report["op_ms"], report["traced_op_ms"] = plain, traced
        report["layers"] = per_layer(tracer, factors, counts, len(inputs))
        report["trace_file"] = str(BENCH / "out" / f"trace-{name}-seed{seed}.json")
        tracer.write(Path(report["trace_file"]), {"stamp": stamp(report), "root_factor": factors})
    report["ref_ms"] = ref.samples_ms
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["attempted"], report["failed"] = tally.attempted, tally.failed
    report["failures"] = tally.messages
    gc.unfreeze()
    return report


def per_layer(tracer: Tracer, factors: dict[int, float], counts: list[dict], ops: int) -> dict:
    """Mean self ms per op of every span except the `op` root, and the mean
    of every count."""
    totals = {span + "_ms": ms / ops for span, ms in tracer.self_ms(factors).items()}
    totals.pop("op_ms", None)  # the benchmark's own code between layer calls
    for key in {k for c in counts for k in c}:
        totals[key] = statistics.fmean(c[key] for c in counts)
    return totals


def stamp(report: dict) -> dict:
    return {
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": report["workload"],
        "seed": report["seed"],
        "size": report["size"],
        "ops": report["ops"],
        "trace": report["trace"],
        "tail": f"p{tail_rank(report['ops'])[1]:.1f}",
        "reference_nominal_ms": NOMINAL_MS,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
    except OSError:  # no git on the host
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "adjmatroid").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def print_report(r: dict) -> None:
    """Human-readable lines, then the result as the last line."""
    name = r["workload"]
    specs = metric_specs()
    st = stamp(r)
    print("stamp " + json.dumps(st, sort_keys=True))
    refs = r["ref_ms"]
    print(
        f"{name} reference kernel: raw median {statistics.median(refs):.3f} ms over "
        f"{len(refs)} samples, within-run spread (IQR/median) {100 * spread(refs):.1f} %, "
        f"min {min(refs):.3f} max {max(refs):.3f} ms; nominal {NOMINAL_MS} ms"
    )
    fail_ratio = r["failed"] / r["attempted"]
    print(f"{name} fail_ratio {fail_ratio:.4f} ({r['failed']}/{r['attempted']} ops failed)")
    for msg in r["failures"]:
        print(f"{name} FAIL {msg}")
    ops = r["op_ms"] or [0.0]
    p50_ms = statistics.median(ops)
    if not r["trace"]:
        tail_ms, pct = tail(ops)
        raw = r["op_raw_ms"] or [0.0]
        values = {
            "setup_s": statistics.median(r["setup_s"]),
            "op_p50_ms": p50_ms,
            "op_tail_ms": tail_ms,
            "peak_rss_mb": r["peak_rss_mb"],
        }
        notes = {
            "setup_s": f"median of {len(r['setup_s'])} set-ups; raw "
            f"{statistics.median(r['setup_raw_s']):.4f} s",
            "op_p50_ms": f"{len(ops)} ops; raw {statistics.median(raw):.3f} ms, "
            f"op spread (IQR/median) {100 * spread(ops):.1f} %",
            "op_tail_ms": f"p{pct:.1f} of {len(ops)} ops, {min(TAIL_BEYOND, len(ops) - 1)} "
            f"beyond; raw {tail(raw)[0]:.3f} ms",
        }
        wanted = specs["end_to_end"]
    else:
        values = {k: 0.0 for k in specs["per_layer"]}
        values.update(r["layers"])
        traced = r["traced_op_ms"] or [0.0]
        values["trace.overhead_ms"] = statistics.median(traced) - p50_ms
        notes = {"trace.overhead_ms": f"traced p50 {statistics.median(traced):.3f} ms, "
                 f"untraced p50 {p50_ms:.3f} ms; spans in {r['trace_file']}"}
        wanted = specs["per_layer"]
    metrics = {}
    for key, unit in wanted.items():
        metrics[key] = {"value": values[key], "unit": unit}
        note = notes.get(key, "")
        print(f"{name} {key} {values[key]:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "adjmatroid" / "__init__.py").is_file():
        print(f"error: no adjmatroid sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd, check=False).returncode)
        return code
    sys.path.insert(0, str(SRC))
    print_report(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
