"""Benchmark of the finitary library and CLI.

    python3 bench/run.py --workload correspondence --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop: a single caller, no threads, the next
op starts when the previous one has returned.  The seed selects the
generated inputs (see inputs.py); the library sees only those inputs.

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric of BENCHMARK.json; with ``--trace 1`` it holds every
per-layer metric instead, from a run that alternates one untraced and one
traced op per input.  The line before it, ``diagnostics {...}``, gives the
tail percentile and its sample count, the wall-clock figures, the set-up
repeats and the host calibration loop timed before and after the run.

The end-to-end times are given at reference speed: each op and each set-up
is preceded by a fixed pure-Python reference loop, and its measured time is
scaled by REFERENCE_S over the reference loop's time measured around it.
The host this was tuned on changes speed by up to 1.7 times within seconds;
the scaling removes that from the figures, and the wall-clock figures stay
in the diagnostics line.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import inputs
from workloads import WORKLOADS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# The host's speed wanders over seconds, so set-up is repeated not in one
# burst but once before the timed phase and again after every
# SETUP_INTERVAL_S seconds of it (at least SETUP_MIN_REPEATS times in all);
# setup_s is the median of these repeats at reference speed.
SETUP_INTERVAL_S = 3.0
SETUP_MIN_REPEATS = 3
WARMUP_OPS = 5
TAIL_BEYOND = 10
CALIBRATION_REPEATS = 250
# The reference loop's typical duration on the tuning host (2-CPU x86-64,
# Python 3.11.7); an op's time at reference speed is its measured time times
# REFERENCE_S over the reference time measured around it, the median of
# REFERENCE_WINDOW reference loops centred on the op.
REFERENCE_S = 0.0008
REFERENCE_WINDOW = 9


def _reference_s() -> float:
    """Time one run of fixed pure-Python work: tuple keys, dict updates and
    integer arithmetic, the kind of work the library does."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(3000):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def _calibrate_ms() -> float:
    """The reference loop, CALIBRATION_REPEATS times over: how fast the host
    ran at one moment.  A diagnostic only."""
    return sum(_reference_s() for _ in range(CALIBRATION_REPEATS)) * 1000


def _at_reference_speed(seconds: list[float], reference: list[float]) -> list[float]:
    half = REFERENCE_WINDOW // 2
    return [
        t * REFERENCE_S / statistics.median(reference[max(0, k - half) : k + half + 1])
        for k, t in enumerate(seconds)
    ]


def _load_library():
    """Import finitary afresh from this checkout's src directory."""
    for name in [m for m in sys.modules if m == "finitary" or m.startswith("finitary.")]:
        del sys.modules[name]
    lib = importlib.import_module("finitary")
    importlib.import_module("finitary.cli")
    if Path(lib.__file__).resolve().parent != (SRC / "finitary").resolve():
        raise ImportError(f"finitary imported from {lib.__file__}, not from {SRC}")
    return lib


def _setup(workload, items):
    """Import, then parse every input through finitary.io.  Returns the
    library, the parsed inputs, the set-up time and per-input parse times."""
    gc.collect()
    start = time.perf_counter()
    lib = _load_library()
    parse = WORKLOADS[workload].parse
    parsed, parse_s = [], []
    for item in items:
        t = time.perf_counter()
        parsed.append(parse(lib, item))
        parse_s.append(time.perf_counter() - t)
    return lib, parsed, time.perf_counter() - start, parse_s


def _attempt(fn, *args):
    """Run one op; any exception, or an argparse exit, counts as a failure."""
    try:
        return fn(*args), True
    except (Exception, SystemExit):
        return None, False


def _checked(wl, item, out, ran: bool) -> bool:
    if not ran:
        return False
    try:
        return bool(wl.check(item, out))
    except Exception:
        return False


def _timed_run(wl, lib, items, parsed, seconds: float, set_up):
    """The closed loop.  After every SETUP_INTERVAL_S seconds of it, the
    clock stops for one more set-up, whose library and parsed inputs the
    following ops use."""
    latencies, reference, passed = [], [], 0
    measured = 0.0
    k = 0
    while True:
        start = time.perf_counter()
        pause_at = start + min(SETUP_INTERVAL_S, seconds - measured)
        while True:
            i = k % len(items)
            reference.append(_reference_s())
            t0 = time.perf_counter()
            out, ran = _attempt(wl.op, lib, items[i], parsed[i])
            latencies.append(time.perf_counter() - t0)
            passed += _checked(wl, items[i], out, ran)
            k += 1
            if time.perf_counter() >= pause_at:
                break
        measured += time.perf_counter() - start
        if measured >= seconds:
            return latencies, reference, passed, measured
        lib, parsed = set_up()


def _per_input_means(latencies: list[float], inputs: int) -> list[float]:
    """Each input's mean latency over its ops, sorted.  Op k ran input
    k % inputs, so an input's ops are spread evenly over the run and its
    mean averages over the host's speed during the whole run."""
    sums, runs = [0.0] * inputs, [0] * inputs
    for k, latency in enumerate(latencies):
        sums[k % inputs] += latency
        runs[k % inputs] += 1
    return sorted(total / n for total, n in zip(sums, runs) if n)


def _traced_run(wl, lib, items, parsed, seconds: float):
    """Per input, one untraced and one traced op, the untraced one first on
    even inputs.  Both outputs are checked, and they must be equal."""
    tracer = Tracer()
    untraced_s, traced_s = [], []
    attempted = passed = 0
    deadline = time.perf_counter() + seconds
    while True:
        i = attempted % len(items)
        tracer.op = attempted
        untraced_first = attempted % 2 == 0
        if untraced_first:
            start = time.perf_counter()
            plain = _attempt(wl.op, lib, items[i], parsed[i])
            untraced_s.append(time.perf_counter() - start)
        first_span = len(tracer.spans)
        traced = _attempt(wl.traced, lib, tracer, items[i], parsed[i])
        if not untraced_first:
            start = time.perf_counter()
            plain = _attempt(wl.op, lib, items[i], parsed[i])
            untraced_s.append(time.perf_counter() - start)
        op_span = tracer.spans[first_span] if len(tracer.spans) > first_span else None
        traced_s.append(op_span[4] - op_span[3] if op_span and op_span[4] else 0.0)
        passed += (
            _checked(wl, items[i], *plain)
            and _checked(wl, items[i], *traced)
            and plain[0] == traced[0]
        )
        attempted += 1
        if time.perf_counter() >= deadline:
            break
    return tracer, untraced_s, traced_s, attempted, passed


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(tracer, span_names, untraced_s, traced_s, parse_s) -> dict[str, float]:
    ops = sorted({s[0] for s in tracer.spans})
    span_total = {name: {op: 0.0 for op in ops} for name in span_names}
    op_total = {op: 0.0 for op in ops}
    top_level = {op: 0.0 for op in ops}
    for op, name, parent, start, end in tracer.spans:
        if name == "op":
            op_total[op] += end - start
        elif name in span_total:
            span_total[name][op] += end - start
        if parent is not None and tracer.spans[parent][1] == "op":
            top_level[op] += end - start
    counts: dict[str, dict[int, float]] = {}
    for op, name, value in tracer.counts:
        per_op = counts.setdefault(name, {})
        per_op[op] = per_op.get(op, 0) + value

    def total(name: str) -> float:
        return sum(counts.get(name, {}).values())

    def median_count(name: str) -> float:
        values = counts.get(name)
        return float(statistics.median(values.values())) if values else 0.0

    all_ops = sum(op_total.values())
    metrics: dict[str, float] = {}
    for name, per_op in span_total.items():
        metrics[f"{name}_ms"] = statistics.median(per_op.values()) * 1000 if per_op else 0.0
        metrics[f"{name}.share"] = _ratio(sum(per_op.values()), all_ops)
    metrics["manifolds.words"] = median_count("manifolds.words")
    metrics["manifolds.words_useful_frac"] = _ratio(
        total("manifolds.words"), total("envelope.basis_words_examined")
    )
    metrics["envelope.basis_words_examined"] = median_count("envelope.basis_words_examined")
    metrics["envelope.product_pairs"] = median_count("envelope.product_pairs")
    metrics["envelope.product_useful_frac"] = _ratio(
        total("envelope.product_useful"), total("envelope.product_pairs")
    )
    metrics["ideals.reduce_kept_frac"] = _ratio(total("ideals.reduce_kept"), total("ideals.reduce_in"))
    metrics["scalars.replay_ms"] = median_count("scalars.replay_s") * 1000
    metrics["topology.hasse_edges"] = median_count("topology.hasse_edges")
    metrics["coarse.sample_points"] = median_count("coarse.sample_points")
    metrics["coarse.trace_classes"] = median_count("coarse.trace_classes")
    metrics["coarse.sample_useful_frac"] = _ratio(
        total("coarse.trace_classes"), total("coarse.sample_points")
    )
    metrics["io.parse_ms"] = statistics.median(parse_s) * 1000
    metrics["trace.op_ms"] = statistics.median(traced_s) * 1000
    metrics["trace.overhead_frac"] = _ratio(sum(traced_s) - sum(untraced_s), sum(untraced_s))
    metrics["trace.unattributed_frac"] = 1 - _ratio(sum(top_level.values()), all_ops)
    return metrics


def _write_trace(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {
                "spans": [
                    {"op": op, "name": name, "parent": parent, "start": start, "end": end}
                    for op, name, parent, start, end in tracer.spans
                ],
                "counts": [{"op": op, "name": name, "value": value} for op, name, value in tracer.counts],
            }
        )
        + "\n"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "finitary" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no finitary sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    compileall.compile_dir(SRC / "finitary", quiet=1)
    sys.path.insert(0, str(SRC))

    calibration_before = _calibrate_ms()
    start = time.perf_counter()
    input_dir = WORK / f"{args.workload}-{args.seed}"
    items = inputs.generate(_load_library(), args.workload, args.seed, input_dir)
    generate_s = time.perf_counter() - start

    setup_s, setup_reference, parse_s = [], [], []

    def set_up():
        setup_reference.append(statistics.median(_reference_s() for _ in range(REFERENCE_WINDOW)))
        lib, parsed, seconds, parse_s[:] = _setup(args.workload, items)
        setup_s.append(seconds)
        return lib, parsed

    lib, parsed = set_up()
    wl = WORKLOADS[args.workload]
    for i in range(min(WARMUP_OPS, len(items))):
        _attempt(wl.op, lib, items[i], parsed[i])
    gc.collect()

    diagnostics = {
        "inputs": len(items),
        "generate_s": generate_s,
        "setup_s": setup_s,
        "host.calibration_ms": {"before": calibration_before},
    }
    if args.trace:
        tracer, untraced_s, traced_s, attempted, passed = _traced_run(wl, lib, items, parsed, args.seconds)
        # Every span has a "<name>.share" metric; layers a workload does
        # not call report 0.
        span_names = [m["name"][: -len(".share")] for m in spec["per_layer"] if m["name"].endswith(".share")]
        values = _layer_metrics(tracer, span_names, untraced_s, traced_s, parse_s)
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        _write_trace(tracer, trace_path)
        diagnostics["trace_file"] = str(trace_path.relative_to(ROOT))
        wanted = spec["per_layer"]
    else:
        latencies, reference, passed, elapsed = _timed_run(wl, lib, items, parsed, args.seconds, set_up)
        while len(setup_s) < SETUP_MIN_REPEATS:
            set_up()
        attempted = len(latencies)
        normalized = _at_reference_speed(latencies, reference)
        per_input = _per_input_means(normalized, len(items))
        tail_index = max(0, len(per_input) - TAIL_BEYOND - 1)
        values = {
            "throughput_ops_s": attempted / sum(normalized),
            "latency_p50_ms": statistics.median(per_input) * 1000,
            "latency_tail_ms": per_input[tail_index] * 1000,
            "ok_frac": passed / attempted,
            "setup_s": statistics.median(
                t * REFERENCE_S / r for t, r in zip(setup_s, setup_reference)
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wall_per_input = _per_input_means(latencies, len(items))
        diagnostics["latency_samples"] = len(per_input)
        diagnostics["latency_tail_percentile"] = 100 * (tail_index + 1) / len(per_input)
        diagnostics["latency_tail_samples_beyond"] = len(per_input) - tail_index - 1
        diagnostics["ops"] = attempted
        diagnostics["reference_ms"] = statistics.median(reference) * 1000
        diagnostics["wall"] = {
            "throughput_ops_s": attempted / elapsed,
            "latency_p50_ms": statistics.median(wall_per_input) * 1000,
            "latency_tail_ms": wall_per_input[tail_index] * 1000,
            "setup_s": statistics.median(setup_s),
            "op_latency_p50_ms": statistics.median(latencies) * 1000,
            "op_latency_tail_ms": sorted(latencies)[max(0, attempted - TAIL_BEYOND - 1)] * 1000,
        }
        wanted = spec["end_to_end"]
    diagnostics["host.calibration_ms"]["after"] = _calibrate_ms()
    shutil.rmtree(input_dir)

    print("diagnostics " + json.dumps(diagnostics))
    result = {
        "correct": passed == attempted,
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
