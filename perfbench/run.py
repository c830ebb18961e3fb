"""Benchmark of mvlogic: one closed-loop workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Workloads: grounded-taut, direct-search, suites, cli (see README.md).
One caller runs whole rounds of the workload's operations, each
starting after the previous one ends, until S seconds have passed; every
output is checked against the reference semantics in ref.py.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  Results and traces are written
to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def child(args, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload, "--seed", str(args.seed), *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"set-up child failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def setup_child(args, root) -> None:
    """Time one set-up in this fresh interpreter: import mvlogic and
    prepare the workload's program-side inputs."""
    workload = workloads.build(args.workload, args.seed, root)
    t0 = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - t0
    workload.close()
    print(f"{elapsed:.9f}")


def import_ms() -> float:
    """Median time of `import mvlogic` in a fresh interpreter, in ms."""
    code = "import time; t = time.perf_counter(); import mvlogic; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        samples.append(float(done.stdout) * 1000)
    return statistics.median(samples)


def run_round(workload, records, failures):
    for op in workload.ops:
        if op.before is not None:
            op.before()
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # judged by the op's check
            out = exc
        elapsed = time.perf_counter() - t0
        op.output = out
        outcome = op.check(out)
        records.append((elapsed, outcome.work, outcome.ok))
        if not outcome.ok:
            failures.append((op, outcome.message))


def measure(args, root):
    workload = workloads.build(args.workload, args.seed, root)
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workload.setup()
    setup_end = tracer.mark() if tracer else 0
    workload.warm()

    records, failures, setup = [], [], []
    rounds, traced_rounds = 0, []
    if not tracer:
        # The set-up samples are taken between rounds, spread over the
        # run; the first child only warms the bytecode cache.
        child(args, "--setup-child")
        samples = SETUP_SAMPLES if args.seconds >= 5 else 1
    start = time.perf_counter()
    while True:
        if tracer:
            # Alternate plain and traced rounds; the difference is the
            # tracing overhead.
            traced = rounds % 2 == 1
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
            workload.traced = traced
            lo = tracer.mark()
        run_round(workload, records, failures)
        if tracer and traced:
            traced_rounds.append((lo, tracer.mark()))
        rounds += 1
        elapsed = time.perf_counter() - start
        if not tracer and len(setup) < samples and elapsed >= len(setup) * args.seconds / samples:
            setup.append(child(args, "--setup-child"))
        if elapsed >= args.seconds and (not tracer or rounds >= 2):
            break
    if tracer:
        tracer.uninstall()
        spans = tracer.spans
        chunks = traced_rounds
        if workload.trace_files:
            # The CLI commands' spans, recorded in the children, cover
            # every traced round at once.
            chunks = [(len(spans), None)]
            for path in workload.trace_files:
                spans += tracing.read_spans(path, len(spans))
    workload.close()

    unexpected = [(op, msg) for op, msg in failures if not op.fault]
    for note in sorted(workload.notes):
        print(f"note: {note}")
    for op, msg in failures:
        kind = "known fault" if op.fault else "WRONG OUTPUT"
        print(f"{kind}: {op.label}: {msg}")
    attempted, failed = len(records), len(failures)
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    k = len(workload.ops)
    if tracer:
        metrics = layer_metrics(spans, setup_end, chunks, len(traced_rounds))
        metrics["trace.overhead_s"] = (round_time(records, k, 1) - round_time(records, k, 0), "s")
        tracing.write_spans(os.path.join(root, ".perfbench", f"trace-{tag}.json"), spans)
    else:
        setup += [child(args, "--setup-child") for _ in range(samples - len(setup))]
        op_s = op_times(records, k)
        busy = sum(r[0] for r in records)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (attempted / busy, "1/s"),
            "op_ms_p50": (statistics.median(op_s) * 1000, "ms"),
            "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
            "work_per_s": (sum(r[1] for r in records) / busy, "1/s"),
        }
        print(f"{args.workload}: {rounds} rounds of {k} ops, work unit: {workload.unit}")
        if attempted >= 100:
            times_ms = [r[0] * 1000 for r in records]
            print(f"op_ms_p90 {percentile(times_ms, 0.9):.4f} ms ({attempted} samples)")
        print(f"{workload.unit}_per_s {metrics['work_per_s'][0]:.1f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    line = json.dumps(result)
    with open(os.path.join(root, ".perfbench", f"result-{tag}.json"), "w") as handle:
        detail = dict(result, op_seconds=[r[0] for r in records], ops_per_round=len(workload.ops))
        handle.write(json.dumps(detail) + "\n")
    print(line)


def op_times(records, k, start=0, step=1):
    """Each op's mean duration over the rounds start, start + step, ...;
    every round runs the same k ops."""
    rounds = [records[i : i + k] for i in range(start * k, len(records), step * k)]
    return [statistics.fmean(r[j][0] for r in rounds) for j in range(k)]


def round_time(records, k, parity):
    """Program time of one round, from the op means over the plain
    (parity 0) or traced (parity 1) rounds of an alternating run."""
    return sum(op_times(records, k, parity, 2))


# Per-layer metrics and their units.  The last part of a name is the
# statistic: calls, seconds (s), self time (self_s) or the span's count
# (nodes of the grounded formula, models enumerated).
LAYER_METRICS = {
    "semantics.is_taut_prop.calls": "count",
    "semantics.is_taut_prop.s": "s",
    "grounding.ground.calls": "count",
    "grounding.ground.s": "s",
    "grounding.ground.nodes": "count",
    "semantics.enumerate_models.models": "count",
    "semantics.enumerate_models.s": "s",
    "semantics.eval_fo.calls": "count",
    "semantics.eval_fo.s": "s",
    "semantics.eval_prop.s": "s",
    "reductions.model_plus.calls": "count",
    "reductions.model_plus.s": "s",
    "reductions.translate_model.s": "s",
    "reductions.wnm_star.s": "s",
    "search.find_countermodel.self_s": "s",
    "search.verify_certificate.calls": "count",
    "search.verify_certificate.s": "s",
    "chains.chain_from_text.calls": "count",
    "chains.chain_from_text.s": "s",
    "formulas.parse.calls": "count",
    "formulas.parse.s": "s",
}
COUNT_STATS = ("nodes", "models")


def layer_metrics(spans, setup_end, chunks, traced_rounds):
    """Per-layer figures for one set-up plus one round: the set-up's
    spans once, plus the spans of `chunks` (which cover the traced
    rounds) divided by the number of traced rounds."""
    setup = tracing.layer_totals(spans, 0, setup_end)
    per_round = [tracing.layer_totals(spans, lo, hi) for lo, hi in chunks]
    keys = set(setup).union(*per_round)

    def value(key):
        return setup.get(key, 0) + sum(t.get(key, 0) for t in per_round) / traced_rounds

    out = {}
    for metric, unit in LAYER_METRICS.items():
        span, stat = metric.rsplit(".", 1)
        out[metric] = (value(f"{span}.{'count' if stat in COUNT_STATS else stat}"), unit)
    out["search.certificate_text.s"] = (
        value("search.certificate_to_text.s") + value("search.certificate_from_text.s"),
        "s",
    )
    out["suites.self_s"] = (
        sum(value(k) for k in keys if k.startswith("suites.") and k.endswith(".self_s")),
        "s",
    )
    out["cli.import_ms"] = (import_ms(), "ms")
    return out


def smoke(root) -> int:
    """Every workload once, for a second, with all its checks."""
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=170)
        last = done.stdout.strip().splitlines()[-1:] or [""]
        print(f"{name}: exit {done.returncode} {last[0]}")
        if done.returncode != 0 or not json.loads(last[0]).get("correct"):
            print(done.stdout + done.stderr)
            worst = 1
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload briefly")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mvlogic", "__init__.py")):
        print("error: run from the root of an mvlogic checkout (src/mvlogic is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_child:
        setup_child(args, root)
    else:
        measure(args, root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
