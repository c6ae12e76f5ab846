#!/usr/bin/env python3
"""qipsim benchmark: run one workload in this process and report its metrics.

    python3 perfbench/run.py --workload engine --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; qipsim is imported from ``src/`` there.
``--trace 0`` reports the end-to-end metrics, with times at reference speed
(see speed.py).  ``--trace 1`` reports the per-layer metrics: it times
untraced passes, then traced passes, and writes the traced spans to
``.perfbench-out/spans-<workload>.tsv``.  The last line of standard output is
the result as one JSON object.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
TOLERANCE_VARS = ("QIPSIM_UNITARY_TOL", "QIPSIM_PROB_TOL", "QIPSIM_PRUNE_TOL")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: a second one spins on the other vCPU, whose speed the
# single-threaded reference loop does not see (see README.md).
BLAS_THREADS = 1
SETUP_REPEATS = 3
MIN_PASSES = 2  # so that every op's latency is a median of at least 2

UNITS = {
    # end to end, --trace 0
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ok_frac": "frac", "peak_rss_mb": "MB",
    # per layer, --trace 1
    "qfa.completion_svd_s": "s", "qfa.completion_svd.calls": "count",
    "qfa.validate_and_complete.self_s": "s",
    "qfa.build_step_operator_s": "s", "qfa.build_step_operator.calls": "count",
    "linalg.check_unitary_s": "s", "linalg.check_unitary.calls": "count",
    "protocols.table_s": "s",
    "runtime.run.calls": "count", "runtime.run.self_s": "s",
    "runtime.rounds": "count", "runtime.us_per_round": "us",
    "runtime.prover_calls": "count",
    "provers.dense_apply_s": "s", "provers.scripted_apply_s": "s",
    "provers.identity_apply_s": "s",
    "adversary.quantum.self_s": "s", "adversary.quantum.evals": "count",
    "adversary.quantum.ms_per_eval": "ms",
    "adversary.classical.self_s": "s", "adversary.classical.nodes": "count",
    "adversary.classical.nodes_per_s": "1/s",
    "adversary.replay_s": "s",
    "trace.overhead_frac": "frac", "trace.coverage_frac": "frac",
}
COUNT_METRICS = tuple(name for name, unit in UNITS.items() if unit == "count")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_environment() -> int:
    """Drop inherited tolerance overrides and fix the BLAS thread count.

    Must run before numpy is imported; returns the thread count.
    """
    for var in TOLERANCE_VARS:
        os.environ.pop(var, None)
    threads = min(BLAS_THREADS, nproc())
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def import_qipsim():
    """Import qipsim from this checkout's src/; returns (module, seconds)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import qipsim
    elapsed = time.perf_counter() - t0
    if Path(qipsim.__file__).resolve().parent != src / "qipsim":
        raise ImportError(f"qipsim imported from {qipsim.__file__}, not {src}")
    return qipsim, elapsed


# ---------------------------------------------------------------------------
# Timing ops under a deadline
# ---------------------------------------------------------------------------

class DeadlineExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def time_op(op, meter, tracer=None):
    """Time one op; returns (seconds, reference-speed seconds, failure or None,
    deadline hit)."""
    signal.signal(signal.SIGALRM, _on_alarm)
    if tracer is not None:
        tracer.op_id = tracer.ops_timed
        tracer.ops_timed += 1
    meter.start()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
        try:
            out = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return (*meter.stop(), f"deadline {op.deadline_s} s", True)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return (*meter.stop(), f"raised {exc!r}", False)
    finally:
        if tracer is not None:
            tracer.op_id = -1
    elapsed, ref_elapsed = meter.stop()
    try:
        problem = op.check(out)
    except Exception as exc:
        problem = f"check raised {exc!r}"
    return elapsed, ref_elapsed, problem, False


class Pass:
    """Latencies (one per visit, per op) and failures of one pass."""

    def __init__(self, n_ops):
        self.latencies: list[list[float]] = [[] for _ in range(n_ops)]
        self.ref_latencies: list[list[float]] = [[] for _ in range(n_ops)]
        self.failures: list[tuple[str, str, bool]] = []

    @property
    def wall_s(self) -> float:
        return sum(map(sum, self.latencies))

    @property
    def ref_wall_s(self) -> float:
        return sum(map(sum, self.ref_latencies))

    @property
    def attempted(self) -> int:
        return sum(map(len, self.latencies))


def run_pass(ops, meter, tracer=None) -> Pass:
    """Visit the ops in rounds; round r times the ops with more than r visits."""
    result = Pass(len(ops))
    for r in range(max(op.visits for op in ops)):
        for i, op in enumerate(ops):
            if op.visits > r:
                elapsed, ref_elapsed, problem, deadline = time_op(op, meter, tracer)
                result.latencies[i].append(elapsed)
                result.ref_latencies[i].append(ref_elapsed)
                if problem is not None:
                    result.failures.append((op.label, problem, deadline))
    return result


def run_passes(one_pass, seconds, min_passes=1) -> list[Pass]:
    """At least ``min_passes`` whole passes, more while they fit in ``seconds``."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(one_pass(len(passes)))
        elapsed = time.perf_counter() - t0
        if len(passes) >= min_passes and elapsed + elapsed / len(passes) > seconds:
            return passes


def traced_pass(ops, meter, tracer):
    """One pass under the tracer; returns it with its per-layer metrics."""
    import spans

    start, before = len(tracer), dict(tracer.counters)
    result = run_pass(ops, meter, tracer)
    counts = {k: v - before.get(k, 0) for k, v in tracer.counters.items()}
    metrics = spans.layer_metrics(tracer, start, len(tracer), counts)
    metrics["trace.coverage_frac"] = metrics.pop("_self_total_s") / result.wall_s
    return result, metrics


# ---------------------------------------------------------------------------
# One workload, end to end
# ---------------------------------------------------------------------------

def set_up(workload, qipsim, import_s, meter, seed, small):
    """Build the systems SETUP_REPEATS times; returns (state, setup_s, failures).

    setup_s is the import time plus the median build-and-warm-up time, both
    at reference speed.
    """
    times, failures, state = [], [], None
    for _ in range(1 if small else SETUP_REPEATS):
        state, _elapsed, build_s = meter.measure(
            lambda: workload.setup(qipsim, seed, small))
        _elapsed, warm_s, problem, _deadline = time_op(workload.warmup(state, seed), meter)
        times.append(build_s + warm_s)
        if problem is not None:
            failures.append(("warm-up", problem, False))
    return state, import_s + statistics.median(times), failures


def op_latencies(passes, ref=True):
    """Each op's median latency over its visits in all passes, in ms."""
    field = "ref_latencies" if ref else "latencies"
    return [statistics.median(t for p in passes for t in getattr(p, field)[i]) * 1e3
            for i in range(len(passes[0].latencies))]


def end_to_end(passes, setup_s, ok_frac):
    """Reference-speed figures of one pass; see README.md."""
    op_ms = op_latencies(passes)
    return {"setup_s": setup_s,
            "wall_s": sum(op_ms) / 1e3,
            "op_p50_ms": statistics.median(op_ms),
            "op_p90_ms": statistics.quantiles(op_ms, n=10, method="inclusive")[8],
            "ok_frac": ok_frac,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def traced(ops, qipsim, meter, seconds, untraced_passes, workload_name):
    """Per-layer metrics of the fastest traced pass; spans go to OUT_DIR."""
    import spans

    tracer = spans.Tracer(clock=meter.clock)
    per_pass = []

    def one_pass(_i):
        result, metrics = traced_pass(ops, meter, tracer)
        per_pass.append(metrics)
        return result

    with spans.install(tracer, qipsim):
        passes = run_passes(one_pass, seconds)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload_name}.tsv")
    fastest = min(range(len(passes)), key=lambda i: passes[i].ref_wall_s)
    metrics = per_pass[fastest]
    plain = sum(op_latencies(untraced_passes))
    metrics["trace.overhead_frac"] = sum(op_latencies(passes)) / plain - 1
    return passes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest size of the workload (smoke test)")
    args = parser.parse_args(argv)

    threads = pin_environment()
    try:
        qipsim, import_s = import_qipsim()
    except ImportError as exc:
        print(f"perfbench: cannot import qipsim from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import numpy
    import scipy
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    import speed

    meter = speed.Speedometer()
    ref_import_s = import_s * speed.REF_S / statistics.fmean(
        meter.sample() for _ in range(5))
    state, setup_s, failures = set_up(workload, qipsim, ref_import_s, meter,
                                      args.seed, args.small)
    ops = workload.ops(state, args.seed, args.small)
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(lambda _i: run_pass(ops, meter), budget,
                        1 if args.trace or args.small else MIN_PASSES)
    hot_passes, metrics = (traced(ops, qipsim, meter, budget, passes, workload.name)
                           if args.trace else ([], None))
    timed = passes + hot_passes
    for p in timed:
        failures += p.failures
    attempted = sum(p.attempted for p in timed)
    failed = sum(len(p.failures) for p in timed)
    if metrics is None:
        metrics = end_to_end(passes, setup_s, (attempted - failed) / attempted)
    lin = qipsim.linalg
    print("# env " + json.dumps({
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "small": args.small, "passes": len(timed),
        "ops_per_pass": len(ops), "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__, "nproc": nproc(),
        "blas_threads": threads, "import_s": import_s,
        "tolerances": {"UNITARY_TOL": lin.UNITARY_TOL, "PROB_TOL": lin.PROB_TOL,
                       "PRUNE_TOL": lin.PRUNE_TOL}}))
    for label, problem, _deadline in failures:
        print(f"# failed: {label}: {problem}")
    print(f"# fail_frac {failed / attempted!r} ({failed} of {attempted} ops)")
    if not args.trace:
        print(f"# op latency samples: {len(ops)} ops, {attempted} timed calls "
              f"over {len(timed)} passes")
        raw_ms = op_latencies(passes, ref=False)
        print(f"# unadjusted: import {import_s!r} s, wall "
              f"{sum(raw_ms) / 1e3!r} s, op p50 {statistics.median(raw_ms)!r} ms, "
              f"reference loop median {statistics.median(meter.history)!r} s")
    for name, value in metrics.items():
        print(f"{name:36s} {value!r} {UNITS[name]}")
    correct = not any(not deadline for _label, _problem, deadline in failures)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
