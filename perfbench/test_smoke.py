"""Smoke test of the benchmark itself, at each workload's smallest size.

    python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.pin_environment()
QIPSIM, _IMPORT_S = run.import_qipsim()

import spans  # noqa: E402  (after the environment is pinned)
import speed  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RUN_PY = str(Path(run.__file__).resolve())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_prints_every_metric_with_unit(name, trace):
    out = subprocess.run(
        [sys.executable, RUN_PY, "--workload", name, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--small"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in expected:
        assert any(line.split()[0::2] == [m["name"], m["unit"]]
                   for line in lines[:-1] if len(line.split()) == 3), m["name"]


def _small_ops(name, seed=7):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(QIPSIM, seed, True)
    return workload.ops(state, seed, True)


def test_corrupted_or_raising_op_counts_as_failed():
    ops = _small_ops("engine")
    assert not run.run_pass(ops, speed.Speedometer()).failures

    def corrupt(call):
        def wrong():
            res = call()
            res.p_acc += 1e-6
            return res
        return wrong

    def boom():
        raise RuntimeError("boom")

    runs = [op for op in ops if op.label.startswith("run ")]
    runs[0].call = corrupt(runs[0].call)
    runs[-1].call = boom
    failures = run.run_pass(ops, speed.Speedometer()).failures
    assert [label for label, _p, _d in failures] == [runs[0].label, runs[-1].label]
    assert not any(deadline for _l, _p, deadline in failures)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat_across_passes(name):
    ops = _small_ops(name)
    meter = speed.Speedometer()
    tracer = spans.Tracer(clock=meter.clock)
    with spans.install(tracer, QIPSIM):
        counts = [run.traced_pass(ops, meter, tracer)[1] for _ in range(2)]
    first, second = ({k: m[k] for k in run.COUNT_METRICS} for m in counts)
    assert first == second
    assert any(first.values())


def test_reference_speed_scales_with_the_work():
    """Twice the work takes about twice the reference-speed time."""
    meter = speed.Speedometer()

    def work(n):
        return lambda: sum(i * i for i in range(n))

    once = statistics.median(meter.measure(work(200_000))[2] for _ in range(5))
    twice = statistics.median(meter.measure(work(400_000))[2] for _ in range(5))
    assert 1.5 < twice / once < 2.5
    assert meter.spent > 0
