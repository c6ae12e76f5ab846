"""In-memory span tracing for the benchmark's traced runs.

`install` wraps the public functions of each measured qipsim module at run
time, at the binding sites the program itself calls through, and restores the
originals on exit.  Nothing under ``src/`` is edited.  A span holds a name, a
start and end time, the span that caused it and the id of the timed op it
belongs to; spans are recorded only while an op is being timed, so the
benchmark's own correctness checks never show up in the layer figures.

Counts are recorded at the same boundaries from the wrapped functions'
results (rounds executed, classical-search nodes, quantum-prover evaluations).
"""
from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

# One entry per wrapped binding: (module path, attribute, span name).  A class
# path ("provers.DenseProver") wraps the method on the class.
SITES = (
    ("protocols", "build_protocol", "protocols.build_protocol"),
    ("protocols", "validate_and_complete", "qfa.validate_and_complete"),
    ("qfa", "build_step_operator", "qfa.build_step_operator"),
    ("qfa", "check_unitary", "linalg.check_unitary"),
    ("runtime", "run", "runtime.run"),
    ("adversary", "run", "runtime.run"),
    ("runtime", "count_interactions", "runtime.count_interactions"),
    ("runtime", "query_weight", "runtime.query_weight"),
    ("provers.IdentityProver", "apply", "provers.identity_apply"),
    ("provers.ScriptedProver", "apply", "provers.scripted_apply"),
    ("provers.EraseAllProver", "apply", "provers.erase_all_apply"),
    ("provers.TableProver", "apply", "provers.table_apply"),
    ("provers.DenseProver", "apply", "provers.dense_apply"),
    ("adversary", "best_classical_prover", "adversary.classical"),
    ("adversary", "search_quantum_prover", "adversary.quantum"),
    ("adversary", "replay", "adversary.replay"),
)

# numpy.linalg.svd is traced only when reached from the completion.
SVD_SPAN = "qfa.completion_svd"
SVD_PARENT = "qfa.validate_and_complete"

# Exact counts taken from results at the span boundary.
RESULT_COUNTERS = {
    "runtime.run": ("runtime.rounds", lambda res: res.rounds_executed),
    "adversary.classical": ("adversary.classical.nodes",
                            lambda rep: rep.strategies_tested),
    "adversary.quantum": ("adversary.quantum.evals",
                          lambda rep: rep.strategies_tested),
}

PROVER_SPANS = tuple(name for _m, _a, name in SITES if name.startswith("provers."))


class Tracer:
    """Span store; spans live in flat arrays until the run writes them out."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.ok = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self.op_id = -1  # -1: no op is being timed, nothing is recorded
        self.ops_timed = 0
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self):
        return len(self.start)

    def wrap(self, name: str, fn, within: str | None = None):
        nid = self.name_id(name)
        counter = RESULT_COUNTERS.get(name)
        within_id = None if within is None else self.name_id(within)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id < 0 or (within_id is not None and not any(
                    self.name[s] == within_id for s in stack)):
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.ok.append(0)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
                self.ok[sid] = 1
            finally:
                self.end[sid] = clock()
                stack.pop()
            if counter is not None:
                key, get = counter
                self.counters[key] = self.counters.get(key, 0) + get(out)
            return out

        return traced

    def write(self, path) -> None:
        """Spans as tab-separated lines: name, start, end, parent, op, ok."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\tok\n")
            for i in range(len(self)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{self.ok[i]}\n")


def _resolve(qipsim, path: str):
    obj = getattr(qipsim, path.split(".")[0])
    for part in path.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


@contextlib.contextmanager
def install(tracer: Tracer, qipsim):
    """Wrap every site in SITES (and the completion's SVD) for the block."""
    saved = []
    try:
        for path, attr, name in SITES:
            owner = _resolve(qipsim, path)
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr]))
        saved.append((np.linalg, "svd", np.linalg.svd))
        np.linalg.svd = tracer.wrap(SVD_SPAN, np.linalg.svd, within=SVD_PARENT)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer, lo: int, hi: int,
                  counters: dict[str, int]) -> dict[str, float]:
    """Layer figures for the spans lo..hi-1 (one pass) and its counts."""
    name = np.frombuffer(tracer.name, dtype=np.int32)[lo:hi]
    parent = np.frombuffer(tracer.parent, dtype=np.int64)[lo:hi]
    ok = np.frombuffer(tracer.ok, dtype=np.int8)[lo:hi]
    dur = (np.frombuffer(tracer.end, dtype=np.float64)[lo:hi]
           - np.frombuffer(tracer.start, dtype=np.float64)[lo:hi])
    inner = parent >= lo
    child = np.zeros(hi - lo)
    np.add.at(child, parent[inner] - lo, dur[inner])
    self_t = dur - child
    parent_name = np.full(hi - lo, -1, dtype=np.int64)
    parent_name[inner] = name[parent[inner] - lo]

    def mask(span):
        nid = tracer._ids.get(span)
        return name == (-2 if nid is None else nid)

    def total(span):
        return float(dur[mask(span)].sum())

    def self_s(span):
        return float(self_t[mask(span)].sum())

    def calls(span):
        return int(mask(span).sum())

    def ratio(num, den):
        return num / den if den else 0.0

    run_id = tracer._ids.get("runtime.run", -2)
    prover_calls = sum(int((mask(p) & (parent_name == run_id)).sum())
                       for p in PROVER_SPANS)
    rounds = counters.get("runtime.rounds", 0)
    evals = counters.get("adversary.quantum.evals", 0)
    nodes = counters.get("adversary.classical.nodes", 0)
    classical_done = mask("adversary.classical") & (ok == 1)
    return {
        "qfa.completion_svd_s": total(SVD_SPAN),
        "qfa.completion_svd.calls": calls(SVD_SPAN),
        "qfa.validate_and_complete.self_s": self_s("qfa.validate_and_complete"),
        "qfa.build_step_operator_s": total("qfa.build_step_operator"),
        "qfa.build_step_operator.calls": calls("qfa.build_step_operator"),
        "linalg.check_unitary_s": total("linalg.check_unitary"),
        "linalg.check_unitary.calls": calls("linalg.check_unitary"),
        "protocols.table_s": self_s("protocols.build_protocol"),
        "runtime.run.calls": calls("runtime.run"),
        "runtime.run.self_s": self_s("runtime.run"),
        "runtime.rounds": rounds,
        "runtime.us_per_round": ratio(self_s("runtime.run") * 1e6, rounds),
        "runtime.prover_calls": prover_calls,
        "provers.dense_apply_s": total("provers.dense_apply"),
        "provers.scripted_apply_s": total("provers.scripted_apply"),
        "provers.identity_apply_s": total("provers.identity_apply"),
        "adversary.quantum.self_s": self_s("adversary.quantum"),
        "adversary.quantum.evals": evals,
        "adversary.quantum.ms_per_eval": ratio(total("adversary.quantum") * 1e3, evals),
        "adversary.classical.self_s": self_s("adversary.classical"),
        "adversary.classical.nodes": nodes,
        "adversary.classical.nodes_per_s": ratio(
            nodes, float(self_t[classical_done].sum())),
        "adversary.replay_s": total("adversary.replay"),
        "_self_total_s": float(self_t.sum()),
    }
