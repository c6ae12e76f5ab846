"""Cheating-prover search: empirical lower bounds on the best acceptance.

Classical search enumerates every deterministic prover table within a budget
(step-indexed maps (round, cell symbol, memory) -> (cell', memory'), with
reversibility enforced on the reachable pairs).  The enumeration walks the
joint state: at each round it branches over injective assignments on the
pairs actually present, which covers every distinct table behaviour without
writing out the full table space.  A memo keyed by a canonical form of the
state (normalized, phase-fixed, memory relabelled) is the only deduplication;
it holds each node's value per unit mass and best assignment.  Memory labels
are interchangeable after round 1, so that assignment, mapped back through a
state's own renaming, is optimal for every state sharing the key.  The table
is read in one walk down the best path, and the maximum is exact whenever
the node cap is not hit.  Each verifier round is one `runtime._round`,
whose continuing mass is the next node's mass.

Branching is reduced by symmetry (Emerson & Sistla, "Symmetry and model
checking", FMSD 9, 1996), restricted to symmetries that leave every result
bit-identical.  At a node, two targets (cell', memory') are interchangeable
when they have the same memory, the same blank-ness and, on every
(state, tape symbol) row the node's labels sit on, the same non-rejecting
part of their delta column.  Swapping interchangeable targets then changes
only rejecting labels of the verifier move, which the measurement discards:
the accepting mass and the continuation come out bit for bit the same, in
the same dict order.  So each orbit of assignments under those swaps is
represented by its lexicographically first member, which is also the first
member the full enumeration reaches; the others give the same value and
continuation.

Quantum search climbs over per-round dense unitaries acting on the cell and
c prover-tape cells: random-unitary restarts followed by accept-if-better
Givens-rotation moves, each of which rotates two rows of one round's matrix.
The identity prover and the best classical table are always in the restart
pool, so the result can only improve on them.  Dense provers are evaluated
in operator form by one `runtime.DenseRun` per search, one small dense block
per round of the input's pair-graph layers.  Its forward pass keeps the
state before every prover round, so a move on round r resumes there instead
of replaying the unchanged prefix, and gives the floats a full pass would.
`runtime.run` stays the oracle: the identity baseline, the classical search's
replay and `replay` go through it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import UNITARY_TOL, ContractViolation, DomainError, check_unitary
from .provers import (ClassicalProverTable, DenseProver, EncodingError,
                      IdentityProver, dense_from_table, make_classical_prover)
from .qfa import BLANK, symbol_at
from .runtime import DenseRun, QipSystem, _round, default_t_max, run

# Largest dense prover dimension |Gamma|·|Delta|^c the quantum search climbs in.
DENSE_DIM_CAP = 64
# Classical values closer than this are a tie: a branch whose bound does not
# beat the best by more is pruned, and a node this close to its mass stops.
TIE_TOL = 1e-12
# A replayed strategy must reproduce its report's best_p_acc within this.
REPLAY_TOL = 1e-9


class BudgetError(RuntimeError):
    pass


def dense_dimension(spec, c: int) -> int:
    """|Gamma|·|Delta|^c, the dimension a dense prover with c tape cells acts in."""
    return len(spec.comm_alphabet) * len(spec.prover_alphabet) ** c


@dataclass(frozen=True)
class AdversaryBudget:
    """Search limits, checked when made; frozen, so they stay checked."""
    memory_states: int = 2
    steps: int = 16
    restarts: int = 8
    iterations: int = 60
    seed: int = 0
    node_cap: int = 2_000_000
    committed_only: bool = False

    def __post_init__(self):
        for name, least in (("memory_states", 1), ("steps", 0), ("restarts", 0),
                            ("iterations", 0), ("node_cap", 1)):
            if getattr(self, name) < least:
                raise DomainError(f"budget {name} must be at least {least}, "
                                  f"got {getattr(self, name)}")


@dataclass
class AdversaryReport:
    best_p_acc: float
    best_strategy: dict
    strategies_tested: int
    is_exhaustive: bool
    seed: int = 0


# ---------------------------------------------------------------------------
# Exhaustive classical search
# ---------------------------------------------------------------------------

class _ClassicalSearch:
    def __init__(self, system: QipSystem, x: str, budget: AdversaryBudget):
        self.spec = system.verifier
        self.width = len(x) + 2
        self.budget = budget
        self.memory = tuple(f"m{i}" for i in range(budget.memory_states))
        self.targets = [(g, m) for g in self.spec.comm_alphabet for m in self.memory]
        self.t_max = default_t_max(self.spec, x)
        self.steps = min(budget.steps, self.t_max)
        self.tape = [symbol_at(x, k) for k in range(self.width)]
        self.rejecting = frozenset(self.spec.rejecting)
        # Blank is a class of its own, so one non-blank symbol leaves every
        # class a single target.
        self.class_cache: dict | None = (
            {} if sum(g != BLANK for g in self.spec.comm_alphabet) > 1 else None)
        self.row_kinds: dict = {}
        self.memo: dict = {}
        self.moves: dict = {}  # memo key -> best assignment, renamed like the key
        self.tail_memo: dict = {}
        self.nodes = 0
        self.capped = False

    # -- engine pieces over labels (q, k, gamma, m) --

    @staticmethod
    def _apply_table(state, mapped):
        """The prover move that sends each (gamma, memory) pair as ``mapped``."""
        moved: dict = {}
        for (q, k, g, m), amp in state.items():
            g2, m2 = mapped[(g, m)]
            lbl = (q, k, g2, m2)
            v = moved.get(lbl)
            moved[lbl] = amp if v is None else v + amp
        return moved

    def _tail_value(self, state, r) -> float:
        """Identity prover from round r on (past the table budget).

        ``state`` sits just after the round-r measurement, so the remaining
        verifier rounds are r+1 .. t_max.  Memoized on the exact state, in
        dict order, so a repeat returns the very float it would recompute.
        """
        key = (r, tuple(state.items()))
        hit = self.tail_memo.get(key)
        if hit is not None:
            return hit
        acc_total = 0.0
        for _r in range(r + 1, self.t_max + 1):
            acc, _rej, state, _mass = _round(self.spec, self.tape, state, self.width)
            acc_total += acc
            if not state:
                break
        self.tail_memo[key] = acc_total
        return acc_total

    def _canonical(self, state, total):
        """Memo key of ``state``, of mass ``total``, and its renaming of ``memory``."""
        relabel: dict = {}
        out = []
        if state:
            labels = sorted(state, key=repr)
            norm = math.sqrt(total)
            ref = state[labels[0]]
            scale = 1.0 / (norm * (ref / abs(ref)))
            for q, k, g, m in labels:
                relabel.setdefault(m, f"c{len(relabel)}")
                a = state[q, k, g, m] * scale
                out.append((q, k, g, relabel[m], round(a.real, 9), round(a.imag, 9)))
        for m in self.memory:
            relabel.setdefault(m, f"c{len(relabel)}")
        return tuple(out), relabel

    def _target_classes(self, state):
        """Indices into ``targets`` of the interchangeable classes at ``state``.

        None when every class is a single target.  Depends only on the
        (state, tape symbol) rows of the labels, so it is cached per row set.
        """
        if self.class_cache is None:
            return None
        tape = self.tape
        rows = frozenset((q, tape[k]) for (q, k, _g, _m) in state)
        if rows in self.class_cache:
            return self.class_cache[rows]
        groups: dict = {}
        for j, kind in enumerate(zip(*(self._symbol_kinds(row) for row in rows))):
            groups.setdefault(kind, []).append(j)
        n_mem = len(self.memory)
        # targets[j * n_mem + i] is (comm_alphabet[j], memory[i])
        classes = None if len(groups) == len(self.spec.comm_alphabet) else [
            [j * n_mem + i for j in symbols]
            for symbols in groups.values() for i in range(n_mem)]
        self.class_cache[rows] = classes
        return classes

    def _symbol_kinds(self, row):
        """Per cell symbol, an id shared by the non-blank symbols whose delta
        columns on ``row`` agree outside the rejecting states."""
        kinds = self.row_kinds.get(row)
        if kinds is None:
            q, s = row
            ids: dict = {BLANK: 0}  # blank's own id
            kinds = []
            for g in self.spec.comm_alphabet:
                col = self.spec.delta.get((q, s, g))
                kept = BLANK if g == BLANK else col if col is None else tuple(
                    t for t in col if t[0] not in self.rejecting)
                kinds.append(ids.setdefault(kept, len(ids)))
            self.row_kinds[row] = kinds
        return kinds

    def _orbit_firsts(self, classes, k):
        """The lexicographically first k-tuple of each orbit, in index order.

        Each position takes the lowest-indexed unused member of a class, so
        the members used of a class are always a prefix of it.
        """
        targets = self.targets
        used = [0] * len(classes)

        def extend(prefix):
            firsts = sorted((members[used[c]], c) for c, members in enumerate(classes)
                            if used[c] < len(members))
            if len(prefix) + 1 == k:
                for i, _c in firsts:
                    yield prefix + (targets[i],)
                return
            for i, c in firsts:
                used[c] += 1
                yield from extend(prefix + (targets[i],))
                used[c] -= 1

        return extend(())

    def _assignments(self, state, pairs):
        """Injective maps from the reachable (gamma, memory) pairs of ``state``.

        One map per orbit of interchangeable targets (see the module
        docstring), in ``itertools.permutations`` order: the maps left out
        give the same accepting mass and continuation as the one kept before
        them, so the value and the recorded assignments are unchanged.  With
        only single classes this is ``itertools.permutations`` itself.  The
        ``committed_only`` filter (blank pairs stay blank) holds for a whole
        orbit or for none of it, since blank-ness is part of a class.
        """
        classes = self._target_classes(state)
        combos = (itertools.permutations(self.targets, len(pairs)) if classes is None
                  else self._orbit_firsts(classes, len(pairs)))
        if not self.budget.committed_only:
            return combos
        blank_idx = [i for i, (g, _m) in enumerate(pairs) if g == BLANK]
        return (c for c in combos if all(c[i][0] == BLANK for i in blank_idx))

    def _value(self, state, r, total) -> float:
        """Max future acceptance of ``state``, of mass ``total``, before prover move r."""
        if not state:
            return 0.0
        if r > self.steps:
            return self._tail_value(state, r)
        ckey, relabel = self._canonical(state, total)
        key = (r, ckey)
        hit = self.memo.get(key)
        if hit is not None:
            return hit * total
        self.nodes += 1
        if self.nodes > self.budget.node_cap:
            self.capped = True
            return self._tail_value(state, r)
        pairs = sorted({(g, m) for (_q, _k, g, m) in state})
        best = 0.0
        for combo in self._assignments(state, pairs):
            moved = self._apply_table(state, dict(zip(pairs, combo)))
            acc, _rej, cont, mass = _round(self.spec, self.tape, moved, self.width)
            bound = acc + mass
            if bound <= best + TIE_TOL:
                continue
            val = acc + self._value(cont, r + 1, mass)
            if val > best:
                best = val
                self.moves[key] = {(g, relabel[m]): (g2, relabel[m2])
                                   for (g, m), (g2, m2) in zip(pairs, combo)}
                if best >= total - TIE_TOL:
                    break
        if not self.capped:
            self.memo[key] = best / total if total > 0 else 0.0
        return best

    def search(self):
        spec, tape, width = self.spec, self.tape, self.width
        init = {(spec.initial, 0, BLANK, self.memory[0]): 1.0 + 0j}
        acc0, _rej, state, mass = _round(spec, tape, init, width)
        best = acc0 + self._value(state, 1, mass)
        entries: dict = {}
        for r in range(1, self.steps + 1):
            ckey, relabel = self._canonical(state, mass)
            move = self.moves.get((r, ckey))
            if move is None:  # best is 0 here, or the node cap cut the search
                break
            back = {c: m for m, c in relabel.items()}
            mapped = {(g, back[c]): (g2, back[c2]) for (g, c), (g2, c2) in move.items()}
            entries.update(((r, g, m), t) for (g, m), t in mapped.items() if (g, m) != t)
            moved = self._apply_table(state, mapped)
            _acc, _rej, state, mass = _round(spec, tape, moved, width)
        return best, ClassicalProverTable(entries=entries, initial_memory=self.memory[0])


def best_classical_prover(system: QipSystem, x: str,
                          budget: AdversaryBudget | None = None) -> AdversaryReport:
    """Exact maximum acceptance over classical prover tables within budget.

    The reported probability is the replayed value of the recovered table, so
    reports are reproducible even when the node cap truncated the search (in
    which case the result is a lower bound and is_exhaustive is False).
    """
    budget = budget or AdversaryBudget()
    search = _ClassicalSearch(system, x, budget)
    best, table = search.search()
    prover = make_classical_prover(table)
    achieved = run(system, prover, x).p_acc
    if not search.capped and abs(achieved - best) > REPLAY_TOL:
        raise RuntimeError(
            f"replayed table achieves {achieved}, search reported {best}")
    return AdversaryReport(best_p_acc=achieved,
                           best_strategy=prover.describe(),
                           strategies_tested=search.nodes,
                           is_exhaustive=not search.capped,
                           seed=budget.seed)


# ---------------------------------------------------------------------------
# Quantum hill climbing
# ---------------------------------------------------------------------------

def _random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    qmat, rmat = np.linalg.qr(z)
    return qmat * (np.diagonal(rmat) / np.abs(np.diagonal(rmat)))


def search_quantum_prover(system: QipSystem, x: str, c: int = 1,
                          budget: AdversaryBudget | None = None,
                          classical_seed: AdversaryReport | None = None,
                          ) -> AdversaryReport:
    """Heuristic lower bound on the optimum over quantum provers.

    Never exhaustive; the report's strategy reproduces best_p_acc exactly.
    The identity baseline is a `run`; every dense prover is evaluated by one
    `DenseRun` built for the search, and a Givens move, which rotates rows i
    and j of round r's matrix, resumes from the current prover's forward
    pass just before that round.  With no prover rounds in the budget there
    is nothing to climb, and the identity or the classical seed is the
    result.
    """
    budget = budget or AdversaryBudget()
    if c < 0:
        raise DomainError(f"tape cells must be at least 0, got {c}")
    spec = system.verifier
    comm, tape = spec.comm_alphabet, spec.prover_alphabet
    dim = dense_dimension(spec, c)
    if dim > DENSE_DIM_CAP:
        raise BudgetError(f"dense dimension {dim} exceeds cap {DENSE_DIM_CAP}")
    rounds = min(budget.steps, default_t_max(spec, x))
    rng = np.random.default_rng(budget.seed)

    best_p = run(system, IdentityProver(), x).p_acc
    best_desc = {"kind": "identity"}
    tested = 1

    if classical_seed is None:
        classical_seed = best_classical_prover(system, x, budget)
    if classical_seed.best_p_acc > best_p:
        best_p = classical_seed.best_p_acc
        best_desc = classical_seed.best_strategy
    if rounds == 0:
        return AdversaryReport(best_p_acc=best_p, best_strategy=best_desc,
                               strategies_tested=tested, is_exhaustive=False,
                               seed=budget.seed)

    seed = None
    if classical_seed.best_strategy.get("kind") == "classical_table":
        table = _table_from_description(classical_seed.best_strategy)
        try:
            seed = dense_from_table(table, comm, tape, c, rounds)
        except EncodingError:  # the table's memory does not fit in c cells
            pass

    dense_run = DenseRun(system, x, c)
    for restart in range(budget.restarts):
        if restart == 0 and seed is not None:
            prover = seed
        else:
            prover = DenseProver(comm, tape, c, [
                np.eye(dim, dtype=complex) if restart == 1 else _random_unitary(rng, dim)
                for _ in range(rounds)])
        current = dense_run.run(prover)
        tested += 1
        sigma = 0.8
        for _it in range(budget.iterations):
            r = int(rng.integers(rounds))
            i, j = rng.choice(dim, size=2, replace=False)
            theta = rng.normal() * sigma
            phi = rng.uniform(0, 2 * math.pi)
            # the Givens rotation in the (i, j) plane, applied to rows i and j
            cos, sin = math.cos(theta), math.sin(theta)
            m = current.prover.matrices[r].copy()
            m[[i, j]] = (cos * m[i] - sin * np.exp(-1j * phi) * m[j],
                         sin * np.exp(1j * phi) * m[i] + cos * m[j])
            moved = dense_run.resume(current, r, m)
            tested += 1
            if moved.p_acc > current.p_acc:
                current = moved
            sigma = max(0.05, sigma * 0.97)
        if current.p_acc > best_p:
            best_p = current.p_acc
            best_desc = current.prover.describe()

    return AdversaryReport(best_p_acc=best_p, best_strategy=best_desc,
                           strategies_tested=tested, is_exhaustive=False,
                           seed=budget.seed)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def _table_from_description(desc: dict) -> ClassicalProverTable:
    """Decode a ``classical_table`` description's "i|g|m" keys."""
    entries = {}
    for key, (g2, m2) in desc["entries"].items():
        i, g, m = key.split("|")
        entries[(int(i), g, m)] = (g2, m2)
    return ClassicalProverTable(entries=entries,
                                initial_memory=desc["initial_memory"])


def prover_from_description(desc: dict):
    """Rebuild a strategy from a report's embedded description."""
    kind = desc.get("kind")
    if kind == "identity":
        return IdentityProver()
    if kind == "classical_table":
        return make_classical_prover(_table_from_description(desc))
    if kind == "dense":
        dim = len(desc["comm_alphabet"]) * len(desc["tape_alphabet"]) ** desc["c"]
        mats = [np.array([complex(re, im) for re, im in m], dtype=complex).reshape(dim, dim)
                for m in desc["matrices"]]
        for r, m in enumerate(mats, start=1):
            if not check_unitary(m, UNITARY_TOL):
                raise ContractViolation(f"round {r} matrix of the strategy is not unitary")
        return DenseProver(desc["comm_alphabet"], desc["tape_alphabet"], desc["c"], mats)
    raise ValueError(f"unknown strategy description {kind!r}")


def replay(system: QipSystem, x: str, report: AdversaryReport) -> float:
    """Re-run the reported strategy; must reproduce best_p_acc within REPLAY_TOL."""
    prover = prover_from_description(report.best_strategy)
    return run(system, prover, x).p_acc
