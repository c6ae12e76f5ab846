"""Joint evolution of verifier, communication cell and prover tape.

The global state is a sparse amplitude map over labels (inner state, head
position, cell symbol, tag).  One round is: prover action (absent in
round 1 — equivalently, the prover for round i acts right after the i-th
measurement), verifier step, measurement.  Measurement projects onto the
accepting / rejecting / non-halting state classes, accumulates the halting
masses and keeps the unnormalized non-halting part, so the accumulated masses
are exact unconditional probabilities.

`_round` is the only code that moves amplitudes through delta and splits
off the halting classes, dropping amplitudes below PRUNE_TOL on the way in
and out; every caller goes through it: runs, interaction counting, the query
weight, the classical prover search and the npfa choice script.  The tag
rides along unchanged: the prover tape in runs, the prover memory in the
classical search, ``None`` where no prover takes part.

Measure-once systems skip the intermediate measurements; a single measurement
follows verifier step n+2.

`DenseRun` evaluates dense provers on one input in operator form, for the
quantum prover search; `run` stays the oracle it is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import qfa
from .linalg import PRUNE_TOL, prune
from .provers import DenseProver, ProverStrategy, dense_basis
from .qfa import BLANK, AlphabetError, HeadModel, QfaSpec, symbol_at

CONSERVATION_TOL = 1e-9
NO_MASS_TOL = 1e-9  # continuation mass below this counts as none left
TWO_WAY_ROUND_FACTOR = 20  # default t_max for 2-way runs is 20*(n+2)^2


class RunError(RuntimeError):
    """Structural violation during a run (e.g. a one-way verifier not halting)."""


@dataclass(frozen=True)
class QipSystem:
    """A verifier bundled with its honest prover and its claims."""

    name: str
    verifier: QfaSpec
    honest_prover: ProverStrategy
    language: object  # callable str -> bool
    claimed_bounds: tuple[float, float]
    public: bool = False
    measure_once: bool = False
    interaction_bounded: bool = False

    def member(self, x: str) -> bool:
        return bool(self.language(x))


@dataclass
class RunResult:
    p_acc: float
    p_rej: float
    p_cont: float
    halting_profile: list[tuple[int, float, float]]
    rounds_executed: int
    truncated: bool
    cont_trace: list[float] = field(default_factory=list)
    max_conservation_error: float = 0.0


def default_t_max(spec: QfaSpec, x: str) -> int:
    n = len(x)
    if spec.head_model.one_way:
        return n + 2
    return TWO_WAY_ROUND_FACTOR * (n + 2) ** 2


def _round(spec: QfaSpec, tape, state: dict, width: int,
           measure: bool = True) -> tuple[float, float, dict, float]:
    """One verifier move on labels (q, k, gamma, tag), then the measurement.

    ``tape[k]`` is the symbol under head k.  Returns the accepting and
    rejecting masses, the continuing part and its mass; without ``measure``
    every label continues."""
    out: dict = {}
    delta = spec.delta
    for (q, k, g, y), amp in state.items():
        if abs(amp) < PRUNE_TOL:
            continue
        key = (q, tape[k], g)
        targets = delta.get(key)
        if targets is None:
            if g not in spec.comm_alphabet:
                raise AlphabetError(
                    f"prover wrote {g!r}, outside the communication alphabet")
            raise RunError(f"no transition for {key}; run validate_and_complete first")
        for (q2, g2, d, a) in targets:
            lbl = (q2, (k + d) % width, g2, y)
            v = out.get(lbl)
            out[lbl] = amp * a if v is None else v + amp * a
    halting = spec._halting if measure else ()
    accepting = spec._accepting_set
    acc = rej = mass = 0.0
    cont: dict = {}
    for lbl, amp in out.items():
        p = abs(amp)
        if p < PRUNE_TOL:
            continue
        p = p ** 2
        if lbl[0] not in halting:
            cont[lbl] = amp
            mass += p
        elif lbl[0] in accepting:
            acc += p
        else:
            rej += p
    return acc, rej, cont, mass


def _apply_prover(prover: ProverStrategy, x: str, i: int, state: dict) -> dict:
    out: dict = {}
    for (q, k, g, y), amp in state.items():
        for (g2, y2, a) in prover.apply(x, i, g, y):
            lbl = (q, k, g2, y2)
            v = out.get(lbl)
            out[lbl] = amp * a if v is None else v + amp * a
    return out


def run(system: QipSystem, prover: ProverStrategy, x: str,
        t_max: int | None = None) -> RunResult:
    """Execute the protocol on input x and account for all probability mass."""
    return _run(system.verifier, prover, x, t_max,
                measure_once=system.measure_once)


def _run_length(spec: QfaSpec, x: str, t_max, measure_once) -> int:
    """The checked input's round limit: ``t_max``, its default, capped at n+2
    for one-way heads."""
    spec.check_input(x)
    if t_max is None:
        t_max = default_t_max(spec, x)
    if spec.head_model.one_way:
        t_max = min(t_max, len(x) + 2)
    if measure_once and spec.head_model is not HeadModel.MO_1WAY:
        raise RunError("measure-once runs need a measure-once 1-way verifier")
    return t_max


def _check_end(spec: QfaSpec, n: int, rounds: int, p_cont: float, max_err: float) -> None:
    """Refuse a run that leaves one-way mass running or loses probability."""
    if (spec.head_model is HeadModel.ONE_WAY and rounds >= n + 2
            and p_cont > NO_MASS_TOL):
        raise RunError(
            f"one-way verifier keeps continuation mass {p_cont:.3g} after n+2 steps")
    if max_err > CONSERVATION_TOL * max(1, rounds):
        raise RunError(f"probability conservation violated by {max_err:.3g}")


def _run(spec: QfaSpec, prover: ProverStrategy, x: str, t_max, measure_once):
    t_max = _run_length(spec, x, t_max, measure_once)
    n = len(x)
    width = n + 2
    tape = [symbol_at(x, k) for k in range(width)]

    state = {(spec.initial, 0, BLANK, prover.initial_tape(x)): 1.0 + 0j}
    p_acc = p_rej = 0.0
    cont = 1.0
    profile: list[tuple[int, float, float]] = []
    cont_trace: list[float] = []
    max_err = 0.0
    rounds = 0
    for r in range(1, t_max + 1):
        rounds = r
        acc, rej, state, cont = _round(spec, tape, state, width,
                                       not measure_once or r == n + 2)
        p_acc += acc
        p_rej += rej
        if acc > 0 or rej > 0:
            profile.append((r, acc, rej))
        cont_trace.append(cont)
        max_err = max(max_err, abs(p_acc + p_rej + cont - 1.0))
        if cont < PRUNE_TOL:
            cont = 0.0
            break
        if r < t_max:
            state = _apply_prover(prover, x, r, state)

    truncated = (not spec.head_model.one_way) and cont >= PRUNE_TOL
    _check_end(spec, n, rounds, cont, max_err)
    return RunResult(p_acc=p_acc, p_rej=p_rej, p_cont=cont,
                     halting_profile=profile, rounds_executed=rounds,
                     truncated=truncated, cont_trace=cont_trace,
                     max_conservation_error=max_err)


# ---------------------------------------------------------------------------
# Dense provers in operator form
# ---------------------------------------------------------------------------

def _mass(a: np.ndarray) -> float:
    return float(np.vdot(a, a).real)


@dataclass(frozen=True)
class DensePass:
    """One `DenseRun` pass: the prover, `run`'s masses, and the saved forward pass.

    ``saved[i-1]`` is (state, p_acc, p_rej, max_err) just before prover round
    i, for every round i that acted and has a matrix.
    """

    prover: DenseProver = field(repr=False)
    p_acc: float
    p_rej: float
    p_cont: float
    rounds_executed: int
    saved: tuple = field(repr=False)


class DenseRun:
    """`run` of `DenseProver`s with ``c`` tape cells on one input, in operator form.

    Set-up restricts ``build_step_operator(spec, x, sparse=True)`` to the
    (state, head) pairs a prover can reach: the closure of the operator's pair
    graph from the initial pair, with the prover writing any cell symbol.
    Halting pairs are measured off at once, so their moves do not count;
    measure-once systems keep them until round n+2.  The continuing, then
    accepting, then rejecting rows go into one CSR matrix, so a round is one
    sparse product.  The state is an array of shape (pairs·|Gamma|, |Delta|^c);
    prover round i reshapes it to (pairs, |Gamma|·|Delta|^c) and multiplies it
    on the right by the transpose of ``matrices[i-1]``, whose basis is
    ``DenseProver.labels``.  The round loop, the stop when the continuing
    mass falls below PRUNE_TOL and the end checks are `_run`'s.  No amplitude
    is pruned and a transition missing from delta shows up only as lost mass,
    so the masses agree with `run`'s up to rounding.
    """

    def __init__(self, system: QipSystem, x: str, c: int):
        spec = self.spec = system.verifier
        self.measure_once = system.measure_once
        self.t_max = _run_length(spec, x, None, self.measure_once)
        self.n = n = len(x)
        self.c = c
        width, gsz = n + 2, len(spec.comm_alphabet)
        self.words = len(spec.prover_alphabet) ** c
        # through the module, where perfbench's traced run wraps it
        step = qfa.build_step_operator(spec, x, sparse=True).tocoo()
        # pair p = q·width + k is continuing (0), accepting (1) or rejecting (2)
        kind = np.repeat([0] * len(spec.non_halting) + [1] * len(spec.accepting)
                         + [2] * len(spec.rejecting), width)
        src, dst = step.col // gsz, step.row // gsz
        if not self.measure_once:
            moves = kind[src] == 0
            src, dst = src[moves], dst[moves]
        start = spec.states.index(spec.initial) * width
        reach = np.zeros(len(kind), dtype=bool)
        reach[start] = True
        while True:  # one more move per pass until nothing new is reached
            grown = reach.copy()
            grown[dst[reach[src]]] = True
            if (grown == reach).all():
                break
            reach = grown
        pairs = np.flatnonzero(reach)
        pairs = pairs[np.argsort(kind[pairs], kind="stable")]
        n_cont, n_acc = np.bincount(kind[pairs], minlength=3)[:2] * gsz
        rows = (pairs[:, None] * gsz + np.arange(gsz)).ravel()
        cols = rows if self.measure_once else rows[:n_cont]
        self.step = step.tocsr()[rows][:, cols]
        self.n_cont, self.acc_end = n_cont, n_cont + n_acc
        self.initial = np.zeros((len(cols), self.words), dtype=complex)
        j = dense_basis(spec.comm_alphabet, spec.prover_alphabet, c).index(
            (BLANK, (BLANK,) * c))
        row = np.flatnonzero(pairs == start)[0] * gsz + j // self.words
        self.initial[row, j % self.words] = 1.0

    def run(self, prover: DenseProver) -> DensePass:
        """The full pass of ``prover``."""
        spec = self.spec
        if (prover.comm_alphabet, prover.tape_alphabet, prover.c) != (
                spec.comm_alphabet, spec.prover_alphabet, self.c):
            raise ValueError("the dense prover's alphabets or tape cells do not "
                             "match this run")
        return self._forward(prover, 1, self.initial, 0.0, 0.0, 0.0, [])

    def resume(self, base: DensePass, i0: int, m: np.ndarray) -> DensePass:
        """The pass of ``base.prover.with_round(i0, m)``.

        The pass restarts from the state saved before prover round i0+1, so
        its floats are those of a full pass.  When that round never acted,
        the masses are ``base``'s.
        """
        prover = base.prover.with_round(i0, m)
        if i0 >= len(base.saved):
            return replace(base, prover=prover)
        state, p_acc, p_rej, max_err = base.saved[i0]
        return self._forward(prover, i0 + 2, self._prover_step(state, m),
                             p_acc, p_rej, max_err, list(base.saved[:i0 + 1]))

    def _prover_step(self, state: np.ndarray, m: np.ndarray) -> np.ndarray:
        return (state.reshape(-1, m.shape[0]) @ m.T).reshape(-1, self.words)

    def _forward(self, prover, r0, state, p_acc, p_rej, max_err, saved) -> DensePass:
        """Rounds r0.. of a pass; ``state`` is the array before verifier move r0."""
        matrices = prover.matrices
        n_cont, acc_end = self.n_cont, self.acc_end
        rounds = r0 - 1
        for r in range(r0, self.t_max + 1):
            rounds = r
            state = self.step @ state
            if not self.measure_once or r == self.n + 2:
                # in a measure-once run this is the last round
                p_acc += _mass(state[n_cont:acc_end])
                p_rej += _mass(state[acc_end:])
                state = state[:n_cont]
            cont = _mass(state)
            max_err = max(max_err, abs(p_acc + p_rej + cont - 1.0))
            if cont < PRUNE_TOL:
                state = state[:0]
                break
            if r < self.t_max and r <= len(matrices):
                saved.append((state, p_acc, p_rej, max_err))
                state = self._prover_step(state, matrices[r - 1])
        p_cont = _mass(state)
        _check_end(self.spec, self.n, rounds, p_cont, max_err)
        return DensePass(prover=prover, p_acc=p_acc, p_rej=p_rej, p_cont=p_cont,
                         rounds_executed=rounds, saved=tuple(saved))


def expected_halting_time(system: QipSystem, prover: ProverStrategy, x: str,
                          t_max: int | None = None) -> tuple[float, bool]:
    """Lower estimate of the mean halting round, and whether it is exact.

    Truncated mass contributes t_max rounds to the lower value; the estimate
    is exact (upper bound known) when essentially no mass was left running.
    """
    res = run(system, prover, x, t_max)
    lower = sum(r * (a + b) for (r, a, b) in res.halting_profile)
    lower += res.rounds_executed * res.p_cont
    return lower, res.p_cont < NO_MASS_TOL


def visible_schedule(system: QipSystem, x: str,
                     t_max: int | None = None) -> list[tuple[str, str]]:
    """Per-round (cell seen, cell written) pairs of the honest run.

    Only defined when the honest prover's visible configuration is
    deterministic (a single cell symbol per round), which holds for every
    built-in honest protocol; raises otherwise.  The result is what
    densify_schedule needs to build a space-bounded twin of the prover.
    """
    prover = system.honest_prover
    log: dict[int, set] = {}

    class Recorder(ProverStrategy):
        def initial_tape(self, xx):
            return prover.initial_tape(xx)

        def apply(self, xx, i, gamma, y):
            out = prover.apply(xx, i, gamma, y)
            written = tuple(sorted({g2 for (g2, _y2, _a) in out}))
            log.setdefault(i, set()).add((gamma, written))
            return out

    res = run(system, Recorder(), x, t_max)
    schedule = []
    for i in range(1, res.rounds_executed + 1):
        entries = log.get(i)
        if entries is None:
            break
        if len(entries) != 1:
            raise RunError(f"round {i} shows {len(entries)} distinct cell views")
        (gamma, written), = entries
        if len(written) != 1:
            raise RunError(f"round {i} writes a superposition {written}")
        schedule.append((gamma, written[0]))
    return schedule


# ---------------------------------------------------------------------------
# Interaction counting
# ---------------------------------------------------------------------------

def _step_paths(step, state: dict, counts: dict) -> tuple[dict, dict]:
    """``step`` applied label by label, carrying per-path query counts.

    Each label goes through ``step`` with unit amplitude.  A child's amplitude
    is the amplitude-weighted sum of these over its parents, so it equals
    ``step(state)``, pruned per parent and summed; its count is the maximum
    over the parents that reach it.
    """
    amps: dict = {}
    inherited: dict = {}
    for lbl, amp in state.items():
        c = counts[lbl]
        for child, a in prune(step({lbl: 1.0 + 0j})).items():
            v = amps.get(child)
            amps[child] = amp * a if v is None else v + amp * a
            if c > inherited.get(child, -1):
                inherited[child] = c
    amps = prune(amps)
    return amps, {lbl: inherited[lbl] for lbl in amps}


def count_interactions(system: QipSystem, prover: ProverStrategy, x: str,
                       t_max: int | None = None) -> int:
    """Maximum number of query configurations along any computation path.

    A query configuration is a non-halting configuration holding a non-blank
    cell symbol right after a verifier move.  Paths are chains through the
    parent->child links of the sparse evolution; when paths merge, the query
    count merges by maximum (the conservative reading of a per-path count).
    Requires an interaction-bounded system and a committed prover.
    """
    from .provers import check_committed

    if not system.interaction_bounded:
        raise RunError(f"system {system.name} is not interaction-bounded")
    spec = system.verifier
    t_max = _run_length(spec, x, t_max, measure_once=False)
    width = len(x) + 2
    tape = [symbol_at(x, k) for k in range(width)]
    if not check_committed(prover, x, t_max, comm_alphabet=spec.comm_alphabet):
        raise RunError("count_interactions requires a committed prover")

    state = {(spec.initial, 0, BLANK, prover.initial_tape(x)): 1.0 + 0j}
    counts = {next(iter(state)): 0}
    best = 0
    for r in range(1, t_max + 1):
        # halting children, measured off per label, inherit counts already in best
        state, inherited = _step_paths(
            lambda s: _round(spec, tape, s, width)[2], state, counts)
        # a non-halting child holding a non-blank symbol is a query
        counts = {lbl: inherited[lbl] + (lbl[2] != BLANK) for lbl in state}
        best = max([best, *counts.values()])
        if not state:
            break
        state, counts = _step_paths(
            lambda s: _apply_prover(prover, x, r, s), state, counts)
    return best


# ---------------------------------------------------------------------------
# Modified computation and query weight
# ---------------------------------------------------------------------------

def query_weight(spec: QfaSpec, x_prefix: str, y: str) -> float:
    """Query weight of the modified computation over the y-segment.

    The modified computation replaces the prover by a projection: after every
    measurement the communication cell is projected onto blank and the
    non-blank remainder is discarded.  The returned weight is the discarded
    squared mass at the rounds whose scanned position lies inside y.  By
    construction wt(x) + wt^(x)(y) = wt(xy).
    """
    if not spec.head_model.one_way:
        raise RunError("query weight is defined for one-way verifiers only")
    word = x_prefix + y
    spec.check_input(word)
    n = len(word)
    width = n + 2
    tape = [symbol_at(word, k) for k in range(width)]
    lo, hi = len(x_prefix) + 1, len(x_prefix) + len(y)  # positions holding y
    state = {(spec.initial, 0, BLANK, None): 1.0 + 0j}
    weight = 0.0
    for r in range(1, n + 2):
        pos = r - 1  # a one-way head scans position r-1 at round r
        _acc, _rej, cont, _mass = _round(spec, tape, state, width)
        state = {}  # the projection onto blank discards the rest of cont
        for lbl, amp in cont.items():
            if lbl[2] == BLANK:
                state[lbl] = amp
            elif lo <= pos <= hi:
                weight += abs(amp) ** 2
        if not state:
            break
    return weight
