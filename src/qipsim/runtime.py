"""Joint evolution of verifier, communication cell and prover tape.

The global state is a sparse amplitude map over labels (inner state, head
position, cell symbol, tag).  One round is: prover action (absent in
round 1 — equivalently, the prover for round i acts right after the i-th
measurement), verifier step, measurement.  A round the prover calls idle
(`ProverStrategy.idle`) skips the prover action: it would rebuild the state
label by label with amplitude 1, changing at most the sign of a zero
component.  Measurement projects onto the accepting / rejecting / non-halting
state classes, accumulates the halting masses and keeps the unnormalized
non-halting part, so the accumulated masses are exact unconditional
probabilities.

`_round` moves amplitudes through delta and then calls `_measure`, the only
code that splits off the halting classes; `_round` drops amplitudes below
PRUNE_TOL on the way in and `_measure` on the way out.  Runs, interaction counting, the query
weight, the classical prover search and the npfa choice script go through
`_round`; the classical search's node evaluation reads delta's rows from a
move table of its own and measures with `_measure`.  The tag rides along
unchanged: the prover tape in runs, the prover memory in the classical
search, ``None`` where no prover takes part.

The verifier's head model decides the measurement, by one rule in
`_measure`: after every move for a measure-many verifier; once, after move
n+2, for a measure-once one, which as in a measure-once automaton (Moore &
Crutchfield, Theoret. Comput. Sci. 237, 2000) rejects all it does not accept.

`pair_layers` cuts one input's (state, head) pair graph into rounds: the
pairs the verifier can occupy before each move, whatever the prover writes,
and the horizon past which no run goes, or None when the graph has a cycle.
`DenseRun` evaluates dense provers on one input in operator form on those
layers, one small dense block per round, for the quantum prover search;
`run` stays the oracle it is tested against.
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


def _round(spec: QfaSpec, tape, state: dict, width: int, r: int = 0,
           once: int | None = None) -> tuple[float, float, dict, float]:
    """Verifier move r on labels (q, k, gamma, tag), then `_measure`.

    ``tape[k]`` is the symbol under head k.  Returns the accepting and
    rejecting masses, the continuing part and its mass; ``once`` is
    `_measure`'s."""
    out: dict = {}
    delta = spec.delta
    for (q, k, g, y), amp in state.items():
        if abs(amp) < PRUNE_TOL:
            continue
        key = (q, tape[k], g)
        targets = delta.get(key)
        if targets is None:
            raise _no_transition(spec, key)
        for (q2, g2, d, a) in targets:
            lbl = (q2, (k + d) % width, g2, y)
            v = out.get(lbl)
            out[lbl] = amp * a if v is None else v + amp * a
    return _measure(spec, out, r, once)


def _no_transition(spec: QfaSpec, key) -> Exception:
    """The error for a label whose delta row ``key`` = (q, tape symbol, gamma)
    is missing."""
    if key[2] not in spec.comm_alphabet:
        return AlphabetError(f"prover wrote {key[2]!r}, outside the communication alphabet")
    return RunError(f"no transition for {key}; run validate_and_complete first")


def _measure(spec: QfaSpec, out: dict, r: int = 0,
             once: int | None = None) -> tuple[float, float, dict, float]:
    """The measurement after verifier move r: ``out``'s accepting and rejecting
    masses, its continuing part and that part's mass, dropping amplitudes below
    PRUNE_TOL.  A measure-many verifier (``once`` None) measures off its
    halting states; a measure-once one measures nothing before move ``once`` =
    n+2 (`_run_length`) and there rejects all it does not accept."""
    halting = spec._halting if once is None or r >= once else ()
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
    if once is None or r < once:
        return acc, rej, cont, mass
    return acc, rej + mass, {}, 0.0


def _apply_prover(prover: ProverStrategy, x: str, i: int, state: dict) -> dict:
    """Prover round i on ``state``; an idle round returns ``state`` itself."""
    if prover.idle(x, i):
        return state
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
    return _run(system.verifier, prover, x, t_max)


def _run_length(spec: QfaSpec, x: str, t_max) -> tuple[int, int | None]:
    """The checked input's round limit, ``t_max`` or its default, capped at
    n+2 for one-way heads; and `_measure`'s ``once``: n+2 for a measure-once
    verifier, None for a measure-many one."""
    spec.check_input(x)
    if t_max is None:
        t_max = default_t_max(spec, x)
    if spec.head_model.one_way:
        t_max = min(t_max, len(x) + 2)
    return t_max, len(x) + 2 if spec.head_model is HeadModel.MO_1WAY else None


def _check_end(spec: QfaSpec, n: int, rounds: int, p_cont: float, max_err: float) -> None:
    """Refuse a run that leaves one-way mass running or loses probability."""
    if (spec.head_model is HeadModel.ONE_WAY and rounds >= n + 2
            and p_cont > NO_MASS_TOL):
        raise RunError(
            f"one-way verifier keeps continuation mass {p_cont:.3g} after n+2 steps")
    if max_err > CONSERVATION_TOL * max(1, rounds):
        raise RunError(f"probability conservation violated by {max_err:.3g}")


def _run(spec: QfaSpec, prover: ProverStrategy, x: str, t_max):
    t_max, once = _run_length(spec, x, t_max)
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
        acc, rej, state, cont = _round(spec, tape, state, width, r, once)
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


@dataclass(frozen=True, eq=False)
class PairLayers:
    """One input's (state, head) pair graph, cut into the rounds of a run.

    Pair p = q·width + k, with q indexing ``spec.states``.  ``layers[i]``
    holds, sorted, the pairs the verifier can occupy before move i+1, with the
    prover writing any cell symbol.  ``targets[i]`` splits the pairs that move
    reaches into continuing, accepting and rejecting ones by `_measure`'s rule,
    which the head model picks; the continuing ones are the next layer.  A
    one-way head's last move is n+2, so its layers stop there.

    ``blocks[i]`` is move i+1 as a dense matrix from the basis (pair, cell
    symbol) of ``layers[i]`` to that of the continuing, then accepting, then
    rejecting targets.  When a layer repeats an earlier one, ``loop`` is that
    one's index, and the rounds after the last layer cycle through
    ``layers[loop:]``.  ``horizon`` is 1 + the number of layers when the graph
    has no cycle, so every run ends before round ``horizon``, and None when
    it has one.
    """

    layers: tuple
    targets: tuple
    blocks: tuple = field(repr=False)
    loop: int | None
    horizon: int | None

    def index(self, r: int) -> int | None:
        """The index of round r's layer; None past the last one."""
        i = r - 1
        if i < len(self.layers):
            return i
        if self.loop is not None:
            return self.loop + (i - self.loop) % (len(self.layers) - self.loop)
        if self.horizon is None:  # a cycle that no layer repeated within the limit
            raise IndexError(f"round {r} is past the {len(self.layers)} rounds kept")
        return None

    def layer(self, r: int) -> np.ndarray:
        """The pairs the verifier can occupy before move r."""
        i = self.index(r)
        return self.layers[i] if i is not None else self.layers[0][:0]


def pair_layers(system: QipSystem, x: str) -> PairLayers:
    """The layers of ``x``'s pair graph, from its step operator.

    A two-way graph is followed until a layer is empty or repeats an earlier
    one.  A path through more layers than there are pairs has a cycle, so the
    walk also stops there once it covers the run's round limit.
    """
    spec = system.verifier
    t_max, once = _run_length(spec, x, None)
    gsz = len(spec.comm_alphabet)
    width = len(x) + 2
    # through the module, where perfbench's traced run wraps it; a CSC matrix
    # lists each basis column's entries together, so a pair's are contiguous
    step = qfa.build_step_operator(spec, x, sparse=True)
    ptr = step.indptr[::gsz].tolist()  # pair p's entries are ptr[p]:ptr[p+1]
    to_pair, to_cell = np.divmod(step.indices, gsz)
    from_pair, from_cell = np.divmod(
        np.repeat(np.arange(step.shape[1]), np.diff(step.indptr)), gsz)
    # states are listed continuing, accepting, rejecting, so pairs p = q·width + k
    # are too, and these are the first accepting and the first rejecting pair
    bounds = np.cumsum([len(spec.non_halting), len(spec.accepting)]) * width
    n_pairs = len(spec.states) * width
    one_way = spec.head_model.one_way
    cap = t_max if one_way else max(t_max, n_pairs)
    count = np.arange(max(n_pairs, step.nnz))
    # a pair's position among the last round's targets; the continuing ones
    # come first, so for this round's pairs it is their position in the layer
    at = np.zeros(n_pairs, dtype=np.intp)
    hit = np.zeros(n_pairs, dtype=bool)
    here = np.array([spec.states.index(spec.initial) * width], dtype=np.intp)
    layers, targets, entries, seen = [], [], [], {}
    loop = horizon = None
    for r in range(1, cap + 1):
        seen[here.tobytes()] = r - 1
        layers.append(here)
        spans = [count[ptr[p]:ptr[p + 1]] for p in here.tolist()]
        moves = spans[0] if len(spans) == 1 else np.concatenate(spans)
        dst = to_pair[moves]
        hit[dst] = True
        reached = np.flatnonzero(hit)
        hit[reached] = False
        a, b = ((len(reached),) * 2 if once is not None and r < once
                else reached.searchsorted(bounds).tolist())
        split = (reached[:a], reached[a:b], reached[b:])
        if r == once:  # the one measurement rejects what it does not accept
            split = (reached[:0], split[1], np.concatenate((split[0], split[2])))
            reached = np.concatenate(split)
        targets.append(split)
        source = at[from_pair[moves]]
        at[reached] = count[:len(reached)]
        # each of the round's entries: its step-operator index, target and
        # source position, and the block's shape in pairs
        entries.append((moves, at[dst], source, len(reached), len(here)))
        here = split[0]
        if not len(here) or (one_way and r == cap):
            horizon = r + 1
            break
        loop = seen.get(here.tobytes())
        if loop is not None:
            break
    return PairLayers(layers=tuple(layers), targets=tuple(targets),
                      blocks=_scatter_blocks(step, gsz, to_cell, from_cell, entries),
                      loop=loop, horizon=horizon)


def _scatter_blocks(step, gsz, to_cell, from_cell, entries) -> tuple:
    """Each round's block, scattered from ``step`` into one buffer at once.

    ``entries[i]`` lists round i's step-operator entries with their target
    and source positions, and the numbers of targets and sources.  An entry
    goes to row target·|Gamma| + its cell symbol and column source·|Gamma| +
    its cell symbol of block i, a C-contiguous slice of the buffer.
    """
    moves, target, source, n_targets, n_sources = zip(*entries)
    shapes = [(m * gsz, n * gsz) for m, n in zip(n_targets, n_sources)]
    ends = np.cumsum([m * n for m, n in shapes]).tolist()
    per_round = [len(mv) for mv in moves]
    moves = np.concatenate(moves)
    n_cols = np.repeat([n for _m, n in shapes], per_round)
    flat = (np.repeat([0] + ends[:-1], per_round)
            + (np.concatenate(target) * gsz + to_cell[moves]) * n_cols
            + np.concatenate(source) * gsz + from_cell[moves])
    buffer = np.zeros(ends[-1], dtype=complex)
    buffer[flat] = step.data[moves]
    return tuple(buffer[end - m * n:end].reshape(m, n)
                 for end, (m, n) in zip(ends, shapes))


@dataclass(frozen=True)
class DensePass:
    """One `DenseRun` pass: the prover, `run`'s masses, and the saved forward pass.

    ``saved[i-1]`` is (state, p_acc, p_rej, max_err, moved) for every round i
    that acted and has a matrix: the state just before prover round i, the
    masses so far, and the state after that prover round.
    """

    prover: DenseProver = field(repr=False)
    p_acc: float
    p_rej: float
    p_cont: float
    rounds_executed: int
    saved: tuple = field(repr=False)


class DenseRun:
    """`run` of `DenseProver`s with ``c`` tape cells on one input, in operator form.

    Set-up takes the input's `pair_layers`; round r is one product of its
    layer's small dense block with the state, whose rows are the (pair, cell
    symbol) basis of the layer and whose columns are the |Delta|^c tape
    words.  The block's accepting and rejecting rows are measured off, and
    the continuing ones are the next layer's.  Prover round i reshapes the
    state to (pairs, |Gamma|·|Delta|^c) and multiplies it on the right by the
    transpose of ``matrices[i-1]``, whose basis is ``DenseProver.labels``.
    The layers carry `_measure`'s rule, and the round loop, the stop when
    the continuing mass falls below PRUNE_TOL and the end checks are
    `_run`'s.  No amplitude is pruned and a transition
    missing from delta shows up only as lost mass, so the masses agree with
    `run`'s up to rounding.
    """

    def __init__(self, system: QipSystem, x: str, c: int):
        spec = self.spec = system.verifier
        self.t_max = _run_length(spec, x, None)[0]
        self.n = len(x)
        self.c = c
        gsz = len(spec.comm_alphabet)
        self.words = len(spec.prover_alphabet) ** c
        layers = pair_layers(system, x)
        per_layer = [(block, len(cont) * gsz, (len(cont) + len(acc)) * gsz)
                     for block, (cont, acc, _rej) in zip(layers.blocks, layers.targets)]
        # (block, continuing rows, continuing and accepting rows) per round;
        # an acyclic run stops at its last layer, whose block has no continuing rows
        self.moves = []
        for r in range(1, self.t_max + 1):
            i = layers.index(r)
            if i is None:
                break
            self.moves.append(per_layer[i])
        # layer 1 is the initial pair alone
        self.initial = np.zeros((gsz, self.words), dtype=complex)
        j = dense_basis(spec.comm_alphabet, spec.prover_alphabet, c).index(
            (BLANK, (BLANK,) * c))
        self.initial[j // self.words, j % self.words] = 1.0

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
        or ``m`` leaves the state after it bit for bit as it was (rows that
        ``m`` changes meet no column the state occupies), the rest of the
        pass would repeat ``base``'s float operations on equal inputs: the
        masses and saved states are ``base``'s, and no verifier round runs.
        """
        prover = base.prover.with_round(i0, m)
        if i0 >= len(base.saved):
            return replace(base, prover=prover)
        state, p_acc, p_rej, max_err, was = base.saved[i0]
        moved = self._prover_step(state, m)
        if np.array_equal(moved, was):
            return replace(base, prover=prover)
        return self._forward(prover, i0 + 2, moved, p_acc, p_rej, max_err,
                             [*base.saved[:i0], (state, p_acc, p_rej, max_err, moved)])

    def _prover_step(self, state: np.ndarray, m: np.ndarray) -> np.ndarray:
        return (state.reshape(-1, m.shape[0]) @ m.T).reshape(-1, self.words)

    def _forward(self, prover, r0, state, p_acc, p_rej, max_err, saved) -> DensePass:
        """Rounds r0.. of a pass; ``state`` is the array before verifier move r0."""
        matrices = prover.matrices
        rounds = r0 - 1
        for r in range(r0, self.t_max + 1):
            rounds = r
            block, n_cont, acc_end = self.moves[r - 1]
            state = block @ state
            if acc_end > n_cont:
                p_acc += _mass(state[n_cont:acc_end])
            if len(state) > acc_end:
                p_rej += _mass(state[acc_end:])
            state = state[:n_cont]
            cont = _mass(state)
            max_err = max(max_err, abs(p_acc + p_rej + cont - 1.0))
            if cont < PRUNE_TOL:
                state = state[:0]
                break
            if r < self.t_max and r <= len(matrices):
                moved = self._prover_step(state, matrices[r - 1])
                saved.append((state, p_acc, p_rej, max_err, moved))
                state = moved
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

    A query configuration is one that the measurement after a verifier move
    leaves running and that holds a non-blank cell symbol.  Paths are chains
    through the parent->child links of the sparse evolution; when paths
    merge, the query count merges by maximum (the conservative reading of a
    per-path count).  Requires an interaction-bounded system and a committed
    prover.
    """
    from .provers import check_committed

    if not system.interaction_bounded:
        raise RunError(f"system {system.name} is not interaction-bounded")
    spec = system.verifier
    t_max, once = _run_length(spec, x, t_max)
    width = len(x) + 2
    tape = [symbol_at(x, k) for k in range(width)]
    if not check_committed(prover, x, t_max, comm_alphabet=spec.comm_alphabet):
        raise RunError("count_interactions requires a committed prover")

    state = {(spec.initial, 0, BLANK, prover.initial_tape(x)): 1.0 + 0j}
    counts = {next(iter(state)): 0}
    best = 0
    for r in range(1, t_max + 1):
        # children measured off per label inherit counts already in best
        state, inherited = _step_paths(
            lambda s: _round(spec, tape, s, width, r, once)[2], state, counts)
        # a child left running that holds a non-blank symbol is a query
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
