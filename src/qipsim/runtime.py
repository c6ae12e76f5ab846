"""Joint evolution of verifier, communication cell and prover tape.

The global state is a sparse amplitude map over labels (inner state, head
position, cell symbol, tag).  One round is: prover action (absent in
round 1 — equivalently, the prover for round i acts right after the i-th
measurement), verifier step, measurement.  A round the prover calls idle
(`ProverStrategy.idle`) has no prover action, and its callers skip it: it
would rebuild the state label by label with amplitude 1, changing at most
the sign of a zero component.  Measurement projects onto the accepting /
rejecting / non-halting state classes, accumulates the halting masses and
keeps the unnormalized non-halting part, so the accumulated masses are
exact unconditional probabilities.

A `Course` is one checked input's course through a verifier, and the one
place that decides its tape, its round limit and its measurement schedule.
The verifier's head model picks the schedule: a measure-many verifier
measures after every move; a measure-once one only after move n+2, where,
as in a measure-once automaton (Moore & Crutchfield, Theoret. Comput. Sci.
237, 2000), it rejects all it does not accept.  `Course.step` moves
amplitudes through delta and then calls `Course.measure`, the only code that
splits off the halting classes.  Amplitudes below PRUNE_TOL are dropped
where they are made: `measure` drops them from the moved state, and the
prover round (`_apply_prover`) from its output.  So `step` takes a pruned
state and checks no amplitude on the way in.  When no label halts and none
is dropped, the continuing part that `measure` returns is the moved dict
itself, not a copy.  Runs, interaction counting, the query weight, the
classical prover search and the npfa choice script each build one `Course`
and go through `step`.  `run` goes through `Course.permute` instead on a
*settled* state, one that the last verifier round left running with no
prover round acting since, before a measure-once verifier's one
measurement: when every label's delta row sends it, with amplitude exactly
1 or -1, to a single continuing label and no two labels meet, the moved dict
is the state `step` would return, its measurement would observe nothing, and
the continuing mass it would sum is the one the state came with, to the bit.
The classical search's node evaluation reads delta's
rows from a move table of its own, which holds only the contributions to
accepting and continuing labels, and measures with `measure`.  Its rejecting
mass is therefore not formed, and no other float changes: a rejecting label
feeds only that mass, and leaving it out keeps the others' order.  The tag
rides along unchanged: the prover tape in runs, the prover memory in the
classical search, ``None`` where no prover takes part.

`pair_layers` cuts one input's (state, head) pair graph into rounds: the
pairs the verifier can occupy before each move, whatever the prover writes,
and the horizon past which no run goes, or None when the graph has a cycle.
`DenseRun` evaluates dense provers on one input in operator form on those
layers, one small dense block per round, for the quantum prover search;
`run` stays the oracle it is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qfa
from .linalg import PRUNE_TOL, checked_count, prune
from .provers import ProverStrategy, dense_basis
from .qfa import BLANK, LEFT_END, RIGHT_END, AlphabetError, HeadModel, QfaSpec

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


class Course:
    """One checked input's course through a verifier: its tape, round limit
    and measurement schedule, and the verifier round (`step`, `measure`) on
    labels (q, k, gamma, tag).

    ``tape[k]`` is the symbol under head k of the ``width`` = n+2 cells.
    ``t_max`` is the given round limit, or `default_t_max`, capped at n+2
    for a one-way head; a given one that is not an integer of at least 0
    raises `DomainError`.  ``once`` is n+2 for a measure-once verifier, which
    measures only after that move, and None for a measure-many one, which
    measures after every move.  ``rejecting`` holds the states whose labels
    feed only the rejecting mass: the rejecting states under measure-many,
    none under measure-once, whose rejecting labels run on until its one
    measurement.  ``rows`` is the spec's delta as the plain dict behind its
    read-only view, for the row lookups of every verifier move; no one
    writes to it.

    `permute` is the verifier move without the measurement, on the spec's
    *permuting rows*: those with one target, amplitude exactly 1 or -1 and
    a non-halting state, kept in the spec's cache and fetched on first use.
    It is exact in place of `step` only on a settled state, the continuing
    part that the last verifier round left with no prover round acting
    since, and only before move ``once``: then nothing halts or is pruned
    and the continuing mass is unchanged.  `run` keeps that rule.
    """

    __slots__ = ("spec", "tape", "width", "t_max", "once", "rejecting",
                 "rows", "_halting", "_accepting", "_permuting")

    def __init__(self, spec: QfaSpec, x: str, t_max: int | None = None):
        spec.check_input(x)
        n = len(x)
        if t_max is None:
            t_max = default_t_max(spec, x)
        else:
            t_max = checked_count("t_max", t_max, 0)
        if spec.head_model.one_way:
            t_max = min(t_max, n + 2)
        self.spec = spec
        self.width = n + 2
        self.tape = [LEFT_END, *x, RIGHT_END]
        self.t_max = t_max
        self.once = n + 2 if spec.head_model is HeadModel.MO_1WAY else None
        self.rejecting = spec._rejecting_set if self.once is None else frozenset()
        # the spec's delta dict, read by every verifier move, and its state
        # classes, read by every measurement
        self.rows = spec._rows
        self._halting, self._accepting = spec._halting, spec._accepting_set
        self._permuting = None  # the spec's permuting rows, fetched on first use

    def step(self, state: dict, r: int) -> tuple[float, float, dict, float]:
        """Verifier move r on ``state``, then `measure`: the accepting and
        rejecting masses, the continuing part and its mass.  ``state`` holds
        no amplitude below PRUNE_TOL, which is not checked here: callers pass
        an initial label of amplitude 1, a measurement's continuing part, a
        prover round (`_apply_prover`, which prunes) or a relabelling of one
        of these."""
        out: dict = {}
        rows, tape, width = self.rows, self.tape, self.width
        for (q, k, g, y), amp in state.items():
            key = (q, tape[k], g)
            try:
                targets = rows[key]
            except KeyError:
                raise self.missing_row(key) from None
            for (q2, g2, d, a) in targets:
                lbl = (q2, (k + d) % width, g2, y)
                v = out.get(lbl)
                out[lbl] = amp * a if v is None else v + amp * a
        return self.measure(out, r)

    def permute(self, state: dict) -> dict | None:
        """The verifier move on ``state`` through permuting rows, unmeasured:
        the moved dict, in ``state``'s order, each amplitude times its row's
        sign, which is the dict `step` would measure, to the bit.  None when
        some label's row is not a permuting row or two labels land on one
        label."""
        moves = self._permuting
        if moves is None:
            moves = self._permuting = self.spec._cached("permuting rows",
                                                        self._permuting_rows)
        tape, width = self.tape, self.width
        out: dict = {}
        try:
            for (q, k, g, y), amp in state.items():
                q2, g2, d, a = moves[q, tape[k], g]
                out[q2, (k + d) % width, g2, y] = amp * a
        except KeyError:
            return None
        return out if len(out) == len(state) else None

    def _permuting_rows(self) -> dict:
        """The spec's permuting rows, each key with its one target."""
        halting = self._halting
        return {key: targets[0] for key, targets in self.rows.items()
                if len(targets) == 1 and targets[0][3] in (1, -1)
                and targets[0][0] not in halting}

    def missing_row(self, key) -> Exception:
        """The error for a label whose delta row ``key`` = (q, tape symbol,
        gamma) is missing."""
        if key[2] not in self.spec.comm_alphabet:
            return AlphabetError(f"prover wrote {key[2]!r}, outside the communication alphabet")
        return RunError(f"no transition for {key}; run validate_and_complete first")

    def measure(self, out: dict, r: int) -> tuple[float, float, dict, float]:
        """The measurement after verifier move r: ``out``'s accepting and
        rejecting masses, its continuing part and that part's mass, dropping
        amplitudes below PRUNE_TOL.  A measure-many verifier measures off its
        halting states; a measure-once one measures nothing before move
        ``once`` and there rejects all it does not accept.

        ``out`` is never changed.  When no label of it halts and none falls
        under PRUNE_TOL, the continuing part is ``out`` itself; otherwise it
        is a new dict of the kept labels, in ``out``'s order."""
        once = self.once
        halting = self._halting if once is None or r >= once else ()
        accepting = self._accepting
        acc = rej = mass = 0.0
        pruned = False
        for lbl, amp in out.items():
            p = abs(amp)
            if p < PRUNE_TOL:
                pruned = True
            elif lbl[0] not in halting:
                mass += p ** 2
            elif lbl[0] in accepting:
                acc += p ** 2
            else:
                rej += p ** 2
        if once is not None and r >= once:
            return acc, rej + mass, {}, 0.0
        # a kept halting label adds at least PRUNE_TOL**2 > 0 to acc or rej
        if pruned or acc or rej:
            out = {lbl: amp for lbl, amp in out.items()
                   if abs(amp) >= PRUNE_TOL and lbl[0] not in halting}
        return acc, rej, out, mass

    def check_end(self, rounds: int, p_cont: float, max_err: float) -> None:
        """Refuse a run that leaves one-way mass running or loses probability."""
        if (self.spec.head_model is HeadModel.ONE_WAY and rounds >= self.width
                and p_cont > NO_MASS_TOL):
            raise RunError(
                f"one-way verifier keeps continuation mass {p_cont:.3g} after n+2 steps")
        if max_err > CONSERVATION_TOL * max(1, rounds):
            raise RunError(f"probability conservation violated by {max_err:.3g}")


def _apply_prover(prover: ProverStrategy, x: str, i: int, state: dict) -> dict:
    """Prover round i on ``state``, as a new dict without the amplitudes
    below PRUNE_TOL, so that it is a state `Course.step` takes.  Callers skip
    a round the prover calls idle: it would return ``state``'s amplitudes."""
    out: dict = {}
    for (q, k, g, y), amp in state.items():
        for (g2, y2, a) in prover.apply(x, i, g, y):
            lbl = (q, k, g2, y2)
            v = out.get(lbl)
            out[lbl] = amp * a if v is None else v + amp * a
    return prune(out)


def run(system: QipSystem, prover: ProverStrategy, x: str,
        t_max: int | None = None) -> RunResult:
    """Execute the protocol on input x and account for all probability mass."""
    course = Course(system.verifier, x, t_max)
    t_max = course.t_max
    state = {(system.verifier.initial, 0, BLANK, prover.initial_tape(x)): 1.0 + 0j}
    p_acc = p_rej = 0.0
    cont = 1.0
    profile: list[tuple[int, float, float]] = []
    cont_trace: list[float] = []
    max_err = 0.0
    step, permute, idle, trace = course.step, course.permute, prover.idle, cont_trace.append
    # rounds before this one may skip the measurement
    unmeasured = t_max + 1 if course.once is None else course.once
    settled = False  # state is what the last verifier round left running
    for r in range(1, t_max + 1):
        moved = permute(state) if settled and r < unmeasured else None
        if moved is None:
            acc, rej, state, cont = step(state, r)
            p_acc += acc
            p_rej += rej
            if acc > 0 or rej > 0:
                profile.append((r, acc, rej))
            err = abs(p_acc + p_rej + cont - 1.0)
            if err > max_err:
                max_err = err
        else:  # nothing halts or is pruned, and the continuing mass is cont
            state = moved
        trace(cont)
        if cont < PRUNE_TOL:
            cont = 0.0
            break
        settled = True
        if r < t_max and not idle(x, r):
            state = _apply_prover(prover, x, r, state)
            settled = False

    rounds = len(cont_trace)  # one entry per round run
    course.check_end(rounds, cont, max_err)
    return RunResult(p_acc=p_acc, p_rej=p_rej, p_cont=cont,
                     halting_profile=profile, rounds_executed=rounds,
                     truncated=cont >= PRUNE_TOL, cont_trace=cont_trace,
                     max_conservation_error=max_err)


# ---------------------------------------------------------------------------
# Dense provers in operator form
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PairLayers:
    """One input's (state, head) pair graph, cut into the rounds of a run.

    Pair p = q·width + k, with q indexing ``spec.states``.  ``layers[i]``
    holds, sorted, the pairs the verifier can occupy before move i+1, with the
    prover writing any cell symbol.  ``targets[i]`` splits the pairs that move
    reaches into continuing, accepting and rejecting ones by the input's
    `Course` schedule; the continuing ones are the next layer.  A one-way
    head's last move is n+2, so its layers stop there.

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
    course = Course(spec, x)
    once, width = course.once, course.width
    gsz = len(spec.comm_alphabet)
    # read through the module, where a tracer can wrap it; compressed columns
    # list each basis column's entries together, so a pair's are contiguous
    step = qfa.step_operator_csc(spec, x)
    ptr = step.indptr[::gsz].tolist()  # pair p's entries are ptr[p]:ptr[p+1]
    to_pair, to_cell = np.divmod(step.indices, gsz)
    from_pair, from_cell = np.divmod(
        np.repeat(np.arange(len(step.indptr) - 1), np.diff(step.indptr)), gsz)
    # states are listed continuing, accepting, rejecting, so pairs p = q·width + k
    # are too, and these are the first accepting and the first rejecting pair
    bounds = np.cumsum([len(spec.non_halting), len(spec.accepting)]) * width
    n_pairs = len(spec.states) * width
    one_way = spec.head_model.one_way
    cap = course.t_max if one_way else max(course.t_max, n_pairs)
    count = np.arange(max(n_pairs, len(step.data)))
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
    """One `DenseRun` pass: its round matrices, `run`'s masses, the saved pass.

    ``masses[r-1]`` is (acc, rej, cont) of verifier round r, for every round
    the pass ran: the mass its move sent to accepting rows, to rejecting
    rows, and the continuing mass after it; acc or rej is None when the
    round's block has no such rows.  ``saved[i-1]`` is (state, p_acc, p_rej,
    max_err, moved) for every round i that acted and has a matrix: the state
    just before prover round i, the masses so far, and the state after that
    prover round.
    """

    matrices: tuple = field(repr=False)
    p_acc: float
    p_rej: float
    p_cont: float
    rounds_executed: int
    saved: tuple = field(repr=False)
    masses: tuple = field(repr=False)


class DenseRun:
    """`run` of dense provers with ``c`` tape cells on one input, in operator form.

    Set-up takes the input's `pair_layers`; round r is one product of its
    layer's small dense block with the state, whose rows are the (pair, cell
    symbol) basis of the layer and whose columns are the |Delta|^c tape
    words.  The block's accepting and rejecting rows are measured off, and
    the continuing ones are the next layer's.  Prover round i reshapes the
    state to (pairs, |Gamma|·|Delta|^c) and multiplies it on the right by the
    transpose of ``matrices[i-1]``, the prover's round-i matrix in the basis
    order of `provers.dense_basis`.  The layers carry the input's `Course`
    schedule, and the round loop, the stop when the continuing mass falls
    below PRUNE_TOL and the end checks are `run`'s.  No amplitude is pruned
    and a transition missing from delta shows up only as lost mass, so the
    masses agree with `run`'s up to rounding.

    `resume` evaluates a pass that differs from one already made in a single
    round matrix, running only the rounds the change reaches: it starts from
    the state saved before that prover round and, once the change is gone
    from the continuing state, takes the rest of the pass from the earlier
    pass's per-round masses.  Its floats are those of a full pass.
    """

    def __init__(self, system: QipSystem, x: str, c: int):
        spec = system.verifier
        self.course = Course(spec, x)
        self.c = c
        gsz = len(spec.comm_alphabet)
        self.words = len(spec.prover_alphabet) ** c
        layers = pair_layers(system, x)
        per_layer = [(block, len(cont) * gsz, (len(cont) + len(acc)) * gsz)
                     for block, (cont, acc, _rej) in zip(layers.blocks, layers.targets)]
        # (block, continuing rows, continuing and accepting rows) per round;
        # an acyclic run stops at its last layer, whose block has no continuing rows
        self.moves = []
        for r in range(1, self.course.t_max + 1):
            i = layers.index(r)
            if i is None:
                break
            self.moves.append(per_layer[i])
        # layer 1 is the initial pair alone
        self.initial = np.zeros((gsz, self.words), dtype=complex)
        j = dense_basis(spec.comm_alphabet, spec.prover_alphabet, c).index(
            (BLANK, (BLANK,) * c))
        self.initial[j // self.words, j % self.words] = 1.0

    def run(self, matrices) -> DensePass:
        """The full pass of the prover with these round matrices."""
        matrices = tuple(matrices)
        dim = self.initial.size  # |Gamma|·|Delta|^c
        for m in matrices:
            if m.shape != (dim, dim):
                raise ValueError(f"round matrix must be {dim}x{dim}")
        return self._forward(matrices, 1, self.initial, 0.0, 0.0, 0.0, [], [])

    def resume(self, base: DensePass, i0: int, m: np.ndarray) -> DensePass:
        """The pass of ``base.matrices`` with ``matrices[i0]`` replaced by ``m``.

        The pass restarts from the state saved before prover round i0+1, so
        its floats are those of a full pass.  When that round never acted,
        or ``m`` leaves the state after it bit for bit as it was (rows that
        ``m`` changes meet no column the state occupies), the rest of the
        pass would repeat ``base``'s float operations on equal inputs: the
        masses and saved states are ``base``'s, and no verifier round runs.
        Otherwise verifier move i0+2 runs, and when the state it leaves
        running equals ``base``'s before prover round i0+2 (the move sent all
        of the change to halting rows), `_rejoin` finishes the pass from
        ``base``'s later rounds; so a change that the next measurement takes
        off costs one verifier round.
        """
        matrices = base.matrices[:i0] + (m,) + base.matrices[i0 + 1:]
        if i0 < len(base.saved):
            state, p_acc, p_rej, max_err, was = base.saved[i0]
            moved = self._prover_step(state, m)
            if not np.array_equal(moved, was):
                return self._forward(
                    matrices, i0 + 2, moved, p_acc, p_rej, max_err,
                    [*base.saved[:i0], (state, p_acc, p_rej, max_err, moved)],
                    list(base.masses[:i0 + 1]), base)
        return DensePass(matrices, base.p_acc, base.p_rej, base.p_cont,
                         base.rounds_executed, base.saved, base.masses)

    def _prover_step(self, state: np.ndarray, m: np.ndarray) -> np.ndarray:
        return np.dot(state.reshape(-1, m.shape[0]), m.T).reshape(-1, self.words)

    def _forward(self, matrices, r0, state, p_acc, p_rej, max_err, saved, masses,
                 base=None) -> DensePass:
        """Rounds r0.. of a pass; ``state`` is the array before verifier move r0.

        ``saved`` and ``masses`` hold the earlier rounds' entries.  Given
        ``base``, a pass whose later rounds may be this one's, round r0's
        continuing state is compared with ``base``'s before prover round r0,
        and on a match the pass ends in `_rejoin`.
        """
        rounds = r0 - 1
        t_max = self.course.t_max
        dot, vdot = np.dot, np.vdot
        for r in range(r0, t_max + 1):
            rounds = r
            block, n_cont, acc_end = self.moves[r - 1]
            state = dot(block, state)
            acc = rej = None
            if acc_end > n_cont:
                part = state[n_cont:acc_end]
                acc = float(vdot(part, part).real)
                p_acc += acc
            if len(state) > acc_end:
                part = state[acc_end:]
                rej = float(vdot(part, part).real)
                p_rej += rej
            state = state[:n_cont]
            cont = float(vdot(state, state).real)
            masses.append((acc, rej, cont))
            max_err = max(max_err, abs(p_acc + p_rej + cont - 1.0))
            if cont < PRUNE_TOL:
                state = state[:0]
                break
            if r < t_max and r <= len(matrices):
                if base is not None:
                    if r <= len(base.saved) and np.array_equal(state, base.saved[r - 1][0]):
                        return self._rejoin(base, matrices, r, p_acc, p_rej, max_err,
                                            saved, masses)
                    base = None
                moved = self._prover_step(state, matrices[r - 1])
                saved.append((state, p_acc, p_rej, max_err, moved))
                state = moved
        p_cont = float(vdot(state, state).real)
        self.course.check_end(rounds, p_cont, max_err)
        return DensePass(matrices, p_acc, p_rej, p_cont, rounds, tuple(saved), tuple(masses))

    def _rejoin(self, base, matrices, r, p_acc, p_rej, max_err, saved, masses) -> DensePass:
        """The rest of a pass whose continuing state after verifier move r is
        ``base``'s, as are the round matrices from prover round r on.

        Every later round then repeats ``base``'s float operations on equal
        arrays, so its states and masses are ``base``'s; only the running
        p_acc, p_rej and max_err differ, and they are summed from
        ``base.masses`` in a full pass's order, with the saved entries and
        the end checks.
        """
        state, _acc, _rej, _err, moved = base.saved[r - 1]
        saved.append((state, p_acc, p_rej, max_err, moved))
        for acc, rej, cont in base.masses[r:]:
            if acc is not None:
                p_acc += acc
            if rej is not None:
                p_rej += rej
            max_err = max(max_err, abs(p_acc + p_rej + cont - 1.0))
            if len(saved) < len(base.saved):
                state, _acc, _rej, _err, moved = base.saved[len(saved)]
                saved.append((state, p_acc, p_rej, max_err, moved))
        masses.extend(base.masses[r:])
        self.course.check_end(base.rounds_executed, base.p_cont, max_err)
        return DensePass(matrices, p_acc, p_rej, base.p_cont, base.rounds_executed,
                         tuple(saved), tuple(masses))


def expected_halting_time(system: QipSystem, prover: ProverStrategy, x: str,
                          t_max: int | None = None) -> tuple[float, bool]:
    """Lower estimate of the mean halting round, and whether it is exact.

    Truncated mass contributes t_max rounds to the lower value; the estimate
    is exact (upper bound known) when essentially no mass was left running.
    """
    res = run(system, prover, x, t_max)
    # added left to right: builtin `sum` of floats is compensated from Python 3.12
    lower = 0.0
    for r, a, b in res.halting_profile:
        lower += r * (a + b)
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

    Each label goes through ``step`` with unit amplitude, and ``step``
    returns a pruned state (a measurement's continuing part or a prover
    round).  A child's amplitude is the amplitude-weighted sum of these over
    its parents, so it equals ``step(state)``, pruned per parent and summed;
    its count is the maximum over the parents that reach it.
    """
    amps: dict = {}
    inherited: dict = {}
    for lbl, amp in state.items():
        c = counts[lbl]
        for child, a in step({lbl: 1.0 + 0j}).items():
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
    per-path count).  Requires an interaction-bounded system, which the
    verifier's table decides: the count never exceeds `qfa.interaction_bound`,
    and `qfa.check_structure(..., INTERACTION_BOUNDED)` names a query cycle of
    a system it refuses.  Requires a committed prover too, which the prover
    decides itself: ``prover.committed(x, t_max)``.
    """
    spec = system.verifier
    if qfa.interaction_bound(spec) is None:
        raise RunError(f"system {system.name} is not interaction-bounded")
    course = Course(spec, x, t_max)
    t_max = course.t_max
    if not prover.committed(x, t_max):
        raise RunError("count_interactions requires a committed prover")

    state = {(spec.initial, 0, BLANK, prover.initial_tape(x)): 1.0 + 0j}
    counts = {next(iter(state)): 0}
    best = 0
    for r in range(1, t_max + 1):
        # children measured off per label inherit counts already in best
        state, inherited = _step_paths(
            lambda s: course.step(s, r)[2], state, counts)
        # a child left running that holds a non-blank symbol is a query
        counts = {lbl: inherited[lbl] + (lbl[2] != BLANK) for lbl in state}
        best = max([best, *counts.values()])
        if not state:
            break
        if not prover.idle(x, r):
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
    course = Course(spec, x_prefix + y)
    lo, hi = len(x_prefix) + 1, len(x_prefix) + len(y)  # positions holding y
    state = {(spec.initial, 0, BLANK, None): 1.0 + 0j}
    weight = 0.0
    for r in range(1, course.width):
        pos = r - 1  # a one-way head scans position r-1 at round r
        _acc, _rej, cont, _mass = course.step(state, r)
        state = {}  # the projection onto blank discards the rest of cont
        for lbl, amp in cont.items():
            if lbl[2] == BLANK:
                state[lbl] = amp
            elif lo <= pos <= hi:
                weight += abs(amp) ** 2
        if not state:
            break
    return weight
