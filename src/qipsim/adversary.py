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
the node cap is not hit.

The search holds one `runtime.Course` for its input: the tape, the round
limit, the measurement schedule and the verifier round.  A node's prover
moves share one move table.  For each live label (q, k, gamma, m) and each
target (gamma', m') that a move sends its pair to, it holds the label's
contributions through ``delta[q, tape[k], gamma']`` to accepting and
continuing labels: ((q'', k+d mod width, gamma'', m'), amp·a) for each q''
outside the course's ``rejecting`` states (none on a measure-once verifier,
whose rejecting labels run on until its one measurement).  Entries are
filled on first use, since many nodes try only one or two moves.  A move
then adds, label by label in state order, each label's entry for its pair's
target, and `Course.measure` measures the sum; the continuing mass is the
next node's mass, and the rejecting mass, which the search never reads, is
not formed.  This changes no float: a move is injective on pairs, so it
merges no labels and every moved amplitude is the state's own; the products
amp·a are the ones `Course.step` forms, added in the same order; and a
rejecting label feeds only the rejecting mass, while leaving its keys out
keeps the order of the others.  So the accepting mass, the continuation, in
its dict order, and its mass come out bit for bit as one `step` on the
moved state.  The walk down the best path, the identity tail past the table
budget and every run still go through `step`, which forms the rejecting
mass too.

Branching is reduced by symmetry (Emerson & Sistla, "Symmetry and model
checking", FMSD 9, 1996), restricted to symmetries that leave every result
bit-identical.  At a node, two targets (cell', memory') are interchangeable
when they have the same memory, the same blank-ness and, on every
(state, tape symbol) row the node's labels sit on, the same non-rejecting
part of their delta column (the whole column on a measure-once verifier,
whose rejecting labels run on until its one measurement).  Swapping
interchangeable targets then changes only rejecting labels of the verifier
move, which the measurement discards: the accepting mass and the
continuation come out bit for bit the same, in the same dict order.  So
each orbit of assignments under those swaps is represented by its
lexicographically first member, which is also the first member the full
enumeration reaches; the others give the same value and continuation.

Memory labels are a scalarset (Ip & Dill, "Better verification through
symmetry", FMSD 9, 1996): renaming the target memories of an assignment
renames the memory tag of the continuation and nothing else, since neither
the prover move nor the verifier round reads the tag.  The accepting mass,
the continuing mass and the continuation's amplitudes come out bit for bit
the same, in the same dict order.  So of each class of renamings only the
map whose target memories first appear in the order m0, m1, ... along the
sorted pairs is searched.  It is the lexicographically first of its class,
since ``targets`` lists symbols first and memories second, so the full
enumeration reaches it first, and with the strict ``>`` on the best value a
later renaming, whose subtree has the same exact value, does not replace it.
(Only a subtree that, searched in another pair order, rounded higher could;
on every search compared against the full enumeration none did.)  Renamings
map interchangeable targets to interchangeable targets, so the two
reductions compose: the orbit firsts in first-use order are one map per
orbit of both.  One walk, `_orbit_firsts`, builds every node's maps
position by position, from the lowest unused member of each class, and
drops a prefix as soon as it breaks first-use order or, under
``committed_only``, sends a blank pair to a non-blank target; so it yields,
in ``itertools.permutations`` order, exactly the maps kept.  On a verifier
with at most one non-blank cell symbol every class is a single target, and
those classes are built once per verifier and memory count.

The walk also drops moves by dominance (Ibaraki, "The power of dominance
relations in branch-and-bound algorithms", JACM 24, 1977).  A target is dead
at a position when its cell symbol's delta column sends everything to the
course's ``rejecting`` states on every (state, tape symbol) row of the
labels on that position's pair: the move-table entry is then empty, so any
two dead targets at a position add the same nothing to the moved state.  A
dead head h at position p is skipped when an earlier dead head h' there
dominates it: the class of h' has more members than there are positions
after p, so taking h' uses up no class, and the fresh-memory count after h'
is at least the count after h.  Every completion under h then has a replay
under h' that takes the same class at every later position: each class it
takes still has a member, members of a class give the same entries, and a
fresh count at least as large keeps the replay in first-use order.  The
replay builds the same entries in the same label order, so the same
accepting mass, continuation, in its dict order, and continuing mass, bit
for bit, and ``itertools.permutations`` reaches it first, so with the strict
``>`` the kept map is the one the undominated walk records (with the same
rounding caveat as renamings).  Past the node cap, where nothing is memoized,
a dropped move is no longer counted as a node again.  The masks are formed
only at nodes of two or more pairs with classes of several targets: at a
node of one pair the dead targets lie in one class per memory plus blank, so
at most one map could go.  Measure-once verifiers are not covered: their
``rejecting`` is empty, since their rejecting labels run on until the one
measurement, so no target is dead there.  On `upal:N=4` the walk evaluates
241 maps on ``1`` at steps 7 (6,666 without the rule) and 13,973 on ``111``
at the default budget (305,438).

Quantum search climbs over per-round dense unitaries acting on the cell and c
prover-tape cells: random-unitary restarts followed by accept-if-better
Givens-rotation moves, each of which rotates two rows of one round's
matrix.  The identity prover and the best classical table are always in the
restart pool, so the result can only improve on them.  The climb moves round
matrices alone, run in operator form by one `runtime.DenseRun` per search,
one small dense block per round of the input's pair-graph layers; only the
result becomes a `DenseProver`, which checks unitarity.  A pass keeps the
state before and after every prover round and each verifier round's masses,
so a move on round r resumes there instead of replaying the unchanged
prefix, and gives the floats a full pass would.  A move whose rotated rows
meet no column the state occupies leaves the state after round r bit for bit
as it was; it then costs no verifier round, since the rest of the pass would
repeat the current one.  This is common on a climb from a permutation, the
classical seed or the identity.  A move whose change the next verifier move
sends wholly to halting rows leaves the continuing state as it was after
that move; it costs that one round, and the rest of the pass is summed from
the current pass's masses.  On `pal_sharp:d=2` non-members about a quarter
of the moves that run a verifier round end so.  A random restart draws all
its round matrices in one call, and a move draws its round and rows in one
call (`_draw_move`).  `runtime.run` stays the oracle: the identity baseline,
the classical search's replay and `replay` go through it.
"""
from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

from .linalg import checked_count
from .provers import (ClassicalProverTable, DenseProver, EncodingError,
                      IdentityProver, TableProver, dense_from_table,
                      from_description)
from .qfa import BLANK
from .runtime import Course, DenseRun, QipSystem, run

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
    """Search limits, checked when made; frozen, so they stay checked.

    Every field but ``committed_only`` must be an integer (numpy integers
    pass, and are kept as ints) and at least its least value: 1 for
    ``memory_states`` and ``node_cap``, 0 for the rest."""
    memory_states: int = 2
    steps: int = 16
    restarts: int = 8
    iterations: int = 60
    seed: int = 0
    node_cap: int = 2_000_000
    committed_only: bool = False

    def __post_init__(self):
        for name, least in (("memory_states", 1), ("steps", 0), ("restarts", 0),
                            ("iterations", 0), ("node_cap", 1), ("seed", 0)):
            object.__setattr__(self, name,
                               checked_count(f"budget {name}", getattr(self, name), least))


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

def _target_tables(comm, memory_states):
    """What `_ClassicalSearch` reads of a verifier's cell alphabet ``comm``
    with this many memory states: the memory names, the targets (cell
    symbol, memory), per target the index of its memory, whether its symbol
    is blank and its symbol's bit in a dead mask (see `_row_kinds`), the
    single-target classes or None, and an empty cache of target classes per
    row set."""
    memory = tuple(f"m{i}" for i in range(memory_states))
    targets = tuple((g, m) for g in comm for m in memory)
    rank = tuple(i for _g in comm for i in range(memory_states))
    blank = tuple(g == BLANK for g, _m in targets)
    bit = tuple(1 << j for j in range(len(comm)) for _m in memory)
    # Blank is a class of its own, so one non-blank symbol leaves every
    # class a single target at every node.
    singletons = ([[i] for i in range(len(targets))]
                  if sum(g != BLANK for g in comm) <= 1 else None)
    return memory, targets, rank, blank, bit, singletons, {}


class _ClassicalSearch:
    def __init__(self, system: QipSystem, x: str, budget: AdversaryBudget):
        self.spec = system.verifier
        self.course = Course(self.spec, x)
        self.budget = budget
        # kept in the verifier's cache for every search on it (per memory count)
        (self.memory, self.targets, self.target_rank, self.target_blank,
         self.target_bit, self.singletons, self.class_cache) = self.spec._cached(
            ("search targets", budget.memory_states),
            lambda: _target_tables(self.spec.comm_alphabet, budget.memory_states))
        self.steps = min(budget.steps, self.course.t_max)
        self.row_kinds = self.spec._cached("row kinds", dict)
        self.memo: dict = {}
        self.moves: dict = {}  # memo key -> best assignment, renamed like the key
        self.tail_memo: dict = {}
        self.nodes = 0
        self.capped = False

    # -- engine pieces over labels (q, k, gamma, m) --

    def _move_rounds(self, state, pairs, r):
        """Verifier move r after each prover move of ``state``'s node.

        Yields (assignment, accepting mass, continuation, its mass) for each
        of `_assignments`, in order: those floats of one `Course.step` on
        the moved state, computed from the node's move table (see the
        module docstring), which leaves out the targets in the course's
        ``rejecting``: they would feed only the rejecting mass, which is not
        formed.  A missing delta row raises `step`'s error.  ``state`` is a
        measurement's continuing part, so, as `step` takes it, it holds no
        amplitude below PRUNE_TOL.
        """
        course = self.course
        rows, tape, width, rejecting, measure = (course.rows, course.tape, course.width,
                                                 course.rejecting, course.measure)
        index = {pair: i for i, pair in enumerate(pairs)}
        # per live label, in state order: its pair's index, its table row, and
        # what fills the row
        live = [(index[g, m], {}, q, k, amp) for (q, k, g, m), amp in state.items()]
        for combo in self._assignments(state, pairs):
            out: dict = {}
            get = out.get
            for i, row, q, k, amp in live:
                target = combo[i]
                entry = row.get(target)
                if entry is not None:
                    for lbl, c in entry:
                        v = get(lbl)
                        out[lbl] = c if v is None else v + c
                    continue
                # first use: fill the entry while adding it, which is cheaper at
                # the many nodes that try one or two moves
                g2, m2 = target
                key = (q, tape[k], g2)
                moves = rows.get(key)
                if moves is None:
                    raise course.missing_row(key)
                entry = row[target] = []
                for q2, g3, d, a in moves:
                    if q2 in rejecting:
                        continue
                    lbl = (q2, (k + d) % width, g3, m2)
                    c = amp * a
                    entry.append((lbl, c))
                    v = get(lbl)
                    out[lbl] = c if v is None else v + c
            acc, _rej, cont, mass = measure(out, r)
            yield combo, acc, cont, mass

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
        step = self.course.step
        for move in range(r + 1, self.course.t_max + 1):
            acc, _rej, state, _mass = step(state, move)
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
        """Indices into ``targets`` of the interchangeable classes at ``state``,
        each class in index order and the classes in order of their first
        members.  Depends only on the (state, tape symbol) rows of the labels,
        so it is cached per row set.
        """
        if self.singletons is not None:
            return self.singletons
        tape = self.course.tape
        rows = frozenset((q, tape[k]) for (q, k, _g, _m) in state)
        classes = self.class_cache.get(rows)
        if classes is None:
            groups: dict = {}
            for j, kind in enumerate(zip(*(self._row_kinds(row)[0] for row in rows))):
                groups.setdefault(kind, []).append(j)
            n_mem = len(self.memory)
            # targets[j * n_mem + i] is (comm_alphabet[j], memory[i]), so the
            # groups, in order of their first symbols, give ascending first members
            classes = self.class_cache[rows] = [
                [j * n_mem + i for j in symbols]
                for symbols in groups.values() for i in range(n_mem)]
        return classes

    def _row_kinds(self, row):
        """Per cell symbol, an id shared by the non-blank symbols whose delta
        columns on ``row`` agree outside the rejecting states; and the mask
        of the dead symbols, bit j set when symbol j's column there sends
        everything to the rejecting states, so that a label on the row that
        the prover moves to symbol j adds nothing to the moved state (an
        empty move-table entry)."""
        kinds = self.row_kinds.get(row)
        if kinds is None:
            q, s = row
            ids: dict = {BLANK: 0}  # blank's own id
            symbols, dead = [], 0
            for j, g in enumerate(self.spec.comm_alphabet):
                col = self.course.rows.get((q, s, g))
                kept = col if col is None else tuple(
                    t for t in col if t[0] not in self.course.rejecting)
                if kept == ():
                    dead |= 1 << j
                symbols.append(ids.setdefault(BLANK if g == BLANK else kept, len(ids)))
            kinds = self.row_kinds[row] = symbols, dead
        return kinds

    def _orbit_firsts(self, classes, k, blank_at=(), dead=(), prefix=(), fresh=0):
        """The lexicographically first k-tuple of each orbit whose memories
        first appear in the order of ``memory``, in index order; a position
        in ``blank_at`` takes only blank targets; and none that an earlier
        one dominates at a dead target (``dead`` holds each position's mask
        of dead symbols, or is empty).

        Each position takes the lowest-indexed unused member of a class, so
        the members used of a class are always a prefix of it.  ``classes``
        holds the unused members of each class, the lists in order of their
        heads; taking a head passes the rest of its class on, inserted in
        that order, to the walk that extends ``prefix`` (whose memories
        ``fresh`` counts).  A head is skipped, with every tuple it would
        start, when its memory is neither used yet nor the next fresh one,
        since a tuple is in first-use order only if each of its prefixes is;
        or when its position is in ``blank_at`` and its symbol is not blank;
        or when it is dead at its position and an earlier dead head there
        dominates it: that head's class outlasts the positions left, and the
        fresh count after it is at least the count after this one (see the
        module docstring).  So this yields the orbit firsts in first-use
        order, in the order that ``itertools.permutations`` reaches them, and
        of those the ones that send each position of ``blank_at`` to a blank
        target and are not dominated.
        """
        targets, rank, blank = self.targets, self.target_rank, self.target_blank
        p = len(prefix)
        blank_only = p in blank_at
        dead_here = dead[p] if dead else 0
        cover = -1  # the fresh count after the dominating dead head so far
        for pos, members in enumerate(classes):
            i = members[0]
            if rank[i] > fresh or blank_only and not blank[i]:
                continue
            if dead_here and dead_here & self.target_bit[i]:
                after = fresh + (rank[i] == fresh)
                if after <= cover:
                    continue
                if len(members) > k - p - 1:
                    cover = after
            combo = prefix + (targets[i],)
            if p + 1 == k:
                yield combo
                continue
            rest = classes[:pos] + classes[pos + 1:]
            if len(members) > 1:
                insort(rest, members[1:])  # classes are disjoint: heads decide
            yield from self._orbit_firsts(rest, k, blank_at, dead, combo,
                                          fresh + (rank[i] == fresh))

    def _assignments(self, state, pairs):
        """Injective maps from the reachable (gamma, memory) pairs of ``state``.

        One map per orbit of interchangeable targets and renamings of memory,
        less the maps that an earlier one dominates at a dead target (see the
        module docstring), in ``itertools.permutations`` order, built by
        `_orbit_firsts`.  The maps left out give the same accepting mass and
        continuation as one kept before them, up to a renaming of memory, so
        the value and the recorded assignments are unchanged.  Under
        ``committed_only`` the walk sends blank pairs to blank targets only;
        that rule holds for a whole orbit or for none of it, since blank-ness
        is part of a class and renaming keeps symbols.  With single-target
        classes no dead mask is formed.
        """
        blank_at = frozenset(p for p, (g, _m) in enumerate(pairs)
                             if g == BLANK) if self.budget.committed_only else ()
        classes = self._target_classes(state)
        dead = ()
        if self.singletons is None and len(pairs) > 1:
            tape, row_kinds = self.course.tape, self.row_kinds
            at = dict.fromkeys(pairs, -1)  # every bit set, then one AND per label
            for q, k, g, m in state:
                row = q, tape[k]
                kinds = row_kinds.get(row)
                at[g, m] &= (self._row_kinds(row) if kinds is None else kinds)[1]
            dead = tuple(at.values())
        return self._orbit_firsts(classes, len(pairs), blank_at, dead)

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
        for combo, acc, cont, mass in self._move_rounds(state, pairs, r + 1):
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
        step = self.course.step
        init = {(self.spec.initial, 0, BLANK, self.memory[0]): 1.0 + 0j}
        acc0, _rej, state, mass = step(init, 1)
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
            moved = {(q, k, *mapped[g, m]): amp for (q, k, g, m), amp in state.items()}
            _acc, _rej, state, mass = step(moved, r + 1)
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
    prover = TableProver(table)
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

def _random_unitaries(rng, n, dim):
    """n random dim x dim unitaries, drawn in one call.

    Matrix k takes the real and then the imaginary part of its Gaussian
    draw before matrix k+1, and its QR factor's columns are fixed by the
    phases of R's diagonal, so it is bit for bit the matrix that the k-th
    of n single draws would give, and ``rng`` ends in the same state.
    """
    z = rng.normal(size=(n, 2, dim, dim))
    qmat, rmat = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    diag = np.diagonal(rmat, axis1=1, axis2=2)
    return qmat * (diag / np.abs(diag))[:, None, :]


def _draw_move(rng, high):
    """A climb move's round and its two distinct rows, from ``high`` =
    [rounds, dim - 1, dim, 2]: what ``rng.integers(rounds)`` and then
    ``rng.choice(dim, size=2, replace=False)`` give, from one call.

    For two of dim, ``choice`` runs Floyd's method, a bounded draw below
    dim - 1 and one below dim, the second replaced by dim - 1 when it
    repeats the first, and then shuffles the pair with a bounded draw below
    2.  ``integers`` makes the same bounded draws in the same order, so the
    values and the generator's state after them are the same.
    """
    r, i, j, keep = rng.integers(0, high).tolist()
    if j == i:
        j = int(high[2]) - 1
    return (r, i, j) if keep else (r, j, i)


def search_quantum_prover(system: QipSystem, x: str, c: int = 1,
                          budget: AdversaryBudget | None = None,
                          classical_seed: AdversaryReport | None = None,
                          ) -> AdversaryReport:
    """Heuristic lower bound on the optimum over quantum provers.

    Never exhaustive; the report's strategy reproduces best_p_acc exactly.
    The identity baseline is a `run`; every restart's round matrices are
    evaluated by one `DenseRun` built for the search, and a Givens move, which
    rotates rows i and j of round r's matrix, resumes from the current forward
    pass just before that round; a move that leaves the state after that
    round unchanged costs no verifier round, and one whose change the next
    measurement takes off costs one.  With no prover rounds in the
    budget, or a one-dimensional prover space, whose unitaries are phases,
    there is nothing to climb, and the identity or the classical seed is the
    result.
    """
    budget = budget or AdversaryBudget()
    c = checked_count("tape cells", c, 0)
    spec = system.verifier
    comm, tape = spec.comm_alphabet, spec.prover_alphabet
    dim = dense_dimension(spec, c)
    if dim > DENSE_DIM_CAP:
        raise BudgetError(f"dense dimension {dim} exceeds cap {DENSE_DIM_CAP}")
    rounds = min(budget.steps, Course(spec, x).t_max)
    rng = np.random.default_rng(budget.seed)

    best_p = run(system, IdentityProver(), x).p_acc
    best_desc = IdentityProver().describe()
    tested = 1

    if classical_seed is None:
        classical_seed = best_classical_prover(system, x, budget)
    if classical_seed.best_p_acc > best_p:
        best_p = classical_seed.best_p_acc
        best_desc = classical_seed.best_strategy
    if rounds == 0 or dim == 1:  # nothing to climb; a 1x1 unitary is a phase
        return AdversaryReport(best_p_acc=best_p, best_strategy=best_desc,
                               strategies_tested=tested, is_exhaustive=False,
                               seed=budget.seed)

    seed = None
    if classical_seed.best_strategy.get("kind") == "classical_table":
        table = from_description(classical_seed.best_strategy).table
        try:
            seed = dense_from_table(table, comm, tape, c, rounds)
        except EncodingError:  # the table's memory does not fit in c cells
            pass

    dense_run = DenseRun(system, x, c)
    # a move's round r, rows i and j and swap bit in one draw; see `_draw_move`
    high = np.array([rounds, dim - 1, dim, 2])
    best_matrices = None
    for restart in range(budget.restarts):
        if restart == 0 and seed is not None:
            matrices = seed
        elif restart == 1:
            matrices = [np.eye(dim, dtype=complex) for _ in range(rounds)]
        else:
            matrices = _random_unitaries(rng, rounds, dim)
        current = dense_run.run(matrices)
        tested += 1
        sigma = 0.8
        for _it in range(budget.iterations):
            r, i, j = _draw_move(rng, high)
            theta = rng.normal() * sigma
            phi = rng.uniform(0, 2 * math.pi)
            # the Givens rotation in the (i, j) plane, applied to rows i and j
            cos, sin = math.cos(theta), math.sin(theta)
            base = current.matrices[r]
            m = base.copy()
            m[i] = cos * base[i] - sin * np.exp(-1j * phi) * base[j]
            m[j] = sin * np.exp(1j * phi) * base[i] + cos * base[j]
            moved = dense_run.resume(current, r, m)
            tested += 1
            if moved.p_acc > current.p_acc:
                current = moved
            sigma = max(0.05, sigma * 0.97)
        if current.p_acc > best_p:
            best_p, best_matrices = current.p_acc, current.matrices
    if best_matrices is not None:
        best_desc = DenseProver(comm, tape, c, best_matrices).describe()
    return AdversaryReport(best_p_acc=best_p, best_strategy=best_desc,
                           strategies_tested=tested, is_exhaustive=False,
                           seed=budget.seed)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------

def replay(system: QipSystem, x: str, report: AdversaryReport) -> float:
    """Re-run the reported strategy; must reproduce best_p_acc within REPLAY_TOL."""
    return run(system, from_description(report.best_strategy), x).p_acc
