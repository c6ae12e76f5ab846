"""The fused verifier round against the loop it replaced.

`runtime.Course.step` moves and then measures, pruning in the measurement.
The reference below is the earlier engine, kept here verbatim in behaviour: a
verifier move that prunes its output, a separate measurement, a mass summed
afterwards, and a prover step that prunes its own output.  Every float must
agree to the bit, on every short input and on long inputs shaped like those
of the benchmark's ``engine`` workload.

The reference applies the prover in every round, so it also pins the engine's
skip of idle prover rounds; the idle contract itself (an idle round leaves
every pair it meets alone, with amplitude 1) is checked on every built-in.

Each prover decides itself whether it is committed; the walk over reachable
tape strings that decided it before, `ref_check_committed`, is the reference.
"""
import itertools
import math
import random

import numpy as np
import pytest

from qipsim.adversary import (DENSE_DIM_CAP, AdversaryBudget, best_classical_prover,
                              dense_dimension)
from qipsim.linalg import PRUNE_TOL
from qipsim.protocols import BUILTIN, build_protocol
from qipsim.provers import (ClassicalProverTable, DenseProver, EraseAllProver,
                            IdentityProver, ProverStrategy, ScriptedProver,
                            TableProver, complete_permutation, dense_basis,
                            from_description)
from qipsim.qfa import BLANK, HeadModel, symbol_at
from qipsim.runtime import Course, count_interactions, default_t_max, query_weight, run

N_MAX = 3


# -- the reference engine ----------------------------------------------------

def ref_norm_sq(vec):
    # `sum` of floats adds left to right up to Python 3.11; spelled out so that
    # the reference does not depend on the interpreter's summation
    total = 0.0
    for a in vec.values():
        total += abs(a) ** 2
    return total


def ref_prune(vec):
    return {k: a for k, a in vec.items() if abs(a) >= PRUNE_TOL}


def ref_apply_verifier(spec, x, state, width):
    out = {}
    for (q, k, g, y), amp in state.items():
        for (q2, g2, d, a) in spec.delta[(q, symbol_at(x, k), g)]:
            lbl = (q2, (k + d) % width, g2, y)
            v = out.get(lbl)
            out[lbl] = amp * a if v is None else v + amp * a
    return ref_prune(out)


def ref_apply_prover(prover, x, i, state):
    out = {}
    for (q, k, g, y), amp in state.items():
        for (g2, y2, a) in prover.apply(x, i, g, y):
            lbl = (q, k, g2, y2)
            v = out.get(lbl)
            out[lbl] = amp * a if v is None else v + amp * a
    return ref_prune(out)


def ref_measure(spec, state):
    acc = rej = 0.0
    cont = {}
    for lbl, amp in state.items():
        if spec.is_halting(lbl[0]):
            if lbl[0] in spec.accepting:
                acc += abs(amp) ** 2
            else:
                rej += abs(amp) ** 2
        else:
            cont[lbl] = amp
    return acc, rej, cont


def ref_run(system, prover, x):
    spec = system.verifier
    t_max = Course(spec, x).t_max
    measure_once = spec.head_model is HeadModel.MO_1WAY
    n = len(x)
    width = n + 2
    state = {(spec.initial, 0, BLANK, prover.initial_tape(x)): 1.0 + 0j}
    p_acc = p_rej = 0.0
    profile, cont_trace = [], []
    for r in range(1, t_max + 1):
        state = ref_apply_verifier(spec, x, state, width)
        if not measure_once or r == n + 2:
            acc, rej, state = ref_measure(spec, state)
            if measure_once:  # the one measurement rejects what it does not accept
                rej += ref_norm_sq(state)
                state = {}
            p_acc += acc
            p_rej += rej
            if acc > 0 or rej > 0:
                profile.append((r, acc, rej))
        cont = ref_norm_sq(state)
        cont_trace.append(cont)
        if cont < PRUNE_TOL:
            state = {}
            break
        if r != t_max:
            state = ref_apply_prover(prover, x, r, state)
    return p_acc, p_rej, ref_norm_sq(state), profile, cont_trace


def ref_step_paths(step, state, counts):
    amps, inherited = {}, {}
    for lbl, amp in state.items():
        c = counts[lbl]
        for child, a in step({lbl: 1.0 + 0j}).items():
            v = amps.get(child)
            amps[child] = amp * a if v is None else v + amp * a
            if c > inherited.get(child, -1):
                inherited[child] = c
    amps = ref_prune(amps)
    return amps, {lbl: inherited[lbl] for lbl in amps}


def ref_count_interactions(system, prover, x):
    spec = system.verifier
    t_max = default_t_max(spec, x)
    width = len(x) + 2
    state = {(spec.initial, 0, BLANK, prover.initial_tape(x)): 1.0 + 0j}
    counts = {next(iter(state)): 0}
    best = 0
    for r in range(1, t_max + 1):
        moved, inherited = ref_step_paths(
            lambda s: ref_apply_verifier(spec, x, s, width), state, counts)
        _acc, _rej, state = ref_measure(spec, moved)
        counts = {lbl: inherited[lbl] + (lbl[2] != BLANK) for lbl in state}
        best = max([best, *inherited.values(), *counts.values()])
        if not state:
            break
        state, counts = ref_step_paths(
            lambda s: ref_apply_prover(prover, x, r, s), state, counts)
    return best


REF_COMMITTED_TOL = 1e-9
REF_MAX_TAPE_STATES = 4096


def ref_check_committed(prover, x, i_max, comm_alphabet):
    """True iff the prover never disturbs a blank cell through round i_max.

    Walks the reachable tape contents round by round: S_0 is the blank tape,
    S_i collects every tape string producible from S_{i-1} under any cell
    symbol.  At each round, acting on (blank, y) must yield only blank-cell
    components above REF_COMMITTED_TOL.  Raises ValueError once a set exceeds
    REF_MAX_TAPE_STATES.  Idle rounds are skipped: they keep the set as it is
    and write nothing, so skipping them changes no verdict.
    """
    symbols = tuple(comm_alphabet)
    if BLANK not in symbols:
        symbols = (BLANK,) + symbols
    reachable = {prover.initial_tape(x)}
    for i in range(1, i_max + 1):
        if prover.idle(x, i):
            continue
        nxt = set()
        for y in sorted(reachable):
            for (g2, y2, amp) in prover.apply(x, i, BLANK, y):
                if abs(amp) <= REF_COMMITTED_TOL:
                    continue
                if g2 != BLANK:
                    return False
                nxt.add(y2)
            for gamma in symbols:
                if gamma == BLANK:
                    continue
                for (_g2, y2, amp) in prover.apply(x, i, gamma, y):
                    if abs(amp) > REF_COMMITTED_TOL:
                        nxt.add(y2)
        if len(nxt) > REF_MAX_TAPE_STATES:
            raise ValueError(f"reachable tape set exceeded {REF_MAX_TAPE_STATES} entries")
        reachable = nxt
    return True


def ref_query_weight(spec, x_prefix, y):
    word = x_prefix + y
    n = len(word)
    lo, hi = len(x_prefix) + 1, len(x_prefix) + len(y)
    state = {(spec.initial, 0, BLANK, None): 1.0 + 0j}
    weight = 0.0
    for r in range(1, n + 2):
        pos = r - 1
        _acc, _rej, cont = ref_measure(spec, ref_apply_verifier(spec, word, state, n + 2))
        state = {}
        for lbl, amp in cont.items():
            if lbl[2] == BLANK:
                state[lbl] = amp
            elif lo <= pos <= hi:
                weight += abs(amp) ** 2
        if not state:
            break
    return weight


# -- provers -------------------------------------------------------------------

class FaintBranchProver(ProverStrategy):
    """Writes, next to each cell symbol, a faint branch on every other symbol.

    The kept symbol has amplitude √(1 − 1e-26) and each branch 1e-13, so a
    branch falls under PRUNE_TOL unless it lands on a label that already
    holds mass.  The move is unitary up to about 1e-13.
    """

    def __init__(self, comm_alphabet):
        self.comm = tuple(comm_alphabet)

    def apply(self, x, i, gamma, y):
        return [(g, y, complex(math.sqrt(1 - 1e-26) if g == gamma else 1e-13))
                for g in self.comm]


def random_dense_provers(spec, seed, count=2, rounds=4):
    dim = dense_dimension(spec, 1)
    if dim > DENSE_DIM_CAP:
        return []
    rng = np.random.default_rng(seed)
    provers = []
    for _ in range(count):
        mats = []
        for _r in range(rounds):
            z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            qm, rm = np.linalg.qr(z)
            mats.append(qm * (np.diagonal(rm) / np.abs(np.diagonal(rm))))
        provers.append(DenseProver(spec.comm_alphabet, spec.prover_alphabet, 1, mats))
    return provers


def gap_table_prover(spec):
    """A classical table whose steps 1 and 3 each swap two (cell, memory)
    pairs and whose step 2 is empty."""
    g = next(s for s in spec.comm_alphabet if s != BLANK)
    return TableProver(ClassicalProverTable(entries={
        (1, BLANK, "m0"): (g, "m1"), (1, g, "m1"): (BLANK, "m0"),
        (3, g, "m0"): (BLANK, "m1"), (3, BLANK, "m1"): (g, "m0")}))


def best_table_prover(system, x):
    report = best_classical_prover(system, x, AdversaryBudget(memory_states=2))
    return from_description(report.best_strategy)


class TapeLog(ProverStrategy):
    """``prover`` acting in every round, logging the tapes each round meets."""

    def __init__(self, prover):
        self.prover = prover
        self.tapes: dict = {}

    def initial_tape(self, x):
        return self.prover.initial_tape(x)

    def apply(self, x, i, gamma, y):
        self.tapes.setdefault(i, set()).add(y)
        return self.prover.apply(x, i, gamma, y)


def inputs(alphabet, n_max):
    return ["".join(t) for n in range(n_max + 1) for t in itertools.product(alphabet, repeat=n)]


def hexed(p_acc, p_rej, p_cont, profile, cont_trace):
    return (p_acc.hex(), p_rej.hex(), float(p_cont).hex(),
            [(r, a.hex(), b.hex()) for (r, a, b) in profile],
            [float(c).hex() for c in cont_trace])


# -- tests -----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_fused_round_matches_the_reference_loop(name):
    system = build_protocol(name)
    spec = system.verifier
    provers = [("honest", system.honest_prover), ("identity", IdentityProver()),
               ("faint", FaintBranchProver(spec.comm_alphabet))]
    provers += [(f"dense{j}", p) for j, p in
                enumerate(random_dense_provers(spec, seed=sorted(BUILTIN).index(name)))]
    for x in inputs(spec.input_alphabet, N_MAX):
        for label, prover in provers:
            res = run(system, prover, x)
            got = hexed(res.p_acc, res.p_rej, res.p_cont, res.halting_profile,
                        res.cont_trace)
            assert got == hexed(*ref_run(system, prover, x)), (label, x)


# built-ins whose best memory-2 classical tables join the reference check
TABLE_SEARCHED = ("center", "eraser_zero", "npfa_choice", "union_zero_end1", "zero_public")


def engine_words(rng):
    """(built-in, input) pairs shaped like the ``engine`` workload's, drawn
    from ``rng``: `center:N=4` words of odd length 21-41 with either middle
    bit; `upal:N=4` words 0^n 1^n, 0^n 1^(n+1) and 0^n 1^n with one bit
    flipped, for n up to 20; and `pal_sharp:d=2` words y#y^R with a twin
    whose y^R has one bit flipped, for |y| up to 10."""
    def bits(n):
        return "".join(rng.choice("01") for _ in range(n))

    def flip(s, i):
        return s[:i] + "10"[int(s[i])] + s[i + 1:]

    words = [("center:N=4", bits(n // 2) + mid + bits(n // 2))
             for n in range(21, 42, 2) for mid in "10"]
    for n in range(1, 21):
        words += [("upal:N=4", w) for w in (
            "0" * n + "1" * n, "0" * n + "1" * (n + 1),
            flip("0" * n + "1" * n, rng.randrange(2 * n)))]
    for n in range(1, 11):
        y = bits(n)
        words += [("pal_sharp:d=2", y + "#" + y[::-1]),
                  ("pal_sharp:d=2", y + "#" + flip(y, rng.randrange(n))[::-1])]
    return words


def test_runs_at_the_engine_lengths_match_the_reference_loop():
    systems = {name: build_protocol(name) for name in ("center:N=4", "upal:N=4", "pal_sharp:d=2")}
    words = engine_words(random.Random(2004))
    assert len(words) == 22 + 60 + 20
    for name, x in words:
        system = systems[name]
        for prover in (system.honest_prover, IdentityProver()):
            res = run(system, prover, x)
            got = hexed(res.p_acc, res.p_rej, res.p_cont, res.halting_profile,
                        res.cont_trace)
            assert got == hexed(*ref_run(system, prover, x)), (name, x)


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_table_provers_match_the_reference_loop(name):
    system = build_protocol(name)
    spec = system.verifier
    gap = gap_table_prover(spec)
    for x in inputs(spec.input_alphabet, N_MAX):
        provers = [("gap table", gap)]
        if name in TABLE_SEARCHED:
            provers.append(("best table", best_table_prover(system, x)))
        for label, prover in provers:
            res = run(system, prover, x)
            got = hexed(res.p_acc, res.p_rej, res.p_cont, res.halting_profile,
                        res.cont_trace)
            assert got == hexed(*ref_run(system, prover, x)), (label, x)


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_idle_rounds_leave_every_pair_alone(name):
    system = build_protocol(name)
    spec = system.verifier
    provers = [system.honest_prover, IdentityProver(), gap_table_prover(spec),
               *random_dense_provers(spec, seed=sorted(BUILTIN).index(name), count=1)]
    idle = 0
    for x in inputs(spec.input_alphabet, N_MAX):
        for prover in provers:
            log = TapeLog(prover)
            run(system, log, x)
            for i, tapes in sorted(log.tapes.items()):
                if not prover.idle(x, i):
                    continue
                idle += 1
                for gamma in spec.comm_alphabet:
                    for y in tapes:
                        assert prover.apply(x, i, gamma, y) == [(gamma, y, 1 + 0j)], (
                            prover.describe()["kind"], x, i, gamma, y)
    assert idle


def _answer_system():
    """Reads the cell in a Hadamard: a blank cell and a ``?`` cell both go to
    m and n, so a branch on ``?`` would add to the blank cell's children."""
    from qipsim.qfa import LEFT_END, RIGHT_END, HeadModel, QfaSpec, validate_and_complete
    from qipsim.runtime import QipSystem

    h = 1 / math.sqrt(2)
    delta = {
        ("s", LEFT_END, BLANK): (("q", BLANK, 1, 1 + 0j),),
        ("q", "a", BLANK): (("m", BLANK, 1, h + 0j), ("n", BLANK, 1, h + 0j)),
        ("q", "a", "?"): (("m", BLANK, 1, h + 0j), ("n", BLANK, 1, -h + 0j)),
        ("m", RIGHT_END, BLANK): (("acc", BLANK, 1, 1 + 0j),),
        ("n", RIGHT_END, BLANK): (("rej", BLANK, 1, 1 + 0j),),
    }
    spec = QfaSpec(name="answer", non_halting=("s", "q", "m", "n"), accepting=("acc",),
                   rejecting=("rej",), initial="s", input_alphabet=("a",),
                   comm_alphabet=(BLANK, "?"), prover_alphabet=(BLANK,),
                   head_model=HeadModel.ONE_WAY, delta=delta)
    spec, report = validate_and_complete(spec)
    assert report.ok
    return QipSystem(name="answer", verifier=spec, honest_prover=IdentityProver(),
                     language=lambda x: True, claimed_bounds=(0.5, 0.5))


def test_a_faint_branch_is_dropped_before_the_verifier_move():
    system = _answer_system()
    faint = FaintBranchProver(system.verifier.comm_alphabet)
    res = run(system, faint, "a")
    assert hexed(res.p_acc, res.p_rej, res.p_cont, res.halting_profile,
                 res.cont_trace) == hexed(*ref_run(system, faint, "a"))
    # the kept amplitude is exactly 1.0, so without its branch the run is the
    # identity prover's to the bit
    ident = run(system, IdentityProver(), "a")
    assert (res.p_acc.hex(), res.p_rej.hex()) == (ident.p_acc.hex(), ident.p_rej.hex())


def test_measure_once_rounds_keep_every_label():
    system = build_protocol("la_mo")
    assert system.verifier.head_model is HeadModel.MO_1WAY
    for x in inputs("a", 6):
        for prover in (system.honest_prover, IdentityProver(),
                       FaintBranchProver(system.verifier.comm_alphabet)):
            res = run(system, prover, x)
            assert hexed(res.p_acc, res.p_rej, res.p_cont, res.halting_profile,
                         res.cont_trace) == hexed(*ref_run(system, prover, x)), x
            # nothing halts before the single measurement after round n+2
            assert [r for (r, _a, _b) in res.halting_profile] in ([], [len(x) + 2])


def test_interaction_count_and_query_weight_match_the_reference(odd):
    spec = odd.verifier
    for x in inputs("01", 5):
        for prover in (odd.honest_prover, IdentityProver()):
            assert prover.committed(x, default_t_max(spec, x))
            assert count_interactions(odd, prover, x) == ref_count_interactions(odd, prover, x)
        for i in range(len(x) + 1):
            got = query_weight(spec, x[:i], x[i:])
            assert got.hex() == ref_query_weight(spec, x[:i], x[i:]).hex(), (x, i)


def test_continuation_mass_is_always_a_float():
    system = build_protocol("pal_sharp:d=2")
    for x in ("01#10", "0#1", ""):
        res = run(system, system.honest_prover, x)
        assert type(res.p_cont) is float
        assert all(type(c) is float for c in res.cont_trace)
    # the last run's state emptied, the case that used to give the int 0
    assert res.cont_trace[-1] == 0.0


# -- committed provers -------------------------------------------------------------

def walk_or_none(prover, x, i_max, comm_alphabet):
    """`ref_check_committed`, or None where its tape set outgrows the cap."""
    try:
        return ref_check_committed(prover, x, i_max, comm_alphabet)
    except ValueError:
        return None


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_committed_matches_the_tape_walk(name):
    system = build_protocol(name)
    spec = system.verifier
    every = inputs(spec.input_alphabet, 4)
    # the identity and erase-all provers ignore x, so one input per length,
    # which fixes the round limit, decides them
    one_per_length = [spec.input_alphabet[0] * n for n in range(5)]
    finished = 0
    for prover, xs in ((system.honest_prover, every), (IdentityProver(), one_per_length),
                       (EraseAllProver(), one_per_length)):
        for x in xs:
            i_max = default_t_max(spec, x)
            walked = walk_or_none(prover, x, i_max, spec.comm_alphabet)
            if walked is not None:
                finished += 1
                assert prover.committed(x, i_max) == walked, (
                    prover.describe()["kind"], x)
    assert finished


def test_committed_matches_the_tape_walk_on_scripted_and_criterion_6_provers(odd):
    # the script of both `chatty` (test_runtime) and `bad` (test_provers)
    writer = ScriptedProver(script_builder=lambda x: {1: {BLANK: "a"}}, name="chatty")
    for x, i_max, want in (("10", 10, False), ("", 2, False), ("", 0, True)):
        assert writer.committed(x, i_max) is ref_check_committed(
            writer, x, i_max, (BLANK, "a")) is want
    for x in ("", "10", "0101", "11111111"):
        i_max = 2 * (len(x) + 2) ** 2
        assert odd.honest_prover.committed(x, i_max) is True
        assert ref_check_committed(odd.honest_prover, x, i_max,
                                   odd.verifier.comm_alphabet) is True


def random_table(rng, comm, memory, steps):
    """A seeded injective table: each step maps a random set of (cell, memory)
    pairs onto a random permutation of themselves."""
    pairs = [(g, m) for g in comm for m in memory]
    entries = {}
    for i in range(1, steps + 1):
        chosen = [pairs[j] for j in rng.choice(len(pairs), rng.integers(0, len(pairs) + 1),
                                               replace=False)]
        for src, dst in zip(chosen, rng.permutation(len(chosen))):
            entries[(i, *src)] = chosen[dst]
    return ClassicalProverTable(entries=entries)


def random_permutation_prover(rng, comm, tape, rounds):
    dim = len(dense_basis(comm, tape, 1))
    mats = [complete_permutation(dict(enumerate(rng.permutation(dim).tolist())), dim)
            for _ in range(rounds)]
    return DenseProver(comm, tape, 1, mats)


def test_committed_never_accepts_what_the_tape_walk_refuses():
    rng = np.random.default_rng(27)
    comm = (BLANK, "a", "b")
    verdicts = set()
    for _ in range(200):
        steps = int(rng.integers(1, 5))
        provers = [TableProver(random_table(rng, comm, ("m0", "m1", "m2"), steps)),
                   random_permutation_prover(rng, comm, (BLANK, "a"), steps)]
        for prover in provers:
            for i_max in range(steps + 2):
                walked = walk_or_none(prover, "x", i_max, comm)
                decided = prover.committed("x", i_max)
                assert not (decided and walked is False), (prover.describe(), i_max)
                verdicts.add((decided, walked))
    # both agreeing verdicts occur, and so do refusals the walk would pass
    assert {(True, True), (False, False), (False, True)} <= verdicts
