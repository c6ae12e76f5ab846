"""The operator-form dense-prover evaluator against the dict engine.

`runtime.run` is the oracle: for random dense provers, `DenseRun` must give
its masses and round count.  A resumed climb move must give the very floats
of a full pass, also when it leaves the state unchanged and runs no round,
and when the next measurement takes its change off and it runs one.  Every
run stays inside the layers of its pair graph and ends before their horizon.
"""
import functools
import itertools
import math

import numpy as np
import pytest

from qipsim import runtime
from qipsim.adversary import DENSE_DIM_CAP, _random_unitaries, dense_dimension
from qipsim.protocols import BUILTIN, build_protocol
from qipsim.provers import (ClassicalProverTable, DenseProver, IdentityProver,
                             ProverStrategy, TableProver, dense_from_table)
from qipsim.qfa import (BLANK, LEFT_END, RIGHT_END, HeadModel, QfaSpec,
                        validate_and_complete)
from qipsim.runtime import DenseRun, QipSystem, RunError, pair_layers, run
from tests.conftest import strings

# The built-ins whose dense prover fits DENSE_DIM_CAP, per tape-cell count.
FITTING = {
    1: ["center", "eraser_end1", "eraser_zero", "la_mo", "odd", "pal_sharp",
        "rfa_all_a", "rfa_even_a", "union_zero_end1", "zero_public"],
    2: ["center", "eraser_end1", "eraser_zero", "la_mo", "odd", "pal_sharp",
        "rfa_all_a", "zero_public"],
}
INPUTS_PER_LENGTH = 2


@functools.lru_cache(maxsize=None)
def _system(name):
    return build_protocol(name)


def _random_prover(system, c, rounds, rng):
    spec = system.verifier
    dim = dense_dimension(spec, c)
    return DenseProver(spec.comm_alphabet, spec.prover_alphabet, c,
                       _random_unitaries(rng, rounds, dim))


def _inputs(system, rng):
    """Up to INPUTS_PER_LENGTH drawn inputs of every length 0..4."""
    words = strings(system.verifier.input_alphabet, 4)
    out = []
    for n in range(5):
        same = [w for w in words if len(w) == n]
        picks = rng.choice(len(same), size=min(INPUTS_PER_LENGTH, len(same)),
                           replace=False)
        out.extend(same[i] for i in sorted(picks))
    return out


def test_fitting_lists_every_builtin_that_fits():
    for c, names in FITTING.items():
        fits = [name for name in sorted(BUILTIN)
                if dense_dimension(_system(name).verifier, c) <= DENSE_DIM_CAP]
        assert names == fits, c


@pytest.mark.parametrize("name, c", [(n, c) for c, names in FITTING.items()
                                     for n in names])
def test_dense_run_matches_run(name, c):
    system = _system(name)
    rng = np.random.default_rng(sum(map(ord, name)) + c)
    for x in _inputs(system, rng):
        dense_run = DenseRun(system, x, c)
        # no matrices, fewer matrices than rounds, and one per round of a
        # one-way run plus one that never acts
        for rounds in (0, 2, len(x) + 3):
            prover = _random_prover(system, c, rounds, rng)
            got, want = dense_run.run(prover.matrices), run(system, prover, x)
            assert got.p_acc == pytest.approx(want.p_acc, abs=1e-12), (x, rounds)
            assert got.p_rej == pytest.approx(want.p_rej, abs=1e-12), (x, rounds)
            assert got.p_cont == pytest.approx(want.p_cont, abs=1e-12), (x, rounds)
            assert got.rounds_executed == want.rounds_executed, (x, rounds)


def test_measure_once_keeps_halting_pairs_until_the_end(la_mo):
    # a measure-once run measures only after verifier move n+2; halting
    # amplitude keeps moving before that, so the restricted operator must
    # carry the halting pairs
    rng = np.random.default_rng(5)
    for x in ("", "a", "aa", "aaa", "aaaa"):
        prover = _random_prover(la_mo, 1, len(x) + 1, rng)
        got, want = DenseRun(la_mo, x, 1).run(prover.matrices), run(la_mo, prover, x)
        assert (got.p_acc, got.p_rej, got.p_cont) == pytest.approx(
            (want.p_acc, want.p_rej, want.p_cont), abs=1e-12), x


def test_measure_once_runs_end_in_one_measurement(la_mo):
    # writing a in round 1 sends the verifier along completion rows that are
    # still in a non-halting state after move n+2; the one measurement there
    # rejects that mass instead of leaving it running
    table = ClassicalProverTable({(1, BLANK, "m0"): ("a", "m0")})
    spec = la_mo.verifier
    matrices = dense_from_table(table, spec.comm_alphabet, spec.prover_alphabet, 1, 3)
    sparse = run(la_mo, TableProver(table), "aa")
    assert (sparse.p_acc, sparse.p_rej, sparse.p_cont) == (0.0, 1.0, 0.0)
    assert sparse.halting_profile == [(4, 0.0, 1.0)]
    assert sparse.cont_trace[-1] == 0.0
    got = DenseRun(la_mo, "aa", 1).run(matrices)
    assert (got.p_acc, got.p_rej, got.p_cont) == pytest.approx((0.0, 1.0, 0.0), abs=1e-12)
    dense = DenseProver(spec.comm_alphabet, spec.prover_alphabet, 1, matrices)
    assert run(la_mo, dense, "aa").p_rej == pytest.approx(1.0, abs=1e-12)


class _Shrink(ProverStrategy):
    """Halves every amplitude it touches: not an isometry."""

    def apply(self, x, i, gamma, y):
        return [(gamma, y, 0.5 + 0j)]


def test_dense_run_refuses_a_run_that_loses_mass(odd):
    # DenseProver refuses a shrinking matrix, so each engine gets its own
    with pytest.raises(RunError, match="conservation"):
        run(odd, _Shrink(), "11")
    with pytest.raises(RunError, match="conservation"):
        DenseRun(odd, "11", 1).run([0.5 * np.eye(6, dtype=complex)])


def test_dense_run_refuses_a_prover_of_other_shape(odd):
    # two tape cells give 18x18 matrices; this run has one cell, so 6x6
    with pytest.raises(ValueError, match="6x6"):
        DenseRun(odd, "1", 1).run([np.eye(6), np.eye(18)])


@pytest.mark.parametrize("name, x, rounds", [
    ("pal_sharp:d=2", "01#1", 12),
    ("pal_sharp:d=2", "1#", 8),
    ("center:N=2", "001", 10),
    ("la_mo", "aaa", 5),
    # one-way: t_max is n+2, so the last matrices never act
    ("odd", "1", 5),
])
def test_resumed_moves_match_full_passes(name, x, rounds):
    system = _system(name)
    rng = np.random.default_rng(len(x) + rounds)
    dense_run = DenseRun(system, x, 1)
    current = dense_run.run(_random_prover(system, 1, rounds, rng).matrices)
    dim = dense_dimension(system.verifier, 1)
    never_acted = 0
    for step in range(40):
        i0 = step % rounds
        m = _random_unitaries(rng, 1, dim)[0] @ current.matrices[i0]
        resumed = dense_run.resume(current, i0, m)
        assert isinstance(resumed.matrices, tuple)
        assert [a is b for a, b in zip(resumed.matrices, current.matrices)] == [
            i != i0 for i in range(rounds)]
        assert resumed.matrices[i0] is m
        full = dense_run.run(resumed.matrices)
        assert resumed.p_acc.hex() == full.p_acc.hex(), (step, i0)
        assert resumed.p_rej.hex() == full.p_rej.hex(), (step, i0)
        assert resumed.p_cont.hex() == full.p_cont.hex(), (step, i0)
        assert resumed.rounds_executed == full.rounds_executed
        if i0 >= current.rounds_executed - 1:
            # the changed matrix never acts: the masses are the current ones
            assert (resumed.p_acc, resumed.saved) == (current.p_acc, current.saved)
            never_acted += 1
        if step % 3 == 0:  # keep some moves, so later ones resume from resumed passes
            current = resumed
    if system.verifier.head_model.one_way:
        assert never_acted > 0


def _givens(m, i, j, theta=0.7, phi=1.3):
    """``m`` with rows i and j rotated in their plane."""
    out = m.copy()
    out[i] = math.cos(theta) * m[i] - math.sin(theta) * np.exp(-1j * phi) * m[j]
    out[j] = math.sin(theta) * np.exp(1j * phi) * m[i] + math.cos(theta) * m[j]
    return out


def _hexes(floats):
    return [None if v is None else v.hex() for v in floats]


def _assert_full_pass(dense_run, resumed):
    """``resumed`` has the floats of a full pass: its masses, per-round
    masses and the running masses of its saved entries; returns the pass."""
    full = dense_run.run(resumed.matrices)
    assert resumed.p_acc.hex() == full.p_acc.hex()
    assert resumed.p_rej.hex() == full.p_rej.hex()
    assert resumed.p_cont.hex() == full.p_cont.hex()
    assert resumed.rounds_executed == full.rounds_executed
    assert [_hexes(m) for m in resumed.masses] == [_hexes(m) for m in full.masses]
    assert ([_hexes(entry[1:4]) for entry in resumed.saved]
            == [_hexes(entry[1:4]) for entry in full.saved])
    assert all(np.array_equal(a[0], b[0]) and np.array_equal(a[4], b[4])
               for a, b in zip(resumed.saved, full.saved, strict=True))
    return full


@pytest.mark.parametrize("name, x, rounds", [
    ("pal_sharp:d=2", "01#00", 14),
    ("pal_sharp:d=1", "0#1", 10),
    ("center:N=2", "001", 12),
])
@pytest.mark.parametrize("start", ["identity", "table"])
def test_a_move_that_leaves_the_state_unchanged_runs_no_round(name, x, rounds, start):
    system = _system(name)
    spec = system.verifier
    dense_run = DenseRun(system, x, 1)
    dim = dense_dimension(spec, 1)
    if start == "identity":
        matrices = [np.eye(dim, dtype=complex) for _ in range(rounds)]
    else:  # a permutation per round, which moves the cell symbol in round 1
        table = ClassicalProverTable({(1, BLANK, "m0"): (spec.comm_alphabet[1], "m1")})
        matrices = dense_from_table(table, spec.comm_alphabet, spec.prover_alphabet, 1,
                                    rounds)
    current = dense_run.run(matrices)
    skipped = resumed_some = 0
    for i0, (state, *_masses, was) in enumerate(current.saved):
        m = current.matrices[i0]
        # rows of m that meet no column the state occupies, and one that does
        occupied = np.any(state.reshape(-1, dim) != 0, axis=0)
        free = [i for i in range(dim) if not np.any(m[i, occupied])]
        busy = [i for i in range(dim) if np.any(m[i, occupied])]
        if len(free) >= 2:
            rotated = _givens(m, free[0], free[1])
            resumed = dense_run.resume(current, i0, rotated)
            # the moved prover with the current pass's masses and saved states
            assert resumed.matrices[i0] is rotated
            assert resumed.saved is current.saved, i0
            assert resumed.p_acc == current.p_acc, i0
            _assert_full_pass(dense_run, resumed)
            skipped += 1
        if free and busy:
            resumed = dense_run.resume(current, i0, _givens(m, busy[0], free[0]))
            assert all(a is b for a, b in zip(resumed.saved[:i0], current.saved)), i0
            assert not np.array_equal(resumed.saved[i0][-1], was), i0
            _assert_full_pass(dense_run, resumed)
            resumed_some += 1
    assert skipped and resumed_some


class _CountedMoves(list):
    """A `DenseRun`'s per-round blocks, counting the verifier rounds that read
    them."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("name, x, rounds, c", [
    ("pal_sharp:d=2", "01#00", 14, 1),
    ("pal_sharp:d=2", "01#00", 14, 0),
    ("pal_sharp:d=1", "0#1", 10, 1),
    ("center:N=2", "001", 11, 1),  # the pass outlasts its matrices
    ("odd", "11", 4, 1),
    ("la_mo", "aa", 4, 1),
])
def test_a_move_whose_change_the_next_measurement_takes_off_runs_one_round(name, x,
                                                                           rounds, c):
    system = _system(name)
    dim = dense_dimension(system.verifier, c)
    dense_run = DenseRun(system, x, c)
    dense_run.moves = moves = _CountedMoves(dense_run.moves)
    current = dense_run.run(_random_prover(system, c, rounds, np.random.default_rng(1)).matrices)
    # the pass stops on PRUNE_TOL, and a rejoined pass must stop there too
    assert len(current.masses) == current.rounds_executed
    assert current.masses[-1][2] < runtime.PRUNE_TOL
    last = len(current.saved) - 1
    rejoined = []
    for i0, (_state, *_masses, was) in enumerate(current.saved):
        for i, j in itertools.combinations(range(dim), 2):
            moves.reads = 0
            resumed = dense_run.resume(current, i0, _givens(current.matrices[i0], i, j))
            reads = moves.reads
            full = _assert_full_pass(dense_run, resumed)
            if np.array_equal(full.saved[i0][-1], was):
                assert reads == 0
                continue
            # the state the next verifier move leaves running is the current one
            same = (i0 < min(last, len(full.saved) - 1)
                    and np.array_equal(full.saved[i0 + 1][0], current.saved[i0 + 1][0]))
            assert (reads == 1) == (same or resumed.rounds_executed == i0 + 2), (i0, i, j)
            if same:
                assert resumed.rounds_executed == current.rounds_executed
                rejoined.append((i0, resumed))
    if system.verifier.head_model is HeadModel.MO_1WAY:
        # nothing is measured before move n+2, so no change is taken off
        assert not rejoined
        return
    assert rejoined
    assert any(i0 + 1 == last for i0, _resumed in rejoined)  # at the last prover round
    # moves resumed from a rejoined pass, before, at and after the rejoin
    for i0, resumed in rejoined[::7]:
        for k in {i0, i0 + 1, last}:
            _assert_full_pass(dense_run, dense_run.resume(
                resumed, k, _givens(resumed.matrices[k], 0, dim - 1)))


# ---------------------------------------------------------------------------
# Per-round layers of the pair graph
# ---------------------------------------------------------------------------

def _rounds_in_layers(monkeypatch, system, prover, x, layers):
    """Run ``prover`` on ``x``, asserting that each round's support lies in
    that round's layer; returns the run's result."""
    spec = system.verifier
    width = len(x) + 2
    supports = []

    class Recording(runtime.Course):
        __slots__ = ()

        def step(self, state, r):
            supports.append({spec.states.index(q) * width + k for (q, k, _g, _y) in state})
            return super().step(state, r)

    with monkeypatch.context() as m:
        m.setattr(runtime, "Course", Recording)
        res = run(system, prover, x)
    assert len(supports) == res.rounds_executed
    for r, support in enumerate(supports, start=1):
        assert support <= set(layers.layer(r).tolist()), (x, r)
    return res


@pytest.mark.parametrize("name", sorted(BUILTIN))
def test_runs_stay_in_their_layers_and_end_by_the_horizon(monkeypatch, name):
    system = _system(name)
    spec = system.verifier
    rng = np.random.default_rng(sum(map(ord, name)))
    fits = dense_dimension(spec, 1) <= DENSE_DIM_CAP
    for x in strings(spec.input_alphabet, 3):
        layers = pair_layers(system, x)
        # no built-in verifier can loop, so every run ends before the horizon
        assert layers.horizon == len(layers.layers) + 1 and layers.loop is None, x
        if spec.head_model.one_way:
            assert layers.horizon <= len(x) + 3, x
        provers = [system.honest_prover, IdentityProver()]
        if fits:
            provers.append(_random_prover(system, 1, layers.horizon, rng))
        for prover in provers:
            res = _rounds_in_layers(monkeypatch, system, prover, x, layers)
            assert res.rounds_executed < layers.horizon, (x, prover)
        assert not len(layers.layer(layers.horizon)), x


def _ring():
    """A two-way verifier whose head can circle the tape forever.

    On a blank cell the head moves right and half the amplitude accepts; on
    ``x`` it moves left and half rejects.  Each round halves the continuing
    mass, so runs stop at PRUNE_TOL, long before ``t_max``.
    """
    h = 1 / math.sqrt(2)
    delta = {}
    for sigma in (LEFT_END, "a", RIGHT_END):
        delta[("q", sigma, BLANK)] = (("q", BLANK, 1, h), ("acc", BLANK, 0, h))
        delta[("acc", sigma, BLANK)] = (("q", BLANK, 1, h), ("acc", BLANK, 0, -h))
        delta[("q", sigma, "x")] = (("q", "x", -1, h), ("rej", "x", 0, h))
        delta[("rej", sigma, "x")] = (("q", "x", -1, h), ("rej", "x", 0, -h))
        delta[("acc", sigma, "x")] = (("acc", "x", 0, 1.0),)
        delta[("rej", sigma, BLANK)] = (("rej", BLANK, 0, 1.0),)
    spec = QfaSpec(name="ring", non_halting=("q",), accepting=("acc",),
                   rejecting=("rej",), initial="q", input_alphabet=("a",),
                   comm_alphabet=(BLANK, "x"), prover_alphabet=(BLANK,),
                   head_model=HeadModel.TWO_WAY, delta=delta)
    spec, report = validate_and_complete(spec)
    assert report.ok and not report.completed_transitions
    return QipSystem(name="ring", verifier=spec, honest_prover=IdentityProver(),
                     language=lambda x: False, claimed_bounds=(0.5, 0.5))


def test_a_graph_with_a_cycle_has_no_horizon(monkeypatch):
    system = _ring()
    rng = np.random.default_rng(3)
    for x in ("", "a", "aa", "aaa"):
        layers = pair_layers(system, x)
        assert layers.horizon is None and layers.loop is not None, x
        dense_run = DenseRun(system, x, 1)
        for rounds in (0, 2, 60):
            prover = _random_prover(system, 1, rounds, rng)
            got = dense_run.run(prover.matrices)
            want = _rounds_in_layers(monkeypatch, system, prover, x, layers)
            # the run outlasts the stored layers, so later rounds cycle through them
            assert want.rounds_executed > len(layers.layers), (x, rounds)
            assert got.p_acc == pytest.approx(want.p_acc, abs=1e-12), (x, rounds)
            assert got.p_rej == pytest.approx(want.p_rej, abs=1e-12), (x, rounds)
            assert got.p_cont == pytest.approx(want.p_cont, abs=1e-12), (x, rounds)
            assert got.rounds_executed == want.rounds_executed, (x, rounds)
