"""The operator-form dense-prover evaluator against the dict engine.

`runtime.run` is the oracle: for random dense provers, `DenseRun` must give
its masses and round count.  A resumed climb move must give the very floats
of a full pass.
"""
import functools

import numpy as np
import pytest

from qipsim.adversary import DENSE_DIM_CAP, _random_unitary, dense_dimension
from qipsim.protocols import BUILTIN, build_protocol
from qipsim.provers import DenseProver
from qipsim.runtime import DenseRun, RunError, run
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
                       [_random_unitary(rng, dim) for _ in range(rounds)])


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
            got, want = dense_run.run(prover), run(system, prover, x)
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
        got, want = DenseRun(la_mo, x, 1).run(prover), run(la_mo, prover, x)
        assert (got.p_acc, got.p_rej, got.p_cont) == pytest.approx(
            (want.p_acc, want.p_rej, want.p_cont), abs=1e-12), x


def test_dense_run_refuses_a_run_that_loses_mass(odd):
    shrink = 0.5 * np.eye(6, dtype=complex)
    prover = DenseProver(odd.verifier.comm_alphabet, odd.verifier.prover_alphabet,
                         1, [shrink])
    with pytest.raises(RunError, match="conservation"):
        run(odd, prover, "11")
    with pytest.raises(RunError, match="conservation"):
        DenseRun(odd, "11", 1).run(prover)


def test_dense_run_refuses_a_prover_of_other_shape(odd):
    wrong = DenseProver(odd.verifier.comm_alphabet, odd.verifier.prover_alphabet,
                        2, [])
    with pytest.raises(ValueError, match="do not match"):
        DenseRun(odd, "1", 1).run(wrong)


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
    current = dense_run.run(_random_prover(system, 1, rounds, rng))
    dim = current.prover.dim
    never_acted = 0
    for step in range(40):
        i0 = step % rounds
        m = _random_unitary(rng, dim) @ current.prover.matrices[i0]
        resumed = dense_run.resume(current, i0, m)
        assert [a is b for a, b in zip(resumed.prover.matrices,
                                       current.prover.matrices)] == [
            i != i0 for i in range(rounds)]
        assert resumed.prover.matrices[i0] is m
        full = dense_run.run(resumed.prover)
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
