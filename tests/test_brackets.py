"""Bracket tests: one tool's result bounds another's on random verifiers.

Neither side needs the true value, so a bug in either tool shows as a broken
inequality.  The verifiers are the seeded `random_one_way_spec` ones, completed,
that halt: those whose table passes the one-way halting check, and the
measure-once ones, which measure once at move n+2.  Every input up to length
3 is tried, with the prover's table budget covering every round.  A failure
names the verifier's seed and the input.
"""
import functools
import random

from qipsim.adversary import REPLAY_TOL, AdversaryBudget, best_classical_prover
from qipsim.provers import IdentityProver
from qipsim.qfa import HeadModel, StructureMode, check_structure, validate_and_complete
from qipsim.runtime import Course, QipSystem, pair_layers, run
from tests.conftest import strings
from tests.test_qfa import random_one_way_spec

SEEDS = range(60)
MAX_LENGTH = 3


@functools.cache
def halting_systems():
    """(seed, system) for each seed whose completed verifier halts."""
    out = []
    for seed in SEEDS:
        spec, _report = validate_and_complete(random_one_way_spec(random.Random(seed)))
        if (spec.head_model is HeadModel.MO_1WAY
                or check_structure(spec, StructureMode.ONE_WAY_HALTING).ok):
            out.append((seed, QipSystem(name=f"random {seed}", verifier=spec,
                                        honest_prover=IdentityProver(), language=None,
                                        claimed_bounds=(1.0, 0.0))))
    return out


def test_most_seeds_give_halting_verifiers():
    assert len(halting_systems()) == 50


def classical_value(system, x, memory):
    report = best_classical_prover(
        system, x, AdversaryBudget(memory_states=memory, steps=len(x) + 2))
    assert report.is_exhaustive
    return report.best_p_acc


def test_more_memory_never_lowers_the_classical_value():
    # memory 3 only up to length 2: at length 3 one verifier (seed 17) takes
    # about 7 s at memory 3
    for seed, system in halting_systems():
        for x in strings(system.verifier.input_alphabet, MAX_LENGTH):
            memories = (1, 2, 3) if len(x) < MAX_LENGTH else (1, 2)
            values = [classical_value(system, x, m) for m in memories]
            for m, (low, high) in enumerate(zip(values, values[1:]), start=1):
                assert low <= high + REPLAY_TOL, (
                    f"seed {seed}, input {x!r}: memory {m} gives {low}, memory {m + 1} {high}")


def test_the_round_limit_covers_the_layers_and_the_runs():
    for seed, system in halting_systems():
        for x in strings(system.verifier.input_alphabet, MAX_LENGTH):
            t_max = Course(system.verifier, x).t_max
            horizon = pair_layers(system, x).horizon
            rounds = run(system, IdentityProver(), x).rounds_executed
            assert horizon is not None and t_max >= horizon - 1 >= rounds, (
                f"seed {seed}, input {x!r}: t_max {t_max}, horizon {horizon}, "
                f"identity run {rounds} rounds")
