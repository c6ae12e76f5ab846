import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from qipsim import adversary
from qipsim.adversary import (REPLAY_TOL, AdversaryBudget, AdversaryReport,
                              _ClassicalSearch, _table_from_description,
                              _table_to_dense, best_classical_prover,
                              prover_from_description, replay,
                              search_quantum_prover)
from qipsim.linalg import ContractViolation, check_unitary
from qipsim.protocols import build_protocol
from qipsim.provers import DenseProver
from qipsim.provers import IdentityProver
from qipsim.qfa import BLANK, LEFT_END, HeadModel, QfaSpec, validate_and_complete
from qipsim.runtime import QipSystem, default_t_max, run
from tests.conftest import strings


def test_pal1_classical_soundness_bound(pal1):
    rep = best_classical_prover(pal1, "0#1",
                                AdversaryBudget(memory_states=2, steps=12))
    assert rep.is_exhaustive
    assert rep.best_p_acc <= 0.5 + 1e-6


def test_pal1_classical_finds_honest_on_member(pal1):
    rep = best_classical_prover(pal1, "0#0",
                                AdversaryBudget(memory_states=2, steps=12))
    assert rep.best_p_acc == pytest.approx(1.0, abs=1e-9)


def test_zero_public_soundness_certainty(zero_public):
    rep = best_classical_prover(zero_public, "1",
                                AdversaryBudget(memory_states=2, steps=4))
    assert rep.best_p_acc == pytest.approx(0.0, abs=1e-9)


def test_replay_reproduces_reported_probability(pal1, center2):
    for system, x, steps in ((pal1, "0#1", 12), (center2, "001", 40)):
        rep = best_classical_prover(system, x,
                                    AdversaryBudget(memory_states=2, steps=steps))
        assert replay(system, x, rep) == pytest.approx(rep.best_p_acc, abs=1e-9)


def test_quantum_zero_iterations_identity_seed(zero_public):
    budget = AdversaryBudget(memory_states=1, steps=4, restarts=2, iterations=0, seed=3)
    rep = search_quantum_prover(zero_public, "0", c=1, budget=budget)
    identity_p = run(zero_public, IdentityProver(), "0").p_acc
    assert rep.best_p_acc >= identity_p
    assert not rep.is_exhaustive


def test_quantum_at_least_classical(pal1):
    budget = AdversaryBudget(memory_states=2, steps=12, restarts=3,
                             iterations=25, seed=11)
    classical = best_classical_prover(pal1, "0#1", budget)
    quantum = search_quantum_prover(pal1, "0#1", c=1, budget=budget,
                                    classical_seed=classical)
    assert quantum.best_p_acc >= classical.best_p_acc - 1e-12


def test_quantum_search_respects_paper_cap(pal1):
    budget = AdversaryBudget(memory_states=2, steps=12, restarts=6,
                             iterations=40, seed=5)
    rep = search_quantum_prover(pal1, "0#1", c=1, budget=budget)
    assert rep.best_p_acc <= 0.5 + 1e-3


def test_center_classical_bound(center2):
    rep = best_classical_prover(center2, "001",
                                AdversaryBudget(memory_states=2, steps=40))
    assert rep.is_exhaustive
    assert rep.best_p_acc <= 0.5 + 1e-6


def test_center_quantum_search_capped_by_branch_timing(center2):
    budget = AdversaryBudget(memory_states=2, steps=40, restarts=3,
                             iterations=20, seed=13)
    rep = search_quantum_prover(center2, "001", c=1, budget=budget)
    assert rep.best_p_acc <= 0.5 + 1e-3


def test_center_three_branches_tighter_bound():
    import qipsim as q
    system = q.center_protocol(3)
    for x in ("001", "100"):
        rep = best_classical_prover(system, x,
                                    AdversaryBudget(memory_states=2, steps=50))
        assert rep.is_exhaustive
        assert rep.best_p_acc <= 1 / 3 + 1e-6


def test_quantum_replay_of_dense_strategy(pal1):
    budget = AdversaryBudget(memory_states=2, steps=12, restarts=3,
                             iterations=15, seed=9)
    rep = search_quantum_prover(pal1, "0#1", c=1, budget=budget)
    assert replay(pal1, "0#1", rep) == pytest.approx(rep.best_p_acc, abs=1e-9)


def test_committed_only_search(odd):
    rep = best_classical_prover(
        odd, "11", AdversaryBudget(memory_states=2, steps=5, committed_only=True))
    assert rep.best_p_acc == pytest.approx(0.0, abs=1e-9)


def test_node_cap_marks_non_exhaustive(pal2):
    rep = best_classical_prover(pal2, "01#11",
                                AdversaryBudget(memory_states=2, steps=20, node_cap=3))
    assert not rep.is_exhaustive


def test_suite_relative_soundness_for_certainty_builtins():
    import qipsim as q
    from qipsim.protocols import build_protocol
    from qipsim.runtime import default_t_max
    from qipsim.tiling import all_strings

    for name in ("rfa_even_a", "rfa_all_a", "npfa_single_a", "npfa_choice"):
        system = build_protocol(name)
        _a, b = system.claimed_bounds
        for x in all_strings(system.verifier.input_alphabet, 4):
            if system.member(x):
                continue
            steps = min(default_t_max(system.verifier, x), 40)
            rep = best_classical_prover(
                system, x, AdversaryBudget(memory_states=2, steps=steps))
            assert rep.best_p_acc <= 1 - b + 1e-3, (name, x, rep.best_p_acc)


def test_sufficient_dense_cells_bound(zero_public):
    from qipsim.provers import sufficient_dense_cells
    c = sufficient_dense_cells(zero_public.verifier, 4)
    base = len(zero_public.verifier.prover_alphabet)
    need = (len(zero_public.verifier.states)
            * len(zero_public.verifier.comm_alphabet) * 6)
    assert base ** c >= need > base ** (c - 1)


def test_deterministic_given_seed(pal1):
    budget = AdversaryBudget(memory_states=2, steps=12, restarts=2,
                             iterations=10, seed=21)
    a = search_quantum_prover(pal1, "0#1", c=1, budget=budget)
    b = search_quantum_prover(pal1, "0#1", c=1, budget=budget)
    assert a.best_p_acc == b.best_p_acc
    assert a.best_strategy == b.best_strategy


@pytest.mark.parametrize("x", ["0#1", "1#0", "01#0", "0#11", "10#00", "00#1",
                               "0#0", "01#10"])
def test_classical_seed_matrices_are_unitary(pal2, x):
    steps = 2 * (len(x) + 2)
    rep = best_classical_prover(pal2, x, AdversaryBudget(memory_states=2, steps=steps))
    spec = pal2.verifier
    seed = _table_to_dense(_table_from_description(rep.best_strategy),
                           spec.comm_alphabet, spec.prover_alphabet, 1,
                           min(steps, default_t_max(spec, x)))
    assert all(check_unitary(m, 1e-9) for m in seed.matrices)
    assert run(pal2, seed, x).p_acc == pytest.approx(rep.best_p_acc, abs=1e-9)


def test_replay_refuses_a_non_unitary_round_matrix():
    shear = np.eye(4, dtype=complex)
    shear[0, 1] = 1.0
    desc = DenseProver(("#", "a"), ("#", "a"), 1, [np.eye(4), shear]).describe()
    with pytest.raises(ContractViolation, match="round 2"):
        prover_from_description(desc)
    desc["matrices"].pop()
    assert isinstance(prover_from_description(desc), DenseProver)


class _PermutationSearch(_ClassicalSearch):
    """The classical search over every injective map, without orbits."""

    def _assignments(self, state, pairs):
        if self.budget.committed_only:
            blank_idx = [i for i, (g, _m) in enumerate(pairs) if g == BLANK]
            for combo in itertools.permutations(self.targets, len(pairs)):
                if all(combo[i][0] == BLANK for i in blank_idx):
                    yield combo
        else:
            yield from itertools.permutations(self.targets, len(pairs))


def _oracle_cases(name):
    """(system, inputs, steps, committed_only) of one oracle comparison."""
    if name == "upal:N=2":
        return build_protocol(name), strings("01", 3), 9, False
    if name == "upal:N=3":
        return build_protocol(name), strings("01", 2), 8, False
    if name == "center:N=2":
        system = build_protocol(name)
        return system, [x for x in strings("01", 5)
                        if len(x) % 2 == 1 and not system.member(x)], 60, False
    if name == "pal_sharp:d=2":
        return build_protocol(name), ["0#1", "1#0", "01#0", "0#11"], None, False
    return build_protocol("odd"), ["11"], 5, True


@pytest.mark.parametrize("name", ["upal:N=2", "upal:N=3", "center:N=2",
                                  "pal_sharp:d=2", "odd-committed"])
def test_orbit_search_matches_full_enumeration(monkeypatch, name):
    system, inputs, steps, committed_only = _oracle_cases(name)
    for x in inputs:
        budget = AdversaryBudget(memory_states=2, steps=steps or 2 * (len(x) + 2),
                                 committed_only=committed_only)
        orbits = best_classical_prover(system, x, budget)
        with monkeypatch.context() as m:
            m.setattr(adversary, "_ClassicalSearch", _PermutationSearch)
            full = best_classical_prover(system, x, budget)
        assert orbits.best_p_acc.hex() == full.best_p_acc.hex(), x
        assert orbits.strategies_tested == full.strategies_tested, x
        assert orbits.best_strategy == full.best_strategy, x
        assert orbits.is_exhaustive and full.is_exhaustive, x


@pytest.mark.parametrize("k", [1, 2, 3])
def test_orbit_enumeration_keeps_the_first_map_of_each_orbit(k):
    search = _ClassicalSearch(build_protocol("upal:N=2"), "", AdversaryBudget())
    search.targets = search.targets[:7]
    classes = [[0, 3, 4], [1], [2, 6], [5]]
    class_of = {i: c for c, members in enumerate(classes) for i in members}
    firsts: dict = {}
    for combo in itertools.permutations(range(7), k):
        firsts.setdefault(tuple(class_of[i] for i in combo), combo)
    expected = [tuple(search.targets[i] for i in combo) for combo in firsts.values()]
    assert list(search._orbit_firsts(classes, k)) == expected


def test_interchangeable_targets_share_a_class(upal4):
    search = _ClassicalSearch(upal4, "1", AdversaryBudget(memory_states=2, steps=7))
    _acc, state = search._verifier_round(
        {(upal4.verifier.initial, 0, BLANK, "m0"): 1.0 + 0j})
    classes = search._target_classes(state)
    assert len(classes) < len(search.targets)
    for members in classes:
        assert len({search.targets[i][1] for i in members}) == 1
        assert len({search.targets[i][0] == BLANK for i in members}) == 1


def test_upal4_steps7_search_finishes(monkeypatch, upal4):
    # count the verifier rounds made after the top-level _value returns
    rounds = {"after": 0, "done": False}
    value, verifier_round = _ClassicalSearch._value, _ClassicalSearch._verifier_round

    def top_value(self, state, r):
        out = value(self, state, r)
        rounds["done"] |= r == 1
        return out

    def counted_round(self, state):
        rounds["after"] += rounds["done"]
        return verifier_round(self, state)

    monkeypatch.setattr(_ClassicalSearch, "_value", top_value)
    monkeypatch.setattr(_ClassicalSearch, "_verifier_round", counted_round)
    rep = best_classical_prover(upal4, "1", AdversaryBudget(memory_states=2, steps=7))
    assert rep.is_exhaustive
    assert rep.best_p_acc == 0.25
    assert replay(upal4, "1", rep) == pytest.approx(rep.best_p_acc, abs=REPLAY_TOL)
    # the table is read in one walk, one verifier round per table round
    assert rounds["after"] <= 7
    # a search whose best is 0 returns the identity table
    zero = best_classical_prover(build_protocol("upal:N=2"), "0",
                                 AdversaryBudget(memory_states=2, steps=9))
    assert zero.best_p_acc == 0.0
    assert zero.best_strategy["entries"] == {}


def test_proportional_continuations_are_searched_apart():
    # writing a or b leaves the same continuation up to mass (0.2 vs 0.8)
    s2, s8 = math.sqrt(0.2), math.sqrt(0.8)
    spec = QfaSpec(
        name="proportional", non_halting=("s", "w", "t"), accepting=("yes",),
        rejecting=("r",), initial="s", input_alphabet=("0",),
        comm_alphabet=(BLANK, "a", "b"), prover_alphabet=(BLANK, "a", "b"),
        head_model=HeadModel.TWO_WAY,
        delta={("s", LEFT_END, BLANK): (("w", BLANK, 0, 1.0),),
               ("w", LEFT_END, "a"): (("t", BLANK, 0, s2), ("r", BLANK, 0, s8)),
               ("w", LEFT_END, "b"): (("t", BLANK, 0, -s8), ("r", BLANK, 0, s2)),
               ("t", LEFT_END, BLANK): (("yes", BLANK, 0, 1.0),)})
    completed, report = validate_and_complete(spec)
    assert report.ok, report.violations
    system = QipSystem(name="proportional", verifier=completed,
                       honest_prover=IdentityProver(), language=lambda x: False,
                       claimed_bounds=(1.0, 0.0))
    rep = best_classical_prover(system, "", AdversaryBudget(memory_states=2, steps=4))
    assert rep.best_p_acc == pytest.approx(0.8, abs=REPLAY_TOL)
    assert rep.is_exhaustive
    assert replay(system, "", rep) == pytest.approx(rep.best_p_acc, abs=REPLAY_TOL)


def test_dense_strategy_replays_from_json(pal2):
    identity = AdversaryReport(best_p_acc=run(pal2, IdentityProver(), "0#1").p_acc,
                               best_strategy={"kind": "identity"},
                               strategies_tested=0, is_exhaustive=False)
    budget = AdversaryBudget(restarts=3, iterations=15, seed=0)
    rep = search_quantum_prover(pal2, "0#1", c=1, budget=budget,
                                classical_seed=identity)
    assert rep.best_strategy["kind"] == "dense"
    desc = json.loads(json.dumps(rep.best_strategy))
    assert isinstance(prover_from_description(desc), DenseProver)
    decoded = dataclasses.replace(rep, best_strategy=desc)
    assert replay(pal2, "0#1", decoded) == pytest.approx(rep.best_p_acc, abs=REPLAY_TOL)
