import dataclasses
import itertools
import json
import math
from bisect import insort

import numpy as np
import pytest

from qipsim import adversary
from qipsim.adversary import (REPLAY_TOL, AdversaryBudget, AdversaryReport,
                              _ClassicalSearch, _random_unitaries,
                              best_classical_prover, dense_dimension, replay,
                              search_quantum_prover)
from qipsim.linalg import ContractViolation, DomainError, check_unitary
from qipsim.protocols import build_protocol
from qipsim.provers import (ClassicalProverTable, DenseProver, IdentityProver,
                            ReversibilityError, TableProver, dense_from_table,
                            from_description)
from qipsim.qfa import (BLANK, LEFT_END, RIGHT_END, AlphabetError, HeadModel, QfaSpec,
                        validate_and_complete)
from qipsim.runtime import Course, DenseRun, QipSystem, default_t_max, run
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


def _climbed(budget):
    # the identity run, then per restart its start and one move per iteration
    return 1 + budget.restarts * (budget.iterations + 1)


def test_quantum_zero_iterations_identity_seed(zero_public):
    budget = AdversaryBudget(memory_states=1, steps=4, restarts=2, iterations=0, seed=3)
    rep = search_quantum_prover(zero_public, "0", c=1, budget=budget)
    identity_p = run(zero_public, IdentityProver(), "0").p_acc
    assert rep.best_p_acc >= identity_p
    assert not rep.is_exhaustive
    assert rep.strategies_tested == _climbed(budget)


def test_quantum_at_least_classical(pal1):
    budget = AdversaryBudget(memory_states=2, steps=12, restarts=3,
                             iterations=25, seed=11)
    classical = best_classical_prover(pal1, "0#1", budget)
    quantum = search_quantum_prover(pal1, "0#1", c=1, budget=budget,
                                    classical_seed=classical)
    assert quantum.best_p_acc >= classical.best_p_acc - 1e-12
    assert quantum.strategies_tested == _climbed(budget)


def test_quantum_search_respects_paper_cap(pal1):
    budget = AdversaryBudget(memory_states=2, steps=12, restarts=6,
                             iterations=40, seed=5)
    rep = search_quantum_prover(pal1, "0#1", c=1, budget=budget)
    assert rep.best_p_acc <= 0.5 + 1e-3
    assert rep.strategies_tested == _climbed(budget)


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
    assert rep.strategies_tested == _climbed(budget)


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
    assert rep.strategies_tested == _climbed(budget)


def test_committed_only_search(odd):
    rep = best_classical_prover(
        odd, "11", AdversaryBudget(memory_states=2, steps=5, committed_only=True))
    assert rep.best_p_acc == pytest.approx(0.0, abs=1e-9)


def test_committed_only_tables_are_committed_provers(odd):
    center = build_protocol("center:N=2")
    tables = {}
    for committed_only in (False, True):
        budget = AdversaryBudget(memory_states=2, steps=40, committed_only=committed_only)
        rep = best_classical_prover(center, "001", budget)
        tables[committed_only] = (rep.best_p_acc, rep.best_strategy["entries"],
                                  from_description(rep.best_strategy).committed("001", 40))
    loose_acc, loose_entries, loose_committed = tables[False]
    assert loose_acc == pytest.approx(0.5, abs=1e-9)
    assert loose_entries["11|#|m0"] == ["1", "m0"] and not loose_committed
    assert tables[True] == (pytest.approx(0.0, abs=1e-9), {}, True)
    for x in strings("01", 8):  # criterion 6's searches
        steps = len(x) + 2
        rep = best_classical_prover(odd, x, AdversaryBudget(memory_states=2, steps=steps,
                                                            committed_only=True))
        assert from_description(rep.best_strategy).committed(x, steps), x


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


def test_deterministic_given_seed(pal1):
    budget = AdversaryBudget(memory_states=2, steps=12, restarts=2,
                             iterations=10, seed=21)
    a = search_quantum_prover(pal1, "0#1", c=1, budget=budget)
    b = search_quantum_prover(pal1, "0#1", c=1, budget=budget)
    assert a.best_p_acc == b.best_p_acc
    assert a.best_strategy == b.best_strategy
    assert a.strategies_tested == b.strategies_tested == _climbed(budget)


@pytest.mark.parametrize("x", ["0#1", "1#0", "01#0", "0#11", "10#00", "00#1",
                               "0#0", "01#10"])
def test_classical_seed_matrices_are_unitary(pal2, x):
    steps = 2 * (len(x) + 2)
    rep = best_classical_prover(pal2, x, AdversaryBudget(memory_states=2, steps=steps))
    spec = pal2.verifier
    seed = dense_from_table(from_description(rep.best_strategy).table,
                            spec.comm_alphabet, spec.prover_alphabet, 1,
                            min(steps, default_t_max(spec, x)))
    assert all(check_unitary(m, 1e-9) for m in seed)
    prover = DenseProver(spec.comm_alphabet, spec.prover_alphabet, 1, seed)
    assert run(pal2, prover, x).p_acc == pytest.approx(rep.best_p_acc, abs=1e-9)


def test_replay_refuses_a_non_unitary_round_matrix():
    desc = DenseProver(("#", "a"), ("#", "a"), 1, [np.eye(4), np.eye(4)]).describe()
    desc["matrices"][1][1] = [1.0, 0.0]  # round 2 gets a shear: entry (0, 1) is 1
    with pytest.raises(ContractViolation, match="round 2"):
        from_description(desc)
    desc["matrices"].pop()
    assert isinstance(from_description(desc), DenseProver)


@pytest.mark.parametrize("seeded, built", [("table", 0), ("unscored table", 1),
                                            ("identity", 1)])
def test_a_search_builds_a_dense_prover_for_its_result_only(monkeypatch, seeded, built):
    # the climb passes round matrices to DenseRun, the classical seed's
    # permutations too; only a dense result becomes a DenseProver, checked
    # when it is made
    system = build_protocol("pal_sharp:d=2")
    budget = AdversaryBudget(memory_states=2, steps=14, restarts=3, iterations=15, seed=7)
    classical = best_classical_prover(system, "01#00", budget)
    if seeded == "unscored table":
        classical = dataclasses.replace(classical, best_p_acc=0.0)
    elif seeded == "identity":
        classical = AdversaryReport(best_p_acc=0.0, best_strategy={"kind": "identity"},
                                    strategies_tested=0, is_exhaustive=False)
    made = []
    init = DenseProver.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(DenseProver, "__init__", counting)
    rep = search_quantum_prover(system, "01#00", c=1, budget=budget, classical_seed=classical)
    assert rep.strategies_tested == _climbed(budget)
    assert rep.best_strategy["kind"] == ("classical_table" if seeded == "table" else "dense")
    assert len(made) == built


def test_replay_refuses_a_non_injective_classical_table(pal1):
    desc = {"kind": "classical_table", "initial_memory": "m0",
            "entries": {f"3|{g}|m0": ["1", "m0"] for g in ("#", "0", "1")}}
    with pytest.raises(ReversibilityError, match="both map to"):
        from_description(desc)
    report = AdversaryReport(best_p_acc=0.0, best_strategy=desc,
                             strategies_tested=0, is_exhaustive=False)
    with pytest.raises(ReversibilityError):
        replay(pal1, "0#1", report)


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
    if name in ("la_mo", "npfa_coin", "npfa_choice"):
        return build_protocol(name), strings("a", 4), None, False
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


def _unpruned_orbit_firsts(targets, classes, k):
    """The first k-tuple of ``targets`` in ``itertools.permutations`` order of
    each orbit under swaps within ``classes``, in that order; no memory is
    pruned.  An orbit's first map uses only the lowest members of each class
    (swapping in a lower unused one would give an earlier map of the orbit),
    so permuting the k lowest of each class finds the same maps in the same
    order."""
    class_of = {i: c for c, members in enumerate(classes) for i in members}
    lowest = sorted(i for members in classes for i in sorted(members)[:k])
    firsts: dict = {}
    for combo in itertools.permutations(lowest, k):
        firsts.setdefault(tuple(class_of[i] for i in combo), combo)
    return [tuple(targets[i] for i in combo) for combo in firsts.values()]


def _first_use_orbit_firsts(search, classes, k, blank_at=(), prefix=(), fresh=0):
    """`_ClassicalSearch._orbit_firsts` without dead masks: the orbit firsts
    in first-use order, of those the ones that send each position of
    ``blank_at`` to a blank target, in ``itertools.permutations`` order.
    The reference that the dominance rule reduces."""
    targets, rank, blank = search.targets, search.target_rank, search.target_blank
    p = len(prefix)
    for pos, members in enumerate(classes):
        i = members[0]
        if rank[i] > fresh or p in blank_at and not blank[i]:
            continue
        combo = prefix + (targets[i],)
        if p + 1 == k:
            yield combo
            continue
        rest = classes[:pos] + classes[pos + 1:]
        if len(members) > 1:
            insort(rest, members[1:])
        yield from _first_use_orbit_firsts(search, rest, k, blank_at, combo,
                                           fresh + (rank[i] == fresh))


class _UndominatedSearch(_ClassicalSearch):
    """The classical search over one map per orbit, without the dominance
    rule at dead targets."""

    def _assignments(self, state, pairs):
        blank_at = frozenset(p for p, (g, _m) in enumerate(pairs)
                             if g == BLANK) if self.budget.committed_only else ()
        return _first_use_orbit_firsts(self, self._target_classes(state), len(pairs), blank_at)


def _apply_table(state, mapped):
    """The prover move that sends each (gamma, memory) pair as ``mapped``."""
    moved: dict = {}
    for (q, k, g, m), amp in state.items():
        g2, m2 = mapped[(g, m)]
        lbl = (q, k, g2, m2)
        v = moved.get(lbl)
        moved[lbl] = amp if v is None else v + amp
    return moved


class _RoundSearch(_ClassicalSearch):
    """The classical search with each prover move applied to the state and
    the verifier round made by `runtime.Course.step`, without the move table."""

    def _move_rounds(self, state, pairs, r):
        for combo in self._assignments(state, pairs):
            moved = _apply_table(state, dict(zip(pairs, combo)))
            acc, _rej, cont, mass = self.course.step(moved, r)
            yield combo, acc, cont, mass


def _bits_of(move_rounds):
    return [(combo, acc.hex(), mass.hex(),
             [(lbl, a.real.hex(), a.imag.hex()) for lbl, a in cont.items()])
            for combo, acc, cont, mass in move_rounds]


def _assert_drops_repeats(reference, kept, outcome):
    """``kept`` is ``reference`` less maps that repeat the ``outcome`` of an
    earlier kept map: a subsequence of it in which every dropped map's
    outcome equals a kept map's before it, so the first map of every outcome
    is kept.  Returns the number dropped."""
    remaining = iter(reference)
    assert all(combo in remaining for combo in kept)  # a subsequence, in order
    kept_set, kept_outcomes = set(kept), set()
    for combo in reference:
        if combo in kept_set:
            kept_outcomes.add(outcome(combo))
        else:
            assert outcome(combo) in kept_outcomes, combo
    return len(reference) - len(kept)


def _step_outcome(search, state, pairs, r=2):
    """A map's `_bits_of` at ``search``'s node ``state``, less the map, made by
    moving the state and one `Course.step`, not by the move table."""
    def outcome(combo):
        acc, _rej, cont, mass = search.course.step(
            _apply_table(state, dict(zip(pairs, combo))), r)
        [(_combo, acc, mass, cont)] = _bits_of([(combo, acc, cont, mass)])
        return acc, mass, tuple(cont)
    return outcome


@pytest.mark.parametrize("name, memory", [
    ("upal:N=2", 2), ("upal:N=3", 2), ("center:N=2", 2), ("pal_sharp:d=2", 2),
    ("odd-committed", 2), ("upal:N=4", 2), ("upal:N=4", 3),
    # measure-once, so no target is left out; and two measure-many verifiers
    # with declared rejecting states (crej, brej) besides the completion's
    ("la_mo", 2), ("la_mo", 3), ("npfa_coin", 2), ("npfa_choice", 2)])
def test_move_table_gives_the_floats_of_moves_through_round(monkeypatch, name, memory):
    if name == "upal:N=4":
        system, inputs, steps, committed_only = build_protocol(name), ["1"], 7, False
    else:
        system, inputs, steps, committed_only = _oracle_cases(name)
    for x in inputs:
        budget = AdversaryBudget(memory_states=memory, steps=steps or 2 * (len(x) + 2),
                                 committed_only=committed_only)
        nodes = []

        class Recording(_ClassicalSearch):
            def _move_rounds(self, state, pairs, r):
                nodes.append((state, pairs, r))
                return super()._move_rounds(state, pairs, r)

        with monkeypatch.context() as m:
            m.setattr(adversary, "_ClassicalSearch", Recording)
            table = best_classical_prover(system, x, budget)
            m.setattr(adversary, "_ClassicalSearch", _RoundSearch)
            rounds = best_classical_prover(system, x, budget)
        assert table.best_p_acc.hex() == rounds.best_p_acc.hex(), x
        assert table.strategies_tested == rounds.strategies_tested, x
        assert table.best_strategy == rounds.best_strategy, x
        assert table.is_exhaustive and rounds.is_exhaustive, x
        # every move of every node: the same masses and continuation, in the
        # same dict order, to the bit
        search = _ClassicalSearch(system, x, budget)
        for state, pairs, r in nodes:
            assert (_bits_of(search._move_rounds(state, pairs, r))
                    == _bits_of(_RoundSearch._move_rounds(search, state, pairs, r))), x


def _table_states(monkeypatch, system, x, budget):
    """The states of every label in the move tables of the nodes that the
    search of ``x`` evaluates, each table filled by trying all its moves."""
    nodes = []

    class Recording(_ClassicalSearch):
        def _move_rounds(self, state, pairs, r):
            nodes.append((state, pairs, r))
            return super()._move_rounds(state, pairs, r)

    with monkeypatch.context() as m:
        m.setattr(adversary, "_ClassicalSearch", Recording)
        best_classical_prover(system, x, budget)
    search = _ClassicalSearch(system, x, budget)
    states = set()
    for state, pairs, r in nodes:
        moves = search._move_rounds(state, pairs, r)
        next(moves)
        live = moves.gi_frame.f_locals["live"]  # the table's rows, by label
        for _move in moves:
            pass
        states.update(lbl[0] for _i, row, *_rest in live
                      for entry in row.values() for lbl, _c in entry)
    assert nodes and states
    return states


def test_move_tables_leave_out_rejecting_targets_only_under_measure_many(
        monkeypatch, upal4, la_mo):
    states = _table_states(monkeypatch, upal4, "1", AdversaryBudget(memory_states=2, steps=7))
    assert not states & set(upal4.verifier.rejecting)
    # measure-once: a rejecting label runs on until move n+2, so it stays
    states = _table_states(monkeypatch, la_mo, "aa", AdversaryBudget(memory_states=2))
    assert states & set(la_mo.verifier.rejecting)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_orbit_enumeration_keeps_the_first_map_of_each_orbit(k):
    search = _ClassicalSearch(build_protocol("upal:N=2"), "", AdversaryBudget())
    search.targets = search.targets[:7]
    classes = [[0, 3, 4], [1], [2, 6], [5]]
    firsts = _unpruned_orbit_firsts(search.targets, classes, k)
    expected = [c for c in firsts if _renamed_by_first_use(c, search.memory) == c]
    assert len(expected) < len(firsts)
    assert list(search._orbit_firsts(classes, k)) == expected


@pytest.mark.parametrize("memory, group, classes", [
    # symbols 1 and 3 are interchangeable
    (2, {0: 0, 1: 1, 3: 1, 2: 2}, [[0], [1], [2, 6], [3, 7], [4], [5]]),
    # symbols 1 and 2 are
    (3, {0: 0, 1: 1, 2: 1}, [[0], [1], [2], [3, 6], [4, 7], [5, 8]])],
    ids=["memory 2", "memory 3"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dominated_maps_repeat_the_outcome_of_an_earlier_kept_map(k, memory, group, classes):
    # the classes are one per (symbol group, memory), as `_target_classes`
    # makes them.  A position's dead mask is a union of groups, since members
    # of a class share their delta columns.  A map's outcome is then decided
    # by what each position gets: nothing when its target is dead there,
    # else the target's class.
    search = _ClassicalSearch(build_protocol("upal:N=2"), "",
                              AdversaryBudget(memory_states=memory))
    n = memory * len(group)
    search.targets, search.target_rank = search.targets[:n], search.target_rank[:n]
    class_of = {i: c for c, members in enumerate(classes) for i in members}
    masks = [sum(1 << j for j in group if group[j] in dead_groups)
             for size in range(4) for dead_groups in itertools.combinations(range(3), size)]
    reference = list(_first_use_orbit_firsts(search, classes, k))
    index = {t: i for i, t in enumerate(search.targets)}
    dropped = 0
    for dead in itertools.product(masks, repeat=k):
        kept = list(search._orbit_firsts(classes, k, (), dead))
        dropped += _assert_drops_repeats(reference, kept, lambda combo: tuple(
            None if dead[p] & search.target_bit[index[t]] else class_of[index[t]]
            for p, t in enumerate(combo)))
    assert dropped


def test_interchangeable_targets_share_a_class(upal4):
    search = _ClassicalSearch(upal4, "1", AdversaryBudget(memory_states=2, steps=7))
    _acc, _rej, state, _mass = search.course.step(
        {(upal4.verifier.initial, 0, BLANK, "m0"): 1.0 + 0j}, 1)
    classes = search._target_classes(state)
    assert len(classes) < len(search.targets)
    for members in classes:
        assert len({search.targets[i][1] for i in members}) == 1
        assert len({search.targets[i][0] == BLANK for i in members}) == 1


def test_symbol_kinds_are_kept_once_per_verifier(upal4):
    first = _ClassicalSearch(upal4, "1", AdversaryBudget(memory_states=2, steps=7))
    first.search()
    assert first.row_kinds
    second = _ClassicalSearch(upal4, "01", AdversaryBudget(memory_states=3))
    assert second.row_kinds is first.row_kinds is upal4.verifier._cached("row kinds", dict)
    fresh = dataclasses.replace(upal4.verifier)._cached("row kinds", dict)
    assert fresh == {} and fresh is not first.row_kinds


def test_targets_and_classes_are_kept_once_per_memory_count(upal4):
    first = _ClassicalSearch(upal4, "1", AdversaryBudget(memory_states=2, steps=7))
    first.search()
    assert first.class_cache
    again = _ClassicalSearch(upal4, "01", AdversaryBudget(memory_states=2, steps=3))
    for name in ("memory", "targets", "target_rank", "target_blank", "class_cache"):
        assert getattr(again, name) is getattr(first, name), name
    other = _ClassicalSearch(upal4, "1", AdversaryBudget(memory_states=3))
    assert other.targets is not first.targets and len(other.targets) == 3 * len(
        upal4.verifier.comm_alphabet)
    assert other.class_cache is not first.class_cache
    fresh = dataclasses.replace(upal4.verifier)
    for m, search in ((2, first), (3, other)):
        assert upal4.verifier._cached(("search targets", m), lambda: None)[1] is search.targets
        assert fresh._cached(("search targets", m), lambda: None) is None


@pytest.mark.parametrize("name, inputs, steps", [
    ("upal:N=2", strings("01", 2), 9),
    ("center:N=2", ["001", "100", "011"], 30),
    ("pal_sharp:d=2", ["0#1", "01#0"], None)])
def test_memory3_search_matches_full_enumeration(monkeypatch, name, inputs, steps):
    system = build_protocol(name)
    for x in inputs:
        budget = AdversaryBudget(memory_states=3, steps=steps or 2 * (len(x) + 2))
        reduced = best_classical_prover(system, x, budget)
        with monkeypatch.context() as m:
            m.setattr(adversary, "_ClassicalSearch", _PermutationSearch)
            full = best_classical_prover(system, x, budget)
        assert reduced.best_p_acc.hex() == full.best_p_acc.hex(), x
        assert reduced.strategies_tested == full.strategies_tested, x
        assert reduced.best_strategy == full.best_strategy, x
        assert reduced.is_exhaustive and full.is_exhaustive, x


def _renamed_by_first_use(combo, memory):
    """``combo`` with its memories renamed to memory[0], memory[1], ... in
    order of first use; two maps are renamings of each other iff these agree."""
    rename: dict = {}
    for _g, m in combo:
        if m not in rename:
            rename[m] = memory[len(rename)]
    return tuple((g, rename[m]) for g, m in combo)


def _upal4_node(upal4, node):
    """The round-1 node of the upal:N=4 search on "1" at steps 7, or its first
    round-7 node with 4 reachable pairs; both carry memory m0 only."""
    budget = AdversaryBudget(memory_states=2, steps=7)
    if node == "round 1":
        search = _ClassicalSearch(upal4, "1", budget)
        _acc, _rej, state, _mass = search.course.step(
            {(upal4.verifier.initial, 0, BLANK, "m0"): 1.0 + 0j}, 1)
        return state
    seen = []

    class Recording(_ClassicalSearch):
        def _value(self, state, r, total):
            if r == 7 and len({(g, m) for (_q, _k, g, m) in state}) == 4:
                seen.append(state)
            return super()._value(state, r, total)

    Recording(upal4, "1", budget).search()
    return seen[0]


@pytest.mark.parametrize("memory", [2, 3])
@pytest.mark.parametrize("node", ["round 1", "round 7"])
def test_assignments_keep_one_map_per_renaming_of_memory(upal4, node, memory):
    state = _upal4_node(upal4, node)
    search = _ClassicalSearch(upal4, "1", AdversaryBudget(memory_states=memory, steps=7))
    pairs = sorted({(g, m) for (_q, _k, g, m) in state})
    classes = search._target_classes(state)
    assert classes is not None
    firsts = _unpruned_orbit_firsts(search.targets, classes, len(pairs))
    reference = list(_first_use_orbit_firsts(search, classes, len(pairs)))
    reference_set = set(reference)
    # in enumeration order
    assert reference == [c for c in firsts if _renamed_by_first_use(c, search.memory) == c]
    assert len({_renamed_by_first_use(c, search.memory) for c in reference}) == len(reference)
    assert {_renamed_by_first_use(c, search.memory) for c in firsts} == reference_set
    if memory == 2:
        assert 2 * len(reference) == len(firsts)
    # the search drops what the dominance rule drops, at nodes of two or more pairs
    kept = list(search._assignments(state, pairs))
    dropped = _assert_drops_repeats(reference, kept, _step_outcome(search, state, pairs))
    assert bool(dropped) == (node == "round 7")


def _in_first_use_order(combo, memory):
    """Whether the memories of ``combo`` first appear in the order of
    ``memory``: the member of its renamings that the search keeps."""
    return _renamed_by_first_use(combo, memory) == combo


def _node_states(system, inputs, budget):
    """(input, state) of the nodes that the searches of ``inputs`` evaluate,
    one per input and set of (state, tape symbol) rows, on which the classes
    depend."""
    nodes: dict = {}
    for x in inputs:

        class Recording(_ClassicalSearch):
            def _move_rounds(self, state, pairs, r):
                rows = frozenset((q, self.course.tape[k]) for (q, k, _g, _m) in state)
                nodes.setdefault((x, rows), (x, state))
                return super()._move_rounds(state, pairs, r)

        Recording(system, x, budget).search()
    assert nodes
    return list(nodes.values())


def _on_pairs(state, pairs):
    """``state``'s labels, each on every one of ``pairs``: the same rows, so
    the same classes, with ``pairs`` reachable."""
    return {(q, k, g, m): amp for (q, k, _g, _m), amp in state.items() for g, m in pairs}


@pytest.mark.parametrize("memory", [2, 3])
@pytest.mark.parametrize("name, inputs", [
    ("center:N=2", ["001", "100", "011"]), ("odd", ["11", "0101"]), ("la_mo", ["aa", "aaa"])])
def test_single_target_classes_give_every_injective_map_in_first_use_order(name, inputs, memory):
    system = build_protocol(name)
    budget = AdversaryBudget(memory_states=memory, steps=12)
    for x, state in _node_states(system, inputs, budget):
        search = _ClassicalSearch(system, x, budget)
        targets = search.targets
        assert search._target_classes(state) == [[i] for i in range(len(targets))]
        for k in range(1, len(targets) + 1):
            pairs = targets[:k]
            expected = [c for c in itertools.permutations(targets, k)
                        if _in_first_use_order(c, search.memory)]
            assert list(search._assignments(_on_pairs(state, pairs), pairs)) == expected


@pytest.mark.parametrize("memory", [2, 3])
@pytest.mark.parametrize("name, inputs", [
    ("odd", ["11", "0101"]), ("pal_sharp:d=2", ["0#1", "01#0"])])
def test_committed_maps_are_the_first_use_maps_that_keep_blank_pairs_blank(
        name, inputs, memory):
    system = build_protocol(name)
    budget = AdversaryBudget(memory_states=memory, steps=12, committed_only=True)
    for x, state in _node_states(system, inputs, budget):
        search = _ClassicalSearch(system, x, budget)
        targets = search.targets
        classes = search._target_classes(state)
        for k in (1, 2, 3):
            firsts = [c for c in _unpruned_orbit_firsts(targets, classes, k)
                      if _in_first_use_order(c, search.memory)]
            for pairs in itertools.combinations(targets, k):
                blank_at = [i for i, (g, _m) in enumerate(pairs) if g == BLANK]
                expected = [c for c in firsts if all(c[i][0] == BLANK for i in blank_at)]
                assert list(_first_use_orbit_firsts(
                    search, classes, k, frozenset(blank_at))) == expected, pairs
                on_pairs = _on_pairs(state, pairs)
                kept = list(search._assignments(on_pairs, list(pairs)))
                if search.singletons is not None:
                    assert kept == expected, pairs
                else:
                    _assert_drops_repeats(expected, kept, _step_outcome(search, on_pairs, pairs))


def test_upal4_steps7_search_finishes(monkeypatch, upal4):
    # count the verifier rounds made after the top-level _value returns
    rounds = {"after": 0, "done": False}
    value = _ClassicalSearch._value

    def top_value(self, state, r, total):
        out = value(self, state, r, total)
        rounds["done"] |= r == 1
        return out

    class Counted(Course):
        __slots__ = ()

        def step(self, state, r):
            rounds["after"] += rounds["done"]
            return super().step(state, r)

    monkeypatch.setattr(_ClassicalSearch, "_value", top_value)
    monkeypatch.setattr(adversary, "Course", Counted)
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


@pytest.mark.parametrize("memory", [2, 3])
@pytest.mark.parametrize("x", ["1", "11"])
def test_dominance_search_matches_the_undominated_walk(monkeypatch, upal4, x, memory):
    budget = AdversaryBudget(memory_states=memory, steps=7)
    reduced = best_classical_prover(upal4, x, budget)
    with monkeypatch.context() as m:
        m.setattr(adversary, "_ClassicalSearch", _UndominatedSearch)
        reference = best_classical_prover(upal4, x, budget)
    assert reduced.best_p_acc.hex() == reference.best_p_acc.hex()
    assert reduced.best_strategy == reference.best_strategy
    assert reduced.strategies_tested == reference.strategies_tested
    assert reduced.is_exhaustive and reference.is_exhaustive


def _maps_evaluated(monkeypatch, cls, system, x, budget):
    """The number of maps that the nodes of the search of ``x`` by ``cls``
    evaluate (`_move_rounds` yields)."""
    count = [0]

    class Counted(cls):
        def _move_rounds(self, state, pairs, r):
            for move in super()._move_rounds(state, pairs, r):
                count[0] += 1
                yield move

    with monkeypatch.context() as m:
        m.setattr(adversary, "_ClassicalSearch", Counted)
        best_classical_prover(system, x, budget)
    return count[0]


def test_dominance_rule_cuts_the_maps_of_the_upal4_search(monkeypatch, upal4):
    budget = AdversaryBudget(memory_states=2, steps=7)
    reduced = _maps_evaluated(monkeypatch, _ClassicalSearch, upal4, "1", budget)
    reference = _maps_evaluated(monkeypatch, _UndominatedSearch, upal4, "1", budget)
    assert reduced <= 300 < 6_000 <= reference


def test_capped_search_counts_no_repeated_move_as_a_node(monkeypatch, upal4):
    # past the cap the memo is not written, so a map that repeats an earlier
    # one's continuation reaches a memo miss again; it is not searched, and
    # not counted, so the count is the cap
    budget = AdversaryBudget(memory_states=2, steps=12, node_cap=30)
    rep = best_classical_prover(upal4, "11", budget)
    assert not rep.is_exhaustive
    assert rep.strategies_tested == 30
    # the table the cap leaves is the identity's, as it was
    assert rep.best_strategy["entries"] == {}
    assert replay(upal4, "11", rep) == rep.best_p_acc == 0.25
    with monkeypatch.context() as m:
        m.setattr(adversary, "_ClassicalSearch", _UndominatedSearch)
        reference = best_classical_prover(upal4, "11", budget)
    assert reference.strategies_tested == 30
    assert reference.best_strategy == rep.best_strategy
    assert reference.best_p_acc.hex() == rep.best_p_acc.hex()


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


def _measure_once_system(name, non_halting, rejecting, comm, delta):
    """A completed measure-once verifier over {a} that starts in q0, accepts
    in acc and whose cell and prover tape hold ``comm``, wrapped with the
    identity prover."""
    completed, report = validate_and_complete(QfaSpec(
        name=name, non_halting=non_halting, accepting=("acc",), rejecting=rejecting,
        initial="q0", input_alphabet=("a",), comm_alphabet=comm, prover_alphabet=comm,
        head_model=HeadModel.MO_1WAY, delta=delta))
    assert report.ok, report.violations
    return QipSystem(name=name, verifier=completed, honest_prover=IdentityProver(),
                     language=lambda x: False, claimed_bounds=(1.0, 0.0))


def _best_memoryless_run(system, x):
    """The best `run` over every memory-1 table: one permutation of the cell
    symbols per prover round 1 .. n+1."""
    comm = system.verifier.comm_alphabet
    best = 0.0
    for perms in itertools.product(itertools.permutations(comm), repeat=len(x) + 1):
        entries = {(r, g, "m0"): (g2, "m0") for r, perm in enumerate(perms, start=1)
                   for g, g2 in zip(comm, perm) if g != g2}
        prover = TableProver(ClassicalProverTable(entries, initial_memory="m0"))
        best = max(best, run(system, prover, x).p_acc)
    return best


def test_classical_search_measures_measure_once_verifiers_once():
    # the verifier accepts on the left endmarker; measured once, that label
    # runs on through completion rows into rejection, unless the prover steers it
    one = 1.0 + 0j
    system = _measure_once_system("early_accept", ("q0",), ("rej",), (BLANK, "a"), {
        ("q0", LEFT_END, BLANK): (("acc", BLANK, 1, one),),
        ("q0", "a", BLANK): (("q0", BLANK, 1, one),),
        ("q0", RIGHT_END, BLANK): (("rej", BLANK, 1, one),)})
    for x in ("", "a", "aa", "aaa"):
        rep = best_classical_prover(system, x, AdversaryBudget(memory_states=2, steps=8))
        assert rep.is_exhaustive, x
        assert replay(system, x, rep) == rep.best_p_acc, x
        one_memory = best_classical_prover(system, x, AdversaryBudget(memory_states=1, steps=8))
        assert one_memory.best_p_acc == _best_memoryless_run(system, x), x
    assert [best_classical_prover(system, x).best_p_acc for x in ("", "a", "aa")] == [
        0.0, 0.0, 1.0]


def test_measure_once_search_keeps_symbols_apart_that_differ_in_rejecting_states():
    # b and c send (q0, a) to rejecting states only, so a measure-many search
    # may swap them; measured once, rej moves on to acc on the right endmarker
    # and rej2 does not, so only c, the later symbol, is accepted
    one = 1.0 + 0j
    system = _measure_once_system("late_reject", ("q0", "q1"), ("rej", "rej2"),
                                  (BLANK, "b", "c"), {
        ("q0", LEFT_END, BLANK): (("q0", BLANK, 1, one),),
        ("q0", "a", BLANK): (("q1", BLANK, 1, one),),
        ("q0", "a", "b"): (("rej2", BLANK, 1, one),),
        ("q0", "a", "c"): (("rej", BLANK, 1, one),),
        ("rej", RIGHT_END, BLANK): (("acc", BLANK, 1, one),),
        ("q1", RIGHT_END, BLANK): (("rej2", BLANK, 1, one),)})
    rep = best_classical_prover(system, "a", AdversaryBudget(memory_states=1, steps=4))
    assert rep.best_p_acc == _best_memoryless_run(system, "a") == 1.0
    assert replay(system, "a", rep) == 1.0


@pytest.mark.parametrize("name, x", [("pal_sharp:d=1", "0z"), ("odd", "0z"),
                                     ("zero_public", "1z")])
def test_classical_search_refuses_an_input_outside_the_alphabet(name, x):
    with pytest.raises(AlphabetError):
        best_classical_prover(build_protocol(name), x)


def test_dense_strategy_replays_from_json(pal2):
    identity = AdversaryReport(best_p_acc=run(pal2, IdentityProver(), "0#1").p_acc,
                               best_strategy={"kind": "identity"},
                               strategies_tested=0, is_exhaustive=False)
    budget = AdversaryBudget(restarts=3, iterations=15, seed=0)
    rep = search_quantum_prover(pal2, "0#1", c=1, budget=budget,
                                classical_seed=identity)
    assert rep.best_strategy["kind"] == "dense"
    assert rep.strategies_tested == _climbed(budget)
    desc = json.loads(json.dumps(rep.best_strategy))
    assert isinstance(from_description(desc), DenseProver)
    decoded = dataclasses.replace(rep, best_strategy=desc)
    assert replay(pal2, "0#1", decoded) == pytest.approx(rep.best_p_acc, abs=REPLAY_TOL)


@pytest.mark.parametrize("field, value", [
    ("memory_states", 0), ("steps", -1), ("restarts", -1), ("iterations", -1),
    ("node_cap", 0), ("seed", -1)])
def test_budget_refuses_values_outside_its_domain(field, value):
    with pytest.raises(DomainError, match=f"budget {field} must be at least"):
        AdversaryBudget(**{field: value})
    budget = AdversaryBudget(**{field: value + 1})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(budget, field, value)
    for bad in (1.5, "3", 2.0):
        with pytest.raises(DomainError, match=f"budget {field} must be an integer"):
            AdversaryBudget(**{field: bad})
    budget = AdversaryBudget(**{field: np.int64(value + 2)})
    assert getattr(budget, field) == value + 2 and type(getattr(budget, field)) is int


def test_quantum_search_refuses_negative_tape_cells(pal1):
    with pytest.raises(DomainError, match="tape cells"):
        search_quantum_prover(pal1, "0#1", c=-1)
    for bad in (1.5, "1"):
        with pytest.raises(DomainError, match=f"^tape cells must be an integer, got {bad!r}$"):
            search_quantum_prover(pal1, "0#1", c=bad)


def test_quantum_search_without_prover_rounds_returns_its_seed(pal1):
    budget = AdversaryBudget(steps=0, restarts=2, iterations=3)
    classical = best_classical_prover(pal1, "0#1", budget)
    rep = search_quantum_prover(pal1, "0#1", c=1, budget=budget,
                                classical_seed=classical)
    identity_p = run(pal1, IdentityProver(), "0#1").p_acc
    assert rep.best_p_acc == max(identity_p, classical.best_p_acc)
    assert rep.strategies_tested == 1
    assert replay(pal1, "0#1", rep) == pytest.approx(rep.best_p_acc, abs=REPLAY_TOL)


def test_quantum_search_of_a_one_dimensional_prover_returns_its_seed():
    # one cell symbol and no tape cells: the prover's unitary is a phase, which
    # changes no probability, and no Givens move exists
    h = 1 / math.sqrt(2)
    one = 1.0 + 0j
    spec, report = validate_and_complete(QfaSpec(
        name="coin", non_halting=("q0",), accepting=("acc",), rejecting=("rej",),
        initial="q0", input_alphabet=("a",), comm_alphabet=(BLANK,),
        prover_alphabet=(BLANK,), head_model=HeadModel.ONE_WAY, delta={
            ("q0", LEFT_END, BLANK): (("q0", BLANK, 1, one),),
            ("q0", "a", BLANK): (("q0", BLANK, 1, one),),
            ("q0", RIGHT_END, BLANK): (("acc", BLANK, 1, h), ("rej", BLANK, 1, h))}))
    assert report.ok, report.violations
    system = QipSystem(name="coin", verifier=spec, honest_prover=IdentityProver(),
                       language=lambda x: False, claimed_bounds=(0.5, 0.5))
    assert dense_dimension(spec, 0) == 1
    budget = AdversaryBudget(steps=3, restarts=2, iterations=3)
    rep = search_quantum_prover(system, "a", c=0, budget=budget)
    assert rep.best_p_acc == run(system, IdentityProver(), "a").p_acc
    assert rep.best_strategy == {"kind": "identity"}
    assert rep.strategies_tested == 1
    assert replay(system, "a", rep) == rep.best_p_acc


def _random_unitary(rng, dim):
    """One random unitary, drawn as the climb drew each round's matrix before
    its restarts were drawn in one stacked call."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    qmat, rmat = np.linalg.qr(z)
    return qmat * (np.diagonal(rmat) / np.abs(np.diagonal(rmat)))


@pytest.mark.parametrize("n, dim", [(1, 3), (4, 3), (5, 4), (3, 12), (2, 16)])
def test_stacked_draw_is_the_sequential_draws(n, dim):
    for seed in range(20):
        one_by_one, stacked = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [_random_unitary(one_by_one, dim) for _ in range(n)]
        got = _random_unitaries(stacked, n, dim)
        assert got.shape == (n, dim, dim)
        assert [m.tobytes() for m in got] == [m.tobytes() for m in want], seed
        assert stacked.bit_generator.state == one_by_one.bit_generator.state, seed
        assert stacked.random() == one_by_one.random()


def test_one_draw_per_move_is_the_integers_and_choice_draws():
    for seed in range(50):
        one_call, two_calls = np.random.default_rng(seed), np.random.default_rng(seed)
        for dim in range(2, 65):
            rounds = 1 + (seed + 3 * dim) % 40
            high = np.array([rounds, dim - 1, dim, 2])
            for _move in range(4):
                want = (int(two_calls.integers(rounds)),
                        *two_calls.choice(dim, size=2, replace=False).tolist())
                assert adversary._draw_move(one_call, high) == want, (seed, dim, rounds)
                # the climb's other draws of a move, from the same stream
                assert one_call.normal() == two_calls.normal()
                assert one_call.uniform(0, 2 * math.pi) == two_calls.uniform(0, 2 * math.pi)
            assert one_call.bit_generator.state == two_calls.bit_generator.state, (seed, dim)
    assert {adversary._draw_move(np.random.default_rng(s), np.array([1, 1, 2, 2]))
            for s in range(20)} == {(0, 0, 1), (0, 1, 0)}


def _reference_climb(system, x, c, budget, classical):
    """`search_quantum_prover`'s climb in its plainest form: each random
    start drawn one round at a time, each move's rows drawn by ``choice``,
    each Givens move built by fancy indexing, and each move evaluated by a
    full `DenseRun.run`."""
    spec = system.verifier
    comm, tape = spec.comm_alphabet, spec.prover_alphabet
    dim = dense_dimension(spec, c)
    rounds = min(budget.steps, default_t_max(spec, x))
    rng = np.random.default_rng(budget.seed)
    best_p, best_desc, tested = run(system, IdentityProver(), x).p_acc, {"kind": "identity"}, 1
    if classical.best_p_acc > best_p:
        best_p, best_desc = classical.best_p_acc, classical.best_strategy
    seed = None
    if classical.best_strategy.get("kind") == "classical_table":
        seed = dense_from_table(from_description(classical.best_strategy).table,
                                comm, tape, c, rounds)
    dense_run = DenseRun(system, x, c)
    for restart in range(budget.restarts):
        if restart == 0 and seed is not None:
            matrices = seed
        else:
            matrices = [np.eye(dim, dtype=complex) if restart == 1
                        else _random_unitary(rng, dim) for _ in range(rounds)]
        current = dense_run.run(matrices)
        tested += 1
        sigma = 0.8
        for _it in range(budget.iterations):
            r = int(rng.integers(rounds))
            i, j = rng.choice(dim, size=2, replace=False)
            theta = rng.normal() * sigma
            phi = rng.uniform(0, 2 * math.pi)
            cos, sin = math.cos(theta), math.sin(theta)
            m = current.matrices[r].copy()
            m[[i, j]] = (cos * m[i] - sin * np.exp(-1j * phi) * m[j],
                         sin * np.exp(1j * phi) * m[i] + cos * m[j])
            moved = dense_run.run(current.matrices[:r] + (m,) + current.matrices[r + 1:])
            tested += 1
            if moved.p_acc > current.p_acc:
                current = moved
            sigma = max(0.05, sigma * 0.97)
        if current.p_acc > best_p:
            best_p, best_desc = current.p_acc, DenseProver(
                comm, tape, c, current.matrices).describe()
    return best_p, best_desc, tested


def _climb_case(name, x, steps, seed, c=1):
    """A case of the climb test; one tape cell is left out of its id."""
    return pytest.param(name, x, steps, seed, c,
                        id="-".join(map(str, (name, x, steps, seed))) + f"-c{c}" * (c != 1))


@pytest.mark.parametrize("name, x, steps, seed, c", [
    _climb_case("pal_sharp:d=1", "0#1", 10, 4),
    _climb_case("pal_sharp:d=2", "01#00", 14, 7),
    _climb_case("pal_sharp:d=2", "1#01", 12, 8),
    _climb_case("center:N=2", "001", 40, 13),
    # one tape word, and 16
    _climb_case("pal_sharp:d=2", "01#00", 14, 7, c=0),
    _climb_case("pal_sharp:d=2", "0000#1001", 22, 1, c=0),
    _climb_case("pal_sharp:d=2", "1#01", 12, 8, c=2),
    _climb_case("pal_sharp:d=2", "0000#1001", 22, 1, c=2),
])
@pytest.mark.parametrize("seeded", ["table", "unscored table", "identity"])
def test_quantum_search_is_the_reference_climb(name, x, steps, seed, c, seeded):
    system = build_protocol(name)
    budget = AdversaryBudget(memory_states=2, steps=steps, restarts=3,
                             iterations=15, seed=seed)
    classical = best_classical_prover(system, x, budget)
    assert classical.best_strategy["kind"] == "classical_table"
    if seeded == "unscored table":
        # the climb from the table's permutation is then reported, not the table
        classical = dataclasses.replace(classical, best_p_acc=0.0)
    elif seeded == "identity":
        classical = AdversaryReport(best_p_acc=0.0, best_strategy={"kind": "identity"},
                                    strategies_tested=0, is_exhaustive=False)
    rep = search_quantum_prover(system, x, c=c, budget=budget, classical_seed=classical)
    if seeded != "table":
        assert rep.best_strategy["kind"] == "dense"
    best_p, best_desc, tested = _reference_climb(system, x, c, budget, classical)
    assert rep.best_p_acc.hex() == best_p.hex()
    assert rep.best_strategy == best_desc
    assert rep.strategies_tested == tested == _climbed(budget)
