import itertools
from dataclasses import replace

import pytest

import qipsim.languages as lang
from qipsim.automata import (all_a_rfa, end_one_dfa, even_a_rfa, npfa_choice,
                             npfa_coin, npfa_single_a, npfa_value, zero_dfa)
from qipsim.linalg import check_unitary
from qipsim.protocols import (build_protocol, center_protocol, eraser_protocol,
                              npfa_to_qip, pal_sharp_protocol,
                              rfa_public_protocol, union_protocol,
                              upal_protocol)
from qipsim.provers import IdentityProver, ScriptedProver
from qipsim.qfa import (BLANK, HeadModel, StructureMode, build_step_operator,
                        check_structure, interaction_bound)
from qipsim.runtime import default_t_max, run
from tests.conftest import sample_inputs, strings
from tests.test_round_reference import ref_apply_prover, ref_apply_verifier, ref_measure


def members(system, n_max, alphabet=None):
    alphabet = alphabet or system.verifier.input_alphabet
    return [x for x in strings(alphabet, n_max) if system.member(x)]


def non_members(system, n_max, alphabet=None):
    alphabet = alphabet or system.verifier.input_alphabet
    return [x for x in strings(alphabet, n_max) if not system.member(x)]


@pytest.mark.parametrize("name", ["zero_public", "la_mo", "odd", "eraser_zero",
                                  "rfa_even_a", "pal_sharp:d=1", "center:N=2",
                                  "upal:N=2", "union_zero_end1"])
def test_completeness_short_members(name):
    system = build_protocol(name)
    a, _b = system.claimed_bounds
    for x in members(system, 5):
        res = run(system, system.honest_prover, x)
        assert res.p_acc >= a - 1e-6, (name, x, res.p_acc)


@pytest.mark.parametrize("name", ["zero_public", "la_mo", "odd", "eraser_zero",
                                  "rfa_even_a", "pal_sharp:d=1", "center:N=2",
                                  "upal:N=2"])
def test_identity_prover_soundness_short_non_members(name):
    system = build_protocol(name)
    _a, b = system.claimed_bounds
    for x in non_members(system, 4):
        res = run(system, IdentityProver(), x)
        assert res.p_rej >= b - 1e-6, (name, x, res.p_rej)


@pytest.mark.parametrize("name", ["zero_public", "la_mo", "odd", "eraser_zero",
                                  "rfa_even_a", "pal_sharp:d=2", "center:N=2",
                                  "upal:N=3", "npfa_coin", "union_zero_end1",
                                  "upal:N=4", "pal_sharp:d=3", "center:N=4"])
def test_step_operators_unitary_lengths_0_to_6(name):
    spec = build_protocol(name).verifier
    for n in range(7):
        for x in sample_inputs(spec.input_alphabet, n, 64):
            assert check_unitary(build_step_operator(spec, x, sparse=True), 1e-9), (name, x)


ALL_NAMES = ["zero_public", "la_mo", "odd", "pal_sharp:d=2", "center:N=2",
             "upal:N=2", "eraser_zero", "eraser_end1", "rfa_even_a",
             "rfa_all_a", "npfa_single_a", "npfa_coin", "npfa_choice",
             "union_zero_end1"]


def test_declared_modes_match_structure_checks():
    specs = {name: build_protocol(name).verifier for name in ALL_NAMES + ["upal:N=4"]}
    public = {name for name, spec in specs.items()
              if check_structure(spec, StructureMode.PUBLIC).ok}
    assert public == {"zero_public", "upal:N=2", "upal:N=4", "rfa_even_a", "rfa_all_a"}
    bounded = {name for name, spec in specs.items()
               if check_structure(spec, StructureMode.INTERACTION_BOUNDED).ok}
    assert bounded == {"odd", "npfa_single_a"}
    assert {name: interaction_bound(specs[name]) for name in specs} == {
        name: {"odd": 1, "npfa_single_a": 5}.get(name) for name in specs}
    # la_mo's halting states keep moving until the one measurement after move
    # n+2, and with the identity prover its counts reach n on a^n; the
    # measure-many reading of the same table drops those rows and bounds it by 1
    assert "la_mo" not in bounded
    assert interaction_bound(replace(specs["la_mo"], head_model=HeadModel.ONE_WAY)) == 1
    for name in ALL_NAMES:
        spec = specs[name]
        if spec.head_model is HeadModel.MO_1WAY:
            assert check_structure(spec, StructureMode.MEASURE_ONCE).ok, name
        if spec.head_model.one_way:
            assert check_structure(spec, StructureMode.ONE_WAY_HALTING).ok, name


SOURCE_AUTOMATA = {"rfa_even_a": even_a_rfa, "rfa_all_a": all_a_rfa,
                   "npfa_single_a": npfa_single_a, "npfa_coin": npfa_coin,
                   "npfa_choice": npfa_choice}


@pytest.mark.parametrize("name", ALL_NAMES + ["pal_sharp:d=3", "center:N=4", "upal:N=4"])
def test_tables_write_rejecting_states_only_inside_superpositions(name):
    # the completion rejects every column a table leaves out, so a table
    # enters a rejecting state of its own only as one outcome of a
    # superposition, or as a rejecting state of the automaton it compiles
    spec = build_protocol(name).verifier
    source = set(SOURCE_AUTOMATA[name]().rejecting) if name in SOURCE_AUTOMATA else set()
    assert source <= set(spec.rejecting)
    completion = spec.completion_keys
    for q in set(spec.rejecting) - set(spec.completion_states) - source:
        rows = [targets for key, targets in spec.delta.items()
                if key not in completion and any(t[0] == q for t in targets)]
        assert rows and all(len(targets) >= 2 for targets in rows), (name, q)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_honest_prover_is_isometry_on_reachable_pairs(name):
    # walk the honest run; at every round the prover must send each reachable
    # (cell, tape) pair to a unit vector, pairwise orthogonal across pairs
    system = build_protocol(name)
    spec = system.verifier
    prover = system.honest_prover
    for x in strings(spec.input_alphabet, 4):
        state = {(spec.initial, 0, BLANK, prover.initial_tape(x)): 1.0 + 0j}
        for r in range(1, run(system, prover, x).rounds_executed + 1):
            _acc, _rej, state = ref_measure(
                spec, ref_apply_verifier(spec, x, state, len(x) + 2))
            if not state:
                break
            images = {}
            for (g, y) in {(g, y) for (_q, _k, g, y) in state}:
                out = prover.apply(x, r, g, y)
                norm = sum(abs(a) ** 2 for (_g, _y, a) in out)
                assert abs(norm - 1.0) <= 1e-9, (name, x, r)
                key = tuple(sorted((g2, y2) for (g2, y2, _a) in out))
                assert key not in images, (name, x, r, "pairs collide")
                images[key] = True
            state = ref_apply_prover(prover, x, r, state)


# -- eraser protocol against direct DFA simulation ---------------------------

@pytest.mark.parametrize("dfa_builder", [zero_dfa, end_one_dfa])
def test_eraser_agrees_with_dfa(dfa_builder):
    dfa = dfa_builder()
    system = eraser_protocol(dfa)
    for x in strings(dfa.alphabet, 8):
        res = run(system, system.honest_prover, x)
        want = 1.0 if dfa.accepts(x) else 0.0
        assert res.p_acc == pytest.approx(want, abs=1e-9), x
        assert res.p_rej == pytest.approx(1.0 - want, abs=1e-9), x


def test_eraser_rejects_chatty_prover(eraser_zero):
    chatty = ScriptedProver(script_builder=lambda x: {2: {BLANK: "qe"}}, name="chatty")
    res = run(eraser_zero, chatty, "00")
    assert res.p_rej == pytest.approx(1.0, abs=1e-9)


# -- reversible automata ------------------------------------------------------

@pytest.mark.parametrize("rfa_builder", [even_a_rfa, all_a_rfa])
def test_rfa_public_agrees_with_direct_simulation(rfa_builder):
    rfa = rfa_builder()
    system = rfa_public_protocol(rfa)
    for x in strings(("a",), 8):
        res = run(system, system.honest_prover, x)
        want = 1.0 if rfa.accepts(x) is True else 0.0
        assert res.p_acc == pytest.approx(want, abs=1e-9), x


def test_rfa_rejects_tampering():
    system = rfa_public_protocol(even_a_rfa())
    tamper = ScriptedProver(script_builder=lambda x: {2: {"o": "e"}}, name="tamper")
    res = run(system, tamper, "aa")
    assert res.p_rej == pytest.approx(1.0, abs=1e-9)


def test_rfa_requires_reversibility():
    from qipsim.automata import AutomatonError
    from qipsim.qfa import LEFT_END, RIGHT_END
    with pytest.raises(AutomatonError):
        from qipsim.automata import Rfa
        bad = Rfa(non_halting=("s", "p", "q"), accepting=("y",), rejecting=(),
                  initial="s", alphabet=("a",),
                  delta={("s", LEFT_END): "p", ("p", "a"): "q",
                         ("q", "a"): "q", ("q", RIGHT_END): "y"})


# -- pal sharp ----------------------------------------------------------------

def test_pal_sharp_without_separator_rejected_by_any_prover(pal2):
    for prover in (pal2.honest_prover, IdentityProver()):
        res = run(pal2, prover, "00")
        assert res.p_rej == pytest.approx(1.0, abs=1e-9)


def test_pal_sharp_completeness_longer(pal2):
    for y in ["", "0", "1", "01", "10", "110", "0101"]:
        x = y + "#" + y[::-1]
        res = run(pal2, pal2.honest_prover, x)
        assert res.p_acc == pytest.approx(1.0, abs=1e-9), x


def test_pal_sharp_stage_scaling():
    # with d stages, the bit feeder keeps exactly the y-side branch alive on
    # a near-member, so the leftover acceptance halves per stage
    for d in (1, 2, 3):
        system = pal_sharp_protocol(d)
        assert run(system, system.honest_prover, "0#0").p_acc == pytest.approx(1.0, abs=1e-9)
        res = run(system, system.honest_prover, "0#1")
        assert res.p_acc == pytest.approx(0.5 ** d, abs=1e-9)
        assert run(system, IdentityProver(), "01#10").p_rej == pytest.approx(1.0, abs=1e-9)


# -- center -------------------------------------------------------------------

def test_center_even_length_deterministic_rejection(center2):
    for x in ["", "01", "10", "0011", "111111"]:
        for prover in (center2.honest_prover, IdentityProver()):
            res = run(center2, prover, x)
            assert res.p_rej == pytest.approx(1.0, abs=1e-9), x


def test_center_completeness_odd_members(center2):
    for x in members(center2, 7):
        res = run(center2, center2.honest_prover, x)
        assert res.p_acc == pytest.approx(1.0, abs=1e-9), x


def test_center_branches_recombine_at_the_predicted_round(center2):
    from qipsim.protocols import center_round_of_qft
    for x in ("1", "010", "00100"):
        res = run(center2, center2.honest_prover, x)
        assert res.rounds_executed == center_round_of_qft(x, 2)
        # all halting mass lands in the single final measurement
        assert res.halting_profile == [(res.rounds_executed, pytest.approx(1.0), 0.0)]


# -- upal ----------------------------------------------------------------------

def test_upal_identity_on_blocks():
    system = upal_protocol(4)
    for m, n in itertools.product(range(5), repeat=2):
        if m + n > 8 or m == n:
            continue
        res = run(system, IdentityProver(), "0" * m + "1" * n)
        assert res.p_rej >= 0.75 - 1e-6, (m, n)


def test_upal_tampering_only_hurts():
    system = upal_protocol(2)
    base = run(system, IdentityProver(), "001").p_acc
    for r in range(1, 10):
        tamper = ScriptedProver(
            script_builder=lambda x, rr=r: {rr: {"pa,+1": BLANK}}, name="t")
        assert run(system, tamper, "001").p_acc <= base + 1e-9


# -- npfa compilation ----------------------------------------------------------

@pytest.mark.parametrize("builder", [npfa_single_a, npfa_coin, npfa_choice])
def test_npfa_compiled_matches_direct(builder):
    m = builder()
    system = npfa_to_qip(m, "t")
    for x in strings(("a",), 6):
        res = run(system, system.honest_prover, x)
        direct = npfa_value(m, x, default_t_max(system.verifier, x))
        assert res.p_acc == pytest.approx(direct, abs=1e-9), x


def test_npfa_invalid_reply_rejects_deterministically():
    system = npfa_to_qip(npfa_single_a(), "t")
    # (dacc, +1) is a symbol of the protocol but not a valid choice for d0 at ^
    bad = ScriptedProver(script_builder=lambda x: {1: {"?": "dacc,+1"}}, name="bad")
    res = run(system, bad, "a")
    assert res.p_rej == pytest.approx(1.0, abs=1e-9)


def test_prover_writing_outside_alphabet_is_an_error():
    from qipsim.qfa import AlphabetError
    system = npfa_to_qip(npfa_single_a(), "t")
    bad = ScriptedProver(script_builder=lambda x: {1: {"?": "zz"}}, name="bad")
    with pytest.raises(AlphabetError, match="outside"):
        run(system, bad, "a")


def test_npfa_silent_prover_rejected():
    system = npfa_to_qip(npfa_single_a(), "t")
    res = run(system, IdentityProver(), "a")
    assert res.p_rej == pytest.approx(1.0, abs=1e-9)


# -- union ----------------------------------------------------------------------

def test_union_recognizes_set_union():
    system = build_protocol("union_zero_end1")
    pred = lambda x: lang.zero(x) or x.endswith("1")
    for x in strings(("0", "1"), 6):
        res = run(system, system.honest_prover, x)
        want = 1.0 if pred(x) else 0.0
        assert res.p_acc == pytest.approx(want, abs=1e-6), x


def test_union_rejects_bad_branch_reply():
    system = build_protocol("union_zero_end1")
    bad = ScriptedProver(script_builder=lambda x: {1: {BLANK: "qe"}}, name="bad")
    res = run(system, bad, "0")
    assert res.p_rej == pytest.approx(1.0, abs=1e-9)


def test_union_honest_is_idle_where_its_chosen_prover_is():
    s1 = build_protocol("zero_public")  # a scripted honest prover
    s2 = eraser_protocol(end_one_dfa(), "eraser_end1")
    honest = union_protocol(s1, s2).honest_prover
    for x in strings(("0", "1"), 4):
        inner = s1.honest_prover if s1.member(x) or not s2.member(x) else s2.honest_prover
        assert [honest.idle(x, 1), honest.idle(x, 2)] == [False, True]
        assert [honest.idle(x, i + 2) for i in range(1, 8)] == [
            inner.idle(x, i) for i in range(1, 8)], x


def test_union_needs_common_alphabet():
    from qipsim.qfa import SpecError
    with pytest.raises(SpecError, match="alphabet"):
        union_protocol(build_protocol("eraser_zero"), build_protocol("la_mo"))
