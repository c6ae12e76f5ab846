"""Acceptance criteria, one test each, printing a PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Tolerances and runtime limits are pinned here, not configurable.
"""
import itertools
import time

import numpy as np
import pytest

import qipsim as q
import qipsim.languages as lang
from qipsim.adversary import AdversaryBudget, best_classical_prover, search_quantum_prover
from qipsim.automata import (npfa_choice, npfa_coin, npfa_single_a, npfa_value,
                             zero_dfa, zero_star_dfa, universal_dfa)
from qipsim.languages import regular
from qipsim.linalg import check_unitary, qft_matrix
from qipsim.protocols import build_protocol
from qipsim.provers import IdentityProver, ScriptedProver, densify_schedule
from qipsim.qfa import (BLANK, StructureMode, build_step_operator,
                        check_structure, validate_and_complete)
from qipsim.runtime import (count_interactions, default_t_max, query_weight,
                            run, visible_schedule)
from qipsim.tiling import tiling_bound, tiling_complexity
from tests.conftest import sample_inputs, strings


def report(criterion, ok, elapsed, limit):
    line = (f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.1f}s, limit {limit}s)")
    print(line)
    assert ok, line
    assert elapsed < limit, line


def test_criterion_01_eraser_recognizes_zero_with_certainty():
    t0 = time.time()
    system = q.eraser_protocol(zero_dfa(), "eraser_zero")
    ok = True
    for x in strings(("0", "1"), 10):
        want = 1.0 if lang.zero(x) else 0.0
        honest = run(system, system.honest_prover, x).p_acc
        adv = best_classical_prover(
            system, x, AdversaryBudget(memory_states=2, steps=len(x) + 2)).best_p_acc
        adv = max(adv, run(system, IdentityProver(), x).p_acc)
        ok &= abs(honest - want) <= 1e-6 and abs(adv - want) <= 1e-6
    report(1, ok, time.time() - t0, 10)


def _pal_non_members():
    ys = strings(("0", "1"), 4)
    pairs = sorted((y, z) for y in ys for z in ys if y != z)
    rng = np.random.default_rng(20040722)
    picks = rng.choice(len(pairs), size=20, replace=False)
    return [pairs[i][0] + "#" + pairs[i][1][::-1] for i in sorted(picks)]


def test_criterion_02_pal_sharp_completeness_and_soundness():
    t0 = time.time()
    system = q.pal_sharp_protocol(2)
    ok = True
    for y in strings(("0", "1"), 5):
        res = run(system, system.honest_prover, y + "#" + y[::-1])
        ok &= abs(res.p_acc - 1.0) <= 1e-9
    for x in _pal_non_members():
        steps = 2 * (len(x) + 2)
        budget = AdversaryBudget(memory_states=2, steps=steps, restarts=50,
                                 iterations=40, seed=1)
        classical = best_classical_prover(system, x, budget)
        quantum = search_quantum_prover(system, x, c=1, budget=budget,
                                        classical_seed=classical)
        ok &= classical.is_exhaustive
        ok &= max(classical.best_p_acc, quantum.best_p_acc) <= 0.25 + 1e-3
    report(2, ok, time.time() - t0, 300)


def test_criterion_03_center_bounds():
    t0 = time.time()
    system = q.center_protocol(2)
    ok = True
    for x in strings(("0", "1"), 7):
        if len(x) % 2 == 1 and lang.center(x):
            ok &= abs(run(system, system.honest_prover, x).p_acc - 1.0) <= 1e-9
    for x in strings(("0", "1"), 5):
        if len(x) % 2 == 1 and not lang.center(x):
            rep = best_classical_prover(
                system, x, AdversaryBudget(memory_states=2, steps=60))
            ok &= rep.is_exhaustive and rep.best_p_acc <= 0.5 + 1e-6
    for x in strings(("0", "1"), 6):
        if len(x) % 2 == 0:
            ok &= abs(run(system, system.honest_prover, x).p_rej - 1.0) <= 1e-9
            ok &= abs(run(system, IdentityProver(), x).p_rej - 1.0) <= 1e-9
    report(3, ok, time.time() - t0, 300)


def _tamper_suite(system, x, symbols, rounds):
    for r in range(1, rounds + 1):
        for sym in symbols:
            yield ScriptedProver(
                script_builder=lambda _x, rr=r, ss=sym: {rr: {BLANK: ss, "1": ss,
                                                              ss: BLANK}},
                name=f"tamper[{r}->{sym}]")


def test_criterion_04_upal_public():
    t0 = time.time()
    system = q.upal_protocol(4)
    ok = check_structure(system.verifier, StructureMode.PUBLIC).ok
    for n in range(6):
        res = run(system, system.honest_prover, "0" * n + "1" * n)
        ok &= abs(res.p_acc - 1.0) <= 1e-9
    announce = [g for g in system.verifier.comm_alphabet if g != BLANK][:3]
    for m, n in itertools.product(range(9), repeat=2):
        if m == n or m + n > 8:
            continue
        x = "0" * m + "1" * n
        rounds = run(system, IdentityProver(), x).rounds_executed
        ok &= run(system, IdentityProver(), x).p_rej >= 0.75 - 1e-6
        for tamper in _tamper_suite(system, x, announce, min(rounds, 12)):
            ok &= run(system, tamper, x).p_rej >= 0.75 - 1e-6
    report(4, ok, time.time() - t0, 60)


def test_criterion_05_zero_public_and_la_mo_exact():
    t0 = time.time()
    zero_sys = q.zero_public_protocol()
    ok = True
    for x in strings(("0", "1"), 8):
        want = 1.0 if lang.zero(x) else 0.0
        ok &= abs(run(zero_sys, zero_sys.honest_prover, x).p_acc - want) <= 1e-9
        adv = best_classical_prover(
            zero_sys, x, AdversaryBudget(memory_states=2, steps=len(x) + 2))
        ok &= abs(adv.best_p_acc - want) <= 1e-9
    la_sys = q.la_mo_protocol()
    for x in strings(("a",), 8):
        want = 1.0 if lang.la(x) else 0.0
        ok &= abs(run(la_sys, la_sys.honest_prover, x).p_acc - want) <= 1e-9
        adv = best_classical_prover(
            la_sys, x, AdversaryBudget(memory_states=2, steps=len(x) + 2))
        ok &= abs(adv.best_p_acc - want) <= 1e-9
    report(5, ok, time.time() - t0, 10)


def test_criterion_06_odd_interaction_bounded():
    t0 = time.time()
    system = q.odd_protocol()
    ok = True
    for x in strings(("0", "1"), 8):
        want = 1.0 if lang.odd(x) else 0.0
        ok &= abs(run(system, system.honest_prover, x).p_acc - want) <= 1e-9
        adv = best_classical_prover(
            system, x, AdversaryBudget(memory_states=2, steps=len(x) + 2,
                                       committed_only=True))
        ok &= abs(adv.best_p_acc - want) <= 1e-9
        for prover in (system.honest_prover, IdentityProver()):
            ok &= count_interactions(system, prover, x) <= 1
    for x in ("", "10", "0101", "11111111"):
        ok &= system.honest_prover.committed(x, 2 * (len(x) + 2) ** 2)
    report(6, ok, time.time() - t0, 30)


def test_criterion_07_npfa_compilation():
    t0 = time.time()
    ok = True
    for builder in (npfa_single_a, npfa_coin, npfa_choice):
        m = builder()
        system = q.npfa_to_qip(m, builder.__name__)
        for x in strings(("a",), 6):
            compiled = run(system, system.honest_prover, x).p_acc
            direct = npfa_value(m, x, default_t_max(system.verifier, x))
            ok &= abs(compiled - direct) <= 1e-9
    # an in-alphabet reply outside the valid choice set rejects outright
    system = q.npfa_to_qip(npfa_single_a(), "npfa_single_a")
    bad = ScriptedProver(script_builder=lambda x: {1: {"?": "dacc,+1"}}, name="bad")
    ok &= abs(run(system, bad, "a").p_rej - 1.0) <= 1e-9
    report(7, ok, time.time() - t0, 60)


def test_criterion_08_union_certainty():
    t0 = time.time()
    system = build_protocol("union_zero_end1")
    ok = True
    for x in strings(("0", "1"), 6):
        member = lang.zero(x) or x.endswith("1")
        res = run(system, system.honest_prover, x)
        if member:
            ok &= res.p_acc >= 1.0 - 1e-6
        else:
            adv = best_classical_prover(
                system, x, AdversaryBudget(memory_states=2, steps=12))
            ok &= res.p_acc <= 1e-6 and adv.best_p_acc <= 1e-6
    report(8, ok, time.time() - t0, 120)


ALL_BUILTINS = ["zero_public", "la_mo", "odd", "pal_sharp:d=2", "center:N=2",
                "upal:N=4", "eraser_zero", "eraser_end1", "rfa_even_a",
                "rfa_all_a", "npfa_single_a", "npfa_coin", "npfa_choice",
                "union_zero_end1"]


def test_criterion_09_invariant_suites():
    t0 = time.time()
    ok = True
    # conservation at every round, all built-ins, honest and identity
    for name in ALL_BUILTINS:
        system = build_protocol(name)
        for x in strings(system.verifier.input_alphabet, 3):
            for prover in (system.honest_prover, IdentityProver()):
                res = run(system, prover, x)
                running = 0.0
                profile = {r: a + b for (r, a, b) in res.halting_profile}
                for i, cont in enumerate(res.cont_trace, start=1):
                    running += profile.get(i, 0.0)
                    ok &= abs(running + cont - 1.0) <= 1e-9
    # verifier unitarity for all built-ins at lengths 0..8 (covering sample)
    for name in ALL_BUILTINS:
        spec = build_protocol(name).verifier
        for n in range(9):
            for x in sample_inputs(spec.input_alphabet, n, 16):
                ok &= check_unitary(build_step_operator(spec, x, sparse=True), 1e-9)
    # dense/sparse agreement on space-bounded honest twins
    for name, c in (("zero_public", 3), ("odd", 3), ("la_mo", 3), ("eraser_zero", 3)):
        system = build_protocol(name)
        for x in strings(system.verifier.input_alphabet, 6):
            schedule = visible_schedule(system, x)
            dense = densify_schedule(schedule, system.verifier.comm_alphabet,
                                     system.verifier.prover_alphabet, c)
            ok &= abs(run(system, dense, x).p_acc
                      - run(system, system.honest_prover, x).p_acc) <= 1e-9
    # query-weight additivity on the one-way query protocol
    spec = q.odd_protocol().verifier
    for w in strings(("0", "1"), 6):
        for cut in range(len(w) + 1):
            x, y = w[:cut], w[cut:]
            ok &= abs(query_weight(spec, "", x) + query_weight(spec, x, y)
                      - query_weight(spec, "", w)) <= 1e-9
    # QFT unitarity
    for n in range(1, 17):
        ok &= check_unitary(qft_matrix(n), 1e-9)
    report(9, ok, time.time() - t0, 600)


def test_criterion_10_tiling():
    t0 = time.time()
    ok = tiling_complexity(lang.la, 1, alphabet=("a",)) == 2
    for lid, alphabet in ((regular(zero_star_dfa()), ("0", "1")),
                         (regular(universal_dfa()), ("0", "1"))):
        values = [tiling_complexity(lid, n, alphabet=alphabet) for n in range(4)]
        ok &= len(set(values)) == 1
    ok &= tiling_bound(1, 1, 1, 1, 0) == 2916
    report(10, ok, time.time() - t0, 60)
