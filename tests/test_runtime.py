import ast
import dataclasses
import itertools
import math
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qipsim
import qipsim.languages as lang
from qipsim.linalg import PRUNE_TOL, DomainError
from qipsim.provers import (DenseProver, EraseAllProver, IdentityProver, ScriptedProver,
                            densify_schedule)
from qipsim.qfa import (BLANK, AlphabetError, HeadModel, interaction_bound,
                        validate_and_complete)
from qipsim.runtime import (Course, RunError, _apply_prover, count_interactions,
                            expected_halting_time, query_weight, run, visible_schedule)
from tests.test_qfa import random_one_way_spec
from tests.test_round_reference import FaintBranchProver


def assert_conserved(res):
    running = 0.0
    profile = dict((r, a + b) for (r, a, b) in res.halting_profile)
    for i, cont in enumerate(res.cont_trace, start=1):
        running += profile.get(i, 0.0)
        assert abs(running + cont - 1.0) <= 1e-9


def test_run_zero_public_honest(zero_public):
    res = run(zero_public, zero_public.honest_prover, "0", 16)
    assert res.p_acc == pytest.approx(1.0, abs=1e-9)
    assert_conserved(res)


def test_run_pal_sharp_honest_member(pal2):
    res = run(pal2, pal2.honest_prover, "01#10", 64)
    assert res.p_acc == pytest.approx(1.0, abs=1e-9)
    assert_conserved(res)


def test_run_pal_sharp_identity_rejects(pal2):
    res = run(pal2, IdentityProver(), "01#10", 64)
    assert res.p_rej >= 0.75


def test_run_skips_the_prover_step_on_idle_rounds(pal2):
    calls = []

    class Counted(ScriptedProver):
        def apply(self, x, i, gamma, y):
            calls.append(i)
            return super().apply(x, i, gamma, y)

    class CountedIdentity(IdentityProver):
        def apply(self, x, i, gamma, y):
            calls.append(i)
            return super().apply(x, i, gamma, y)

    x = "01#10"
    honest = pal2.honest_prover
    counted = Counted(script_builder=honest.script_builder, name="counted")
    assert run(pal2, counted, x) == run(pal2, honest, x)
    assert calls and not any(counted.idle(x, i) for i in calls)
    calls.clear()
    assert run(pal2, CountedIdentity(), x).rounds_executed > 1
    assert calls == []


def test_expected_halting_time_values(zero_public, la_mo, pal1):
    assert expected_halting_time(zero_public, zero_public.honest_prover, "0") == (3.0, True)
    assert expected_halting_time(la_mo, la_mo.honest_prover, "") == (2.0, True)
    lower, known = expected_halting_time(pal1, pal1.honest_prover, "0#0")
    assert known and lower <= 64


@pytest.mark.parametrize("name, x", [("pal_sharp:d=2", "01#11"), ("upal:N=4", "00111")])
def test_expected_halting_time_adds_its_profile_left_to_right(name, x):
    from qipsim.protocols import build_protocol

    system = build_protocol(name)
    res = run(system, system.honest_prover, x)
    assert len(res.halting_profile) >= 3
    lower = 0.0
    for r, a, b in res.halting_profile:
        lower += r * (a + b)
    lower += res.rounds_executed * res.p_cont
    got, known = expected_halting_time(system, system.honest_prover, x)
    assert (got.hex(), known) == (lower.hex(), res.p_cont < 1e-9)


def _labels(spec, kinds):
    """One label per kind, "non", "acc" or "rej", on a state of that class."""
    first = {"non": spec.non_halting, "acc": spec.accepting, "rej": spec.rejecting}
    return [(first[kind][0], k, BLANK, None) for k, kind in enumerate(kinds)]


def test_measure_hands_back_its_argument_when_nothing_halts_or_is_pruned(odd):
    course = Course(odd.verifier, "0101")
    out = dict(zip(_labels(odd.verifier, ["non"] * 3), (0.6 + 0j, 0.48j, -0.64 + 0j)))
    before = list(out.items())
    acc, rej, cont, mass = course.measure(out, 1)
    assert cont is out and list(out.items()) == before
    assert (acc, rej) == (0.0, 0.0)
    assert mass.hex() == (abs(0.6 + 0j) ** 2 + abs(0.48j) ** 2 + abs(-0.64 + 0j) ** 2).hex()


def test_measure_copies_the_kept_labels_in_order_when_some_halt_or_are_pruned(odd):
    spec = odd.verifier
    course = Course(spec, "0101")
    for kinds, amps, kept in (
            (["non", "acc", "non", "rej", "non"], (0.5, 0.5, 0.5j, 0.1, 0.4), (0, 2, 4)),
            (["non", "non", "non"], (0.8, 1e-13, 0.6j), (0, 2))):
        labels = _labels(spec, kinds)
        out = {lbl: complex(a) for lbl, a in zip(labels, amps)}
        before = list(out.items())
        _acc, _rej, cont, _mass = course.measure(out, 1)
        assert cont is not out and list(out.items()) == before
        assert list(cont.items()) == [before[i] for i in kept]


def test_measure_once_keeps_every_label_until_its_one_measurement(la_mo):
    spec = la_mo.verifier
    course = Course(spec, "aa")
    out = dict(zip(_labels(spec, ["non", "acc", "rej"]), (0.6 + 0j, 0.0 + 0.48j, 0.64 + 0j)))
    before = list(out.items())
    assert course.measure(out, course.once - 1)[2] is out
    acc, rej, cont, mass = course.measure(out, course.once)
    assert (cont, mass) == ({}, 0.0) and acc > 0 and rej > 0
    assert list(out.items()) == before


def test_the_prover_round_returns_no_amplitude_below_the_prune_tolerance(odd):
    spec = odd.verifier
    faint = FaintBranchProver(spec.comm_alphabet)
    x = "0110"
    course = Course(spec, x)
    state = {(spec.initial, 0, BLANK, None): 1.0 + 0j}
    faint_labels = 0
    for r in range(1, course.t_max):
        state = course.step(state, r)[2]
        if not state:
            break
        moved = _apply_prover(faint, x, r, state)
        assert moved is not state
        assert min(abs(a) for a in moved.values()) >= PRUNE_TOL
        # the same labels, order and floats as the whole output, pruned
        whole: dict = {}
        for (q, k, g, y), amp in state.items():
            for g2, y2, a in faint.apply(x, r, g, y):
                v = whole.get((q, k, g2, y2))
                whole[q, k, g2, y2] = amp * a if v is None else v + amp * a
        assert list(moved.items()) == [(lbl, a) for lbl, a in whole.items()
                                       if abs(a) >= PRUNE_TOL]
        faint_labels += len(whole) - len(moved)
        state = moved
    assert faint_labels > 0


def test_count_interactions_odd(odd):
    assert count_interactions(odd, odd.honest_prover, "10") == 1
    assert count_interactions(odd, odd.honest_prover, "0") == 0
    assert count_interactions(odd, IdentityProver(), "11") == 1


def test_count_interactions_needs_flag(zero_public):
    with pytest.raises(RunError, match="interaction-bounded"):
        count_interactions(zero_public, IdentityProver(), "0")


def test_count_interactions_needs_committed(odd):
    from qipsim.provers import ScriptedProver
    chatty = ScriptedProver(script_builder=lambda x: {1: {BLANK: "a"}}, name="chatty")
    with pytest.raises(RunError, match="committed"):
        count_interactions(odd, chatty, "10")


def test_query_weight_examples(odd):
    spec = odd.verifier
    assert query_weight(spec, "", "01") == pytest.approx(1.0, abs=1e-9)
    assert query_weight(spec, "", "00") == pytest.approx(0.0, abs=1e-12)
    assert query_weight(spec, "01", "") == 0.0


def test_query_weight_two_way_rejected(pal1):
    with pytest.raises(RunError, match="one-way"):
        query_weight(pal1.verifier, "", "0")


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet="01", max_size=6), st.text(alphabet="01", max_size=6))
def test_query_weight_additive(odd, x, y):
    spec = odd.verifier
    lhs = query_weight(spec, "", x) + query_weight(spec, x, y)
    rhs = query_weight(spec, "", x + y)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_query_weight_measures_a_measure_once_verifier_only_at_the_end():
    # the measure-once rule keeps halting states running until move n+2, so
    # the mass they hold reaches the projection and counts as queried
    spec = validate_and_complete(random_one_way_spec(random.Random(2)))[0]
    assert spec.head_model is HeadModel.MO_1WAY
    assert query_weight(spec, "", "b") == pytest.approx(1.0, abs=1e-12)
    specs = [validate_and_complete(random_one_way_spec(random.Random(s)))[0]
             for s in range(40)]
    for spec in [s for s in specs if s.head_model is HeadModel.MO_1WAY]:
        for n in range(4):
            for x in map("".join, itertools.product(spec.input_alphabet, repeat=n)):
                for i in range(n + 1):
                    lhs = query_weight(spec, "", x[:i]) + query_weight(spec, x[:i], x[i:])
                    assert lhs == pytest.approx(query_weight(spec, "", x), abs=1e-9)


def test_measure_once_equals_measure_every_when_no_early_halt(la_mo):
    # the acceptor never enters halting states before the right endmarker, so
    # intermediate measurements take no mass and both runs agree
    for x in ("", "a", "aa", "aaa"):
        mo = run(la_mo, la_mo.honest_prover, x)
        every = dataclasses.replace(la_mo.verifier, head_model=HeadModel.ONE_WAY)
        me = run(dataclasses.replace(la_mo, verifier=every), la_mo.honest_prover, x)
        assert mo.p_acc == pytest.approx(me.p_acc, abs=1e-9)
        assert mo.p_rej == pytest.approx(me.p_rej, abs=1e-9)


@pytest.mark.parametrize("x", ["", "0", "10", "0110", "010101"])
def test_dense_sparse_agreement_zero_public(zero_public, x):
    schedule = visible_schedule(zero_public, x)
    dense = densify_schedule(schedule, zero_public.verifier.comm_alphabet,
                             zero_public.verifier.prover_alphabet, 3)
    sparse_res = run(zero_public, zero_public.honest_prover, x)
    dense_res = run(zero_public, dense, x)
    assert dense_res.p_acc == pytest.approx(sparse_res.p_acc, abs=1e-9)


@pytest.mark.parametrize("x", ["", "1", "10", "0100", "110100"])
def test_dense_sparse_agreement_odd(odd, x):
    schedule = visible_schedule(odd, x)
    dense = densify_schedule(schedule, odd.verifier.comm_alphabet,
                             odd.verifier.prover_alphabet, 2)
    assert run(odd, dense, x).p_acc == pytest.approx(
        run(odd, odd.honest_prover, x).p_acc, abs=1e-9)


def test_conservation_each_round_two_way(center2):
    for x in ("010", "001", "0110"):
        res = run(center2, center2.honest_prover, x)
        assert_conserved(res)
        assert res.max_conservation_error <= 1e-9 * max(1, res.rounds_executed)


def test_truncation_flag():
    import qipsim as q
    from qipsim.provers import ScriptedProver
    # a center verifier starved of its signal walks q3 to the right endmarker
    # and halts there; with the honest prover and tiny t_max it truncates
    c = q.center_protocol(2)
    res = run(c, c.honest_prover, "010", t_max=3)
    assert res.truncated and res.p_cont > 0.9


@pytest.mark.parametrize("name, x, t_max", [("odd", "1", 1), ("la_mo", "aa", 2)])
def test_one_way_runs_cut_short_are_truncated(request, name, x, t_max):
    system = request.getfixturevalue(name)
    cut = run(system, system.honest_prover, x, t_max=t_max)
    assert cut.truncated and cut.p_cont == pytest.approx(1.0)
    assert not run(system, system.honest_prover, x).truncated


@pytest.mark.parametrize("t_max, message", [
    (-1, "t_max must be at least 0, got -1"), (-4, "t_max must be at least 0, got -4"),
    (2.5, "t_max must be an integer, got 2.5"), ("3", "t_max must be an integer, got '3'")])
def test_round_limits_outside_the_integers_from_0_are_refused(odd, t_max, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        run(odd, odd.honest_prover, "01", t_max=t_max)
    with pytest.raises(DomainError, match=f"^{message}$"):
        count_interactions(odd, odd.honest_prover, "01", t_max=t_max)
    with pytest.raises(DomainError, match=f"^{message}$"):
        expected_halting_time(odd, odd.honest_prover, "01", t_max=t_max)


def test_round_limit_0_runs_no_round_and_numpy_integers_pass(odd):
    idle = run(odd, odd.honest_prover, "01", t_max=0)
    assert idle.rounds_executed == 0 and idle.truncated and idle.p_cont == 1.0
    assert count_interactions(odd, odd.honest_prover, "01", t_max=0) == 0
    three = run(odd, odd.honest_prover, "01", t_max=3)
    assert run(odd, odd.honest_prover, "01", t_max=np.int64(3)) == three


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 30), st.text(alphabet="01", max_size=5))
def test_random_classical_provers_conserve_probability(odd, seed, x):
    import random as _random

    from qipsim.provers import ClassicalProverTable, TableProver

    rng = _random.Random(seed)
    pairs = [(g, m) for g in (BLANK, "a") for m in ("m0", "m1")]
    entries = {}
    for r in range(1, len(x) + 2):
        targets = rng.sample(pairs, len(pairs))
        for (g, m), (g2, m2) in zip(pairs, targets):
            if (g, m) != (g2, m2):
                entries[(r, g, m)] = (g2, m2)
    prover = TableProver(ClassicalProverTable(entries, "m0"))
    res = run(odd, prover, x)
    assert res.p_acc + res.p_rej + res.p_cont == pytest.approx(1.0, abs=1e-9)
    assert res.max_conservation_error <= 1e-9 * max(1, res.rounds_executed)


def _merging_paths_system(querying_first: bool):
    """One-way verifier on "aaa" whose two paths meet at round 3.

    Round 1 splits into a path that writes the query symbol "?" in rounds 1
    and 2 (two queries) and a path that keeps the cell blank (none).  In
    round 3 the two interfere constructively into state m and destructively
    into n, so m's only parents carry counts 2 and 0.  m queries once more
    in round 4 and accepts in round 5, so by the path maximum the count is
    3; a merge that kept the blank path's count would give 1.
    """
    from qipsim.qfa import LEFT_END, RIGHT_END, HeadModel, QfaSpec, validate_and_complete
    from qipsim.runtime import QipSystem

    h = 1 / math.sqrt(2)
    split = [("p", "?", 1, h + 0j), ("u", BLANK, 1, h + 0j)]
    if not querying_first:
        split.reverse()
    delta = {
        ("s", LEFT_END, BLANK): tuple(split),
        ("p", "a", "?"): (("p2", "?", 1, 1 + 0j),),
        ("u", "a", BLANK): (("u2", BLANK, 1, 1 + 0j),),
        ("p2", "a", "?"): (("m", BLANK, 1, h + 0j), ("n", BLANK, 1, h + 0j)),
        ("u2", "a", BLANK): (("m", BLANK, 1, h + 0j), ("n", BLANK, 1, -h + 0j)),
        ("m", "a", BLANK): (("m2", "?", 1, 1 + 0j),),
        ("m2", RIGHT_END, "?"): (("acc", "?", 1, 1 + 0j),),
    }
    spec = QfaSpec(name="merge", non_halting=("s", "p", "u", "p2", "u2", "m", "n", "m2"),
                   accepting=("acc",), rejecting=(), initial="s", input_alphabet=("a",),
                   comm_alphabet=(BLANK, "?"), prover_alphabet=(BLANK,),
                   head_model=HeadModel.ONE_WAY, delta=delta)
    spec, report = validate_and_complete(spec)
    assert report.ok
    return QipSystem(name="merge", verifier=spec, honest_prover=IdentityProver(),
                     language=lambda x: True, claimed_bounds=(1.0, 1.0))


# Both orders of the round-1 split, so that a merge keeping only the first or
# only the last parent's count fails one of them.
@pytest.mark.parametrize("querying_first", [True, False])
def test_count_interactions_merges_paths_by_maximum(querying_first):
    system = _merging_paths_system(querying_first)
    assert run(system, IdentityProver(), "aaa").p_acc == pytest.approx(1.0, abs=1e-9)
    assert count_interactions(system, IdentityProver(), "aaa") == 3
    assert count_interactions(system, IdentityProver(), "aaa", t_max=1) == 1
    assert count_interactions(system, IdentityProver(), "aaa", t_max=3) == 2


def test_interaction_counts_stay_within_the_table_bound(odd):
    from qipsim.protocols import build_protocol
    from tests.conftest import strings

    npfa = build_protocol("npfa_single_a")
    cases = [(odd, prover, x) for x in strings("01", 8)
             for prover in (odd.honest_prover, IdentityProver())]
    cases += [(npfa, prover, "a" * n) for n in range(7)
              for prover in (npfa.honest_prover, IdentityProver())]
    for system, prover, x in cases:
        assert count_interactions(system, prover, x) <= interaction_bound(system.verifier), (
            system.name, x)
    assert [count_interactions(npfa, npfa.honest_prover, "a" * n)
            for n in range(7)] == [3, 5, 5, 5, 5, 5, 5]
    assert interaction_bound(npfa.verifier) == 5
    for querying_first in (True, False):
        system = _merging_paths_system(querying_first)
        assert count_interactions(system, IdentityProver(), "aaa") == 3
        assert interaction_bound(system.verifier) == 3


@pytest.mark.parametrize("name, x, t_max, limit, once", [
    ("odd", "01", None, 4, None), ("odd", "01", 9, 4, None), ("odd", "01", 2, 2, None),
    ("la_mo", "aa", None, 4, 4), ("la_mo", "aa", 1, 1, 4),
    ("pal_sharp:d=1", "0#1", None, 20 * 5 ** 2, None), ("pal_sharp:d=1", "0#1", 7, 7, None)])
def test_course_decides_the_round_limit_and_the_measurement_schedule(
        name, x, t_max, limit, once):
    from qipsim.protocols import build_protocol

    spec = build_protocol(name).verifier
    course = Course(spec, x, t_max)
    assert (course.t_max, course.once, course.width) == (limit, once, len(x) + 2)
    assert course.tape[0] == "^" and course.tape[-1] == "$"
    # a measure-once verifier's rejecting labels run on until its one measurement
    assert course.rejecting == frozenset(() if once else spec.rejecting)


def test_course_checks_the_input_before_the_round_limit(odd):
    with pytest.raises(AlphabetError):
        Course(odd.verifier, "0z", -1)
    with pytest.raises(DomainError, match="t_max must be at least 0, got -1"):
        Course(odd.verifier, "01", -1)


def _calls_of(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]


def test_only_runtime_reads_its_private_names_and_no_function_takes_once():
    """An input's round limit and measurement schedule live on `Course`: no
    other module imports or reads a private name of `runtime`, no function
    takes the schedule as a parameter ``once``, and only the constructor of
    `Course` calls `default_t_max`."""
    defaults = []
    for path in sorted(pathlib.Path(qipsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defaults += _calls_of(tree, "default_t_max")
        if path.name == "runtime.py":
            course = next(node for node in tree.body
                          if isinstance(node, ast.ClassDef) and node.name == "Course")
            init = next(node for node in course.body
                        if isinstance(node, ast.FunctionDef) and node.name == "__init__")
        for node in ast.walk(tree):
            if path.name != "runtime.py":
                if isinstance(node, ast.ImportFrom) and node.module in (
                        "runtime", "qipsim.runtime"):
                    assert not [a.name for a in node.names if a.name.startswith("_")], (
                        path.name, node.lineno)
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "runtime"):
                    assert not node.attr.startswith("_"), (path.name, node.lineno)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
                assert "once" not in names, (path.name, node.lineno)
    assert defaults == _calls_of(init, "default_t_max") != []
