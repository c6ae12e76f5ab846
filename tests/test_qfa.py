import cmath
import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qipsim.protocols as protocols
import qipsim.qfa as qfa
from qipsim.linalg import DomainError, check_unitary
from qipsim.protocols import build_protocol
from qipsim.provers import DenseProver, IdentityProver
from qipsim.qfa import (BLANK, LEFT_END, RIGHT_END, HeadModel, QfaSpec,
                        SpecError, StructureMode, build_step_operator,
                        check_structure, symbol_at, validate_and_complete)
from qipsim.runtime import NO_MASS_TOL, QipSystem, RunError, count_interactions, run
from qipsim.specfile import parse_spec, serialize_spec
from tests.conftest import BUILT_INS, strings


def la_partial_spec():
    """The measure-once acceptor of {a}^+ as printed: four rows of delta."""
    return QfaSpec(
        name="la_partial",
        non_halting=("q0", "q1"), accepting=("q_acc",), rejecting=("q_rej",),
        initial="q0",
        input_alphabet=("a",), comm_alphabet=(BLANK, "a"),
        prover_alphabet=(BLANK, "a"),
        head_model=HeadModel.MO_1WAY,
        delta={
            ("q0", LEFT_END, BLANK): (("q0", BLANK, 1, 1.0),),
            ("q0", "a", BLANK): (("q1", "a", 1, 1.0),),
            ("q1", "a", BLANK): (("q1", BLANK, 1, 1.0),),
            ("q0", RIGHT_END, BLANK): (("q_rej", BLANK, 1, 1.0),),
            ("q0", RIGHT_END, "a"): (("q_rej", "a", 1, 1.0),),
            ("q1", RIGHT_END, BLANK): (("q_acc", BLANK, 1, 1.0),),
        },
    )


def test_symbol_at_endmarkers():
    assert symbol_at("ab", 0) == LEFT_END
    assert symbol_at("ab", 1) == "a"
    assert symbol_at("ab", 3) == RIGHT_END


def test_state_class_overlap_rejected():
    with pytest.raises(SpecError):
        QfaSpec(name="bad", non_halting=("q",), accepting=("q",), rejecting=(),
                initial="q", input_alphabet=("a",), comm_alphabet=(BLANK,),
                prover_alphabet=(BLANK,), head_model=HeadModel.ONE_WAY, delta={})


def test_one_way_requires_rightward_moves():
    with pytest.raises(SpecError):
        QfaSpec(name="bad", non_halting=("q",), accepting=(), rejecting=(),
                initial="q", input_alphabet=("a",), comm_alphabet=(BLANK,),
                prover_alphabet=(BLANK,), head_model=HeadModel.ONE_WAY,
                delta={("q", "a", BLANK): (("q", BLANK, -1, 1.0),)})


def test_completion_of_la_table_well_formed_lengths_0_to_6():
    completed, report = validate_and_complete(la_partial_spec())
    assert report.ok, report.violations
    assert report.max_unitary_deviation <= 1e-9
    assert report.completed_transitions > 0


def test_completion_is_idempotent():
    completed, _ = validate_and_complete(la_partial_spec())
    again, report = validate_and_complete(completed)
    assert report.completed_transitions == 0
    assert again.delta == completed.delta


def test_duplicated_column_refused():
    spec = la_partial_spec()
    delta = dict(spec.delta)
    # second column with the same target as (q0, a, BLANK)
    delta[("q1", "a", "a")] = (("q1", "a", 1, 1.0),)
    delta[("q0", "a", "a")] = (("q1", "a", 1, 1.0),)
    from dataclasses import replace
    bad = replace(spec, delta=delta)
    with pytest.raises(SpecError, match="not orthogonal"):
        validate_and_complete(bad)


def test_empty_table_completes_to_permutation():
    spec = QfaSpec(name="empty", non_halting=("q0",), accepting=(), rejecting=(),
                   initial="q0", input_alphabet=("a",),
                   comm_alphabet=(BLANK, "a"), prover_alphabet=(BLANK, "a"),
                   head_model=HeadModel.ONE_WAY, delta={})
    completed, report = validate_and_complete(spec)
    assert report.ok
    u = build_step_operator(completed, "")
    assert check_unitary(u, 1e-9)
    # permutation: every entry 0 or 1, one per row/column
    assert np.allclose(np.abs(u) * (1 - np.abs(u)), 0, atol=1e-12)
    assert np.allclose(np.abs(u).sum(axis=0), 1.0)


def test_zero_public_step_operator_entry(zero_public):
    spec = zero_public.verifier
    u = build_step_operator(spec, "0")
    n = 1
    width = n + 2
    gsz = len(spec.comm_alphabet)
    q_idx = {s: i for i, s in enumerate(spec.states)}
    g_idx = {g: i for i, g in enumerate(spec.comm_alphabet)}

    def idx(qq, k, g):
        return (q_idx[qq] * width + k) * gsz + g_idx[g]

    # the first move announces the initial state and steps right
    assert u[idx("q0", 1, "q0"), idx("q0", 0, BLANK)] == pytest.approx(1.0)


def test_pal_sharp_operator_unitary(pal1):
    u = build_step_operator(pal1.verifier, "0#0", sparse=True)
    assert check_unitary(u, 1e-9)


def test_two_way_head_is_circular():
    spec = QfaSpec(name="wrap", non_halting=("q0",), accepting=(), rejecting=(),
                   initial="q0", input_alphabet=("a",),
                   comm_alphabet=(BLANK,), prover_alphabet=(BLANK,),
                   head_model=HeadModel.TWO_WAY,
                   delta={("q0", LEFT_END, BLANK): (("q0", BLANK, -1, 1.0),)})
    completed, _ = validate_and_complete(spec)
    u = build_step_operator(completed, "a")
    width = 3
    gsz = len(completed.comm_alphabet)
    q_idx = {s: i for i, s in enumerate(completed.states)}

    def idx(qq, k):
        return (q_idx[qq] * width + k) * gsz

    # moving left from the left endmarker lands on the right endmarker
    assert u[idx("q0", 2), idx("q0", 0)] == pytest.approx(1.0)


def test_check_structure_measure_once(la_mo):
    assert check_structure(la_mo.verifier, StructureMode.MEASURE_ONCE).ok


def test_check_structure_public(zero_public, pal1):
    assert check_structure(zero_public.verifier, StructureMode.PUBLIC).ok
    report = check_structure(pal1.verifier, StructureMode.PUBLIC)
    assert not report.ok and report.violations


def test_check_structure_one_way_halting(zero_public, odd):
    assert check_structure(zero_public.verifier, StructureMode.ONE_WAY_HALTING).ok
    assert check_structure(odd.verifier, StructureMode.ONE_WAY_HALTING).ok


def test_one_way_halting_needs_every_non_halting_dollar_column():
    # la_partial lacks (q1, $, a); a run that reaches it has no row to follow
    report = check_structure(la_partial_spec(), StructureMode.ONE_WAY_HALTING)
    assert report.violations == [(RIGHT_END, "no transition for ('q1', '$', 'a')")]
    assert not report.ok


def test_one_way_halting_checks_completion_rows_out_of_non_halting_states():
    # (q0, $, #) enters the completion state c, so it is a completion row
    h = 1 / math.sqrt(2)
    spec = dataclasses.replace(
        la_partial_spec(), rejecting=("q_rej", "c"), completion_states=("c",),
        delta={**la_partial_spec().delta,
               ("q0", RIGHT_END, BLANK): (("c", BLANK, 1, h), ("q1", "a", 1, h)),
               ("q1", RIGHT_END, "a"): (("q_rej", BLANK, 1, 1.0),)})
    assert spec.completion_keys == {("q0", RIGHT_END, BLANK)}
    report = check_structure(spec, StructureMode.ONE_WAY_HALTING)
    assert report.violations == [
        (RIGHT_END, "transition ('q0', '$', '#') -> q1 does not halt at $")]


@pytest.mark.parametrize("state", ["q1", "q_acc", "q9"])
def test_completion_states_must_be_rejecting(state):
    # a completion state exempts every row into it from the structure checks
    with pytest.raises(SpecError) as info:
        dataclasses.replace(la_partial_spec(), completion_states=(state,))
    assert str(info.value) == f"completion states must be rejecting: [{state!r}]"


def random_one_way_spec(rng):
    """A one-way verifier (measure-once or not) with orthonormal columns:
    1-3 non-halting states, one accepting and one rejecting state, one or two
    input and cell symbols.  Each tape symbol maps random pairs to distinct
    random targets, some column pairs mixed by a Hadamard.  For about half
    the specs the $ rows enter halting pairs only, so that both verdicts of
    the $ rule occur."""
    non = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
    comm = (BLANK,) + (("g",) if rng.random() < 0.5 else ())
    sigma = tuple("ab"[:rng.randint(1, 2)])
    pairs = [(q, g) for q in non + ("acc", "rej") for g in comm]
    halting = [(q, g) for q in ("acc", "rej") for g in comm]
    halt_at_end = rng.random() < 0.5
    h = 1 / math.sqrt(2)
    delta = {}
    for s in (LEFT_END, *sigma, RIGHT_END):
        pool = halting if s == RIGHT_END and halt_at_end else pairs
        sources = rng.sample(pairs, rng.randint(0, len(pool)))
        targets = rng.sample(pool, len(sources))
        while sources:
            phase = cmath.exp(2j * math.pi * rng.random())
            if len(sources) > 1 and rng.random() < 0.5:
                ((q1, g1), (q2, g2)), (u, v) = sources[:2], targets[:2]
                delta[(q1, s, g1)] = ((*u, 1, h * phase), (*v, 1, h * phase))
                delta[(q2, s, g2)] = ((*u, 1, h * phase), (*v, 1, -h * phase))
                sources, targets = sources[2:], targets[2:]
            else:
                (q, g), u = sources[0], targets[0]
                delta[(q, s, g)] = ((*u, 1, phase),)
                sources, targets = sources[1:], targets[1:]
    return QfaSpec(name="random", non_halting=non, accepting=("acc",), rejecting=("rej",),
                   initial=non[0], input_alphabet=sigma, comm_alphabet=comm,
                   prover_alphabet=comm,
                   head_model=rng.choice([HeadModel.ONE_WAY, HeadModel.MO_1WAY]),
                   delta=delta)


def measuring_every_round(spec):
    every = dataclasses.replace(spec, head_model=HeadModel.ONE_WAY)
    return QipSystem(name=spec.name, verifier=every, honest_prover=IdentityProver(),
                     language=None, claimed_bounds=(1.0, 0.0))


def sampled_one_way_halting(spec):
    """The sampled check that the table rule replaced: no $ row outside the
    completion enters a non-halting state, and identity-prover runs that
    measure after every round leave no mass on any input of length <= 4; a
    RunError counts as a failure."""
    completion = spec.completion_keys
    for (q, sigma, gamma), targets in spec.delta.items():
        if (sigma == RIGHT_END and (q, sigma, gamma) not in completion
                and not all(spec.is_halting(q2) for (q2, _g, _d, _a) in targets)):
            return False
    system = measuring_every_round(spec)
    for x in strings(spec.input_alphabet, 4):
        try:
            if run(system, IdentityProver(), x).p_cont > NO_MASS_TOL:
                return False
        except RunError:
            return False
    return True


def random_cell_prover(spec, rng, rounds):
    """A prover acting on the cell alone by a random unitary each round."""
    dim = len(spec.comm_alphabet)
    mats = [np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
            for _ in range(rounds)]
    return DenseProver(spec.comm_alphabet, spec.comm_alphabet, 0, mats)


def test_one_way_halting_table_rule_matches_the_sampled_check():
    verdicts = Counter()
    rng = np.random.default_rng(0)
    for seed in range(200):
        completed, report = validate_and_complete(random_one_way_spec(random.Random(seed)))
        assert report.ok, seed
        ok = check_structure(completed, StructureMode.ONE_WAY_HALTING).ok
        assert ok == sampled_one_way_halting(completed), seed
        verdicts[completed.head_model, ok] += 1
        if ok:
            # nothing runs past $, whatever the prover writes into the cell
            system = measuring_every_round(completed)
            for x in strings(completed.input_alphabet, 4):
                prover = random_cell_prover(completed, rng, len(x) + 1)
                assert run(system, prover, x).p_cont == 0.0, (seed, x)
    assert len(verdicts) == 4 and min(verdicts.values()) >= 10, verdicts


def walk_levels(spec, start, steps):
    """The heaviest query count of the walks from ``start`` of each length up
    to ``steps``, as {state: count} per length, on the state graph of the
    measurement rule: measure-many runs drop halting labels, measure-once runs
    keep every label until the end."""
    once = spec.head_model is HeadModel.MO_1WAY
    edges = [(q, q2, g2 != BLANK and (once or not spec.is_halting(q2)))
             for (q, _sigma, _gamma), targets in spec.delta.items()
             if once or not spec.is_halting(q)
             for (q2, g2, _d, amp) in targets if amp != 0]
    levels = [{start: 0}]
    for _ in range(steps):
        nxt = {}
        for q, q2, query in edges:
            if q in levels[-1]:
                nxt[q2] = max(nxt.get(q2, 0), levels[-1][q] + query)
        levels.append(nxt)
    return levels


def test_interaction_bound_matches_walk_enumeration():
    # a simple path carries at most |Q| - 1 queries, and with a query cycle
    # reachable some walk of at most |Q| - 1 + |Q|^2 edges carries |Q|
    specs = [build_protocol(name).verifier
             for name in ("odd", "la_mo", "zero_public", "npfa_single_a", "rfa_all_a")]
    specs += [validate_and_complete(random_one_way_spec(random.Random(seed)))[0]
              for seed in range(60)]
    # a query loop of amplitude 0 is no edge: odd stays bounded by 1
    odd = specs[0]
    loop = (odd.delta[("q0", "0", BLANK)][0], ("q0", "a", 1, 0j))
    specs.append(dataclasses.replace(odd, delta={**odd.delta, ("q0", "0", BLANK): loop}))
    verdicts = Counter()
    for spec in specs:
        n = len(spec.states)
        levels = walk_levels(spec, spec.initial, n - 1 + n * n)
        heaviest = max(max(level.values(), default=0) for level in levels)
        bound = qfa.interaction_bound(spec)
        assert bound == (heaviest if heaviest < n else None), spec.name
        report = check_structure(spec, StructureMode.INTERACTION_BOUNDED)
        assert report.ok == (bound is not None)
        verdicts[spec.head_model, report.ok] += 1
        if bound is None:
            # the named row writes a query into q2, its state is reachable,
            # and q2 leads back to it
            key, q2, g2 = qfa._query_paths(spec)[1]
            assert (q2, g2) in [t[:2] for t in spec.delta[key]] and g2 != BLANK
            assert key[0] in set().union(*levels)
            assert key[0] in set().union(*walk_levels(spec, q2, n))
            assert report.violations == [
                (key[1], f"query transition {key} -> ({q2}, {g2!r}) lies on a cycle")]
    assert qfa.interaction_bound(specs[-1]) == 1
    assert min(verdicts[head, ok] for head in (HeadModel.ONE_WAY, HeadModel.MO_1WAY)
               for ok in (True, False)) >= 5, verdicts


def test_the_query_graph_is_walked_once_per_spec(monkeypatch):
    walked = []
    real = qfa._query_paths

    def counting(spec):
        walked.append(spec.name)
        return real(spec)

    monkeypatch.setattr(qfa, "_query_paths", counting)
    odd = build_protocol("odd")
    counts = [count_interactions(odd, odd.honest_prover, "0110") for _ in range(2)]
    assert counts[0] == counts[1] <= 1
    assert check_structure(odd.verifier, StructureMode.INTERACTION_BOUNDED).ok
    assert walked == ["odd"]


def test_alphabet_error():
    spec = la_partial_spec()
    with pytest.raises(Exception, match="alphabet"):
        build_step_operator(spec, "b")


def random_partial_spec(seed):
    """A random partial table: 1-4 states, one or two input and cell symbols,
    a one-way or two-way head, and on each tape symbol a random set of pairs
    sent to distinct targets, each target pair with one head move."""
    rng = random.Random(seed)
    n_states = rng.randint(1, 4)
    states = [f"s{i}" for i in range(n_states)]
    acc = [s for s in states[1:] if rng.random() < 0.3]
    rej = [s for s in states[1:] if s not in acc and rng.random() < 0.3]
    non = [s for s in states if s not in acc and s not in rej]
    sigma = tuple("ab"[: rng.randint(1, 2)])
    comm = (BLANK,) + (("g",) if rng.random() < 0.5 else ())
    head = rng.choice([HeadModel.ONE_WAY, HeadModel.TWO_WAY])
    pairs = [(q, g) for q in states for g in comm]
    dmap = {}
    delta = {}
    for s in (LEFT_END,) + sigma + (RIGHT_END,):
        sources = [p for p in pairs if rng.random() < 0.6]
        targets = rng.sample(pairs, len(sources))
        for (q, g), (q2, g2) in zip(sources, targets):
            d = 1 if head.one_way else dmap.setdefault((q2, g2), rng.choice([-1, 0, 1]))
            delta[(q, s, g)] = ((q2, g2, d, 1.0),)
    return QfaSpec(name="rand", non_halting=tuple(non), accepting=tuple(acc),
                   rejecting=tuple(rej), initial=non[0], input_alphabet=sigma,
                   comm_alphabet=comm, prover_alphabet=comm, head_model=head,
                   delta=delta)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_random_partial_tables_complete_to_unitaries(seed):
    completed, report = validate_and_complete(random_partial_spec(seed))
    assert report.ok, report.violations


def test_delta_is_read_only():
    spec = la_partial_spec()
    with pytest.raises(TypeError):
        spec.delta[("q1", "a", "a")] = (("q1", "a", 1, 1.0),)


def test_spec_keeps_its_own_copy_of_delta():
    spec = la_partial_spec()
    delta = dict(spec.delta)
    copy = dataclasses.replace(spec, delta=delta)
    before = build_step_operator(copy, "a", sparse=True)
    delta[("q1", "a", "a")] = (("q1", "a", 1, 1.0),)
    del delta[("q0", "a", BLANK)]
    assert copy.delta == spec.delta
    assert (build_step_operator(copy, "a", sparse=True) != before).nnz == 0


@pytest.mark.parametrize("name", sorted(protocols.BUILTIN))
def test_built_ins_are_values(name):
    first, second = build_protocol(name).verifier, build_protocol(name).verifier
    assert first is not second
    assert "hash" not in first._cache  # a build hashes nothing
    assert first == second and hash(first) == hash(second)


@pytest.mark.parametrize("name", ["pal_sharp:d=2", "center:N=2", "upal:N=2", "npfa_coin",
                                  "la_mo", "odd"])
def test_spec_files_round_trip_by_value(name):
    spec = build_protocol(name).verifier
    parsed = parse_spec(serialize_spec(spec))
    assert parsed == spec and hash(parsed) == hash(spec)


def test_a_changed_amplitude_makes_another_value():
    spec = build_protocol("odd").verifier
    key, ((q2, g2, d, amp), *rest) = next(iter(spec.delta.items()))
    changed = dataclasses.replace(spec, delta={**spec.delta, key: ((q2, g2, d, -amp), *rest)})
    assert changed != spec


def test_specs_are_keys_and_set_members():
    odd, la_mo = build_protocol("odd").verifier, build_protocol("la_mo").verifier
    names = {odd: "odd", la_mo: "la_mo"}
    assert names[build_protocol("odd").verifier] == "odd"
    assert {odd, dataclasses.replace(odd), la_mo} == {la_mo, odd}


def test_a_second_hash_reads_the_cache():
    spec = la_partial_spec()
    first = hash(spec)
    object.__setattr__(spec, "_rows", None)  # a walk of the rows would now fail
    assert hash(spec) == first


def rows_spec(rows):
    """A one-state verifier over {a} whose delta holds ``rows``: (key,
    target) pairs, or a single one."""
    rows = rows if isinstance(rows, list) else [rows]
    return QfaSpec(name="bad", non_halting=("q",), accepting=(), rejecting=(),
                   initial="q", input_alphabet=("a",), comm_alphabet=(BLANK,),
                   prover_alphabet=(BLANK,), head_model=HeadModel.ONE_WAY,
                   delta={key: (target,) for key, target in rows})


UNKNOWN_TARGET = (("q", "a", BLANK), ("zz", BLANK, 1, 1.0))
UNKNOWN_SYMBOL = (("q", "b", BLANK), ("q", BLANK, 1, 1.0))
BAD_MOVE = (("q", "a", BLANK), ("q", BLANK, 2, 1.0))
UNKNOWN_CELL = (("q", LEFT_END, "c"), ("q", BLANK, 1, 1.0))


@pytest.mark.parametrize("row, error, text", [
    ((("zz", "a", BLANK), ("q", BLANK, 1, 1.0)), SpecError,
     "transition from unknown state 'zz'"),
    (UNKNOWN_SYMBOL, SpecError, "transition on unknown tape symbol 'b'"),
    ((("q", "a", "c"), ("q", BLANK, 1, 1.0)), SpecError,
     "transition on unknown cell symbol 'c'"),
    (UNKNOWN_TARGET, SpecError, "transition into unknown state 'zz'"),
    ((("q", "a", BLANK), ("q", "c", 1, 1.0)), SpecError,
     "transition writes unknown cell symbol 'c'"),
    (BAD_MOVE, SpecError, "head move must be in -1/0/+1, got 2"),
    ((("q", "a", BLANK), ("q", BLANK, 0, 1.0)), SpecError,
     "one-way verifier has a non-rightward move at ('q', 'a', '#')"),
    ((("q", "a", BLANK), ("q", BLANK, 1, complex("nan"))), DomainError,
     "non-finite amplitude (nan+0j)"),
    ((("q", "a", BLANK), ("q", BLANK, 1, 1.5j)), DomainError,
     "amplitude magnitude 1.5 exceeds 1"),
    # two faulty rows: an unknown name is named in delta order, whatever its kind
    ([UNKNOWN_TARGET, UNKNOWN_SYMBOL], SpecError, "transition into unknown state 'zz'"),
    ([UNKNOWN_SYMBOL, UNKNOWN_TARGET], SpecError, "transition on unknown tape symbol 'b'"),
    # every name is checked before any head move
    ([BAD_MOVE, UNKNOWN_CELL], SpecError, "transition on unknown cell symbol 'c'"),
    ([UNKNOWN_CELL, BAD_MOVE], SpecError, "transition on unknown cell symbol 'c'"),
    # head moves and amplitudes are checked tape symbol by tape symbol
    ([BAD_MOVE, ((("q", LEFT_END, BLANK), ("q", BLANK, 3, 1.0)))], SpecError,
     "head move must be in -1/0/+1, got 3"),
    ([((("q", LEFT_END, BLANK), ("q", BLANK, 3, 1.0))), BAD_MOVE], SpecError,
     "head move must be in -1/0/+1, got 3"),
    ([(("q", "a", BLANK), ("q", BLANK, 1, complex("nan"))),
      (("q", RIGHT_END, BLANK), ("q", BLANK, 1, 1.5))], DomainError,
     "non-finite amplitude (nan+0j)"),
    ([(("q", RIGHT_END, BLANK), ("q", BLANK, 1, 1.5)),
      (("q", "a", BLANK), ("q", BLANK, 1, complex("nan")))], DomainError,
     "non-finite amplitude (nan+0j)"),
])
def test_construction_error_messages(row, error, text):
    with pytest.raises(error) as info:
        rows_spec(row)
    assert str(info.value) == text


@pytest.mark.parametrize("field, names, text", [
    ("non_halting", ("q0", "q1", "q0"), "duplicate state names: ['q0']"),
    ("comm_alphabet", (BLANK, "a", "a"), "duplicate cell symbols: ['a']"),
    ("input_alphabet", ("a", "a"), "duplicate input symbols: ['a']"),
])
def test_duplicate_names_refused(field, names, text):
    spec = la_partial_spec()
    with pytest.raises(SpecError) as info:
        dataclasses.replace(spec, **{field: names})
    assert str(info.value) == text


def test_each_spec_compiles_once(monkeypatch):
    compiled, partials = [], []
    real_compile, real_complete = qfa._compile, protocols.validate_and_complete

    def counting(spec):
        compiled.append(spec.name)
        return real_compile(spec)

    def recording(spec, *args, **kwargs):
        partials.append(spec.name)
        return real_complete(spec, *args, **kwargs)

    monkeypatch.setattr(qfa, "_compile", counting)
    monkeypatch.setattr(protocols, "validate_and_complete", recording)
    for name in BUILT_INS:
        compiled.clear()
        partials.clear()
        verifier = build_protocol(name).verifier
        for x in strings(verifier.input_alphabet, 2):
            build_step_operator(verifier, x, sparse=True)
        # one name walk per partial table; its completion appends to the table
        assert partials and compiled == partials, name
