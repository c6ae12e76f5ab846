import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qipsim.qfa as qfa
from qipsim.linalg import DomainError, check_unitary
from qipsim.protocols import build_protocol
from qipsim.qfa import (BLANK, LEFT_END, RIGHT_END, HeadModel, QfaSpec,
                        SpecError, StructureMode, build_step_operator,
                        check_structure, symbol_at, validate_and_complete)


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
    completed, report = validate_and_complete(la_partial_spec(), lengths=range(7))
    assert report.ok
    assert all(report.well_formed[n] for n in range(7))
    assert report.completed_transitions > 0


def test_completion_is_idempotent():
    completed, _ = validate_and_complete(la_partial_spec(), lengths=(0, 1, 2))
    again, report = validate_and_complete(completed, lengths=(0, 1, 2))
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
        validate_and_complete(bad, lengths=(1,))


def test_empty_table_completes_to_permutation():
    spec = QfaSpec(name="empty", non_halting=("q0",), accepting=(), rejecting=(),
                   initial="q0", input_alphabet=("a",),
                   comm_alphabet=(BLANK, "a"), prover_alphabet=(BLANK, "a"),
                   head_model=HeadModel.ONE_WAY, delta={})
    completed, report = validate_and_complete(spec, lengths=(0, 1))
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
    completed, _ = validate_and_complete(spec, lengths=(1,))
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
    assert check_structure(zero_public.verifier, StructureMode.ONE_WAY_HALTING,
                           lengths=(0, 1, 2, 3)).ok
    assert check_structure(odd.verifier, StructureMode.ONE_WAY_HALTING,
                           lengths=(0, 1, 2, 3)).ok


def test_alphabet_error():
    spec = la_partial_spec()
    with pytest.raises(Exception, match="alphabet"):
        build_step_operator(spec, "b")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_random_partial_tables_complete_to_unitaries(seed):
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
    spec = QfaSpec(name="rand", non_halting=tuple(non), accepting=tuple(acc),
                   rejecting=tuple(rej), initial=non[0], input_alphabet=sigma,
                   comm_alphabet=comm, prover_alphabet=comm, head_model=head,
                   delta=delta)
    completed, report = validate_and_complete(spec, lengths=(0, 1, 2, 3))
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


def one_row_spec(row):
    key, target = row
    return QfaSpec(name="bad", non_halting=("q",), accepting=(), rejecting=(),
                   initial="q", input_alphabet=("a",), comm_alphabet=(BLANK,),
                   prover_alphabet=(BLANK,), head_model=HeadModel.ONE_WAY,
                   delta={key: (target,)})


@pytest.mark.parametrize("row, error, text", [
    ((("zz", "a", BLANK), ("q", BLANK, 1, 1.0)), SpecError,
     "transition from unknown state 'zz'"),
    ((("q", "b", BLANK), ("q", BLANK, 1, 1.0)), SpecError,
     "transition on unknown tape symbol 'b'"),
    ((("q", "a", "c"), ("q", BLANK, 1, 1.0)), SpecError,
     "transition on unknown cell symbol 'c'"),
    ((("q", "a", BLANK), ("zz", BLANK, 1, 1.0)), SpecError,
     "transition into unknown state 'zz'"),
    ((("q", "a", BLANK), ("q", "c", 1, 1.0)), SpecError,
     "transition writes unknown cell symbol 'c'"),
    ((("q", "a", BLANK), ("q", BLANK, 2, 1.0)), SpecError,
     "head move must be in -1/0/+1, got 2"),
    ((("q", "a", BLANK), ("q", BLANK, 0, 1.0)), SpecError,
     "one-way verifier has a non-rightward move at ('q', 'a', '#')"),
    ((("q", "a", BLANK), ("q", BLANK, 1, complex("nan"))), DomainError,
     "non-finite amplitude (nan+0j)"),
    ((("q", "a", BLANK), ("q", BLANK, 1, 1.5j)), DomainError,
     "amplitude magnitude 1.5 exceeds 1"),
])
def test_construction_error_messages(row, error, text):
    with pytest.raises(error) as info:
        one_row_spec(row)
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
    compiled = []
    real = qfa._compile

    def counting(spec):
        compiled.append(spec.name)
        return real(spec)

    monkeypatch.setattr(qfa, "_compile", counting)
    verifier = build_protocol("upal:N=4").verifier
    for x in ("", "0", "01", "0011", "1", "10", "001", "110", "0101", "11"):
        build_step_operator(verifier, x, sparse=True)
    # the partial table and its completion
    assert len(compiled) == 2
