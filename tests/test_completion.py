"""Block-local completion and the compiled step table."""
import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp

import qipsim.qfa as qfa
from qipsim.linalg import DomainError
from qipsim.protocols import build_protocol
from qipsim.qfa import (BLANK, LEFT_END, RIGHT_END, HeadModel, QfaSpec,
                        build_step_operator, symbol_at, validate_and_complete)
from tests.conftest import strings

# Every built-in at its default parameters plus the larger instances.
BUILT_INS = (
    "zero_public", "la_mo", "odd", "pal_sharp", "center", "eraser_zero",
    "eraser_end1", "rfa_even_a", "rfa_all_a", "npfa_single_a", "npfa_coin",
    "npfa_choice", "union_zero_end1", "upal:N=2", "upal:N=3", "upal:N=4",
    "pal_sharp:d=3", "pal_sharp:d=4", "center:N=4", "center:N=6")


@functools.lru_cache(maxsize=None)
def verifier(name):
    return build_protocol(name).verifier


def reference_step_operator(spec, x):
    """The step operator entry by entry, straight from delta."""
    width = len(x) + 2
    gsz = len(spec.comm_alphabet)
    q_idx = {q: i for i, q in enumerate(spec.states)}
    g_idx = {g: i for i, g in enumerate(spec.comm_alphabet)}

    def index(q, k, g):
        return (q_idx[q] * width + k) * gsz + g_idx[g]

    rows, cols, data = [], [], []
    for (q, sigma, gamma), targets in spec.delta.items():
        for k in range(width):
            if symbol_at(x, k) != sigma:
                continue
            for (q2, g2, d, amp) in targets:
                rows.append(index(q2, (k + d) % width, g2))
                cols.append(index(q, k, gamma))
                data.append(amp)
    dim = len(spec.states) * width * gsz
    return sp.csc_matrix((data, (rows, cols)), shape=(dim, dim), dtype=complex)


def two_moves_to_one_target():
    """A column whose two targets differ only in the move (-1 and +1), and a
    column with no targets at all."""
    h = 1 / math.sqrt(2)
    return QfaSpec(name="split", non_halting=("q0", "q1"), accepting=(),
                   rejecting=(), initial="q0", input_alphabet=("a",),
                   comm_alphabet=(BLANK,), prover_alphabet=(BLANK,),
                   head_model=HeadModel.TWO_WAY,
                   delta={("q0", LEFT_END, BLANK): (("q1", BLANK, -1, h),
                                                    ("q1", BLANK, 1, h)),
                          ("q1", "a", BLANK): ()})


@pytest.mark.parametrize("name", BUILT_INS)
def test_step_operator_matches_reference(name):
    spec = verifier(name)
    for x in strings(spec.input_alphabet, 3):
        ref = reference_step_operator(spec, x)
        assert (build_step_operator(spec, x, sparse=True) - ref).nnz == 0, (name, x)
    assert np.array_equal(build_step_operator(spec, ""),
                          reference_step_operator(spec, "").toarray())


def test_step_operator_matches_reference_on_hand_built_columns():
    spec = two_moves_to_one_target()
    for x in ("", "a", "aa"):
        ref = reference_step_operator(spec, x)
        assert (build_step_operator(spec, x, sparse=True) - ref).nnz == 0, x
    # on the empty input the tape has width 2, so -1 and +1 reach the same
    # cell: (q1, 1) at index 3 gets both amplitudes from (q0, 0) at index 0
    assert build_step_operator(spec, "")[3, 0] == pytest.approx(math.sqrt(2))


@pytest.mark.parametrize("name, max_rows", [("upal:N=4", 4), ("pal_sharp:d=4", 30)])
def test_completion_svd_sees_only_the_block(monkeypatch, name, max_rows):
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(qfa.np.linalg, "svd", recording_svd)
    build_protocol(name)
    assert shapes
    assert max(rows for rows, _cols in shapes) <= max_rows, shapes


def hadamard_spec():
    """Two-way table over {a}: a Hadamard column pair on 'a' and a lone
    superposition column on the left endmarker among axis-aligned rows.  Head
    moves follow the target state, so every per-symbol unitary closure gives
    a unitary step operator."""
    h = 1 / math.sqrt(2)
    move = {"q0": 0, "q1": 1, "q2": 1, "q3": -1, "acc": 0, "rej": 0}

    def to(q, amp=1.0):
        return (q, BLANK, move[q], amp)

    return QfaSpec(
        name="hadamard", non_halting=("q0", "q1", "q2", "q3"),
        accepting=("acc",), rejecting=("rej",), initial="q0",
        input_alphabet=("a",), comm_alphabet=(BLANK, "b"),
        prover_alphabet=(BLANK, "b"), head_model=HeadModel.TWO_WAY,
        delta={
            ("q0", LEFT_END, BLANK): (to("q1", h), to("q2", h)),
            ("q1", "a", BLANK): (to("q1", h), to("q2", h)),
            ("q2", "a", BLANK): (to("q1", h), to("q2", -h)),
            ("q0", "a", BLANK): (to("q3"),),
            ("q3", "a", BLANK): (to("q0"),),
            ("q1", RIGHT_END, BLANK): (to("acc"),),
            ("q2", RIGHT_END, BLANK): (to("rej"),),
        })


def test_completion_keeps_specified_rows_and_confines_block_vectors():
    spec = hadamard_spec()
    completed, report = validate_and_complete(spec, lengths=range(7))
    assert report.ok, report.violations
    assert report.max_unitary_deviation <= 1e-9
    for key, targets in spec.delta.items():
        assert completed.delta[key] == targets, key
    block_rows = {sigma: set() for sigma in spec.tape_symbols}
    for (_q, sigma, _g), targets in spec.delta.items():
        if len(targets) > 1:
            block_rows[sigma].update((q2, g2) for (q2, g2, _d, _amp) in targets)
    spread = []
    for (q, sigma, g) in completed.completion_keys:
        if q not in completed.completion_states:
            continue
        targets = completed.delta[(q, sigma, g)]
        if len(targets) > 1:
            assert {(q2, g2) for (q2, g2, _d, _amp) in targets} <= block_rows[sigma]
            spread.append(sigma)
    # the endmarker's block has rank 1 of 2, so exactly one fresh column spans it
    assert spread == [LEFT_END]


def test_report_carries_the_largest_unitarity_deviation():
    # (p, ^) and (p, a) both enter r but with different moves, so from
    # positions 0 and 1 they collide on one cell: two columns with overlap 1
    spec = QfaSpec(name="collide", non_halting=("p", "r"), accepting=(),
                   rejecting=(), initial="p", input_alphabet=("a",),
                   comm_alphabet=(BLANK,), prover_alphabet=(BLANK,),
                   head_model=HeadModel.TWO_WAY,
                   delta={("p", LEFT_END, BLANK): (("r", BLANK, 1, 1.0),),
                          ("p", "a", BLANK): (("r", BLANK, 0, 1.0),)})
    _completed, report = validate_and_complete(spec, lengths=(0, 1))
    assert report.well_formed == {0: True, 1: False}
    assert report.max_unitary_deviation == pytest.approx(1.0)


@pytest.mark.parametrize("tol", [0.0, -1e-9])
def test_validation_refuses_a_non_positive_tolerance(tol):
    # refused up front, even when no input length is sampled
    with pytest.raises(DomainError, match="tolerance"):
        validate_and_complete(hadamard_spec(), lengths=(), tol=tol)
