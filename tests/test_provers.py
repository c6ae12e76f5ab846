import itertools
import json

import numpy as np
import pytest

import qipsim.provers as provers
from qipsim.adversary import _random_unitaries
from qipsim.linalg import UNITARY_TOL, ContractViolation
from qipsim.provers import (ClassicalProverTable, DenseProver, EraseAllProver,
                            IdentityProver, ProverStrategy, ReversibilityError,
                            ScriptedProver, complete_permutation, TableProver,
                            densify_schedule, from_description)
from qipsim.qfa import BLANK


def test_identity_table_is_identity_prover():
    table = ClassicalProverTable(entries={(1, "a", "m0"): ("a", "m0")})
    prover = TableProver(table)
    assert prover.apply("x", 1, "a", "m0") == [("a", "m0", 1.0)]
    assert prover.apply("x", 5, "b", "m1") == [("b", "m1", 1.0)]


def test_collision_raises_naming_pair():
    table = ClassicalProverTable(entries={
        (1, "a", "m0"): ("#", "m0"),
        (1, "b", "m0"): ("#", "m0"),
    })
    with pytest.raises(ReversibilityError,
                       match=r"step 1: \('a', 'm0'\) and \('b', 'm0'\) both map to"):
        TableProver(table)


def test_identity_is_committed():
    for x in ("", "ab", "abba"):
        assert IdentityProver().committed(x, 2 * (len(x) + 2) ** 2)


def test_scripted_blank_violation_is_not_committed():
    bad = ScriptedProver(script_builder=lambda x: {1: {BLANK: "a"}}, name="bad")
    assert not bad.committed("", 2)
    late = ScriptedProver(script_builder=lambda x: {3: {"a": BLANK, BLANK: "b"}}, name="late")
    assert [late.committed("", i) for i in (0, 2, 3, 9)] == [True, True, False, False]


def test_erase_all_is_committed():
    assert EraseAllProver().committed("10", 8)


def test_odd_honest_committed(odd):
    assert odd.honest_prover.committed("10", 4)


def test_a_prover_that_does_not_say_is_not_committed():
    assert not ProverStrategy().committed("x", 1)


def test_table_committed_reads_blank_entries_up_to_i_max():
    table = TableProver(ClassicalProverTable(entries={
        (1, BLANK, "m0"): (BLANK, "m1"), (1, "a", "m0"): ("b", "m0"),
        (3, BLANK, "m1"): ("a", "m1"), (3, "a", "m1"): (BLANK, "m1")}))
    assert [table.committed("x", i) for i in (0, 1, 2, 3, 4)] == [True] * 3 + [False] * 2
    # an entry on a memory label no run reaches still counts
    unreached = TableProver(ClassicalProverTable(entries={
        (1, BLANK, "m9"): ("a", "m9"), (1, "a", "m9"): (BLANK, "m9")}))
    assert not unreached.committed("x", 1)


def rotation(dim, src, dst, angle):
    """The identity with basis states src and dst rotated into each other."""
    m = np.eye(dim, dtype=complex)
    m[[src, dst], [src, dst]] = np.cos(angle)
    m[dst, src], m[src, dst] = np.sin(angle), -np.sin(angle)
    return m


def test_dense_committed_reads_the_blank_to_non_blank_block():
    comm, tape = (BLANK, "a"), (BLANK, "a", "b")
    index = {lbl: j for j, lbl in enumerate(provers.dense_basis(comm, tape, 1))}
    blank_col, filled_row = index[BLANK, ("b",)], index["a", (BLANK,)]
    # a blank cell that keeps its cell but changes its tape is committed
    tape_move = complete_permutation({index[BLANK, (BLANK,)]: blank_col,
                                      blank_col: index[BLANK, (BLANK,)]}, 6)
    # the non-blank block may mix freely
    filled_mix = rotation(6, index["a", ("a",)], filled_row, 0.3)
    write = complete_permutation({blank_col: filled_row, filled_row: blank_col}, 6)
    p = DenseProver(comm, tape, 1, [tape_move, filled_mix, write])
    assert [p.committed("x", i) for i in (0, 1, 2, 3, 9)] == [True] * 3 + [False] * 2
    # a unitary round with a 1e-13 leak from blank to non-blank: `apply` keeps
    # the entry, so the round is not committed
    faint = DenseProver(comm, tape, 1, [rotation(6, blank_col, filled_row, 1e-13)])
    assert abs(dict(((g, y), a) for g, y, a in faint.apply("x", 1, BLANK, ("b",)))
               ["a", (BLANK,)]) == pytest.approx(1e-13)
    assert not faint.committed("x", 1)
    # below DENSE_ENTRY_TOL the entry is dropped, and the round is committed
    assert DenseProver(comm, tape, 1, [rotation(6, blank_col, filled_row, 1e-15)]
                       ).committed("x", 1)
    # a shear within UNITARY_TOL: filling a blank cell is refused, blanking a
    # filled one is not
    fill, erase = np.eye(6, dtype=complex), np.eye(6, dtype=complex)
    fill[filled_row, blank_col] = erase[blank_col, filled_row] = 1e-10
    assert not DenseProver(comm, tape, 1, [fill]).committed("x", 1)
    assert DenseProver(comm, tape, 1, [erase]).committed("x", 1)


def test_scripted_prover_records_consumed_symbol():
    p = ScriptedProver(script_builder=lambda x: {2: {"a": BLANK}}, name="t")
    assert p.apply("x", 1, "a", "") == [("a", "", 1.0)]
    [(g2, y2, amp)] = p.apply("x", 2, "a", "")
    assert (g2, y2) == (BLANK, "|a")
    [(g2, y2, amp)] = p.apply("x", 2, BLANK, "|a")
    assert (g2, y2) == (BLANK, "|a|" + BLANK)


def test_dense_prover_round_matrices_permute():
    swap = np.eye(6, dtype=complex)[[1, 0, 2, 3, 4, 5]]
    p = DenseProver((BLANK, "a"), (BLANK, "a", "b"), 1, [swap, np.eye(6, dtype=complex)])
    assert isinstance(p.matrices, tuple)
    assert p.apply("x", 1, BLANK, (BLANK,)) == [(BLANK, ("a",), 1.0)]
    assert p.apply("x", 2, "a", ("b",)) == [("a", ("b",), 1.0)]
    assert p.apply("x", 9, "a", ("b",)) == [("a", ("b",), 1.0 + 0j)]


def test_dense_prover_refuses_a_non_unitary_round_matrix():
    shear = np.eye(6, dtype=complex)
    shear[0, 1] = 1e-8  # off by more than UNITARY_TOL
    with pytest.raises(ContractViolation, match="round 3 matrix"):
        DenseProver((BLANK, "a"), (BLANK, "a", "b"), 1, [np.eye(6)] * 2 + [shear, shear])
    shear[0, 1] = 1e-10  # within UNITARY_TOL
    DenseProver((BLANK, "a"), (BLANK, "a", "b"), 1, [shear])
    assert DenseProver((BLANK, "a"), (BLANK, "a", "b"), 1, []).matrices == ()


def stacked_deviations(stack):
    """The max-entry norm of MᴴM − I of each round, by the full product."""
    return np.abs(stack.conj().transpose(0, 2, 1) @ stack
                  - np.eye(stack.shape[1])).max(axis=(1, 2))


def test_dense_prover_refuses_a_monomial_round_off_the_unit_circle():
    swap = complete_permutation({0: 3, 3: 0}, 6) * np.exp(0.4j)
    off = swap.copy()
    off[3, 0] = 1.1 * np.exp(0.9j)  # one phase of modulus 1.1
    with pytest.raises(ContractViolation, match="^round 2 matrix of the prover is not unitary$"):
        DenseProver((BLANK, "a"), (BLANK, "a", "b"), 1, [swap, off, swap])
    dev = provers._round_deviations(np.asarray([swap, off]))
    assert dev[0] <= 1e-15 and dev[1] == pytest.approx(0.21)


def test_a_permutation_with_a_stray_entry_takes_the_full_product():
    perm = complete_permutation({0: 1, 1: 0, 4: 5}, 6)
    perm[2, 0] = 1e-15  # two nonzeros in column 0: not monomial
    stack = np.asarray([perm])
    dev = provers._round_deviations(stack)
    assert 0 < dev[0] < UNITARY_TOL and dev[0] == stacked_deviations(stack)[0]
    DenseProver((BLANK, "a"), (BLANK, "a", "b"), 1, [perm])


def test_monomial_and_full_deviations_agree_on_random_rounds():
    rng = np.random.default_rng(26)
    rounds = []
    for k in range(200):
        dim = int(rng.integers(1, 9))
        if k % 2:
            m = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        else:  # a permutation with phases
            m = np.zeros((dim, dim), dtype=complex)
            m[rng.permutation(dim), np.arange(dim)] = np.exp(2j * np.pi * rng.random(dim))
        if k % 4 >= 2:  # perturbed: one entry scaled, or a stray entry added
            i, j = rng.integers(dim, size=2)
            scale = 10.0 ** rng.choice([-12, -11, -7, -5])
            if m[i, j] != 0 and rng.random() < 0.5:
                m[i, j] *= 1 + scale
            else:
                m[i, j] += scale * np.exp(2j * np.pi * rng.random())
        rounds.append(m)
    verdicts = set()
    for m in rounds:
        stack = np.asarray([m])
        dev, full = provers._round_deviations(stack)[0], stacked_deviations(stack)[0]
        assert (dev > UNITARY_TOL) == (full > UNITARY_TOL)
        assert dev == pytest.approx(full, abs=1e-15)
        verdicts.add(bool(dev > UNITARY_TOL))
    assert verdicts == {True, False}


def test_dense_columns_list_the_kept_entries_by_row():
    rng = np.random.default_rng(7)
    u = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    block = np.eye(6, dtype=complex)  # a unitary with zeros in every column
    block[:2, :2] = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    p = DenseProver((BLANK, "a"), (BLANK, "a", "b"), 1, [u, block])
    for i, m in ((1, u), (2, block)):
        for src, (g, y) in enumerate(p.labels):
            kept = np.abs(m[:, src]) > provers.DENSE_ENTRY_TOL
            assert p.apply("", i, g, y) == [(*p.labels[row], complex(m[row, src]))
                                             for row in np.flatnonzero(kept)]


def test_dense_prover_refuses_nan_rounds():
    comm, tape = (BLANK, "a"), (BLANK,)
    eye = np.eye(2, dtype=complex)
    eye[0, 0] = np.nan  # one nonzero per row and column: the monomial path
    with pytest.raises(ContractViolation, match="round 2 matrix"):
        DenseProver(comm, tape, 1, [np.eye(2), eye])
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    hadamard[1, 0] = np.nan  # the full product
    with pytest.raises(ContractViolation, match="round 1 matrix"):
        DenseProver(comm, tape, 1, [hadamard])
    text = ('{"kind": "dense", "c": 1, "comm_alphabet": ["#", "a"], "tape_alphabet": ["#"], '
            '"matrices": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [NaN, 0.0]]]}')
    with pytest.raises(ContractViolation, match="round 1 matrix"):
        from_description(json.loads(text))


def test_dense_prover_refuses_a_matrix_of_the_wrong_shape():
    with pytest.raises(ValueError, match="6x6"):
        DenseProver((BLANK, "a"), (BLANK, "a", "b"), 1, [np.eye(6), np.eye(4)])


def test_dense_labels_follow_the_basis_order():
    p = DenseProver((BLANK, "a"), (BLANK, "a"), 2, [])
    assert p.labels == tuple((g, w) for g in (BLANK, "a")
                             for w in itertools.product((BLANK, "a"), repeat=2))
    assert all(p.index[lbl] == j for j, lbl in enumerate(p.labels))


def test_densify_schedule_reproduces_visible_pairs():
    visible = [(BLANK, BLANK), ("a", BLANK), (BLANK, "a")]
    p = densify_schedule(visible, (BLANK, "a"), (BLANK, "a", "b"), 3)
    y = p.initial_tape("")
    for i, (seen, written) in enumerate(visible, start=1):
        [(g2, y2, amp)] = p.apply("", i, seen, y)
        assert g2 == written and amp == pytest.approx(1.0)
        y = y2
    for m in p.matrices:
        assert np.allclose(np.abs(m @ m.conj().T), np.eye(p.dim), atol=1e-12)


def test_densify_rejects_small_tape():
    with pytest.raises(ValueError, match="cannot encode"):
        densify_schedule([(BLANK, BLANK)] * 30, (BLANK,), (BLANK, "a"), 2)


def test_idle_rounds_of_each_prover():
    assert not ProverStrategy().idle("x", 1)
    assert IdentityProver().idle("x", 1)
    assert not any(EraseAllProver().idle("x", i) for i in range(1, 5))
    scripted = ScriptedProver(script_builder=lambda x: {2: {"a": BLANK}}, name="t")
    assert [scripted.idle("x", i) for i in (1, 2, 3)] == [True, False, True]
    table = TableProver(ClassicalProverTable(entries={
        (1, "a", "m0"): ("a", "m0"), (3, "a", "m0"): ("b", "m1")}))
    assert [table.idle("x", i) for i in (1, 2, 3, 4)] == [False, True, False, True]
    dense = DenseProver((BLANK, "a"), (BLANK, "a", "b"), 1, [np.eye(6)] * 2)
    assert [dense.idle("x", i) for i in (1, 2, 3)] == [False, False, True]


def test_complete_permutation_refuses_shared_destination():
    with pytest.raises(ReversibilityError):
        complete_permutation({0: 2, 1: 2}, 3)


def test_dense_description_is_the_per_entry_encoding_and_decodes_bit_for_bit():
    mats = list(_random_unitaries(np.random.default_rng(5), 22, 12))
    mats[3] = mats[3].T  # unitary too, and not C-contiguous
    prover = DenseProver((BLANK, "0", "1"), (BLANK, "0", "1", "x"), 1, mats)
    text = json.dumps(prover.describe())
    reference = {"kind": "dense", "c": 1, "comm_alphabet": [BLANK, "0", "1"],
                 "tape_alphabet": [BLANK, "0", "1", "x"],
                 "matrices": [[[z.real, z.imag] for z in m.flatten()] for m in mats]}
    assert text == json.dumps(reference)
    decoded = from_description(json.loads(text))
    assert [m.tobytes() for m in decoded.matrices] == [m.tobytes() for m in prover.matrices]
