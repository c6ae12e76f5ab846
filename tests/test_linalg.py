import cmath
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from qipsim.linalg import (ContractViolation, DimensionError, DomainError,
                           check_unitary, csc_arrays, gram_entries, near_identity_power,
                           phase, prune, qft_matrix, unitary_deviation)


def test_check_unitary_identity():
    assert check_unitary(np.eye(4), 1e-9)


def test_check_unitary_rejects_shear():
    assert not check_unitary(np.array([[1, 1], [0, 1]], dtype=complex), 1e-9)


def test_check_unitary_nonsquare_raises():
    with pytest.raises(DimensionError):
        check_unitary(np.ones((2, 3)), 1e-9)


def test_qft_3_is_unitary():
    assert check_unitary(qft_matrix(3), 1e-9)


def test_qft_trivial_and_two_point():
    assert np.allclose(qft_matrix(1), [[1.0]])
    expected = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    assert np.allclose(qft_matrix(2), expected, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 17))
def test_qft_unitary_up_to_16(n):
    assert check_unitary(qft_matrix(n), 1e-9)


def test_qft_zero_raises():
    with pytest.raises(DomainError):
        qft_matrix(0)


def test_near_identity_power_identity():
    assert near_identity_power(np.eye(3), np.array([1, 0, 0]), 0.1, 10) == 1


def test_near_identity_power_third_root():
    u = np.diag([1.0, cmath.exp(2j * math.pi / 3)])
    x = np.array([1, 1], dtype=complex) / math.sqrt(2)
    assert near_identity_power(u, x, 1e-12, 10) == 3


def test_near_identity_power_generic_angle():
    u = np.diag([1.0, cmath.exp(1j)])
    n = near_identity_power(u, np.array([0, 1], dtype=complex), 0.01, 10 ** 6)
    assert n is not None
    # recompute independently
    diff = 1.0 - cmath.exp(1j * n)
    assert abs(diff) ** 2 < 0.01


def test_near_identity_power_budget_exhaustion():
    u = np.diag([1.0, cmath.exp(1j)])
    assert near_identity_power(u, np.array([0, 1], dtype=complex), 1e-9, 3) is None


def test_near_identity_power_rejects_nonunitary():
    with pytest.raises(ContractViolation):
        near_identity_power(np.array([[2, 0], [0, 1]], dtype=complex),
                            np.array([1, 0]), 0.1, 10)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 30), st.integers(1, 1000))
def test_norm_preserved_under_repeated_application(dim, seed, reps):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u, r = np.linalg.qr(z)
    x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    x /= np.linalg.norm(x)
    y = x
    for _ in range(min(reps, 50)):
        y = u @ y
    assert abs(np.linalg.norm(y) - 1.0) <= 1e-9


def test_prune_and_norm():
    vec = {"a": 0.6, "b": 1e-15, "c": 0.8j}
    out = prune(vec)
    assert set(out) == {"a", "c"}


def test_phase_literal():
    assert phase(1, 4) == pytest.approx(1j)
    assert phase(2, 2) == pytest.approx(1.0)


@pytest.mark.parametrize("m", [np.eye(3), np.array([[1, 1], [0, 1]]),
                               np.array([[1, 0], [0, 0]]), np.zeros((0, 0))],
                         ids=["identity", "shear", "zero_column", "empty"])
def test_check_unitary_sparse_and_dense_agree(m):
    dense = check_unitary(m.astype(complex), 1e-9)
    assert check_unitary(sp.csr_matrix(m.astype(complex)), 1e-9) == dense
    assert dense == (m.shape[0] == 0 or np.array_equal(m, np.eye(len(m))))


@pytest.mark.parametrize("m, dev", [(np.eye(3), 0.0), (np.array([[1, 1], [0, 1]]), 1.0),
                                    (np.array([[1, 0], [0, 0]]), 1.0),
                                    (np.array([[0.6, 0], [0, 1]]), 0.64),
                                    (np.zeros((0, 0)), 0.0)],
                         ids=["identity", "shear", "zero_column", "short_column", "empty"])
def test_unitary_deviation_sparse_and_dense(m, dev):
    m = m.astype(complex)
    assert unitary_deviation(m) == pytest.approx(dev)
    assert unitary_deviation(sp.csc_matrix(m)) == pytest.approx(dev)


# Entries of a matrix with at most 4 rows and columns; the values are exact in
# binary, so sums in any order agree, and repeats and cancellations are common.
coo_entries = st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, 3), st.integers(0, max(n - 1, 0)),
                                   st.sampled_from([1, -1, 1j, -1j, 0.5, -0.5 + 0.25j])),
                         max_size=12 if n else 0)))


def dense_from_entries(n, entries):
    a = np.zeros((4, n), dtype=complex)
    for r, c, v in entries:
        a[r, c] += v
    return a


@settings(max_examples=300, deadline=None)
@given(coo_entries)
def test_gram_entries_equal_the_dense_gram(drawn):
    n, entries = drawn
    rows, cols, values = (np.array(v) for v in zip(*entries)) if entries else ([],) * 3
    i, j, g = gram_entries(np.asarray(rows, dtype=np.intp), cols, values, n)
    keys = i * n + j
    assert np.array_equal(keys, np.unique(keys))  # each place once, by (i, j)
    gram = np.zeros((n, n), dtype=complex)
    gram[i, j] = g
    a = dense_from_entries(n, entries)
    assert np.array_equal(gram, a.conj().T @ a)


def test_gram_entries_keep_a_cancelled_place():
    # conj(1)·1 + conj(1)·(-1) cancels; the place stays with an exact zero
    i, j, g = gram_entries(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                           np.array([1, 1, 1, -1], dtype=complex), 2)
    assert (i.tolist(), j.tolist(), g.tolist()) == ([0, 0, 1, 1], [0, 1, 0, 1],
                                                    [2, 0, 0, 2])


@settings(max_examples=300, deadline=None)
@given(coo_entries)
def test_csc_arrays_equal_scipy_csc(drawn):
    n, entries = drawn
    rows, cols, values = (list(v) for v in zip(*entries)) if entries else ([],) * 3
    csc = csc_arrays(rows, cols, values, n)
    ref = sp.csc_matrix((np.array(values, dtype=complex), (rows, cols)), shape=(4, n))
    assert np.array_equal(csc.indptr, ref.indptr)
    assert np.array_equal(csc.indices, ref.indices)
    assert csc.data.tobytes() == ref.data.tobytes()
