"""Complex linear-algebra primitives shared by the whole toolkit.

Amplitudes are double-precision complex numbers throughout.  Sparse
superpositions are plain dicts mapping an opaque basis label (any hashable,
canonically an ordered tuple) to a complex amplitude; entries below the prune
threshold are dropped so that iteration order and memory stay bounded.

Sparse operators are numpy arrays of their entries: coordinate triples
(rows, cols, values), or the compressed-column arrays of `Csc`.  Only their
layout and Gram products are needed, so scipy.sparse is not imported.
"""
from __future__ import annotations

import cmath
import math
import operator
from typing import NamedTuple

import numpy as np


# Fixed tolerances; a call that exposes a ``tol`` argument may pass another.
UNITARY_TOL = 1e-9
PRUNE_TOL = 1e-12
# Read by nothing in the library, whose probability comparisons use 1e-9
# bounds named where they are made; perfbench/run.py prints it.
PROB_TOL = 1e-6


class DimensionError(ValueError):
    """Operator/vector shapes do not line up."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class ContractViolation(ValueError):
    """A precondition (e.g. unitarity of an input operator) fails."""


def checked_count(what: str, value, least: int) -> int:
    """``value`` as an int, if it is an integer (numpy integers pass) and at
    least ``least``; otherwise a `DomainError` naming ``what``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{what} must be at least {least}, got {value}")
    return value


# ---------------------------------------------------------------------------
# Dense operators
# ---------------------------------------------------------------------------

def unitary_deviation(m) -> float:
    """Max-entry norm of M†M − I.

    Accepts a dense ndarray or a scipy sparse matrix (the latter is what the
    per-input step operators use; they have O(dim) nonzeros).
    """
    if hasattr(m, "tocoo"):
        m = m.tocoo()
        rows, cols = m.shape
        if rows != cols:
            raise DimensionError(f"operator is {rows}x{cols}, not square")
        # the stored off-diagonal entries of M†M and its diagonal minus one
        i, j, g = gram_entries(m.row, m.col, m.data, cols)
        on = i == j
        diag = np.zeros(cols, dtype=complex)
        diag[i[on]] = g[on]
        dev = np.concatenate((g[~on], diag - 1))
    else:
        a = np.asarray(m, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"operator has shape {a.shape}, not square")
        dev = a.conj().T @ a - np.eye(a.shape[0])
    return float(np.abs(dev).max(initial=0.0))


def check_unitary(m, tol: float = UNITARY_TOL) -> bool:
    """True iff `unitary_deviation` of ``m`` is at most ``tol``."""
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    return unitary_deviation(m) <= tol


def qft_matrix(n: int) -> np.ndarray:
    """N-point quantum Fourier transform, entry (l, j) = exp(2πi·jl/N)/√N."""
    if n < 1:
        raise DomainError(f"QFT size must be >= 1, got {n}")
    j, l = np.meshgrid(np.arange(n), np.arange(n))
    return np.exp(2j * math.pi * j * l / n) / math.sqrt(n)


def near_identity_power(u, x, eps: float, n_max: int,
                        tol: float = UNITARY_TOL) -> int | None:
    """Smallest n ≤ n_max with ‖(I−Uⁿ)x‖² < eps, or None if the budget runs out.

    Some finite n always exists for unitary U (powers of a unitary return
    arbitrarily close to the identity), so None only signals that n_max was
    too small.
    """
    if eps <= 0:
        raise DomainError(f"eps must be positive, got {eps}")
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    u = np.asarray(u, dtype=complex)
    if not check_unitary(u, tol):
        raise ContractViolation("near_identity_power requires a unitary operator")
    x = np.asarray(x, dtype=complex)
    if x.shape != (u.shape[0],):
        raise DimensionError(f"vector shape {x.shape} does not match dim {u.shape[0]}")
    y = x.copy()
    for n in range(1, n_max + 1):
        y = u @ y
        d = x - y
        if float(np.real(np.vdot(d, d))) < eps:
            return n
    return None


# ---------------------------------------------------------------------------
# Sparse operators as entry arrays
# ---------------------------------------------------------------------------

class Csc(NamedTuple):
    """Compressed-column arrays: column j's entries are ``data[indptr[j]:
    indptr[j+1]]``, in rows ``indices[indptr[j]:indptr[j+1]]``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def csc_arrays(rows, cols, values, n_cols: int) -> Csc:
    """The `Csc` form of the entries (rows, cols, values) of a matrix with
    ``n_cols`` columns: each column's entries by row, and entries at one place
    summed in the order given, as scipy's ``csc_matrix((values, (rows,
    cols)))`` stores them.  Exact zeros are kept."""
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    order = np.lexsort((rows, cols))  # stable: by column, then by row
    rows, cols, values = rows[order], cols[order], np.asarray(values, dtype=complex)[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    data = values[first]
    if not first.all():
        np.add.at(data, np.cumsum(first)[~first] - 1, values[~first])
    indptr = np.zeros(n_cols + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols[first], minlength=n_cols), out=indptr[1:])
    return Csc(indptr, rows[first], data)


def gram_products(rows, values):
    """(a, b, conj(values[a])·values[b]) for every two entries a and b that
    share a row, among the entries (rows, values) of a matrix A: a row's s
    entries give s² products, listed row by row, each row's pairs in the
    order of its entries.  (AᴴA)_ij sums the products of the pairs in columns
    i and j."""
    order = np.argsort(rows, kind="stable")
    start = np.flatnonzero(np.diff(np.asarray(rows)[order], prepend=-1))  # rows are >= 0
    size = np.diff(start, append=len(order))
    # product o of a row's s² pairs its entries o // s and o % s
    squares = size * size
    o = np.arange(squares.sum()) - np.repeat(np.cumsum(squares) - squares, squares)
    s, base = np.repeat(size, squares), np.repeat(start, squares)
    a, b = order[base + o // s], order[base + o % s]
    values = np.asarray(values)
    return a, b, values[a].conj() * values[b]


def gram_entries(rows, cols, values, n_cols: int):
    """(i, j, value) of the entries of AᴴA, for the entries (rows, cols,
    values) of a matrix A with ``n_cols`` columns: entries at one place of A
    may repeat.  Each entry sums its `gram_products` in their order; the
    places are listed by (i, j), and products that cancel leave an exact
    zero."""
    a, b, products = gram_products(rows, values)
    cols = np.asarray(cols, dtype=np.intp)
    keys, at = np.unique(cols[a] * n_cols + cols[b], return_inverse=True)
    sums = np.empty(len(keys), dtype=complex)
    sums.real = np.bincount(at, products.real, len(keys))
    sums.imag = np.bincount(at, products.imag, len(keys))
    i, j = np.divmod(keys, n_cols)
    return i, j, sums


# ---------------------------------------------------------------------------
# Sparse amplitude maps
# ---------------------------------------------------------------------------

def prune(vec: dict) -> dict:
    """Drop entries with magnitude below PRUNE_TOL (returns a new dict)."""
    return {k: a for k, a in vec.items() if abs(a) >= PRUNE_TOL}


def phase(j: int, n: int) -> complex:
    """exp(2πi·j/n), the amplitude literal used all over the transition tables."""
    return cmath.exp(2j * math.pi * j / n)
