"""Complex linear-algebra primitives shared by the whole toolkit.

Amplitudes are double-precision complex numbers throughout.  Sparse
superpositions are plain dicts mapping an opaque basis label (any hashable,
canonically an ordered tuple) to a complex amplitude; entries below the prune
threshold are dropped so that iteration order and memory stay bounded.
"""
from __future__ import annotations

import cmath
import math
import os

import numpy as np
import scipy.sparse as sp


# Documented defaults, overridable through the environment (the CLI's
# tolerance profile) or per call where a knob is exposed.
UNITARY_TOL = float(os.environ.get("QIPSIM_UNITARY_TOL") or 1e-9)
PRUNE_TOL = float(os.environ.get("QIPSIM_PRUNE_TOL") or 1e-12)
# Read by nothing in the library, whose probability comparisons use 1e-9
# bounds named where they are made; perfbench/run.py prints it.
PROB_TOL = 1e-6


class DimensionError(ValueError):
    """Operator/vector shapes do not line up."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class ContractViolation(ValueError):
    """A precondition (e.g. unitarity of an input operator) fails."""


# ---------------------------------------------------------------------------
# Dense operators
# ---------------------------------------------------------------------------

def unitary_deviation(m) -> float:
    """Max-entry norm of M†M − I.

    Accepts a dense ndarray or a scipy sparse matrix (the latter is what the
    per-input step operators use; they have O(dim) nonzeros).
    """
    if sp.issparse(m):
        rows, cols = m.shape
        if rows != cols:
            raise DimensionError(f"operator is {rows}x{cols}, not square")
        # the stored off-diagonal entries of M†M and its diagonal minus one
        gram = (m.conj().T @ m).tocsr()
        row = np.repeat(np.arange(rows), np.diff(gram.indptr))
        dev = np.concatenate((gram.data[row != gram.indices], gram.diagonal() - 1))
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
# Sparse amplitude maps
# ---------------------------------------------------------------------------

def prune(vec: dict, threshold: float = PRUNE_TOL) -> dict:
    """Drop entries with magnitude below ``threshold`` (returns a new dict)."""
    return {k: a for k, a in vec.items() if abs(a) >= threshold}


def phase(j: int, n: int) -> complex:
    """exp(2πi·j/n), the amplitude literal used all over the transition tables."""
    return cmath.exp(2j * math.pi * j / n)
