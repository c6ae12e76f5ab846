"""Verifier specifications: state sets, transition tables, well-formedness.

A verifier is a quantum finite automaton that shares a one-symbol
communication cell with a prover.  Its transition function delta maps
(state, scanned input symbol, cell symbol) to a superposition of
(state', written cell symbol, head direction).  The induced per-input step
operator acts on the basis {(state, head position, cell symbol)} with the
head position taken mod n+2: the input tape is circular.

Partially specified tables (the usual way protocols are written down) are
closed up to full unitaries by `validate_and_complete`, which routes every
unspecified (state, symbol, cell) column to a fresh rejecting state.

A spec compiles delta once, when it is made, into integer arrays per tape
symbol (`_compile`): the only check of the transitions, and the table that
validation, completion and `build_step_operator` read.

Validation certifies the step operator unitary for every input of each
requested length at once (`certify_unitarity`): an entry of M†M depends only
on two tape symbols and their distance on the circular tape, so the verdict
comes from one sparse Gram product on the table, and every length from 3 on
shares one verdict.

The restricted-model checks (`check_structure`) read the table alone, so
their verdict holds for every input length and no run is simulated; this
module depends on `linalg` only.
"""
from __future__ import annotations

import cmath
import itertools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from enum import Enum
from types import MappingProxyType
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

# check_unitary is unused here; perfbench calls and wraps qipsim.qfa.check_unitary.
from .linalg import PRUNE_TOL, UNITARY_TOL, DomainError, check_unitary

LEFT_END = "^"
RIGHT_END = "$"
BLANK = "#"

# Input lengths validated by default; lengths 3 and up share one certificate.
DEFAULT_LENGTHS = (0, 1, 2, 3, 4)
# Singular values above this count towards the rank of a completion block.
COMPLETION_RANK_TOL = 1e-10


class HeadModel(str, Enum):
    MO_1WAY = "measure_once_1way"
    ONE_WAY = "one_way"
    TWO_WAY = "two_way"

    @property
    def one_way(self) -> bool:
        return self in (HeadModel.MO_1WAY, HeadModel.ONE_WAY)


class StructureMode(str, Enum):
    ONE_WAY_HALTING = "one_way_halting"
    PUBLIC = "public"
    MEASURE_ONCE = "measure_once"


class SpecError(ValueError):
    """Structurally invalid verifier specification."""


class AlphabetError(ValueError):
    """Input string or symbol outside the declared alphabets."""


# delta values are tuples of (state', cell symbol written, head move, amplitude)
Transition = tuple[str, str, int, complex]
DeltaKey = tuple[str, str, str]


class _Block(NamedTuple):
    """delta on one tape symbol; a (state, cell) pair is coded q·|Gamma| + gamma."""

    cols: np.ndarray  # the specified source pairs, in delta order
    src: np.ndarray   # src, dst, move and amp: one entry per transition target
    dst: np.ndarray
    move: np.ndarray
    amp: np.ndarray


@dataclass(frozen=True)
class QfaSpec:
    name: str
    non_halting: tuple[str, ...]
    accepting: tuple[str, ...]
    rejecting: tuple[str, ...]
    initial: str
    input_alphabet: tuple[str, ...]
    comm_alphabet: tuple[str, ...]
    prover_alphabet: tuple[str, ...]
    head_model: HeadModel
    delta: Mapping[DeltaKey, tuple[Transition, ...]]
    completion_states: tuple[str, ...] = ()
    completion_keys: frozenset[DeltaKey] = frozenset()

    def __post_init__(self):
        # a read-only view of a private copy, so that _table cannot go stale
        object.__setattr__(self, "delta", MappingProxyType(dict(self.delta)))
        # {tape symbol: _Block}; raises SpecError or DomainError on a malformed spec
        object.__setattr__(self, "_table", _compile(self))
        object.__setattr__(self, "_halting", frozenset(self.accepting + self.rejecting))
        object.__setattr__(self, "_accepting_set", frozenset(self.accepting))
        # {(state, tape symbol): per cell symbol kind}, filled by the classical
        # prover search (adversary._ClassicalSearch._symbol_kinds)
        object.__setattr__(self, "_row_kinds", {})

    @property
    def states(self) -> tuple[str, ...]:
        return self.non_halting + self.accepting + self.rejecting

    @property
    def tape_symbols(self) -> tuple[str, ...]:
        return (LEFT_END,) + self.input_alphabet + (RIGHT_END,)

    def is_halting(self, q: str) -> bool:
        return q in self._halting

    def check_input(self, x: str) -> None:
        sigma = set(self.input_alphabet)
        bad = [c for c in x if c not in sigma]
        if bad:
            raise AlphabetError(f"symbols {bad} of input {x!r} are outside the alphabet")


def _compile(spec: QfaSpec) -> dict[str, _Block]:
    """Check a spec and compile delta into one `_Block` per tape symbol: names
    as it goes, then head moves and amplitudes with numpy on the arrays.
    """
    classes = [set(spec.non_halting), set(spec.accepting), set(spec.rejecting)]
    for a, b in itertools.combinations(classes, 2):
        overlap = a & b
        if overlap:
            raise SpecError(f"state classes overlap: {sorted(overlap)}")
    for what, names in (("state names", spec.states),
                        ("cell symbols", spec.comm_alphabet),
                        ("input symbols", spec.input_alphabet)):
        twice = sorted(n for n, c in Counter(names).items() if c > 1)
        if twice:
            raise SpecError(f"duplicate {what}: {twice}")
    if spec.initial not in spec.non_halting:
        raise SpecError(f"initial state {spec.initial!r} must be non-halting")
    not_rejecting = sorted(set(spec.completion_states) - set(spec.rejecting))
    if not_rejecting:
        raise SpecError(f"completion states must be rejecting: {not_rejecting}")
    for mark in (LEFT_END, RIGHT_END):
        if mark in spec.input_alphabet:
            raise SpecError(f"endmarker {mark!r} may not appear in the input alphabet")
    if BLANK not in spec.comm_alphabet:
        raise SpecError("communication alphabet must contain the blank symbol")
    if BLANK not in spec.prover_alphabet:
        raise SpecError("prover tape alphabet must contain the blank symbol")

    gsz = len(spec.comm_alphabet)
    q_idx = {q: i for i, q in enumerate(spec.states)}
    g_idx = {g: i for i, g in enumerate(spec.comm_alphabet)}
    s_idx = {s: i for i, s in enumerate(spec.tape_symbols)}
    cols: list[list[int]] = [[] for _ in s_idx]
    entries: list[list] = [[] for _ in s_idx]  # (src, dst, move, amp) per target
    for (q, sigma, gamma), targets in spec.delta.items():
        if q not in q_idx:
            raise SpecError(f"transition from unknown state {q!r}")
        if sigma not in s_idx:
            raise SpecError(f"transition on unknown tape symbol {sigma!r}")
        if gamma not in g_idx:
            raise SpecError(f"transition on unknown cell symbol {gamma!r}")
        src = q_idx[q] * gsz + g_idx[gamma]
        cols[s_idx[sigma]].append(src)
        for (q2, g2, d, amp) in targets:
            if q2 not in q_idx:
                raise SpecError(f"transition into unknown state {q2!r}")
            if g2 not in g_idx:
                raise SpecError(f"transition writes unknown cell symbol {g2!r}")
            entries[s_idx[sigma]].append((src, q_idx[q2] * gsz + g_idx[g2], d, amp))

    # every symbol's targets in one run of arrays, checked at once, then split
    ends = np.cumsum([len(e) for e in entries])
    src, dst, move, amp = tuple(zip(*itertools.chain(*entries))) or ((),) * 4
    move = np.array(move)
    off = ~np.isin(move, (-1, 0, 1))
    if off.any():
        raise SpecError(f"head move must be in -1/0/+1, got {move[off][0]}")
    if spec.head_model.one_way and (move != 1).any():
        j = np.flatnonzero(move != 1)[0]
        key = (spec.states[src[j] // gsz], spec.tape_symbols[np.searchsorted(ends, j, "right")],
               spec.comm_alphabet[src[j] % gsz])
        raise SpecError(f"one-way verifier has a non-rightward move at {key}")
    amp = np.array(amp, dtype=complex)
    bad = amp[~(np.abs(amp) <= 1.0 + UNITARY_TOL)]  # NaN fails <= too
    if len(bad):
        a = complex(bad[0])
        raise DomainError(f"amplitude magnitude {abs(a)} exceeds 1" if cmath.isfinite(a)
                          else f"non-finite amplitude {a}")
    src, dst, move = (np.array(v, dtype=np.intp) for v in (src, dst, move))
    return {sigma: _Block(np.array(c, dtype=np.intp), *(v[i:j] for v in (src, dst, move, amp)))
            for sigma, c, i, j in zip(spec.tape_symbols, cols, [0, *ends[:-1]], ends)}


def symbol_at(x: str, k: int) -> str:
    """Tape symbol at position k for input x (0 is the left endmarker)."""
    if k == 0:
        return LEFT_END
    if k == len(x) + 1:
        return RIGHT_END
    return x[k - 1]


@dataclass
class ValidationReport:
    well_formed: dict[int, bool] = field(default_factory=dict)
    violations: list[tuple[str, str]] = field(default_factory=list)
    completed_transitions: int = 0
    max_unitary_deviation: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations and all(self.well_formed.values())


# ---------------------------------------------------------------------------
# Step operator
# ---------------------------------------------------------------------------

def build_step_operator(spec: QfaSpec, x: str, sparse: bool = False):
    """The linear operator induced by delta on input x.

    Basis is {(q, k, gamma)} with dimension |Q|·(|x|+2)·|Gamma|; the entry from
    (q, k, gamma) to (q', k+d mod |x|+2, gamma') is delta(q, x_(k), gamma, q',
    gamma', d).  Returns a dense ndarray, or a scipy CSC matrix when
    ``sparse`` is set (the operators have O(dim) nonzeros, so the sparse form
    is what validation uses).  Assembled from the spec's compiled table.
    """
    spec.check_input(x)
    width = len(x) + 2
    gsz = len(spec.comm_alphabet)
    dim = len(spec.states) * width * gsz
    tape = [spec._table[sigma] for sigma in (LEFT_END, *x, RIGHT_END)]
    k = np.repeat(np.arange(width), [len(b.src) for b in tape])
    src, dst, move, amp = (np.concatenate(v) for v in
                           zip(*((b.src, b.dst, b.move, b.amp) for b in tape)))

    def index(pair, k):
        # basis index of (q, k, gamma) is (q·width + k)·|Gamma| + gamma
        return (pair // gsz * width + k) * gsz + pair % gsz

    mat = sp.csc_matrix((amp, (index(dst, (k + move) % width), index(src, k))),
                        shape=(dim, dim), dtype=complex)
    return mat if sparse else mat.toarray()


# ---------------------------------------------------------------------------
# Canonical completion
# ---------------------------------------------------------------------------

def _orthonormality_violations(spec: QfaSpec, columns, pairs, tol):
    """(tape symbol, text) for each specified column whose norm is not 1 and
    each overlapping pair of columns on one symbol, from ``columns``: every
    symbol's specified columns in table order.  Only columns of one symbol
    that share a row can overlap; if some do, one Gram product finds them.
    Per symbol, norms come first, then pairs by the first target (in delta
    order) that they share, then by key.
    """
    blocks = spec._table.values()
    sym = np.repeat(np.arange(len(blocks)), [len(b.cols) for b in blocks])
    key = np.concatenate([b.cols for b in blocks])  # pairs[key[j]] is column j's key
    col_of = np.repeat(np.arange(len(key)), np.diff(columns.indptr))
    norm = np.bincount(col_of, np.abs(columns.data) ** 2, len(key))
    found = [(sym[j], 0, j, f"column {pairs[key[j]]} has norm {math.sqrt(norm[j]):.6g}, not 1")
             for j in np.flatnonzero(np.abs(norm - 1.0) > 2 * tol + tol * tol)]
    if len(np.unique(sym[col_of] * len(pairs) + columns.indices)) < len(col_of):
        gram = (columns.conj().T @ columns).tocoo()
        over = ((gram.row < gram.col) & (sym[gram.row] == sym[gram.col])
                & (np.abs(gram.data) > tol))
        # first position of each (symbol, target pair) among the targets
        uses, first = np.unique(np.concatenate(
            [s * len(pairs) + b.dst for s, b in enumerate(blocks)]), return_index=True)
        for i, j, ip in zip(gram.row[over], gram.col[over], np.abs(gram.data[over])):
            shared = sym[i] * len(pairs) + np.intersect1d(columns[:, i].indices,
                                                          columns[:, j].indices)
            a, b = sorted((pairs[key[i]], pairs[key[j]]))
            found.append((sym[i], 1, first[np.searchsorted(uses, shared)].min(), a, b,
                          f"columns {a} and {b} are not orthogonal (|<a,b>|={ip:.6g})"))
    return [(spec.tape_symbols[f[0]], f[-1]) for f in sorted(found)]


def validate_and_complete(spec: QfaSpec, lengths=DEFAULT_LENGTHS,
                          tol: float = UNITARY_TOL,
                          ) -> tuple[QfaSpec, ValidationReport]:
    """Close a partial table up to a well-formed verifier.

    Every unspecified (state, symbol, cell) column is routed, in lexicographic
    order, to a fresh rejecting state (cell kept, head move +1 for one-way
    verifiers and 0 otherwise, except that a target already entered elsewhere
    inherits its recorded head move).  Fresh states reuse slots so that at
    most ceil(|unspecified|/|Gamma|) of them are added per symbol block; their
    own outgoing columns are assigned an orthonormal basis of whatever image
    space is left, which keeps each per-symbol block unitary without touching
    any specified behaviour.

    The completed spec's step operator is then certified (`certify_unitarity`)
    for every input of each length in ``lengths``.  The report carries a
    verdict per length, the largest deviation from unitarity over all those
    inputs, and one violation per failing length, naming an input of that
    length whose step operator deviates most.  A non-positive ``tol`` or a
    negative length raises DomainError.
    """
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    lengths = _checked_lengths(lengths)
    report = ValidationReport()
    gsz = len(spec.comm_alphabet)
    n_pairs = len(spec.states) * gsz
    blocks = spec._table.values()
    # delta keys are unique, so n_pairs - len(cols) columns are unspecified
    n_fresh = max(-(-(n_pairs - len(b.cols)) // gsz) for b in blocks)
    taken = sum(1 for s in spec.states if s.startswith("~rej"))
    fresh = tuple(f"~rej{taken + i}" for i in range(n_fresh))
    all_pairs = [(q, g) for q in spec.states + fresh for g in spec.comm_alphabet]
    # every symbol's specified columns over target pairs, shared targets summed
    starts = np.cumsum([0] + [len(b.cols) for b in blocks])
    column = np.zeros(n_pairs, dtype=np.intp)
    at = []  # the column of each target
    for start, b in zip(starts, blocks):
        column[b.cols] = start + np.arange(len(b.cols))
        at.append(column[b.src])
    columns = sp.csc_matrix(
        (np.concatenate([b.amp for b in blocks]),
         (np.concatenate([b.dst for b in blocks]), np.concatenate(at))),
        shape=(len(all_pairs), starts[-1]), dtype=complex)

    report.violations = _orthonormality_violations(spec, columns, all_pairs, tol)
    if report.violations:
        raise SpecError(
            "completion refused, specified columns are not orthonormal: "
            + "; ".join(f"[{s}] {d}" for s, d in report.violations))

    if n_fresh == 0:
        completed = spec
    else:
        # head move recorded per (target state, written symbol); completions
        # into an already-used pair must reuse it or the circular-tape overlap
        # conditions can break
        dmap: dict[tuple[str, str], int] = {}
        for targets in spec.delta.values():
            for (q2, g2, d, _amp) in targets:
                dmap.setdefault((q2, g2), d)
        default_d = 1 if spec.head_model.one_way else 0
        new_delta = dict(spec.delta)
        fresh_cols = all_pairs[n_pairs:]
        for start, (sigma, block) in zip(starts, spec._table.items()):
            missing = sorted(set(all_pairs[:n_pairs]) - {all_pairs[c] for c in block.cols})
            for (q, g), target in zip(missing, fresh_cols):
                new_delta[(q, sigma, g)] = (
                    (*target, dmap.get(target, default_d), 1.0 + 0j),)
            # leftover image space goes to the fresh states' own columns
            leftover = _leftover_basis(columns, start, block.cols,
                                       range(n_pairs, n_pairs + len(missing)), all_pairs, tol)
            for (f, g), vec in zip(fresh_cols, leftover):
                new_delta[(f, sigma, g)] = tuple(
                    (*all_pairs[i], dmap.get(all_pairs[i], default_d), amp)
                    for i, amp in vec)
        completed = replace(
            spec, rejecting=spec.rejecting + fresh, delta=new_delta,
            completion_states=spec.completion_states + fresh,
            completion_keys=frozenset(spec.completion_keys)
            | (new_delta.keys() - spec.delta.keys()))
    report.completed_transitions = len(completed.delta) - len(spec.delta)

    for n, (dev, witness) in certify_unitarity(completed, lengths).items():
        report.max_unitary_deviation = max(report.max_unitary_deviation, dev)
        report.well_formed[n] = dev <= tol
        if dev > tol:
            report.violations.append((witness, f"step operator not unitary at length {n}"))
    return completed, report


def _leftover_basis(columns, start, cols, units, all_pairs, tol):
    """Orthonormal basis of the orthocomplement of one symbol's assigned columns.

    These are the specified columns, ``len(cols)`` of them from column
    ``start`` of ``columns`` on, taken in key order, then unit vectors onto
    the fresh pairs in ``units``, which the unspecified columns enter.
    Returned as one sparse vector [(index, amp), ...] per fresh pair.  Rows
    that no assigned column touches become unit vectors, handed out first,
    those on fresh rejecting states ahead of the rest, so that completion
    junk stays, as far as possible, inside the rejecting family.  The rows
    touched by columns that are not unit vectors form a block together with
    every column that has an entry there; the block's orthocomplement comes
    from an SVD of the block alone and is handed out last.  Axis-aligned
    tables (the common case) have an empty block and are completed exactly.
    """
    ptr = columns.indptr[start:start + len(cols) + 1]
    rows, amps = columns.indices[ptr[0]:ptr[-1]], columns.data[ptr[0]:ptr[-1]]
    counts = np.diff(ptr)
    entry_col = np.repeat(np.arange(len(cols)), counts)
    # the rows of the columns that are not unit vectors
    block_rows = np.unique(rows[(counts[entry_col] != 1) | (np.abs(np.abs(amps) - 1.0) > tol)])
    free = sorted(set(range(len(all_pairs))).difference(rows.tolist(), units),
                  key=lambda i: (0 if all_pairs[i][0].startswith("~rej") else 1, i))
    out = [[(i, 1.0 + 0j)] for i in free]
    if len(block_rows):
        # the block's columns, in key order, have all their entries in its rows
        hit = np.isin(rows, block_rows)
        block = sorted(set(entry_col[hit].tolist()), key=lambda j: all_pairs[cols[j]])
        place = np.zeros(len(cols), dtype=np.intp)
        place[block] = np.arange(len(block))
        mat = np.zeros((len(block_rows), len(block)), dtype=complex)
        mat[np.searchsorted(block_rows, rows[hit]), place[entry_col[hit]]] = amps[hit]
        # columns of u beyond the rank span the block's orthocomplement
        u, s, _vh = np.linalg.svd(mat, full_matrices=True)
        rank = int(np.sum(s > COMPLETION_RANK_TOL))
        for vec in u[:, rank:].T:
            out.append([(int(block_rows[r]), complex(vec[r]))
                        for r in np.flatnonzero(np.abs(vec) > PRUNE_TOL)])
    assert len(out) == len(all_pairs) - units.start
    return out


# ---------------------------------------------------------------------------
# Unitarity for every input length
# ---------------------------------------------------------------------------

def _checked_lengths(lengths) -> tuple[int, ...]:
    lengths = tuple(lengths)
    for n in lengths:
        if n < 0:
            raise DomainError(f"input length must be non-negative, got {n}")
    return lengths


def certify_unitarity(spec: QfaSpec, lengths) -> dict[int, tuple[float, str | None]]:
    """For each input length n: the largest deviation from unitarity (the
    max-entry norm of M†M − I) of the step operator M over every input of
    length n, and an input that attains it (None when the deviation is 0).

    Column (p, k) of M, for a (state, cell) pair p at head position k, is
    Σ_d e_(k+d) ⊗ L_d[:, σ_k·P + p]: L_d stacks every tape symbol's targets
    that move the head by d, over the P = |Q|·|Gamma| pairs.  So the entry of
    M†M between (p1, k1) and (p2, k2) is the (σ_k1·P + p1, σ_k2·P + p2) entry
    of H_r = Σ L_d1ᴴ L_d2 over the moves with d1 − d2 ≡ r = k2 − k1 mod the
    width w = n + 2: it depends on two tape symbols and r alone.  The maximum
    over all inputs of length n is therefore the maximum of H_r (minus I at
    r = 0) over the blocks (σ, τ, r) that two cells r apart can hold.  The
    offsets d1 − d2 lie in −2..2 and are distinct mod w once w ≥ 5, so every
    n ≥ 3 shares the blocks and the verdict of n = 3.
    """
    lengths = _checked_lengths(lengths)
    t = len(spec.tape_symbols)
    p = len(spec.states) * len(spec.comm_alphabet)
    blocks = spec._table.values()
    sym = np.repeat(np.arange(t), [len(b.src) for b in blocks])
    src, dst, move, amp = (np.concatenate(v) for v in
                           zip(*((b.src, b.dst, b.move, b.amp) for b in blocks)))
    # [L_-1 L_0 L_+1] as one matrix: its Gram holds the nine products L_d1ᴴ L_d2
    stacked = sp.csr_matrix((amp, (dst, ((move + 1) * t + sym) * p + src)),
                            shape=(p, 3 * t * p))
    gram = (stacked.conj().T @ stacked).tocoo()
    d1, row = np.divmod(gram.row, t * p)
    d2, col = np.divmod(gram.col, t * p)
    worst = {}  # width, 5 standing for every width >= 5 -> (deviation, σ, τ, offset)
    out = {}
    for n in lengths:
        w = min(n + 2, 5)
        if w not in worst:
            worst[w] = _worst_block(gram.data, d1 - d2, row, col, _cells(t, w), p)
        dev, sigma, tau, offset = worst[w]
        out[n] = (dev, None if sigma is None else _witness(spec, n, sigma, tau, offset))
    return out


def _cells(t, w):
    """Which of the t tape symbols (endmarkers first and last) cell k of a
    tape of width w can hold, as a (w, t) boolean array."""
    cells = np.zeros((w, t), dtype=bool)
    cells[0, 0] = cells[-1, -1] = True
    cells[1:-1, 1:-1] = True
    return cells


def _worst_block(data, diff, row, col, cells, p):
    """(deviation, σ, τ, offset) of the block of M†M − I that deviates most
    among those that occur on a tape whose cells are ``cells``, with the
    offset k2 − k1 as a representative in −2..2, or (0.0, None, None, None)
    when nothing deviates or no tape exists.  ``data``, ``row`` and ``col``
    are the entries of the products L_d1ᴴ L_d2 and their places in them,
    ``diff`` their d1 − d2."""
    w, t = cells.shape
    if not cells.any(axis=1).all():  # an empty input alphabet gives no tape
        return 0.0, None, None, None
    tp = t * p
    diag = np.arange(tp)
    # H_r − [r = 0]·I stacked over the residues r mod w; csr sums the duplicates
    h = sp.csr_matrix((np.concatenate([data, np.full(tp, -1.0)]),
                       (np.concatenate([diff % w * tp + row, diag]),
                        np.concatenate([col, diag]))), shape=(w * tp, tp))
    r, row = np.divmod(np.repeat(np.arange(w * tp), np.diff(h.indptr)), tp)
    dev = np.zeros((w, t, t))
    np.maximum.at(dev, (r, row // p, h.indices // p), np.abs(h.data))
    # occurs[r, σ, τ]: some cell k can hold σ while cell k + r holds τ
    shifted = cells[(np.arange(w)[:, None] + np.arange(w)) % w]
    occurs = np.einsum("ks,rkt->rst", cells.astype(int), shifted.astype(int)) > 0
    occurs[0] = np.diag(cells.any(axis=0))
    dev[~occurs] = 0.0
    r, sigma, tau = np.unravel_index(np.argmax(dev), dev.shape)
    if dev[r, sigma, tau] == 0.0:
        return 0.0, None, None, None
    return float(dev[r, sigma, tau]), sigma, tau, (r + 2) % w - 2


def _witness(spec, n, sigma, tau, offset):
    """An input of length n with tape symbol σ at some cell k and τ at
    k + offset (mod n + 2); every other input symbol is the first one."""
    w = n + 2
    cells = _cells(len(spec.tape_symbols), w)
    r = offset % w
    k = next(k for k in range(w) if cells[k, sigma] and cells[(k + r) % w, tau])
    tape = [1] * w
    tape[k], tape[(k + r) % w] = sigma, tau
    return "".join(spec.tape_symbols[s] for s in tape[1:-1])


# ---------------------------------------------------------------------------
# Structural validators
# ---------------------------------------------------------------------------

def public_symbol(q: str, d: int, one_way: bool) -> str:
    """Cell encoding of a public verifier's announced move."""
    return q if one_way else f"{q},{d:+d}"


def check_structure(spec: QfaSpec, mode: StructureMode) -> ValidationReport:
    """Scan a spec's transition table against one of the restricted-model
    disciplines.  The verdict holds for every input length and is recorded as
    ``well_formed[0]``; findings land in the report, and an unknown mode
    raises DomainError.  Completion-added transitions (``completion_keys``)
    are exempt except where noted: they only close the unitary, and the
    states completion adds are rejecting.

    ONE_WAY_HALTING: the head is one-way, every non-halting (q, $, gamma) has
    a row, and every target of a $ row halts unless the row is a completion
    row out of a halting state.  That decides halting in a run that measures
    after every round, for every input and every prover: a one-way head starts
    on ^ and moves right at each step, so it reads $ in round n+2 and in no
    other.  The earlier measurements leave only non-halting labels, and the
    prover changes only the cell and its own tape, so the mass entering that
    round sits on columns (q, $, gamma) with q non-halting.  Each has a row
    whose targets all halt, and the measurement after the round leaves no
    non-halting label.  A measure-once run is not covered: its halting
    labels persist until round n+2, and completion rows lead out of them.

    PUBLIC: every transition into a non-halting state q' with head move d
    writes ``public_symbol(q', d)``.

    MEASURE_ONCE: the head is measure-once 1-way and no transition enters a
    halting state before $.
    """
    report = ValidationReport()
    own = [(key, tgt) for key, tgts in spec.delta.items()
           if key not in spec.completion_keys for tgt in tgts]

    if mode is StructureMode.ONE_WAY_HALTING:
        if not spec.head_model.one_way:
            report.violations.append(("", "head model is not one-way"))
        for key, targets in spec.delta.items():
            if key[1] != RIGHT_END or (spec.is_halting(key[0]) and key in spec.completion_keys):
                continue
            for (q2, _g2, _d, _amp) in targets:
                if not spec.is_halting(q2):
                    report.violations.append(
                        (RIGHT_END, f"transition {key} -> {q2} does not halt at $"))
        for q in spec.non_halting:
            for gamma in spec.comm_alphabet:
                if (q, RIGHT_END, gamma) not in spec.delta:
                    report.violations.append(
                        (RIGHT_END, f"no transition for {(q, RIGHT_END, gamma)}"))

    elif mode is StructureMode.PUBLIC:
        one_way = spec.head_model.one_way
        for (q, sigma, gamma), (q2, g2, d, _amp) in own:
            if not spec.is_halting(q2) and g2 != public_symbol(q2, d, one_way):
                report.violations.append(
                    (sigma,
                     f"transition {(q, sigma, gamma)} -> ({q2}, {g2!r}) does not "
                     f"announce {public_symbol(q2, d, one_way)!r}"))

    elif mode is StructureMode.MEASURE_ONCE:
        if spec.head_model is not HeadModel.MO_1WAY:
            report.violations.append(("", "head model is not measure-once 1-way"))
        for (q, sigma, gamma), (q2, _g2, _d, _amp) in own:
            if spec.is_halting(q2) and sigma != RIGHT_END:
                report.violations.append(
                    (sigma,
                     f"transition {(q, sigma, gamma)} -> {q2} halts before the final step"))
    else:
        raise DomainError(f"unknown structure mode {mode}")
    report.well_formed[0] = not report.violations
    return report
