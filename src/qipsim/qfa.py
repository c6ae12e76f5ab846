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

A spec made by hand compiles delta once, when it is made, into integer
arrays per tape symbol (`_compile`): the check of its transitions, and the
table that validation, completion and `step_operator_csc` read.  A (state,
cell) pair is coded q·|Gamma| + gamma there, and the completion works on the
same codes: it reads the table, picks the columns and rows it fills by
code, and turns codes back into names only for the rows it writes.  It
appends those rows, in codes, to the partial table, so a completed spec is
not compiled again; the checks that `_compile` would make of it run on the
spec's names and on the appended arrays alone.

Validation certifies the step operator unitary for every input of each
requested length at once (`certify_unitarity`): an entry of M†M depends only
on two tape symbols and their distance on the circular tape, so the verdict
comes from the Gram products of the table's transitions
(`linalg.gram_products`), summed after one sort, and every length from 3 on
shares one verdict.  A place of the Gram whose products all have one head
offset is summed and squared once, for every width; each width reads its
verdict from the blocks' maxima per offset, and only the places that mix
offsets are summed again per width.

The restricted-model checks (`check_structure`: one-way halting, public,
measure-once, interaction-bounded) read the table alone, so their verdict
holds for every input length and no run is simulated; `interaction_bound`
reads the query bound off the same table.  This module depends on `linalg`
only.
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from enum import Enum
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

# check_unitary is unused here; perfbench calls and wraps qipsim.qfa.check_unitary.
from .linalg import (PRUNE_TOL, UNITARY_TOL, Csc, DomainError, check_unitary, checked_count,
                     csc_arrays, gram_entries, gram_products)

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
        return self is not HeadModel.TWO_WAY


class StructureMode(str, Enum):
    ONE_WAY_HALTING = "one_way_halting"
    PUBLIC = "public"
    MEASURE_ONCE = "measure_once"
    INTERACTION_BOUNDED = "interaction_bounded"


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

    def __post_init__(self):
        # a private copy, so that _table cannot go stale
        self._own(dict(self.delta))

    def _own(self, delta: dict, table: dict[str, _Block] | None = None) -> None:
        """Make ``delta``, a dict that no one else holds, this spec's table
        behind a read-only view, and set the caches read from the spec:
        ``table`` is delta compiled, or None to compile it here (`_compile`
        raises SpecError or DomainError on a malformed spec).  ``_rows`` is
        the dict itself, which the engine's row lookups read without going
        through the view."""
        object.__setattr__(self, "delta", MappingProxyType(delta))
        object.__setattr__(self, "_rows", delta)
        # {tape symbol: _Block}
        object.__setattr__(self, "_table", _compile(self) if table is None else table)
        object.__setattr__(self, "_halting", frozenset(self.accepting + self.rejecting))
        object.__setattr__(self, "_accepting_set", frozenset(self.accepting))
        object.__setattr__(self, "_rejecting_set", frozenset(self.rejecting))
        # {(state, tape symbol): per cell symbol kind} and {memory_states:
        # targets and target classes}, filled by the classical prover search
        # (adversary._ClassicalSearch)
        object.__setattr__(self, "_row_kinds", {})
        object.__setattr__(self, "_search_targets", {})

    @property
    def states(self) -> tuple[str, ...]:
        return self.non_halting + self.accepting + self.rejecting

    @property
    def tape_symbols(self) -> tuple[str, ...]:
        return (LEFT_END,) + self.input_alphabet + (RIGHT_END,)

    @property
    def completion_keys(self) -> frozenset[DeltaKey]:
        """The rows of the canonical completion: those that leave or enter a
        completion state.  Protocol rows predate those states."""
        comp = set(self.completion_states)
        return frozenset(key for key, targets in self.delta.items()
                         if key[0] in comp or any(t[0] in comp for t in targets))

    def is_halting(self, q: str) -> bool:
        return q in self._halting

    def check_input(self, x: str) -> None:
        sigma = set(self.input_alphabet)
        bad = [c for c in x if c not in sigma]
        if bad:
            raise AlphabetError(f"symbols {bad} of input {x!r} are outside the alphabet")


def _compile(spec: QfaSpec) -> dict[str, _Block]:
    """Check a spec and compile delta into one `_Block` per tape symbol: the
    names of every key and target map to codes in bulk, a stable sort of
    each by tape symbol splits them, and head moves and amplitudes are
    checked with numpy on the arrays (`_check_moves`, `_check_amplitudes`).
    Only a name that does not map is looked for row by row (`_unknown_name`),
    so that the first one in delta order is named.
    """
    _check_names(spec)
    gsz = len(spec.comm_alphabet)
    q_idx = {q: i for i, q in enumerate(spec.states)}
    g_idx = {g: i for i, g in enumerate(spec.comm_alphabet)}
    s_idx = {s: i for i, s in enumerate(spec.tape_symbols)}
    try:
        targets = [t for row in spec.delta.values() for t in row]
        sym = np.array([s_idx[sigma] for _q, sigma, _g in spec.delta], dtype=np.intp)
        cols = np.array([q_idx[q] * gsz + g_idx[g] for q, _s, g in spec.delta], dtype=np.intp)
        dst = np.array([q_idx[q2] * gsz + g_idx[g2] for q2, g2, _d, _a in targets],
                       dtype=np.intp)
    except (KeyError, TypeError, ValueError):
        _unknown_name(spec, q_idx, s_idx, g_idx)
        raise
    # keys and targets by tape symbol, in delta order within each symbol
    counts = [len(row) for row in spec.delta.values()]
    target_sym = np.repeat(sym, counts)
    by_key, by_target = (np.argsort(v, kind="stable") for v in (sym, target_sym))
    cols, src, dst = cols[by_key], np.repeat(cols, counts)[by_target], dst[by_target]
    key_ends, ends = (np.cumsum(np.bincount(v, minlength=len(s_idx))) for v in (sym, target_sym))
    move = np.array([t[2] for t in targets])[by_target]
    _check_moves(spec, src, move, ends)
    amp = np.array([t[3] for t in targets], dtype=complex)[by_target]
    _check_amplitudes(amp)
    move = move.astype(np.intp)
    return {sigma: _Block(cols[k:l], *(v[i:j] for v in (src, dst, move, amp)))
            for sigma, k, l, i, j in zip(spec.tape_symbols, [0, *key_ends[:-1]], key_ends,
                                         [0, *ends[:-1]], ends)}


def _check_names(spec: QfaSpec) -> None:
    """Raise SpecError on a spec whose state classes, names, initial state,
    completion states, endmarkers or blanks are malformed."""
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


def _check_moves(spec: QfaSpec, src, move, ends) -> None:
    """Raise SpecError on the first head move outside -1/0/+1, else on the
    first that is not +1 on a one-way head.  The targets are listed by tape
    symbol, those of symbol i ending at ``ends[i]``; ``src`` holds their
    source pair codes, which name the row of a non-rightward move."""
    off = (move != -1) & (move != 0) & (move != 1)
    if off.any():
        raise SpecError(f"head move must be in -1/0/+1, got {move[off][0]}")
    if spec.head_model.one_way and (move != 1).any():
        gsz = len(spec.comm_alphabet)
        j = np.flatnonzero(move != 1)[0]
        key = (spec.states[src[j] // gsz], spec.tape_symbols[np.searchsorted(ends, j, "right")],
               spec.comm_alphabet[src[j] % gsz])
        raise SpecError(f"one-way verifier has a non-rightward move at {key}")


def _check_amplitudes(amp) -> None:
    """Raise DomainError on the first amplitude that is not finite or whose
    magnitude exceeds 1."""
    bad = amp[~(np.abs(amp) <= 1.0 + UNITARY_TOL)]  # NaN fails <= too
    if len(bad):
        a = complex(bad[0])
        raise DomainError(f"amplitude magnitude {abs(a)} exceeds 1" if cmath.isfinite(a)
                          else f"non-finite amplitude {a}")


def _unknown_name(spec, q_idx, s_idx, g_idx) -> None:
    """Raise SpecError naming the first unknown state or symbol of delta,
    row by row in delta order, and each row's key before its targets."""
    for (q, sigma, gamma), targets in spec.delta.items():
        if q not in q_idx:
            raise SpecError(f"transition from unknown state {q!r}")
        if sigma not in s_idx:
            raise SpecError(f"transition on unknown tape symbol {sigma!r}")
        if gamma not in g_idx:
            raise SpecError(f"transition on unknown cell symbol {gamma!r}")
        for (q2, g2, _d, _amp) in targets:
            if q2 not in q_idx:
                raise SpecError(f"transition into unknown state {q2!r}")
            if g2 not in g_idx:
                raise SpecError(f"transition writes unknown cell symbol {g2!r}")


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

def step_operator_csc(spec: QfaSpec, x: str) -> Csc:
    """The compressed-column arrays of `build_step_operator`'s operator on x:
    each basis column's entries by row, with the targets that meet summed.
    Assembled from the spec's compiled table."""
    spec.check_input(x)
    width = len(x) + 2
    gsz = len(spec.comm_alphabet)
    tape = [spec._table[sigma] for sigma in (LEFT_END, *x, RIGHT_END)]
    k = np.repeat(np.arange(width), [len(b.src) for b in tape])
    src, dst, move, amp = (np.concatenate(v) for v in
                           zip(*((b.src, b.dst, b.move, b.amp) for b in tape)))

    def index(pair, k):
        # basis index of (q, k, gamma) is (q·width + k)·|Gamma| + gamma
        return (pair // gsz * width + k) * gsz + pair % gsz

    return csc_arrays(index(dst, (k + move) % width), index(src, k), amp,
                      len(spec.states) * width * gsz)


def build_step_operator(spec: QfaSpec, x: str, sparse: bool = False):
    """The linear operator induced by delta on input x.

    Basis is {(q, k, gamma)} with dimension |Q|·(|x|+2)·|Gamma|; the entry from
    (q, k, gamma) to (q', k+d mod |x|+2, gamma') is delta(q, x_(k), gamma, q',
    gamma', d).  Returns a dense ndarray, or a scipy CSC matrix when
    ``sparse`` is set (the operators have O(dim) nonzeros).  Both hold the
    arrays of `step_operator_csc`.
    """
    csc = step_operator_csc(spec, x)
    dim = len(csc.indptr) - 1
    if sparse:
        import scipy.sparse as sp  # loaded only for callers that ask for it

        return sp.csc_matrix((csc.data, csc.indices, csc.indptr), shape=(dim, dim))
    mat = np.zeros((dim, dim), dtype=complex)
    mat[csc.indices, np.repeat(np.arange(dim), np.diff(csc.indptr))] = csc.data
    return mat


# ---------------------------------------------------------------------------
# Canonical completion
# ---------------------------------------------------------------------------

def _orthonormality_violations(spec: QfaSpec, columns, pairs, tol):
    """(tape symbol, text) for each specified column whose norm is not 1 and
    each overlapping pair of columns on one symbol, from ``columns``: every
    symbol's specified columns in table order.  Only columns of one symbol
    that share a row can overlap; if some do, their Gram entries find them.
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
        row, col, data = gram_entries(columns.indices, col_of, columns.data, len(key))
        over = (row < col) & (sym[row] == sym[col]) & (np.abs(data) > tol)
        # first position of each (symbol, target pair) among the targets
        uses, first = np.unique(np.concatenate(
            [s * len(pairs) + b.dst for s, b in enumerate(blocks)]), return_index=True)
        ptr = columns.indptr
        for i, j, ip in zip(row[over], col[over], np.abs(data[over])):
            shared = sym[i] * len(pairs) + np.intersect1d(columns.indices[ptr[i]:ptr[i + 1]],
                                                          columns.indices[ptr[j]:ptr[j + 1]])
            a, b = sorted((pairs[key[i]], pairs[key[j]]))
            found.append((sym[i], 1, first[np.searchsorted(uses, shared)].min(), a, b,
                          f"columns {a} and {b} are not orthogonal (|<a,b>|={ip:.6g})"))
    return [(spec.tape_symbols[f[0]], f[-1]) for f in sorted(found)]


def validate_and_complete(spec: QfaSpec, lengths=DEFAULT_LENGTHS,
                          ) -> tuple[QfaSpec, ValidationReport]:
    """Close a partial table up to a well-formed verifier.

    Fresh rejecting states ``~rejN`` are added: as few as give the tape
    symbol with the most unspecified columns a (state, cell) slot each, the
    slots listed state by state, cells in alphabet order.  On each tape
    symbol the i-th unspecified (state, cell) column, sorted by name, goes
    with amplitude 1 to the i-th slot, so the cell written cycles through the
    alphabet (``q0 ^ a -> ~rej0 #`` in ``specs/la_mo.qfa``).  Its head move
    is the one the table records for that target, else +1 one-way, 0 two-way.
    The fresh states' own columns get an orthonormal basis of the image left,
    keeping each per-symbol block unitary without touching specified behaviour.

    The completion works in pair codes, where (q, gamma) is coded q·|Gamma|
    + gamma, its index among the pairs of the old states and then of the
    fresh ones.  Each symbol's unspecified columns are the codes its
    compiled table lacks, taken in a name order computed once; each code's
    head move comes from a list built once from the table's first use of
    each target pair, in delta order; and `_leftover_basis` picks free rows
    by boolean masks over the codes.  Names are looked up only to write the
    added rows into the completed delta.  The same rows, in codes, are
    appended to each symbol's block of the partial table: the fresh states
    come last, so the old codes keep their values, and the added rows follow
    the specified ones, so the result is the table that `_compile` would
    make of the completed delta.  Only its checks of the names (`_check_names`)
    and of the appended moves and amplitudes run, once per completion.

    The completed spec's step operator is then certified (`certify_unitarity`)
    for every input of each length in ``lengths``.  The report carries a
    verdict per length (well formed when no input deviates by more than
    UNITARY_TOL), the largest deviation from unitarity over all those
    inputs, and one violation per failing length, naming an input of that
    length whose step operator deviates most.  A negative length raises
    DomainError.
    """
    lengths = _checked_lengths(lengths)
    report = ValidationReport()
    gsz = len(spec.comm_alphabet)
    n_pairs = len(spec.states) * gsz
    blocks = spec._table.values()
    # delta keys are unique, so n_pairs - len(cols) columns are unspecified
    n_fresh = max(-(-(n_pairs - len(b.cols)) // gsz) for b in blocks)
    names = set(spec.states)
    fresh = tuple(itertools.islice((f"~rej{i}" for i in itertools.count()
                                    if f"~rej{i}" not in names), n_fresh))
    all_pairs = [(q, g) for q in spec.states + fresh for g in spec.comm_alphabet]
    # every symbol's specified columns over target pairs, shared targets summed
    starts = np.cumsum([0] + [len(b.cols) for b in blocks])
    column = np.zeros(n_pairs, dtype=np.intp)
    at = []  # the column of each target
    for start, b in zip(starts, blocks):
        column[b.cols] = start + np.arange(len(b.cols))
        at.append(column[b.src])
    columns = csc_arrays(np.concatenate([b.dst for b in blocks]), np.concatenate(at),
                         np.concatenate([b.amp for b in blocks]), starts[-1])

    report.violations = _orthonormality_violations(spec, columns, all_pairs, UNITARY_TOL)
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
        # each pair code's (state, cell, head move) as a target, and as a row's
        # one target of amplitude 1
        heads = [(q, g, dmap.get((q, g), default_d)) for q, g in all_pairs]
        unit = [((*h, 1.0 + 0j),) for h in heads]
        # the pair codes in name order, states sorted and cells sorted within
        by_state = sorted(range(len(spec.states)), key=spec.states.__getitem__)
        by_cell = sorted(range(gsz), key=spec.comm_alphabet.__getitem__)
        by_name = (np.array(by_state)[:, None] * gsz + by_cell).ravel()
        name_rank = np.empty(n_pairs, dtype=np.intp)
        name_rank[by_name] = np.arange(n_pairs)
        comp = set(spec.completion_states + fresh)
        completion = np.repeat([q in comp for q in spec.states + fresh], gsz)
        head_move = np.array([h[2] for h in heads]).astype(np.intp)
        new_delta = dict(spec.delta)
        added = []  # each symbol's added rows in codes
        for start, (sigma, block) in zip(starts, spec._table.items()):
            specified = np.zeros(n_pairs, dtype=bool)
            specified[block.cols] = True
            missing = by_name[~specified[by_name]]
            for i, row in zip(missing.tolist(), unit[n_pairs:]):
                q, g = all_pairs[i]
                new_delta[(q, sigma, g)] = row
            # leftover image space goes to the fresh states' own columns
            slots = range(n_pairs, n_pairs + len(missing))
            free, rest = _leftover_basis(columns, start, block.cols, slots, name_rank,
                                         completion, UNITARY_TOL)
            rows = [unit[i] for i in free]
            rows += [tuple((*heads[i], amp) for i, amp in vec) for vec in rest]
            for (f, g), row in zip(all_pairs[n_pairs:], rows):
                new_delta[(f, sigma, g)] = row
            # the same rows in codes, in the same order: the missing columns
            # enter their slots, then the fresh columns take the free rows and
            # the rest vectors
            cols = np.concatenate([missing, np.arange(n_pairs, n_pairs + len(rows))])
            counts = [1] * (len(missing) + len(free)) + [len(vec) for vec in rest]
            dst = np.array([*slots, *free, *(i for vec in rest for i, _a in vec)],
                           dtype=np.intp)
            amp = np.array([*[1.0 + 0j] * (len(missing) + len(free)),
                            *(a for vec in rest for _i, a in vec)], dtype=complex)
            added.append(_Block(cols, np.repeat(cols, counts), dst, head_move[dst], amp))
        # The completed spec: its fields set one by one, as __init__ sets them
        # (a copied __dict__ makes every attribute read slower), and its table
        # the appended one, not __post_init__'s compile; only the checks that
        # _compile would make of its names and of the added rows run.
        values = {"rejecting": spec.rejecting + fresh,
                  "completion_states": spec.completion_states + fresh}
        completed = object.__new__(QfaSpec)
        for f in fields(QfaSpec):
            object.__setattr__(completed, f.name, values.get(f.name, getattr(spec, f.name)))
        _check_names(completed)
        src, move, amp = (np.concatenate(v) for v in zip(*((a.src, a.move, a.amp) for a in added)))
        _check_moves(completed, src, move, np.cumsum([len(a.src) for a in added]))
        _check_amplitudes(amp)
        completed._own(new_delta, {sigma: _Block(*map(np.concatenate, zip(block, add)))
                                   for (sigma, block), add in zip(spec._table.items(), added)})
    report.completed_transitions = len(completed.delta) - len(spec.delta)

    for n, (dev, witness) in certify_unitarity(completed, lengths).items():
        report.max_unitary_deviation = max(report.max_unitary_deviation, dev)
        report.well_formed[n] = dev <= UNITARY_TOL
        if dev > UNITARY_TOL:
            report.violations.append((witness, f"step operator not unitary at length {n}"))
    return completed, report


def _leftover_basis(columns, start, cols, units, name_rank, completion, tol):
    """Orthonormal basis of the orthocomplement of one symbol's assigned columns.

    These are the specified columns, ``len(cols)`` of them from column
    ``start`` of ``columns`` on, taken in key order (``name_rank`` gives each
    source pair code's place in name order), then unit vectors onto the fresh
    pair codes in ``units``, which the unspecified columns enter.  Returned as
    (free, rest), one basis vector per fresh pair: the rows that no assigned
    column touches, as pair codes of unit vectors, and then sparse vectors
    [(pair code, amp), ...].  The unit vectors are handed out first: those on
    the pair codes that the boolean mask ``completion`` marks (the old and
    fresh completion states) ahead of the rest, each group by code, so that
    completion junk stays, as far as possible, inside the rejecting family.
    The rows touched by columns that are not unit vectors form a block
    together with every column that has an entry there; the block's
    orthocomplement comes from an SVD of the block alone and is handed out
    last.  Axis-aligned tables (the common case) have an empty block and are
    completed exactly.
    """
    ptr = columns.indptr[start:start + len(cols) + 1]
    rows, amps = columns.indices[ptr[0]:ptr[-1]], columns.data[ptr[0]:ptr[-1]]
    counts = np.diff(ptr)
    entry_col = np.repeat(np.arange(len(cols)), counts)
    # the rows of the columns that are not unit vectors
    block_rows = np.unique(rows[(counts[entry_col] != 1) | (np.abs(np.abs(amps) - 1.0) > tol)])
    untouched = np.ones(len(completion), dtype=bool)
    untouched[rows] = False
    untouched[units.start:units.stop] = False
    free = (np.flatnonzero(untouched & completion).tolist()
            + np.flatnonzero(untouched & ~completion).tolist())
    rest = []
    if len(block_rows):
        # the block's columns, in key order, have all their entries in its rows
        hit = np.isin(rows, block_rows)
        block = np.unique(entry_col[hit])
        block = block[np.argsort(name_rank[cols[block]])]
        place = np.zeros(len(cols), dtype=np.intp)
        place[block] = np.arange(len(block))
        mat = np.zeros((len(block_rows), len(block)), dtype=complex)
        mat[np.searchsorted(block_rows, rows[hit]), place[entry_col[hit]]] = amps[hit]
        # columns of u beyond the rank span the block's orthocomplement
        u, s, _vh = np.linalg.svd(mat, full_matrices=True)
        rank = int(np.sum(s > COMPLETION_RANK_TOL))
        for vec in u[:, rank:].T:
            rest.append([(int(block_rows[r]), complex(vec[r]))
                         for r in np.flatnonzero(np.abs(vec) > PRUNE_TOL)])
    assert len(free) + len(rest) == len(completion) - units.start
    return free, rest


# ---------------------------------------------------------------------------
# Unitarity for every input length
# ---------------------------------------------------------------------------

def _checked_lengths(lengths) -> tuple[int, ...]:
    return tuple(checked_count("input length", n, 0) for n in lengths)


# d1 − d2 for each move code 3·(d1 + 1) + d2 + 1, and 0 for the −1 of −I (code 9)
_OFFSET = np.array([c // 3 - c % 3 for c in range(9)] + [0])


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

    An entry of H_r sums the products at one place (i1, i2) whose offsets
    are ≡ r mod w.  When all of a place's products have one offset o, that
    sum is the same for every width, at r = o mod w: it is squared once,
    and each block keeps its largest square per offset in a 5 × blocks
    table, from which each width takes, for residue r, the maximum over the
    offsets ≡ r.  Only the places that mix offsets (two columns that enter
    their shared targets with more than one d1 − d2) are summed again per
    width, over their own products.  Either way an entry adds its products in
    the order of their cells, starting from 0.
    """
    lengths = _checked_lengths(lengths)
    t = len(spec.tape_symbols)
    p = len(spec.states) * len(spec.comm_alphabet)
    blocks = spec._table.values()
    sym = np.repeat(np.arange(t), [len(b.src) for b in blocks])
    src, dst, move, amp = (np.concatenate(v) for v in
                           zip(*((b.src, b.dst, b.move, b.amp) for b in blocks)))
    # [L_-1 L_0 L_+1] as one matrix: target e is its entry in row dst[e] and
    # column (d, i), with d = move + 1 and i = σ·P + p for the target's tape
    # symbol σ and source pair p.  Its Gram holds the nine products L_d1ᴴ L_d2.
    tp = t * p
    e, f, products = gram_products(dst, amp)
    # One sort, block-major: the cell of the product of targets e and f is
    # its block (σ, τ), its place (i_e, i_f) and its moves as code 3·d_e +
    # d_f, bit fields of one key that is a part of e plus a part of f; each
    # diagonal place ends with a cell of code 9 for the −1 of −I.
    bits = tp.bit_length()
    i, d = sym * p + src, move + 1
    left = ((sym * t) << (2 * bits + 4)) + (i << (bits + 4)) + 3 * d
    right = (sym << (2 * bits + 4)) + (i << 4) + d
    diag = np.arange(tp)
    ones = ((diag // p * (t + 1)) << (2 * bits + 4)) + (diag << (bits + 4)) + (diag << 4) + 9
    cells, at = np.unique(np.concatenate([left[e] + right[f], ones]), return_inverse=True)
    # a cell's value sums its products in order, as a Gram entry does, or is −1
    re = np.bincount(at, np.concatenate([products.real, np.full(tp, -1.0)]), len(cells))
    im = np.bincount(at, np.concatenate([products.imag, np.zeros(tp)]), len(cells))
    # the places, numbered in order; block k = σ·t + τ starts at place start[k]
    place = cells >> 4
    first = np.diff(place, prepend=-1) != 0
    blocks_of = place[first] >> (2 * bits)
    start = np.flatnonzero(np.diff(blocks_of, prepend=-1))
    sigma, tau = np.divmod(blocks_of[start], t)
    n_places = len(blocks_of)
    of = np.cumsum(first) - 1  # each cell's place
    offset = _OFFSET[cells & 15]
    lead = offset[first]  # the offset of each place's first cell
    # a place mixes offsets when a cell's offset differs from the one before it
    change = offset[1:] != offset[:-1]
    change &= ~first[1:]
    mixed = np.zeros(n_places, dtype=bool)
    mixed[of[1:][change]] = True
    # A place of one offset o sums the same cells at every width, into residue
    # o mod w: |H − [o = 0]·I|² once per place, then each block's maximum per
    # offset, o + 2 indexing the rows.  The amplitudes are at most 1 in
    # magnitude, so the squares cannot overflow.
    h = _squares(of, re, im, n_places)
    h[mixed] = 0.0
    table = np.zeros((5, len(start)))
    for o in np.flatnonzero(np.bincount(lead + 2, minlength=5)):
        table[o] = np.maximum.reduceat(np.where(lead == o - 2, h, 0.0), start)
    # a place that mixes offsets is summed again at each width, over its own
    # cells: their (re, im, offset), the place's rank among those places, and
    # each such place's block
    spots = np.flatnonzero(mixed)
    own = np.flatnonzero(mixed[of])
    spread = (re[own], im[own], offset[own], np.searchsorted(spots, of[own]),
              np.searchsorted(start, spots, side="right") - 1)
    worst = {}  # width, 5 standing for every width >= 5 -> (deviation, residue, block)
    out = {}
    for n in lengths:
        w = min(n + 2, 5)
        if w not in worst:
            worst[w] = _worst_block(table, *spread, _occurs(t, w)[:, sigma, tau])
        dev, r, b = worst[w]
        out[n] = (dev, None if b is None else _witness(spec, n, sigma[b], tau[b], (r + 2) % w - 2))
    return out


def _squares(key, re, im, size):
    """|z|² of the sums z of the entries (re, im) that share a ``key``."""
    h = np.bincount(key, re, size)
    h *= h
    sq = np.bincount(key, im, size)
    sq *= sq
    h += sq
    return h


def _worst_block(table, re, im, offset, rank, block, occurs):
    """(deviation, residue r, block) of the block of M†M − I that deviates
    most among those that ``occurs`` (w, blocks) marks, or (0.0, None, None)
    when nothing deviates there.  ``table`` holds each block's largest square
    over its places of one offset, per offset −2..2; the entries (re, im) of
    the places that mix offsets are summed here, per residue mod w, with their
    ``offset``, the place's ``rank`` among them and its ``block``.
    """
    w = len(occurs)
    dev = np.zeros(occurs.shape)
    np.maximum.at(dev, np.arange(-2, 3) % w, table)
    m = len(block)
    h = _squares(offset % w * m + rank, re, im, w * m)
    np.maximum.at(dev, (np.arange(w)[:, None], block), h.reshape(w, m))
    dev = np.sqrt(dev)
    dev[~occurs] = 0.0
    r, b = np.unravel_index(np.argmax(dev), dev.shape)
    if dev[r, b] == 0.0:
        return 0.0, None, None
    return float(dev[r, b]), r, b


def _cells(t, w):
    """Which of the t tape symbols (endmarkers first and last) cell k of a
    tape of width w can hold, as a (w, t) boolean array."""
    cells = np.zeros((w, t), dtype=bool)
    cells[0, 0] = cells[-1, -1] = True
    cells[1:-1, 1:-1] = True
    return cells


@functools.cache
def _occurs(t, w):
    """occurs[r, σ, τ], read-only: on some tape of width w over t tape symbols
    a cell k holds σ while cell k + r holds τ.  All False when no tape exists
    (an empty input alphabet and w > 2)."""
    cells = _cells(t, w)
    occurs = np.zeros((w, t, t), dtype=bool)
    if cells.any(axis=1).all():
        shifted = cells[(np.arange(w)[:, None] + np.arange(w)) % w]
        occurs = np.einsum("ks,rkt->rst", cells.astype(int), shifted.astype(int)) > 0
        occurs[0] = np.diag(cells.any(axis=0))
    occurs.flags.writeable = False
    return occurs


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

def public_symbol(q: str, d: int, one_way: bool = False) -> str:
    """Cell encoding of a public verifier's announced move: the state it
    enters, and for a head that is not one-way the head move too."""
    return q if one_way else f"{q},{d:+d}"


def interaction_bound(spec: QfaSpec) -> int | None:
    """The most queries on any run of the verifier, for every input, prover
    and round limit, or None when the table does not bound them
    (`_query_paths`)."""
    return _query_paths(spec)[0]


def _query_paths(spec: QfaSpec) -> tuple[int | None, tuple | None]:
    """(bound, None), or (None, (row, q', cell symbol written)) naming a query
    edge on a cycle reachable from the initial state.

    The state graph has an edge q -> q' for every row (q, sigma, gamma) and
    every target of nonzero amplitude, by `runtime.Course.measure`'s rule: a
    measure-many run measures halting labels off after every move, so their
    rows are dropped and only non-halting states continue; a measure-once run
    measures nothing before move n+2, so every state keeps its rows and
    continues.  A query edge writes a non-blank cell symbol into a state that
    continues; the bound is the heaviest query path from the initial state.

    A longest-path relaxation: without a reachable query cycle the heaviest
    paths are simple, so a pass after |Q| - 1 changes nothing.  If pass |Q|+1
    still changes a state, its predecessor chain cannot reach back to the
    initial state (its value exceeds every simple path's), so |Q| steps back
    along it land on a cycle of predecessor edges, and such a cycle carries a
    query edge (its values strictly grew around it).
    """
    once = spec.head_model is HeadModel.MO_1WAY
    edges: dict = {}  # (q, q', query) -> (row, cell symbol), the first row
    for key, targets in spec.delta.items():
        if once or not spec.is_halting(key[0]):
            for (q2, g2, _d, amp) in targets:
                if amp != 0:
                    query = g2 != BLANK and (once or not spec.is_halting(q2))
                    edges.setdefault((key[0], q2, query), (key, g2))
    best = {spec.initial: 0}
    pred: dict = {}  # q' -> the edge that last raised best[q']
    for _ in range(len(spec.states) + 1):
        last = None
        for edge in edges:
            q, q2, query = edge
            if q in best and best[q] + query > best.get(q2, -1):
                best[q2] = best[q] + query
                pred[q2] = edge
                last = q2
        if last is None:
            return max(best.values()), None
    for _ in spec.states:
        last = pred[last][0]
    while not pred[last][2]:
        last = pred[last][0]
    key, g2 = edges[pred[last]]
    return None, (key, last, g2)


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

    INTERACTION_BOUNDED: no cycle reachable from the initial state carries a
    query edge of `_query_paths`'s state graph, so `interaction_bound` bounds
    the queries of every run; the violation names one such edge.  Completion
    rows count here: a measure-once run follows those out of halting states.
    The graph ignores interference and tape order, so it holds every path a
    run can take: "bounded" is a proof, and "unbounded" only a refusal.
    """
    report = ValidationReport()
    if mode is not StructureMode.INTERACTION_BOUNDED:  # which reads neither
        completion = spec.completion_keys
        own = ((key, tgt) for key, tgts in spec.delta.items()
               if key not in completion for tgt in tgts)

    if mode is StructureMode.ONE_WAY_HALTING:
        if not spec.head_model.one_way:
            report.violations.append(("", "head model is not one-way"))
        for key, targets in spec.delta.items():
            if key[1] != RIGHT_END or (spec.is_halting(key[0]) and key in completion):
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

    elif mode is StructureMode.INTERACTION_BOUNDED:
        _bound, cycle = _query_paths(spec)
        if cycle is not None:
            key, q2, g2 = cycle
            report.violations.append(
                (key[1], f"query transition {key} -> ({q2}, {g2!r}) lies on a cycle"))
    else:
        raise DomainError(f"unknown structure mode {mode}")
    report.well_formed[0] = not report.violations
    return report
