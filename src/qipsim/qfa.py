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
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .linalg import (PRUNE_TOL, UNITARY_TOL, DomainError, check_amplitude,
                     check_unitary, unitary_deviation)

LEFT_END = "^"
RIGHT_END = "$"
BLANK = "#"

# Input lengths whose step operators validation samples.
DEFAULT_LENGTHS = (0, 1, 2, 3, 4)
# Inputs tested per length; longer lengths get a covering sample this size.
MAX_INPUTS_PER_LENGTH = 64
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
    delta: dict[DeltaKey, tuple[Transition, ...]]
    completion_states: tuple[str, ...] = ()
    completion_keys: frozenset[DeltaKey] = frozenset()

    def __post_init__(self):
        classes = [set(self.non_halting), set(self.accepting), set(self.rejecting)]
        for a, b in itertools.combinations(classes, 2):
            overlap = a & b
            if overlap:
                raise SpecError(f"state classes overlap: {sorted(overlap)}")
        if self.initial not in self.non_halting:
            raise SpecError(f"initial state {self.initial!r} must be non-halting")
        for mark in (LEFT_END, RIGHT_END):
            if mark in self.input_alphabet:
                raise SpecError(f"endmarker {mark!r} may not appear in the input alphabet")
        if BLANK not in self.comm_alphabet:
            raise SpecError("communication alphabet must contain the blank symbol")
        if BLANK not in self.prover_alphabet:
            raise SpecError("prover tape alphabet must contain the blank symbol")
        states = set(self.states)
        for (q, sigma, gamma), targets in self.delta.items():
            if q not in states:
                raise SpecError(f"transition from unknown state {q!r}")
            if sigma not in self.tape_symbols:
                raise SpecError(f"transition on unknown tape symbol {sigma!r}")
            if gamma not in self.comm_alphabet:
                raise SpecError(f"transition on unknown cell symbol {gamma!r}")
            for (q2, g2, d, amp) in targets:
                if q2 not in states:
                    raise SpecError(f"transition into unknown state {q2!r}")
                if g2 not in self.comm_alphabet:
                    raise SpecError(f"transition writes unknown cell symbol {g2!r}")
                if d not in (-1, 0, 1):
                    raise SpecError(f"head move must be in -1/0/+1, got {d}")
                if self.head_model.one_way and d != 1:
                    raise SpecError(
                        f"one-way verifier has a non-rightward move at {(q, sigma, gamma)}")
                check_amplitude(complex(amp))

    @property
    def states(self) -> tuple[str, ...]:
        return self.non_halting + self.accepting + self.rejecting

    @property
    def tape_symbols(self) -> tuple[str, ...]:
        return (LEFT_END,) + self.input_alphabet + (RIGHT_END,)

    def is_halting(self, q: str) -> bool:
        return q in self._halting

    def is_accepting(self, q: str) -> bool:
        return q in self._accepting_set

    @functools.cached_property
    def _halting(self) -> frozenset:
        return frozenset(self.accepting) | frozenset(self.rejecting)

    @functools.cached_property
    def _accepting_set(self) -> frozenset:
        return frozenset(self.accepting)

    def check_input(self, x: str) -> None:
        sigma = set(self.input_alphabet)
        bad = [c for c in x if c not in sigma]
        if bad:
            raise AlphabetError(f"symbols {bad} of input {x!r} are outside the alphabet")


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

def _step_table(spec: QfaSpec):
    """delta compiled per tape symbol into integer arrays.

    ``{sigma: (src, dst, move, amp)}``, one entry per transition target:
    ``src`` and ``dst`` index (state, cell symbol) pairs as q·|Gamma| + gamma.
    """
    gsz = len(spec.comm_alphabet)
    q_idx = {q: i for i, q in enumerate(spec.states)}
    g_idx = {g: i for i, g in enumerate(spec.comm_alphabet)}
    entries: dict[str, list] = {}
    for (q, sigma, gamma), targets in spec.delta.items():
        found = entries.setdefault(sigma, [])
        src = q_idx[q] * gsz + g_idx[gamma]
        for (q2, g2, d, amp) in targets:
            found.append((src, q_idx[q2] * gsz + g_idx[g2], d, amp))
    table = {}
    for sigma, found in entries.items():
        if not found:  # only columns without targets
            continue
        src, dst, move, amp = zip(*found)
        table[sigma] = (np.array(src, dtype=np.intp), np.array(dst, dtype=np.intp),
                        np.array(move, dtype=np.intp), np.array(amp, dtype=complex))
    return table


def _step_operator(spec: QfaSpec, table, x: str, sparse: bool):
    """`build_step_operator` from a table compiled by `_step_table`."""
    spec.check_input(x)
    width = len(x) + 2
    gsz = len(spec.comm_alphabet)
    dim = len(spec.states) * width * gsz
    positions: dict[str, list[int]] = {}
    for k, sigma in enumerate((LEFT_END,) + tuple(x) + (RIGHT_END,)):
        positions.setdefault(sigma, []).append(k)

    def index(pair, k):
        # basis index of (q, k, gamma) is (q·width + k)·|Gamma| + gamma
        return ((pair // gsz * width + k) * gsz + pair % gsz).ravel()

    empty = np.empty(0, dtype=np.intp)
    rows, cols, data = [empty], [empty], [np.empty(0, dtype=complex)]
    for sigma, (src, dst, move, amp) in table.items():
        if sigma not in positions:
            continue
        k = np.array(positions[sigma])[:, None]
        cols.append(index(src, k))
        rows.append(index(dst, (k + move) % width))
        data.append(np.tile(amp, len(k)))
    mat = sp.csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim), dtype=complex)
    return mat if sparse else mat.toarray()


def build_step_operator(spec: QfaSpec, x: str, sparse: bool = False):
    """The linear operator induced by delta on input x.

    Basis is {(q, k, gamma)} with dimension |Q|·(|x|+2)·|Gamma|; the entry from
    (q, k, gamma) to (q', k+d mod |x|+2, gamma') is delta(q, x_(k), gamma, q',
    gamma', d).  Returns a dense ndarray, or a scipy CSC matrix when
    ``sparse`` is set (the operators have O(dim) nonzeros, so the sparse form
    is what validation uses at larger sizes).
    """
    return _step_operator(spec, _step_table(spec), x, sparse)


# ---------------------------------------------------------------------------
# Canonical completion
# ---------------------------------------------------------------------------

def _column_groups(spec: QfaSpec):
    """delta keys grouped per tape symbol: {sigma: {(q, gamma): targets}}."""
    groups: dict[str, dict[tuple[str, str], tuple[Transition, ...]]] = {
        s: {} for s in spec.tape_symbols}
    for (q, sigma, gamma), targets in spec.delta.items():
        groups[sigma][(q, gamma)] = targets
    return groups


def _column_vector(targets, pair_index) -> dict[int, complex]:
    vec: dict[int, complex] = {}
    for (q2, g2, _d, amp) in targets:
        i = pair_index[(q2, g2)]
        vec[i] = vec.get(i, 0j) + amp
    return vec


def _orthonormality_violations(columns, pair_index, tol):
    """Pairwise orthonormality of the given (q,gamma)->targets columns."""
    out = []
    vecs = {key: _column_vector(tgts, pair_index) for key, tgts in columns.items()}
    for key, vec in vecs.items():
        nrm = sum(abs(a) ** 2 for a in vec.values())
        if abs(nrm - 1.0) > 2 * tol + tol * tol:
            out.append((key, key, math.sqrt(nrm)))
    by_row: dict[int, list] = {}
    for key, vec in vecs.items():
        for i in vec:
            by_row.setdefault(i, []).append(key)
    seen = set()
    for keys in by_row.values():
        for a, b in itertools.combinations(sorted(keys), 2):
            if (a, b) in seen:
                continue
            seen.add((a, b))
            ip = sum(vecs[a][i].conjugate() * vecs[b][i]
                     for i in vecs[a] if i in vecs[b])
            if abs(ip) > tol:
                out.append((a, b, abs(ip)))
    return out


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
    any specified behaviour.  The report carries orthonormality violations, a
    unitarity verdict per tested input length and the largest deviation from
    unitarity over the tested inputs.
    """
    report = ValidationReport()
    groups = _column_groups(spec)
    pairs = [(q, g) for q in spec.states for g in spec.comm_alphabet]
    pair_index = {p: i for i, p in enumerate(pairs)}

    for sigma in spec.tape_symbols:
        for a, b, val in _orthonormality_violations(groups[sigma], pair_index, tol):
            if a == b:
                report.violations.append(
                    (sigma, f"column {a} has norm {val:.6g}, not 1"))
            else:
                report.violations.append(
                    (sigma, f"columns {a} and {b} are not orthogonal (|<a,b>|={val:.6g})"))
    if report.violations:
        raise SpecError(
            "completion refused, specified columns are not orthonormal: "
            + "; ".join(f"[{s}] {d}" for s, d in report.violations))

    # head move recorded per (target state, written symbol); completions into
    # an already-used pair must reuse it or the circular-tape overlap
    # conditions can break
    dmap: dict[tuple[str, str], int] = {}
    for targets in spec.delta.values():
        for (q2, g2, d, _amp) in targets:
            dmap.setdefault((q2, g2), d)

    gsz = len(spec.comm_alphabet)
    missing = {sigma: [p for p in pairs if p not in groups[sigma]]
               for sigma in spec.tape_symbols}
    n_fresh = max((len(m) + gsz - 1) // gsz for m in missing.values()) if missing else 0
    taken = sum(1 for s in spec.states if s.startswith("~rej"))
    fresh = tuple(f"~rej{taken + i}" for i in range(n_fresh))
    if n_fresh == 0:
        report.completed_transitions = 0
        completed = spec
    else:
        default_d = 1 if spec.head_model.one_way else 0
        new_delta = dict(spec.delta)
        added = 0
        all_states = spec.states + fresh
        all_pairs = [(q, g) for q in all_states for g in spec.comm_alphabet]
        all_index = {p: i for i, p in enumerate(all_pairs)}
        fresh_cols = [(f, g) for f in fresh for g in spec.comm_alphabet]
        for sigma in spec.tape_symbols:
            assigned_cols: list[dict[int, complex]] = []
            for key in sorted(groups[sigma]):
                assigned_cols.append(_column_vector(groups[sigma][key], all_index))
            for i, (q, g) in enumerate(sorted(missing[sigma])):
                target = (fresh[i // gsz], spec.comm_alphabet[i % gsz])
                d = dmap.get(target, default_d)
                new_delta[(q, sigma, g)] = ((target[0], target[1], d, 1.0 + 0j),)
                assigned_cols.append({all_index[target]: 1.0 + 0j})
                added += 1
            # leftover image space goes to the fresh states' own columns
            leftover = _leftover_basis(assigned_cols, len(fresh_cols), all_pairs, tol)
            for (f, g), vec in zip(fresh_cols, leftover):
                targets = []
                for i, amp in vec:
                    q2, g2 = all_pairs[i]
                    d = dmap.get((q2, g2), default_d)
                    targets.append((q2, g2, d, amp))
                new_delta[(f, sigma, g)] = tuple(targets)
                added += 1
        completed = replace(
            spec,
            rejecting=spec.rejecting + fresh,
            delta=new_delta,
            completion_states=spec.completion_states + fresh,
            completion_keys=frozenset(spec.completion_keys)
            | (frozenset(new_delta) - frozenset(spec.delta)),
        )
        report.completed_transitions = added

    table = _step_table(completed)
    for n in lengths:
        ok = True
        for x in _test_inputs(completed.input_alphabet, n, MAX_INPUTS_PER_LENGTH):
            u = _step_operator(completed, table, x, sparse=True)
            report.max_unitary_deviation = max(report.max_unitary_deviation,
                                               unitary_deviation(u))
            # the verdict stays with check_unitary, which also refuses tol <= 0
            if not check_unitary(u, tol):
                ok = False
                report.violations.append((x, f"step operator not unitary at length {n}"))
        report.well_formed[n] = ok
    return completed, report


def _leftover_basis(assigned_cols, count, all_pairs, tol):
    """Orthonormal basis of the orthocomplement of the assigned columns.

    Returned as ``count`` sparse vectors [(index, amp), ...].  Rows that no
    assigned column touches become unit vectors, handed out first, those on
    fresh rejecting states ahead of the rest, so that completion junk stays,
    as far as possible, inside the rejecting family.  The rows touched by
    columns that are not unit vectors form a block together with every column
    that has an entry there; the block's orthocomplement comes from an SVD of
    the block alone and is handed out last.  Axis-aligned tables (the common
    case) have an empty block and are completed exactly.
    """
    touched = set()
    block_rows = set()
    for col in assigned_cols:
        touched.update(col)
        if len(col) != 1 or abs(abs(next(iter(col.values()))) - 1.0) > tol:
            block_rows.update(col)
    free = [i for i in range(len(all_pairs)) if i not in touched]
    free.sort(key=lambda i: (0 if all_pairs[i][0].startswith("~rej") else 1, i))
    out = [[(i, 1.0 + 0j)] for i in free]
    if block_rows:
        rows = sorted(block_rows)
        local = {i: r for r, i in enumerate(rows)}
        block = [col for col in assigned_cols if not block_rows.isdisjoint(col)]
        mat = np.zeros((len(rows), len(block)), dtype=complex)
        for j, col in enumerate(block):
            for i, amp in col.items():
                mat[local[i], j] = amp
        # columns of u beyond the rank span the block's orthocomplement
        u, s, _vh = np.linalg.svd(mat, full_matrices=True)
        rank = int(np.sum(s > COMPLETION_RANK_TOL))
        for vec in u[:, rank:].T:
            out.append([(rows[r], complex(vec[r]))
                        for r in np.flatnonzero(np.abs(vec) > PRUNE_TOL)])
    assert len(out) == count
    return out


def _test_inputs(alphabet, n, cap):
    if n == 0:
        yield ""
        return
    total = len(alphabet) ** n
    if total <= cap:
        for tup in itertools.product(alphabet, repeat=n):
            yield "".join(tup)
        return
    # deterministic covering sample: uniform strings plus a rotating mix, so
    # every 3-window of adjacent symbols (which is what the circular-tape
    # unitarity conditions see) shows up
    seen = set()
    for a in alphabet:
        seen.add(a * n)
    for tup in itertools.product(alphabet, repeat=min(3, n)):
        s = ("".join(tup) * (n // len(tup) + 1))[:n]
        seen.add(s)
    rng = np.random.default_rng(20040722)
    while len(seen) < cap:
        seen.add("".join(rng.choice(list(alphabet)) for _ in range(n)))
    yield from sorted(seen)


# ---------------------------------------------------------------------------
# Structural validators
# ---------------------------------------------------------------------------

def public_symbol(q: str, d: int, one_way: bool) -> str:
    """Cell encoding of a public verifier's announced move."""
    return q if one_way else f"{q},{d:+d}"


def check_structure(spec: QfaSpec, mode: StructureMode,
                    lengths=DEFAULT_LENGTHS) -> ValidationReport:
    """Scan a validated spec against one of the restricted-model disciplines.

    Findings land in the report; nothing raises.  Completion-added transitions
    are exempt (they only exist to close the unitary and always reject).
    """
    report = ValidationReport()
    own = [(key, tgt) for key, tgts in spec.delta.items()
           if key not in spec.completion_keys for tgt in tgts]

    if mode is StructureMode.ONE_WAY_HALTING:
        if not spec.head_model.one_way:
            report.violations.append(("", "head model is not one-way"))
        for (q, sigma, gamma), (q2, _g2, _d, _amp) in own:
            if sigma == RIGHT_END and not spec.is_halting(q2):
                report.violations.append(
                    (sigma, f"transition {(q, sigma, gamma)} -> {q2} does not halt at $"))
        if not report.violations:
            from .provers import IdentityProver
            from .runtime import NO_MASS_TOL, measure_every_run
            for n in lengths:
                for x in _test_inputs(spec.input_alphabet, n, MAX_INPUTS_PER_LENGTH):
                    res = measure_every_run(spec, IdentityProver(), x, len(x) + 2)
                    if res.p_cont > NO_MASS_TOL:
                        report.violations.append(
                            (x, f"continuation mass {res.p_cont:.3g} after n+2 steps"))
        for n in lengths:
            report.well_formed[n] = not any(v for v in report.violations)

    elif mode is StructureMode.PUBLIC:
        one_way = spec.head_model.one_way
        for (q, sigma, gamma), (q2, g2, d, _amp) in own:
            if not spec.is_halting(q2) and g2 != public_symbol(q2, d, one_way):
                report.violations.append(
                    (sigma,
                     f"transition {(q, sigma, gamma)} -> ({q2}, {g2!r}) does not "
                     f"announce {public_symbol(q2, d, one_way)!r}"))
        report.well_formed[0] = not report.violations

    elif mode is StructureMode.MEASURE_ONCE:
        if spec.head_model is not HeadModel.MO_1WAY:
            report.violations.append(("", "head model is not measure-once 1-way"))
        for (q, sigma, gamma), (q2, _g2, _d, _amp) in own:
            if spec.is_halting(q2) and sigma != RIGHT_END:
                report.violations.append(
                    (sigma,
                     f"transition {(q, sigma, gamma)} -> {q2} halts before the final step"))
        report.well_formed[0] = not report.violations
    else:
        raise DomainError(f"unknown structure mode {mode}")
    return report
