"""Prover strategies.

A prover acts once per round on the pair (communication symbol, private tape
string).  Strategies are stateless: every call gets the input word, the round
index (1-based) and the visible pair, and returns a finite superposition of
replacement pairs.  Sparse strategies grow the tape string on demand; dense
strategies act by an explicit unitary on the first ``c`` tape cells.

Honest provers are realized as per-round classical scripts.  A scripted round
either leaves everything alone or rewrites the cell symbol and pushes the
symbol it consumed onto the tape, which makes every round an isometry on the
whole visible space regardless of the rewrite map.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .qfa import BLANK


class ReversibilityError(ValueError):
    """A classical table is not injective, so it has no unitary realization."""


class ProverStrategy:
    """Base contract; subclasses implement apply() and may refine idle().

    ``idle(x, i)`` promises that round i leaves every (cell, tape) pair
    unchanged with amplitude exactly 1, so that ``apply(x, i, gamma, y)`` is
    ``[(gamma, y, 1+0j)]`` for every gamma and y; the engine then skips the
    prover step of that round.  The default is False, so a prover that does
    not refine it acts in every round.
    """

    def initial_tape(self, x: str) -> str:
        return ""

    def apply(self, x: str, i: int, gamma: str, y: str):
        """Return a list of (gamma', y', amplitude) for round i."""
        raise NotImplementedError

    def idle(self, x: str, i: int) -> bool:
        """True when round i is the identity with amplitude 1 on every pair."""
        return False

    def describe(self) -> dict:
        return {"kind": type(self).__name__}


class IdentityProver(ProverStrategy):
    """The prover that never touches anything; trivially committed."""

    def apply(self, x, i, gamma, y):
        return [(gamma, y, 1.0 + 0j)]

    def idle(self, x, i):
        return True

    def describe(self):
        return {"kind": "identity"}


@dataclass
class ScriptedProver(ProverStrategy):
    """Classical per-round rewrite maps over the cell symbol.

    ``script(x)`` produces a dict {round index: {gamma: gamma'}}.  Rounds
    absent from the dict act as the identity.  Active rounds append the
    consumed symbol to the tape, so the round action is injective for any
    rewrite map; symbols missing from a round's map pass through unchanged
    (still recorded).
    """

    script_builder: object  # callable x -> dict[int, dict[str, str]]
    name: str = "scripted"
    _cache: dict = field(default_factory=dict, repr=False)

    def _script(self, x: str) -> dict:
        if x not in self._cache:
            self._cache[x] = self.script_builder(x)
        return self._cache[x]

    def apply(self, x, i, gamma, y):
        rule = self._script(x).get(i)
        if rule is None:
            return [(gamma, y, 1.0 + 0j)]
        return [(rule.get(gamma, gamma), f"{y}|{gamma}", 1.0 + 0j)]

    def idle(self, x, i):
        return i not in self._script(x)

    def describe(self):
        return {"kind": "scripted", "name": self.name}


class EraseAllProver(ProverStrategy):
    """Rewrite any non-blank cell to blank, every round, recording the symbol.

    This is the honest strategy for the regular-language eraser protocol and
    for the erase-on-query protocols; it is committed (blanks stay blank).
    """

    def apply(self, x, i, gamma, y):
        if gamma == BLANK:
            return [(BLANK, y, 1.0 + 0j)]
        return [(BLANK, f"{y}|{gamma}", 1.0 + 0j)]

    def describe(self):
        return {"kind": "erase_all"}


# ---------------------------------------------------------------------------
# Classical prover tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassicalProverTable:
    """Deterministic step-indexed map (i, cell symbol, memory) -> (cell', memory').

    Pairs not listed act as the identity.  Memory states are opaque labels.
    """

    entries: dict[tuple[int, str, str], tuple[str, str]]
    initial_memory: str = "m0"


class TableProver(ProverStrategy):
    def __init__(self, table: ClassicalProverTable):
        self.table = table
        self._steps = frozenset(i for (i, _g, _m) in table.entries)

    def initial_tape(self, x):
        return self.table.initial_memory

    def apply(self, x, i, gamma, y):
        g2, m2 = self.table.entries.get((i, gamma, y), (gamma, y))
        return [(g2, m2, 1.0 + 0j)]

    def idle(self, x, i):
        return i not in self._steps

    def describe(self):
        return {"kind": "classical_table",
                "initial_memory": self.table.initial_memory,
                "entries": {f"{i}|{g}|{m}": list(v)
                            for (i, g, m), v in sorted(self.table.entries.items())}}


def make_classical_prover(table: ClassicalProverTable) -> TableProver:
    """Wrap a classical table, refusing tables that are visibly irreversible.

    Injectivity is checked per step over the listed entries together with the
    implied identity on unlisted pairs; a collision is a hard error naming the
    pair, since no unitary extends a non-injective map.
    """
    by_step: dict[int, dict] = {}
    for (i, g, m), (g2, m2) in table.entries.items():
        by_step.setdefault(i, {})[(g, m)] = (g2, m2)
    for i, step in sorted(by_step.items()):
        seen: dict[tuple[str, str], tuple[str, str]] = {}
        for src, dst in sorted(step.items()):
            if dst in seen:
                raise ReversibilityError(
                    f"step {i}: {seen[dst]} and {src} both map to {dst}")
            seen[dst] = src
    # collisions with the implied identity on unlisted pairs depend on which
    # pairs are reachable; the run-time conservation check catches those
    return TableProver(table)


# ---------------------------------------------------------------------------
# Dense strategies
# ---------------------------------------------------------------------------

# A dense-matrix entry this small is rounding noise, not a move of the prover.
DENSE_ENTRY_TOL = 1e-14


def sufficient_dense_cells(spec, n: int) -> int:
    """Tape cells after which a space-bounded prover loses no power.

    A prover acting on the verifier's visible configuration space achieves any
    acceptance probability an unbounded one can, so |Delta|^c >= |Q|*|Gamma|*(n+2)
    suffices.  This is the principled default for dense realizations; searches
    usually use fewer cells and report lower bounds.
    """
    need = len(spec.states) * len(spec.comm_alphabet) * (n + 2)
    base = len(spec.prover_alphabet)
    c = 1
    while base ** c < need:
        c += 1
    return c


class EncodingError(ValueError):
    """The tape cells cannot spell every memory state of a classical table."""


def dense_basis(comm_alphabet, tape_alphabet, c: int) -> tuple:
    """Dense basis labels (cell symbol, c-cell tape word): cell-major, high digit first."""
    return tuple(itertools.product(comm_alphabet,
                                   itertools.product(tape_alphabet, repeat=c)))


class DenseProver(ProverStrategy):
    """Per-round unitaries over (cell symbol, first c tape cells).

    ``matrices[i-1]`` acts at round i; rounds beyond the tuple are the
    identity.  Basis index j is ``labels[j]``.  The tape is a tuple of exactly
    c symbols (cell symbols can be multi-character strings, so plain
    concatenation would be ambiguous).  A prover is immutable.
    """

    def __init__(self, comm_alphabet, tape_alphabet, c: int, matrices):
        self.comm_alphabet = tuple(comm_alphabet)
        self.tape_alphabet = tuple(tape_alphabet)
        self.c = c
        self.labels = dense_basis(self.comm_alphabet, self.tape_alphabet, c)
        self.index = {lbl: j for j, lbl in enumerate(self.labels)}
        self.dim = len(self.labels)
        self.matrices = tuple(matrices)
        for m in self.matrices:
            self._check_shape(m)
        # per round, each column's nonzero (cell', tape', amplitude) entries
        self._columns: list = [None] * len(self.matrices)

    def _check_shape(self, m) -> None:
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"round matrix must be {self.dim}x{self.dim}")

    def with_round(self, i0: int, m) -> DenseProver:
        """A copy with ``matrices[i0]`` replaced by ``m``; it shares the label
        table and the cached columns of every other round."""
        self._check_shape(m)
        new = object.__new__(type(self))
        new.__dict__ = {**self.__dict__,
                        "matrices": self.matrices[:i0] + (m,) + self.matrices[i0 + 1:],
                        "_columns": self._columns[:i0] + [None] + self._columns[i0 + 1:]}
        return new

    def initial_tape(self, x):
        return (BLANK,) * self.c

    def apply(self, x, i, gamma, y):
        if i > len(self.matrices):
            return [(gamma, y, 1.0 + 0j)]
        cols = self._columns[i - 1]
        if cols is None:
            m = self.matrices[i - 1]
            kept = np.abs(m) > DENSE_ENTRY_TOL
            cols = [[(*self.labels[row], complex(m[row, src]))
                     for row in np.flatnonzero(kept[:, src])]
                    for src in range(self.dim)]
            self._columns[i - 1] = cols
        return cols[self.index[gamma, y]]

    def idle(self, x, i):
        return i > len(self.matrices)

    def describe(self):
        return {"kind": "dense",
                "c": self.c,
                "comm_alphabet": list(self.comm_alphabet),
                "tape_alphabet": list(self.tape_alphabet),
                "matrices": [[[z.real, z.imag] for z in m.flatten()]
                             for m in self.matrices]}


def dense_from_table(table: ClassicalProverTable, comm_alphabet, tape_alphabet,
                     c: int, rounds: int) -> DenseProver:
    """Permutation unitaries realizing a classical table for ``rounds`` rounds.

    Memory labels, the initial one first and the rest sorted, are spelled by
    the tape words in order.  An unlisted pair stays put unless a listed pair
    took its place; complete_permutation then sends it to an unused
    destination.  ``EncodingError`` if the labels outnumber the tape words.
    """
    others = ({m for (_i, _g, m) in table.entries}
              | {m2 for (_g2, m2) in table.entries.values()}) - {table.initial_memory}
    memory = [table.initial_memory] + sorted(others)
    words = list(itertools.product(tape_alphabet, repeat=c))
    if len(memory) > len(words):
        raise EncodingError(f"c={c} cannot encode {len(memory)} memory states")
    index = {lbl: j for j, lbl in enumerate(dense_basis(comm_alphabet, tape_alphabet, c))}
    word = dict(zip(memory, words))
    pairs = [index[g, word[m]] for g in comm_alphabet for m in memory]
    matrices = []
    for r in range(1, rounds + 1):
        mapping = {index[g, word[m]]: index[g2, word[m2]]
                   for (i, g, m), (g2, m2) in table.entries.items() if i == r}
        taken = set(mapping.values())
        mapping.update((p, p) for p in pairs if p not in mapping and p not in taken)
        matrices.append(complete_permutation(mapping, len(index)))
    return DenseProver(comm_alphabet, tape_alphabet, c, matrices)


def densify_schedule(visible: list[tuple[str, str]], comm_alphabet,
                     tape_alphabet, c: int) -> DenseProver:
    """Dense realization of a deterministic visible schedule.

    ``visible[i-1]`` is the (symbol seen, symbol written) pair at round i of
    the honest run.  It becomes a table whose memory is a round counter:
    round t+1 maps (seen, t) to (written, t+1).  Off-schedule behaviour is
    arbitrary but unitary.
    """
    table = ClassicalProverTable(
        entries={(t + 1, seen, t): (written, t + 1)
                 for t, (seen, written) in enumerate(visible)},
        initial_memory=0)
    return dense_from_table(table, comm_alphabet, tape_alphabet, c, len(visible))


def complete_permutation(mapping: dict[int, int], dim: int) -> np.ndarray:
    """Permutation matrix sending each source in ``mapping`` to its image.

    The remaining sources go, in ascending order, to the unused destinations
    in ascending order.  Sources sharing an image raise ``ReversibilityError``.
    """
    if len(set(mapping.values())) < len(mapping):
        raise ReversibilityError(f"two sources share a destination in {mapping}")
    free_dst = iter(sorted(set(range(dim)) - set(mapping.values())))
    perm = np.zeros((dim, dim), dtype=complex)
    for src in range(dim):
        perm[mapping[src] if src in mapping else next(free_dst), src] = 1.0
    return perm


# ---------------------------------------------------------------------------
# Committed-prover check
# ---------------------------------------------------------------------------

COMMITTED_TOL = 1e-9
MAX_TAPE_STATES = 4096


def check_committed(prover: ProverStrategy, x: str, i_max: int,
                    comm_alphabet=None) -> bool:
    """True iff the prover never disturbs a blank cell through round i_max.

    Walks the reachable tape contents round by round (the S_i sets): S_0 is
    the blank tape, S_i collects every tape string producible from S_{i-1}
    under any visible cell symbol.  At each round, acting on (blank, y) must
    yield only blank-cell components, up to amplitude tolerance.
    """
    symbols = tuple(comm_alphabet) if comm_alphabet else (BLANK,)
    if BLANK not in symbols:
        symbols = (BLANK,) + symbols
    reachable = {prover.initial_tape(x)}
    for i in range(1, i_max + 1):
        nxt = set()
        for y in sorted(reachable):
            for (g2, y2, amp) in prover.apply(x, i, BLANK, y):
                if abs(amp) <= COMMITTED_TOL:
                    continue
                if g2 != BLANK:
                    return False
                nxt.add(y2)
            for gamma in symbols:
                if gamma == BLANK:
                    continue
                for (_g2, y2, amp) in prover.apply(x, i, gamma, y):
                    if abs(amp) > COMMITTED_TOL:
                        nxt.add(y2)
        if len(nxt) > MAX_TAPE_STATES:
            raise ValueError(f"reachable tape set exceeded {MAX_TAPE_STATES} entries")
        reachable = nxt
    return True
