"""Prover strategies.

A prover acts once per round on the pair (communication symbol, private tape
string).  Strategies are stateless: every call gets the input word, the round
index (1-based) and the visible pair, and returns a finite superposition of
replacement pairs.  Sparse strategies grow the tape string on demand; dense
strategies act by an explicit unitary on the first ``c`` tape cells.

Honest provers are realized as per-round classical scripts.  A scripted round
either leaves everything alone or rewrites the cell symbol and pushes the
symbol it consumed onto the tape, which makes every round an isometry on the
whole visible space regardless of the rewrite map.  `from_description`
rebuilds a searched prover from the JSON-ready ``describe()`` of its report.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .linalg import UNITARY_TOL, ContractViolation
from .qfa import BLANK


class ReversibilityError(ValueError):
    """A classical table is not injective, so it has no unitary realization."""


class ProverStrategy:
    """Base contract; subclasses implement apply() and may refine idle() and
    committed().

    ``idle(x, i)`` promises that round i leaves every (cell, tape) pair
    unchanged with amplitude exactly 1, so that ``apply(x, i, gamma, y)`` is
    ``[(gamma, y, 1+0j)]`` for every gamma and y; the engine then skips the
    prover step of that round.  The default is False, so a prover that does
    not refine it acts in every round.

    ``committed(x, i_max)`` promises that through round i_max the prover
    never writes a non-blank symbol into a blank cell, whatever its tape
    holds.  `runtime.count_interactions` counts only against such provers.
    The default is False, so a prover that does not refine it is refused.
    """

    def initial_tape(self, x: str) -> str:
        return ""

    def apply(self, x: str, i: int, gamma: str, y: str):
        """Return a list of (gamma', y', amplitude) for round i."""
        raise NotImplementedError

    def idle(self, x: str, i: int) -> bool:
        """True when round i is the identity with amplitude 1 on every pair."""
        return False

    def committed(self, x: str, i_max: int) -> bool:
        """True when no round up to i_max moves a blank cell off blank."""
        return False

    def describe(self) -> dict:
        return {"kind": type(self).__name__}


class IdentityProver(ProverStrategy):
    """The prover that never touches anything; trivially committed."""

    def apply(self, x, i, gamma, y):
        return [(gamma, y, 1.0 + 0j)]

    def idle(self, x, i):
        return True

    def committed(self, x, i_max):
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

    def committed(self, x, i_max):
        return all(rule.get(BLANK, BLANK) == BLANK
                   for i, rule in self._script(x).items() if i <= i_max)

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

    def committed(self, x, i_max):
        return True

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
    """A classical table as a prover.  Two listed pairs of one step with one
    image raise ``ReversibilityError`` naming them, since no unitary extends
    a non-injective map.  It is committed through round i_max when no entry
    of a step up to i_max sends a blank cell to a non-blank one, whether or
    not its memory label can be reached."""

    def __init__(self, table: ClassicalProverTable):
        first: dict = {}  # (step, image) -> the first listed pair mapped there
        for (i, g, m), (g2, m2) in sorted(table.entries.items()):
            src = first.setdefault((i, g2, m2), (g, m))
            if src != (g, m):
                raise ReversibilityError(
                    f"step {i}: {src} and {(g, m)} both map to {(g2, m2)}")
        # collisions with the implied identity on unlisted pairs depend on which
        # pairs are reachable; the run-time conservation check catches those
        self.table = table
        self._steps = frozenset(i for (i, _g, _m) in table.entries)

    def initial_tape(self, x):
        return self.table.initial_memory

    def apply(self, x, i, gamma, y):
        g2, m2 = self.table.entries.get((i, gamma, y), (gamma, y))
        return [(g2, m2, 1.0 + 0j)]

    def idle(self, x, i):
        return i not in self._steps

    def committed(self, x, i_max):
        return all(g2 == BLANK for (i, g, _m), (g2, _m2) in self.table.entries.items()
                   if g == BLANK and i <= i_max)

    def describe(self):
        return {"kind": "classical_table",
                "initial_memory": self.table.initial_memory,
                "entries": {f"{i}|{g}|{m}": list(v)
                            for (i, g, m), v in sorted(self.table.entries.items())}}


# ---------------------------------------------------------------------------
# Dense strategies
# ---------------------------------------------------------------------------

# A dense-matrix entry this small is rounding noise, not a move of the prover.
DENSE_ENTRY_TOL = 1e-14


class EncodingError(ValueError):
    """The tape cells cannot spell every memory state of a classical table."""


def dense_basis(comm_alphabet, tape_alphabet, c: int) -> tuple:
    """Dense basis labels (cell symbol, c-cell tape word): cell-major, high digit first."""
    return tuple(itertools.product(comm_alphabet,
                                   itertools.product(tape_alphabet, repeat=c)))


def _round_deviations(stack: np.ndarray) -> np.ndarray:
    """The max-entry norm of MᴴM − I for each round matrix M in ``stack``.

    A monomial round, with exactly one nonzero per row and per column, has a
    diagonal MᴴM, so its deviation is the largest ||m|² − 1| over its
    nonzeros m; permutations and table provers are such rounds.  Every other
    round takes the full product.
    """
    nonzero = stack != 0
    monomial = ((nonzero.sum(axis=1) == 1) & (nonzero.sum(axis=2) == 1)).all(axis=1)
    dev = np.empty(len(stack))
    mono = stack[monomial]
    dev[monomial] = np.abs(np.abs(mono[nonzero[monomial]]) ** 2 - 1.0).reshape(
        mono.shape[:2]).max(axis=1, initial=0.0)
    rest = stack[~monomial]
    dev[~monomial] = np.abs(rest.conj().transpose(0, 2, 1) @ rest
                            - np.eye(stack.shape[1])).max(axis=(1, 2), initial=0.0)
    return dev


class DenseProver(ProverStrategy):
    """Per-round unitaries over (cell symbol, first c tape cells).

    ``matrices[i-1]`` acts at round i; rounds beyond the tuple are the
    identity.  Basis index j is ``labels[j]``.  The tape is a tuple of exactly
    c symbols (cell symbols can be multi-character strings, so plain
    concatenation would be ambiguous).  A prover is immutable; a round matrix
    of the wrong shape raises ValueError, and one whose MᴴM − I has an entry
    above UNITARY_TOL, or a NaN, raises ContractViolation naming its round.
    It is committed through round i_max when no round matrix up to i_max has
    an entry above DENSE_ENTRY_TOL, the threshold `apply` keeps, from a
    blank-cell column to a non-blank-cell row, on any tape word.
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
            if m.shape != (self.dim, self.dim):
                raise ValueError(f"round matrix must be {self.dim}x{self.dim}")
        if self.matrices:
            bad = np.flatnonzero(~(_round_deviations(np.asarray(self.matrices)) <= UNITARY_TOL))
            if len(bad):
                raise ContractViolation(
                    f"round {bad[0] + 1} matrix of the prover is not unitary")
        # per round, each column's nonzero (cell', tape', amplitude) entries
        self._columns: list = [None] * len(self.matrices)

    def initial_tape(self, x):
        return (BLANK,) * self.c

    def apply(self, x, i, gamma, y):
        if i > len(self.matrices):
            return [(gamma, y, 1.0 + 0j)]
        cols = self._columns[i - 1]
        if cols is None:
            m = self.matrices[i - 1]
            # the kept entries column by column, each column's by row
            srcs, rows = np.nonzero(np.abs(m.T) > DENSE_ENTRY_TOL)
            cols = [[] for _ in range(self.dim)]
            amps = m[rows, srcs].astype(complex).tolist()
            for src, row, amp in zip(srcs.tolist(), rows.tolist(), amps):
                cols[src].append((*self.labels[row], amp))
            self._columns[i - 1] = cols
        return cols[self.index[gamma, y]]

    def idle(self, x, i):
        return i > len(self.matrices)

    def committed(self, x, i_max):
        rounds = self.matrices[:i_max]
        if not rounds:
            return True
        blank = np.array([g == BLANK for g, _y in self.labels])
        leak = np.asarray(rounds)[:, ~blank][:, :, blank]
        return not (np.abs(leak) > DENSE_ENTRY_TOL).any()

    def describe(self):
        return {"kind": "dense",
                "c": self.c,
                "comm_alphabet": list(self.comm_alphabet),
                "tape_alphabet": list(self.tape_alphabet),
                # each round flattened row by row, as [re, im] pairs
                "matrices": np.asarray(self.matrices, dtype=complex).view(np.float64)
                .reshape(len(self.matrices), self.dim * self.dim, 2).tolist()}


def dense_from_table(table: ClassicalProverTable, comm_alphabet, tape_alphabet,
                     c: int, rounds: int) -> tuple:
    """Permutation round matrices realizing a classical table for ``rounds`` rounds.

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
    return tuple(matrices)


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
    matrices = dense_from_table(table, comm_alphabet, tape_alphabet, c, len(visible))
    return DenseProver(comm_alphabet, tape_alphabet, c, matrices)


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


def from_description(desc: dict) -> ProverStrategy:
    """The identity, table or dense prover whose ``describe()`` is ``desc``,
    checked as it is made; each dense entry must be a [re, im] pair."""
    kind = desc.get("kind")
    if kind == "identity":
        return IdentityProver()
    if kind == "classical_table":
        entries = {}
        for key, (g2, m2) in desc["entries"].items():
            i, g, m = key.split("|")
            entries[(int(i), g, m)] = (g2, m2)
        return TableProver(ClassicalProverTable(entries=entries,
                                                initial_memory=desc["initial_memory"]))
    if kind == "dense":
        dim = len(desc["comm_alphabet"]) * len(desc["tape_alphabet"]) ** desc["c"]
        mats = [np.array([complex(re, im) for re, im in m], dtype=complex).reshape(dim, dim)
                for m in desc["matrices"]]
        return DenseProver(desc["comm_alphabet"], desc["tape_alphabet"], desc["c"], mats)
    raise ValueError(f"unknown strategy description {kind!r}")
