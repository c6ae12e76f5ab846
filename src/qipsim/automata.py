"""Classical automata used as protocol sources and as simulation oracles."""
from __future__ import annotations

from dataclasses import dataclass

from .qfa import LEFT_END, RIGHT_END

# A later choice must beat the best by this much, so rounding never breaks a tie.
POLICY_TIE_TOL = 1e-15


class AutomatonError(ValueError):
    pass


@dataclass(frozen=True)
class Dfa:
    """Complete deterministic finite automaton over its alphabet."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    delta: dict[tuple[str, str], str]

    def __post_init__(self):
        if self.initial not in self.states:
            raise AutomatonError(f"unknown initial state {self.initial!r}")
        for q in self.states:
            for a in self.alphabet:
                if (q, a) not in self.delta:
                    raise AutomatonError(f"missing transition ({q!r}, {a!r})")

    def accepts(self, x: str) -> bool:
        q = self.initial
        for ch in x:
            if (q, ch) not in self.delta:
                raise AutomatonError(f"symbol {ch!r} outside the alphabet")
            q = self.delta[(q, ch)]
        return q in self.accepting


@dataclass(frozen=True)
class Rfa:
    """1-way reversible finite automaton: per-symbol injective transitions.

    Halting is by state class, as for a measure-many 1qfa: entering an
    accepting or rejecting state ends the computation.  Transitions on the
    right endmarker must halt; the initial state is never re-entered.
    """

    non_halting: tuple[str, ...]
    accepting: tuple[str, ...]
    rejecting: tuple[str, ...]
    initial: str
    alphabet: tuple[str, ...]
    delta: dict[tuple[str, str], str]  # (state, symbol incl. endmarkers) -> state

    def __post_init__(self):
        if self.initial not in self.non_halting:
            raise AutomatonError("initial state must be non-halting")
        halting = set(self.accepting) | set(self.rejecting)
        per_symbol: dict[str, dict[str, str]] = {}
        for (q, a), q2 in self.delta.items():
            if q in halting:
                raise AutomatonError(f"halting state {q!r} has an outgoing transition")
            per_symbol.setdefault(a, {})
            if q2 == self.initial:
                raise AutomatonError("initial state is re-entered; not allowed")
            if a == RIGHT_END and q2 not in halting:
                raise AutomatonError(f"transition on $ into non-halting {q2!r}")
            per_symbol[a][q] = q2
        for a, block in per_symbol.items():
            seen: dict[str, str] = {}
            for q, q2 in sorted(block.items()):
                if q2 in seen:
                    raise AutomatonError(
                        f"not reversible on {a!r}: {seen[q2]!r} and {q!r} both reach {q2!r}")
                seen[q2] = q

    @property
    def states(self):
        return self.non_halting + self.accepting + self.rejecting

    def accepts(self, x: str) -> bool | None:
        """Direct simulation; None when the run hangs on a missing transition."""
        q = self.initial
        for ch in (LEFT_END,) + tuple(x) + (RIGHT_END,):
            if q in self.accepting:
                return True
            if q in self.rejecting:
                return False
            if (q, ch) not in self.delta:
                return None
            q = self.delta[(q, ch)]
        if q in self.accepting:
            return True
        if q in self.rejecting:
            return False
        return None


@dataclass(frozen=True)
class Npfa:
    """Two-way finite automaton with probabilistic and nondeterministic states.

    Probabilistic states flip a fair coin: exactly two successors, both moving
    right.  Nondeterministic states carry a finite choice set of (state,
    direction) pairs; deterministic moves are one-element choice sets.
    Accepting/rejecting states halt.
    """

    prob_states: tuple[str, ...]
    nondet_states: tuple[str, ...]
    accepting: tuple[str, ...]
    rejecting: tuple[str, ...]
    initial: str
    alphabet: tuple[str, ...]
    delta: dict[tuple[str, str], tuple[tuple[str, int], ...]]

    def __post_init__(self):
        names = set(self.states)
        if len(names) != len(self.states):
            raise AutomatonError("duplicate state names")
        if self.initial not in self.prob_states + self.nondet_states:
            raise AutomatonError("initial state must be non-halting")
        for (q, sigma), choices in self.delta.items():
            if q in self.prob_states:
                if len(choices) != 2 or any(d != 1 for (_s, d) in choices):
                    raise AutomatonError(
                        f"coin at ({q!r}, {sigma!r}) must have two rightward successors")
                if choices[0][0] == choices[1][0]:
                    raise AutomatonError(f"coin at ({q!r}, {sigma!r}) needs distinct successors")
            elif q in self.nondet_states:
                if not choices:
                    raise AutomatonError(f"empty choice set at ({q!r}, {sigma!r})")
                if any(d not in (-1, 1) for (_s, d) in choices):
                    raise AutomatonError("head must move left or right at every step")
            else:
                raise AutomatonError(f"halting state {q!r} has an outgoing transition")
            for (s, _d) in choices:
                if s not in names:
                    raise AutomatonError(f"transition into unknown state {s!r}")

    @property
    def states(self):
        return self.prob_states + self.nondet_states + self.accepting + self.rejecting

    def tape(self, x: str) -> tuple[str, ...]:
        return (LEFT_END,) + tuple(x) + (RIGHT_END,)


def npfa_value(npfa: Npfa, x: str, horizon: int) -> float:
    """Optimal acceptance probability of the npfa on x within the horizon.

    Coins average, nondeterministic states maximize.  Mass still running at
    the horizon counts as non-accepting, so this is exact once every optimal
    play halts inside the horizon.  The first of `npfa_policy`'s backups only
    marks the halting states, hence its horizon is one longer.
    """
    return npfa_policy(npfa, x, horizon + 1)[1][(npfa.initial, 0)]


def npfa_policy(npfa: Npfa, x: str, horizon: int):
    """Finite-horizon dynamic programming over (state, head position).

    ``horizon`` backups from an all-zero table: accepting states are worth 1,
    coins average, nondeterministic states maximize.  Returns (policy,
    values): for each nondeterministic (state, position) the value-maximizing
    (state, direction) with lexicographic tie-breaking, plus the value table
    itself.
    """
    tape = npfa.tape(x)
    width = len(tape)
    values = {(q, k): 0.0 for q in npfa.states for k in range(width)}
    for _t in range(horizon):
        nxt = {}
        for (q, k) in values:
            if q in npfa.accepting:
                nxt[(q, k)] = 1.0
            elif q in npfa.rejecting:
                nxt[(q, k)] = 0.0
            else:
                choices = npfa.delta.get((q, tape[k]))
                if not choices:
                    nxt[(q, k)] = 0.0
                elif q in npfa.prob_states:
                    nxt[(q, k)] = 0.5 * sum(successor_value(values, k, c, width)
                                            for c in choices)
                else:
                    nxt[(q, k)] = max(successor_value(values, k, c, width)
                                      for c in choices)
        values = nxt
    policy = {}
    for q in npfa.nondet_states:
        for k in range(width):
            choices = npfa.delta.get((q, tape[k]))
            if not choices:
                continue
            best, best_v = None, -1.0
            for sd in sorted(choices):
                v = successor_value(values, k, sd, width)
                if v > best_v + POLICY_TIE_TOL:
                    best, best_v = sd, v
            policy[(q, k)] = best
    return policy, values


def successor_value(values, k: int, choice: tuple[str, int], width: int) -> float:
    """The value of taking ``choice`` = (state, head move) at head position k
    of a circular tape with ``width`` cells, read from an `npfa_policy`
    value table."""
    s, d = choice
    return values[(s, (k + d) % width)]


# ---------------------------------------------------------------------------
# Built-in instances
# ---------------------------------------------------------------------------

def zero_dfa() -> Dfa:
    """Minimal DFA of Zero = {x0 : x over {0,1}}."""
    return Dfa(states=("qe", "qz"), alphabet=("0", "1"), initial="qe",
               accepting=frozenset({"qz"}),
               delta={("qe", "0"): "qz", ("qe", "1"): "qe",
                      ("qz", "0"): "qz", ("qz", "1"): "qe"})


def end_one_dfa() -> Dfa:
    """Minimal DFA of {x1 : x over {0,1}}."""
    return Dfa(states=("pe", "po"), alphabet=("0", "1"), initial="pe",
               accepting=frozenset({"po"}),
               delta={("pe", "0"): "pe", ("pe", "1"): "po",
                      ("po", "0"): "pe", ("po", "1"): "po"})


def zero_star_dfa() -> Dfa:
    """DFA of {0}^* over {0,1}."""
    return Dfa(states=("ok", "bad"), alphabet=("0", "1"), initial="ok",
               accepting=frozenset({"ok"}),
               delta={("ok", "0"): "ok", ("ok", "1"): "bad",
                      ("bad", "0"): "bad", ("bad", "1"): "bad"})


def universal_dfa(alphabet=("0", "1")) -> Dfa:
    return Dfa(states=("u",), alphabet=tuple(alphabet), initial="u",
               accepting=frozenset({"u"}),
               delta={("u", a): "u" for a in alphabet})


def even_a_rfa() -> Rfa:
    """Reversible acceptor of even-length strings over {a}."""
    return Rfa(non_halting=("s", "e", "o"), accepting=("yes",), rejecting=("no",),
               initial="s", alphabet=("a",),
               delta={("s", LEFT_END): "e",
                      ("e", "a"): "o", ("o", "a"): "e",
                      ("e", RIGHT_END): "yes", ("o", RIGHT_END): "no"})


def all_a_rfa() -> Rfa:
    """Reversible acceptor of every string over {a}."""
    return Rfa(non_halting=("s", "u"), accepting=("yes",), rejecting=(),
               initial="s", alphabet=("a",),
               delta={("s", LEFT_END): "u", ("u", "a"): "u",
                      ("u", RIGHT_END): "yes"})


def npfa_single_a() -> Npfa:
    """Deterministic acceptor of {a}, written with one-element choice sets."""
    return Npfa(prob_states=(), nondet_states=("d0", "d1", "d2"),
                accepting=("dacc",), rejecting=("drej",),
                initial="d0", alphabet=("a",),
                delta={("d0", LEFT_END): (("d1", 1),),
                       ("d1", "a"): (("d2", 1),),
                       ("d1", RIGHT_END): (("drej", 1),),
                       ("d2", "a"): (("drej", 1),),
                       ("d2", RIGHT_END): (("dacc", 1),)})


def npfa_coin() -> Npfa:
    """One fair coin at the left endmarker; heads accept at $, tails reject."""
    return Npfa(prob_states=("c0",), nondet_states=("h", "t"),
                accepting=("cacc",), rejecting=("crej",),
                initial="c0", alphabet=("a",),
                delta={("c0", LEFT_END): (("h", 1), ("t", 1)),
                       ("h", "a"): (("h", 1),), ("t", "a"): (("t", 1),),
                       ("h", RIGHT_END): (("cacc", 1),),
                       ("t", RIGHT_END): (("crej", 1),)})


def npfa_choice() -> Npfa:
    """One binary nondeterministic choice; the good branch accepts everything."""
    return Npfa(prob_states=(), nondet_states=("n0", "g", "b"),
                accepting=("gacc",), rejecting=("brej",),
                initial="n0", alphabet=("a",),
                delta={("n0", LEFT_END): (("g", 1), ("b", 1)),
                       ("g", "a"): (("g", 1),), ("b", "a"): (("b", 1),),
                       ("g", RIGHT_END): (("gacc", 1),),
                       ("b", RIGHT_END): (("brej", 1),)})
