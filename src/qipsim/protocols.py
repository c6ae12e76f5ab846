"""Constructors for every built-in verifier/prover protocol.

Each constructor assembles the verifier's partial transition table (as the
protocols are usually written down), closes it with the canonical completion
so that every step operator is unitary, and pairs it with the honest prover.
A table lists the rows that continue or accept, plus the rejections inside a
superposition; the completion rejects every column it leaves out.
Honest provers that depend on the input (the bit feeder for separated
palindromes, the center signaller, the end-of-prefix signaller) are per-round
classical scripts computed from the input at run time.

Head directions follow the target-state convention of the source tables: the
direction is a function of the state being entered (and, for the two-step
nondeterministic simulation, of the symbol written alongside it), which is
what keeps the circular-tape step operators unitary.
"""
from __future__ import annotations

import inspect
import math

from . import languages
from .automata import (Dfa, Npfa, Rfa, all_a_rfa, end_one_dfa, even_a_rfa,
                       npfa_choice, npfa_coin, npfa_policy, npfa_single_a,
                       successor_value, zero_dfa)
from .linalg import phase
from .provers import EraseAllProver, IdentityProver, ProverStrategy, ScriptedProver
from .qfa import (BLANK, LEFT_END, RIGHT_END, HeadModel, QfaSpec, SpecError,
                  public_symbol, validate_and_complete)
from .runtime import Course, QipSystem

_SQ2 = 1 / math.sqrt(2)


class ProtocolError(ValueError):
    """A protocol name, parameter or parameter value that no built-in takes."""


class TableBuilder:
    """Accumulates a partial table with per-state head directions."""

    def __init__(self, name, head_model, input_alphabet, comm_alphabet):
        self.name = name
        self.head_model = head_model
        self.input_alphabet = tuple(input_alphabet)
        self.comm_alphabet = tuple(comm_alphabet)
        self.non: list[str] = []
        self.acc: list[str] = []
        self.rej: list[str] = []
        self.dirs: dict[str, int] = {}
        self.delta: dict = {}

    def state(self, q, cls, d=None):
        {"non": self.non, "acc": self.acc, "rej": self.rej}[cls].append(q)
        if d is None:
            d = 1 if self.head_model.one_way else 0
        self.dirs[q] = d
        return q

    def add(self, q, sigma, gamma, *targets):
        key = (q, sigma, gamma)
        if key in self.delta:
            raise SpecError(f"duplicate table row for {key}")
        out = []
        for t in targets:
            if len(t) == 2:
                q2, g2 = t
                amp = 1.0 + 0j
            else:
                q2, g2, amp = t
            out.append((q2, g2, self.dirs[q2], complex(amp)))
        self.delta[key] = tuple(out)

    def build(self, initial):
        # the prover tape alphabet holds every cell symbol plus one filler, so
        # dense space-bounded twins have room for a round counter
        spec = QfaSpec(
            name=self.name,
            non_halting=tuple(self.non),
            accepting=tuple(self.acc),
            rejecting=tuple(self.rej),
            initial=initial,
            input_alphabet=self.input_alphabet,
            comm_alphabet=self.comm_alphabet,
            prover_alphabet=tuple(dict.fromkeys((BLANK,) + self.comm_alphabet + ("_",))),
            head_model=self.head_model,
            delta=self.delta,
        )
        completed, report = validate_and_complete(spec)
        if not report.ok:
            raise SpecError(f"{self.name}: completion failed: {report.violations}")
        return completed


# ---------------------------------------------------------------------------
# Zero with a public 1qfa verifier
# ---------------------------------------------------------------------------

def zero_public_protocol() -> QipSystem:
    """Error-free public system for Zero = {x0}.

    The verifier announces its state each step; the honest prover blanks the
    announcement exactly when the head is on the rightmost symbol of the
    proper prefix, telling the verifier where the final symbol starts.  A
    misplaced or missing signal, and a final symbol other than 0, reject by
    omission.
    """
    tb = TableBuilder("zero_public", HeadModel.ONE_WAY, ("0", "1"), (BLANK, "q0", "q1"))
    q0 = tb.state("q0", "non")
    q1 = tb.state("q1", "non")
    accs = {g: tb.state(f"acc[{g}]", "acc") for g in (BLANK, "q0", "q1")}

    tb.add(q0, LEFT_END, BLANK, (q0, "q0"))
    for b in ("0", "1"):
        tb.add(q0, b, "q0", (q0, "q0"))
    tb.add(q0, "0", BLANK, (q1, "q1"))
    for g in (BLANK, "q0", "q1"):
        tb.add(q1, RIGHT_END, g, (accs[g], BLANK))

    spec = tb.build(q0)

    def script(x):
        if not x:
            return {}
        return {len(x): {"q0": BLANK}}

    honest = ScriptedProver(script_builder=script, name="zero_end_signaller")
    return QipSystem(name="zero_public", verifier=spec, honest_prover=honest,
                     language=languages.zero, claimed_bounds=(1.0, 1.0))


# ---------------------------------------------------------------------------
# L_a with a measure-once verifier
# ---------------------------------------------------------------------------

def la_mo_protocol() -> QipSystem:
    """Certainty system for {a}^+ whose verifier measures only at the end."""
    tb = TableBuilder("la_mo", HeadModel.MO_1WAY, ("a",), (BLANK, "a"))
    q0 = tb.state("q0", "non")
    q1 = tb.state("q1", "non")
    qacc = tb.state("q_acc", "acc")

    tb.add(q0, LEFT_END, BLANK, (q0, BLANK))
    tb.add(q0, "a", BLANK, (q1, "a"))
    tb.add(q1, "a", BLANK, (q1, BLANK))
    tb.add(q1, RIGHT_END, BLANK, (qacc, BLANK))

    spec = tb.build(q0)
    return QipSystem(name="la_mo", verifier=spec, honest_prover=EraseAllProver(),
                     language=languages.la, claimed_bounds=(1.0, 1.0))


# ---------------------------------------------------------------------------
# Odd with one interaction
# ---------------------------------------------------------------------------

def odd_protocol() -> QipSystem:
    """Interaction-bounded system for 0^m 1 z, z with an odd number of 0s.

    The verifier queries once, at the first 1; a committed prover must erase
    the query symbol or be caught deterministically: an unerased query, like
    an input without a 1, rejects by omission.
    """
    tb = TableBuilder("odd", HeadModel.ONE_WAY, ("0", "1"), (BLANK, "a"))
    q0 = tb.state("q0", "non")
    q1 = tb.state("q1", "non")
    q2 = tb.state("q2", "non")
    qacc = tb.state("q_acc", "acc")

    tb.add(q0, LEFT_END, BLANK, (q0, BLANK))
    tb.add(q0, "0", BLANK, (q0, BLANK))
    tb.add(q0, "1", BLANK, (q1, "a"))
    tb.add(q1, "0", BLANK, (q2, BLANK))
    tb.add(q1, "1", BLANK, (q1, BLANK))
    tb.add(q2, "0", BLANK, (q1, BLANK))
    tb.add(q2, "1", BLANK, (q2, BLANK))
    tb.add(q2, RIGHT_END, BLANK, (qacc, BLANK))

    spec = tb.build(q0)
    return QipSystem(name="odd", verifier=spec, honest_prover=EraseAllProver(),
                     language=languages.odd, claimed_bounds=(1.0, 1.0))


# ---------------------------------------------------------------------------
# Regular languages via the eraser protocol
# ---------------------------------------------------------------------------

def eraser_protocol(dfa: Dfa, name: str | None = None) -> QipSystem:
    """Certainty system for any regular language.

    The verifier simulates the DFA and passes its previous state through the
    cell; the honest prover keeps erasing, which makes the simulation
    reversible.  Any non-blank cell symbol is rejected outright, so a cheating
    prover can only lose.
    """
    comm = (BLANK,) + dfa.states
    tb = TableBuilder(name or f"eraser[{','.join(dfa.states)}]",
                      HeadModel.ONE_WAY, dfa.alphabet, comm)
    for q in dfa.states:
        tb.state(q, "non")
    vacc = tb.state("v_acc", "acc")

    for q in dfa.states:
        tb.add(q, LEFT_END, BLANK, (q, q))
        for a in dfa.alphabet:
            tb.add(q, a, BLANK, (dfa.delta[(q, a)], q))
        if q in dfa.accepting:
            tb.add(q, RIGHT_END, BLANK, (vacc, q))

    spec = tb.build(dfa.initial)
    return QipSystem(name=tb.name, verifier=spec, honest_prover=EraseAllProver(),
                     language=dfa.accepts, claimed_bounds=(1.0, 1.0))


# ---------------------------------------------------------------------------
# Reversible automata, public variant
# ---------------------------------------------------------------------------

def rfa_public_protocol(rfa: Rfa, name: str = "rfa_public") -> QipSystem:
    """Public certainty system echoing a reversible automaton's moves."""
    halting = set(rfa.accepting) | set(rfa.rejecting)
    comm = (BLANK,) + rfa.non_halting
    tb = TableBuilder(name, HeadModel.ONE_WAY, rfa.alphabet, comm)
    for q in rfa.non_halting:
        tb.state(q, "non")
    for q in rfa.accepting:
        tb.state(q, "acc")
    for q in rfa.rejecting:
        tb.state(q, "rej")

    for (p, sigma), q in sorted(rfa.delta.items()):
        src = BLANK if p == rfa.initial else p
        tgt = q if q not in halting else BLANK
        tb.add(p, sigma, src, (q, tgt))

    spec = tb.build(rfa.initial)
    return QipSystem(name=name, verifier=spec, honest_prover=IdentityProver(),
                     language=lambda x: rfa.accepts(x) is True,
                     claimed_bounds=(1.0, 1.0))


# ---------------------------------------------------------------------------
# Separated palindromes
# ---------------------------------------------------------------------------

def pal_sharp_protocol(d: int) -> QipSystem:
    """Worst-case linear-time system for y#y^R with soundness 1 - 1/2^d.

    The verifier runs d stages.  Each stage walks to the separator, splits
    into a leftward and a rightward branch with amplitude 1/sqrt(2) each, and
    checks the branch's half of the input against the bit stream the prover
    feeds through the cell; the two branches expect the same stream exactly
    when the input is a separated palindrome.
    """
    if d < 1:
        raise ProtocolError(f"pal_sharp needs d >= 1, got {d}")
    sigma = ("0", "1", "#")
    comm = (BLANK, "0", "1")
    tb = TableBuilder(f"pal_sharp[d={d}]", HeadModel.TWO_WAY, sigma, comm)

    stages = [""]
    frontier = [""]
    for _ in range(d - 1):
        frontier = [s + b for s in frontier for b in "01"]
        stages += frontier

    def q0(s):
        return f"q0[{s}]"

    for s in stages:
        tb.state(q0(s), "non", 0 if s.endswith("0") else 1)
        tb.state(f"qp[{s}]", "non", +1)
        tb.state(f"q1[{s}]", "non", -1)
        tb.state(f"q2[{s}]", "non", +1)
    for s in stages:
        if len(s) == d - 1:
            tb.state(q0(s + "0"), "acc", 0)
            tb.state(q0(s + "1"), "acc", 1)

    for s in stages:
        qp, q1, q2 = f"qp[{s}]", f"q1[{s}]", f"q2[{s}]"
        tb.add(q0(s), LEFT_END, BLANK, (qp, BLANK))
        tb.add(q1, LEFT_END, BLANK, (q0(s + "0"), BLANK))
        tb.add(q2, RIGHT_END, BLANK, (q0(s + "1"), BLANK))
        for a in ("0", "1"):
            tb.add(qp, a, BLANK, (qp, BLANK))
            tb.add(q1, a, a, (q1, a))
            tb.add(q2, a, a, (q2, a))
        tb.add(qp, "#", BLANK, (q1, BLANK, _SQ2), (q2, BLANK, _SQ2))

    spec = tb.build(q0(""))

    def script(x):
        if x.count("#") != 1:
            return {}
        y, _z = x.split("#")
        n = len(x)
        rounds: dict[int, dict[str, str]] = {}
        for k in range(d):
            base = k * (n + 2)
            prev = BLANK
            for j, bit in enumerate(y[::-1], start=1):
                rounds[base + len(y) + 1 + j] = {prev: bit}
                prev = bit
            rounds[base + n + 1] = {prev: BLANK}
        return rounds

    honest = ScriptedProver(script_builder=script, name="pal_sharp_bit_feeder")
    return QipSystem(name=f"pal_sharp[d={d}]", verifier=spec, honest_prover=honest,
                     language=languages.pal_sharp,
                     claimed_bounds=(1.0, 1.0 - 0.5 ** d))


# ---------------------------------------------------------------------------
# Center with a classical prover
# ---------------------------------------------------------------------------

def center_round_of_qft(x: str, n_branches: int) -> int:
    """Round at which every branch reaches the left endmarker on a member."""
    n = len(x) // 2
    return 2 * n * n_branches + 8 * n + n_branches + 9


def center_protocol(n_branches: int) -> QipSystem:
    """Polynomial-time system for Center = {x1y : |x| = |y|}.

    Phase 1 checks the length parity deterministically.  The prover signals
    the claimed center; the verifier fans out into N branches that walk to
    the right endmarker idling 2(N-j) extra steps per cell, wait N-j more
    steps there, then walk back to the left endmarker idling j steps per
    cell.  The per-branch round trip takes 2nN+3n+N+3 steps regardless of j
    exactly when the signal sat on the true center (a signal offset of e
    shifts branch j by 2j(e-n-1) steps), so the Fourier recombination at the
    left endmarker accepts with certainty on members, while a wrong signal
    leaves every branch arriving alone, worth at most 1/N^2 each.

    The cell stays at 1 from the split to the recombination: both moments
    the verifier blanks it (the split itself) are synchronous across
    branches, so the honest prover's restore never has to distinguish
    branches and the branches stay coherent.
    """
    if n_branches < 2:
        raise ProtocolError(f"center needs at least 2 branches, got {n_branches}")
    N = n_branches
    tb = TableBuilder(f"center[N={N}]", HeadModel.TWO_WAY, ("0", "1"), (BLANK, "1"))
    q0 = tb.state("q0", "non", +1)
    q1 = tb.state("q1", "non", +1)
    q2 = tb.state("q2", "non", -1)
    q3 = tb.state("q3", "non", +1)
    for j in range(1, N):
        tb.state(f"r[{j},0]", "non", +1)
        for k in range(1, N - j + 1):
            tb.state(f"r[{j},{k}]", "non", 0)
            tb.state(f"rp[{j},{k}]", "non", 0)
        for k in range(1, N - j + 1):
            tb.state(f"w[{j},{k}]", "non", 0)
    tb.state(f"r[{N},0]", "non", +1)
    for j in range(1, N + 1):
        tb.state(f"s[{j},0]", "non", -1)
        for k in range(1, j + 1):
            tb.state(f"s[{j},{k}]", "non", 0)
    for l in range(1, N + 1):
        tb.state(f"t[{l}]", "acc" if l == N else "rej", 0)

    tb.add(q0, LEFT_END, BLANK, (q0, BLANK))
    tb.add(q2, LEFT_END, BLANK, (q3, BLANK))
    tb.add(q1, RIGHT_END, BLANK, (q2, BLANK))
    # branch j waits N-j extra steps at the right endmarker, then turns
    for j in range(1, N):
        tb.add(f"r[{j},0]", RIGHT_END, "1", (f"w[{j},{N - j}]", "1"))
        for k in range(2, N - j + 1):
            tb.add(f"w[{j},{k}]", RIGHT_END, "1", (f"w[{j},{k - 1}]", "1"))
        tb.add(f"w[{j},1]", RIGHT_END, "1", (f"s[{j},0]", "1"))
    tb.add(f"r[{N},0]", RIGHT_END, "1", (f"s[{N},0]", "1"))
    for b in ("0", "1"):
        tb.add(q0, b, BLANK, (q1, BLANK))
        tb.add(q1, b, BLANK, (q0, BLANK))
        tb.add(q2, b, BLANK, (q2, BLANK))
        tb.add(q3, b, BLANK, (q3, BLANK))
        for j in range(1, N):
            tb.add(f"r[{j},0]", b, "1", (f"r[{j},{N - j}]", "1"))
            for k in range(1, N - j + 1):
                tb.add(f"r[{j},{k}]", b, "1", (f"rp[{j},{k}]", "1"))
            for k in range(2, N - j + 1):
                tb.add(f"rp[{j},{k}]", b, "1", (f"r[{j},{k - 1}]", "1"))
            tb.add(f"rp[{j},1]", b, "1", (f"r[{j},0]", "1"))
        tb.add(f"r[{N},0]", b, "1", (f"r[{N},0]", "1"))
        for j in range(1, N + 1):
            tb.add(f"s[{j},0]", b, "1", (f"s[{j},{j}]", "1"))
            for k in range(2, j + 1):
                tb.add(f"s[{j},{k}]", b, "1", (f"s[{j},{k - 1}]", "1"))
            tb.add(f"s[{j},1]", b, "1", (f"s[{j},0]", "1"))
    tb.add(q3, "1", "1",
           *[(f"r[{j},0]", BLANK, 1 / math.sqrt(N)) for j in range(1, N + 1)])
    for j in range(1, N + 1):
        tb.add(f"s[{j},0]", LEFT_END, "1",
               *[(f"t[{l}]", BLANK, phase(j * l, N) / math.sqrt(N))
                 for l in range(1, N + 1)])

    spec = tb.build(q0)

    def script(x):
        if len(x) % 2 == 0:
            return {}
        n = len(x) // 2
        signal_round = 5 * n + 5
        # signal the center, then put the 1 back right after the split; both
        # rewrites act on an unbranched or uniformly-blanked cell
        return {signal_round: {BLANK: "1"}, signal_round + 1: {BLANK: "1"}}

    honest = ScriptedProver(script_builder=script, name="center_signaller")
    return QipSystem(name=f"center[N={N}]", verifier=spec, honest_prover=honest,
                     language=languages.center,
                     claimed_bounds=(1.0, 1.0 - 1.0 / N))


# ---------------------------------------------------------------------------
# Upal with a public verifier
# ---------------------------------------------------------------------------

def upal_protocol(n_branches: int) -> QipSystem:
    """Public polynomial-time system for 0^n 1^n.

    The verifier announces every move through the cell and rejects the moment
    the announcement comes back altered, so the honest prover is the identity.
    After a deterministic shape check it fans out into N branches that idle
    N-j steps on each 0 and j steps on each 1; all branches hit the right
    endmarker together exactly when the counts match, and the Fourier
    recombination then accepts with certainty.
    """
    if n_branches < 2:
        raise ProtocolError(f"upal needs at least 2 branches, got {n_branches}")
    N = n_branches
    # pz scans only the first cell; the bounce states bk0/bk1z/bk step back to
    # the previous cell at each block boundary, which keeps every per-symbol
    # transition map injective (a plain "loop entered from outside" is not)
    dirs = {"pz": +1, "bk0": -1, "bk1z": -1, "bk": -1,
            "pa": +1, "pb": +1, "pc": -1}
    for j in range(1, N + 1):
        dirs[f"m[{j}]"] = +1
        for k in range(1, max(N - j, j) + 1):
            dirs[f"i[{j},{k}]"] = 0
    comm = (BLANK,) + tuple(public_symbol(q, d) for q, d in sorted(dirs.items()))
    tb = TableBuilder(f"upal[N={N}]", HeadModel.TWO_WAY, ("0", "1"), comm)
    p0 = tb.state("p0", "non", +1)
    for q, d in sorted(dirs.items()):
        tb.state(q, "non", d)
    tb.state("acc[empty]", "acc", 0)
    for l in range(1, N + 1):
        tb.state(f"t[{l}]", "acc" if l == N else "rej", 0)

    def ann(q):
        return public_symbol(q, dirs[q])

    tb.add(p0, LEFT_END, BLANK, ("pz", ann("pz")))
    tb.add("pz", RIGHT_END, ann("pz"), ("acc[empty]", BLANK))
    tb.add("pz", "0", ann("pz"), ("bk0", ann("bk0")))
    tb.add("pz", "1", ann("pz"), ("bk1z", ann("bk1z")))
    tb.add("bk0", LEFT_END, ann("bk0"), ("pa", ann("pa")))
    tb.add("bk1z", LEFT_END, ann("bk1z"), ("pb", ann("pb")))
    tb.add("pa", "0", ann("pa"), ("pa", ann("pa")))
    tb.add("pa", "1", ann("pa"), ("bk", ann("bk")))
    tb.add("bk", "0", ann("bk"), ("pb", ann("pb")))
    tb.add("pb", "1", ann("pb"), ("pb", ann("pb")))
    tb.add("pb", RIGHT_END, ann("pb"), ("pc", ann("pc")))
    for b in ("0", "1"):
        tb.add("pc", b, ann("pc"), ("pc", ann("pc")))
    tb.add("pc", LEFT_END, ann("pc"),
           *[(f"m[{j}]", ann(f"m[{j}]"), 1 / math.sqrt(N)) for j in range(1, N + 1)])
    for j in range(1, N + 1):
        m = f"m[{j}]"
        if N - j >= 1:
            tb.add(m, "0", ann(m), (f"i[{j},{N - j}]", ann(f"i[{j},{N - j}]")))
            for k in range(2, N - j + 1):
                tb.add(f"i[{j},{k}]", "0", ann(f"i[{j},{k}]"),
                       (f"i[{j},{k - 1}]", ann(f"i[{j},{k - 1}]")))
            tb.add(f"i[{j},1]", "0", ann(f"i[{j},1]"), (m, ann(m)))
        else:
            tb.add(m, "0", ann(m), (m, ann(m)))
        tb.add(m, "1", ann(m), (f"i[{j},{j}]", ann(f"i[{j},{j}]")))
        for k in range(2, j + 1):
            tb.add(f"i[{j},{k}]", "1", ann(f"i[{j},{k}]"),
                   (f"i[{j},{k - 1}]", ann(f"i[{j},{k - 1}]")))
        tb.add(f"i[{j},1]", "1", ann(f"i[{j},1]"), (m, ann(m)))
        tb.add(m, RIGHT_END, ann(m),
               *[(f"t[{l}]", BLANK, phase(j * l, N) / math.sqrt(N))
                 for l in range(1, N + 1)])

    spec = tb.build(p0)
    return QipSystem(name=f"upal[N={N}]", verifier=spec, honest_prover=IdentityProver(),
                     language=languages.upal, claimed_bounds=(1.0, 1.0 - 1.0 / N))


# ---------------------------------------------------------------------------
# Arthur-Merlin automata compiled against classical provers
# ---------------------------------------------------------------------------

QUERY = "?"


def npfa_to_qip(npfa: Npfa, name: str = "npfa", error_bound: float = 0.0) -> QipSystem:
    """Compile a 2npfa into a verifier that outsources its choices.

    A fair coin becomes an equal-amplitude split whose marker the prover must
    erase; a (non)deterministic move becomes a two-step exchange: the verifier
    posts the query symbol without moving, accepts exactly the valid choice
    pairs as replies, and records the consumed choice in the cell for the
    prover to clean.  A classical prover can only pick valid choices, which is
    what makes the simulation faithful.
    """
    halting = set(npfa.accepting) | set(npfa.rejecting)
    comm = {BLANK, QUERY}
    for (q, _sigma), choices in npfa.delta.items():
        if q in npfa.prob_states:
            comm.add(public_symbol(q, 1))
        else:
            for (p2, d2) in choices:
                comm.add(public_symbol(p2, d2))
                comm.add(public_symbol(q + "~", d2))
    tb = TableBuilder(name, HeadModel.TWO_WAY, npfa.alphabet,
                      tuple(sorted(comm, key=lambda s: (s != BLANK, s))))

    for q in npfa.prob_states + npfa.nondet_states:
        tb.state(q, "non")
    for q in npfa.nondet_states:
        tb.state(q + "~", "non")
    for q in npfa.accepting:
        tb.state(q, "acc")
    for q in npfa.rejecting:
        tb.state(q, "rej")

    rows: dict = {}
    for (q, sigma), choices in sorted(npfa.delta.items()):
        if q in npfa.prob_states:
            (p0, _), (p1, _) = choices
            marker = public_symbol(q, 1)
            rows[(q, sigma, BLANK)] = [(p0, marker, 1, _SQ2), (p1, marker, 1, _SQ2)]
        else:
            hat = q + "~"
            rows[(q, sigma, BLANK)] = [(hat, QUERY, 0, 1.0)]
            for (p2, d2) in choices:
                rows[(hat, sigma, public_symbol(p2, d2))] = [
                    (p2, public_symbol(hat, d2), d2, 1.0)]
    for key, targets in rows.items():
        tb.delta[key] = tuple((q2, g2, d, complex(a)) for (q2, g2, d, a) in targets)

    spec = tb.build(npfa.initial)

    def script(x):
        course = Course(spec, x)
        horizon, width = course.t_max, course.width
        policy, values = npfa_policy(npfa, x, horizon)
        state = {(spec.initial, 0, BLANK, None): 1.0 + 0j}
        rounds: dict[int, dict[str, str]] = {}
        for r in range(1, horizon + 1):
            _acc, _rej, state, _mass = course.step(state, r)
            if not state:
                break
            rule: dict[str, str] = {}
            best_v = -1.0
            for (q, k, g, _tag) in sorted(state):
                if g == QUERY:
                    # branches can query simultaneously; answer the one whose
                    # accepting continuation is worth the most
                    choice = policy.get((q[:-1], k))
                    if choice is None:
                        continue
                    v = successor_value(values, k, choice, width)
                    if v > best_v:
                        best_v = v
                        rule[QUERY] = public_symbol(*choice)
                elif g != BLANK:
                    rule[g] = BLANK
            if rule:
                rounds[r] = rule
                state = {(q, k, rule.get(g, g), tag): a
                         for (q, k, g, tag), a in state.items()}
        return rounds

    honest = ScriptedProver(script_builder=script, name=f"{name}_choice_feeder")
    return QipSystem(name=name, verifier=spec, honest_prover=honest,
                     language=languages.npfa_language(npfa),
                     claimed_bounds=(1.0 - error_bound, 1.0 - error_bound))


# ---------------------------------------------------------------------------
# Union combinator
# ---------------------------------------------------------------------------

def union_protocol(s1: QipSystem, s2: QipSystem, name: str | None = None) -> QipSystem:
    """Recognize L1 ∪ L2: ask the prover which branch accepts, then run it.

    Sub-verifier states get 'a:'/'b:' prefixes so the two tables cannot
    interfere; a first-round reply other than u1/u2 rejects by omission.
    """
    if s1.verifier.input_alphabet != s2.verifier.input_alphabet:
        raise SpecError("union needs a common input alphabet")
    subs = [("a:", s1.verifier), ("b:", s2.verifier)]
    comm = [BLANK, "u1", "u2"]
    for _p, v in subs:
        comm += [g for g in v.comm_alphabet if g not in comm]
    if "u1" in s1.verifier.comm_alphabet or "u1" in s2.verifier.comm_alphabet:
        raise SpecError("symbol u1/u2 already used by a component")

    tb = TableBuilder(name or f"union[{s1.name},{s2.name}]", HeadModel.TWO_WAY,
                      s1.verifier.input_alphabet, tuple(comm))
    start = tb.state("u_start", "non", 0)
    wait = tb.state("u_wait", "non", 0)
    # merge the pre-completion cores; the union spec is completed as a whole
    for prefix, v in subs:
        dropped = set(v.completion_states)
        completion = v.completion_keys
        for q in v.non_halting:
            tb.state(prefix + q, "non")
        for q in v.accepting:
            tb.state(prefix + q, "acc")
        for q in v.rejecting:
            if q not in dropped:
                tb.state(prefix + q, "rej")
        for (q, sigma, g), targets in v.delta.items():
            if (q, sigma, g) in completion:
                continue
            tb.delta[(prefix + q, sigma, g)] = tuple(
                (prefix + q2, g2, d, amp) for (q2, g2, d, amp) in targets)

    tb.add(start, LEFT_END, BLANK, (wait, BLANK))
    tb.delta[(wait, LEFT_END, "u1")] = (("a:" + s1.verifier.initial, BLANK, 0, 1.0 + 0j),)
    tb.delta[(wait, LEFT_END, "u2")] = (("b:" + s2.verifier.initial, BLANK, 0, 1.0 + 0j),)

    spec = tb.build(start)
    lang1, lang2 = s1.language, s2.language

    class UnionHonest(ProverStrategy):
        @staticmethod
        def _first(x):
            return lang1(x) or not lang2(x)

        def apply(self, x, i, gamma, y):
            if i == 1:
                return [("u1" if self._first(x) else "u2", y + gamma, 1.0 + 0j)]
            if i == 2:
                return [(gamma, y, 1.0 + 0j)]
            inner = s1.honest_prover if self._first(x) else s2.honest_prover
            return inner.apply(x, i - 2, gamma, y)

        def idle(self, x, i):
            if i < 3:
                return i == 2
            inner = s1.honest_prover if self._first(x) else s2.honest_prover
            return inner.idle(x, i - 2)

        def describe(self):
            return {"kind": "union_honest", "parts": [s1.name, s2.name]}

    a1, b1 = s1.claimed_bounds
    a2, b2 = s2.claimed_bounds
    return QipSystem(name=tb.name, verifier=spec, honest_prover=UnionHonest(),
                     language=languages.union(lang1, lang2),
                     claimed_bounds=(min(a1, a2), min(b1, b2)))


# ---------------------------------------------------------------------------
# Registry for the command line and the sweep tooling
# ---------------------------------------------------------------------------

BUILTIN = {
    "zero_public": zero_public_protocol,
    "la_mo": la_mo_protocol,
    "odd": odd_protocol,
    "pal_sharp": lambda d=2: pal_sharp_protocol(d),
    "center": lambda N=2: center_protocol(N),
    "upal": lambda N=4: upal_protocol(N),
    "eraser_zero": lambda: eraser_protocol(zero_dfa(), "eraser_zero"),
    "eraser_end1": lambda: eraser_protocol(end_one_dfa(), "eraser_end1"),
    "rfa_even_a": lambda: rfa_public_protocol(even_a_rfa(), "rfa_even_a"),
    "rfa_all_a": lambda: rfa_public_protocol(all_a_rfa(), "rfa_all_a"),
    "npfa_single_a": lambda: npfa_to_qip(npfa_single_a(), "npfa_single_a"),
    "npfa_coin": lambda: npfa_to_qip(npfa_coin(), "npfa_coin", error_bound=0.5),
    "npfa_choice": lambda: npfa_to_qip(npfa_choice(), "npfa_choice"),
    "union_zero_end1": lambda: union_protocol(eraser_protocol(zero_dfa(), "eraser_zero"),
                                              eraser_protocol(end_one_dfa(), "eraser_end1"),
                                              name="union_zero_end1"),
}


def build_protocol(spec_string: str) -> QipSystem:
    """Instantiate a built-in by name, with inline name:key=value parameters:
    the integer keyword arguments of its `BUILTIN` constructor.  Raises
    ProtocolError for an unknown name, key or value."""
    name, _, params = spec_string.partition(":")
    if name not in BUILTIN:
        raise ProtocolError(f"unknown protocol {name!r}; known: {sorted(BUILTIN)}")
    build = BUILTIN[name]
    kwargs = {}
    if params:
        for part in params.split(","):
            k, _, v = (t.strip() for t in part.partition("="))
            if (k not in inspect.signature(build).parameters
                    or not v.removeprefix("-").isdecimal()):
                raise ProtocolError(f"{part.strip()!r} is not an integer parameter of {name!r}")
            kwargs[k] = int(v)
    return build(**kwargs)
