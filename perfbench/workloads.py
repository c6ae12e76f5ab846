"""The four benchmark workloads: build, engine, soundness, classical.

Each workload builds the systems it needs (`setup`), names one untimed
warm-up op, and lists the ops of one pass.  An op is one timed call into
qipsim plus a check of its result that runs outside the timing.  Every
program call goes through a module attribute (``qipsim.runtime.run``, not a
name imported here), so the traced run's wrappers see the benchmark's own
call sites too.  Inputs come from the seed only; see README.md for why each
workload exists.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_DEADLINE_S = 60.0
# upal:N=4 / "1" / steps 7: the search enumerates P(48, k) assignments per
# node, which node_cap does not bound, and does not finish within 200 s; at
# steps 6 the same search takes 6 ms.
STUCK_SEARCH_DEADLINE_S = 0.5

SUM_TOL = 1e-9      # p_acc + p_rej + p_cont = 1
EXACT_TOL = 1e-9    # completeness, replay, query-weight additivity
SOUND_TOL = 1e-9    # engine soundness
SEARCH_TOL = 1e-6   # classical-search soundness (criterion 3)
PAL_CHEAT_TOL = 1e-3  # criterion 2

# Ops that take milliseconds are timed this many times per pass, spread
# through it, so that their fastest time draws on samples from across the run
# rather than from 3 moments seconds apart (see README.md).
LIGHT_VISITS = 5


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the result is right
    deadline_s: float = DEFAULT_DEADLINE_S
    visits: int = 1  # times per pass; the harness keeps the fastest


def strings(alphabet, n_max):
    out = [""]
    for n in range(1, n_max + 1):
        out.extend("".join(t) for t in itertools.product(alphabet, repeat=n))
    return out


def _first_error(*checks):
    return next((msg for ok, msg in checks if not ok), None)


def check_run(system, res, x, honest: bool) -> str | None:
    """Conservation always; completeness for honest members; soundness otherwise."""
    a, b = system.claimed_bounds
    total = res.p_acc + res.p_rej + res.p_cont
    member = system.member(x)
    return _first_error(
        (abs(total - 1.0) <= SUM_TOL, f"mass {total!r} != 1"),
        (not (member and honest) or res.p_acc >= a - EXACT_TOL,
         f"member accepted with {res.p_acc!r} < {a}"),
        (member or res.p_acc <= 1 - b + SOUND_TOL,
         f"non-member accepted with {res.p_acc!r} > {1 - b}"))


# ---------------------------------------------------------------------------
# build: completion SVD and unitarity sampling
# ---------------------------------------------------------------------------

# Every built-in at its default parameters plus the larger instances.  The
# default "upal" is upal:N=4, which is listed once.
BUILD_SPECS = (
    "zero_public", "la_mo", "odd", "pal_sharp", "center", "eraser_zero",
    "eraser_end1", "rfa_even_a", "rfa_all_a", "npfa_single_a", "npfa_coin",
    "npfa_choice", "union_zero_end1", "upal:N=2", "upal:N=3", "upal:N=4",
    "pal_sharp:d=3", "pal_sharp:d=4", "center:N=4", "center:N=6")
BUILD_SPECS_SMALL = ("odd", "pal_sharp", "center")
# Builds that take milliseconds, timed LIGHT_VISITS times per pass; the
# others take from 0.2 s to seconds.
LIGHT_BUILDS = frozenset((
    "zero_public", "la_mo", "odd", "center", "eraser_zero", "eraser_end1",
    "rfa_even_a", "rfa_all_a", "npfa_single_a", "npfa_coin", "npfa_choice",
    "union_zero_end1"))
UNSAMPLED_LENGTHS = (5, 6)  # build_protocol samples lengths 0..4


class Build:
    name = "build"

    def setup(self, qipsim, seed, small):
        return {"qipsim": qipsim}

    def warmup(self, state, seed):
        return self._op(state["qipsim"], "center", seed)

    def ops(self, state, seed, small):
        rng = random.Random(seed)
        specs = list(BUILD_SPECS_SMALL if small else BUILD_SPECS)
        rng.shuffle(specs)
        return [self._op(state["qipsim"], s, rng.randrange(2**32)) for s in specs]

    def _op(self, qipsim, spec, seed):
        def check(system):
            rng = random.Random(seed)
            v = system.verifier
            words = strings(v.input_alphabet, 4)
            # npfa_coin's language is empty: its honest run is checked for soundness
            x = rng.choice([w for w in words if system.member(w)] or words)
            res = qipsim.runtime.run(system, system.honest_prover, x)
            n = rng.choice(UNSAMPLED_LENGTHS)
            y = "".join(rng.choice(v.input_alphabet) for _ in range(n))
            step = qipsim.qfa.build_step_operator(v, y, sparse=True)
            err = check_run(system, res, x, honest=True)
            return _first_error(
                (err is None, f"honest run on {x!r}: {err}"),
                (qipsim.qfa.check_unitary(step, EXACT_TOL),
                 f"step operator on {y!r} is not unitary"))

        return Op(f"build {spec}", lambda: qipsim.protocols.build_protocol(spec),
                  check, visits=LIGHT_VISITS if spec in LIGHT_BUILDS else 1)


# ---------------------------------------------------------------------------
# engine: long runs with sparse provers
# ---------------------------------------------------------------------------

def _bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


def _flip(s, i):
    return s[:i] + ("1" if s[i] == "0" else "0") + s[i + 1:]


ENGINE_DRAWS = 2  # seed-drawn inputs per length class


class Engine:
    name = "engine"

    def setup(self, qipsim, seed, small):
        build = qipsim.protocols.build_protocol
        return {"qipsim": qipsim,
                "center": build("center:N=4"), "upal": build("upal:N=4"),
                "pal": build("pal_sharp:d=2"), "odd": build("odd")}

    def warmup(self, state, seed):
        system = state["center"]
        return self._run(state["qipsim"], system, system.honest_prover,
                         "0" * 10 + "1" + "0" * 10, True)

    def ops(self, state, seed, small):
        qipsim = state["qipsim"]
        rng = random.Random(seed)
        words = []  # (system, input)
        center = state["center"]
        draws = 1 if small else ENGINE_DRAWS
        for n in (range(21, 24, 2) if small else range(21, 42, 2)):
            for mid in "10" * draws:
                words.append((center, _bits(rng, n // 2) + mid + _bits(rng, n // 2)))
        upal = state["upal"]
        for n in (range(1, 3) if small else range(1, 21)):
            words.append((upal, "0" * n + "1" * n))
            for d in range(draws):
                m = n + rng.choice((-1, 1))
                words.append((upal, rng.choice(("0" * n + "1" * m, "0" * m + "1" * n))))
                # a flip rejects about where it sits, so each draw flips in
                # its own share of the word to keep the per-pass cost even
                lo, hi = 2 * n * d // draws, 2 * n * (d + 1) // draws
                words.append((upal, _flip("0" * n + "1" * n, rng.randrange(lo, hi))))
        pal = state["pal"]
        for n in (range(1, 3) if small else range(1, 11)):
            for _ in range(draws):
                y = _bits(rng, n)
                words += [(pal, y + "#" + y[::-1]),
                          (pal, y + "#" + _flip(y, rng.randrange(n))[::-1])]
        ops = []
        for system, x in words:
            ops.append(self._run(qipsim, system, system.honest_prover, x, True))
            ops.append(self._run(qipsim, system, qipsim.provers.IdentityProver(), x, False))
        odd = state["odd"]
        for _ in range(draws * 5):
            w = _bits(rng, rng.randrange(4, 9))
            for prover in (odd.honest_prover, qipsim.provers.IdentityProver()):
                ops.append(self._interactions(qipsim, odd, prover, w))
            ops.append(self._query_weight(qipsim, odd.verifier, w, rng.randrange(len(w) + 1)))
        return ops

    @staticmethod
    def _run(qipsim, system, prover, x, honest):
        kind = "honest" if honest else "identity"
        return Op(f"run {system.name} {kind} {x}",
                  lambda: qipsim.runtime.run(system, prover, x),
                  lambda res: check_run(system, res, x, honest))

    @staticmethod
    def _interactions(qipsim, system, prover, x):
        return Op(f"count_interactions {system.name} {type(prover).__name__} {x}",
                  lambda: qipsim.runtime.count_interactions(system, prover, x),
                  lambda count: None if count <= 1 else f"{count} interactions > 1")

    @staticmethod
    def _query_weight(qipsim, spec, w, cut):
        x, y = w[:cut], w[cut:]

        def call():
            qw = qipsim.runtime.query_weight
            return qw(spec, "", x), qw(spec, x, y), qw(spec, "", w)

        def check(weights):
            head, tail, whole = weights
            gap = abs(head + tail - whole)
            return None if gap <= EXACT_TOL else f"query weight not additive by {gap!r}"

        return Op(f"query_weight odd {x}|{y}", call, check)


# ---------------------------------------------------------------------------
# soundness: criterion-2 traffic, classical then quantum search
# ---------------------------------------------------------------------------

# (|y|, |z|) of the non-members y#z^R in one pass; the seed draws the bits
# of SOUND_DRAWS inputs per shape.
SOUND_SHAPES = ((1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4))
SOUND_SHAPES_SMALL = ((1, 0), (1, 1))
SOUND_DRAWS = 5
SOUND_RESTARTS = 3
SOUND_ITERATIONS = 15


class Soundness:
    name = "soundness"

    def setup(self, qipsim, seed, small):
        return {"qipsim": qipsim, "pal": qipsim.protocols.build_protocol("pal_sharp:d=2")}

    def warmup(self, state, seed):
        return self._op(state, "0#1", seed)

    def ops(self, state, seed, small):
        rng = random.Random(seed)
        ops = []
        for ny, nz in (SOUND_SHAPES_SMALL if small else SOUND_SHAPES * SOUND_DRAWS):
            y = z = ""
            while y == z:
                y, z = _bits(rng, ny), _bits(rng, nz)
            ops.append(self._op(state, y + "#" + z[::-1], rng.randrange(2**32)))
        return ops

    @staticmethod
    def _op(state, x, seed):
        qipsim, system = state["qipsim"], state["pal"]
        adversary = qipsim.adversary
        budget = adversary.AdversaryBudget(
            memory_states=2, steps=2 * (len(x) + 2), restarts=SOUND_RESTARTS,
            iterations=SOUND_ITERATIONS, seed=seed)

        def call():
            classical = adversary.best_classical_prover(system, x, budget)
            quantum = adversary.search_quantum_prover(
                system, x, c=1, budget=budget, classical_seed=classical)
            return (classical, quantum, adversary.replay(system, x, classical),
                    adversary.replay(system, x, quantum))

        def check(out):
            classical, quantum, replay_c, replay_q = out
            cheat = 1 - system.claimed_bounds[1]
            return _first_error(
                (not system.member(x), f"{x!r} is a member"),
                (classical.is_exhaustive, "classical search not exhaustive"),
                (max(classical.best_p_acc, quantum.best_p_acc) <= cheat + PAL_CHEAT_TOL,
                 f"cheat {max(classical.best_p_acc, quantum.best_p_acc)!r} > {cheat}"),
                (quantum.best_p_acc >= classical.best_p_acc,
                 "quantum result below classical"),
                (abs(replay_c - classical.best_p_acc) <= EXACT_TOL,
                 "classical replay differs"),
                (abs(replay_q - quantum.best_p_acc) <= EXACT_TOL,
                 "quantum replay differs"))

        return Op(f"soundness {x}", call, check)


# ---------------------------------------------------------------------------
# classical: exhaustive table search, skewed cost
# ---------------------------------------------------------------------------

CLASSICAL_CASES = (("upal:N=2", 4, 9), ("upal:N=3", 4, 8))  # spec, max |x|, steps
CLASSICAL_CASES_SMALL = (("upal:N=2", 2, 9), ("upal:N=3", 0, 8))
CENTER_STEPS = 60
# The search that takes seconds; it and the deadline-bound search are timed
# once per pass, the millisecond ones LIGHT_VISITS times.
HEAVY = ("upal:N=3", "1")


class Classical:
    name = "classical"

    def setup(self, qipsim, seed, small):
        build = qipsim.protocols.build_protocol
        state = {"qipsim": qipsim}
        for spec in ("upal:N=2", "upal:N=3", "upal:N=4", "center:N=2"):
            state[spec] = build(spec)
        return state

    def warmup(self, state, seed):
        return self._op(state, "upal:N=2", "", 9)

    def ops(self, state, seed, small):
        ops = []
        for spec, n_max, steps in (CLASSICAL_CASES_SMALL if small else CLASSICAL_CASES):
            ops += [self._op(state, spec, x, steps,
                             visits=1 if (spec, x) == HEAVY else LIGHT_VISITS)
                    for x in strings("01", n_max)]
        center = state["center:N=2"]
        ops += [self._op(state, "center:N=2", x, CENTER_STEPS, visits=LIGHT_VISITS)
                for x in strings("01", 3 if small else 5)
                if len(x) % 2 == 1 and not center.member(x)]
        ops.append(self._op(state, "upal:N=4", "1", 7, STUCK_SEARCH_DEADLINE_S))
        random.Random(seed).shuffle(ops)
        return ops

    @staticmethod
    def _op(state, spec, x, steps, deadline_s=DEFAULT_DEADLINE_S, visits=1):
        adversary = state["qipsim"].adversary
        system = state[spec]
        budget = adversary.AdversaryBudget(memory_states=2, steps=steps)

        def call():
            report = adversary.best_classical_prover(system, x, budget)
            return report, adversary.replay(system, x, report)

        def check(out):
            report, replayed = out
            cheat = 1 - system.claimed_bounds[1]
            return _first_error(
                (report.is_exhaustive, "search not exhaustive"),
                (system.member(x) or report.best_p_acc <= cheat + SEARCH_TOL,
                 f"non-member accepted with {report.best_p_acc!r} > {cheat}"),
                (abs(replayed - report.best_p_acc) <= EXACT_TOL, "replay differs"))

        return Op(f"classical {spec} steps={steps} {x!r}", call, check, deadline_s, visits)


WORKLOADS = {w.name: w for w in (Build(), Engine(), Soundness(), Classical())}
