"""Membership predicates for the languages the built-in protocols target."""
from __future__ import annotations

from dataclasses import dataclass

from .automata import Dfa, Npfa, npfa_value
from .qfa import AlphabetError


def zero(x: str) -> bool:
    """Strings over {0,1} ending in 0."""
    _check(x, "01")
    return x.endswith("0")


def upal(x: str) -> bool:
    """0^n 1^n for n >= 0."""
    _check(x, "01")
    n = len(x) // 2
    return len(x) % 2 == 0 and x == "0" * n + "1" * n


def pal_sharp(x: str) -> bool:
    """y#y^R over {0,1,#}."""
    _check(x, "01#")
    if x.count("#") != 1:
        return False
    y, z = x.split("#")
    return z == y[::-1]


def center(x: str) -> bool:
    """Odd-length strings over {0,1} whose middle symbol is 1."""
    _check(x, "01")
    return len(x) % 2 == 1 and x[len(x) // 2] == "1"


def odd(x: str) -> bool:
    """0^m 1 z with z containing an odd number of 0s."""
    _check(x, "01")
    if "1" not in x:
        return False
    z = x[x.index("1") + 1:]
    return z.count("0") % 2 == 1


def la(x: str) -> bool:
    """Nonempty strings over {a}."""
    _check(x, "a")
    return len(x) >= 1


def _check(x: str, alphabet: str) -> None:
    bad = [c for c in x if c not in alphabet]
    if bad:
        raise AlphabetError(f"symbols {bad} outside alphabet {alphabet!r}")


@dataclass(frozen=True)
class LanguageId:
    """Tagged language reference; parameterized variants carry their automaton."""

    kind: str
    automaton: object = None
    parts: tuple = ()

    def predicate(self):
        return _PREDICATES[self.kind](self)


def _regular_pred(lid: LanguageId):
    dfa: Dfa = lid.automaton
    return dfa.accepts


def _npfa_pred(lid: LanguageId):
    npfa: Npfa = lid.automaton

    def pred(x: str) -> bool:
        horizon = 4 * (len(x) + 2) ** 2 + 8
        return npfa_value(npfa, x, horizon) > 0.5

    return pred


def _union_pred(lid: LanguageId):
    a, b = lid.parts
    pa, pb = a.predicate(), b.predicate()
    return lambda x: pa(x) or pb(x)


_PREDICATES = {
    "ZERO": lambda _l: zero,
    "UPAL": lambda _l: upal,
    "PAL_SHARP": lambda _l: pal_sharp,
    "CENTER": lambda _l: center,
    "ODD": lambda _l: odd,
    "LA": lambda _l: la,
    "REGULAR": _regular_pred,
    "NPFA": _npfa_pred,
    "UNION": _union_pred,
}


def membership(lang, x: str) -> bool:
    """Exact membership for a LanguageId or a bare predicate."""
    if isinstance(lang, LanguageId):
        return bool(lang.predicate()(x))
    return bool(lang(x))


ZERO = LanguageId("ZERO")
UPAL = LanguageId("UPAL")
PAL_SHARP = LanguageId("PAL_SHARP")
CENTER = LanguageId("CENTER")
ODD = LanguageId("ODD")
LA = LanguageId("LA")


def regular(dfa: Dfa) -> LanguageId:
    return LanguageId("REGULAR", automaton=dfa)


def npfa_language(npfa: Npfa) -> LanguageId:
    return LanguageId("NPFA", automaton=npfa)


def union(a: LanguageId, b: LanguageId) -> LanguageId:
    return LanguageId("UNION", parts=(a, b))
