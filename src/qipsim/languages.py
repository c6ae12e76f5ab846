"""Membership predicates for the languages the built-in protocols target.

A language is a ``str -> bool`` predicate that tells whether a string is a
member; the named languages below raise ``AlphabetError`` on foreign symbols,
and `LANGUAGES` lists them by name with their alphabets.
"""
from __future__ import annotations

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
    # strip leaves nothing exactly when every symbol is in the alphabet
    if x.strip(alphabet):
        bad = [c for c in x if c not in alphabet]
        raise AlphabetError(f"symbols {bad} outside alphabet {alphabet!r}")


# name -> (predicate, alphabet) for every named language above
LANGUAGES = {"zero": (zero, ("0", "1")), "upal": (upal, ("0", "1")),
             "pal_sharp": (pal_sharp, ("0", "1", "#")),
             "center": (center, ("0", "1")), "odd": (odd, ("0", "1")),
             "la": (la, ("a",))}


def regular(dfa: Dfa):
    return dfa.accepts


def npfa_language(npfa: Npfa):
    """Strings the npfa accepts with probability above 1/2 within its horizon."""

    def pred(x: str) -> bool:
        horizon = 4 * (len(x) + 2) ** 2 + 8
        return npfa_value(npfa, x, horizon) > 0.5

    return pred


def union(a, b):
    return lambda x: a(x) or b(x)
