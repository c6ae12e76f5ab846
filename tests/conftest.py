import itertools

import numpy as np
import pytest

import qipsim as q


# Every built-in at its default parameters plus the larger instances.
BUILT_INS = (
    "zero_public", "la_mo", "odd", "pal_sharp", "center", "eraser_zero",
    "eraser_end1", "rfa_even_a", "rfa_all_a", "npfa_single_a", "npfa_coin",
    "npfa_choice", "union_zero_end1", "upal:N=2", "upal:N=3", "upal:N=4",
    "pal_sharp:d=3", "pal_sharp:d=4", "center:N=4", "center:N=6")


def strings(alphabet, n_max):
    out = [""]
    for n in range(1, n_max + 1):
        out.extend("".join(t) for t in itertools.product(alphabet, repeat=n))
    return out


def sample_inputs(alphabet, n, cap):
    """Every input of length n when there are at most ``cap`` of them, else a
    deterministic sample of ``cap``: the uniform strings, every 3-window of
    adjacent symbols repeated, then seeded random strings."""
    if n == 0:
        yield ""
        return
    if len(alphabet) ** n <= cap:
        for tup in itertools.product(alphabet, repeat=n):
            yield "".join(tup)
        return
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


@pytest.fixture(scope="session")
def zero_public():
    return q.zero_public_protocol()


@pytest.fixture(scope="session")
def la_mo():
    return q.la_mo_protocol()


@pytest.fixture(scope="session")
def odd():
    return q.odd_protocol()


@pytest.fixture(scope="session")
def pal1():
    return q.pal_sharp_protocol(1)


@pytest.fixture(scope="session")
def pal2():
    return q.pal_sharp_protocol(2)


@pytest.fixture(scope="session")
def center2():
    return q.center_protocol(2)


@pytest.fixture(scope="session")
def upal4():
    return q.upal_protocol(4)


@pytest.fixture(scope="session")
def eraser_zero():
    from qipsim.automata import zero_dfa
    return q.eraser_protocol(zero_dfa(), "eraser_zero")
