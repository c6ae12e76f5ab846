import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qipsim.languages as lang
from qipsim.automata import zero_dfa
from qipsim.qfa import AlphabetError


def test_examples():
    assert lang.zero("10")
    assert lang.pal_sharp("01#10")
    assert lang.upal("")
    assert not lang.zero("")
    assert lang.center("011")
    assert not lang.center("0110")
    assert lang.odd("010")
    assert not lang.odd("0100")
    assert not lang.odd("000")
    assert lang.la("a") and not lang.la("")


def test_alphabet_mismatch():
    with pytest.raises(AlphabetError):
        lang.zero("2")


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="01", max_size=10))
def test_zero_agrees_with_minimal_dfa(x):
    assert lang.zero(x) == zero_dfa().accepts(x)


@settings(max_examples=80, deadline=None)
@given(st.text(alphabet="01#", max_size=9))
def test_pal_sharp_brute_force(x):
    # oracle: try every bit-string prefix as the mirrored half
    expect = any(x == x[:i] + "#" + x[:i][::-1] and "#" not in x[:i]
                 for i in range(len(x) + 1))
    assert lang.pal_sharp(x) == expect


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_upal_blocks(m, n):
    assert lang.upal("0" * m + "1" * n) == (m == n)


def test_union_language():
    u = lang.union(lang.zero, lang.zero)
    assert u("00") and not u("01")


def test_npfa_language_predicate():
    from qipsim.automata import npfa_single_a
    pred = lang.npfa_language(npfa_single_a())
    assert pred("a") and not pred("") and not pred("aa")
