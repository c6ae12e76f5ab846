import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qipsim.languages as lang
from qipsim.automata import universal_dfa, zero_star_dfa
from qipsim.languages import regular
from qipsim.linalg import DomainError
from qipsim.tiling import (SizeError, TilingInstance, tiling_bound,
                           tiling_complexity, verify_tiling)


def test_empty_language():
    assert tiling_complexity(lambda x: False, 2) == 0


def test_universal_language_single_tile():
    assert tiling_complexity(regular(universal_dfa()), 1) == 1


def test_la_needs_two_tiles():
    assert tiling_complexity(lang.la, 1, alphabet=("a",)) == 2


def test_la_constant_over_lengths():
    values = [tiling_complexity(lang.la, n, alphabet=("a",)) for n in (1, 2, 3)]
    assert values == [2, 2, 2]


def test_zero_star_constant_including_empty_corner():
    values = [tiling_complexity(regular(zero_star_dfa()), n) for n in range(4)]
    assert values == [1, 1, 1, 1]


def test_regular_monotone_and_bounded():
    for lid in (lang.zero, regular(zero_star_dfa())):
        values = [tiling_complexity(lid, n) for n in range(4)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert max(values) <= 4


def test_returned_tiling_is_verified_cover():
    for n in (1, 2):
        size, tiling = tiling_complexity(lang.zero, n, return_tiling=True)
        inst = TilingInstance.build(lang.zero, n)
        assert verify_tiling(inst, tiling)
        assert len(tiling.tiles) == size


def test_minimality_certificate():
    # ZERO at n=1 has cover size 2; no single maximal tile covers all 1s
    size, tiling = tiling_complexity(lang.zero, 1, return_tiling=True)
    assert size == 2
    inst = TilingInstance.build(lang.zero, 1)
    ones = {(r, c) for r, row in enumerate(inst.matrix)
            for c, v in enumerate(row) if v}
    from qipsim.tiling import maximal_tiles
    for rows, cols in maximal_tiles(inst.matrix):
        cells = {(r, c) for r in range(len(inst.matrix)) if rows >> r & 1
                 for c in range(len(inst.matrix)) if cols >> c & 1}
        assert cells != ones  # size 1 is impossible


def test_bound_hand_values():
    assert tiling_bound(1, 1, 1, 1, 0) == 2916
    assert tiling_bound(1, 1, 1, 1, 0.25) == 19652


def test_bound_monotone_in_eps():
    values = [tiling_bound(1, 1, 1, 1, e) for e in (0.0, 0.1, 0.25, 0.4, 0.49)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_bound_domain_errors():
    with pytest.raises(DomainError):
        tiling_bound(1, 1, 1, 1, 0.5)
    with pytest.raises(DomainError):
        tiling_bound(0, 1, 1, 1, 0.0)


def test_size_cap():
    with pytest.raises(SizeError):
        TilingInstance.build(lang.zero, 4, cap=100)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2))
def test_complexity_monotone_for_zero(n):
    assert tiling_complexity(lang.zero, n) <= tiling_complexity(lang.zero, n + 1)
