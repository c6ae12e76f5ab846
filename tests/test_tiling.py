import functools
import itertools
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import qipsim
import qipsim.languages as lang
import qipsim.tiling as tiling
from qipsim.automata import universal_dfa, zero_star_dfa
from qipsim.languages import LANGUAGES, regular
from qipsim.linalg import DomainError
from qipsim.tiling import (SizeError, TilingInstance, _dual_bound, all_strings,
                           maximal_tiles, tiling_bound, tiling_complexity,
                           verify_tiling)


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


def _row_masks(matrix):
    return [sum(1 << c for c, v in enumerate(row) if v) for row in matrix]


@pytest.mark.parametrize("name", sorted(LANGUAGES))
def test_maximal_tiles_are_the_maximal_all_ones_rectangles(name):
    language, alphabet = LANGUAGES[name]
    for n in range(3 if len(alphabet) > 2 else 4):
        matrix = TilingInstance.build(language, n, alphabet).matrix
        masks, tiles = _row_masks(matrix), maximal_tiles(matrix)
        assert len(set(tiles)) == len(tiles), (name, n)
        for rows, cols in tiles:
            inside = [m for r, m in enumerate(masks) if rows >> r & 1]
            common = functools.reduce(operator.and_, inside)
            # all ones, and no column or row outside it can join it
            assert common == cols, (name, n)
            assert all(m & cols != cols for r, m in enumerate(masks) if not rows >> r & 1)
        # every all-ones rectangle (R, C) lies in the one whose columns are all
        # those common to R; shared[R] is built up over the row subsets R
        shared = [0] * (1 << len(masks))
        shared[0] = (1 << len(matrix[0])) - 1
        for subset in range(1, 1 << len(masks)):
            low = subset & -subset
            shared[subset] = shared[subset ^ low] & masks[low.bit_length() - 1]
            if shared[subset]:
                assert any(subset & rows == subset and shared[subset] & cols == shared[subset]
                           for rows, cols in tiles), (name, n, subset)


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
        TilingInstance.build(lang.zero, 11)


def test_size_cap_refuses_before_listing_the_strings(monkeypatch):
    def listed(alphabet, n):
        raise AssertionError(f"listed the strings up to length {n}")

    monkeypatch.setattr(tiling, "all_strings", listed)
    with pytest.raises(SizeError, match=r"^67108863\^2 matrix entries exceed the cap$"):
        TilingInstance.build(lang.zero, 25)
    with pytest.raises(SizeError, match=r"^2049\^2 matrix entries exceed the cap$"):
        TilingInstance.build(lambda w: True, 2048, alphabet=("a",))
    with pytest.raises(DomainError, match="^string length must be at least 0, got -1$"):
        TilingInstance.build(lang.zero, -1)


def test_all_strings_refuses_a_length_that_is_not_a_count():
    with pytest.raises(DomainError, match="^string length must be at least 0, got -1$"):
        all_strings(("0",), -1)
    with pytest.raises(DomainError, match="^string length must be an integer, got 1.5$"):
        all_strings(("0",), 1.5)


def test_all_strings_in_product_order():
    for alphabet, n in ((("0", "1"), 3), (("0", "1", "#"), 2), (("a",), 4), (("0",), 0)):
        assert all_strings(alphabet, n) == [
            "".join(t) for length in range(n + 1)
            for t in itertools.product(alphabet, repeat=length)]


@pytest.mark.parametrize("name, n", [("pal_sharp", 2), ("upal", 3), ("la", 3), ("center", 0)])
def test_matrix_asks_the_predicate_once_per_word(name, n):
    predicate, alphabet = LANGUAGES[name]
    calls = []

    def counted(w):
        calls.append(w)
        return predicate(w)

    inst = TilingInstance.build(counted, n, alphabet)
    strings = all_strings(alphabet, n)
    assert inst.index == strings
    assert inst.matrix == [[1 if predicate(x + y) else 0 for y in strings] for x in strings]
    assert sorted(calls) == sorted({x + y for x in strings for y in strings})


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2))
def test_complexity_monotone_for_zero(n):
    assert tiling_complexity(lang.zero, n) <= tiling_complexity(lang.zero, n + 1)


# -- the reference search ----------------------------------------------------
# The greedy pass plus iterative-deepening DFS that solved the cover before
# HiGHS did, kept as the reference for the solver's sizes: a size k is
# minimal here because every cover of size k - 1 was exhausted.

def ref_cover_cells(tiles, nrows, ncols):
    covers = []
    for rows, cols in tiles:
        mask = 0
        for r in range(nrows):
            if rows >> r & 1:
                mask |= cols << (r * ncols)
        covers.append(mask)
    return covers


def ref_exact_cover_size(universe, covers):
    if universe == 0:
        return 0, ()
    greedy_pick = []
    remaining = universe
    while remaining:
        best = max(range(len(covers)), key=lambda i: (covers[i] & remaining).bit_count())
        assert covers[best] & remaining, "1-entries not coverable"
        greedy_pick.append(best)
        remaining &= ~covers[best]
    upper = len(greedy_pick)
    max_tile = max(c.bit_count() for c in covers)
    lower = (universe.bit_count() + max_tile - 1) // max_tile

    def dfs(remaining, chosen, budget):
        if remaining == 0:
            return tuple(chosen)
        if budget == 0:
            return None
        cell = (remaining & -remaining).bit_length() - 1
        for i, cov in enumerate(covers):
            if cov >> cell & 1:
                found = dfs(remaining & ~cov, chosen + [i], budget - 1)
                if found is not None:
                    return found
        return None

    for k in range(lower, upper):
        found = dfs(universe, [], k)
        if found is not None:
            return k, found
    return upper, tuple(greedy_pick)


def ref_tiling_size(lid, n):
    inst = TilingInstance.build(lid, n)
    nrows = len(inst.index)
    universe = 0
    for r in range(nrows):
        for c in range(nrows):
            if inst.matrix[r][c]:
                universe |= 1 << (r * nrows + c)
    if universe == 0:
        return 0
    covers = ref_cover_cells(maximal_tiles(inst.matrix), nrows, nrows)
    return ref_exact_cover_size(universe, covers)[0]


def relaxation_value(lid, n):
    """The optimum of the cover LP over the maximal tiles, in floating point."""
    inst = TilingInstance.build(lid, n)
    nrows = len(inst.index)
    cells = [r * nrows + c for r in range(nrows) for c in range(nrows)
             if inst.matrix[r][c]]
    covers = ref_cover_cells(maximal_tiles(inst.matrix), nrows, nrows)
    a = np.array([[cov >> cell & 1 for cov in covers] for cell in cells])
    return scipy.optimize.linprog(np.ones(len(covers)), A_ub=-a,
                                  b_ub=-np.ones(len(cells))).fun


# 18 words whose n = 2 matrix needs 6 tiles while the LP relaxation is 5
GAP_LANGUAGE = frozenset({"", "0", "1", "00", "10", "11", "000", "001", "010",
                          "011", "100", "101", "0000", "0001", "0100", "0111",
                          "1001", "1010"})


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(all_strings(("0", "1"), 4))), st.sampled_from([1, 2]))
def test_random_languages_match_the_reference_search(members, n):
    lid = members.__contains__
    expected = ref_tiling_size(lid, n)
    try:
        size, tiling = tiling_complexity(lid, n, return_tiling=True)
    except RuntimeError:
        # refused only where the relaxation lies a whole tile below the
        # optimum, so that no dual vector can prove the cover minimal
        assert relaxation_value(lid, n) <= expected - 1 + 1e-9
        return
    assert size == expected
    assert len(tiling.tiles) == size
    assert verify_tiling(TilingInstance.build(lid, n), tiling)


def test_an_integrality_gap_is_refused():
    lid = GAP_LANGUAGE.__contains__
    assert ref_tiling_size(lid, 2) == 6
    assert relaxation_value(lid, 2) == pytest.approx(5)
    with pytest.raises(RuntimeError, match="dual bound 5 does not prove 6 tiles minimal"):
        tiling_complexity(lid, 2)


@pytest.mark.parametrize("name, n, value", [("center", 6, 12), ("pal_sharp", 5, 62)])
def test_values_past_the_reference_search(name, n, value):
    lid, alphabet = LANGUAGES[name]
    size, tiling = tiling_complexity(lid, n, alphabet=alphabet, return_tiling=True)
    assert size == value
    assert verify_tiling(TilingInstance.build(lid, n, alphabet), tiling)


def test_dual_bound_clips_negative_weights():
    # one row of three 1-entries and two tiles that overlap in the middle:
    # every cover needs both, and y = (2, -1, 2) sums to 3 over the cells but
    # to 1 over each tile; only the clipped (2, 0, 2), scaled by 1/2, is a dual
    cells = [(0, 0), (0, 1), (0, 2)]
    tiles = [(0b1, 0b011), (0b1, 0b110)]
    assert _dual_bound(cells, tiles, [2.0, -1.0, 2.0]) == 2
    assert _dual_bound(cells, tiles, [0.5, 0.5, 0.5]) == Fraction(3, 2)


def _raise_one_entry(res, k):
    res.x[0] += k  # the entry's tile now sums to at least k before scaling


def _shrink_to_k_minus_1(res, k):
    res.x *= (k - 1) / k


def _drop_one_tile(res, k):
    res.x[res.x.argmax()] = 0


@pytest.mark.parametrize("solver, tamper, message", [
    ("linprog", _raise_one_entry, "dual bound"),
    ("linprog", _shrink_to_k_minus_1, "dual bound"),
    ("milp", _drop_one_tile, "not a cover"),
])
def test_tampered_solver_output_is_refused(monkeypatch, solver, tamper, message):
    lid, alphabet = LANGUAGES["center"]
    k = tiling_complexity(lid, 3, alphabet=alphabet)
    assert k == 6
    real = getattr(scipy.optimize, solver)

    def tampered(*args, **kwargs):
        res = real(*args, **kwargs)
        tamper(res, k)
        return res

    monkeypatch.setattr(scipy.optimize, solver, tampered)
    with pytest.raises(RuntimeError, match=message):
        tiling_complexity(lid, 3, alphabet=alphabet)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize would add its import time and memory to every command
    code = "import qipsim, sys; sys.exit('scipy.optimize' in sys.modules)"
    src = str(Path(qipsim.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0
