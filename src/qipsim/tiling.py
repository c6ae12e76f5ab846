"""1-tiling complexity: exact brute force at desk scale, plus the size bound.

The membership matrix M(n) over strings of length <= n has entry (x, y) = 1
iff xy is in the language.  A 1-tile is an all-ones submatrix given by a row
set and a column set; the 1-tiling complexity is the minimum number of
1-tiles covering all 1-entries.  Candidates are the maximal all-ones
rectangles (closed row/column pairs); the cover is solved exactly by
branch-and-bound set cover with iterative deepening, so minimality at size k
is certified by having exhausted covers of size k-1.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .linalg import DomainError


class SizeError(ValueError):
    pass


@dataclass(frozen=True)
class Tiling:
    tiles: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]  # (rows, cols)


@dataclass
class TilingInstance:
    n: int
    index: list[str]
    matrix: list[list[int]]

    @classmethod
    def build(cls, lang, n: int, alphabet=("0", "1"), cap: int = 1 << 22):
        strings = all_strings(alphabet, n)
        if len(strings) ** 2 > cap:
            raise SizeError(f"{len(strings)}^2 matrix entries exceed the cap")
        matrix = [[1 if lang(x + y) else 0 for y in strings]
                  for x in strings]
        return cls(n=n, index=strings, matrix=matrix)


def all_strings(alphabet, n: int) -> list[str]:
    out = [""]
    for length in range(1, n + 1):
        out.extend("".join(t) for t in itertools.product(alphabet, repeat=length))
    return out


def maximal_tiles(matrix) -> list[tuple[int, int]]:
    """Maximal all-ones rectangles as (row bitmask, column bitmask) pairs.

    Computed as the closure of row-subset intersections: start from single
    rows' 1-column sets, intersect pairwise to a fixpoint, then take for each
    closed column set the full set of rows covering it.  Distinct row
    patterns are few for the structured languages this runs on.
    """
    nrows = len(matrix)
    row_masks = []
    for r in range(nrows):
        mask = 0
        for c, v in enumerate(matrix[r]):
            if v:
                mask |= 1 << c
        row_masks.append(mask)
    col_sets = {m for m in row_masks if m}
    frontier = set(col_sets)
    while frontier:
        nxt = set()
        for a in frontier:
            for b in row_masks:
                ab = a & b
                if ab and ab not in col_sets:
                    col_sets.add(ab)
                    nxt.add(ab)
        frontier = nxt
    tiles = []
    for cols in col_sets:
        rows = 0
        for r, rm in enumerate(row_masks):
            if rm & cols == cols:
                rows |= 1 << r
        tiles.append((rows, cols))
    # drop non-maximal rectangles (both masks dominated by another tile)
    tiles.sort(key=lambda t: -(t[0].bit_count() * t[1].bit_count()))
    kept: list[tuple[int, int]] = []
    for rows, cols in tiles:
        if not any(rows & kr == rows and cols & kc == cols for kr, kc in kept):
            kept.append((rows, cols))
    return kept


def _cover_cells(tiles, nrows, ncols):
    covers = []
    for rows, cols in tiles:
        mask = 0
        for r in range(nrows):
            if rows >> r & 1:
                mask |= cols << (r * ncols)
        covers.append(mask)
    return covers


def _exact_cover_size(universe: int, covers: list[int]) -> tuple[int, tuple[int, ...]]:
    """Minimum number of covers whose union contains the universe."""
    if universe == 0:
        return 0, ()
    greedy_pick: list[int] = []
    remaining = universe
    while remaining:
        best = max(range(len(covers)), key=lambda i: (covers[i] & remaining).bit_count())
        if not covers[i_best := best] & remaining:
            raise SizeError("1-entries not coverable by the candidate tiles")
        greedy_pick.append(i_best)
        remaining &= ~covers[i_best]
    upper = len(greedy_pick)
    max_tile = max(c.bit_count() for c in covers)
    lower = (universe.bit_count() + max_tile - 1) // max_tile

    def dfs(remaining: int, chosen: list[int], budget: int) -> tuple[int, ...] | None:
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


def tiling_complexity(lang, n: int, alphabet=("0", "1"),
                      return_tiling: bool = False):
    """Exact minimal 1-tiling size of the membership matrix at length n."""
    inst = TilingInstance.build(lang, n, alphabet)
    nrows = len(inst.index)
    universe = 0
    for r in range(nrows):
        for c in range(nrows):
            if inst.matrix[r][c]:
                universe |= 1 << (r * nrows + c)
    if universe == 0:
        return (0, Tiling(tiles=())) if return_tiling else 0
    tiles = maximal_tiles(inst.matrix)
    covers = _cover_cells(tiles, nrows, nrows)
    size, picked = _exact_cover_size(universe, covers)
    if not return_tiling:
        return size
    chosen = []
    for i in picked:
        rows, cols = tiles[i]
        chosen.append((tuple(r for r in range(nrows) if rows >> r & 1),
                       tuple(c for c in range(nrows) if cols >> c & 1)))
    return size, Tiling(tiles=tuple(chosen))


def verify_tiling(inst: TilingInstance, tiling: Tiling) -> bool:
    """Every tile all-ones and every 1-entry covered."""
    covered = set()
    for rows, cols in tiling.tiles:
        for r in rows:
            for c in cols:
                if not inst.matrix[r][c]:
                    return False
                covered.add((r, c))
    for r, row in enumerate(inst.matrix):
        for c, v in enumerate(row):
            if v and (r, c) not in covered:
                return False
    return True


def tiling_bound(q: int, g: int, dlt: int, c: int, eps) -> int:
    """Size bound 4^d * ceil(2*sqrt(2)*(1+2*d^2)/(1-2*eps))^(2d+1), d = q*g*dlt^c.

    Exact integer arithmetic: the ceiling of the irrational quotient is found
    by integer square-root comparison, so boundary values are not at the
    mercy of floating point.
    """
    from fractions import Fraction

    if not (0 <= eps < 0.5):
        raise DomainError(f"eps must lie in [0, 1/2), got {eps}")
    if min(q, g, dlt, c) < 1:
        raise DomainError("all counts must be >= 1")
    d = q * g * dlt ** c
    frac = Fraction(1 + 2 * d * d) / (1 - 2 * Fraction(eps))
    p, qden = frac.numerator, frac.denominator
    # smallest m with m >= 2*sqrt(2)*p/q  <=>  m^2*q^2 >= 8*p^2
    m = math.isqrt(8 * p * p // (qden * qden))
    while m * m * qden * qden < 8 * p * p:
        m += 1
    return 4 ** d * m ** (2 * d + 1)
