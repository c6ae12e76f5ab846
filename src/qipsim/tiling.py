"""1-tiling complexity: exact minimal covers, certified, plus the size bound.

The membership matrix M(n) over strings of length <= n has entry (x, y) = 1
iff xy is in the language.  A 1-tile is an all-ones submatrix given by a row
set and a column set; the 1-tiling complexity is the minimum number of
1-tiles covering all 1-entries.  Candidates are the maximal all-ones
rectangles.  HiGHS solves the cover as a MILP (minimise sum x subject to
A x >= 1, x binary; one row of A per 1-entry, one column per maximal tile).
A dual vector of its LP relaxation (maximise sum y subject to A^T y <= 1,
y >= 0), checked in exact rationals, proves the cover minimal (cover/LP
duality: Lovasz, Discrete Math. 13, 1975).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import DomainError, checked_count


# A membership matrix with more entries than this is refused.
MATRIX_CAP = 1 << 22


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
    def build(cls, lang, n: int, alphabet=("0", "1")):
        # the strings are counted, not listed, before the size is refused
        n = checked_count("string length", n, 0)
        a = len(alphabet)
        size = n + 1 if a == 1 else (a ** (n + 1) - 1) // (a - 1)
        if size ** 2 > MATRIX_CAP:
            raise SizeError(f"{size}^2 matrix entries exceed the cap")
        strings = all_strings(alphabet, n)
        # Many (x, y) pairs spell one word, so the predicate runs once per word
        # of length <= 2n.  In all_strings order, x + y is word number
        # start[|x| + |y|] + rank(x)·a^|y| + rank(y), where a string's rank is
        # its place among the strings of its length.
        member = np.array([1 if lang(w) else 0 for w in all_strings(alphabet, 2 * n)])
        count = [a ** length for length in range(2 * n + 1)]
        start = np.cumsum([0] + count[:-1])
        length = np.repeat(np.arange(n + 1), count[:n + 1])
        rank = np.arange(len(strings)) - start[length]
        word = start[length[:, None] + length] + rank[:, None] * a ** length + rank
        return cls(n=n, index=strings, matrix=member[word].tolist())


def all_strings(alphabet, n: int) -> list[str]:
    """Strings of length <= n, shortest first, each length in product order."""
    n = checked_count("string length", n, 0)
    out, last = [""], [""]
    for _ in range(n):
        last = [w + s for w in last for s in alphabet]
        out += last
    return out


def maximal_tiles(matrix) -> list[tuple[int, int]]:
    """Maximal all-ones rectangles as (row bitmask, column bitmask) pairs,
    largest area first.

    Computed as the closure of row-subset intersections: start from single
    rows' 1-column sets, intersect pairwise to a fixpoint, then take for each
    closed column set the full set of rows covering it, a maximal rectangle
    since its columns are all those common to its rows.  Distinct row
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
    # the order of the MILP's columns
    tiles.sort(key=lambda t: -(t[0].bit_count() * t[1].bit_count()))
    return tiles


def _members(mask: int, size: int) -> tuple[int, ...]:
    return tuple(i for i in range(size) if mask >> i & 1)


def _dual_bound(cells, tiles, y) -> Fraction:
    """Exact lower bound on the size of every cover of ``cells`` by tiles.

    ``y`` holds one weight per 1-entry.  It is rounded to rationals, clipped
    at 0 and divided by its largest sum over a maximal tile when that sum is
    above 1.  The result is feasible for the dual of the cover LP, and every
    tile lies inside a maximal one, so by weak duality its total bounds every
    cover from below, whatever tolerance the solver that proposed it used.
    """
    weights = {cell: Fraction(v).limit_denominator()
               for cell, v in zip(cells, y) if v > 0}
    total = sum(weights.values(), Fraction(0))
    worst = max(sum((w for (r, c), w in weights.items()
                     if rows >> r & 1 and cols >> c & 1), Fraction(0))
                for rows, cols in tiles)
    return total / worst if worst > 1 else total


def tiling_complexity(lang, n: int, alphabet=("0", "1"),
                      return_tiling: bool = False):
    """Exact minimal 1-tiling size of the membership matrix at length n.

    Raises ``RuntimeError`` when a solver fails, its cover is not one, or the
    dual bound does not prove the cover minimal, which happens whenever the
    LP relaxation lies a whole tile or more below the optimum.
    """
    # scipy.optimize and scipy.sparse would add about 0.6 s to `import qipsim`;
    # only this needs them
    import scipy.sparse as sp
    from scipy.optimize import LinearConstraint, linprog, milp

    inst = TilingInstance.build(lang, n, alphabet)
    nrows = len(inst.index)
    cells = [(r, c) for r, row in enumerate(inst.matrix)
             for c, v in enumerate(row) if v]
    if not cells:
        return (0, Tiling(tiles=())) if return_tiling else 0
    tiles = maximal_tiles(inst.matrix)
    index = {cell: i for i, cell in enumerate(cells)}
    entries = [(index[r, c], j) for j, (rows, cols) in enumerate(tiles)
               for r in _members(rows, nrows) for c in _members(cols, nrows)]
    a = sp.csr_array((np.ones(len(entries)), tuple(zip(*entries))),
                     shape=(len(cells), len(tiles)))
    ones = np.ones(len(tiles))
    cover = milp(ones, constraints=LinearConstraint(a, lb=1),
                 integrality=ones, bounds=(0, 1))
    dual = linprog(-np.ones(len(cells)), A_ub=a.T, b_ub=ones,
                   bounds=(0, None))
    if not (cover.success and dual.success):
        raise RuntimeError(f"solver failed: {cover.message} / {dual.message}")
    tiling = Tiling(tiles=tuple(
        (_members(rows, nrows), _members(cols, nrows))
        for (rows, cols), x in zip(tiles, cover.x) if x > 0.5))
    size = len(tiling.tiles)
    if not verify_tiling(inst, tiling):
        raise RuntimeError(f"the solver's {size} tiles are not a cover")
    bound = _dual_bound(cells, tiles, dual.x)
    if bound <= size - 1:
        raise RuntimeError(f"dual bound {bound} does not prove {size} tiles minimal")
    return (size, tiling) if return_tiling else size


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
