#!/usr/bin/env python3
"""1-tiling complexities of the built-in languages, plus bound-formula values.

A bounded 1-tiling complexity is the fingerprint of a regular language; the
non-regular ones grow.  The second table evaluates the closed-form size bound
for one-way-verifier systems at small parameter values.
"""
import argparse

from qipsim.automata import universal_dfa, zero_star_dfa
from qipsim.languages import LANGUAGES, regular
from qipsim.tiling import tiling_bound, tiling_complexity

LANGS = [
    ("Zero", *LANGUAGES["zero"]),
    ("Odd", *LANGUAGES["odd"]),
    ("L_a", *LANGUAGES["la"]),
    ("0*", regular(zero_star_dfa()), ("0", "1")),
    ("Sigma*", regular(universal_dfa()), ("0", "1")),
    ("Upal", *LANGUAGES["upal"]),
    ("Center", *LANGUAGES["center"]),
    ("Pal#", *LANGUAGES["pal_sharp"]),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=3)
    args = parser.parse_args()

    ns = list(range(args.n_max + 1))
    print(f"{'language':>10} " + " ".join(f"T1(n={n})" for n in ns))
    for name, lid, alphabet in LANGS:
        values = [tiling_complexity(lid, n, alphabet=alphabet) for n in ns]
        print(f"{name:>10} " + " ".join(f"{v:>7}" for v in values))

    print("\nsize bound 4^d ceil(2*sqrt(2)(1+2d^2)/(1-2eps))^(2d+1):")
    for (qn, g, dlt, c) in [(1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1)]:
        for eps in (0.0, 0.25):
            print(f"  |Q|={qn} |Gamma|={g} |Delta|={dlt} c={c} eps={eps}: "
                  f"{tiling_bound(qn, g, dlt, c, eps)}")


if __name__ == "__main__":
    main()
