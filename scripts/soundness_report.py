#!/usr/bin/env python3
"""Completeness and soundness of the built-ins on every input up to --n-max.

Each system's values come from `sweep`: `complete` is the least honest
acceptance over members, next to the claimed completeness a.  Over the
non-members, `free cheat` is the largest acceptance of the identity prover,
and `worst cheat` the largest found by the exhaustive classical search (and,
with --quantum, the quantum hill climber), next to the claimed soundness b.
The searches give lower bounds on the optimal cheat, so 'worst cheat <= 1 - b'
is the empirical check that the analytic bound holds on the tested slice.
With --quantum, a system whose one-cell dense prover is too large for the
quantum search (BudgetError) gets the classical value only, and its row says
so in the `search` column.  The last column, `covers`, says whether every
non-member's table budget reaches the horizon of its pair graph less one
(`runtime.pair_layers`): then no run can outlast the table, and the classical
value is the optimum over tables of every length, not a truncation.  A column
with no input to report on prints `-`.  `qipsim sweep --protocol X --n-max N`
prints the per-input values behind a row.
"""
import argparse

from qipsim.adversary import AdversaryBudget, BudgetError, search_quantum_prover
from qipsim.protocols import BUILTIN, build_protocol
from qipsim.provers import IdentityProver
from qipsim.runtime import Course, pair_layers, run
from qipsim.sweep import sweep

# every built-in at its default parameters, and the smaller pal_sharp and upal
SYSTEMS = sorted([*BUILTIN, "pal_sharp:d=1", "upal:N=2"])
# both searches cap steps at the input's round limit
BUDGET = AdversaryBudget(memory_states=2, steps=64, restarts=10, iterations=40, seed=0)
# (heading, width, format); a value of None prints "-"
COLUMNS = (("claimed a", 10, ".4f"), ("complete", 10, ".6f"), ("claimed b", 10, ".4f"),
           ("free cheat", 12, ".6f"), ("worst cheat", 12, ".6f"), ("margin", 10, ".2e"),
           ("inputs", 7, ""), ("search", 9, ""), ("covers", 6, ""))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=4)
    parser.add_argument("--quantum", action="store_true")
    args = parser.parse_args()

    columns = [col for col in COLUMNS if args.quantum or col[0] != "search"]
    print(f"{'protocol':>18}" + "".join(f" {head:>{width}}" for head, width, _ in columns))
    for name in SYSTEMS:
        system = build_protocol(name)
        a, b = system.claimed_bounds
        rows = sweep(system, args.n_max, budget=BUDGET)
        honest = [row.honest_p_acc for row in rows if row.member]
        free, worst, covers = [], [], True
        quantum = args.quantum
        for row in rows:
            if row.member:
                continue
            free.append(run(system, IdentityProver(), row.x).p_acc)
            steps = min(Course(system.verifier, row.x).t_max, BUDGET.steps)
            horizon = pair_layers(system, row.x).horizon
            covers &= horizon is not None and steps >= horizon - 1
            found = row.adversary_p_acc
            if quantum:
                try:
                    found = max(found, search_quantum_prover(
                        system, row.x, budget=BUDGET).best_p_acc)
                except BudgetError:  # the dense prover is over the search's cap
                    quantum = False
            worst.append(found)
        top = max(worst, default=None)
        values = {
            "claimed a": a, "complete": min(honest, default=None), "claimed b": b,
            "free cheat": max(free, default=None), "worst cheat": top,
            "margin": None if top is None else (1 - b) - top, "inputs": len(worst),
            "search": ("quantum" if quantum else "classical") if worst else None,
            "covers": ("yes" if covers else "no") if worst else None,
        }
        print(f"{system.name:>18}" + "".join(
            f" {'-' if values[head] is None else format(values[head], fmt):>{width}}"
            for head, width, fmt in columns))


if __name__ == "__main__":
    main()
