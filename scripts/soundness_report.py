#!/usr/bin/env python3
"""Empirical soundness table: best found cheating acceptance vs claimed bound.

For each protocol, sweeps all non-members up to --n-max, runs the exhaustive
classical search (and optionally the quantum hill climber) and reports the
worst case next to the claimed soundness b.  The search gives lower bounds on
the optimal cheat, so 'worst found <= 1 - b' is the empirical check that the
analytic bound holds on the tested slice.  With --quantum, a protocol whose
one-cell dense prover is too large for the quantum search (BudgetError) gets
the classical value only, and its row says so in the `search` column.  The
last column, `covers`, says whether every input's table budget `steps`
reaches the horizon of its pair graph less one (`runtime.pair_layers`): then
no run can outlast the table, and the classical value is the optimum over
tables of every length, not a truncation.
"""
import argparse

from qipsim.adversary import (AdversaryBudget, BudgetError, best_classical_prover,
                              search_quantum_prover)
from qipsim.protocols import build_protocol
from qipsim.runtime import default_t_max, pair_layers
from qipsim.tiling import all_strings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--protocols", nargs="*", default=[
        "zero_public", "la_mo", "odd", "eraser_zero", "pal_sharp:d=1",
        "pal_sharp:d=2", "center:N=2", "upal:N=2", "union_zero_end1"])
    parser.add_argument("--n-max", type=int, default=4)
    parser.add_argument("--memory", type=int, default=2)
    parser.add_argument("--quantum", action="store_true")
    parser.add_argument("--restarts", type=int, default=10)
    parser.add_argument("--iterations", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'protocol':>18} {'claimed b':>10} {'worst cheat':>12} "
          f"{'margin':>10} {'inputs':>7}" + (f" {'search':>9}" if args.quantum else "")
          + f" {'covers':>6}")
    for name in args.protocols:
        system = build_protocol(name)
        _a, b = system.claimed_bounds
        quantum = args.quantum
        worst, count, covers = 0.0, 0, True
        for x in all_strings(system.verifier.input_alphabet, args.n_max):
            if system.member(x):
                continue
            count += 1
            steps = min(default_t_max(system.verifier, x), 64)
            horizon = pair_layers(system, x).horizon
            covers &= horizon is not None and steps >= horizon - 1
            budget = AdversaryBudget(memory_states=args.memory, steps=steps,
                                     restarts=args.restarts,
                                     iterations=args.iterations, seed=args.seed)
            rep = best_classical_prover(system, x, budget)
            found = rep.best_p_acc
            if quantum:
                try:
                    found = max(found, search_quantum_prover(
                        system, x, c=1, budget=budget, classical_seed=rep).best_p_acc)
                except BudgetError:  # the dense prover is over the search's cap
                    quantum = False
            worst = max(worst, found)
        search = f" {'quantum' if quantum else 'classical':>9}" if args.quantum else ""
        print(f"{system.name:>18} {b:>10.4f} {worst:>12.6f} "
              f"{(1 - b) - worst:>10.2e} {count:>7}" + search
              + f" {'yes' if covers else 'no':>6}")


if __name__ == "__main__":
    main()
