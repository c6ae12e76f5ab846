"""Probability tables over all inputs up to a length."""
from __future__ import annotations

from dataclasses import dataclass

from .adversary import AdversaryBudget, best_classical_prover
from .linalg import checked_count
from .runtime import QipSystem, run
from .tiling import SizeError, all_strings

# A sweep over Sigma^{<=n} is refused when |Sigma|^(n+1) exceeds this.
SWEEP_CAP = 4096


@dataclass
class SweepRow:
    x: str
    member: bool
    honest_p_acc: float
    adversary_p_acc: float


def _inputs(system: QipSystem, n_max: int) -> list[str]:
    alphabet = system.verifier.input_alphabet
    if len(alphabet) ** (n_max + 1) > SWEEP_CAP:
        raise SizeError(f"|Sigma|^{n_max + 1} exceeds the sweep cap {SWEEP_CAP}")
    return all_strings(alphabet, n_max)


def _row(system: QipSystem, x: str, t_max, budget: AdversaryBudget) -> SweepRow:
    honest = run(system, system.honest_prover, x, t_max).p_acc
    adv = best_classical_prover(system, x, budget).best_p_acc
    return SweepRow(x=x, member=system.member(x),
                    honest_p_acc=honest, adversary_p_acc=adv)


def sweep(system: QipSystem, n_max: int, t_max: int | None = None,
          budget: AdversaryBudget | None = None) -> list[SweepRow]:
    """One row per input in Sigma^{<=n_max}: membership, honest and best-found
    adversarial acceptance (exhaustive classical tables under the budget)."""
    budget = budget or AdversaryBudget()
    return [_row(system, x, t_max, budget) for x in _inputs(system, n_max)]


# The protocol each pool worker builds once, in _init_worker; honest provers
# carry closures and do not pickle, so workers rebuild it from its name.
_worker_system: QipSystem | None = None


def _init_worker(name: str) -> None:
    from .protocols import build_protocol

    global _worker_system
    _worker_system = build_protocol(name)


def _named_row(args) -> SweepRow:
    x, t_max, budget = args
    return _row(_worker_system, x, t_max, budget)


def sweep_named(name: str, n_max: int, t_max: int | None = None,
                budget: AdversaryBudget | None = None,
                jobs: int = 1) -> list[SweepRow]:
    """Sweep a registry protocol by name; rows run in ``jobs`` processes, no
    more than there are inputs.  A ``jobs`` that is not an integer of at
    least 1 raises DomainError."""
    from .protocols import build_protocol

    jobs = checked_count("jobs", jobs, 1)
    system = build_protocol(name)
    if jobs == 1:
        return sweep(system, n_max, t_max, budget)
    # a pool loads multiprocessing, which a single-process sweep never needs
    from concurrent.futures import ProcessPoolExecutor

    budget = budget or AdversaryBudget()
    work = [(x, t_max, budget) for x in _inputs(system, n_max)]
    # each worker builds the protocol, and may start at the first submit
    with ProcessPoolExecutor(max_workers=min(jobs, len(work)), initializer=_init_worker,
                             initargs=(name,)) as pool:
        return list(pool.map(_named_row, work))
