import concurrent.futures
import sys

import pytest

from qipsim.adversary import AdversaryBudget
from qipsim.linalg import DomainError
from qipsim.sweep import sweep, sweep_named
from qipsim.tiling import SizeError


def test_zero_public_sweep_matches_membership(zero_public):
    rows = sweep(zero_public, 2, budget=AdversaryBudget(memory_states=2, steps=4))
    assert [r.x for r in rows] == ["", "0", "1", "00", "01", "10", "11"]
    for r in rows:
        want = 1.0 if r.member else 0.0
        assert r.honest_p_acc == pytest.approx(want, abs=1e-9)
        assert r.adversary_p_acc == pytest.approx(want, abs=1e-6)


def test_la_mo_sweep_empty_string(la_mo):
    rows = sweep(la_mo, 0, budget=AdversaryBudget(memory_states=1, steps=2))
    assert len(rows) == 1
    row = rows[0]
    assert (row.x, row.member) == ("", False)
    assert row.honest_p_acc == pytest.approx(0.0, abs=1e-12)
    assert row.adversary_p_acc == pytest.approx(0.0, abs=1e-9)


def test_odd_sweep_honest_column_is_indicator(odd):
    rows = sweep(odd, 2, budget=AdversaryBudget(memory_states=1, steps=4))
    for r in rows:
        assert r.honest_p_acc == pytest.approx(1.0 if r.member else 0.0, abs=1e-9)


def test_sweep_cap(zero_public):
    with pytest.raises(SizeError):
        sweep(zero_public, 20)


def test_sweep_named_in_two_workers_matches_sweep(zero_public):
    budget = AdversaryBudget(memory_states=2, steps=4)
    assert sweep_named("zero_public", 2, budget=budget, jobs=2) == sweep(
        zero_public, 2, budget=budget)


def test_sweep_pool_has_no_more_workers_than_inputs(monkeypatch, zero_public):
    sizes = []

    class InProcessPool:
        """Records the pool size asked for and maps in this process."""

        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return map(fn, work)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    # the worker's protocol is set in this process; restored afterwards
    monkeypatch.setattr(sys.modules[sweep_named.__module__], "_worker_system", None)
    budget = AdversaryBudget(memory_states=2, steps=4)
    rows = sweep_named("zero_public", 1, budget=budget, jobs=10_000)
    assert sizes == [3]
    assert rows == sweep(zero_public, 1, budget=budget)


@pytest.mark.parametrize("jobs", [0, -2])
def test_sweep_named_refuses_fewer_than_one_job(jobs):
    with pytest.raises(DomainError, match=f"jobs must be at least 1, got {jobs}"):
        sweep_named("zero_public", 1, jobs=jobs)


def test_sweep_named_refuses_a_fractional_job_count():
    # refused before any pool starts
    with pytest.raises(DomainError, match="^jobs must be an integer, got 1.5$"):
        sweep_named("zero_public", 1, jobs=1.5)
