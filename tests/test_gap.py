"""The quantum–classical gap, pinned on two shipped verifiers.

``specs/gap65.qfa`` (measure-many) and ``specs/gap22.qfa`` (measure-once)
are the completed tables of ``random_one_way_spec(random.Random(65))`` and
``(22)`` from tests/test_qfa.py, renamed and written by `serialize_spec`.
Against them the exhaustive classical search stays at 2^-(n-1) on a^n and at
1/2 on ab, at every memory size tried, while a dense prover with no tape
cells (c = 0) is accepted with probability 1.  The dense provers in
``specs/gap_provers.json`` were found by a numerical search outside the test
suite; the tests only replay them.
"""
import json
from pathlib import Path

import pytest

from qipsim.adversary import REPLAY_TOL, AdversaryBudget, best_classical_prover
from qipsim.provers import IdentityProver, from_description
from qipsim.qfa import HeadModel, StructureMode, check_structure
from qipsim.runtime import QipSystem, run
from qipsim.specfile import parse_spec, serialize_spec

SPECS = Path(__file__).resolve().parents[1] / "specs"
PROVERS = json.loads((SPECS / "gap_provers.json").read_text())
CLASSICAL = [("gap65", "aa", 0.5), ("gap65", "aaa", 0.25), ("gap65", "aaaa", 0.125),
             ("gap22", "ab", 0.5)]


def gap_system(name):
    spec = parse_spec((SPECS / f"{name}.qfa").read_text())
    return QipSystem(name=name, verifier=spec, honest_prover=IdentityProver(),
                     language=lambda x: False, claimed_bounds=(1.0, 0.0))


@pytest.mark.parametrize("name, model", [("gap65", HeadModel.ONE_WAY),
                                         ("gap22", HeadModel.MO_1WAY)])
def test_gap_specs_round_trip_and_keep_their_model(name, model):
    text = (SPECS / f"{name}.qfa").read_text()
    spec = parse_spec(text)
    assert serialize_spec(spec) == text
    assert spec.name == name and spec.head_model is model
    assert check_structure(spec, StructureMode.ONE_WAY_HALTING).ok


@pytest.mark.parametrize("memory", [1, 2, 3])
@pytest.mark.parametrize("name, x, value", CLASSICAL)
def test_classical_value_on_the_gap_specs(name, x, value, memory):
    report = best_classical_prover(gap_system(name), x,
                                   AdversaryBudget(memory_states=memory))
    assert report.is_exhaustive
    assert report.best_p_acc == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("name, x, classical", CLASSICAL)
def test_a_stored_dense_prover_without_tape_cells_is_accepted_with_certainty(
        name, x, classical):
    desc = PROVERS[name][x]
    assert desc["kind"] == "dense" and desc["c"] == 0
    p_acc = run(gap_system(name), from_description(desc), x).p_acc
    assert abs(p_acc - 1.0) <= REPLAY_TOL
    assert p_acc - classical >= 0.5 - REPLAY_TOL


def test_every_stored_prover_is_pinned():
    assert sorted((name, x) for name, inputs in PROVERS.items() for x in inputs) == sorted(
        (name, x) for name, x, _value in CLASSICAL)
