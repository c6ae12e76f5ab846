import math
import re
from pathlib import Path

import pytest

import qipsim as q
from qipsim.provers import TableProver, from_description
from qipsim.specfile import (ParseError, parse_complex, parse_prover_table,
                             parse_real, parse_spec, serialize_prover_table,
                             serialize_spec)

LA_TEXT = """\
// measure-once acceptor of {a}+
[meta]
name la_handwritten
head_model measure_once_1way

[states]
q0 non initial
q1 non
q_acc acc
q_rej rej

[input_alphabet]
a

[comm_alphabet]
# a

[transitions]
q0 ^ # -> q0 # +1 1 0
q0 a # -> q1 a +1 1 0
q1 a # -> q1 # +1 1 0
q0 $ # -> q_rej # +1 1 0
q0 $ a -> q_rej a +1 1 0
q1 $ # -> q_acc # +1 1 0
"""

DIRECTIONS_TEXT = """\
[meta]
name split
head_model two_way

[states]
s non initial
l non
r non

[input_alphabet]
a

[comm_alphabet]
#

[directions]
s +1
l -1
r +1

[transitions]
s ^ # -> l # 1/sqrt(2) 0
s ^ # -> r # 1/sqrt(2) 0
"""


def test_parse_la_and_run():
    spec = parse_spec(LA_TEXT)
    assert spec.head_model == q.HeadModel.MO_1WAY
    completed, report = q.validate_and_complete(spec)
    assert report.ok


def test_amplitude_literals():
    assert parse_real("0.5") == 0.5
    assert parse_real("1/sqrt(2)") == pytest.approx(1 / math.sqrt(2))
    assert parse_real("-1/sqrt(4)") == -0.5
    assert parse_complex("exp(2*pi*i*1/4)") == pytest.approx(1j)
    assert parse_complex("1/sqrt(2)*exp(2*pi*i*2/4)") == pytest.approx(-1 / math.sqrt(2))
    assert parse_complex("0.5") is None
    with pytest.raises(ParseError):
        parse_real("half")


@pytest.mark.parametrize("token, amp", [
    ("exp(2*pi*i*1/4)", 1j),
    ("1/sqrt(2)*exp(2*pi*i*2/4)", -1 / math.sqrt(2)),
    ("-1/sqrt(2)*exp(2*pi*i*1/4)", -1j / math.sqrt(2)),
    ("0.5", 0.5),
])
def test_single_token_amplitudes_in_a_transition_row(token, amp):
    spec = parse_spec(LA_TEXT.replace("q0 a # -> q1 a +1 1 0", f"q0 a # -> q1 a +1 {token}"))
    (target,) = spec.delta[("q0", "a", "#")]
    assert target[:3] == ("q1", "a", 1)
    assert target[3] == pytest.approx(amp, abs=1e-15)


def test_the_exp_form_takes_the_phase_after_2_pi_i_only():
    with pytest.raises(ParseError, match=re.escape("bad real literal 'exp(1*2*pi*i/4)'")):
        parse_spec(LA_TEXT.replace("q0 a # -> q1 a +1 1 0",
                                   "q0 a # -> q1 a +1 exp(1*2*pi*i/4)"))


def test_directions_sugar():
    spec = parse_spec(DIRECTIONS_TEXT)
    targets = spec.delta[("s", "^", "#")]
    assert {(t[0], t[2]) for t in targets} == {("l", -1), ("r", 1)}


def test_round_trip_bit_exact_for_all_builtins():
    for name in ("la_mo", "odd", "zero_public", "pal_sharp:d=2", "center:N=2",
                 "upal:N=2", "eraser_zero", "rfa_even_a", "npfa_choice",
                 "union_zero_end1"):
        spec = q.build_protocol(name).verifier
        text = serialize_spec(spec)
        back = parse_spec(text)
        assert back.delta == spec.delta, name
        assert back.states == spec.states, name
        assert back.completion_states == spec.completion_states, name
        assert back.completion_keys == spec.completion_keys, name
        assert serialize_spec(back) == text, name


def test_shipped_example_is_the_serialized_la_mo_verifier():
    text = (Path(__file__).parents[1] / "specs" / "la_mo.qfa").read_text()
    assert text == serialize_spec(q.build_protocol("la_mo").verifier)


def test_shipped_odd_spec_is_the_serialized_odd_verifier():
    text = (Path(__file__).parents[1] / "specs" / "odd.qfa").read_text()
    assert text == serialize_spec(q.build_protocol("odd").verifier)


def test_parse_errors():
    with pytest.raises(ParseError, match="missing"):
        parse_spec("[meta]\nname x\n")
    with pytest.raises(ParseError, match="initial"):
        parse_spec(LA_TEXT.replace(" initial", ""))
    with pytest.raises(ParseError, match="->"):
        parse_spec(LA_TEXT.replace("->", "=>"))


@pytest.mark.parametrize("text, message", [
    (LA_TEXT.replace("measure_once_1way", "sideways"), "unknown head_model 'sideways'"),
    (LA_TEXT.replace("q1 non", "q1"), "bad state row ['q1']"),
    (LA_TEXT.replace("q1 non", "q1 maybe"), "unknown state class 'maybe' for 'q1'"),
    (DIRECTIONS_TEXT.replace("l -1", "l"), "bad directions row ['l']"),
    (LA_TEXT.replace("q0 a # -> q1 a +1 1 0", "q0 a -> q1 a +1 1 0"),
     "transition lhs must be 'q sigma gamma': ['q0', 'a', '->', 'q1', 'a', '+1', '1', '0']"),
    (LA_TEXT.replace("q0 a # -> q1 a +1 1 0", "q0 a # -> q1 a +1"),
     "short transition rhs: ['q0', 'a', '#', '->', 'q1', 'a', '+1']"),
    (DIRECTIONS_TEXT.replace("-> l # 1/sqrt(2) 0", "-> l"),
     "short transition rhs: ['s', '^', '#', '->', 'l']"),
    (DIRECTIONS_TEXT.replace("r +1\n", ""), "state 'r' missing from [directions]"),
    (LA_TEXT.replace("q0 a # -> q1 a +1 1 0", "q0 a # -> q1 a +1 1 0 0"),
     "bad amplitude tokens ['1', '0', '0'] in "
     "['q0', 'a', '#', '->', 'q1', 'a', '+1', '1', '0', '0']"),
], ids=["head-model", "short-state-row", "state-class", "directions-row", "lhs",
        "short-rhs", "short-rhs-with-directions", "no-direction", "amplitude-tokens"])
def test_each_malformed_spec_row_is_named(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_spec(text)


def test_a_prover_file_needs_its_section():
    with pytest.raises(ParseError, match=r"^missing \[prover_table\] section$"):
        parse_prover_table("[meta]\nname x\n")


def test_prover_table_round_trip():
    text = "[prover_table]\ninitial m0\n1 a m0 -> # m1\n2 # m1 -> a m0\n"
    table = parse_prover_table(text)
    assert table.entries[(1, "a", "m0")] == ("#", "m1")
    prover = TableProver(table)
    assert prover.apply("x", 1, "a", "m0") == [("#", "m1", 1.0)]
    assert serialize_prover_table(table) == text


def test_the_shipped_cheating_table_is_the_search_result():
    # the README runs specs/pal_sharp_d1_cheat.table: the best classical table
    # on pal_sharp:d=1 / "0#1" at memory 2 and steps 12
    system = q.build_protocol("pal_sharp:d=1")
    report = q.best_classical_prover(system, "0#1",
                                     q.AdversaryBudget(memory_states=2, steps=12))
    shipped = Path(__file__).resolve().parents[1] / "specs" / "pal_sharp_d1_cheat.table"
    table = from_description(report.best_strategy).table
    assert shipped.read_text() == serialize_prover_table(table)
    assert report.best_p_acc == pytest.approx(0.5, abs=1e-9)
