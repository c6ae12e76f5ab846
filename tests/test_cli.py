import json

import pytest

from qipsim.cli import main, make_parser
from qipsim.languages import LANGUAGES
from qipsim.specfile import serialize_spec
from tests.test_tiling import GAP_LANGUAGE


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_pal_sharp(capsys):
    code, out, _ = run_cli(capsys, "run", "--protocol", "pal_sharp:d=2",
                           "--input", "01#10", "--prover", "honest")
    assert code == 0
    record = json.loads(out)
    assert record["p_acc"] == pytest.approx(1.0, abs=1e-9)


def test_run_upal_identity(capsys):
    code, out, _ = run_cli(capsys, "run", "--protocol", "upal:N=4",
                           "--input", "001", "--prover", "identity")
    assert code == 0
    assert json.loads(out)["p_rej"] >= 0.75 - 1e-9


def test_run_zero_public_empty_input(capsys):
    code, out, _ = run_cli(capsys, "run", "--protocol", "zero_public", "--input", "")
    assert code == 0
    assert json.loads(out)["p_rej"] == pytest.approx(1.0, abs=1e-9)


def test_unknown_protocol_exit_2(capsys):
    code, _out, err = run_cli(capsys, "run", "--protocol", "nope", "--input", "")
    assert code == 2
    assert "unknown protocol" in err


def test_tiling_cli(capsys):
    code, out, _ = run_cli(capsys, "tiling", "--lang", "la", "--n", "1")
    assert code == 0 and json.loads(out)["value"] == 2
    code, out, _ = run_cli(capsys, "tiling", "--bound", "1", "1", "1", "1",
                           "--eps", "0")
    assert code == 0 and json.loads(out)["value"] == 2916


def test_tiling_refused_by_the_lp_dual_exits_1(capsys, monkeypatch):
    # the cover LP of this language has an integrality gap at n = 2, so
    # tiling_complexity refuses it with RuntimeError
    monkeypatch.setitem(LANGUAGES, "gap", (GAP_LANGUAGE.__contains__, ("0", "1")))
    code, out, err = run_cli(capsys, "tiling", "--lang", "gap", "--n", "2")
    assert (code, out) == (1, "")
    assert err == "tiling failed: dual bound 5 does not prove 6 tiles minimal\n"


def test_adversary_cli(capsys):
    code, out, _ = run_cli(capsys, "adversary", "--protocol", "center:N=2",
                           "--input", "001", "--classical", "--memory", "2",
                           "--steps", "40")
    assert code == 0
    assert json.loads(out)["best_p_acc"] <= 0.5 + 1e-6


def test_sweep_cli_membership_table(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--protocol", "odd", "--n-max", "2",
                           "--steps", "4", "--memory", "1")
    assert code == 0
    rows = json.loads(out)
    for row in rows:
        assert row["honest_p_acc"] == pytest.approx(
            1.0 if row["member"] else 0.0, abs=1e-9)


def test_validate_good_file(tmp_path, capsys):
    import qipsim as q
    spec = q.build_protocol("la_mo").verifier
    path = tmp_path / "la.qfa"
    path.write_text(serialize_spec(spec))
    code, out, _ = run_cli(capsys, "validate", str(path), "--lengths", "0:6",
                           "--structure", "measure_once")
    assert code == 0
    payload = json.loads(out)
    assert all(payload["well_formed"].values())
    assert payload["structure_ok"]


def test_validate_duplicated_column_exit_1(tmp_path, capsys):
    text = """\
[meta]
name bad
head_model one_way

[states]
q0 non initial
q1 non

[input_alphabet]
a

[comm_alphabet]
#

[transitions]
q0 a # -> q1 # +1 1 0
q1 a # -> q1 # +1 1 0
"""
    path = tmp_path / "bad.qfa"
    path.write_text(text)
    code, _out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "not orthogonal" in err


def test_validate_malformed_file_exit_2(tmp_path, capsys):
    path = tmp_path / "junk.qfa"
    path.write_text("not a spec at all\n")
    code, _out, err = run_cli(capsys, "validate", str(path))
    assert code == 2


def test_byte_identical_output_for_fixed_seed(capsys):
    argv = ["adversary", "--protocol", "pal_sharp:d=1", "--input", "0#1",
            "--quantum", "--steps", "12", "--restarts", "2",
            "--iterations", "5", "--seed", "42"]
    _code, out1, _ = run_cli(capsys, *argv)
    _code, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "run", "--protocol", "la_mo", "--input", "a",
                           "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()[:2]
    assert "p_acc" in header


@pytest.mark.parametrize("command", ["sweep", "adversary"])
def test_unknown_protocol_exit_2_for_every_command(capsys, command):
    argv = [command, "--protocol", "nope"]
    if command == "sweep":
        argv += ["--n-max", "1"]
    code, _out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "unknown protocol" in err


def test_sweep_with_jobs_builds_once_in_parent(capsys, monkeypatch):
    import qipsim.cli
    import qipsim.protocols

    real = qipsim.protocols.build_protocol
    calls = []

    def counting(name):
        calls.append(name)
        return real(name)

    # pool workers build in their own processes, so ``calls`` holds only the
    # parent's builds
    monkeypatch.setattr(qipsim.protocols, "build_protocol", counting)
    monkeypatch.setattr(qipsim.cli, "build_protocol", counting)
    code, out, _ = run_cli(capsys, "sweep", "--protocol", "zero_public",
                           "--n-max", "1", "--jobs", "2")
    assert code == 0
    assert [row["x"] for row in json.loads(out)] == ["", "0", "1"]
    assert calls == ["zero_public"]


def spec_text(states="q0 non initial\nq1 non", rows="q0 a # -> q1 # +1 1 0",
              meta="name tiny\nhead_model one_way", extra=""):
    return (f"[meta]\n{meta}\n\n[states]\n{states}\n\n[input_alphabet]\na\n\n"
            f"[comm_alphabet]\n#\n\n{extra}[transitions]\n{rows}\n")


@pytest.mark.parametrize("text, message", [
    (spec_text(states="q0 non initial\nq0 non"), "duplicate state names: ['q0']"),
    (spec_text(rows="zz a # -> q1 # +1 1 0"), "transition from unknown state 'zz'"),
    (spec_text(rows="q0 a # -> q1 # +1 2 0"), "amplitude magnitude 2.0 exceeds 1"),
], ids=["duplicate-state", "unknown-state", "amplitude-2"])
def test_validate_construction_errors_exit_1(tmp_path, capsys, text, message):
    path = tmp_path / "bad.qfa"
    path.write_text(text)
    code, _out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert err == f"validation failed: {message}\n"


def test_validate_refuses_a_non_rejecting_completion_state(tmp_path, capsys):
    # q1 would exempt the $ row into it from the structure check, and a run
    # that ends in q1 keeps its mass past $
    path = tmp_path / "gap.qfa"
    path.write_text(spec_text(states="q0 non initial\nq1 non completion",
                              rows="q0 ^ # -> q0 # +1 1 0\nq0 a # -> q0 # +1 1 0\n"
                                   "q0 $ # -> q1 # +1 1 0"))
    code, out, err = run_cli(capsys, "validate", str(path), "--structure", "one_way_halting")
    assert (code, out) == (1, "")
    assert err == "validation failed: completion states must be rejecting: ['q1']\n"


@pytest.mark.parametrize("text", [
    spec_text(meta="name"),
    spec_text(rows="q0 a # -> q1 #", extra="[directions]\nq0 +1\nq1 right\n\n"),
], ids=["one-token-meta", "word-direction"])
def test_validate_malformed_rows_exit_2(tmp_path, capsys, text):
    path = tmp_path / "bad.qfa"
    path.write_text(text)
    code, _out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("table", [
    None,  # no such file
    "[prover_table]\ninitial\n",
    "[prover_table]\nfirst # m0 -> # m0\n",
], ids=["missing", "initial-without-value", "word-round"])
def test_run_with_bad_prover_file_exit_2(tmp_path, capsys, table):
    path = tmp_path / "prover.txt"
    if table is not None:
        path.write_text(table)
    code, out, err = run_cli(capsys, "run", "--protocol", "la_mo", "--input", "a",
                             "--prover", str(path))
    assert code == 2 and out == ""
    assert err.startswith("parse error: ")


@pytest.mark.parametrize("command", [["run"], ["adversary", "--classical"],
                                     ["adversary", "--quantum"]])
def test_input_outside_alphabet_exit_1(capsys, command):
    code, out, err = run_cli(capsys, *command, "--protocol", "la_mo", "--input", "ab")
    assert code == 1 and out == ""
    assert "outside the alphabet" in err


def test_adversary_defaults_to_classical_search(capsys):
    assert make_parser().parse_args(["adversary", "--protocol", "x"]).quantum is False
    code, out, _ = run_cli(capsys, "adversary", "--protocol", "upal:N=2", "--input", "01")
    assert code == 0
    assert json.loads(out)["quantum"] is False


@pytest.mark.parametrize("argv", [
    ["--protocol", "upal:N=2", "--input", "01"],
    ["--protocol", "pal_sharp:d=1", "--input", "0#1", "--tape-cells", "3"],
], ids=["upal-2", "pal-sharp-3-cells"])
def test_adversary_dense_budget_error_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, "adversary", "--quantum", *argv)
    assert code == 1 and out == ""
    assert err.startswith("adversary failed: dense dimension")


@pytest.mark.parametrize("lengths", ["a:b", "1,,2", "-1", "3:1", "1:2:3", "-2:1"])
def test_validate_malformed_lengths_exit_2(tmp_path, capsys, lengths):
    import qipsim as q
    path = tmp_path / "la.qfa"
    path.write_text(serialize_spec(q.build_protocol("la_mo").verifier))
    code, out, err = run_cli(capsys, "validate", str(path), f"--lengths={lengths}")
    assert code == 2 and out == ""
    assert err.startswith("parse error: --lengths")


@pytest.mark.parametrize("command, argv, message", [
    ("adversary", ["--memory", "-3"], "budget memory_states must be at least 1"),
    ("adversary", ["--steps", "-1"], "budget steps must be at least 0"),
    ("adversary", ["--quantum", "--restarts", "-1"], "budget restarts must be at least 0"),
    ("adversary", ["--quantum", "--iterations", "-2"],
     "budget iterations must be at least 0"),
    ("adversary", ["--quantum", "--tape-cells", "-1"], "tape cells must be at least 0"),
    ("sweep", ["--n-max", "1", "--memory", "-1"], "budget memory_states must be at least 1"),
    ("sweep", ["--n-max", "1", "--steps", "-1"], "budget steps must be at least 0"),
], ids=["memory-neg", "steps-neg", "restarts-neg", "iterations-neg", "tape-cells-neg",
        "sweep-memory-neg", "sweep-steps-neg"])
def test_bad_budget_exit_1(capsys, command, argv, message):
    input_args = ["--input", "0#1"] if command == "adversary" else []
    code, out, err = run_cli(capsys, command, "--protocol", "pal_sharp:d=1",
                             *input_args, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"{command} failed: {message}, got -")


def test_quantum_adversary_without_prover_rounds(capsys):
    code, out, _err = run_cli(capsys, "adversary", "--protocol", "pal_sharp:d=1",
                              "--input", "0#1", "--quantum", "--steps", "0",
                              "--iterations", "3")
    assert code == 0
    record = json.loads(out)
    assert record["strategies_tested"] == 1
    assert record["best_strategy"]["kind"] in ("identity", "classical_table")
