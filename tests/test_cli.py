import ast
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qipsim
from qipsim.adversary import REPLAY_TOL, AdversaryReport, replay
from qipsim.cli import main, make_parser
from qipsim.languages import LANGUAGES
from qipsim.protocols import build_protocol
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


def test_run_with_the_eraser_prover(capsys):
    # the eraser is eraser_zero's honest prover, and without it "10" is rejected
    records = {}
    for prover in ("eraser", "honest", "identity"):
        code, out, _ = run_cli(capsys, "run", "--protocol", "eraser_zero", "--input", "10",
                               "--prover", prover)
        assert code == 0
        records[prover] = json.loads(out)
    assert records["eraser"] == {**records["honest"], "prover": "eraser"}
    assert records["eraser"]["p_acc"] == 1.0 and records["identity"]["p_rej"] == 1.0


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


@pytest.mark.parametrize("argv", [[], ["--lang", "la", "--bound", "1", "1", "1", "1"]],
                         ids=["neither", "both"])
def test_tiling_needs_one_of_lang_and_bound(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["tiling", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (["tiling", "--lang", "la", "--n", "-1"], "tiling failed"),
    (["sweep", "--protocol", "odd", "--n-max", "-1"], "sweep failed"),
], ids=["tiling", "sweep"])
def test_negative_lengths_exit_1(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"{message}: string length must be at least 0, got -1\n"


def test_sweep_over_the_cap_exits_1(capsys):
    code, out, err = run_cli(capsys, "sweep", "--protocol", "odd", "--n-max", "12")
    assert (code, out) == (1, "")
    assert err == "sweep too large: |Sigma|^13 exceeds the sweep cap 4096\n"


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
    code, out, _ = run_cli(capsys, "validate", str(path), "--structure", "measure_once")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["structure_ok"]


def test_validate_measure_once_query_cycle_exit_1(tmp_path, capsys):
    spec = build_protocol("la_mo").verifier
    path = tmp_path / "la.qfa"
    path.write_text(serialize_spec(spec))
    code, out, _ = run_cli(capsys, "validate", str(path), "--structure", "interaction_bounded")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is True
    assert not payload["structure_ok"]
    [(_sigma, text)] = payload["structure_violations"]
    assert text.startswith("query transition") and text.endswith("lies on a cycle")


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


def test_a_climbed_dense_report_replays_from_its_json(capsys):
    # the climb beats every classical table here, so the report holds round
    # matrices, which replay rebuilds through provers.from_description
    code, out, _ = run_cli(capsys, "adversary", "--protocol", "la_mo", "--input", "aa",
                           "--quantum", "--restarts", "3", "--iterations", "10",
                           "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["best_strategy"]["kind"] == "dense"
    report = AdversaryReport(best_p_acc=payload["best_p_acc"],
                             best_strategy=payload["best_strategy"],
                             strategies_tested=payload["strategies_tested"],
                             is_exhaustive=payload["is_exhaustive"])
    got = replay(build_protocol("la_mo"), "aa", report)
    assert abs(got - payload["best_p_acc"]) <= REPLAY_TOL


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "run", "--protocol", "la_mo", "--input", "a",
                           "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()[:2]
    assert "p_acc" in header
    # a search report's strategy is a dict, written into one cell
    argv = ["adversary", "--protocol", "la_mo", "--input", "aa", "--classical",
            "--memory", "2", "--steps", "4"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    _, report, _ = run_cli(capsys, *argv)
    report = json.loads(report)
    assert float(row["best_p_acc"]) == report["best_p_acc"] == 1.0
    assert ast.literal_eval(row["best_strategy"]) == report["best_strategy"]


@pytest.mark.parametrize("command", ["sweep", "adversary"])
def test_unknown_protocol_exit_2_for_every_command(capsys, command):
    argv = [command, "--protocol", "nope"]
    if command == "sweep":
        argv += ["--n-max", "1"]
    code, _out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "unknown protocol" in err


@pytest.mark.parametrize("argv, text", [
    (["run", "--protocol", "upal:N=foo"], "'N=foo' is not an integer parameter of 'upal'"),
    (["run", "--protocol", "odd:N=3"], "'N=3' is not an integer parameter of 'odd'"),
    (["run", "--protocol", "center:N=1"], "center needs at least 2 branches, got 1"),
    (["adversary", "--protocol", "pal_sharp:d=0"], "pal_sharp needs d >= 1, got 0"),
    (["sweep", "--protocol", "upal:M=2", "--n-max", "1"], "'M=2' is not an integer parameter"),
])
def test_malformed_protocol_parameters_exit_2_with_one_line(capsys, argv, text):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and text in err


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_with_fewer_than_one_job_exits_2_with_one_line(capsys, jobs):
    code, out, err = run_cli(capsys, "sweep", "--protocol", "zero_public",
                             "--n-max", "1", "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err == f"parse error: --jobs must be at least 1, got {jobs}\n"


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


def test_run_with_a_non_injective_prover_table_exit_1(tmp_path, capsys):
    path = tmp_path / "prover.table"
    path.write_text("[prover_table]\ninitial m0\n1 a m0 -> # m0\n1 # m0 -> # m0\n")
    code, out, err = run_cli(capsys, "run", "--protocol", "la_mo", "--input", "a",
                             "--prover", str(path))
    assert (code, out) == (1, "")
    assert err == ("run failed: step 1: ('#', 'm0') and ('a', 'm0') "
                   "both map to ('#', 'm0')\n")


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


@pytest.mark.parametrize("command, argv, message", [
    ("adversary", ["--memory", "-3"], "budget memory_states must be at least 1"),
    ("adversary", ["--steps", "-1"], "budget steps must be at least 0"),
    ("adversary", ["--quantum", "--restarts", "-1"], "budget restarts must be at least 0"),
    ("adversary", ["--quantum", "--iterations", "-2"],
     "budget iterations must be at least 0"),
    ("adversary", ["--quantum", "--tape-cells", "-1"], "tape cells must be at least 0"),
    ("sweep", ["--n-max", "1", "--memory", "-1"], "budget memory_states must be at least 1"),
    ("sweep", ["--n-max", "1", "--steps", "-1"], "budget steps must be at least 0"),
    ("adversary", ["--quantum", "--seed", "-1"], "budget seed must be at least 0"),
    # sweep reads no seed, so it has no --seed option: a usage failure
    ("sweep", ["--n-max", "1", "--seed", "-1"], None),
], ids=["memory-neg", "steps-neg", "restarts-neg", "iterations-neg", "tape-cells-neg",
        "sweep-memory-neg", "sweep-steps-neg", "seed-neg", "sweep-seed-neg"])
def test_bad_budget_exit_1(capsys, command, argv, message):
    input_args = ["--input", "0#1"] if command == "adversary" else []
    argv = [command, "--protocol", "pal_sharp:d=1", *input_args, *argv]
    if message is None:
        with pytest.raises(SystemExit) as refused:
            main(argv)
        assert refused.value.code == 2
        assert "unrecognized arguments: --seed -1" in capsys.readouterr().err
        return
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"{command} failed: {message}, got -")


@pytest.mark.parametrize("argv", [
    ["run", "--protocol", "odd", "--input", "01", "--t-max", "-3"],
    ["sweep", "--protocol", "odd", "--n-max", "1", "--t-max", "-2"]])
def test_negative_round_limit_exits_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"{argv[0]} failed: t_max must be at least 0, got {argv[-1]}\n"


def test_run_has_no_seed(capsys):
    with pytest.raises(SystemExit) as refused:
        main(["run", "--protocol", "odd", "--input", "01", "--seed", "3"])
    assert refused.value.code == 2
    code, out, _err = run_cli(capsys, "run", "--protocol", "odd", "--input", "01")
    assert code == 0 and "seed" not in json.loads(out)


def test_quantum_adversary_without_prover_rounds(capsys):
    code, out, _err = run_cli(capsys, "adversary", "--protocol", "pal_sharp:d=1",
                              "--input", "0#1", "--quantum", "--steps", "0",
                              "--iterations", "3")
    assert code == 0
    record = json.loads(out)
    assert record["strategies_tested"] == 1
    assert record["best_strategy"]["kind"] in ("identity", "classical_table")


# Every build, run, search, replay and validation path, in one fresh process.
EVERY_PATH = """
import contextlib, io, sys
import qipsim.cli
from qipsim.adversary import (AdversaryBudget, best_classical_prover, replay,
                              search_quantum_prover)
from qipsim.protocols import BUILTIN, build_protocol
from qipsim.runtime import run
from tests.conftest import strings

for name in BUILTIN:
    system = build_protocol(name)
    member = next((x for x in strings(system.verifier.input_alphabet, 4)
                   if system.member(x)), None)
    if member is not None:  # npfa_coin's language is empty
        run(system, system.honest_prover, member)
system = build_protocol("pal_sharp:d=1")
budget = AdversaryBudget(steps=6, restarts=1, iterations=2)
for report in (best_classical_prover(system, "0#1", budget),
               search_quantum_prover(system, "0#1", budget=budget)):
    replay(system, "0#1", report)
with contextlib.redirect_stdout(io.StringIO()):
    assert qipsim.cli.main(["validate", "specs/la_mo.qfa"]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                or m in ("multiprocessing", "concurrent.futures.process"))
sys.exit(" ".join(loaded) or None)
"""


def test_commands_leave_scipy_and_multiprocessing_unloaded():
    # scipy.sparse alone would add about 0.2 s and 20 MB to every process
    root = Path(qipsim.__file__).resolve().parents[2]
    done = subprocess.run([sys.executable, "-c", EVERY_PATH], cwd=root,
                          env={**os.environ, "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}"},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_scipy_callers_still_get_scipy():
    import scipy.sparse as sp

    from qipsim.qfa import build_step_operator
    from qipsim.tiling import tiling_complexity

    spec = build_protocol("odd").verifier
    step = build_step_operator(spec, "01", sparse=True)
    assert isinstance(step, sp.csc_matrix)
    assert np.array_equal(step.toarray(), build_step_operator(spec, "01"))
    lid, alphabet = LANGUAGES["center"]
    assert tiling_complexity(lid, 3, alphabet=alphabet) == 6
