"""Command-line entry point.

Subcommands: validate, run, sweep, adversary, tiling.  Machine-readable JSON
(default) or CSV goes to stdout; human-readable notes go to stderr.  Exit
codes: 0 success, 1 domain or validation failure, 2 usage/parse failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import __version__
from .adversary import (AdversaryBudget, BudgetError, best_classical_prover,
                        search_quantum_prover)
from .languages import LANGUAGES
from .linalg import DomainError
from .protocols import BUILTIN, ProtocolError, build_protocol
from .provers import EraseAllProver, IdentityProver, ReversibilityError, TableProver
from .qfa import (AlphabetError, SpecError, StructureMode, check_structure,
                  validate_and_complete)
from .runtime import run
from .specfile import ParseError, parse_prover_table, parse_spec
from .sweep import sweep_named
from .tiling import SizeError, tiling_bound, tiling_complexity

def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, default=_jsonable))
    else:
        rows = payload if isinstance(payload, list) else [payload]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=sorted(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _jsonable(v) if not isinstance(v, (str, int, float, bool))
                             else v for k, v in row.items()})
        sys.stdout.write(buf.getvalue())


def _jsonable(v):
    if isinstance(v, (list, tuple)):
        return [_jsonable(u) for u in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(u) for k, u in v.items()}
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


def _parse_lengths(text: str):
    try:
        if ":" in text:
            lo, hi = text.split(":")
            lengths = tuple(range(int(lo), int(hi) + 1))
        else:
            lengths = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ParseError(f"--lengths {text!r} is not lo:hi or a comma list") from None
    if not lengths or min(lengths) < 0:
        raise ParseError(f"--lengths {text!r} is empty or negative")
    return lengths


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(str(exc)) from None


def _load_prover(name: str, system):
    if name == "honest":
        return system.honest_prover
    if name == "identity":
        return IdentityProver()
    if name == "eraser":
        return EraseAllProver()
    return TableProver(parse_prover_table(_read(name)))


def cmd_validate(args) -> int:
    lengths = _parse_lengths(args.lengths)
    try:
        spec = parse_spec(_read(args.spec_file))
        completed, report = validate_and_complete(spec, lengths=lengths)
    except (SpecError, DomainError) as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1
    payload = {"spec": spec.name,
               "well_formed": {str(k): v for k, v in report.well_formed.items()},
               "violations": report.violations,
               "completed_transitions": report.completed_transitions,
               "states_after_completion": len(completed.states)}
    if args.structure:
        mode = StructureMode(args.structure)
        sreport = check_structure(completed, mode)
        payload["structure_mode"] = mode.value
        payload["structure_ok"] = sreport.ok
        payload["structure_violations"] = sreport.violations
    _emit(payload, args.format)
    return 0 if report.ok and payload.get("structure_ok", True) else 1


def cmd_run(args) -> int:
    system = build_protocol(args.protocol)
    prover = _load_prover(args.prover, system)
    res = run(system, prover, args.input, args.t_max)
    record = {"command": "run", "protocol": args.protocol, "input": args.input,
              "prover": args.prover,
              "p_acc": res.p_acc, "p_rej": res.p_rej, "p_cont": res.p_cont,
              "rounds_executed": res.rounds_executed, "truncated": res.truncated,
              "halting_profile": [[r, a, b] for (r, a, b) in res.halting_profile],
              "version": __version__}
    print(f"{system.name} on {args.input!r} with {args.prover}: "
          f"acc {res.p_acc:.6f}, rej {res.p_rej:.6f} in {res.rounds_executed} rounds",
          file=sys.stderr)
    _emit(record, args.format)
    return 0


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ParseError(f"--jobs must be at least 1, got {args.jobs}")
    budget = AdversaryBudget(memory_states=args.memory, steps=args.steps)
    try:
        rows = sweep_named(args.protocol, args.n_max, args.t_max, budget,
                           jobs=args.jobs)
    except SizeError as exc:
        print(f"sweep too large: {exc}", file=sys.stderr)
        return 1
    payload = [{"x": r.x, "member": r.member, "honest_p_acc": r.honest_p_acc,
                "adversary_p_acc": r.adversary_p_acc} for r in rows]
    mism = sum(1 for r in rows if (r.honest_p_acc >= 0.5) != r.member)
    print(f"{len(rows)} inputs swept, {mism} honest/membership disagreements",
          file=sys.stderr)
    _emit(payload, args.format)
    return 0


def cmd_adversary(args) -> int:
    system = build_protocol(args.protocol)
    system.verifier.check_input(args.input)
    budget = AdversaryBudget(memory_states=args.memory, steps=args.steps,
                             restarts=args.restarts, iterations=args.iterations,
                             seed=args.seed)
    if args.quantum:
        report = search_quantum_prover(system, args.input, c=args.tape_cells,
                                       budget=budget)
    else:
        report = best_classical_prover(system, args.input, budget)
    print(f"best found acceptance {report.best_p_acc:.6f} "
          f"({'exhaustive' if report.is_exhaustive else 'lower bound'}, "
          f"{report.strategies_tested} strategies)", file=sys.stderr)
    _emit({"command": "adversary", "protocol": args.protocol, "input": args.input,
           "quantum": args.quantum, "best_p_acc": report.best_p_acc,
           "strategies_tested": report.strategies_tested,
           "is_exhaustive": report.is_exhaustive, "seed": report.seed,
           "best_strategy": report.best_strategy, "version": __version__},
          args.format)
    return 0


def cmd_tiling(args) -> int:
    try:
        if args.bound:
            q, g, dlt, c = args.bound
            value = tiling_bound(q, g, dlt, c, args.eps)
            _emit({"command": "tiling_bound", "q": q, "g": g, "dlt": dlt,
                   "c": c, "eps": args.eps, "value": value}, args.format)
            return 0
        lang, alphabet = LANGUAGES[args.lang]
        value = tiling_complexity(lang, args.n, alphabet=alphabet)
        _emit({"command": "tiling", "lang": args.lang, "n": args.n,
               "value": value}, args.format)
        return 0
    except (SizeError, DomainError, RuntimeError) as exc:  # RuntimeError: no exact certificate
        print(f"tiling failed: {exc}", file=sys.stderr)
        return 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qipsim",
        description="Simulate and analyse interactive proof systems with "
                    "quantum-finite-automaton verifiers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a spec file for well-formedness")
    p.add_argument("spec_file")
    p.add_argument("--lengths", default="0:4",
                   help="input lengths, lo:hi or comma list; unitarity is certified "
                        "for every input of each, and lengths >= 3 share one certificate")
    p.add_argument("--structure", choices=[m.value for m in StructureMode])
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a protocol on one input")
    p.add_argument("--protocol", required=True,
                   help=f"builtin name[:key=value]; builtins: {', '.join(sorted(BUILTIN))}")
    p.add_argument("--input", default="")
    p.add_argument("--prover", default="honest",
                   help="honest | identity | eraser | prover-table file")
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="probability table over all short inputs")
    p.add_argument("--protocol", required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--memory", type=int, default=2)
    p.add_argument("--steps", type=int, default=16)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("adversary", help="search for a cheating prover")
    p.add_argument("--protocol", required=True)
    p.add_argument("--input", default="")
    p.add_argument("--classical", dest="quantum", action="store_false",
                   help="exhaustive classical table search (default)")
    p.add_argument("--quantum", dest="quantum", action="store_true")
    p.add_argument("--memory", type=int, default=2)
    p.add_argument("--steps", type=int, default=16)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--iterations", type=int, default=60)
    p.add_argument("--tape-cells", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_adversary, quantum=False)

    p = sub.add_parser("tiling", help="1-tiling complexity or the size bound")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--lang", choices=sorted(LANGUAGES))
    which.add_argument("--bound", nargs=4, type=int, metavar=("Q", "G", "DLT", "C"))
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_tiling)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 2
    except (AlphabetError, BudgetError, DomainError, ReversibilityError) as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
