"""Structured-text format for verifier specs and classical prover tables.

Layout: section headers in brackets, whitespace-separated tokens, full-line
comments starting with //.  Example:

    [meta]
    name la_mo
    head_model measure_once_1way

    [states]
    q0 non initial
    q1 non
    q_acc acc

    [input_alphabet]
    a

    [comm_alphabet]
    # a

    [transitions]
    q0 ^ # -> q0 # +1 1 0
    q0 a # -> q1 a +1 1 0

Transition rows are (q, sigma, gamma) -> (q', gamma', d, re, im).  The re/im
fields accept decimal literals or 1/sqrt(K); the pair may be replaced by a
single complex literal exp(2*pi*i*J/N), optionally scaled as
1/sqrt(K)*exp(2*pi*i*J/N).  If a [directions] section is present (one
"state d" row each), the d field is omitted from transition rows and filled
from the target state.  Canonical serialization writes decimal re/im pairs
and round-trips them bit-exactly.
"""
from __future__ import annotations

import cmath
import math
import re

from .provers import ClassicalProverTable
from .qfa import BLANK, HeadModel, QfaSpec

_SQRT_RE = re.compile(r"^(-?)1/sqrt\((\d+)\)$")
_EXP_RE = re.compile(r"^(?:(-?)1/sqrt\((\d+)\)\*)?exp\((-?\d+)\*2\*pi\*i/(\d+)\)$"
                     r"|^(?:(-?)1/sqrt\((\d+)\)\*)?exp\(2\*pi\*i\*(-?\d+)/(\d+)\)$")
_DECIMAL_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class ParseError(ValueError):
    pass


def _int(tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"bad {what} {tok!r}") from None


def parse_real(tok: str) -> float:
    m = _SQRT_RE.match(tok)
    if m:
        sign = -1.0 if m.group(1) else 1.0
        return sign / math.sqrt(int(m.group(2)))
    if _DECIMAL_RE.match(tok):
        return float(tok)
    raise ParseError(f"bad real literal {tok!r}")


def parse_complex(tok: str) -> complex | None:
    """exp-form complex literal, or None if the token is not one."""
    m = _EXP_RE.match(tok)
    if not m:
        return None
    if m.group(3) is not None:
        sign, k, j, n = m.group(1), m.group(2), int(m.group(3)), int(m.group(4))
    else:
        sign, k, j, n = m.group(5), m.group(6), int(m.group(7)), int(m.group(8))
    scale = 1.0
    if k:
        scale = 1.0 / math.sqrt(int(k))
    if sign:
        scale = -scale
    return scale * cmath.exp(2j * math.pi * j / n)


def _sections(text: str) -> dict[str, list[list[str]]]:
    out: dict[str, list[list[str]]] = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            out.setdefault(current, [])
            continue
        if current is None:
            raise ParseError(f"line {ln}: content before any section header")
        out[current].append(line.split())
    return out


def parse_spec(text: str) -> QfaSpec:
    sec = _sections(text)
    for required in ("meta", "states", "input_alphabet", "comm_alphabet", "transitions"):
        if required not in sec:
            raise ParseError(f"missing [{required}] section")
    for row in sec["meta"]:
        if len(row) != 2:
            raise ParseError(f"bad meta row {row}")
    meta = dict(sec["meta"])
    try:
        head = HeadModel(meta.get("head_model", "one_way"))
    except ValueError:
        raise ParseError(f"unknown head_model {meta.get('head_model')!r}") from None

    non, acc, rej = [], [], []
    completion = []
    initial = None
    for row in sec["states"]:
        if len(row) < 2:
            raise ParseError(f"bad state row {row}")
        q, cls = row[0], row[1]
        if cls == "non":
            non.append(q)
        elif cls == "acc":
            acc.append(q)
        elif cls == "rej":
            rej.append(q)
        else:
            raise ParseError(f"unknown state class {cls!r} for {q!r}")
        if "initial" in row[2:]:
            initial = q
        if "completion" in row[2:]:
            completion.append(q)
    if initial is None:
        raise ParseError("no state marked initial")

    input_alphabet = tuple(tok for row in sec["input_alphabet"] for tok in row)
    comm = tuple(tok for row in sec["comm_alphabet"] for tok in row)
    prover = tuple(tok for row in sec.get("prover_alphabet", []) for tok in row)
    if not prover:
        prover = tuple(dict.fromkeys((BLANK,) + comm))

    directions = {}
    for row in sec.get("directions", []):
        if len(row) != 2:
            raise ParseError(f"bad directions row {row}")
        directions[row[0]] = _int(row[1], "head move")

    delta: dict = {}
    for row in sec["transitions"]:
        if "->" not in row:
            raise ParseError(f"transition row lacks '->': {row}")
        arrow = row.index("->")
        lhs, rhs = row[:arrow], row[arrow + 1:]
        if len(lhs) != 3:
            raise ParseError(f"transition lhs must be 'q sigma gamma': {row}")
        q, sigma, gamma = lhs
        if directions:
            if len(rhs) < 2:
                raise ParseError(f"short transition rhs: {row}")
            q2, g2, amp_toks = rhs[0], rhs[1], rhs[2:]
            if q2 not in directions:
                raise ParseError(f"state {q2!r} missing from [directions]")
            d = directions[q2]
        else:
            if len(rhs) < 4:
                raise ParseError(f"short transition rhs: {row}")
            q2, g2, amp_toks = rhs[0], rhs[1], rhs[3:]
            d = _int(rhs[2], "head move")
        if len(amp_toks) == 1:
            amp = parse_complex(amp_toks[0])
            if amp is None:
                amp = complex(parse_real(amp_toks[0]), 0.0)
        elif len(amp_toks) == 2:
            amp = complex(parse_real(amp_toks[0]), parse_real(amp_toks[1]))
        else:
            raise ParseError(f"bad amplitude tokens {amp_toks} in {row}")
        key = (q, sigma, gamma)
        delta.setdefault(key, [])
        delta[key].append((q2, g2, d, amp))

    return QfaSpec(
        name=meta.get("name", "spec"),
        non_halting=tuple(non), accepting=tuple(acc), rejecting=tuple(rej),
        initial=initial,
        input_alphabet=input_alphabet, comm_alphabet=comm,
        prover_alphabet=prover, head_model=head,
        delta={k: tuple(v) for k, v in delta.items()},
        completion_states=tuple(completion),
    )


def serialize_spec(spec: QfaSpec) -> str:
    lines = ["[meta]", f"name {spec.name}", f"head_model {spec.head_model.value}", ""]
    comp = set(spec.completion_states)
    lines.append("[states]")
    for q in spec.non_halting:
        lines.append(f"{q} non" + (" initial" if q == spec.initial else "")
                     + (" completion" if q in comp else ""))
    for q in spec.accepting:
        lines.append(f"{q} acc" + (" completion" if q in comp else ""))
    for q in spec.rejecting:
        lines.append(f"{q} rej" + (" completion" if q in comp else ""))
    lines += ["", "[input_alphabet]", " ".join(spec.input_alphabet), ""]
    lines += ["[comm_alphabet]", " ".join(spec.comm_alphabet), ""]
    lines += ["[prover_alphabet]", " ".join(spec.prover_alphabet), ""]
    lines.append("[transitions]")
    for (q, sigma, gamma) in sorted(spec.delta):
        for (q2, g2, d, amp) in spec.delta[(q, sigma, gamma)]:
            lines.append(f"{q} {sigma} {gamma} -> {q2} {g2} {d:+d} "
                         f"{amp.real!r} {amp.imag!r}")
    return "\n".join(lines) + "\n"


def parse_prover_table(text: str) -> ClassicalProverTable:
    sec = _sections(text)
    if "prover_table" not in sec:
        raise ParseError("missing [prover_table] section")
    initial = "m0"
    entries: dict = {}
    for row in sec["prover_table"]:
        if row[0] == "initial" and len(row) == 2:
            initial = row[1]
            continue
        if "->" not in row or len(row) != 6 or row.index("->") != 3:
            raise ParseError(f"bad prover row {row}; want 'i gamma m -> gamma2 m2'")
        i, g, m, _arrow, g2, m2 = row
        entries[(_int(i, "round"), g, m)] = (g2, m2)
    return ClassicalProverTable(entries=entries, initial_memory=initial)


def serialize_prover_table(table: ClassicalProverTable) -> str:
    lines = ["[prover_table]", f"initial {table.initial_memory}"]
    for (i, g, m), (g2, m2) in sorted(table.entries.items()):
        lines.append(f"{i} {g} {m} -> {g2} {m2}")
    return "\n".join(lines) + "\n"
