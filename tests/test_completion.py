"""Block-local completion and the compiled step table."""
import cmath
import dataclasses
import functools
import glob
import itertools
import json
import math
import os
import random

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qipsim.cli
import qipsim.protocols as protocols
import qipsim.qfa as qfa
from qipsim.linalg import DomainError, gram_products, unitary_deviation
from qipsim.protocols import build_protocol
from qipsim.qfa import (BLANK, LEFT_END, RIGHT_END, HeadModel, QfaSpec, SpecError,
                        build_step_operator, certify_unitarity, symbol_at,
                        validate_and_complete)
from tests.conftest import BUILT_INS, strings
from qipsim.specfile import parse_spec, serialize_spec
from tests.test_qfa import la_partial_spec, random_one_way_spec, random_partial_spec

SPECS = os.path.join(os.path.dirname(__file__), os.pardir, "specs")


@functools.lru_cache(maxsize=None)
def verifier(name):
    return build_protocol(name).verifier


def reference_step_operator(spec, x):
    """The step operator entry by entry, straight from delta."""
    width = len(x) + 2
    gsz = len(spec.comm_alphabet)
    q_idx = {q: i for i, q in enumerate(spec.states)}
    g_idx = {g: i for i, g in enumerate(spec.comm_alphabet)}

    def index(q, k, g):
        return (q_idx[q] * width + k) * gsz + g_idx[g]

    rows, cols, data = [], [], []
    for (q, sigma, gamma), targets in spec.delta.items():
        for k in range(width):
            if symbol_at(x, k) != sigma:
                continue
            for (q2, g2, d, amp) in targets:
                rows.append(index(q2, (k + d) % width, g2))
                cols.append(index(q, k, gamma))
                data.append(amp)
    dim = len(spec.states) * width * gsz
    return sp.csc_matrix((data, (rows, cols)), shape=(dim, dim), dtype=complex)


def two_moves_to_one_target():
    """A column whose two targets differ only in the move (-1 and +1), and a
    column with no targets at all."""
    h = 1 / math.sqrt(2)
    return QfaSpec(name="split", non_halting=("q0", "q1"), accepting=(),
                   rejecting=(), initial="q0", input_alphabet=("a",),
                   comm_alphabet=(BLANK,), prover_alphabet=(BLANK,),
                   head_model=HeadModel.TWO_WAY,
                   delta={("q0", LEFT_END, BLANK): (("q1", BLANK, -1, h),
                                                    ("q1", BLANK, 1, h)),
                          ("q1", "a", BLANK): ()})


@pytest.mark.parametrize("name", BUILT_INS)
def test_step_operator_matches_reference(name):
    spec = verifier(name)
    for x in strings(spec.input_alphabet, 3):
        ref = reference_step_operator(spec, x)
        assert (build_step_operator(spec, x, sparse=True) - ref).nnz == 0, (name, x)
    assert np.array_equal(build_step_operator(spec, ""),
                          reference_step_operator(spec, "").toarray())


@pytest.mark.parametrize("name", BUILT_INS)
def test_step_operator_csc_is_scipys_layout(name):
    # width 2 (the empty input) sends head moves -1 and +1 to one row
    spec = verifier(name)
    for x in strings(spec.input_alphabet, 2):
        csc, ref = qfa.step_operator_csc(spec, x), reference_step_operator(spec, x)
        assert np.array_equal(csc.indptr, ref.indptr), (name, x)
        assert np.array_equal(csc.indices, ref.indices), (name, x)
        assert csc.data.tobytes() == ref.data.tobytes(), (name, x)


def test_step_operator_csc_sums_moves_that_meet():
    csc = qfa.step_operator_csc(two_moves_to_one_target(), "")
    ref = reference_step_operator(two_moves_to_one_target(), "")
    assert np.array_equal(csc.indptr, ref.indptr) and len(csc.data) == ref.nnz == 1
    assert csc.data.tobytes() == ref.data.tobytes()
    assert csc.data[0] == pytest.approx(math.sqrt(2))


def test_step_operator_matches_reference_on_hand_built_columns():
    spec = two_moves_to_one_target()
    for x in ("", "a", "aa"):
        ref = reference_step_operator(spec, x)
        assert (build_step_operator(spec, x, sparse=True) - ref).nnz == 0, x
    # on the empty input the tape has width 2, so -1 and +1 reach the same
    # cell: (q1, 1) at index 3 gets both amplitudes from (q0, 0) at index 0
    assert build_step_operator(spec, "")[3, 0] == pytest.approx(math.sqrt(2))


@pytest.mark.parametrize("name, max_rows", [("upal:N=4", 4), ("pal_sharp:d=4", 30)])
def test_completion_svd_sees_only_the_block(monkeypatch, name, max_rows):
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(qfa.np.linalg, "svd", recording_svd)
    build_protocol(name)
    assert shapes
    assert max(rows for rows, _cols in shapes) <= max_rows, shapes


def hadamard_spec():
    """Two-way table over {a}: a Hadamard column pair on 'a' and a lone
    superposition column on the left endmarker among axis-aligned rows.  Head
    moves follow the target state, so every per-symbol unitary closure gives
    a unitary step operator."""
    h = 1 / math.sqrt(2)
    move = {"q0": 0, "q1": 1, "q2": 1, "q3": -1, "acc": 0, "rej": 0}

    def to(q, amp=1.0):
        return (q, BLANK, move[q], amp)

    return QfaSpec(
        name="hadamard", non_halting=("q0", "q1", "q2", "q3"),
        accepting=("acc",), rejecting=("rej",), initial="q0",
        input_alphabet=("a",), comm_alphabet=(BLANK, "b"),
        prover_alphabet=(BLANK, "b"), head_model=HeadModel.TWO_WAY,
        delta={
            ("q0", LEFT_END, BLANK): (to("q1", h), to("q2", h)),
            ("q1", "a", BLANK): (to("q1", h), to("q2", h)),
            ("q2", "a", BLANK): (to("q1", h), to("q2", -h)),
            ("q0", "a", BLANK): (to("q3"),),
            ("q3", "a", BLANK): (to("q0"),),
            ("q1", RIGHT_END, BLANK): (to("acc"),),
            ("q2", RIGHT_END, BLANK): (to("rej"),),
        })


def test_completion_keeps_specified_rows_and_confines_block_vectors():
    spec = hadamard_spec()
    completed, report = validate_and_complete(spec)
    assert report.ok, report.violations
    assert report.max_unitary_deviation <= 1e-9
    for key, targets in spec.delta.items():
        assert completed.delta[key] == targets, key
    block_rows = {sigma: set() for sigma in spec.tape_symbols}
    for (_q, sigma, _g), targets in spec.delta.items():
        if len(targets) > 1:
            block_rows[sigma].update((q2, g2) for (q2, g2, _d, _amp) in targets)
    spread = []
    for (q, sigma, g) in completed.completion_keys:
        if q not in completed.completion_states:
            continue
        targets = completed.delta[(q, sigma, g)]
        if len(targets) > 1:
            assert {(q2, g2) for (q2, g2, _d, _amp) in targets} <= block_rows[sigma]
            spread.append(sigma)
    # the endmarker's block has rank 1 of 2, so exactly one fresh column spans it
    assert spread == [LEFT_END]


def test_completion_keys_are_the_rows_completion_adds():
    partials = [hadamard_spec(), la_partial_spec(),
                *(random_one_way_spec(random.Random(seed)) for seed in range(20))]
    for partial in partials:
        completed, _report = validate_and_complete(partial)
        assert completed.completion_keys == completed.delta.keys() - partial.delta.keys()
        if not partial.delta:
            continue
        # re-completion after a specified row is removed: the old keys plus the new rows
        gone = min(partial.delta)
        trimmed = dataclasses.replace(
            completed, delta={k: v for k, v in completed.delta.items() if k != gone})
        again, _report = validate_and_complete(trimmed)
        assert again.completion_keys == (completed.completion_keys
                                         | (again.delta.keys() - trimmed.delta.keys()))


def test_fresh_state_names_skip_every_name_in_use():
    # a protocol state named like a fresh one keeps its name and is no completion state
    spec = dataclasses.replace(la_partial_spec(), rejecting=("q_rej", "~rej1"))
    completed, report = validate_and_complete(spec)
    assert report.ok, report.violations
    fresh = ("~rej0", "~rej2", "~rej3", "~rej4", "~rej5")
    assert completed.completion_states == fresh
    assert completed.rejecting == ("q_rej", "~rej1", *fresh)


def collide_spec():
    """(p, ^) and (p, a) both enter r but with different moves, so from
    positions 0 and 1 they collide on one cell: two columns with overlap 1 on
    every input of length 1 or more, and none on the empty input."""
    return QfaSpec(name="collide", non_halting=("p", "r"), accepting=(),
                   rejecting=(), initial="p", input_alphabet=("a",),
                   comm_alphabet=(BLANK,), prover_alphabet=(BLANK,),
                   head_model=HeadModel.TWO_WAY,
                   delta={("p", LEFT_END, BLANK): (("r", BLANK, 1, 1.0),),
                          ("p", "a", BLANK): (("r", BLANK, 0, 1.0),)})


def not_unitary_at(n):
    """The violation text for certificate length n, 3 standing for every
    length from 3 on."""
    return "step operator not unitary at " + (f"length {n}" if n < 3 else "every length from 3")


def test_report_carries_the_largest_unitarity_deviation():
    _completed, report = validate_and_complete(collide_spec())
    assert not report.ok
    assert report.max_unitary_deviation == pytest.approx(1.0)


def test_a_table_unitary_only_on_the_empty_input_is_refused(tmp_path, capsys):
    # one violation per failing length, and one for every length from 3 on
    _completed, report = validate_and_complete(collide_spec())
    assert report.violations == [("a" * n, not_unitary_at(n)) for n in (1, 2, 3)]
    path = tmp_path / "collide.qfa"
    path.write_text(serialize_spec(collide_spec()))
    assert qipsim.cli.main(["validate", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["violations"] == [[x, text] for x, text in report.violations]


def exhaustive_deviation(spec, n):
    """The largest `unitary_deviation` of the step operator over every input
    of length n."""
    return max(unitary_deviation(build_step_operator(spec, "".join(x), sparse=True))
               for x in itertools.product(spec.input_alphabet, repeat=n))


def random_orthonormal_spec(rng):
    """1-3 states, 1-3 input symbols, one or two cell symbols, any head model.
    Each tape symbol maps a random set of pairs to distinct targets with
    random phases, some pairs of columns mixed by a Hadamard, so the columns
    are orthonormal and completion accepts the table.  Two-way moves are
    drawn per target pair or, half the time, per transition; the latter
    usually breaks unitarity on the circular tape."""
    head = rng.choice(list(HeadModel))
    states = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
    comm = (BLANK,) + (("g",) if rng.random() < 0.5 else ())
    sigma = tuple("abc"[:rng.randint(1, 3)])
    pairs = [(q, g) for q in states for g in comm]
    per_target = rng.random() < 0.5
    dmap = {}

    def move(target):
        if head.one_way:
            return 1
        if per_target:
            return dmap.setdefault(target, rng.choice([-1, 0, 1]))
        return rng.choice([-1, 0, 1])

    def column(*entries):
        # one random phase per column keeps the columns orthonormal
        phase = cmath.exp(2j * math.pi * rng.random())
        return tuple((*target, move(target), amp * phase) for target, amp in entries)

    h = 1 / math.sqrt(2)
    delta = {}
    for s in (LEFT_END, *sigma, RIGHT_END):
        sources = rng.sample(pairs, rng.randint(0, len(pairs)))
        targets = rng.sample(pairs, len(sources))
        while sources:
            if len(sources) > 1 and rng.random() < 0.5:
                ((q1, g1), (q2, g2)), (u, v) = sources[:2], targets[:2]
                delta[(q1, s, g1)] = column((u, h), (v, h))
                delta[(q2, s, g2)] = column((u, h), (v, -h))
                sources, targets = sources[2:], targets[2:]
            else:
                (q, g), u = sources[0], targets[0]
                delta[(q, s, g)] = column((u, 1.0))
                sources, targets = sources[1:], targets[1:]
    return QfaSpec(name="random", non_halting=states, accepting=(), rejecting=(),
                   initial=states[0], input_alphabet=sigma, comm_alphabet=comm,
                   prover_alphabet=comm, head_model=head, delta=delta)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 30))
@example(5)  # fails at every length
@example(95)  # fails at lengths 1-5
def test_unitarity_certificate_matches_every_step_operator(seed):
    spec = random_orthonormal_spec(random.Random(seed))
    completed, report = validate_and_complete(spec)
    deviation = certify_unitarity(completed)
    assert list(deviation) == [0, 1, 2, 3]
    failing = set()
    for n in range(6):
        # lengths from 3 on share the verdict of 3
        expected = exhaustive_deviation(completed, n)
        got = deviation[min(n, 3)]
        assert abs(got[0] - expected) <= 1e-12, (n, got, expected)
        if expected > 1e-9:
            failing.add(min(n, 3))
    failing = sorted(failing)
    assert report.ok == (not failing)
    assert report.max_unitary_deviation == max(dev for dev, _x in deviation.values())
    assert [text for _x, text in report.violations] == [not_unitary_at(n) for n in failing]
    for (x, _text), n in zip(report.violations, failing):
        # the witness attains the largest deviation of its length
        assert len(x) == n
        dev = unitary_deviation(build_step_operator(completed, x, sparse=True))
        assert dev > 1e-9
        assert abs(dev - deviation[n][0]) <= 1e-12


def ring_spec():
    """(p, ^) and (p, a) enter u and v with opposite moves."""
    h = 1 / math.sqrt(2)
    return QfaSpec(name="ring", non_halting=("p", "u", "v"), accepting=(),
                   rejecting=(), initial="p", input_alphabet=("a",),
                   comm_alphabet=(BLANK,), prover_alphabet=(BLANK,),
                   head_model=HeadModel.TWO_WAY,
                   delta={("p", LEFT_END, BLANK): (("u", BLANK, 1, h), ("v", BLANK, -1, h)),
                          ("p", "a", BLANK): (("u", BLANK, -1, h), ("v", BLANK, 1, -h))})


def test_certificate_tells_width_four_from_wider_tapes():
    # Two cells apart, (p, ^) and (p, a) share the target (u, k+1); on a tape
    # of width 4, where offsets +2 and -2 coincide, they also share (v, k-1).
    # So width 4 deviates by 1 and every wider tape by 1/sqrt(2).
    completed, report = validate_and_complete(ring_spec())
    deviation = certify_unitarity(completed)
    for n in range(7):
        assert deviation[min(n, 3)][0] == pytest.approx(exhaustive_deviation(completed, n),
                                                        abs=1e-12), n
    assert deviation[2][0] == pytest.approx(1.0)
    assert deviation[3][0] == pytest.approx(1 / math.sqrt(2))
    assert report.violations == [("a" * n, not_unitary_at(n)) for n in (1, 2, 3)]


def mixed_offset_spec(tau, moves):
    """(p, ^) enters u with move +1 and v with -1, amplitude 1/sqrt(2) each,
    and (p, tau) enters them with 1/sqrt(2) and -1/sqrt(2) and the head
    ``moves``.  The completion gives the rest of span{u, v} on ^, the column
    (-1/sqrt(2), 1/sqrt(2)), the moves of (p, ^); its place with (p, tau)
    mixes the offsets d1 - d2 of u and of v, and its two products, -1/2
    each, add up on the widths where those offsets coincide."""
    h = 1 / math.sqrt(2)
    return QfaSpec(name="mixed", non_halting=("p", "u", "v"), accepting=(),
                   rejecting=(), initial="p", input_alphabet=("a",),
                   comm_alphabet=(BLANK,), prover_alphabet=(BLANK,),
                   head_model=HeadModel.TWO_WAY,
                   delta={("p", LEFT_END, BLANK): (("u", BLANK, 1, h), ("v", BLANK, -1, h)),
                          ("p", tau, BLANK): (("u", BLANK, moves[0], h),
                                              ("v", BLANK, moves[1], -h))})


def assert_certificate_merges_on_one_width(spec, width):
    """The certificate equals the exhaustive maximum on lengths 0-6, lengths
    from 3 on read under 3: 1 on the tape of ``width`` (the merged
    products), 1/sqrt(2) on the wider ones."""
    completed, report = validate_and_complete(spec)
    deviation = certify_unitarity(completed)
    for n in range(7):
        assert deviation[min(n, 3)][0] == pytest.approx(exhaustive_deviation(completed, n),
                                                        abs=1e-12), n
    assert deviation[width - 2][0] == pytest.approx(1.0)
    for n in range(width - 1, 4):
        assert deviation[n][0] == pytest.approx(1 / math.sqrt(2)), n
    assert report.violations == [("a" * n, not_unitary_at(n)) for n in range(width - 2, 4)]


def test_certificate_merges_offsets_plus_1_and_minus_1_on_width_two():
    # (p, $) moves 0: offsets +1 and -1, which coincide only mod 2
    assert_certificate_merges_on_one_width(mixed_offset_spec(RIGHT_END, (0, 0)), 2)


def test_certificate_merges_offsets_plus_1_and_minus_2_on_width_three():
    # (p, a) moves 0 and +1: offsets +1 and -2, which coincide only mod 3
    # (a has no cell on width 2)
    assert_certificate_merges_on_one_width(mixed_offset_spec("a", (0, 1)), 3)


def reference_certificate(spec):
    """`certify_unitarity` with a dense pass per width: every place's cells
    summed into a (width, places) array for each of the widths 2-5.  The
    certificate must equal it bit for bit."""
    t = len(spec.tape_symbols)
    p = len(spec.states) * len(spec.comm_alphabet)
    blocks = spec._table.values()
    sym = np.repeat(np.arange(t), [len(b.src) for b in blocks])
    src, dst, move, amp = (np.concatenate(v) for v in
                           zip(*((b.src, b.dst, b.move, b.amp) for b in blocks)))
    tp = t * p
    e, f, products = gram_products(dst, amp)
    bits = tp.bit_length()
    i, d = sym * p + src, move + 1
    left = ((sym * t) << (2 * bits + 4)) + (i << (bits + 4)) + 3 * d
    right = (sym << (2 * bits + 4)) + (i << 4) + d
    diag = np.arange(tp)
    ones = ((diag // p * (t + 1)) << (2 * bits + 4)) + (diag << (bits + 4)) + (diag << 4) + 9
    cells, at = np.unique(np.concatenate([left[e] + right[f], ones]), return_inverse=True)
    re = np.bincount(at, np.concatenate([products.real, np.full(tp, -1.0)]), len(cells))
    im = np.bincount(at, np.concatenate([products.imag, np.zeros(tp)]), len(cells))
    place = cells >> 4
    first = np.diff(place, prepend=-1) != 0
    blocks_of = place[first] >> (2 * bits)
    start = np.flatnonzero(np.diff(blocks_of, prepend=-1))
    entries = (re, im, cells & 15, np.cumsum(first) - 1, len(blocks_of))
    by_block = (start, *np.divmod(blocks_of[start], t))
    out = {}
    for n in range(4):
        dev, sigma, tau, offset = reference_worst_block(*entries, *by_block,
                                                        qfa._cells(t, n + 2))
        out[n] = (dev, None if sigma is None else qfa._witness(spec, n, sigma, tau, offset))
    return out


def reference_worst_block(re, im, code, at, n, start, sigma, tau, cells):
    w, t = cells.shape
    if not cells.any(axis=1).all():
        return 0.0, None, None, None
    shift = np.array([(c // 3 - c % 3) % w * n for c in range(9)] + [0])
    key = shift[code] + at
    h = np.bincount(key, re, w * n)
    h *= h
    sq = np.bincount(key, im, w * n)
    sq *= sq
    h += sq
    dev = np.zeros((w, t, t))
    dev[:, sigma, tau] = np.sqrt(np.maximum.reduceat(h.reshape(w, n), start, axis=1))
    shifted = cells[(np.arange(w)[:, None] + np.arange(w)) % w]
    occurs = np.einsum("ks,rkt->rst", cells.astype(int), shifted.astype(int)) > 0
    occurs[0] = np.diag(cells.any(axis=0))
    dev[~occurs] = 0.0
    r, sigma, tau = np.unravel_index(np.argmax(dev), dev.shape)
    if dev[r, sigma, tau] == 0.0:
        return 0.0, None, None, None
    return float(dev[r, sigma, tau]), sigma, tau, (r + 2) % w - 2


def assert_certificate_matches_the_reference(spec):
    got, want = certify_unitarity(spec), reference_certificate(spec)
    assert {n: (dev.hex(), x) for n, (dev, x) in got.items()} == \
        {n: (dev.hex(), x) for n, (dev, x) in want.items()}, spec.name


@pytest.mark.parametrize("name", BUILT_INS)
def test_certificate_matches_the_reference_on_built_ins(name):
    assert_certificate_matches_the_reference(verifier(name))


def test_certificate_matches_the_reference_on_shipped_specs_and_mixed_offsets():
    for path in sorted(glob.glob(os.path.join(SPECS, "*.qfa"))):
        with open(path) as f:
            assert_certificate_matches_the_reference(parse_spec(f.read()))
    specs = [ring_spec(), mixed_offset_spec(RIGHT_END, (0, 0)), mixed_offset_spec("a", (0, 1))]
    for spec in specs:
        assert_certificate_matches_the_reference(validate_and_complete(spec)[0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30))
@example(5)
@example(30)
def test_certificate_matches_the_reference_on_random_tables(seed):
    # moves drawn per transition give places that mix offsets, as in seeds 5
    # and 30 (about one table in eleven)
    spec = random_orthonormal_spec(random.Random(seed))
    assert_certificate_matches_the_reference(spec)
    assert_certificate_matches_the_reference(validate_and_complete(spec)[0])


def reference_violations(spec, tol=1e-9):
    """Orthonormality violations straight from delta, column by column: per
    symbol, norms in delta order, then overlapping pairs in the order their
    first shared target row appears."""
    out = []
    for sigma in spec.tape_symbols:
        vecs: dict = {}
        for (q, s, g), targets in spec.delta.items():
            if s == sigma:
                vec = vecs.setdefault((q, g), {})
                for (q2, g2, _d, amp) in targets:
                    vec[(q2, g2)] = vec.get((q2, g2), 0j) + amp
        for key, vec in vecs.items():
            nrm = sum(abs(a) ** 2 for a in vec.values())
            if abs(nrm - 1.0) > 2 * tol + tol * tol:
                out.append(f"[{sigma}] column {key} has norm {math.sqrt(nrm):.6g}, not 1")
        by_row: dict = {}
        for key, vec in vecs.items():
            for row in vec:
                by_row.setdefault(row, []).append(key)
        seen = set()
        for keys in by_row.values():
            for a, b in itertools.combinations(sorted(keys), 2):
                if (a, b) in seen:
                    continue
                seen.add((a, b))
                ip = sum(vecs[a][r].conjugate() * vecs[b][r] for r in vecs[a] if r in vecs[b])
                if abs(ip) > tol:
                    out.append(f"[{sigma}] columns {a} and {b} are not orthogonal "
                               f"(|<a,b>|={abs(ip):.6g})")
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_orthonormality_violations_match_the_column_reference(seed):
    rng = random.Random(seed)
    states = tuple(f"s{i}" for i in range(rng.randint(1, 4)))
    comm = (BLANK,) + (("g",) if rng.random() < 0.5 else ())
    pairs = [(q, g) for q in states for g in comm]
    h = 1 / math.sqrt(2)
    delta = {}
    for sigma in (LEFT_END, "a", RIGHT_END):
        for (q, g) in rng.sample(pairs, rng.randint(0, len(pairs))):
            delta[(q, sigma, g)] = tuple(
                (*rng.choice(pairs), rng.choice([-1, 0, 1]), rng.choice([1, -1, 0.5, h, 1j * h]))
                for _ in range(rng.randint(0, 3)))
    spec = QfaSpec(name="r", non_halting=states, accepting=(), rejecting=(),
                   initial=states[0], input_alphabet=("a",), comm_alphabet=comm,
                   prover_alphabet=comm, head_model=HeadModel.TWO_WAY, delta=delta)
    expected = reference_violations(spec)
    if not expected:
        validate_and_complete(spec)
        return
    with pytest.raises(SpecError) as info:
        validate_and_complete(spec)
    assert str(info.value) == ("completion refused, specified columns are not "
                               "orthonormal: " + "; ".join(expected))


# ---------------------------------------------------------------------------
# The name-keyed references of the compiled table and of the completion
# ---------------------------------------------------------------------------

def reference_compile(spec):
    """The compiled table by a walk over delta, transition by transition:
    each symbol's source pairs and targets appended in delta order."""
    gsz = len(spec.comm_alphabet)
    q_idx = {q: i for i, q in enumerate(spec.states)}
    g_idx = {g: i for i, g in enumerate(spec.comm_alphabet)}
    cols = {s: [] for s in spec.tape_symbols}
    entries = {s: [] for s in spec.tape_symbols}  # (src, dst, move, amp) per target
    for (q, sigma, gamma), targets in spec.delta.items():
        src = q_idx[q] * gsz + g_idx[gamma]
        cols[sigma].append(src)
        for (q2, g2, d, amp) in targets:
            entries[sigma].append((src, q_idx[q2] * gsz + g_idx[g2], d, amp))
    table = {}
    for sigma in spec.tape_symbols:
        src, dst, move, amp = tuple(zip(*entries[sigma])) or ((),) * 4
        table[sigma] = (np.array(cols[sigma], dtype=np.intp), np.array(src, dtype=np.intp),
                        np.array(dst, dtype=np.intp), np.array(move, dtype=np.intp),
                        np.array(amp, dtype=complex))
    return table


def reference_leftover_basis(columns, start, cols, units, all_pairs, completion, tol):
    """`qfa._leftover_basis` on names: the free rows as a set difference
    sorted by (state not in ``completion``, row), the block's columns sorted
    by key, and every vector as [(row, amp), ...]."""
    ptr = columns.indptr[start:start + len(cols) + 1]
    rows, amps = columns.indices[ptr[0]:ptr[-1]], columns.data[ptr[0]:ptr[-1]]
    counts = np.diff(ptr)
    entry_col = np.repeat(np.arange(len(cols)), counts)
    block_rows = np.unique(rows[(counts[entry_col] != 1) | (np.abs(np.abs(amps) - 1.0) > tol)])
    free = sorted(set(range(len(all_pairs))).difference(rows.tolist(), units),
                  key=lambda i: (all_pairs[i][0] not in completion, i))
    out = [[(i, 1.0 + 0j)] for i in free]
    if len(block_rows):
        hit = np.isin(rows, block_rows)
        block = sorted(set(entry_col[hit].tolist()), key=lambda j: all_pairs[cols[j]])
        place = np.zeros(len(cols), dtype=np.intp)
        place[block] = np.arange(len(block))
        mat = np.zeros((len(block_rows), len(block)), dtype=complex)
        mat[np.searchsorted(block_rows, rows[hit]), place[entry_col[hit]]] = amps[hit]
        u, s, _vh = np.linalg.svd(mat, full_matrices=True)
        rank = int(np.sum(s > qfa.COMPLETION_RANK_TOL))
        for vec in u[:, rank:].T:
            out.append([(int(block_rows[r]), complex(vec[r]))
                        for r in np.flatnonzero(np.abs(vec) > qfa.PRUNE_TOL)])
    return out


def reference_completion(spec, tol=1e-9):
    """(delta, completion states) of the canonical completion on names: the
    missing columns of each symbol as a sorted set difference of (state,
    cell) pairs, and head moves looked up by target name."""
    gsz = len(spec.comm_alphabet)
    n_pairs = len(spec.states) * gsz
    blocks = spec._table.values()
    n_fresh = max(-(-(n_pairs - len(b.cols)) // gsz) for b in blocks)
    if n_fresh == 0:
        return dict(spec.delta), spec.completion_states
    names = set(spec.states)
    fresh = tuple(itertools.islice((f"~rej{i}" for i in itertools.count()
                                    if f"~rej{i}" not in names), n_fresh))
    all_pairs = [(q, g) for q in spec.states + fresh for g in spec.comm_alphabet]
    starts = np.cumsum([0] + [len(b.cols) for b in blocks])
    column = np.zeros(n_pairs, dtype=np.intp)
    at = []
    for start, b in zip(starts, blocks):
        column[b.cols] = start + np.arange(len(b.cols))
        at.append(column[b.src])
    columns = qfa.csc_arrays(np.concatenate([b.dst for b in blocks]), np.concatenate(at),
                             np.concatenate([b.amp for b in blocks]), starts[-1])
    dmap = {}
    for targets in spec.delta.values():
        for (q2, g2, d, _amp) in targets:
            dmap.setdefault((q2, g2), d)
    default_d = 1 if spec.head_model.one_way else 0
    completion = set(spec.completion_states + fresh)
    new_delta = dict(spec.delta)
    fresh_cols = all_pairs[n_pairs:]
    for start, (sigma, block) in zip(starts, spec._table.items()):
        missing = sorted(set(all_pairs[:n_pairs]) - {all_pairs[c] for c in block.cols})
        for (q, g), target in zip(missing, fresh_cols):
            new_delta[(q, sigma, g)] = ((*target, dmap.get(target, default_d), 1.0 + 0j),)
        leftover = reference_leftover_basis(columns, start, block.cols,
                                            range(n_pairs, n_pairs + len(missing)),
                                            all_pairs, completion, tol)
        for (f, g), vec in zip(fresh_cols, leftover):
            new_delta[(f, sigma, g)] = tuple(
                (*all_pairs[i], dmap.get(all_pairs[i], default_d), amp) for i, amp in vec)
    return new_delta, spec.completion_states + fresh


def exact_rows(delta):
    """delta's items in order, amplitudes as the hex of their parts."""
    return [(key, tuple((q, g, d, type(a), complex(a).real.hex(), complex(a).imag.hex())
                        for q, g, d, a in targets))
            for key, targets in delta.items()]


def assert_matches_the_references(partial):
    """The completion's delta and completion states match the name
    reference's, and each table, the partial one and the one the completion
    appends to, matches both name walks of its delta: the reference and
    `qfa._compile`."""
    completed, _report = validate_and_complete(partial)
    delta, completion_states = reference_completion(partial)
    assert exact_rows(completed.delta) == exact_rows(delta)
    assert completed.completion_states == completion_states
    for spec in (partial, completed):
        for ref in (reference_compile(spec), qfa._compile(spec)):
            assert list(spec._table) == list(ref)
            for sigma, block in spec._table.items():
                for got, want in zip(block, ref[sigma]):
                    assert (got.dtype, got.shape, got.tobytes()) == \
                        (want.dtype, want.shape, want.tobytes()), (spec.name, sigma)


def without_completion(spec):
    """The partial table a completed spec was made from."""
    comp = spec.completion_keys
    return dataclasses.replace(
        spec, delta={k: v for k, v in spec.delta.items() if k not in comp},
        rejecting=tuple(q for q in spec.rejecting if q not in spec.completion_states),
        completion_states=())


@pytest.mark.parametrize("name", BUILT_INS)
def test_completion_and_table_match_the_name_references(monkeypatch, name):
    partials = []
    real = protocols.validate_and_complete

    def recording(spec, *args, **kwargs):
        partials.append(spec)
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(protocols, "validate_and_complete", recording)
    build_protocol(name)
    assert partials
    for partial in partials:
        assert_matches_the_references(partial)


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SPECS, "*.qfa"))))
def test_shipped_specs_match_the_name_references(path):
    with open(path) as f:
        spec = parse_spec(f.read())
    assert spec.completion_states  # a completed table, whose partial is re-completed too
    assert_matches_the_references(spec)
    assert_matches_the_references(without_completion(spec))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 30))
def test_random_partial_tables_match_the_name_references(seed):
    assert_matches_the_references(random_partial_spec(seed))


def test_completion_moves_follow_the_first_row_in_delta_order():
    # (r, #) is entered with move -1 on a, then with +1 on ^; on $ no column
    # enters it, so a fresh column does, with the move of the first row
    spec = QfaSpec(name="moves", non_halting=("p", "r"), accepting=(), rejecting=(),
                   initial="p", input_alphabet=("a",), comm_alphabet=(BLANK,),
                   prover_alphabet=(BLANK,), head_model=HeadModel.TWO_WAY,
                   delta={("p", "a", BLANK): (("r", BLANK, -1, 1.0),),
                          ("p", LEFT_END, BLANK): (("r", BLANK, 1, 1.0),)})
    assert_matches_the_references(spec)
    completed, _report = validate_and_complete(spec)
    into_r = [t for (_q, sigma, _g), targets in completed.delta.items() if sigma == RIGHT_END
              for t in targets if t[0] == "r"]
    assert [t[2] for t in into_r] == [-1]


def test_completion_refuses_an_amplitude_above_1_as_the_name_walk_does(monkeypatch):
    # the first symbol's last free row goes to its fresh column with
    # amplitude 2 instead of 1
    partial = la_partial_spec()
    completed, _report = validate_and_complete(partial)
    real = qfa._leftover_basis
    doubled = []

    def doubling(*args):
        free, rest = real(*args)
        if doubled or not free:
            return free, rest
        doubled.append(free[-1])
        return free[:-1], [[(free[-1], 2.0 + 0j)]] + rest

    monkeypatch.setattr(qfa, "_leftover_basis", doubling)
    with pytest.raises(DomainError) as got:
        validate_and_complete(partial)
    assert doubled
    gsz = len(completed.comm_alphabet)
    q2, g2 = completed.states[doubled[0] // gsz], completed.comm_alphabet[doubled[0] % gsz]
    key, (target,) = next((key, targets) for key, targets in completed.delta.items()
                          if key[0] in completed.completion_states and key[1] == LEFT_END
                          and targets[0][:2] == (q2, g2))
    bad = {**completed.delta, key: ((*target[:3], 2.0 + 0j),)}
    with pytest.raises(DomainError) as want:
        dataclasses.replace(completed, delta=bad)
    assert str(got.value) == str(want.value) == "amplitude magnitude 2.0 exceeds 1"
