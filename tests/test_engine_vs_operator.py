"""Cross-check the sparse engine against the dense step operator.

The run loop scatters amplitudes transition by transition; the step operator
is built independently as an explicit matrix.  Fixing the prover tape (one
identity-prover round at a time), the two must agree entry for entry: the
unmeasured round with U v, the measured round with the accepting, rejecting
and continuing projections of U v.
"""
import zlib

import numpy as np
import pytest

from qipsim.protocols import build_protocol
from qipsim.qfa import build_step_operator
from qipsim.runtime import Course

NAMES = ["zero_public", "la_mo", "odd", "pal_sharp:d=1", "center:N=2",
         "upal:N=2", "eraser_zero", "npfa_coin", "union_zero_end1"]
INPUTS = ["", "0", "01", "0#0", "aa", "010"]
# each protocol's verifier alphabet, so that only its own inputs are collected
ALPHABETS = {name: set(build_protocol(name).verifier.input_alphabet) for name in NAMES}


@pytest.mark.parametrize("x, name", [(x, name) for x in INPUTS for name in NAMES
                                     if set(x) <= ALPHABETS[name]])
def test_one_round_matches_matrix_action(name, x):
    spec = build_protocol(name).verifier
    n = len(x)
    width = n + 2
    u = build_step_operator(spec, x)
    states = spec.states
    comm = spec.comm_alphabet
    q_idx = {q: i for i, q in enumerate(states)}
    g_idx = {g: i for i, g in enumerate(comm)}

    def index(q, k, g):
        return (q_idx[q] * width + k) * len(comm) + g_idx[g]

    rng = np.random.default_rng(zlib.crc32(f"{name}|{x}".encode()))
    # random sparse start over a handful of basis labels, fixed tape
    labels = [(q, k, g) for q in states for k in range(width) for g in comm]
    picks = rng.choice(len(labels), size=min(8, len(labels)), replace=False)
    state = {}
    for i in picks:
        q, k, g = labels[i]
        state[(q, k, g, "")] = complex(rng.normal(), rng.normal())

    vec = np.zeros(u.shape[0], dtype=complex)
    for (q, k, g, _y), amp in state.items():
        vec[index(q, k, g)] = amp
    expect = u @ vec

    def dense(labels):
        out = np.zeros_like(expect)
        for (q, k, g, _y), amp in labels.items():
            out[index(q, k, g)] = amp
        return out

    # move 1 of a verifier that measures once, after move 2, measures nothing
    course = Course(spec, x)
    course.once = 2
    acc, rej, moved, mass = course.step(state, 1)
    assert (acc, rej) == (0.0, 0.0)
    assert np.allclose(dense(moved), expect, atol=1e-10)
    assert mass == pytest.approx(np.vdot(expect, expect).real, abs=1e-10)

    course.once = None  # a measure-many verifier measures after every move
    acc, rej, cont, mass = course.step(state, 0)
    # row index (q_idx * width + k) * |comm| + g_idx, so each state owns a block
    block = width * len(comm)
    kind = np.repeat([0] * len(spec.non_halting) + [1] * len(spec.accepting)
                     + [2] * len(spec.rejecting), block)
    proj = [np.where(kind == j, expect, 0) for j in range(3)]
    assert np.allclose(dense(cont), proj[0], atol=1e-10)
    for got, part in zip((mass, acc, rej), proj):
        assert got == pytest.approx(np.vdot(part, part).real, abs=1e-10)
