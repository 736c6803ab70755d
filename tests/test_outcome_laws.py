"""Exact and sampled rounds agree as outcome laws, with no rng.

For every choice pattern of 1-4 rounds and every outcome-code sequence of
it, the sequence's probability is computed three ways:

* exact: the squared norm of the slice of JointEvolution's final state at
  the sequence, read through engine._front.  A CTRL round projects Bob's
  memory on <±|; a SIFT round projects Alice's probe on <bit| and Bob's
  memory on <z|.
* compiled: the product of the Kraus matrices _compile_round builds, on the
  live probe _run_sampling keeps.  A probe past its last use is measured in
  Z when others stay live, as stream 3 does; each of its outcomes is summed
  as a branch.
* dense: reference_sampling's collapsing model with projections in place
  of draws (helpers.reference_outcome_law).

A code is 0/1 for a CTRL round reading PLUS/MINUS and 2 + 2*bit + z for a
SIFT round, as in Transcript.codes.
"""

import itertools
import math

import numpy as np
import pytest

from sqkd.analysis import exact_rate_expectations
from sqkd.attacks import (
    AttackSpec,
    Gate,
    cnot_parity_attack,
    identity_attack,
    measure_resend_z_attack,
    phase_probe_attack,
    swap_attack,
)
from sqkd.engine import (
    SubsystemLayout,
    _front,
    alice_probe,
    bob_memory,
    random_state,
    random_unitary,
)
from sqkd.protocol import CTRL, SIFT, JointEvolution, _compile_round, _new_factors

from helpers import (
    dead_probe_entangler_attack,
    fresh_qutrit_attack,
    patched_swap_attack,
    reference_outcome_law,
)

MAX_ROUNDS = 4
TOL = 1e-12
_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def two_label_factor_attack(seed=5):
    """One entangled factor over (E0, E1): E1 dies after round 0 while E0 lives on."""
    rng = np.random.default_rng(seed)
    return AttackSpec(
        name="two_label_factor",
        probe_dims=(2, 3),
        probe_factors=(random_state(SubsystemLayout((2, 3), ("E0", "E1")), rng),),
        forward={0: Gate(random_unitary(6, rng), ("T", "E1"))},
        default_backward=Gate(random_unitary(4, rng), ("E0", "T")),
    )


def haar_attack(dim, seed):
    """Haar gates on (T, E0): explicit forward gates at rounds 0 and 2, defaults elsewhere."""
    rng = np.random.default_rng(seed)

    def gate():
        return Gate(random_unitary(2 * dim, rng), ("T", "E0"))

    return AttackSpec(
        name=f"haar_{dim}",
        probe_dims=(dim,),
        probe_factors=(random_state(SubsystemLayout((dim,), ("E0",)), rng),),
        forward={0: gate(), 2: gate()},
        default_forward=gate(),
        default_backward=gate(),
    )


ATTACKS = {
    att.name: att
    for att in [
        identity_attack(),
        cnot_parity_attack(),
        measure_resend_z_attack(MAX_ROUNDS),
        swap_attack(MAX_ROUNDS),
        phase_probe_attack(0.9),
        dead_probe_entangler_attack(MAX_ROUNDS),
        fresh_qutrit_attack(MAX_ROUNDS),
        two_label_factor_attack(),
        patched_swap_attack(12),
        *(haar_attack(dim, seed=dim) for dim in (1, 2, 3, 4)),
    ]
}

PATTERNS = [
    "".join(p) for n in range(1, MAX_ROUNDS + 1) for p in itertools.product("CS", repeat=n)
]


def codes_of(pattern):
    """Every outcome-code sequence of a choice pattern."""
    return itertools.product(*((0, 1) if ch == "C" else (2, 3, 4, 5) for ch in pattern))


def exact_laws(attack):
    """Probability of each code sequence of every pattern, from the exact
    run's final state; patterns sharing a prefix share its evolution."""
    laws = {}

    def visit(evo, pattern):
        if pattern:
            laws[pattern] = _law_of_final_state(evo.state, pattern)
        if len(pattern) < MAX_ROUNDS:
            for ch in "CS":
                child = evo.clone()
                child.run_round(len(pattern), CTRL if ch == "C" else SIFT)
                visit(child, pattern + ch)

    visit(JointEvolution(attack), "")
    return laws


def _law_of_final_state(state, pattern):
    n = len(pattern)
    labels = [l for i in range(n) for l in (bob_memory(i), alice_probe(i))]
    t = _front(state, labels).reshape((2,) * 2 * n + (-1,))
    for i, ch in enumerate(pattern):
        if ch == "C":  # Bob's memory in the X basis: index 0 is <+|, 1 is <-|
            t = np.moveaxis(np.tensordot(_H, t, axes=([1], [2 * i])), 0, 2 * i)
    weights = (np.abs(t) ** 2).sum(axis=-1)
    law = {}
    for codes in codes_of(pattern):
        index = []
        for code in codes:
            # CTRL: <±| on Bob's memory, Alice's probe summed; SIFT: <z| and <bit|
            index += [code, slice(None)] if code < 2 else [(code - 2) % 2, (code - 2) // 2]
        law[codes] = float(weights[tuple(index)].sum())
    return law


def compiled_law(attack, pattern):
    """Probability of each code sequence from the compiled Kraus matrices.

    Each sequence holds the live probe branches of every dead-probe outcome,
    as rows; a sequence's probability is their total squared norm.
    """
    n = len(pattern)
    last_use = {}
    labels, dims = [], []
    materialized = set()
    branches = {(): np.ones((1, 1), dtype=complex)}
    for i, ch in enumerate(pattern):
        for factor in _new_factors(attack, i, materialized):
            branches = {
                c: np.einsum("bp,q->bpq", psi, factor.amps).reshape(len(psi), -1)
                for c, psi in branches.items()
            }
            labels += factor.layout.labels
            dims += factor.layout.dims
            last_use.update((l, attack.last_use(l, n)) for l in factor.layout.labels)
        inst = _compile_round(attack.forward_gate(i), attack.backward_gate(i), labels, dims)
        if ch == "C":
            steps = [(x, inst.bob_x[x]) for x in (0, 1)]
        else:
            steps = [
                (2 + 2 * bit + z, inst.bob_z[bit][z] @ inst.alice[bit])
                for bit in (0, 1)
                for z in (0, 1)
            ]
        branches = {c + (code,): psi @ k.T for c, psi in branches.items() for code, k in steps}
        dead = [l for l in labels if last_use[l] <= i]
        if len(dead) == len(labels):
            # nothing stays live: the run carries each sequence's weight alone
            branches = {
                c: np.sqrt([[np.vdot(psi, psi).real]]).astype(complex)
                for c, psi in branches.items()
            }
            labels, dims = [], []
            dead = []
        for label in dead:
            # each Z outcome of the dead probe becomes rows of its own
            pos = labels.index(label)
            branches = {
                c: np.moveaxis(psi.reshape(len(psi), *dims), pos + 1, 1).reshape(
                    len(psi) * dims[pos], -1
                )
                for c, psi in branches.items()
            }
            del labels[pos], dims[pos]
    return {c: float(np.vdot(psi, psi).real) for c, psi in branches.items()}


@pytest.mark.parametrize("name", sorted(ATTACKS))
def test_exact_and_sampled_rounds_agree_as_outcome_laws(name):
    attack = ATTACKS[name]
    compiled_laws = {}
    exact_of = exact_laws(attack)
    dense = {}
    for n in range(1, MAX_ROUNDS + 1):
        dense.update(reference_outcome_law(attack, n))
    for pattern in PATTERNS:
        exact = exact_of[pattern]
        compiled = compiled_laws[pattern] = compiled_law(attack, pattern)
        assert set(exact) == set(compiled) == set(codes_of(pattern))
        dense_of_pattern = {codes: dense.pop(codes, 0.0) for codes in exact}
        for codes, p in exact.items():
            assert abs(compiled[codes] - p) <= TOL, (pattern, codes)
            assert abs(dense_of_pattern[codes] - p) <= TOL, (pattern, codes)
        for law in (exact, compiled, dense_of_pattern):
            assert abs(sum(law.values()) - 1.0) <= TOL, pattern
    assert dense == {}  # every sequence the dense model reaches is some pattern's

    # weighting the patterns by their choice probabilities gives the exact rates
    for n in range(1, MAX_ROUNDS + 1):
        for ctrl_prob in (0.0, 0.3, 1.0):
            probs = {"C": ctrl_prob, "S": 1.0 - ctrl_prob}
            ce = cc = te = tc = 0.0
            for pattern in PATTERNS:
                if len(pattern) != n:
                    continue
                weight = math.prod(probs[ch] for ch in pattern)
                for codes, p in compiled_laws[pattern].items():
                    ce += weight * p * codes.count(1)
                    te += weight * p * sum(c in (3, 4) for c in codes)
                cc += weight * pattern.count("C")
                tc += weight * pattern.count("S")
            want = exact_rate_expectations(attack, n, ctrl_prob)
            assert abs((ce / cc if cc else 0.0) - want.ctrl_error_rate) <= TOL
            assert abs((te / tc if tc else 0.0) - want.test_error_rate) <= TOL
