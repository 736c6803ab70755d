"""Shared test constructions: custom attacks and brute-force oracles."""

import itertools
import math

import numpy as np

from sqkd.analysis import (
    ConstraintReport,
    ExpectedRates,
    TheoremReport,
    _leakage_from_final,
    _normalize_pattern,
)
from sqkd.attacks import AttackSpec, Gate
from sqkd.engine import (
    MINUS,
    PLUS,
    TRANSIT,
    StateVector,
    SubsystemLayout,
    Unitary,
    _front,
    _weight,
    apply_unitary,
    basis_state,
    cnot,
    draw_outcome,
    factor_out,
    hadamard,
    ket_plus,
    ket_zero,
    measure,
    phase_gate,
    project,
    random_state,
    random_unitary,
    single,
    swap_gate,
)
from sqkd.errors import FactorizationError
from sqkd.protocol import (
    CTRL,
    SIFT,
    JointEvolution,
    RoundRecord,
    apply_gate,
    stream_rng,
)


def transit_phase_attack(phi):
    """Phase kick on the transit alone; couples to nothing."""
    return AttackSpec(
        name="transit_phase",
        probe_dims=(1,),
        probe_factors=(single("E0", [1], dim=1),),
        default_forward=Gate(phase_gate(phi), ("T",)),
        params={"phi": phi},
    )


def probe_decoupled_attack(seed, dim=2):
    """I ⊗ U on (transit, probe): formally targets the channel, acts only on
    the probe, so it can never be detected and never learns anything."""
    rng = np.random.default_rng(seed)
    uf = Unitary(np.kron(np.eye(2), random_unitary(dim, rng).entries))
    ub = Unitary(np.kron(np.eye(2), random_unitary(dim, rng).entries))
    init = random_state(SubsystemLayout((dim,), ("E0",)), rng)
    return AttackSpec(
        name=f"probe_decoupled_{seed}",
        probe_dims=(dim,),
        probe_factors=(init,),
        default_forward=Gate(uf, ("T", "E0")),
        default_backward=Gate(ub, ("T", "E0")),
        params={"seed": float(seed)},
    )


def dead_probe_entangler_attack(n_rounds):
    """Copy each transit into a fresh probe E_{i+1} on the way out, then, on the
    way back, XOR that probe into the shared E0.

    After round i the probe E_{i+1} is never touched again, yet it stays
    entangled with E0, so it cannot be factored out of the live state.
    """
    copy = cnot()
    relay = Unitary(np.kron(np.eye(2), cnot().entries))
    forward = {i: Gate(copy, ("T", f"E{i + 1}")) for i in range(n_rounds)}
    backward = {i: Gate(relay, ("T", f"E{i + 1}", "E0")) for i in range(n_rounds)}
    return AttackSpec(
        name="dead_probe_entangler",
        probe_dims=(2,) * (n_rounds + 1),
        probe_factors=tuple(ket_zero(f"E{i}") for i in range(n_rounds + 1)),
        forward=forward,
        backward=backward,
    )


def explicit_measure_resend_z_attack(n_rounds):
    """measure_resend_z_attack spelled out as one probe factor and gate per round."""
    copy = cnot()
    return AttackSpec(
        name="measure_resend_z",
        probe_dims=(2,) * n_rounds,
        probe_factors=tuple(ket_zero(f"E{i}") for i in range(n_rounds)),
        forward={i: Gate(copy, ("T", f"E{i}")) for i in range(n_rounds)},
    )


def explicit_swap_attack(n_rounds):
    """swap_attack spelled out as one probe factor and gate pair per round."""
    exchange = swap_gate()
    gates = {i: Gate(exchange, ("T", f"E{i}")) for i in range(n_rounds)}
    return AttackSpec(
        name="swap",
        probe_dims=(2,) * n_rounds,
        probe_factors=tuple(ket_plus(f"E{i}") for i in range(n_rounds)),
        forward=gates,
        backward=dict(gates),
    )


def oracle_partial_trace(amps, dims, keep_positions):
    """Brute-force reduced matrix straight from the definition."""
    n = len(dims)
    traced = [i for i in range(n) if i not in keep_positions]
    t = np.asarray(amps).reshape(dims)
    keep_dims = [dims[i] for i in keep_positions]
    d_keep = int(np.prod(keep_dims))
    rho = np.zeros((d_keep, d_keep), dtype=complex)
    traced_dims = [dims[i] for i in traced]
    traced_iter = list(np.ndindex(*traced_dims)) if traced else [()]
    for a, idx in enumerate(np.ndindex(*keep_dims)):
        for b, jdx in enumerate(np.ndindex(*keep_dims)):
            acc = 0j
            for kdx in traced_iter:
                fi = [0] * n
                fj = [0] * n
                for p, v in zip(keep_positions, idx):
                    fi[p] = v
                for p, v in zip(keep_positions, jdx):
                    fj[p] = v
                for p, v in zip(traced, kdx):
                    fi[p] = v
                    fj[p] = v
                acc += t[tuple(fi)] * np.conj(t[tuple(fj)])
            rho[a, b] = acc
    return rho


def reference_measure(psi, target, basis, rng):
    """Measurement that collapses the target in place: H on the whole state for
    X, project onto the drawn outcome, normalise, and H back for X."""
    basis = basis.lower()
    work = apply_unitary(psi, hadamard(), [target]) if basis == "x" else psi
    pos = work.layout.index(target)
    idx, prob = draw_outcome(_weight(np.moveaxis(work.tensor_view(), pos, 0)[0]), rng)
    collapsed = project(work, target, idx).normalized()
    if basis == "x":
        collapsed = apply_unitary(collapsed, hadamard(), [target])
        outcome = PLUS if idx == 0 else MINUS
    else:
        outcome = idx
    return outcome, collapsed, prob


# ---------------------------------------------------------------------------
# Per-pattern reference evolution: every pattern from round 0, no sharing
# ---------------------------------------------------------------------------


def _constraint_at(attack: AttackSpec, round_index: int, post_forward: StateVector) -> ConstraintReport:
    """Round residuals from the joint state right after the forward attack.

    post_forward must still contain the transit qubit; any other subsystems
    (Bob's memory, earlier Alice probes, the probe register) ride along as
    spectators.
    """
    bg = attack.backward_gate(round_index)

    # SIFT hypothesis: Alice's XOR tags each branch with its bit, so the
    # backward unitary acts on the collapsed branches separately; v[b][t] is
    # branch b's slice at transit value t after V.
    v = [
        _front(apply_gate(project(post_forward, TRANSIT, b), bg), [TRANSIT])
        for b in (0, 1)
    ]

    # CTRL hypothesis: no XOR, the transit stays coherent; by linearity the
    # output is the sum of the two branches, and the error is its |-> weight.
    ctrl = v[0] + v[1]

    return ConstraintReport(
        round=round_index,
        test_residual=_weight(v[0][1]) + _weight(v[1][0]),
        ctrl_error_prob=_weight((ctrl[0] - ctrl[1]) / math.sqrt(2)),
        f_distance=float(np.linalg.norm(v[0][0] - v[1][1])),
    )


def reference_evolution(attack, pattern):
    """(final state, per-round residual reports) of one pattern, evolved alone.

    Each round's residuals come from a copy that runs just the forward leg;
    the evolution itself advances with JointEvolution.run_round.
    """
    evo = JointEvolution(attack)
    reports = []
    for i, ch in enumerate(pattern):
        probe = evo.clone()
        probe.start_round(i)
        reports.append(_constraint_at(attack, i, probe.state))
        evo.run_round(i, CTRL if ch == "C" else SIFT)
    return evo.state, reports


def reference_constraint_check(attack, round_index, prefix):
    """Residuals for one round after evolving prefix round by round."""
    evo = JointEvolution(attack)
    for i, ch in enumerate(prefix.upper()):
        evo.run_round(i, CTRL if ch == "C" else SIFT)
    evo.start_round(round_index)
    return _constraint_at(attack, round_index, evo.state)


def reference_theorem_check(attack, patterns, eps=1e-9, compute_holevo=False):
    max_residual = 0.0
    max_leakage = 0.0
    for pattern in patterns:
        pattern = _normalize_pattern(pattern)
        final, reports = reference_evolution(attack, pattern)
        for rep in reports:
            max_residual = max(max_residual, rep.test_residual + rep.ctrl_error_prob)
        leak = _leakage_from_final(final, pattern, compute_holevo)
        max_leakage = max(max_leakage, leak.max_leakage)
    return TheoremReport(
        max_residual=max_residual,
        max_leakage=max_leakage,
        eps=eps,
        passed=(max_residual > eps) or (max_leakage <= 10 * eps),
        n_patterns=len(patterns),
    )


def reference_eve_leakage(attack, pattern, compute_holevo=True):
    pattern = _normalize_pattern(pattern)
    final, _ = reference_evolution(attack, pattern)
    return _leakage_from_final(final, pattern, compute_holevo)


def reference_rate_expectations(attack, n_rounds, ctrl_prob):
    """Expected error rates summed over the choice tree, one pattern at a time."""
    probs = {"C": ctrl_prob, "S": 1.0 - ctrl_prob}
    ce = cc = te = tc = 0.0
    for choices in itertools.product("CS", repeat=n_rounds):
        if any(probs[ch] == 0.0 for ch in choices):
            continue
        _, reports = reference_evolution(attack, choices)
        weight = 1.0
        ctrl_q = test_q = 0.0
        n_ctrl = 0
        for ch, rep in zip(choices, reports):
            weight *= probs[ch]
            if ch == "C":
                ctrl_q += rep.ctrl_error_prob
                n_ctrl += 1
            else:
                test_q += rep.test_residual
        ce += weight * ctrl_q
        cc += weight * n_ctrl
        te += weight * test_q
        tc += weight * (n_rounds - n_ctrl)
    return ExpectedRates(
        ctrl_error_rate=ce / cc if cc else 0.0,
        test_error_rate=te / tc if tc else 0.0,
    )


# ---------------------------------------------------------------------------
# Compiled-round oracle
# ---------------------------------------------------------------------------


def reference_gate_matrix(gate, layout):
    """Matrix of a gate on layout, one basis column at a time through apply_gate."""
    cols = [apply_gate(basis_state(layout, k), gate).amps for k in range(layout.dim)]
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# Dense sampling reference: every round on the labelled joint state
# ---------------------------------------------------------------------------


def reference_sampling(config, attack):
    """Records of a sampled run driven through JointEvolution and engine.measure.

    Dead probes are dropped with factor_out; one that stays entangled with a
    live probe is kept, so the state grows for attacks that leave such probes.
    """
    rng = stream_rng(config.seed, 0)
    empty = StateVector(SubsystemLayout((), ()), np.ones(1, dtype=complex))
    records = []
    evo = JointEvolution(attack)
    last_use = attack.last_use_map(config.rounds)

    for i in range(config.rounds):
        evo.start_round(i)
        choice = CTRL if rng.random() < config.ctrl_prob else SIFT
        rec = RoundRecord(index=i, choice=choice)
        if choice == SIFT:
            bit, evo.state, _ = measure(evo.state, TRANSIT, "z", rng)
            rec.alice_bit = int(bit)

        evo.state = apply_gate(evo.state, attack.backward_gate(i))

        if choice == CTRL:
            outcome, evo.state, _ = measure(evo.state, TRANSIT, "x", rng)
            rec.bob_x_outcome = outcome
        else:
            outcome, evo.state, _ = measure(evo.state, TRANSIT, "z", rng)
            rec.bob_z_outcome = int(outcome)
        records.append(rec)

        drop = [TRANSIT] + [
            l
            for l in evo.state.layout.labels
            if l != TRANSIT and last_use.get(l, -1) <= i
        ]
        for label in drop:
            if len(evo.state.layout.labels) == 1:
                evo.state = empty
                break
            try:
                evo.state = factor_out(evo.state, label)[1]
            except FactorizationError:
                pass

    return records
