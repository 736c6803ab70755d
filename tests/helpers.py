"""Shared test constructions: custom attacks and brute-force oracles."""

import itertools
import json
import math
from dataclasses import asdict, dataclass
from operator import attrgetter, ne

import numpy as np

from sqkd.analysis import (
    ConstraintReport,
    ExpectedRates,
    LeakageReport,
    TheoremReport,
    _eve_labels,
    _weighted_states,
    holevo_bound,
)
from sqkd.attacks import AttackSpec, Gate, RoundTemplate
from sqkd.engine import (
    MINUS,
    NORM_ATOL,
    PLUS,
    TRANSIT,
    StateVector,
    SubsystemLayout,
    Unitary,
    _H,
    _weight,
    alice_probe,
    apply_unitary,
    bob_memory,
    cnot,
    draw_outcome,
    factor_out,
    hadamard,
    ket_plus,
    ket_zero,
    measure,
    measure_out,
    project,
    random_state,
    random_unitary,
    single,
    swap_gate,
    trace_distance,
)
from sqkd.errors import FactorizationError, InvalidState
from sqkd.protocol import (
    CTRL,
    MODE_EXACT,
    ROLE_CTRL,
    ROLE_KEY,
    ROLE_TEST,
    SIFT,
    JointEvolution,
    RunStats,
    _round_draws,
    stream_rng,
)


def apply_gate(state, gate):
    """An attack gate on state through engine.apply_unitary; None is the identity."""
    if gate is None:
        return state
    return apply_unitary(state, gate.unitary, gate.targets)


def ket_minus(label: str) -> StateVector:
    return single(label, [1 / math.sqrt(2), -1 / math.sqrt(2)])


def identity_gate(dim: int = 2) -> Unitary:
    return Unitary(np.eye(dim, dtype=complex))


def phase_gate(phi: float) -> Unitary:
    return Unitary(np.diag([1.0, np.exp(1j * phi)]))


def transit_phase_attack(phi):
    """Phase kick on the transit alone; couples to nothing."""
    return AttackSpec(
        name="transit_phase",
        probe_dims=(1,),
        probe_factors=(single("E0", [1]),),
        default_forward=Gate(phase_gate(phi), ("T",)),
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


def fresh_qutrit_attack(n_rounds):
    """A fresh dimension-3 probe every round, so the exact state grows 12^N."""
    probe = single("E0", [1, 0, 0])
    return AttackSpec(
        name="fresh_qutrit",
        probe_dims=(3,) * n_rounds,
        template=RoundTemplate(probe, forward=Unitary(np.eye(6))),
    )


def patched_swap_attack(n_rounds):
    """swap's template plus explicit gates that reach other rounds' probes.

    Round 3 copies the transit into E5, which round 5's template swaps later;
    round 7 swaps back with E2, which round 2's template used first; round 9
    names both legs, on E10, so the template never touches E9; past the
    register, round 15's backward leg alone turns the transit.
    """
    exchange = swap_gate()
    return AttackSpec(
        name="patched_swap",
        probe_dims=(2,) * n_rounds,
        forward={3: Gate(cnot(), ("T", "E5")), 9: Gate(cnot(), ("T", "E10"))},
        backward={
            7: Gate(exchange, ("T", "E2")),
            9: Gate(exchange, ("T", "E10")),
            15: Gate(hadamard(), ("T",)),
        },
        template=RoundTemplate(ket_plus("E0"), forward=exchange, backward=exchange),
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


def reference_apply_on_axes(t, u, positions):
    """engine.apply_on_axes as one product over every column at once."""
    positions = list(positions)
    t = np.moveaxis(t, positions, range(len(positions)))
    moved_shape = t.shape
    t = u.entries @ t.reshape(u.dim, -1)
    return np.moveaxis(t.reshape(moved_shape), range(len(positions)), positions)


def reference_finish_round(state, gate, i, choice):
    """JointEvolution.finish_round as project, the backward gate, and np.stack.

    The gate acts as one product over the whole padded branch
    (reference_apply_on_axes), and the branches are stacked along Alice's
    probe: [V·P₀ψ, V·P₁ψ] on SIFT and [V·ψ, 0] on CTRL.
    """

    def backward(branch):
        if gate is None:
            return branch.amps
        positions = [branch.layout.index(t) for t in gate.targets]
        t = branch.amps.reshape(branch.layout.dims)
        return reference_apply_on_axes(t, gate.unitary, positions).reshape(-1)

    if choice == SIFT:
        branches = [backward(project(state, TRANSIT, b)) for b in (0, 1)]
    else:
        out = backward(state)
        branches = [out, np.zeros_like(out)]
    layout = state.layout.relabeled(TRANSIT, bob_memory(i))
    layout = SubsystemLayout(layout.dims + (2,), layout.labels + (alice_probe(i),))
    return StateVector(layout, np.stack(branches, axis=-1))


def reference_measure_out(psi, target, basis, rng):
    """engine.measure_out with the whole Hadamard-rotated state built in X."""
    pos = psi.layout.index(target)
    view = psi.amps.reshape(math.prod(psi.layout.dims[:pos]), 2, -1)
    if basis == "x":
        # on a last target, _H on the target's (2, rest) matrix, transposed
        if view.shape[2] > 1:
            view = _H @ view
        else:
            view = (_H @ view[:, :, 0].T).T[:, :, None]
    idx, prob = draw_outcome(_weight(view[:, 0]), rng)
    rest = np.take(view, idx, axis=1)
    rest /= math.sqrt(float(np.vdot(rest, rest).real))
    layout = SubsystemLayout(
        psi.layout.dims[:pos] + psi.layout.dims[pos + 1 :],
        psi.layout.labels[:pos] + psi.layout.labels[pos + 1 :],
    )
    outcome = (PLUS if idx == 0 else MINUS) if basis == "x" else idx
    return outcome, StateVector(layout, rest), prob


def reference_front(psi, labels):
    """engine._front as a reordered copy: the named subsystems' axes first, in
    the given order, and the others, in layout order, flattened into one
    trailing axis."""
    dims = psi.layout.dims
    positions = [psi.layout.index(l) for l in labels]
    rest = [i for i in range(len(dims)) if i not in positions]
    t = np.transpose(psi.amps.reshape(dims), positions + rest)
    return t.reshape(*(dims[p] for p in positions), -1)


def reference_leakage_from_final(final, pattern, compute_holevo):
    """analysis._leakage_from_final on reference_front: the whole state is
    reordered, then cut into one Gram block per joint value of the sifted bits."""
    e_labels = _eve_labels(final.layout)
    sifted = [alice_probe(i) for i, ch in enumerate(pattern) if ch == "S"]
    k = len(sifted)
    per_bit = [0.0] * k
    chi = 0.0
    if e_labels and sifted:
        d_e = math.prod(final.layout.dim_of(l) for l in e_labels)
        m = reference_front(final, sifted + e_labels).reshape(2**k, d_e, -1)
        blocks = np.empty((2**k, d_e, d_e), dtype=complex)
        for b, mk in enumerate(m):
            blocks[b] = mk @ mk.conj().T
        joint = blocks.reshape((2,) * k + (d_e, d_e))
        for q in range(k):
            pair = _weighted_states(joint.sum(axis=tuple(a for a in range(k) if a != q)))
            if len(pair) == 2:
                per_bit[q] = trace_distance(pair[0][1], pair[1][1])
        if compute_holevo:
            chi = holevo_bound(_weighted_states(blocks))
    return LeakageReport(
        pattern=pattern,
        per_bit_trace_distance=tuple(per_bit),
        holevo_bound=chi,
        max_leakage=max(per_bit, default=0.0),
    )


def reference_outcome_threshold(w0: float) -> float:
    """engine.outcome_threshold with its clamp to [0, 1] ahead of the snaps."""
    w0 = min(max(w0, 0.0), 1.0)
    if w0 > 1 - 1e-12:
        return 1.0
    if w0 < 1e-12:
        return 0.0
    return w0


def reference_measure(psi, target, basis, rng):
    """Measurement that collapses the target in place: H on the whole state for
    X, project onto the drawn outcome, normalise, and H back for X."""
    basis = basis.lower()
    work = apply_unitary(psi, hadamard(), [target]) if basis == "x" else psi
    pos = work.layout.index(target)
    idx, prob = draw_outcome(_weight(np.moveaxis(work.tensor_view(), pos, 0)[0]), rng)
    branch = project(work, target, idx)
    collapsed = StateVector(branch.layout, branch.amps / math.sqrt(branch.weight))
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
        reference_front(apply_gate(project(post_forward, TRANSIT, b), bg), [TRANSIT])
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


def reference_theorem_check(attack, patterns, eps=1e-9):
    max_residual = 0.0
    max_leakage = 0.0
    for pattern in patterns:
        pattern = pattern.upper()
        final, reports = reference_evolution(attack, pattern)
        for rep in reports:
            max_residual = max(max_residual, rep.test_residual + rep.ctrl_error_prob)
        leak = reference_leakage_from_final(final, pattern, False)
        max_leakage = max(max_leakage, leak.max_leakage)
    return TheoremReport(
        max_residual=max_residual,
        max_leakage=max_leakage,
        eps=eps,
        passed=(max_residual > eps) or (max_leakage <= 10 * eps),
        n_patterns=len(patterns),
    )


def reference_eve_leakage(attack, pattern, compute_holevo=True):
    pattern = pattern.upper()
    final, _ = reference_evolution(attack, pattern)
    return reference_leakage_from_final(final, pattern, compute_holevo)


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
    cols = [
        apply_gate(StateVector(layout, e), gate).amps for e in np.eye(layout.dim, dtype=complex)
    ]
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# Dense sampling reference: every round on the labelled joint state
# ---------------------------------------------------------------------------


def _reference_drop(state, labels):
    """The state with each of labels factored out where it is a product with
    the rest; one that stays entangled is kept."""
    for label in labels:
        if len(state.layout.labels) == 1:
            return StateVector(SubsystemLayout((), ()), np.ones(1, dtype=complex))
        try:
            state = factor_out(state, label)[1]
        except FactorizationError:
            pass
    return state


def _dead_probes(state, i, last_use):
    """Probes of the state past their last use after round i."""
    return [l for l in state.layout.labels if l != TRANSIT and last_use.get(l, -1) <= i]


def reference_sampling(config, attack):
    """Records of a sampled run driven through JointEvolution and engine.measure.

    Dead probes are dropped with factor_out; one that stays entangled with a
    live probe is kept, so the state grows for attacks that leave such probes.
    """
    rng = stream_rng(config.seed, 0)
    records = []
    evo = JointEvolution(attack)
    last_use = {l: attack.last_use(l, config.rounds) for l in attack.probe_labels}

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
        evo.state = _reference_drop(evo.state, [TRANSIT, *_dead_probes(evo.state, i, last_use)])

    return records


#: Born weights below this end a branch of reference_outcome_law: normalising
#: it would divide by nearly zero, and it adds less than this to any sequence
_NEGLIGIBLE = 1e-30


def _transit_outcomes(state, keep):
    """(outcome, Born weight, state collapsed onto it and renormalised) of the
    transit's Z outcomes above _NEGLIGIBLE, by projection; the collapsed
    state keeps the transit only when keep is set."""
    pos = state.layout.index(TRANSIT)
    rest = SubsystemLayout(
        state.layout.dims[:pos] + state.layout.dims[pos + 1 :],
        state.layout.labels[:pos] + state.layout.labels[pos + 1 :],
    )
    for k in (0, 1):
        branch = project(state, TRANSIT, k)
        if branch.weight >= _NEGLIGIBLE:
            amps = branch.amps if keep else reference_front(branch, [TRANSIT])[k]
            yield k, branch.weight, StateVector(
                branch.layout if keep else rest, amps / math.sqrt(branch.weight)
            )


def reference_outcome_law(attack, n_rounds):
    """{outcome codes: probability} of every choice pattern and outcome of an
    n_rounds run in reference_sampling's model, with each draw replaced by a
    projection onto every outcome in turn.

    A CTRL round's code is Bob's X outcome, read as H then a Z projection, and
    a SIFT round's 2 + 2*bit + z.  Bob's projection drops the transit, as
    factor_out does in reference_sampling; dead probes are dropped as there.
    A sequence's probability is the product of the conditional Born weights
    along it; a sequence through a negligible branch is left out.
    """
    last_use = {l: attack.last_use(l, n_rounds) for l in attack.probe_labels}
    law = {}

    def visit(state, i, codes, prob):
        if i == n_rounds:
            law[codes] = prob
            return
        evo = JointEvolution(attack)
        evo.state = state
        evo.start_round(i)
        backward = attack.backward_gate(i)
        # (code of Bob's outcome 0, weight, state before Bob's projection)
        arms = [(0, 1.0, apply_unitary(apply_gate(evo.state, backward), hadamard(), [TRANSIT]))]
        for bit, weight, sifted in _transit_outcomes(evo.state, keep=True):
            arms.append((2 + 2 * bit, weight, apply_gate(sifted, backward)))
        for base, weight, arm in arms:
            for k, w, rest in _transit_outcomes(arm, keep=False):
                rest = _reference_drop(rest, _dead_probes(rest, i, last_use))
                visit(rest, i + 1, codes + (base + k,), prob * weight * w)

    visit(JointEvolution(attack).state, 0, (), 1.0)
    return law


def _reference_pair_collapse(kraus, psi, u):
    """One Kraus step of a dim-2 live probe on Python complex lists."""
    p0, p1 = psi
    (a, b), (c, d) = kraus[0]
    branch = [a * p0 + b * p1, c * p0 + d * p1]
    norm = math.hypot(*map(abs, branch))
    idx = 0 if u < reference_outcome_threshold(norm * norm) else 1
    if idx:
        (a, b), (c, d) = kraus[1]
        branch = [a * p0 + b * p1, c * p0 + d * p1]
        norm = math.hypot(*map(abs, branch))
    if norm <= 0:
        raise InvalidState("cannot normalize a zero-weight branch")
    scale = 1.0 / norm
    return idx, [x * scale for x in branch]


def reference_pair_live(inst, psi, first, end, ctrl_prob, rng):
    """protocol._sample_live for a live probe of dim 2, stepped on Python
    complex lists whether or not the instrument is real."""
    alice, bob_z, bob_x = (m.tolist() for m in inst)
    psi = psi.tolist()
    codes = []
    r = first
    for block, starts in _round_draws(rng, end - first, ctrl_prob):
        u = block.tolist()
        for p in starts:
            if u[p] < ctrl_prob:
                code, psi = _reference_pair_collapse(bob_x, psi, u[p + 1])
            else:
                bit, psi = _reference_pair_collapse(alice, psi, u[p + 1])
                z, psi = _reference_pair_collapse(bob_z[bit], psi, u[p + 2])
                code = 2 + 2 * bit + z
            codes.append(code)
            norm = math.hypot(*map(abs, psi))
            if not abs(norm - 1.0) <= NORM_ATOL:
                raise InvalidState(f"live probe norm {norm!r} deviates from 1 in round {r}")
            r += 1
    return codes, np.asarray(psi, dtype=complex)


# ---------------------------------------------------------------------------
# Record-based classical phase and transcript writer
# ---------------------------------------------------------------------------


@dataclass
class RoundRecord:
    """One round as the transcript file spells it out, field by field."""

    index: int
    choice: str
    alice_bit: int | None = None
    role: str | None = None
    bob_x_outcome: str | None = None
    bob_z_outcome: int | None = None
    error: bool | None = None


def records(transcript):
    """One RoundRecord per round, read off the transcript's codes and Test mask.

    A code below 2 is a CTRL round: 0 read PLUS, 1 read MINUS, and -1 still
    pending.  Any other is a SIFT round: 2 + 2*alice_bit + bob_z_outcome, or
    6 still pending.  Once roles are set, a CTRL round is Ctrl and errs on
    MINUS, and a SIFT round is Test, erring when its two bits differ, or Key;
    before, no round has a role or an error.
    """
    out = []
    for i, code in enumerate(transcript.codes.tolist()):
        rec = RoundRecord(index=i, choice=CTRL if code < 2 else SIFT)
        if code in (0, 1):
            rec.bob_x_outcome = PLUS if code == 0 else MINUS
        elif 2 <= code <= 5:
            rec.alice_bit, rec.bob_z_outcome = divmod(code - 2, 2)
        if transcript.test is not None:
            if rec.choice == CTRL:
                rec.role, rec.error = ROLE_CTRL, rec.bob_x_outcome == MINUS
            elif transcript.test[i]:
                rec.role, rec.error = ROLE_TEST, rec.alice_bit != rec.bob_z_outcome
            else:
                rec.role = ROLE_KEY
        out.append(rec)
    return out


def reference_classical_phase(config, records, final_state, rng):
    """The classical phase on RoundRecords: completes them in place and counts.

    In exact mode each record's qubits are measured out of final_state in
    round order; then the SIFT rounds are split into Test and Key with one
    rng.choice, and each record gets its role and error.
    """
    if config.mode == MODE_EXACT:
        state = final_state
        for rec in records:
            if rec.choice == CTRL:
                rec.bob_x_outcome, state, _ = measure_out(state, bob_memory(rec.index), "x", rng)
            else:
                bit, state, _ = measure_out(state, alice_probe(rec.index), "z", rng)
                rec.alice_bit = int(bit)
                outcome, state, _ = measure_out(state, bob_memory(rec.index), "z", rng)
                rec.bob_z_outcome = int(outcome)

    sift_indices = [r.index for r in records if r.choice == SIFT]
    n_test = int(round(config.test_fraction * len(sift_indices)))
    test_set = set()
    if n_test:
        picks = rng.choice(len(sift_indices), size=n_test, replace=False)
        test_set = {sift_indices[p] for p in picks}

    for rec in records:
        if rec.choice == CTRL:
            rec.role = ROLE_CTRL
            rec.error = rec.bob_x_outcome == MINUS
        elif rec.index in test_set:
            rec.role = ROLE_TEST
            rec.error = rec.alice_bit != rec.bob_z_outcome
        else:
            rec.role = ROLE_KEY
            rec.error = None
    return reference_stats(records, config.abort_threshold)


def reference_stats(records, abort_threshold):
    """Statistics counted record by record from the roles and error flags."""
    n = {ROLE_CTRL: 0, ROLE_TEST: 0, ROLE_KEY: 0}
    errors = dict(n)
    key_alice, key_bob = "", ""
    for r in records:
        n[r.role] += 1
        errors[r.role] += bool(r.error)
        if r.role == ROLE_KEY:
            key_alice += str(r.alice_bit)
            key_bob += str(r.bob_z_outcome)
    ctrl_rate = errors[ROLE_CTRL] / n[ROLE_CTRL] if n[ROLE_CTRL] else 0.0
    test_rate = errors[ROLE_TEST] / n[ROLE_TEST] if n[ROLE_TEST] else 0.0
    mismatches = sum(map(ne, key_alice, key_bob))
    return RunStats(
        n_ctrl=n[ROLE_CTRL],
        n_test=n[ROLE_TEST],
        n_key=n[ROLE_KEY],
        ctrl_errors=errors[ROLE_CTRL],
        test_errors=errors[ROLE_TEST],
        ctrl_error_rate=ctrl_rate,
        test_error_rate=test_rate,
        key_alice=key_alice,
        key_bob=key_bob,
        key_mismatch_rate=mismatches / n[ROLE_KEY] if n[ROLE_KEY] else 0.0,
        aborted=bool(ctrl_rate > abort_threshold or test_rate > abort_threshold),
    )


#: a record's fields after its index, the key of its cached line tail
_RECORD_TAIL = attrgetter("choice", "alice_bit", "role", "bob_x_outcome", "bob_z_outcome", "error")


def reference_write_transcript(path, config, records, header_extra=None):
    """The transcript file from RoundRecords: a header line with the config,
    then json.dumps(vars(rec)) per record, its text after the index cached
    per distinct tuple of the other fields."""
    header = asdict(config)
    if header_extra:
        header.update(header_extra)
    lines = [json.dumps(header)]
    tails = {}
    for rec in records:
        head = '{"index": ' + str(rec.index)
        key = _RECORD_TAIL(rec)
        if key not in tails:
            tails[key] = json.dumps(vars(rec))[len(head) :]
        lines.append(head + tails[key])
    lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
