import math

import numpy as np
import pytest

from sqkd import analysis, protocol
from sqkd.attacks import (
    ATTACK_NAMES,
    AttackSpec,
    Gate,
    RoundTemplate,
    build_attack,
    cnot_parity_attack,
    identity_attack,
    measure_resend_z_attack,
    phase_probe_attack,
    swap_attack,
)
from sqkd.engine import (
    StateVector,
    SubsystemLayout,
    Unitary,
    apply_unitary,
    cnot,
    controlled,
    hadamard,
    ket_zero,
    partial_trace,
    project,
    purity,
    rotation,
    trivial_state,
)
from sqkd.errors import (
    DuplicateRound,
    InvalidState,
    ParamOutOfRange,
    UnknownAttack,
)
from sqkd.protocol import (
    MODE_EXACT,
    JointEvolution,
    ProtocolConfig,
    classical_phase,
    run_protocol,
)

from helpers import explicit_measure_resend_z_attack, explicit_swap_attack, identity_gate, records


def run_stats(attack, rounds, seed=0, ctrl_prob=0.5, test_fraction=0.5):
    cfg = ProtocolConfig(
        rounds=rounds, ctrl_prob=ctrl_prob, test_fraction=test_fraction, seed=seed
    )
    transcript = run_protocol(cfg, attack)
    return classical_phase(transcript)


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------


def test_identity_attack_is_empty():
    att = identity_attack()
    assert att.probe_dims == (1,)
    assert all(att.forward_gate(i) is None for i in range(10))
    assert all(att.backward_gate(i) is None for i in range(10))


def test_every_builtin_validates_at_construction():
    for att in (
        identity_attack(),
        cnot_parity_attack(),
        measure_resend_z_attack(3),
        swap_attack(3),
        phase_probe_attack(1.0),
    ):
        for i in range(4):
            for gate in (att.forward_gate(i), att.backward_gate(i)):
                if gate is None:
                    continue
                d = gate.unitary.dim
                defect = np.linalg.norm(
                    gate.unitary.entries.conj().T @ gate.unitary.entries - np.eye(d)
                )
                assert defect < 1e-9
        for label in att.probe_labels:
            assert abs(np.linalg.norm(att.probe_factor(label).amps) - 1) < 1e-10


def test_cnot_parity_duplicate_round():
    with pytest.raises(DuplicateRound):
        cnot_parity_attack((2, 2))


def test_phase_probe_param_range():
    with pytest.raises(ParamOutOfRange):
        phase_probe_attack(-0.1)
    with pytest.raises(ParamOutOfRange):
        phase_probe_attack(math.pi + 0.1)
    phase_probe_attack(0.0)
    phase_probe_attack(math.pi)


def test_gate_must_target_transit():
    with pytest.raises(InvalidState):
        Gate(hadamard(), ("E0",))


def test_attack_gates_must_reference_probe_labels():
    with pytest.raises(InvalidState):
        AttackSpec(
            name="bad",
            probe_dims=(1,),
            probe_factors=(trivial_state("E0"),),
            forward={0: Gate(identity_gate(4), ("T", "E7"))},
        )


def test_probe_dims_must_match_the_factors():
    with pytest.raises(InvalidState, match=r"\(5,\).*\(2,\)"):
        AttackSpec(
            name="x",
            probe_dims=(5,),
            probe_factors=(ket_zero("E0"),),
            default_forward=Gate(cnot(), ("T", "E0")),
        )


def test_build_attack_registry():
    assert set(ATTACK_NAMES) == {
        "identity",
        "cnot_parity",
        "measure_resend_z",
        "swap",
        "phase_probe",
    }
    att = build_attack("phase_probe", params={"theta": 0.4})
    assert np.array_equal(att.forward_gate(0).unitary.entries, controlled(rotation(0.4)).entries)
    with pytest.raises(UnknownAttack):
        build_attack("telepathy")
    with pytest.raises(ParamOutOfRange):
        build_attack("phase_probe")


def test_build_attack_rejects_params_the_attack_does_not_take():
    with pytest.raises(ParamOutOfRange, match="bogus"):
        build_attack("phase_probe", params={"theta": 0.5, "bogus": 3})
    for name in ("identity", "cnot_parity", "measure_resend_z", "swap"):
        with pytest.raises(ParamOutOfRange):
            build_attack(name, params={"theta": 0.5})
    with pytest.raises(UnknownAttack):
        build_attack("telepathy", params={"bogus": 1})


def test_cnot_parity_rejects_negative_rounds():
    with pytest.raises(ParamOutOfRange):
        build_attack("cnot_parity", rounds=(-1, 50))
    with pytest.raises(ParamOutOfRange):
        cnot_parity_attack((2, -3))


def test_build_attack_checks_the_attacked_rounds():
    # the pairs `sqkd run` refuses, refused here, where the rule lives
    for rounds in ([0, 400], [399, 400], [-1, 3], [0], [0, 1, 2], [0.5, 1], ["0", "1"],
                   [True, 2], 3, (5, 5)):
        with pytest.raises((ParamOutOfRange, DuplicateRound)):
            build_attack("cnot_parity", n_rounds=400, rounds=rounds)
    with pytest.raises(ParamOutOfRange, match=r"attack rounds \[0, 400\] name a round beyond"):
        build_attack("cnot_parity", n_rounds=400, rounds=[0, 400])
    with pytest.raises(ParamOutOfRange, match="list of two ints, got 3$"):
        cnot_parity_attack(3)
    with pytest.raises(ParamOutOfRange, match=r"must be >= 0, got \(-1, 3\)$"):
        build_attack("cnot_parity", n_rounds=400, rounds=[-1, 3])
    for rounds in ([398, 399], (398, 399), (np.int64(398), np.int8(99))):
        att = build_attack("cnot_parity", n_rounds=400, rounds=rounds)
        assert sorted(att.forward) == sorted(map(int, rounds))
    # the pair must fit the run, and n_rounds defaults to one round
    with pytest.raises(ParamOutOfRange, match="beyond the run's 1 rounds"):
        build_attack("cnot_parity", rounds=(0, 1))
    assert sorted(build_attack("cnot_parity", n_rounds=2, rounds=(1, 0)).forward) == [0, 1]
    assert sorted(build_attack("cnot_parity").forward) == [0, 1]
    # the other attacks ignore the attacked rounds, whatever their form
    for rounds in (3, [0, 400], "x"):
        assert build_attack("identity", n_rounds=400, rounds=rounds).forward == {}
        assert build_attack("swap", n_rounds=4, rounds=rounds).probe_dims == (2,) * 4


def test_last_use_map():
    def last_use(att, n_rounds):
        return {l: att.last_use(l, n_rounds) for l in att.probe_labels}

    assert last_use(cnot_parity_attack((1, 3)), 6) == {"E0": 3}
    assert last_use(phase_probe_attack(0.5), 6) == {"E0": 5}
    assert last_use(measure_resend_z_attack(2), 2) == {"E0": 0, "E1": 1}


# ---------------------------------------------------------------------------
# Round templates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build,oracle",
    [
        (measure_resend_z_attack, explicit_measure_resend_z_attack),
        (swap_attack, explicit_swap_attack),
    ],
    ids=["measure_resend_z", "swap"],
)
def test_templated_attacks_match_explicit_oracles(build, oracle):
    for n in range(1, 5):
        att, ref = build(n), oracle(n)
        assert att.probe_dims == ref.probe_dims
        for rounds in (n, n + 3):  # rounds past the register take no gates
            for label in att.probe_labels:
                assert att.last_use(label, rounds) == ref.last_use(label, rounds)
            for seed in range(3):
                for ctrl_prob in (0.0, 0.3, 1.0):
                    cfg = ProtocolConfig(rounds=rounds, ctrl_prob=ctrl_prob, seed=seed)
                    assert records(run_protocol(cfg, att)) == records(run_protocol(cfg, ref))
        cfg = ProtocolConfig(rounds=n, seed=n, mode=MODE_EXACT)
        got, want = run_protocol(cfg, att), run_protocol(cfg, ref)
        assert records(got) == records(want)
        assert got.final_state.layout == want.final_state.layout
        assert np.array_equal(got.final_state.amps, want.final_state.amps)
        assert analysis.theorem_check(att, max_pattern_len=n) == analysis.theorem_check(
            ref, max_pattern_len=n
        )
        for pattern in ("S" * n, "C" * (n - 1) + "S"):
            assert analysis.eve_leakage(att, pattern) == analysis.eve_leakage(ref, pattern)
    cfg = ProtocolConfig(rounds=500, seed=5)
    assert records(run_protocol(cfg, build(500))) == records(run_protocol(cfg, oracle(500)))


def test_template_construction_is_validated():
    probe = ket_zero("E0")
    with pytest.raises(InvalidState):
        RoundTemplate(probe, forward=hadamard())  # acts on T alone, not (T, probe)
    with pytest.raises(InvalidState):
        AttackSpec(
            name="bad",
            probe_dims=(2, 2),
            template=RoundTemplate(probe, forward=cnot()),
            default_forward=Gate(cnot(), ("T", "E0")),
        )
    with pytest.raises(InvalidState):
        AttackSpec(
            name="bad",
            probe_dims=(2,),
            probe_factors=(probe,),
            template=RoundTemplate(probe, forward=cnot()),
        )
    with pytest.raises(InvalidState):
        AttackSpec(name="bad", probe_dims=(2, 3), template=RoundTemplate(probe, forward=cnot()))
    with pytest.raises(InvalidState):
        AttackSpec(
            name="bad",
            probe_dims=(2, 2),
            forward={0: Gate(cnot(), ("T", "E2"))},
            template=RoundTemplate(probe, forward=cnot()),
        )


# ---------------------------------------------------------------------------
# cnot_parity behavior
# ---------------------------------------------------------------------------


def test_cnot_parity_probe_holds_parity():
    # reflect both qubits, then read each computational branch of Bob's memory
    evo = JointEvolution(cnot_parity_attack())
    evo.run_round(0, protocol.CTRL)
    evo.run_round(1, protocol.CTRL)
    final = evo.state
    for b0 in (0, 1):
        for b1 in (0, 1):
            branch = project(project(final, "B0", b0), "B1", b1)
            probe = project(branch, "E0", (b0 + b1) % 2)
            assert abs(probe.weight - branch.weight) < 1e-12
            assert abs(branch.weight - 0.25) < 1e-12


def test_cnot_parity_bob_state_is_not_a_product():
    evo = JointEvolution(cnot_parity_attack())
    evo.run_round(0, protocol.CTRL)
    evo.run_round(1, protocol.CTRL)
    rho = partial_trace(evo.state, ["B0", "B1"])
    assert abs(purity(rho) - 0.5) < 1e-9


def test_cnot_parity_joint_x_outcomes():
    # exact Born weights of the four X⊗X outcomes: only ++ and --, each 1/2
    evo = JointEvolution(cnot_parity_attack())
    evo.run_round(0, protocol.CTRL)
    evo.run_round(1, protocol.CTRL)
    rotated = apply_unitary(
        apply_unitary(evo.state, hadamard(), ["B0"]), hadamard(), ["B1"]
    )
    weights = {
        (x0, x1): project(project(rotated, "B0", x0), "B1", x1).weight
        for x0 in (0, 1)
        for x1 in (0, 1)
    }
    assert abs(weights[(0, 0)] - 0.5) < 1e-12
    assert abs(weights[(1, 1)] - 0.5) < 1e-12
    assert weights[(0, 1)] < 1e-12 and weights[(1, 0)] < 1e-12


# ---------------------------------------------------------------------------
# measure_resend_z behavior
# ---------------------------------------------------------------------------


def test_measure_resend_z_rates():
    stats = run_stats(measure_resend_z_attack(4000), rounds=4000, seed=5)
    assert stats.test_error_rate == 0.0
    assert abs(stats.ctrl_error_rate - 0.5) < 0.04
    assert stats.aborted


def test_measure_resend_z_leakage_is_total():
    leak = analysis.eve_leakage(measure_resend_z_attack(1), "S")
    assert abs(leak.per_bit_trace_distance[0] - 1.0) < 1e-9


def test_deferred_probe_measurement_equivalence():
    # Measuring Eve's probe right after the forward CNOT and continuing
    # classically must reproduce the coherent-probe statistics exactly.
    att = measure_resend_z_attack(1)
    evo = JointEvolution(att)
    evo.start_round(0)
    post_forward = evo.state

    # coherent path: joint distribution over (alice_bit, bob_z) on SIFT.
    # Alice's measurement happens on the transit itself in sampling mode;
    # enumerate her outcome, then Bob's (backward is identity here).
    coherent_sift = {}
    for a in (0, 1):
        after_alice = project(post_forward, "T", a)
        for b in (0, 1):
            coherent_sift[(a, b)] = project(after_alice, "T", b).weight
    # explicit mid-protocol probe measurement: condition on the probe first
    explicit_sift = {k: 0.0 for k in coherent_sift}
    for e in (0, 1):
        probe_branch = project(post_forward, "E0", e)
        for a in (0, 1):
            after_alice = project(probe_branch, "T", a)
            for b in (0, 1):
                explicit_sift[(a, b)] += project(after_alice, "T", b).weight
    for k in coherent_sift:
        assert abs(coherent_sift[k] - explicit_sift[k]) < 1e-12

    # CTRL leg: P(minus) with and without the probe conditioning
    rotated = apply_unitary(post_forward, hadamard(), ["T"])
    p_minus_coherent = project(rotated, "T", 1).weight
    p_minus_explicit = sum(
        project(apply_unitary(project(post_forward, "E0", e), hadamard(), ["T"]), "T", 1).weight
        for e in (0, 1)
    )
    assert abs(p_minus_coherent - p_minus_explicit) < 1e-12


# ---------------------------------------------------------------------------
# swap behavior
# ---------------------------------------------------------------------------


def test_swap_rates():
    stats = run_stats(swap_attack(4000), rounds=4000, seed=6)
    assert stats.ctrl_error_rate == 0.0
    assert abs(stats.test_error_rate - 0.5) < 0.04
    assert stats.aborted


def test_swap_leakage_is_total():
    leak = analysis.eve_leakage(swap_attack(1), "S")
    assert abs(leak.per_bit_trace_distance[0] - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# phase_probe behavior
# ---------------------------------------------------------------------------


def test_phase_probe_zero_matches_identity():
    rep = analysis.theorem_check(phase_probe_attack(0.0), max_pattern_len=3)
    assert rep.max_residual == 0.0
    assert rep.max_leakage <= 1e-12
    assert rep.passed


def test_phase_probe_half_pi_single_sift():
    leak = analysis.eve_leakage(phase_probe_attack(math.pi / 2), "S")
    assert abs(leak.per_bit_trace_distance[0] - 1.0) < 1e-9


def test_phase_probe_ctrl_error_curve_continuous():
    thetas = np.arange(0.0, math.pi + 1e-9, 0.1)
    ctrl = []
    leak = []
    for th in thetas:
        att = phase_probe_attack(float(th))
        ctrl.append(analysis.constraint_check(att, 0).ctrl_error_prob)
        leak.append(analysis.eve_leakage(att, "S").per_bit_trace_distance[0])
    assert ctrl[0] == 0.0 and leak[0] == 0.0
    for a, b in zip(ctrl, ctrl[1:]):
        assert abs(b - a) < 0.06
    for a, b in zip(leak, leak[1:]):
        assert abs(b - a) < 0.11
    np.testing.assert_allclose(ctrl, (1 - np.cos(thetas)) / 2, atol=1e-9)
    np.testing.assert_allclose(leak, np.abs(np.sin(thetas)), atol=1e-9)


def _two_qubit_probe():
    return StateVector(SubsystemLayout((2, 2), ("E0", "E1")), np.eye(4)[0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: Gate(cnot(), ("T", "T")),
        lambda: RoundTemplate(_two_qubit_probe(), forward=Unitary(np.eye(8))),
        lambda: AttackSpec(
            name="x",
            probe_dims=(2, 2),
            probe_factors=(_two_qubit_probe(), ket_zero("E1")),
        ),
        lambda: AttackSpec(name="x", probe_dims=(2, 2), probe_factors=(ket_zero("E0"),)),
        lambda: identity_attack().probe_factor("E7"),
    ],
    ids=[
        "repeated-gate-targets",
        "template-probe-of-two-subsystems",
        "label-in-two-factors",
        "factors-miss-a-label",
        "unknown-probe-factor",
    ],
)
def test_attacks_refuse_malformed_input(call):
    with pytest.raises(InvalidState):
        call()
