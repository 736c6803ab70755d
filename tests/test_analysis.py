import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqkd.analysis import (
    _joint_blocks,
    _leakage_from_final,
    _walk_patterns,
    constraint_check,
    constraint_reports,
    default_patterns,
    eve_leakage,
    exact_rate_expectations,
    holevo_bound,
    product_structure_check,
    theorem_check,
    von_neumann_entropy,
)
from sqkd.attacks import (
    ATTACK_NAMES,
    AttackSpec,
    Gate,
    build_attack,
    cnot_parity_attack,
    identity_attack,
    measure_resend_z_attack,
    phase_probe_attack,
    swap_attack,
)
from sqkd.engine import (
    DensityMatrix,
    SubsystemLayout,
    _front,
    ket_plus,
    ket_zero,
    random_state,
    random_unitary,
    single,
)
from sqkd.errors import ExactCapExceeded
from sqkd.protocol import CTRL, JointEvolution, SIFT

from helpers import (
    dead_probe_entangler_attack,
    probe_decoupled_attack,
    reference_constraint_check,
    reference_eve_leakage,
    reference_front,
    reference_joint_blocks,
    reference_leakage_from_final,
    reference_rate_expectations,
    reference_theorem_check,
    transit_phase_attack,
)


# ---------------------------------------------------------------------------
# Independent one-round oracle (plain numpy, no engine machinery)
# ---------------------------------------------------------------------------


def oracle_one_round(forward, backward, probe_init):
    """Brute-force (test_err, ctrl_err) for a single round.

    Works on raw arrays over (transit ⊗ probe), column-major free: index
    t*d + e with t the transit bit.  forward/backward are 2d x 2d matrices
    (None for identity).
    """
    d = len(probe_init)
    plus = np.array([1, 1]) / math.sqrt(2)
    state = np.kron(plus, probe_init)
    if forward is not None:
        state = forward @ state
    branch = {b: state.reshape(2, d)[b] for b in (0, 1)}

    test_err = 0.0
    f_vecs = {}
    for b in (0, 1):
        v = np.zeros(2 * d, dtype=complex)
        v.reshape(2, d)[b] = branch[b]
        if backward is not None:
            v = backward @ v
        test_err += np.linalg.norm(v.reshape(2, d)[1 - b]) ** 2
        f_vecs[b] = v.reshape(2, d)[b]

    ctrl = state.copy()
    if backward is not None:
        ctrl = backward @ ctrl
    minus_component = (ctrl.reshape(2, d)[0] - ctrl.reshape(2, d)[1]) / math.sqrt(2)
    ctrl_err = np.linalg.norm(minus_component) ** 2
    f_dist = np.linalg.norm(f_vecs[0] - f_vecs[1])
    return float(test_err), float(ctrl_err), float(f_dist)


CNOT = np.eye(4)[[0, 1, 3, 2]]
SWAP = np.eye(4)[[0, 2, 1, 3]]


@pytest.mark.parametrize(
    "attack,forward,backward,probe_init",
    [
        (identity_attack(), None, None, np.array([1.0])),
        (measure_resend_z_attack(1), CNOT, None, np.array([1.0, 0.0])),
        (swap_attack(1), SWAP, SWAP, np.array([1.0, 1.0]) / math.sqrt(2)),
        (cnot_parity_attack(), CNOT, None, np.array([1.0, 0.0])),
        (
            phase_probe_attack(0.7),
            np.block(
                [
                    [np.eye(2), np.zeros((2, 2))],
                    [
                        np.zeros((2, 2)),
                        np.array(
                            [
                                [math.cos(0.7), -math.sin(0.7)],
                                [math.sin(0.7), math.cos(0.7)],
                            ]
                        ),
                    ],
                ]
            ),
            None,
            np.array([1.0, 0.0]),
        ),
    ],
)
def test_constraint_check_matches_oracle(attack, forward, backward, probe_init):
    want_test, want_ctrl, want_f = oracle_one_round(forward, backward, probe_init)
    rep = constraint_check(attack, 0)
    assert abs(rep.test_residual - want_test) < 1e-12
    assert abs(rep.ctrl_error_prob - want_ctrl) < 1e-12
    assert abs(rep.f_distance - want_f) < 1e-12


def test_constraint_check_matches_oracle_on_random_attacks():
    rng = np.random.default_rng(71)
    for seed in range(10):
        u_f = random_unitary(4, rng)
        u_b = random_unitary(4, rng)
        init = random_state(SubsystemLayout((2,), ("E0",)), rng)
        att = AttackSpec(
            name="random4",
            probe_dims=(2,),
            probe_factors=(init,),
            forward={0: Gate(u_f, ("T", "E0"))},
            backward={0: Gate(u_b, ("T", "E0"))},
        )
        want = oracle_one_round(u_f.entries, u_b.entries, init.amps)
        rep = constraint_check(att, 0)
        assert abs(rep.test_residual - want[0]) < 1e-12
        assert abs(rep.ctrl_error_prob - want[1]) < 1e-12
        assert abs(rep.f_distance - want[2]) < 1e-12


# ---------------------------------------------------------------------------
# constraint_check examples
# ---------------------------------------------------------------------------


def test_constraint_identity_all_zero():
    rep = constraint_check(identity_attack(), 0)
    assert rep.test_residual == 0.0
    assert rep.ctrl_error_prob == 0.0
    assert rep.f_distance == 0.0


@pytest.mark.parametrize("theta", [0.0, 0.5, math.pi / 3, math.pi / 2, math.pi])
def test_constraint_phase_probe_closed_forms(theta):
    rep = constraint_check(phase_probe_attack(theta), 0)
    assert rep.test_residual < 1e-12
    assert abs(rep.ctrl_error_prob - (1 - math.cos(theta)) / 2) < 1e-9
    assert abs(rep.f_distance - math.sqrt(max(1 - math.cos(theta), 0.0))) < 1e-9


def test_constraint_phase_probe_later_rounds_and_prefixes():
    theta = 0.8
    att = phase_probe_attack(theta)
    expected = (1 - math.cos(theta)) / 2
    for prefix in ("", "C", "S", "CC", "CS", "SC", "SS"):
        rep = constraint_reports(att, prefix + "C")[-1]
        assert abs(rep.ctrl_error_prob - expected) < 1e-9
        assert rep.test_residual < 1e-12


def test_constraint_swap():
    rep = constraint_check(swap_attack(1), 0)
    assert abs(rep.test_residual - 0.5) < 1e-12
    assert rep.ctrl_error_prob < 1e-12


def test_constraint_check_refuses_a_negative_round():
    for round_index in (-1, -2):
        with pytest.raises(ValueError, match=f"round_index must be >= 0, got {round_index}$"):
            constraint_check(identity_attack(), round_index)


def test_constraint_rejects_letters_other_than_c_and_s():
    for prefix in ("x", "X", "1"):
        with pytest.raises(ValueError):
            constraint_reports(identity_attack(), prefix + "C")
    with pytest.raises(ValueError):
        constraint_reports(identity_attack(), "CT" + "C")


def test_constraint_rejects_rounds_past_the_exact_cap():
    with pytest.raises(ExactCapExceeded):
        constraint_check(identity_attack(), 8)


@pytest.mark.parametrize(
    "att",
    [
        identity_attack(),
        phase_probe_attack(0.7),
        swap_attack(5),
        measure_resend_z_attack(5),
        cnot_parity_attack(),
        probe_decoupled_attack(3, dim=3),
        dead_probe_entangler_attack(5),
    ],
    ids=lambda att: att.name,
)
def test_constraint_check_matches_reference(att):
    # every prefix up to length 4, in both cases
    for prefix in [""] + default_patterns(4):
        expected = reference_constraint_check(att, len(prefix), prefix)
        for given in (prefix, prefix.lower()):
            assert constraint_reports(att, given + "C")[-1] == expected, given


@pytest.mark.parametrize("name", ATTACK_NAMES)
def test_constraint_reports_are_the_per_round_checks(name):
    params = {"theta": 0.7} if name == "phase_probe" else None
    att = build_attack(name, params=params, n_rounds=6)
    assert constraint_reports(att, "C" * 6) == [constraint_check(att, i) for i in range(6)]


# ---------------------------------------------------------------------------
# Leakage
# ---------------------------------------------------------------------------


def test_leakage_identity_all_patterns():
    att = identity_attack()
    for pattern in default_patterns(4):
        rep = eve_leakage(att, pattern)
        assert all(td == 0.0 for td in rep.per_bit_trace_distance)
        assert rep.holevo_bound == 0.0
        assert rep.max_leakage == 0.0


def test_leakage_measure_resend_single_round():
    rep = eve_leakage(measure_resend_z_attack(1), "S")
    assert rep.per_bit_trace_distance == (1.0,)
    assert abs(rep.holevo_bound - 1.0) < 1e-9


def test_leakage_phase_probe_single_round():
    theta = math.pi / 3
    rep = eve_leakage(phase_probe_attack(theta), "S")
    assert abs(rep.per_bit_trace_distance[0] - math.sin(theta)) < 1e-9


def test_leakage_phase_probe_two_rounds():
    # conditional probe states differ by one extra rotation; mixing over the
    # other bit gives per-bit distance sin θ cos θ
    theta = 0.9
    rep = eve_leakage(phase_probe_attack(theta), "SS")
    expected = math.sin(theta) * math.cos(theta)
    for td in rep.per_bit_trace_distance:
        assert abs(td - expected) < 1e-9


def test_leakage_cnot_parity_patterns():
    att = cnot_parity_attack()
    # a single sifted round copies Alice's bit into the probe outright
    assert abs(eve_leakage(att, "S").per_bit_trace_distance[0] - 1.0) < 1e-9
    # with both rounds sifted the probe keeps only the parity: the marginal
    # of each individual bit carries nothing
    rep = eve_leakage(att, "SS")
    assert all(td < 1e-9 for td in rep.per_bit_trace_distance)
    assert abs(rep.holevo_bound - 1.0) < 1e-9  # the parity is one full bit


def test_leakage_pattern_validation():
    with pytest.raises(ValueError):
        eve_leakage(identity_attack(), "CX")
    with pytest.raises(ExactCapExceeded):
        eve_leakage(identity_attack(), "C" * 9)


def _oracle_conditional_state(final, bits, e_labels):
    """(weight, Eve's state) given Alice's probes read bits, a {label: bit} map.

    Conditions by an explicit projector on the full density matrix, then
    traces down to Eve's subsystems with a doubled-index contraction.
    """
    dims = final.layout.dims
    n = len(dims)
    e_pos = [final.layout.index(l) for l in e_labels]
    rho = np.outer(final.amps, final.amps.conj())
    diag = np.ones(1)
    for label, d in zip(final.layout.labels, dims):
        diag = np.kron(diag, np.eye(d)[bits[label]] if label in bits else np.ones(d))
    cond = rho * np.outer(diag, diag)  # P rho P for the diagonal projector P
    weight = np.trace(cond).real
    t = cond.reshape(dims + dims)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    row = list(letters[:n])
    col = [letters[n + i] if i in e_pos else row[i] for i in range(n)]
    spec = "".join(row) + "".join(col) + "->" + "".join(
        [row[p] for p in e_pos] + [col[p] for p in e_pos]
    )
    d_e = int(np.prod([dims[p] for p in e_pos]))
    return weight, np.einsum(spec, t).reshape(d_e, d_e) / weight


def _scrambler_attack(seed, dim):
    """Random unitaries on (transit, probe) on both legs: detectable and leaky."""
    rng = np.random.default_rng(seed)
    gates = [Gate(random_unitary(2 * dim, rng), ("T", "E0")) for _ in range(2)]
    return AttackSpec(
        name=f"scrambler_d{dim}",
        probe_dims=(dim,),
        probe_factors=(random_state(SubsystemLayout((dim,), ("E0",)), rng),),
        default_forward=gates[0],
        default_backward=gates[1],
    )


# per-round-probe attacks hold three qubits a round, so their patterns stay at
# three rounds to keep the full density matrix small
ORACLE_CASES = [
    ("phase", phase_probe_attack(0.9), ["S", "SS", "SC", "CS", "SCSS"]),
    ("parity", cnot_parity_attack(), ["S", "SS", "SC", "CS", "SCSS"]),
    ("swap", swap_attack(3), ["SS", "CSS", "SCS", "SSS"]),
    ("measure_resend_z", measure_resend_z_attack(3), ["SS", "CSS", "SCS", "SSS"]),
    ("decoupled_d3", probe_decoupled_attack(5, dim=3), ["SS", "SCS", "SSCS"]),
    ("scrambler_d3", _scrambler_attack(8, dim=3), ["S", "SS", "SCS", "SSCS"]),
]


@pytest.mark.parametrize(
    "att,pattern",
    [
        pytest.param(att, pattern, id=f"{name}-{pattern}")
        for name, att, patterns in ORACLE_CASES
        for pattern in patterns
    ],
)
def test_leakage_matches_density_matrix_oracle(att, pattern):
    evo = JointEvolution(att)
    for i, ch in enumerate(pattern):
        evo.run_round(i, CTRL if ch == "C" else SIFT)
    final = evo.state
    e_labels = [l for l in final.layout.labels if l.startswith("E")]
    rep = eve_leakage(att, pattern)
    sifted = [f"A{i}" for i, ch in enumerate(pattern) if ch == "S"]
    assert len(rep.per_bit_trace_distance) == len(sifted)
    for td, label in zip(rep.per_bit_trace_distance, sifted):
        (_, rho0), (_, rho1) = (
            _oracle_conditional_state(final, {label: b}, e_labels) for b in (0, 1)
        )
        want = 0.5 * np.abs(np.linalg.svd(rho0 - rho1, compute_uv=False)).sum()
        assert abs(td - want) < 1e-9
    ensemble = []
    for bits in itertools.product((0, 1), repeat=len(sifted)):
        weight, rho = _oracle_conditional_state(final, dict(zip(sifted, bits)), e_labels)
        if weight > 1e-12:
            ensemble.append((weight, DensityMatrix(rho)))
    assert abs(rep.holevo_bound - holevo_bound(ensemble)) < 1e-9


def test_leakage_memory_stays_near_the_final_state():
    # the final state holds 2^18 amplitudes (4 MiB); conditioning it branch by
    # branch would hold one full copy per joint assignment of the 6 bits
    tracemalloc.start()
    try:
        rep = eve_leakage(swap_attack(6), "S" * 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(rep.holevo_bound - 6.0) < 1e-9
    assert peak < 8 * 2**18 * 16


def test_leakage_reads_one_joint_bit_slice_at_a_time():
    # beside the final state (2^18 amplitudes), leakage holds its Gram blocks
    # and one slice per joint value of the bits; a reordered copy of the whole
    # state would peak above 3 final states
    tracemalloc.start()
    try:
        rep = eve_leakage(swap_attack(6), "S" * 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(rep.holevo_bound - 6.0) < 1e-9
    assert peak < 2.4 * 2**18 * 16


def test_constraint_walk_reads_residuals_through_views():
    # the last SIFT round holds its input and its output, the final state of
    # 2^18 amplitudes; reading the residuals off a reordered copy of that
    # output would peak near 2.8 final states
    tracemalloc.start()
    try:
        reports = constraint_reports(swap_attack(6), "S" * 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(abs(r.test_residual - 0.5) < 1e-9 for r in reports)
    assert peak < 2.0 * 2**18 * 16


# ---------------------------------------------------------------------------
# Entropy and Holevo
# ---------------------------------------------------------------------------


def test_entropy_values():
    a = ket_plus("q").amps
    assert von_neumann_entropy(DensityMatrix(np.outer(a, a.conj()))) < 1e-12
    assert abs(von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) - 1.0) < 1e-12


def test_holevo_values():
    r0, r1, rp = (
        DensityMatrix(np.outer(a, a.conj()))
        for a in (ket_zero("q").amps, single("q", [0, 1]).amps, ket_plus("q").amps)
    )
    assert abs(holevo_bound([(0.5, r0), (0.5, r1)]) - 1.0) < 1e-12
    lam = (1 + math.cos(math.pi / 4)) / 2
    expected = -(lam * math.log2(lam) + (1 - lam) * math.log2(1 - lam))
    assert abs(holevo_bound([(0.5, r0), (0.5, rp)]) - expected) < 1e-9
    assert holevo_bound([(1.0, r0)]) == 0.0


# ---------------------------------------------------------------------------
# theorem_check
# ---------------------------------------------------------------------------


def test_theorem_identity_passes_exactly():
    rep = theorem_check(identity_attack(), max_pattern_len=4)
    assert rep.max_residual == 0.0
    assert rep.max_leakage == 0.0
    assert rep.passed


def test_theorem_phase_probe_vacuous_pass():
    rep = theorem_check(phase_probe_attack(0.3), max_pattern_len=4)
    assert abs(rep.max_residual - (1 - math.cos(0.3)) / 2) < 1e-6
    assert rep.max_residual > 1e-9
    assert abs(rep.max_leakage - math.sin(0.3)) < 1e-9
    assert rep.passed


@pytest.mark.parametrize(
    "phi", [0.0] + list(np.random.default_rng(404).uniform(0.1, math.pi, size=4))
)
def test_theorem_transit_phase_family(phi):
    # phase kicks on the transit alone leak nothing; CTRL flags them unless phi=0
    rep = theorem_check(transit_phase_attack(phi), max_pattern_len=3)
    assert abs(rep.max_residual - (1 - math.cos(phi)) / 2) < 1e-9
    assert rep.max_leakage <= 1e-12
    assert rep.passed
    if phi == 0.0:
        assert rep.max_residual == 0.0 and rep.max_leakage == 0.0


def test_theorem_rejects_verdicts_it_cannot_honour():
    att = identity_attack()
    for eps in (math.nan, math.inf, -math.inf, -1e-9):
        with pytest.raises(ValueError, match="eps"):
            theorem_check(att, eps=eps, max_pattern_len=2)
    for max_len in (0, -2):
        with pytest.raises(ValueError, match="max_pattern_len"):
            theorem_check(att, max_pattern_len=max_len)
    with pytest.raises(ValueError):
        theorem_check(att, patterns=[])
    assert theorem_check(att, eps=0.0, max_pattern_len=1).passed


def test_theorem_probe_decoupled_attacks_are_silent():
    for seed in range(8):
        rep = theorem_check(probe_decoupled_attack(seed, dim=2 + seed % 3), max_pattern_len=3)
        assert rep.max_residual <= 1e-9
        assert rep.max_leakage <= 1e-8
        assert rep.passed


def test_theorem_contrapositive_on_builtin_library():
    # every built-in that leaks visibly is also loudly detectable
    attacks = [
        identity_attack(),
        cnot_parity_attack(),
        measure_resend_z_attack(4),
        swap_attack(4),
        phase_probe_attack(math.pi / 3),
    ]
    for att in attacks:
        rep = theorem_check(att, max_pattern_len=4)
        if rep.max_leakage > 0.1:
            assert rep.max_residual > 0.01
        assert rep.passed


def test_f_distance_tracks_ctrl_error_at_zero_test_residual():
    cases = [
        identity_attack(),
        cnot_parity_attack(),
        measure_resend_z_attack(2),
        phase_probe_attack(0.0),
        phase_probe_attack(1.2),
        transit_phase_attack(0.0),
    ] + [probe_decoupled_attack(s) for s in range(5)]
    for att in cases:
        rep = constraint_check(att, 0)
        if rep.test_residual <= 1e-9:
            assert (rep.f_distance <= 1e-9) == (rep.ctrl_error_prob <= 1e-9)


def test_the_walk_checks_every_pattern_before_evolving(monkeypatch):
    def refuse(self, i):
        raise AssertionError("a round was evolved")

    monkeypatch.setattr(JointEvolution, "start_round", refuse)
    att = identity_attack()
    for bad in ("", "CX", "c1", "C S"):
        entry_points = [
            lambda: constraint_reports(att, bad),
            lambda: eve_leakage(att, bad),
            lambda: product_structure_check(att, bad),
            lambda: theorem_check(att, patterns=["C", bad]),
        ]
        for call in entry_points:
            with pytest.raises(ValueError, match="nonempty string over C/S"):
                call()


def test_the_walk_yields_upper_cased_patterns():
    att = swap_attack(3)
    assert eve_leakage(att, "cSs").pattern == "CSS"
    assert eve_leakage(att, "cSs") == eve_leakage(att, "CSS")
    assert product_structure_check(att, "sc").pattern == "SC"
    got = theorem_check(att, patterns=["cs", "CS", "s"])
    assert got.n_patterns == 3
    assert got == theorem_check(att, patterns=["CS", "CS", "S"])


def test_exact_rate_expectations_refuses_a_run_of_no_rounds():
    for ctrl_prob in (0.0, 0.5, 1.0):
        with pytest.raises(ValueError, match="nonempty"):
            exact_rate_expectations(identity_attack(), 0, ctrl_prob)


def test_default_patterns():
    pats = default_patterns(6)
    assert len(pats) == 126
    assert len(set(pats)) == 126
    assert default_patterns(2) == ["C", "S", "CC", "CS", "SC", "SS"]
    long = default_patterns(7)
    assert len(long) == 64 and all(len(p) == 7 for p in long)


# ---------------------------------------------------------------------------
# product_structure_check
# ---------------------------------------------------------------------------


def test_product_structure_identity_cs():
    rep = product_structure_check(identity_attack(), "CS")
    assert rep.precondition_ok and rep.product_ok
    assert rep.max_deviation < 1e-9


def test_product_structure_identity_single_ctrl():
    rep = product_structure_check(identity_attack(), "C")
    assert rep.product_ok and rep.max_deviation < 1e-9


def test_product_structure_phase_zero_keeps_probe_factor():
    rep = product_structure_check(phase_probe_attack(0.0), "SC")
    assert rep.product_ok
    assert rep.eve_purity is not None and rep.eve_purity > 1 - 1e-9


def test_product_structure_witness_path():
    rep = product_structure_check(cnot_parity_attack(), "CC")
    assert not rep.precondition_ok
    assert rep.product_ok is None
    assert abs(rep.witness_bob_purity - 0.5) < 1e-9


# ---------------------------------------------------------------------------
# exact_rate_expectations
# ---------------------------------------------------------------------------


def test_exact_rate_expectations_builtins():
    rates = exact_rate_expectations(identity_attack(), 3, 0.5)
    assert rates.ctrl_error_rate == 0.0 and rates.test_error_rate == 0.0
    rates = exact_rate_expectations(measure_resend_z_attack(2), 2, 0.5)
    assert abs(rates.ctrl_error_rate - 0.5) < 1e-9
    assert rates.test_error_rate < 1e-12
    rates = exact_rate_expectations(swap_attack(2), 2, 0.5)
    assert rates.ctrl_error_rate < 1e-12
    assert abs(rates.test_error_rate - 0.5) < 1e-9
    theta = 0.6
    rates = exact_rate_expectations(phase_probe_attack(theta), 3, 0.5)
    assert abs(rates.ctrl_error_rate - (1 - math.cos(theta)) / 2) < 1e-9


# ---------------------------------------------------------------------------
# Shared-prefix walker against the per-pattern reference evolution
# ---------------------------------------------------------------------------

WALKER_ATTACKS = {
    "identity": identity_attack(),
    "phase_probe": phase_probe_attack(0.7),
    "swap": swap_attack(4),
    "decoupled": probe_decoupled_attack(3, dim=3),
}
MIXED_PATTERNS = ["SCS", "c", "SCS", "ssCC", "C", "S", "CSSS", "SC"]


@pytest.mark.parametrize("name", sorted(WALKER_ATTACKS))
def test_walker_matches_reference_theorem_check(name):
    att = WALKER_ATTACKS[name]
    for patterns in (default_patterns(3), MIXED_PATTERNS):
        got = theorem_check(att, patterns=patterns)
        assert got == reference_theorem_check(att, patterns)
        assert got.n_patterns == len(patterns)


@pytest.mark.parametrize("name", sorted(WALKER_ATTACKS))
def test_walker_matches_reference_leakage(name):
    att = WALKER_ATTACKS[name]
    for pattern in ("S", "cs", "SCS", "SSCS"):
        assert eve_leakage(att, pattern) == reference_eve_leakage(att, pattern)


@pytest.mark.parametrize("name", sorted(WALKER_ATTACKS))
@pytest.mark.parametrize("ctrl_prob", [0.0, 0.3, 1.0])
def test_walker_matches_reference_rates(name, ctrl_prob):
    att = WALKER_ATTACKS[name]
    for n in (1, 3):
        got = exact_rate_expectations(att, n, ctrl_prob)
        assert got == reference_rate_expectations(att, n, ctrl_prob)


@settings(max_examples=15, deadline=None)
@given(
    theta=st.floats(0.0, math.pi),
    patterns=st.lists(st.text("CS", min_size=1, max_size=4), min_size=1, max_size=10),
)
def test_walker_matches_reference_on_random_pattern_sets(theta, patterns):
    att = phase_probe_attack(theta)
    got = theorem_check(att, patterns=patterns)
    assert got == reference_theorem_check(att, patterns)


def test_walker_evolves_each_prefix_once(monkeypatch):
    calls = []
    finish_round = JointEvolution.finish_round

    def counted(self, i, choice):
        calls.append(i)
        return finish_round(self, i, choice)

    monkeypatch.setattr(JointEvolution, "finish_round", counted)
    theorem_check(phase_probe_attack(0.3), max_pattern_len=6)
    assert len(calls) == 126


def _haar_attack(dim, n_rounds, rng, per_round):
    """A random attack on (T, E0): Haar gates on both legs, per round or shared."""

    def gates():
        return {i: Gate(random_unitary(2 * dim, rng), ("T", "E0")) for i in range(n_rounds)}

    if per_round:
        legs = {"forward": gates(), "backward": gates()}
    else:
        legs = {
            "default_forward": Gate(random_unitary(2 * dim, rng), ("T", "E0")),
            "default_backward": Gate(random_unitary(2 * dim, rng), ("T", "E0")),
        }
    init = random_state(SubsystemLayout((dim,), ("E0",)), rng)
    return AttackSpec(name="haar", probe_dims=(dim,), probe_factors=(init,), **legs)


@st.composite
def haar_attacks(draw, max_dim=4):
    """_haar_attack with its dim, rounds, seed and leg style drawn."""
    dim = draw(st.integers(1, max_dim))
    n_rounds = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _haar_attack(dim, n_rounds, rng, draw(st.booleans())), n_rounds


@settings(max_examples=25, deadline=None)
@given(
    drawn=haar_attacks(),
    patterns=st.lists(st.text("CS", min_size=1, max_size=4), min_size=1, max_size=6),
    ctrl_prob=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
)
def test_walker_matches_reference_on_random_attacks(drawn, patterns, ctrl_prob):
    att, n_rounds = drawn
    patterns = [p[:n_rounds] for p in patterns]
    got = theorem_check(att, patterns=patterns)
    assert got == reference_theorem_check(att, patterns)
    for p in patterns:
        reports = constraint_reports(att, p)
        assert reports == [reference_constraint_check(att, i, p[:i]) for i in range(len(p))]
    got_rates = exact_rate_expectations(att, n_rounds, ctrl_prob)
    assert got_rates == reference_rate_expectations(att, n_rounds, ctrl_prob)


@settings(max_examples=25, deadline=None)
@given(
    drawn=haar_attacks(max_dim=3),
    pattern=st.text("CS", min_size=1, max_size=4),
    data=st.data(),
)
def test_view_readers_match_the_copying_oracles(drawn, pattern, data):
    att, n_rounds = drawn
    pattern = pattern[:n_rounds]
    evo = JointEvolution(att)
    for i, ch in enumerate(pattern):
        evo.run_round(i, CTRL if ch == "C" else SIFT)
    final = evo.state
    labels = data.draw(st.permutations(final.layout.labels))
    labels = labels[: data.draw(st.integers(1, len(labels)))]
    got, want = _front(final, labels), reference_front(final, labels)
    assert np.shares_memory(got, final.amps)
    assert np.array_equal(got.reshape(want.shape), want)
    assert _leakage_from_final(final, pattern) == reference_leakage_from_final(
        final, pattern, True
    )


def test_leakage_matches_the_per_pair_oracle_on_every_short_pattern():
    # hypothesis draws a dim-1 probe only now and then, and a dim-1 Eve is
    # where a strided slice's Gram product rounds apart from a stacked copy's
    rng = np.random.default_rng(2024)
    patterns = default_patterns(4)
    for dim in (1, 2, 3, 4):
        for per_round in (False, True):
            att = _haar_attack(dim, 4, rng, per_round)
            for pattern, final, _ in _walk_patterns(att, patterns):
                got = _leakage_from_final(final, pattern)
                assert got == reference_leakage_from_final(final, pattern, True)


def test_joint_blocks_have_the_bits_of_each_slice_product():
    # random layouts of sifted bits, Bob's memory and an Eve register of dim
    # 1 to 4, in any order; where a slice is a strided view (often with a
    # dim-1 Eve), a stacked product of copies rounds apart from its own
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        pattern = "".join(rng.choice(["C", "S"], size=n))
        pattern = pattern if "S" in pattern else pattern[:-1] + "S"
        labels = [f"A{i}" for i in range(n)] + [f"B{i}" for i in range(int(rng.integers(0, n + 1)))]
        labels += [f"E{i}" for i in range(int(rng.integers(1, 3)))]
        dims = [2 if l[0] != "E" else int(rng.choice([1, 2, 3, 4])) for l in labels]
        order = rng.permutation(len(labels))
        layout = SubsystemLayout(tuple(dims[i] for i in order), tuple(labels[i] for i in order))
        final = random_state(layout, rng)
        want = reference_joint_blocks(final, pattern)
        assert np.array_equal(_joint_blocks(final, pattern).reshape(want.shape), want)


def test_walker_memory_holds_no_sift_child_across_ctrl_subtrees():
    # the final states of swap_attack(5) hold 2^15 amplitudes (512 KiB); the
    # walk peaks near 4 of them, and holding each node's SIFT child while its
    # CTRL subtree is walked would peak near 8.3
    tracemalloc.start()
    try:
        rep = theorem_check(swap_attack(5), max_pattern_len=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.max_leakage == 1.0
    assert peak < 4.5 * 2**15 * 16


def test_theorem_check_drops_each_final_state_once_read():
    # the final states of swap_attack(6) hold 2^18 amplitudes (4 MiB); the
    # walk peaks near 2.4 of them, and keeping SSSSSS's final state while
    # SCCCCC evolves would peak near 3.4
    tracemalloc.start()
    try:
        rep = theorem_check(swap_attack(6), patterns=["SSSSSS", "SCCCCC"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.max_leakage == 1.0
    assert peak < 2.9 * 2**18 * 16


def test_rate_expectations_drop_each_final_state_once_read():
    # as above: the walk over all 64 patterns of swap_attack(6) peaks near 2.4
    # final states, and keeping one while the next pattern evolves near 3.4
    tracemalloc.start()
    try:
        rates = exact_rate_expectations(swap_attack(6), 6, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(rates.test_error_rate - 0.5) < 1e-9
    assert peak < 2.9 * 2**18 * 16
