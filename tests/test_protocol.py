import json
import math
import os
import tracemalloc
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqkd import analysis, cli, engine, protocol
from sqkd.analysis import sift_equivalence_check
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
    PLUS,
    StateVector,
    SubsystemLayout,
    Unitary,
    alice_probe,
    bob_memory,
    cnot,
    ket_plus,
    ket_zero,
    permute,
    phase_deviation,
    random_state,
    random_unitary,
    single,
    swap_gate,
    tensor,
)
from sqkd.errors import ExactCapExceeded, IncompleteTranscript, InvalidState
from sqkd.protocol import (
    CTRL,
    EXACT_AMPLITUDE_CAP,
    EXACT_ROUND_CAP,
    MODE_EXACT,
    MODE_SAMPLING,
    ProtocolConfig,
    ROLE_CTRL,
    ROLE_TEST,
    SIFT,
    JointEvolution,
    Transcript,
    classical_phase,
    derive_seed,
    exact_state_dim,
    read_transcript,
    run_protocol,
    run_stats,
    stream_rng,
    write_transcript,
)

from helpers import (
    dead_probe_entangler_attack,
    fresh_qutrit_attack,
    patched_swap_attack,
    probe_decoupled_attack,
    reference_classical_phase,
    reference_finish_round,
    reference_gate_matrix,
    reference_pair_live,
    reference_sampling,
    reference_write_transcript,
    records,
)


def run_with_stats(config, attack):
    transcript = run_protocol(config, attack)
    stats = classical_phase(transcript)
    return transcript, stats


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(rounds=0)
    with pytest.raises(ValueError):
        ProtocolConfig(rounds=10, ctrl_prob=1.5)
    with pytest.raises(ValueError):
        ProtocolConfig(rounds=10, mode="approximate")
    with pytest.raises(ExactCapExceeded):
        ProtocolConfig(rounds=EXACT_ROUND_CAP + 1, mode=MODE_EXACT)
    ProtocolConfig(rounds=EXACT_ROUND_CAP, mode=MODE_EXACT)


# ---------------------------------------------------------------------------
# Zero-attack soundness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("rounds", [1, 37, 300])
def test_identity_attack_is_error_free_sampling(seed, rounds):
    cfg = ProtocolConfig(rounds=rounds, seed=seed)
    transcript, stats = run_with_stats(cfg, identity_attack())
    for rec in records(transcript):
        if rec.role == ROLE_CTRL:
            assert rec.bob_x_outcome == PLUS and rec.error is False
        elif rec.role == ROLE_TEST:
            assert rec.alice_bit == rec.bob_z_outcome and rec.error is False
    assert stats.ctrl_error_rate == 0.0
    assert stats.test_error_rate == 0.0
    assert stats.key_mismatch_rate == 0.0
    assert stats.key_alice == stats.key_bob
    assert not stats.aborted


@pytest.mark.parametrize("seed", [7, 8])
def test_identity_attack_is_error_free_exact(seed):
    cfg = ProtocolConfig(rounds=6, seed=seed, mode=MODE_EXACT)
    transcript, stats = run_with_stats(cfg, identity_attack())
    assert stats.ctrl_error_rate == 0.0 and stats.test_error_rate == 0.0
    assert not stats.aborted


def test_all_ctrl_when_ctrl_prob_is_one():
    cfg = ProtocolConfig(rounds=50, ctrl_prob=1.0, seed=2)
    transcript = run_protocol(cfg, identity_attack())
    assert all(r.choice == CTRL for r in records(transcript))
    assert all(r.alice_bit is None for r in records(transcript))


# ---------------------------------------------------------------------------
# Exact mode retains the joint state
# ---------------------------------------------------------------------------


def test_exact_mode_cnot_parity_final_state():
    cfg = ProtocolConfig(rounds=2, ctrl_prob=1.0, seed=1, mode=MODE_EXACT)
    transcript = run_protocol(cfg, cnot_parity_attack())
    final = transcript.final_state
    assert final is not None
    amps = np.zeros((2, 2, 2), dtype=complex)
    amps[0, 0, 0] = amps[1, 1, 0] = amps[0, 1, 1] = amps[1, 0, 1] = 0.5
    expected = engine.StateVector(
        engine.SubsystemLayout((2, 2, 2), ("B0", "B1", "E0")), amps.reshape(-1)
    )
    expected = tensor(tensor(expected, ket_zero("A0")), ket_zero("A1"))
    expected = permute(expected, final.layout.labels)
    assert phase_deviation(expected, final) < 1e-9


def test_sampling_mode_has_no_final_state():
    cfg = ProtocolConfig(rounds=4, seed=3)
    assert run_protocol(cfg, identity_attack()).final_state is None


def test_exact_size_estimate_refuses_before_allocating(tmp_path, monkeypatch, capsys):
    attack = fresh_qutrit_attack(8)
    assert exact_state_dim(attack, 8) == 4**8 * 3**8 > EXACT_AMPLITUDE_CAP
    monkeypatch.setattr(cli, "build_attack", lambda *args, **kwargs: attack)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": 8, "mode": "exact"}))
    tracemalloc.start()
    try:
        with pytest.raises(ExactCapExceeded, match=str(4**8 * 3**8)):
            run_protocol(ProtocolConfig(rounds=8, mode=MODE_EXACT), attack)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "s.json")]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the refusal builds no state
    assert str(4**8 * 3**8) in capsys.readouterr().err


def test_every_dense_walk_refuses_a_state_above_the_amplitude_cap(monkeypatch):
    def refuse(self, i):
        raise AssertionError("a round was evolved")

    monkeypatch.setattr(JointEvolution, "start_round", refuse)
    attack = fresh_qutrit_attack(7)
    entry_points = [
        lambda: analysis.eve_leakage(attack, "S" * 7),
        lambda: analysis.constraint_reports(attack, "C" * 7),
        lambda: analysis.theorem_check(attack, max_pattern_len=7),
        lambda: analysis.product_structure_check(attack, "S" * 7),
        lambda: analysis.exact_rate_expectations(attack, 7, 0.5),
    ]
    for call in entry_points:
        with pytest.raises(ExactCapExceeded, match=str(4**7 * 3**7)):
            call()


@pytest.mark.parametrize("rounds", range(1, 7))
@pytest.mark.parametrize("name", ATTACK_NAMES)
def test_exact_size_estimate_is_the_final_dim(name, rounds):
    attack = build_attack(name, params={"theta": 0.7} if name == "phase_probe" else {}, n_rounds=rounds)
    transcript = run_protocol(ProtocolConfig(rounds=rounds, seed=rounds, mode=MODE_EXACT), attack)
    assert exact_state_dim(attack, rounds) == transcript.final_state.dim


def test_swap_at_the_round_cap_is_within_the_amplitude_cap(monkeypatch):
    attack = swap_attack(EXACT_ROUND_CAP)
    assert exact_state_dim(attack, EXACT_ROUND_CAP) == 2**24 == EXACT_AMPLITUDE_CAP

    class Accepted(Exception):
        pass

    def accepted(*args):
        raise Accepted

    monkeypatch.setattr(protocol, "JointEvolution", accepted)
    with pytest.raises(Accepted):
        run_protocol(ProtocolConfig(rounds=EXACT_ROUND_CAP, mode=MODE_EXACT), attack)


def test_a_factor_over_two_labels_is_materialized_once():
    # one factor holds E0 and E1: round 0's gate touches E1, round 3's E0,
    # and round 5's backward gate both, so each is last used in the last round
    rng = np.random.default_rng(3)
    att = AttackSpec(
        name="shared_factor",
        probe_dims=(2, 3),
        probe_factors=(random_state(SubsystemLayout((2, 3), ("E0", "E1")), rng),),
        forward={
            0: Gate(random_unitary(6, rng), ("T", "E1")),
            3: Gate(random_unitary(4, rng), ("E0", "T")),
        },
        backward={5: Gate(random_unitary(12, rng), ("E1", "T", "E0"))},
    )
    assert att.last_use("E0", 6) == att.last_use("E1", 6) == 5
    final = run_protocol(ProtocolConfig(rounds=6, seed=3, mode=MODE_EXACT), att).final_state
    assert exact_state_dim(att, 6) == final.dim == 4**6 * 6
    labels = final.layout.labels
    assert labels.count("E0") == labels.count("E1") == 1
    for seed, ctrl_prob in ((0, 0.0), (1, 0.5), (2, 1.0), (3, 0.3)):
        cfg = ProtocolConfig(rounds=6, ctrl_prob=ctrl_prob, seed=seed)
        assert records(run_protocol(cfg, att)) == reference_sampling(cfg, att)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    earlier=st.integers(0, 3),
    choice=st.sampled_from([CTRL, SIFT]),
    block=st.sampled_from([1, 2, 7, None]),
    data=st.data(),
)
def test_finish_round_matches_the_project_and_stack_oracle(
    seed, dims, earlier, choice, block, data
):
    # round `earlier` finishes on a Haar state over the qubits of the rounds
    # before it, the probes and the transit, in any order; the backward gate,
    # if any, acts on the transit and some probes, its targets shuffled
    rng = np.random.default_rng(seed)
    labels = [f"E{k}" for k in range(len(dims))]
    dim_of = {"T": 2, **dict(zip(labels, dims))}
    for k in range(earlier):
        dim_of[bob_memory(k)] = dim_of[alice_probe(k)] = 2
    targets = ["T", *data.draw(st.lists(st.sampled_from(labels), unique=True))]
    targets = data.draw(st.permutations(targets))
    unitary = random_unitary(math.prod(dim_of[t] for t in targets), rng)
    gate = data.draw(st.sampled_from([None, Gate(unitary, targets)]))
    order = data.draw(st.permutations(list(dim_of)))
    state = random_state(SubsystemLayout(tuple(dim_of[l] for l in order), tuple(order)), rng)
    evo = JointEvolution(
        AttackSpec(
            name="haar",
            probe_dims=tuple(dims),
            probe_factors=tuple(single(l, np.eye(d)[0]) for l, d in zip(labels, dims)),
            backward={} if gate is None else {earlier: gate},
        )
    )
    evo.state = state
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(engine, "_BLOCK_COLUMNS", block)
        evo.finish_round(earlier, choice)
    want = reference_finish_round(state, gate, earlier, choice)
    assert evo.state.layout == want.layout
    assert np.array_equal(evo.state.amps, want.amps)


def test_exact_quantum_phase_holds_one_and_a_half_final_states():
    # the last round holds its input (half the final state) and its output
    cfg = ProtocolConfig(rounds=7, seed=0, mode=MODE_EXACT)
    tracemalloc.start()
    try:
        transcript = run_protocol(cfg, swap_attack(7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * transcript.final_state.amps.nbytes


# ---------------------------------------------------------------------------
# Classical phase
# ---------------------------------------------------------------------------


def test_measure_resend_detected():
    cfg = ProtocolConfig(rounds=4000, seed=11)
    _, stats = run_with_stats(cfg, measure_resend_z_attack(4000))
    assert stats.test_error_rate == 0.0
    assert abs(stats.ctrl_error_rate - 0.5) < 0.04
    assert stats.aborted


def test_test_fraction_zero_yields_all_key():
    cfg = ProtocolConfig(rounds=200, test_fraction=0.0, seed=4)
    _, stats = run_with_stats(cfg, identity_attack())
    assert stats.n_test == 0
    assert stats.test_error_rate == 0.0
    assert stats.n_key == 200 - stats.n_ctrl


def test_transcript_conservation():
    cfg = ProtocolConfig(rounds=257, seed=9)
    transcript, stats = run_with_stats(cfg, identity_attack())
    assert stats.n_ctrl + stats.n_test + stats.n_key == cfg.rounds
    for rec in records(transcript):
        if rec.choice == SIFT:
            assert rec.alice_bit in (0, 1)
        else:
            assert rec.alice_bit is None
        assert (rec.error is not None) == (rec.role in (ROLE_CTRL, ROLE_TEST))
    assert [r.index for r in records(transcript)] == list(range(cfg.rounds))


def test_incomplete_transcript_is_rejected():
    cfg = ProtocolConfig(rounds=10, seed=0)
    transcript = run_protocol(cfg, identity_attack())
    transcript.codes = transcript.codes[:-1]
    with pytest.raises(IncompleteTranscript):
        classical_phase(transcript)

    cfg = ProtocolConfig(rounds=3, seed=0, mode=MODE_EXACT)
    transcript = run_protocol(cfg, identity_attack())
    transcript.final_state = None
    with pytest.raises(IncompleteTranscript):
        classical_phase(transcript)


def test_classical_phase_measures_each_stored_qubit_out():
    cfg = ProtocolConfig(rounds=7, seed=0, mode=MODE_EXACT)
    transcript = run_protocol(cfg, swap_attack(7))
    final_bytes = transcript.final_state.amps.nbytes
    tracemalloc.start()
    try:
        classical_phase(transcript)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one reordered copy of the state and its half; collapsing in place
    # costs at least three full copies
    assert peak < 2 * final_bytes


def test_measure_out_copies_only_the_half_it_keeps():
    # round 0 sifts, so the first measurement reads Alice's probe in Z from
    # the middle of the full final state
    cfg = ProtocolConfig(rounds=7, seed=0, mode=MODE_EXACT)
    transcript = run_protocol(cfg, swap_attack(7))
    assert records(transcript)[0].choice == SIFT
    final_bytes = transcript.final_state.amps.nbytes
    tracemalloc.start()
    try:
        classical_phase(transcript)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the kept half of the first measurement and the quarter the second keeps
    assert peak < 1.25 * final_bytes


def test_x_measurement_builds_only_the_half_it_keeps():
    # round 0 is CTRL, so the first measurement reads Bob's memory in X
    cfg = ProtocolConfig(rounds=7, seed=2, mode=MODE_EXACT)
    transcript = run_protocol(cfg, swap_attack(7))
    assert records(transcript)[0].choice == CTRL
    final_bytes = transcript.final_state.amps.nbytes
    tracemalloc.start()
    try:
        classical_phase(transcript)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one rotated half, then the quarter the next measurement keeps
    assert peak < 1.0 * final_bytes
    # the transcript let go of the final state, so each state could be freed
    assert transcript.final_state is None


# ---------------------------------------------------------------------------
# Determinism and serialization
# ---------------------------------------------------------------------------


def test_identical_seeds_give_identical_transcripts():
    cfg = ProtocolConfig(rounds=300, seed=123)
    att = measure_resend_z_attack(300)
    runs = []
    for _ in range(2):
        transcript, _ = run_with_stats(cfg, att)
        runs.append(json.dumps([vars(r) for r in records(transcript)]))
    assert runs[0] == runs[1]


@st.composite
def runs(draw):
    """A config and a built-in attack; exact runs stay at 5 rounds or fewer."""
    mode, rounds = draw(
        st.one_of(
            st.tuples(st.just(MODE_SAMPLING), st.integers(1, 60)),
            st.tuples(st.just(MODE_EXACT), st.integers(1, 5)),
        )
    )
    cfg = ProtocolConfig(
        rounds=rounds,
        ctrl_prob=draw(st.floats(0.0, 1.0)),
        test_fraction=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**64 - 1)),
        mode=mode,
    )
    name = draw(st.sampled_from(ATTACK_NAMES))
    params = {"theta": draw(st.floats(0.0, math.pi))} if name == "phase_probe" else None
    return cfg, name, build_attack(name, params=params, n_rounds=rounds)


@settings(max_examples=25, deadline=None)
@given(run=runs())
def test_same_seed_gives_the_same_run(run):
    cfg, _, att = run
    (t0, s0), (t1, s1) = (run_with_stats(cfg, att) for _ in range(2))
    assert records(t0) == records(t1)
    assert s0 == s1


@settings(max_examples=25, deadline=None)
@given(run=runs())
def test_transcript_round_trip_on_random_runs(tmp_path_factory, run):
    cfg, name, att = run
    transcript, stats = run_with_stats(cfg, att)
    path = tmp_path_factory.mktemp("transcript") / "t.jsonl"
    write_transcript(path, transcript, attack={"name": name})
    header, back = read_transcript(path)
    assert header == {**asdict(cfg), "attack": {"name": name}}
    assert records(back) == records(transcript)
    assert np.array_equal(back.codes, transcript.codes)
    assert run_stats(back) == stats


@st.composite
def oracle_runs(draw):
    """A config at the edges of ctrl_prob, test_fraction and abort_threshold,
    and a built-in attack or dead_probe_entangler_attack."""
    mode, rounds = draw(
        st.one_of(
            st.tuples(st.just(MODE_SAMPLING), st.integers(1, 60)),
            st.tuples(st.just(MODE_EXACT), st.integers(1, 5)),
        )
    )
    unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    cfg = ProtocolConfig(
        rounds=rounds,
        ctrl_prob=draw(unit),
        test_fraction=draw(unit),
        seed=draw(st.integers(0, 2**64 - 1)),
        mode=mode,
        abort_threshold=draw(st.sampled_from([0.0, 0.3])),
    )
    name = draw(st.sampled_from(ATTACK_NAMES + ("dead_probe_entangler",)))
    if name == "dead_probe_entangler":
        return cfg, name, dead_probe_entangler_attack(rounds)
    params = {"theta": draw(st.floats(0.0, math.pi))} if name == "phase_probe" else None
    return cfg, name, build_attack(name, params=params, n_rounds=rounds)


@settings(max_examples=60, deadline=None)
@given(run=oracle_runs(), chunk=st.sampled_from([1, 2, 7, 2**16]))
@example(  # key bits that disagree, Test errors, and an abort above 0.3
    run=(ProtocolConfig(rounds=60, seed=3, abort_threshold=0.3), "swap", swap_attack(60)),
    chunk=7,
)
def test_codes_match_the_record_oracles(tmp_path_factory, run, chunk):
    cfg, name, att = run
    transcript = run_protocol(cfg, att)
    recs = records(transcript)
    want = reference_classical_phase(cfg, recs, transcript.final_state, stream_rng(cfg.seed, 1))
    stats = classical_phase(transcript)
    assert stats == want
    assert records(transcript) == recs
    tmp = tmp_path_factory.mktemp("transcripts")
    extra = {"attack": {"name": name}}
    reference_write_transcript(tmp / "want.jsonl", cfg, recs, header_extra=extra)
    with mock.patch.object(protocol, "_CHUNK", chunk):
        write_transcript(tmp / "got.jsonl", transcript, attack=extra["attack"])
    assert (tmp / "got.jsonl").read_bytes() == (tmp / "want.jsonl").read_bytes()
    _, back = read_transcript(tmp / "got.jsonl")
    assert run_stats(back) == stats


def test_writer_holds_one_chunk_of_text():
    rounds = 10**6
    rng = np.random.default_rng(4)
    codes = rng.integers(0, 6, size=rounds).astype(np.int8)
    test = (codes >= 2) & (rng.random(rounds) < 0.5)
    transcript = Transcript(ProtocolConfig(rounds=rounds), codes, test=test)
    tracemalloc.start()
    try:
        write_transcript(os.devnull, transcript)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


@pytest.mark.parametrize("name", ["identity", "swap"])
def test_table_sampler_writes_codes_in_place(name):
    rounds = 10**6
    attack = build_attack(name, n_rounds=rounds)
    tracemalloc.start()
    try:
        run_protocol(ProtocolConfig(rounds=rounds, seed=3), attack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the int8 codes (1 MB) and one block's temporaries; whole-run int64
    # codes alone would take 8 MB
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("mode", [MODE_SAMPLING, MODE_EXACT])
@pytest.mark.parametrize("name", ATTACK_NAMES)
def test_runs_build_no_round_record(tmp_path, mode, name):
    rounds = 4 if mode == MODE_EXACT else 500
    attack = {"name": name}
    if name == "cnot_parity":
        attack["rounds"] = [1, 2]
    if name == "phase_probe":
        attack["params"] = {"theta": 0.9}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": rounds, "seed": 8, "mode": mode, "attack": attack}))
    out = tmp_path / "stats.json"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) in (0, 2)
    assert out.with_suffix(".jsonl").read_text().count("\n") == rounds + 1


def test_derive_seed_is_deterministic_and_splits():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    assert derive_seed(42, 0) != derive_seed(42, 1)
    assert derive_seed(42, 0) != derive_seed(43, 0)


def test_transcript_round_trip(tmp_path):
    cfg = ProtocolConfig(rounds=120, seed=77)
    transcript, stats = run_with_stats(cfg, swap_attack(120))
    path = tmp_path / "run.jsonl"
    write_transcript(path, transcript, attack={"name": "swap"})
    header, back = read_transcript(path)
    assert header["rounds"] == 120 and header["attack"]["name"] == "swap"
    assert records(back) == records(transcript)
    assert np.array_equal(back.codes, transcript.codes)
    assert np.array_equal(back.test, transcript.test)
    assert run_stats(back) == stats


def test_exact_and_sampling_transcripts_share_field_names(tmp_path):
    cfg = ProtocolConfig(rounds=3, seed=5, mode=MODE_EXACT)
    transcript, _ = run_with_stats(cfg, identity_attack())
    path = tmp_path / "t.jsonl"
    write_transcript(path, transcript)
    with open(path) as fh:
        lines = fh.read().splitlines()
    rec = json.loads(lines[1])
    assert list(rec) == [
        "index",
        "choice",
        "alice_bit",
        "role",
        "bob_x_outcome",
        "bob_z_outcome",
        "error",
    ]


# ---------------------------------------------------------------------------
# Mode equivalence
# ---------------------------------------------------------------------------


def test_sift_equivalence_identity_is_exact():
    rep = sift_equivalence_check(
        ProtocolConfig(rounds=4, seed=21), identity_attack(), trials=50
    )
    assert rep.exact_ctrl_error == 0.0 and rep.exact_test_error == 0.0
    assert rep.sampled_ctrl_error == 0.0 and rep.sampled_test_error == 0.0
    assert rep.max_sigma == 0.0
    assert rep.equivalent


def test_sift_equivalence_phase_probe():
    theta = math.pi / 3
    rep = sift_equivalence_check(
        ProtocolConfig(rounds=4, seed=22), phase_probe_attack(theta), trials=600
    )
    assert abs(rep.exact_ctrl_error - (1 - math.cos(theta)) / 2) < 1e-9
    assert rep.exact_test_error < 1e-12
    assert rep.equivalent


def test_sift_equivalence_cnot_parity():
    rep = sift_equivalence_check(
        ProtocolConfig(rounds=2, seed=23), cnot_parity_attack(), trials=600
    )
    # both rounds attacked: expected CTRL error 1/2, expected TEST error 0
    assert abs(rep.exact_ctrl_error - 0.5) < 1e-9
    assert rep.exact_test_error < 1e-12
    assert rep.equivalent


def test_sift_equivalence_rejects_uncapped_rounds():
    with pytest.raises(ExactCapExceeded):
        sift_equivalence_check(
            ProtocolConfig(rounds=EXACT_ROUND_CAP + 2), identity_attack(), trials=5
        )


# ---------------------------------------------------------------------------
# Compiled sampling loop against the dense reference
# ---------------------------------------------------------------------------

REFERENCE_ROUNDS = 120

SAMPLING_ATTACKS = {
    "identity": identity_attack(),
    "cnot_parity": cnot_parity_attack((3, 40)),
    "cnot_parity_first_last": cnot_parity_attack((0, REFERENCE_ROUNDS - 1)),
    "cnot_parity_last_two": cnot_parity_attack((REFERENCE_ROUNDS - 2, REFERENCE_ROUNDS - 1)),
    "measure_resend_z": measure_resend_z_attack(REFERENCE_ROUNDS),
    "swap": swap_attack(REFERENCE_ROUNDS),
    "phase_probe": phase_probe_attack(0.7),
    "probe_decoupled_2": probe_decoupled_attack(2),
    "probe_decoupled_3": probe_decoupled_attack(3, dim=3),
}


@pytest.mark.parametrize("name", sorted(SAMPLING_ATTACKS))
@pytest.mark.parametrize("ctrl_prob", [0.0, 0.3, 1.0])
def test_sampling_matches_dense_reference(name, ctrl_prob):
    att = SAMPLING_ATTACKS[name]
    for seed in range(5):
        cfg = ProtocolConfig(rounds=REFERENCE_ROUNDS, ctrl_prob=ctrl_prob, seed=seed)
        assert records(run_protocol(cfg, att)) == reference_sampling(cfg, att)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([2, 3]),
    ctrl_prob=st.floats(0.0, 1.0),
    rounds=st.integers(1, 30),
)
def test_sampling_matches_dense_reference_on_random_gates(seed, dim, ctrl_prob, rounds):
    rng = np.random.default_rng(seed)
    fwd = Gate(random_unitary(2 * dim, rng), ("T", "E0"))
    bwd = Gate(random_unitary(2 * dim, rng), ("T", "E0"))
    att = AttackSpec(
        name="random_gates",
        probe_dims=(dim,),
        probe_factors=(random_state(SubsystemLayout((dim,), ("E0",)), rng),),
        forward={0: fwd},
        default_forward=bwd,
        default_backward=fwd,
    )
    cfg = ProtocolConfig(rounds=rounds, ctrl_prob=ctrl_prob, seed=seed)
    assert records(run_protocol(cfg, att)) == reference_sampling(cfg, att)


@pytest.mark.parametrize("ctrl_prob", [0.0, 0.3, 1.0])
def test_templates_with_explicit_entries_match_dense_reference(ctrl_prob):
    att = patched_swap_attack(12)
    last_use = {l: att.last_use(l, 20) for l in att.probe_labels}
    assert last_use == {**{f"E{i}": i for i in range(12)}, "E2": 7, "E9": -1}
    assert att.last_use("E9", 20) == -1
    for seed in range(5):
        cfg = ProtocolConfig(rounds=20, ctrl_prob=ctrl_prob, seed=seed)
        assert records(run_protocol(cfg, att)) == reference_sampling(cfg, att)


@pytest.mark.parametrize("block", [1, 2, 5])
def test_table_blocks_of_any_size_match_dense_reference(monkeypatch, block):
    # blocks this small leave a round's draws split across blocks all the time
    monkeypatch.setattr(protocol, "_BLOCK", block)
    for name in ("identity", "cnot_parity", "swap", "measure_resend_z"):
        att = SAMPLING_ATTACKS[name]
        for ctrl_prob in (0.0, 0.3, 1.0):
            cfg = ProtocolConfig(rounds=REFERENCE_ROUNDS, ctrl_prob=ctrl_prob, seed=block)
            assert records(run_protocol(cfg, att)) == reference_sampling(cfg, att)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ctrl_prob=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    rounds=st.integers(1, 300),
    block=st.sampled_from([1, 2, 5, 2**16]),
)
def test_round_draws_cut_single_draws_at_round_boundaries(seed, ctrl_prob, rounds, block):
    rng = np.random.default_rng(seed)
    got = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_BLOCK", block)
        for u, starts in protocol._round_draws(rng, rounds, ctrl_prob):
            assert len(u) <= block + 2  # a block plus the draws a split round carried
            got += [u[p:q].tolist() for p, q in zip(starts, starts[1:] + [len(u)])]
    # each round drawn alone: its choice, then one outcome (CTRL) or two (SIFT)
    single = np.random.default_rng(seed)
    want = []
    for _ in range(rounds):
        choice = single.random()
        want.append([choice] + [single.random() for _ in range(1 if choice < ctrl_prob else 2)])
    assert got == want
    assert rng.random() == single.random()


def _real_orthogonal(n, rng) -> Unitary:
    """A random real orthogonal n x n matrix, held as a complex unitary."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Unitary(q.astype(complex))


def _real_state(dim, rng) -> np.ndarray:
    """A random real unit vector of dim dim, held as complex amplitudes."""
    v = rng.standard_normal(dim)
    return (v / np.linalg.norm(v)).astype(complex)


def _haar_probe_attack(rng, dim, forward=None, backward=None, default_legs="fb", real=False):
    """Haar gates on (T, E0) for a probe of dim dim prepared in a random state:
    explicit entries by round, and default gates on the legs default_legs names.
    With real set, the gates are real orthogonal and the probe state real."""
    def haar():
        unitary = _real_orthogonal(2 * dim, rng) if real else random_unitary(2 * dim, rng)
        return Gate(unitary, ("T", "E0"))

    layout = SubsystemLayout((dim,), ("E0",))
    return AttackSpec(
        name=f"{'real' if real else 'haar'}_probe_{dim}",
        probe_dims=(dim,),
        probe_factors=(
            StateVector(layout, _real_state(dim, rng)) if real else random_state(layout, rng),
        ),
        forward={r: haar() for r in forward or ()},
        backward={r: haar() for r in backward or ()},
        default_forward=haar() if "f" in default_legs else None,
        default_backward=haar() if "b" in default_legs else None,
    )


def _live_spans(monkeypatch):
    """Record the [first, end) of every _sample_live call."""
    spans = []
    sample_live = protocol._sample_live

    def spy(inst, psi, first, end, ctrl_prob, rng):
        spans.append((first, end))
        return sample_live(inst, psi, first, end, ctrl_prob, rng)

    monkeypatch.setattr(protocol, "_sample_live", spy)
    return spans


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    legs=st.sampled_from(["fb", "f", "b"]),
    window=st.booleans(),
    real=st.booleans(),
    ctrl_prob=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    rounds=st.integers(1, 200),
    block=st.sampled_from([1, 2, 5, protocol._BLOCK]),
    data=st.data(),
)
def test_live_probe_rounds_match_dense_reference(
    seed, dim, legs, window, real, ctrl_prob, rounds, block, data
):
    # a persistent probe under default gates is live from round 0 to the
    # last round, a window of gateless rounds carries it from r0 to r1, and
    # every round up to its last use takes the live loop; a real instrument
    # of dim 2 steps on floats
    rng = np.random.default_rng(seed)
    if window and rounds >= 2:
        pair = st.lists(st.integers(0, rounds - 1), min_size=2, max_size=2, unique=True)
        r0, r1 = sorted(data.draw(pair))
        att = _haar_probe_attack(
            rng, dim, forward=(r0, r1), backward=(r1,), default_legs="", real=real
        )
        live_rounds = r1 - r0
    else:
        att = _haar_probe_attack(rng, dim, default_legs=legs, real=real)
        live_rounds = rounds - 1
    cfg = ProtocolConfig(rounds=rounds, ctrl_prob=ctrl_prob, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_BLOCK", block)
        spans = _live_spans(mp)
        recs = records(run_protocol(cfg, att))
    assert recs == reference_sampling(cfg, att)
    assert sum(end - first for first, end in spans) == (live_rounds + 1 if live_rounds else 0)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["haar", "real", "real_with_signed_zero", "real_gates_haar_psi"]),
    ctrl_prob=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    rounds=st.integers(1, 300),
    block=st.sampled_from([1, 2, 2**16]),
    data=st.data(),
)
def test_pair_live_matches_the_complex_list_oracle(seed, kind, ctrl_prob, rounds, block, data):
    rng = np.random.default_rng(seed)
    unitary = random_unitary if kind == "haar" else _real_orthogonal
    fwd, bwd = unitary(4, rng), unitary(4, rng)
    if kind in ("real", "real_with_signed_zero"):
        psi = _real_state(2, rng)
    else:
        psi = random_state(SubsystemLayout((2,), ("E0",)), rng).amps
    inst = protocol._compile_round(Gate(fwd, ("T", "E0")), Gate(bwd, ("T", "E0")), ["E0"], [2])
    if kind == "real_with_signed_zero":
        # an imaginary part of exactly -0.0 or +0.0 is no imaginary part
        operands = [m.copy() for m in (*inst, psi)]
        target = operands[data.draw(st.integers(0, 3))]
        target.imag.flat[data.draw(st.integers(0, target.size - 1))] = data.draw(
            st.sampled_from([-0.0, 0.0])
        )
        *inst, psi = operands
        inst = protocol._Instrument(*inst)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "_BLOCK", block)
        codes, out = protocol._sample_live(inst, psi, 0, rounds, ctrl_prob, stream_rng(seed, 0))
        want_codes, want_psi = reference_pair_live(
            inst, psi, 0, rounds, ctrl_prob, stream_rng(seed, 0)
        )
    assert codes == want_codes
    assert out.dtype == complex and np.array_equal(out, want_psi)


def test_real_dim_2_instruments_step_on_floats(monkeypatch):
    # phase_probe and cnot_parity are real, so their live probe steps on
    # floats; a Haar probe stays on complex numbers
    steps = []
    pair_collapse = protocol._pair_collapse

    def spy(kraus, psi, u):
        steps.append({type(psi[0]), type(psi[1]), type(kraus[0][0][0])})
        return pair_collapse(kraus, psi, u)

    monkeypatch.setattr(protocol, "_pair_collapse", spy)
    cases = (
        (phase_probe_attack(0.9), float),
        (cnot_parity_attack((3, 40)), float),
        (_haar_probe_attack(np.random.default_rng(0), 2), complex),
    )
    for att, amplitude in cases:
        steps.clear()
        run_protocol(ProtocolConfig(rounds=60, seed=1), att)
        assert steps and all(types == {amplitude} for types in steps), att.name


class _RoundByRoundGates(AttackSpec):
    """A default-gate attack whose forward gate is built anew each round,
    with its own Haar unitary on (T, E0)."""

    def forward_gate(self, round_index):
        return Gate(random_unitary(4, np.random.default_rng(round_index)), ("T", "E0"))


def test_live_span_ends_where_the_gates_change(monkeypatch):
    # one gate rule and one live probe E0 up to the last round, but the
    # rounds' gates are not the same objects: each round gets its own
    # instrument, never the one before it
    rng = np.random.default_rng(7)
    att = _RoundByRoundGates(
        name="round_by_round",
        probe_dims=(2,),
        probe_factors=(random_state(SubsystemLayout((2,), ("E0",)), rng),),
        default_forward=Gate(random_unitary(4, rng), ("T", "E0")),
        default_backward=Gate(random_unitary(4, rng), ("T", "E0")),
    )
    assert att.run_end(0, 30) == 30 and att.last_use("E0", 30) == 29
    spans = _live_spans(monkeypatch)
    for seed, ctrl_prob in ((0, 0.0), (1, 0.5), (2, 1.0)):
        cfg = ProtocolConfig(rounds=30, ctrl_prob=ctrl_prob, seed=seed)
        assert records(run_protocol(cfg, att)) == reference_sampling(cfg, att)
    assert spans == [(r, r + 1) for r in range(30)] * 3


@pytest.mark.parametrize("dim", [1, 3, 5])
def test_live_probe_rounds_off_dim_2_step_through_numpy(monkeypatch, dim):
    # a live probe of any dim but 2 steps through _collapse in the same loop
    steps = []
    collapse = protocol._collapse

    def counted(kraus, psi, u):
        steps.append(len(psi))
        return collapse(kraus, psi, u)

    monkeypatch.setattr(protocol, "_collapse", counted)
    spans = _live_spans(monkeypatch)
    for seed, ctrl_prob in ((0, 0.0), (1, 0.5), (2, 1.0)):
        att = _haar_probe_attack(np.random.default_rng(seed), dim)
        cfg = ProtocolConfig(rounds=150, ctrl_prob=ctrl_prob, seed=seed)
        assert records(run_protocol(cfg, att)) == reference_sampling(cfg, att)
    assert spans == [(0, 149), (149, 150)] * 3
    assert len(steps) >= 3 * 150 and set(steps) == {dim}


# no unitary attack gives an instrument that annihilates the probe, so only a
# direct call reaches the two zero-weight refusals


def test_collapse_refuses_a_zero_weight_branch():
    with pytest.raises(InvalidState, match="zero-weight"):
        protocol._collapse(np.zeros((2, 3, 3), dtype=complex), np.array([1, 0, 0j]), 0.5)


def test_pair_collapse_refuses_a_zero_weight_branch():
    zero = ((0.0, 0.0), (0.0, 0.0))
    with pytest.raises(InvalidState, match="zero-weight"):
        protocol._pair_collapse([zero, zero], (1.0, 0.0), 0.5)


def test_rounds_with_equal_unitaries_share_one_instrument(monkeypatch):
    # every round names its own Unitary object, all with the same entries
    rng = np.random.default_rng(11)
    entries = random_unitary(4, rng).entries
    att = AttackSpec(
        name="equal_entries",
        probe_dims=(2,),
        probe_factors=(random_state(SubsystemLayout((2,), ("E0",)), rng),),
        forward={r: Gate(Unitary(entries.copy()), ("T", "E0")) for r in range(40)},
    )
    assert len({id(g.unitary) for g in att.forward.values()}) == 40
    compiles = []
    compile_round = protocol._compile_round

    def counted(*args):
        compiles.append(args)
        return compile_round(*args)

    monkeypatch.setattr(protocol, "_compile_round", counted)
    for seed, ctrl_prob in ((0, 0.0), (1, 0.5), (2, 1.0)):
        cfg = ProtocolConfig(rounds=40, ctrl_prob=ctrl_prob, seed=seed)
        compiles.clear()
        assert records(run_protocol(cfg, att)) == reference_sampling(cfg, att)
        assert len(compiles) == 1


def _compiled_arrays(fwd, bwd, labels, dims):
    inst = protocol._compile_round(fwd, bwd, labels, dims)
    return inst.alice, inst.bob_z, inst.bob_x


def _assert_compiles_like_the_oracle(monkeypatch, fwd, bwd, labels, dims):
    compiled = _compiled_arrays(fwd, bwd, labels, dims)
    with monkeypatch.context() as mp:
        mp.setattr(protocol, "_gate_matrix", reference_gate_matrix)
        oracle = _compiled_arrays(fwd, bwd, labels, dims)
    for got, want in zip(compiled, oracle):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ATTACK_NAMES)
def test_compiled_rounds_of_builtins_match_the_per_column_oracle(monkeypatch, name):
    att = build_attack(name, params={"theta": 0.7} if name == "phase_probe" else {},
                       n_rounds=3, rounds=(0, 2))
    for i in range(3):
        fwd, bwd = att.forward_gate(i), att.backward_gate(i)
        labels = list(dict.fromkeys(
            t for g in (fwd, bwd) if g is not None for t in g.targets if t != "T"
        ))
        dims = [att.probe_factor(l).dim for l in labels]
        _assert_compiles_like_the_oracle(monkeypatch, fwd, bwd, labels, dims)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    data=st.data(),
)
def test_compiled_haar_rounds_match_the_per_column_oracle(seed, dims, data):
    # each gate acts on the transit and some probes, its targets shuffled
    rng = np.random.default_rng(seed)
    labels = [f"E{k}" for k in range(len(dims))]
    dim_of = {"T": 2, **dict(zip(labels, dims))}
    gates = []
    for _ in range(2):
        targets = ["T", *data.draw(st.lists(st.sampled_from(labels), unique=True))]
        targets = data.draw(st.permutations(targets))
        d = math.prod(dim_of[t] for t in targets)
        gates.append(data.draw(st.sampled_from([None, Gate(random_unitary(d, rng), targets)])))
    with pytest.MonkeyPatch.context() as mp:
        _assert_compiles_like_the_oracle(mp, *gates, labels, dims)


def test_dead_entangled_probes_do_not_grow_the_state(monkeypatch):
    # live during a round: the shared E0 and that round's E_{i+1}
    peak_dim = 4
    sizes = []
    collapse = protocol._collapse

    def bounded_collapse(kraus, psi, rng):
        sizes.append(len(psi))
        assert len(psi) <= peak_dim  # fail at once rather than grow to 2^65
        return collapse(kraus, psi, rng)

    monkeypatch.setattr(protocol, "_collapse", bounded_collapse)
    cfg = ProtocolConfig(rounds=64, ctrl_prob=1.0, seed=4)
    recs = records(run_protocol(cfg, dead_probe_entangler_attack(64)))
    assert len(recs) == 64
    assert all(r.bob_x_outcome is not None for r in recs)
    assert max(sizes) == peak_dim


class _FixedDraw:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _reinsert(rest, dims, pos, k):
    """Full vector with |k> put back at position pos of dims."""
    rest_dims = dims[:pos] + dims[pos + 1 :]
    ket = np.eye(dims[pos])[k]
    return np.moveaxis(np.multiply.outer(ket, rest.reshape(rest_dims)), 0, pos).reshape(-1)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2, 2), (2, 3, 3, 2)])
def test_measure_out_follows_the_projected_branches(dims):
    rng = np.random.default_rng(sum(dims))
    labels = tuple(f"E{k}" for k in range(len(dims)))
    state = random_state(SubsystemLayout(dims, labels), rng)
    for pos, label in enumerate(labels):
        branches = [engine.project(state, label, k) for k in range(dims[pos])]
        expected = [b.amps / math.sqrt(b.weight) for b in branches]
        weights = np.array([b.weight for b in branches])
        edges = np.concatenate([[0.0], np.cumsum(weights)])
        for k in range(dims[pos]):
            draw = _FixedDraw((edges[k] + edges[k + 1]) / 2)
            rest = protocol._measure_out(state.amps, list(dims), pos, draw)
            np.testing.assert_allclose(_reinsert(rest, dims, pos, k), expected[k], atol=1e-12)
        n = 4000
        counts = np.zeros(dims[pos])
        for _ in range(n):
            rest = protocol._measure_out(state.amps, list(dims), pos, rng)
            hits = [np.allclose(_reinsert(rest, dims, pos, k), e) for k, e in enumerate(expected)]
            assert sum(hits) == 1
            counts[hits.index(True)] += 1
        sigma = np.sqrt(weights * (1 - weights) / n)
        assert np.all(np.abs(counts / n - weights) <= 5 * sigma)


def test_dead_entangled_probes_keep_modes_equivalent():
    rep = sift_equivalence_check(
        ProtocolConfig(rounds=4, seed=24), dead_probe_entangler_attack(4), trials=300
    )
    assert abs(rep.exact_ctrl_error - 0.5) < 1e-9
    assert rep.exact_test_error < 1e-12
    assert rep.equivalent


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_abort_threshold(value):
    with pytest.raises(ValueError):
        ProtocolConfig(rounds=10, abort_threshold=value)


# ---------------------------------------------------------------------------
# Transcript validation
# ---------------------------------------------------------------------------


def _written_transcript(tmp_path):
    cfg = ProtocolConfig(rounds=20, seed=6)
    transcript, _ = run_with_stats(cfg, phase_probe_attack(1.0))
    path = tmp_path / "t.jsonl"
    write_transcript(path, transcript, attack={"name": "phase_probe"})
    return path, transcript


def test_read_transcript_round_trip(tmp_path):
    path, transcript = _written_transcript(tmp_path)
    header, back = read_transcript(path)
    assert header["seed"] == 6 and header["attack"] == {"name": "phase_probe"}
    assert records(back) == records(transcript)
    lines = path.read_text().splitlines()
    _rewrite(path, lines[:3] + ["", ""] + lines[3:])  # blank lines are skipped
    assert records(read_transcript(path)[1]) == records(transcript)


def test_read_transcript_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(IncompleteTranscript):
        read_transcript(path)


def test_read_transcript_rejects_header_without_config_key(tmp_path):
    path, _ = _written_transcript(tmp_path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    del header["ctrl_prob"]
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(IncompleteTranscript):
        read_transcript(path)


@pytest.mark.parametrize("change", ["drop", "add"])
def test_read_transcript_rejects_foreign_record_fields(tmp_path, change):
    path, _ = _written_transcript(tmp_path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[3])
    if change == "drop":
        del rec["role"]
    else:
        rec["note"] = 1
    lines[3] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IncompleteTranscript):
        read_transcript(path)


def _rewrite(path, lines):
    path.write_text("\n".join(lines) + "\n")


def test_key_and_test_bits_must_be_bits(tmp_path):
    path, transcript = _written_transcript(tmp_path)
    lines = path.read_text().splitlines()
    sift = transcript.codes >= 2
    rounds = [np.flatnonzero(sift & ~transcript.test)[0], np.flatnonzero(transcript.test)[0]]
    # bools and floats equal to a bit, null and 2 are no bits
    for i in rounds:
        for field in ("alice_bit", "bob_z_outcome"):
            for bad in (True, False, 1.0, 0.0, None, 2):
                rec = json.loads(lines[1 + i])
                rec[field] = bad
                _rewrite(path, lines[: 1 + i] + [json.dumps(rec)] + lines[2 + i :])
                with pytest.raises(IncompleteTranscript, match=f"round {i}$"):
                    read_transcript(path)
    _rewrite(path, lines)
    assert records(read_transcript(path)[1]) == records(transcript)


@pytest.mark.parametrize(
    "edit, says",
    [
        (lambda ls: ls[:-3], "ends at line 18, after 17 of 20 records"),
        (lambda ls: ls + [ls[-1].replace('"index": 19', '"index": 20')], "line 22 is past"),
        (lambda ls: [ls[0], ls[2], ls[1], *ls[3:]], "line 2 is not a line written for round 0$"),
        (lambda ls: ls[:5] + ls[6:], "line 6 is not a line written for round 4$"),
    ],
    ids=["truncated", "extended", "reordered", "gap"],
)
def test_read_transcript_refuses_records_out_of_place(tmp_path, edit, says):
    path, _ = _written_transcript(tmp_path)
    _rewrite(path, edit(path.read_text().splitlines()))
    with pytest.raises(IncompleteTranscript, match=says):
        read_transcript(path)


@pytest.mark.parametrize(
    "header",
    [
        lambda h: json.dumps({**h, "rounds": "20"}),
        lambda h: json.dumps({**h, "rounds": True}),
        lambda h: json.dumps({**h, "rounds": 20.5}),
        lambda h: json.dumps({**h, "ctrl_prob": 2}),
        lambda h: json.dumps({**h, "mode": "exact"}),
        lambda h: json.dumps([h]),
        lambda h: json.dumps(h)[:-1],
    ],
    ids=["rounds-text", "rounds-bool", "rounds-fraction", "ctrl-prob", "exact-cap", "list",
         "cut"],
)
def test_read_transcript_refuses_a_header_the_config_refuses(tmp_path, header):
    path, _ = _written_transcript(tmp_path)
    lines = path.read_text().splitlines()
    _rewrite(path, [header(json.loads(lines[0]))] + lines[1:])
    with pytest.raises(IncompleteTranscript, match="line 1: the header holds no valid config"):
        read_transcript(path)


def test_read_transcript_refuses_roles_on_some_lines_only(tmp_path):
    path, transcript = _written_transcript(tmp_path)
    bare = Transcript(transcript.config, transcript.codes)
    with pytest.raises(IncompleteTranscript, match="no roles; classical_phase assigns them$"):
        write_transcript(tmp_path / "bare.jsonl", bare)
    assert not (tmp_path / "bare.jsonl").exists()
    # role-less lines, as json.dumps(vars(record)) writes them
    reference_write_transcript(tmp_path / "bare.jsonl", bare.config, records(bare))
    with pytest.raises(IncompleteTranscript, match="line 2 is not a line written for round 0$"):
        read_transcript(tmp_path / "bare.jsonl")
    lines = path.read_text().splitlines()
    lines[4] = (tmp_path / "bare.jsonl").read_text().splitlines()[4]
    _rewrite(path, lines)
    with pytest.raises(IncompleteTranscript, match="line 5 is not a line written for round 3$"):
        read_transcript(path)


def test_pending_exact_transcript_is_refused(tmp_path):
    transcript = run_protocol(ProtocolConfig(rounds=4, seed=2, mode=MODE_EXACT), swap_attack(4))
    path = tmp_path / "t.jsonl"
    with pytest.raises(IncompleteTranscript, match="no roles; classical_phase assigns them$"):
        write_transcript(path, transcript)
    assert not path.exists()
    with pytest.raises(IncompleteTranscript, match="no roles; classical_phase assigns them$"):
        run_stats(transcript)
    # pending lines, as json.dumps(vars(record)) writes them
    reference_write_transcript(path, transcript.config, records(transcript))
    with pytest.raises(IncompleteTranscript, match="line 2 is not a line written for round 0$"):
        read_transcript(path)
    transcript.test = np.zeros(4, dtype=bool)
    with pytest.raises(IncompleteTranscript, match="round 0 lacks recorded outcomes"):
        run_stats(transcript)


def test_write_transcript_refuses_a_round_with_no_line(tmp_path):
    path = tmp_path / "t.jsonl"
    cfg = ProtocolConfig(rounds=3)
    for transcript, says in [
        # a Test bit on a CTRL round
        (Transcript(cfg, np.array([0, 2, 3], dtype=np.int8), test=np.array([True, False, False])),
         "round 0 has no line: code 0 marked Test$"),
        # codes outside -1..6; -127 would wrap onto code 1's key in int8
        (Transcript(cfg, np.array([0, 7, 2], dtype=np.int8), test=np.zeros(3, bool)),
         "round 1 has no line: code 7$"),
        (Transcript(cfg, np.array([2, 3, -127], dtype=np.int8), test=np.zeros(3, bool)),
         "round 2 has no line: code -127$"),
        # a pending code once roles are set
        (Transcript(cfg, np.array([2, 6, 3], dtype=np.int8), test=np.zeros(3, dtype=bool)),
         "round 1 has no line: code 6$"),
    ]:
        with pytest.raises(IncompleteTranscript, match=says):
            write_transcript(path, transcript)
        assert not path.exists()


def test_write_transcript_writes_exactly_the_ten_classes(tmp_path):
    # every int8 code with and without a Test bit, after one Ctrl and one Key round
    path, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
    cfg = ProtocolConfig(rounds=3)
    written = set()
    for code in range(-128, 128):
        for bit in (False, True):
            codes = np.array([0, 2, code], dtype=np.int8)
            transcript = Transcript(cfg, codes, test=np.array([False, False, bit]))
            try:
                write_transcript(path, transcript)
            except IncompleteTranscript as exc:
                assert str(exc) == f"round 2 has no line: code {code}" + " marked Test" * bit
                assert not path.exists()
                continue
            written.add((code, bit))
            reference_write_transcript(want, cfg, records(transcript))
            assert path.read_bytes() == want.read_bytes()
            _, back = read_transcript(path)
            assert np.array_equal(back.codes, codes) and np.array_equal(back.test, transcript.test)
            path.unlink()
    assert written == {(c, False) for c in range(6)} | {(c, True) for c in range(2, 6)}


def test_read_transcript_names_a_line_that_is_not_utf8(tmp_path):
    path, _ = _written_transcript(tmp_path)
    data = path.read_bytes()
    assert data.count(b'"CTRL"') > 1
    path.write_bytes(data.replace(b'"CTRL"', b'"\xff"', 1))
    n = data[: data.index(b'"CTRL"')].count(b"\n") + 1
    with pytest.raises(IncompleteTranscript, match=f"^line {n} is not UTF-8 text"):
        read_transcript(path)


def test_reader_holds_codes_not_lines(tmp_path):
    rounds = 2 * 10**5
    rng = np.random.default_rng(4)
    codes = rng.integers(0, 6, size=rounds).astype(np.int8)
    test = (codes >= 2) & (rng.random(rounds) < 0.5)
    path = tmp_path / "t.jsonl"
    write_transcript(path, Transcript(ProtocolConfig(rounds=rounds), codes, test=test))
    tracemalloc.start()
    try:
        _, back = read_transcript(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
    assert np.array_equal(back.codes, codes) and np.array_equal(back.test, test)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"abort_threshold": -0.1}, "abort_threshold must be >= 0"),
        ({"abort_threshold": -1}, "abort_threshold must be >= 0"),
        ({"seed": -1}, "seed must be a 64-bit unsigned integer"),
        ({"seed": 2**64}, "seed must be a 64-bit unsigned integer"),
    ],
    ids=["threshold-fraction", "threshold-int", "seed-negative", "seed-2^64"],
)
def test_protocol_config_refuses_out_of_range_values(overrides, message):
    with pytest.raises(ValueError, match=message):
        ProtocolConfig(rounds=4, **overrides)
