import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqkd import engine, protocol
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
    PLUS,
    SubsystemLayout,
    ket_zero,
    permute,
    phase_deviation,
    random_state,
    random_unitary,
    tensor,
)
from sqkd.errors import ExactCapExceeded, IncompleteTranscript
from sqkd.protocol import (
    CTRL,
    EXACT_ROUND_CAP,
    MODE_EXACT,
    ProtocolConfig,
    ROLE_CTRL,
    ROLE_TEST,
    SIFT,
    classical_phase,
    derive_seed,
    read_transcript,
    run_protocol,
    sift_equivalence_check,
    stats_from_records,
    stream_rng,
    write_transcript,
)

from helpers import dead_probe_entangler_attack, probe_decoupled_attack, reference_sampling


def run_with_stats(config, attack):
    transcript = run_protocol(config, attack)
    stats = classical_phase(transcript, stream_rng(config.seed, 1))
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
    for rec in transcript.records:
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
    assert all(r.choice == CTRL for r in transcript.records)
    assert all(r.alice_bit is None for r in transcript.records)


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
    for rec in transcript.records:
        if rec.choice == SIFT:
            assert rec.alice_bit in (0, 1)
        else:
            assert rec.alice_bit is None
        assert (rec.error is not None) == (rec.role in (ROLE_CTRL, ROLE_TEST))
    assert [r.index for r in transcript.records] == list(range(cfg.rounds))


def test_incomplete_transcript_is_rejected():
    cfg = ProtocolConfig(rounds=10, seed=0)
    transcript = run_protocol(cfg, identity_attack())
    transcript.records.pop()
    with pytest.raises(IncompleteTranscript):
        classical_phase(transcript, stream_rng(0, 1))

    cfg = ProtocolConfig(rounds=3, seed=0, mode=MODE_EXACT)
    transcript = run_protocol(cfg, identity_attack())
    transcript.final_state = None
    with pytest.raises(IncompleteTranscript):
        classical_phase(transcript, stream_rng(0, 1))


# ---------------------------------------------------------------------------
# Determinism and serialization
# ---------------------------------------------------------------------------


def test_identical_seeds_give_identical_transcripts():
    cfg = ProtocolConfig(rounds=300, seed=123)
    att = measure_resend_z_attack(300)
    runs = []
    for _ in range(2):
        transcript, _ = run_with_stats(cfg, att)
        runs.append(json.dumps([vars(r) for r in transcript.records]))
    assert runs[0] == runs[1]


def test_derive_seed_is_deterministic_and_splits():
    assert derive_seed(42, 0) == derive_seed(42, 0)
    assert derive_seed(42, 0) != derive_seed(42, 1)
    assert derive_seed(42, 0) != derive_seed(43, 0)


def test_transcript_round_trip(tmp_path):
    cfg = ProtocolConfig(rounds=120, seed=77)
    transcript, stats = run_with_stats(cfg, swap_attack(120))
    path = tmp_path / "run.jsonl"
    write_transcript(path, transcript, header_extra={"attack": {"name": "swap"}})
    header, records = read_transcript(path)
    assert header["rounds"] == 120 and header["attack"]["name"] == "swap"
    assert [vars(r) for r in records] == [vars(r) for r in transcript.records]
    recomputed = stats_from_records(records, header["abort_threshold"])
    assert recomputed == stats


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
        assert run_protocol(cfg, att).records == reference_sampling(cfg, att)


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
    assert run_protocol(cfg, att).records == reference_sampling(cfg, att)


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
    records = run_protocol(cfg, dead_probe_entangler_attack(64)).records
    assert len(records) == 64
    assert all(r.bob_x_outcome is not None for r in records)
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
    write_transcript(path, transcript, header_extra={"attack": {"name": "phase_probe"}})
    return path, transcript


def test_read_transcript_round_trip(tmp_path):
    path, transcript = _written_transcript(tmp_path)
    header, records = read_transcript(path)
    assert header["seed"] == 6 and header["attack"] == {"name": "phase_probe"}
    assert records == transcript.records


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
