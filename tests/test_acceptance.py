"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np
import pytest

from sqkd import cli
from sqkd.analysis import (
    constraint_check,
    default_patterns,
    eve_leakage,
    product_structure_check,
    sift_equivalence_check,
    theorem_check,
)
from sqkd.attacks import (
    cnot_parity_attack,
    identity_attack,
    measure_resend_z_attack,
    phase_probe_attack,
    swap_attack,
)
from sqkd.engine import (
    MINUS,
    PLUS,
    DensityMatrix,
    StateVector,
    SubsystemLayout,
    partial_trace,
    permute,
    phase_deviation,
    purity,
    random_state,
    random_unitary,
)
from sqkd.protocol import MODE_EXACT, ProtocolConfig, classical_phase, run_protocol

from helpers import oracle_partial_trace, probe_decoupled_attack, records


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    else:
        print(f"[acceptance] criterion {number}: PASS - {description}")


def test_c1_robustness_baseline():
    with criterion(1, "identity attack at N=10^4 is exactly error-free in < 5 s"):
        start = time.perf_counter()
        cfg = ProtocolConfig(rounds=10_000, ctrl_prob=0.5, test_fraction=0.5, seed=20260809)
        transcript = run_protocol(cfg, identity_attack())
        stats = classical_phase(transcript)
        elapsed = time.perf_counter() - start
        assert stats.ctrl_error_rate == 0.0
        assert stats.test_error_rate == 0.0
        assert stats.key_mismatch_rate == 0.0
        assert not stats.aborted
        assert elapsed < 5.0, f"run took {elapsed:.2f} s"


def test_c2_counterexample_state():
    with criterion(2, "two-round parity attack reproduces the exact non-product state"):
        cfg = ProtocolConfig(rounds=2, ctrl_prob=1.0, seed=1, mode=MODE_EXACT)
        final = run_protocol(cfg, cnot_parity_attack()).final_state
        amps = np.zeros((2, 2, 2), dtype=complex)
        amps[0, 0, 0] = amps[1, 1, 0] = amps[0, 1, 1] = amps[1, 0, 1] = 0.5
        expected = StateVector(
            SubsystemLayout((2, 2, 2), ("B0", "B1", "E0")), amps.reshape(-1)
        )
        expected = permute(expected, final.layout.labels)
        assert phase_deviation(expected, final) < 1e-9

        rho_b = partial_trace(final, ["B0", "B1"])
        p_joint = purity(rho_b)
        assert abs(p_joint - 0.5) < 1e-9
        marginals = np.kron(
            partial_trace(final, ["B0"]).entries, partial_trace(final, ["B1"]).entries
        )
        p_product = purity(DensityMatrix(marginals))
        assert abs(p_product - 0.25) < 1e-9
        assert p_joint > p_product  # the memory is not a product state


def test_c3_counterexample_statistics():
    with criterion(3, "sampled parity attack yields only (+,+)/(-,-), each 0.5 ± 0.02"):
        trials = 10_000
        joint_counts = {}
        minus_per_round = [0, 0]
        for t in range(trials):
            cfg = ProtocolConfig(rounds=2, ctrl_prob=1.0, seed=t)
            recs = records(run_protocol(cfg, cnot_parity_attack()))
            pair = (recs[0].bob_x_outcome, recs[1].bob_x_outcome)
            joint_counts[pair] = joint_counts.get(pair, 0) + 1
            for i in (0, 1):
                minus_per_round[i] += recs[i].bob_x_outcome == MINUS
        assert set(joint_counts) <= {(PLUS, PLUS), (MINUS, MINUS)}
        for pair in ((PLUS, PLUS), (MINUS, MINUS)):
            assert abs(joint_counts.get(pair, 0) / trials - 0.5) < 0.02
        for i in (0, 1):
            assert abs(minus_per_round[i] / trials - 0.5) < 0.02


def test_c4_constraint_theorem_suite():
    with criterion(4, "zero residual forces zero leakage for 52 silent attacks in < 60 s"):
        start = time.perf_counter()
        attacks = [identity_attack(), phase_probe_attack(0.0)]
        attacks += [probe_decoupled_attack(seed, dim=2 + seed % 3) for seed in range(50)]
        for att in attacks:
            rep = theorem_check(att, eps=1e-9, max_pattern_len=6)
            assert rep.max_residual <= 1e-9, att.name
            assert rep.max_leakage <= 1e-8, att.name
            assert rep.passed, att.name
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"suite took {elapsed:.1f} s"


def test_c5_tradeoff_curve():
    with criterion(5, "phase-probe curve matches (1-cos θ)/2 and sin θ to 1e-9"):
        thetas = [round(0.1 * k, 10) for k in range(16)] + [math.pi / 2]
        for theta in thetas:
            att = phase_probe_attack(theta)
            ctrl = constraint_check(att, 0).ctrl_error_prob
            leak = eve_leakage(att, "S").per_bit_trace_distance[0]
            assert abs(ctrl - (1 - math.cos(theta)) / 2) < 1e-9
            assert abs(leak - math.sin(theta)) < 1e-9
            if theta == 0.0:
                assert ctrl == 0.0
                assert leak == 0.0


def test_c6_complementary_attacks():
    with criterion(6, "measure-resend trips only CTRL; swap trips only TEST"):
        n = 10_000
        cfg = ProtocolConfig(rounds=n, seed=31)
        stats = classical_phase(run_protocol(cfg, measure_resend_z_attack(n)))
        assert stats.test_error_rate == 0.0
        assert abs(stats.ctrl_error_rate - 0.5) < 0.02
        leak = eve_leakage(measure_resend_z_attack(1), "S")
        assert abs(leak.per_bit_trace_distance[0] - 1.0) < 1e-9

        cfg = ProtocolConfig(rounds=n, seed=32)
        stats = classical_phase(run_protocol(cfg, swap_attack(n)))
        assert stats.ctrl_error_rate == 0.0
        assert abs(stats.test_error_rate - 0.5) < 0.02
        leak = eve_leakage(swap_attack(1), "S")
        assert abs(leak.per_bit_trace_distance[0] - 1.0) < 1e-9


def test_c7_product_structure():
    with criterion(7, "identity final state is the announced round-state product, len ≤ 4"):
        for pattern in default_patterns(4):
            rep = product_structure_check(identity_attack(), pattern)
            assert rep.precondition_ok, pattern
            assert rep.product_ok, pattern
            assert rep.max_deviation < 1e-9, pattern


def test_c8_mode_equivalence():
    with criterion(8, "exact Born rates match sampled frequencies within 4 SE at 10^4 rounds"):
        cases = [
            (identity_attack(), 4),
            (cnot_parity_attack(), 4),
            (measure_resend_z_attack(4), 4),
            (swap_attack(4), 4),
            (phase_probe_attack(math.pi / 3), 4),
        ]
        for att, rounds in cases:
            cfg = ProtocolConfig(rounds=rounds, seed=5150)
            rep = sift_equivalence_check(cfg, att, trials=2500)
            assert rep.equivalent, (att.name, asdict(rep))


def test_c9_engine_oracle_suite(tmp_path):
    with criterion(9, "kernel matches brute-force oracles; runs are bit-reproducible"):
        # partial trace against the definitional oracle, total dim <= 64
        rng = np.random.default_rng(2024)
        cases = [
            ((2, 2), [0]),
            ((2, 2, 2), [0, 2]),
            ((2, 3, 2), [1]),
            ((4, 2, 2), [0, 1]),
            ((2, 2, 2, 2, 2, 2), [1, 4]),
        ]
        for dims, keep in cases:
            labels = tuple(f"s{i}" for i in range(len(dims)))
            for _ in range(4):
                psi = random_state(SubsystemLayout(dims, labels), rng)
                got = partial_trace(psi, [labels[k] for k in keep])
                want = oracle_partial_trace(psi.amps, dims, keep)
                assert np.abs(got.entries - want).max() < 1e-9

        # unitarity, norm, and trace invariants on 1000 random cases
        from sqkd.engine import apply_unitary

        layout = SubsystemLayout((2, 2, 2), ("a", "b", "c"))
        for _ in range(1000):
            u = random_unitary(4, rng)
            defect = np.linalg.norm(u.entries.conj().T @ u.entries - np.eye(4))
            assert defect < 1e-9
            psi = random_state(layout, rng)
            out = apply_unitary(psi, u, ["a", "c"])
            assert abs(np.linalg.norm(out.amps) - 1) < 1e-10
            rho = partial_trace(out, ["a", "b"])
            assert abs(np.trace(rho.entries).real - 1) < 1e-9

        # byte-for-byte determinism of a full CLI run under a fixed seed
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "rounds": 500,
                    "seed": 424242,
                    "attack": {"name": "measure_resend_z"},
                }
            )
        )
        blobs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{tag}.json"
            code = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
            assert code == 2  # the intercept-resend attack must be detected
            blobs.append(
                out.read_bytes() + (tmp_path / f"{tag}.jsonl").read_bytes()
            )
        assert blobs[0] == blobs[1]
