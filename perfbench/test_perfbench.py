"""Tests of the benchmark itself: run with `python -m pytest perfbench -q`."""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ops  # noqa: E402
from sqkd import attacks, cli  # noqa: E402


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_same_seed_same_ops(workload):
    def specs(seed):
        return [op.spec() for c in range(2) for op in ops.cycle(workload, seed, c)]

    assert specs(5) == specs(5)
    assert specs(5) != specs(6)


def _swap_op(rounds=2000):
    op = next(o for o in ops.cycle("sample", 3, 0) if o.attack == "swap")
    op.config["rounds"] = op.rounds = rounds
    return op


def _run(op, tmp_path) -> ops.Runner:
    runner = ops.Runner("sample", 3, tmp_path)
    runner.run_op(op, "test")
    return runner


def test_swap_reporting_no_test_errors_is_a_failed_op(tmp_path, monkeypatch):
    op = _swap_op()
    assert _run(op, tmp_path).failed == 0

    honest = cli.classical_phase

    def corrupted(transcript, rng):
        stats = honest(transcript, rng)
        return dataclasses.replace(stats, test_errors=0, test_error_rate=0.0)

    monkeypatch.setattr(cli, "classical_phase", corrupted)
    runner = _run(op, tmp_path)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "TEST error rate" in runner.problems[0]


def test_flipped_verdict_is_a_failed_op(tmp_path, monkeypatch):
    op = ops.cycle("verify", 3, 0)[0]
    assert op.attack == "identity"
    assert _run(op, tmp_path).failed == 0

    honest = cli.theorem_check

    def flipped(*args, **kwargs):
        report = honest(*args, **kwargs)
        return dataclasses.replace(report, passed=not report.passed)

    monkeypatch.setattr(cli, "theorem_check", flipped)
    runner = _run(op, tmp_path)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_silent_attack_reaches_the_check_command(tmp_path):
    op = next(o for o in ops.cycle("verify", 3, 0) if o.silent is not None)
    res = ops.execute(op, tmp_path)
    assert res.verdict["attack"] == op.silent.name
    assert ops.check(op, res) == []
    assert cli.build_attack is attacks.build_attack
