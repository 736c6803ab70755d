import csv
import hashlib
import json
import math
import tracemalloc
from dataclasses import asdict

import pytest

from sqkd import cli
from sqkd.errors import GridTooLarge
from sqkd.analysis import TheoremReport
from sqkd.protocol import ProtocolConfig, read_transcript, stats_from_records


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "rounds": 400,
        "ctrl_prob": 0.5,
        "test_fraction": 0.5,
        "seed": 13,
        "mode": "sampling",
        "attack": {"name": "identity"},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_identity_exits_zero(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "stats.json"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    stats = json.loads(out.read_text())
    assert stats["ctrl_error_rate"] == 0.0
    assert stats["test_error_rate"] == 0.0
    assert stats["key_mismatch_rate"] == 0.0
    assert stats["aborted"] is False
    assert (tmp_path / "stats.jsonl").exists()


def test_run_detects_measure_resend(tmp_path):
    cfg = write_config(tmp_path, attack={"name": "measure_resend_z"})
    out = tmp_path / "stats.json"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    stats = json.loads(out.read_text())
    assert stats["aborted"] is True
    assert abs(stats["ctrl_error_rate"] - 0.5) < 0.15


def test_run_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"rounds": ')
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_rejects_unknown_keys(tmp_path):
    cfg = write_config(tmp_path, typo_key=3)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 1


def test_run_rejects_unknown_attack(tmp_path):
    cfg = write_config(tmp_path, attack={"name": "nemo"})
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 1


def test_run_passes_attack_params_and_rounds(tmp_path):
    cfg = write_config(
        tmp_path, rounds=2000, attack={"name": "phase_probe", "params": {"theta": 1.2}}
    )
    out = tmp_path / "p.json"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    stats = json.loads(out.read_text())
    assert abs(stats["ctrl_error_rate"] - (1 - math.cos(1.2)) / 2) < 0.06

    cfg = write_config(
        tmp_path, name="cp.json", rounds=50, attack={"name": "cnot_parity", "rounds": [1, 3]}
    )
    out = tmp_path / "cp_stats.json"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) in (0, 2)
    header, records = read_transcript(tmp_path / "cp_stats.jsonl")
    assert header["attack"]["rounds"] == [1, 3]
    assert len(records) == 50


def test_run_rejects_params_the_attack_does_not_take(tmp_path, capsys):
    for attack in (
        {"name": "phase_probe", "params": {"theta": 0.5, "bogus": 3}},
        {"name": "identity", "params": {"theta": 0.5}},
    ):
        cfg = write_config(tmp_path, attack=attack)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 1
        assert "takes no parameter" in capsys.readouterr().err


def test_run_rejects_bad_cnot_parity_rounds(tmp_path):
    out = str(tmp_path / "o.json")
    for rounds in ([0, 400], [399, 400], [-1, 3], [0], [0, 1, 2], [0.5, 1], ["0", "1"],
                   [True, 2], 3):
        cfg = write_config(tmp_path, attack={"name": "cnot_parity", "rounds": rounds})
        assert cli.main(["run", "--config", str(cfg), "--out", out]) == 1, rounds
    cfg = write_config(tmp_path, attack={"name": "cnot_parity", "rounds": [398, 399]})
    assert cli.main(["run", "--config", str(cfg), "--out", out]) in (0, 2)
    # the other attacks ignore the attacked rounds, whatever their form
    cfg = write_config(tmp_path, attack={"name": "identity", "rounds": 3})
    assert cli.main(["run", "--config", str(cfg), "--out", out]) == 0


def test_run_rejects_non_finite_abort_threshold(tmp_path, capsys):
    # json writes and reads these as the bare tokens NaN, Infinity, -Infinity
    for value in (math.nan, math.inf, -math.inf):
        cfg = write_config(tmp_path, attack={"name": "measure_resend_z"}, abort_threshold=value)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 1
        assert "abort_threshold" in capsys.readouterr().err


def test_run_rejects_non_integer_rounds_and_seed(tmp_path, capsys):
    out = tmp_path / "o.json"
    for key, value in (("rounds", 200.9), ("rounds", True), ("rounds", "200"),
                       ("seed", 1.7), ("seed", False), ("seed", None)):
        cfg = write_config(tmp_path, **{key: value})
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1, (key, value)
        assert f"{key} must be an integer" in capsys.readouterr().err
        assert not out.exists()
    cfg = write_config(tmp_path, rounds=200, seed=1)
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    _, records = read_transcript(tmp_path / "o.jsonl")
    assert len(records) == 200


def test_run_rejects_non_numeric_probabilities(tmp_path, capsys):
    out = tmp_path / "o.json"
    for key in ("ctrl_prob", "test_fraction", "abort_threshold"):
        for value in (None, [0.5], {}, True, False, "0.5", "abc"):
            cfg = write_config(tmp_path, **{key: value})
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
            assert f"{key} must be a number" in capsys.readouterr().err


def test_run_rejects_malformed_attack_params(tmp_path, capsys):
    out = tmp_path / "o.json"
    for params, message in (
        ([1], "attack params must be an object"),
        ("theta", "attack params must be an object"),
        ({"theta": None}, "param theta must be a number"),
        ({"theta": [0.5]}, "param theta must be a number"),
        ({"theta": True}, "param theta must be a number"),
        ({"theta": False}, "param theta must be a number"),
        ({"theta": "0.5"}, "param theta must be a number"),
        ({"theta": "abc"}, "param theta must be a number"),
    ):
        cfg = write_config(tmp_path, attack={"name": "phase_probe", "params": params})
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err


def test_run_fills_left_out_keys_from_the_config_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": 30}))
    out = tmp_path / "o.json"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    header, _ = read_transcript(tmp_path / "o.jsonl")
    assert header == {**asdict(ProtocolConfig(rounds=30)), "attack": {"name": "identity"}}


def test_run_transcript_round_trip(tmp_path):
    cfg = write_config(tmp_path, attack={"name": "swap"})
    out = tmp_path / "stats.json"
    cli.main(["run", "--config", str(cfg), "--out", str(out)])
    header, records = read_transcript(tmp_path / "stats.jsonl")
    recomputed = stats_from_records(records, header["abort_threshold"])
    assert asdict(recomputed) == json.loads(out.read_text())
    assert header["attack"]["name"] == "swap"
    assert len(records) == header["rounds"]


def test_run_is_deterministic_byte_for_byte(tmp_path):
    cfg = write_config(tmp_path, attack={"name": "measure_resend_z"}, seed=99)
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        cli.main(["run", "--config", str(cfg), "--out", str(out)])
        blobs.append(out.read_bytes() + (tmp_path / f"{tag}.jsonl").read_bytes())
    assert blobs[0] == blobs[1]


def test_seed_env_override(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, seed=1)
    out_env = tmp_path / "env.json"
    monkeypatch.setenv(cli.SEED_ENV, "2")
    cli.main(["run", "--config", str(cfg), "--out", str(out_env)])
    monkeypatch.delenv(cli.SEED_ENV)

    cfg2 = write_config(tmp_path, name="cfg2.json", seed=2)
    out_direct = tmp_path / "direct.json"
    cli.main(["run", "--config", str(cfg2), "--out", str(out_direct)])
    assert (tmp_path / "env.jsonl").read_text() == (tmp_path / "direct.jsonl").read_text()

    for value in ("abc", "1.5"):
        monkeypatch.setenv(cli.SEED_ENV, value)
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "bad.json")]) == 1
        assert cli.SEED_ENV in capsys.readouterr().err


def test_exact_mode_run(tmp_path):
    cfg = write_config(tmp_path, rounds=4, mode="exact", attack={"name": "cnot_parity"})
    out = tmp_path / "stats.json"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    stats = json.loads(out.read_text())
    assert code in (0, 2)
    assert (code == 2) == stats["aborted"]
    # exact mode beyond the cap is a config error
    cfg_big = write_config(tmp_path, name="big.json", rounds=9, mode="exact")
    assert cli.main(["run", "--config", str(cfg_big), "--out", str(out)]) == 1


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_identity(capsys):
    assert cli.main(["check", "--attack", "identity", "--max-pattern-len", "3"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["passed"] is True
    assert verdict["max_residual"] == 0.0
    assert verdict["max_leakage"] == 0.0
    assert all(r["test_residual"] == 0.0 for r in verdict["rounds"])


def test_check_cnot_parity_reports_exact_marginals(capsys):
    assert cli.main(["check", "--attack", "cnot_parity", "--max-pattern-len", "3"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    # per-round marginal CTRL error on each attacked round is exactly 1/2
    assert abs(verdict["rounds"][0]["ctrl_error_prob"] - 0.5) < 1e-9
    assert abs(verdict["rounds"][1]["ctrl_error_prob"] - 0.5) < 1e-9
    assert verdict["rounds"][2]["ctrl_error_prob"] < 1e-9
    assert verdict["passed"] is True  # detectable, so the theorem is vacuous


def test_check_phase_probe_closed_forms(capsys):
    theta = 0.5
    code = cli.main(
        ["check", "--attack", "phase_probe", "--param", f"theta={theta}",
         "--max-pattern-len", "4"]
    )
    assert code == 0
    verdict = json.loads(capsys.readouterr().out)
    assert abs(verdict["max_residual"] - (1 - math.cos(theta)) / 2) < 1e-9
    assert abs(verdict["max_leakage"] - math.sin(theta)) < 1e-9


def test_check_unknown_attack(capsys):
    assert cli.main(["check", "--attack", "nope"]) == 1
    assert "error:" in capsys.readouterr().err


def test_check_exit_three_on_theorem_failure(monkeypatch, capsys):
    # No physical attack can fail the theorem; force a failing report to pin
    # the exit-code contract.
    def fake_theorem_check(attack, patterns=None, eps=1e-9, max_pattern_len=6, **kw):
        return TheoremReport(
            max_residual=0.0, max_leakage=1.0, eps=eps, passed=False, n_patterns=0
        )

    monkeypatch.setattr(cli, "theorem_check", fake_theorem_check)
    assert cli.main(["check", "--attack", "identity", "--max-pattern-len", "2"]) == 3
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["passed"] is False


def test_check_rejects_params_the_attack_does_not_take(capsys):
    argv = ["check", "--attack", "phase_probe", "--param", "theta=0.5", "--param", "bogus=3"]
    assert cli.main(argv + ["--max-pattern-len", "1"]) == 1
    assert "bogus" in capsys.readouterr().err
    assert cli.main(["check", "--attack", "swap", "--param", "theta=0.5"]) == 1


def test_check_bad_param_syntax(capsys):
    assert cli.main(["check", "--attack", "phase_probe", "--param", "theta"]) == 1
    capsys.readouterr()
    assert cli.main(["check", "--attack", "phase_probe", "--param", "theta=abc"]) == 1
    assert "--param theta must be a number" in capsys.readouterr().err


def test_check_rejects_checks_it_cannot_honour(capsys):
    for extra in (["--eps", "nan"], ["--eps", "inf"], ["--eps=-1e-9"],
                  ["--max-pattern-len", "0"], ["--max-pattern-len", "-2"]):
        assert cli.main(["check", "--attack", "identity", *extra]) == 1, extra
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


# ---------------------------------------------------------------------------
# On-disk format, pinned byte for byte
# ---------------------------------------------------------------------------

GOLDEN_RUN_CONFIG = {
    "rounds": 6,
    "seed": 3,
    "attack": {"name": "phase_probe", "params": {"theta": 0.5}},
}

GOLDEN_STATS = """\
{
  "n_ctrl": 4,
  "n_test": 1,
  "n_key": 1,
  "ctrl_errors": 0,
  "test_errors": 0,
  "ctrl_error_rate": 0.0,
  "test_error_rate": 0.0,
  "key_alice": "1",
  "key_bob": "1",
  "key_mismatch_rate": 0.0,
  "aborted": false
}
"""

GOLDEN_TRANSCRIPT = """\
{"rounds": 6, "ctrl_prob": 0.5, "test_fraction": 0.5, "seed": 3, "mode": "sampling", "abort_threshold": 0.0, "attack": {"name": "phase_probe", "params": {"theta": 0.5}}}
{"index": 0, "choice": "CTRL", "alice_bit": null, "role": "Ctrl", "bob_x_outcome": "plus", "bob_z_outcome": null, "error": false}
{"index": 1, "choice": "SIFT", "alice_bit": 1, "role": "Key", "bob_x_outcome": null, "bob_z_outcome": 1, "error": null}
{"index": 2, "choice": "CTRL", "alice_bit": null, "role": "Ctrl", "bob_x_outcome": "plus", "bob_z_outcome": null, "error": false}
{"index": 3, "choice": "CTRL", "alice_bit": null, "role": "Ctrl", "bob_x_outcome": "plus", "bob_z_outcome": null, "error": false}
{"index": 4, "choice": "CTRL", "alice_bit": null, "role": "Ctrl", "bob_x_outcome": "plus", "bob_z_outcome": null, "error": false}
{"index": 5, "choice": "SIFT", "alice_bit": 0, "role": "Test", "bob_x_outcome": null, "bob_z_outcome": 0, "error": false}
"""

GOLDEN_CHECK = """\
{
  "attack": "identity",
  "params": {},
  "eps": 1e-09,
  "max_pattern_len": 2,
  "rounds": [
    {
      "round": 0,
      "test_residual": 0.0,
      "ctrl_error_prob": 0.0,
      "f_distance": 0.0
    },
    {
      "round": 1,
      "test_residual": 0.0,
      "ctrl_error_prob": 0.0,
      "f_distance": 0.0
    }
  ],
  "max_residual": 0.0,
  "max_leakage": 0.0,
  "passed": true
}
"""


def test_run_output_bytes_are_pinned(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(GOLDEN_RUN_CONFIG))
    out = tmp_path / "stats.json"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_STATS.encode()
    assert (tmp_path / "stats.jsonl").read_bytes() == GOLDEN_TRANSCRIPT.encode()


#: SHA-256 of the stats JSON followed by the transcript of a 10^4-round run
#: at seed 2024, and the exit code; cnot_parity's window puts tabled rounds
#: before and after rounds that carry its probe
PINNED_SAMPLED_RUNS = {
    "identity": ({"name": "identity"}, 0, "9fe19be3f0daac6eb72f9acbb5a954b879d33d741793e588c84cb02d3fac0ea0"),
    "cnot_parity": (
        {"name": "cnot_parity", "rounds": [2500, 7500]},
        0,
        "5b28c305365d00b61fe7566fe2fb1b61781cbf66d64b94864638ae54d2934cfd",
    ),
    "measure_resend_z": (
        {"name": "measure_resend_z"},
        2,
        "1c7cb77fe422b2a009ecd324cf1396b1740d2fde1fdd05c7d9aae7bfc8c35fd8",
    ),
    "swap": ({"name": "swap"}, 2, "86c67df4244b3a7a5ab08bb9cf5028a654e505fa947b1726692e4e708447b478"),
    "phase_probe": (
        {"name": "phase_probe", "params": {"theta": 0.9}},
        2,
        "f36dc1611087abfb0747fb9d860d463ec55c96a4dfaaa20c1282f54d631c4cbe",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SAMPLED_RUNS))
def test_sampled_runs_are_pinned(tmp_path, name):
    attack, code, digest = PINNED_SAMPLED_RUNS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": 10_000, "seed": 2024, "attack": attack}))
    out = tmp_path / "stats.json"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == code
    data = out.read_bytes() + out.with_suffix(".jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


#: as PINNED_SAMPLED_RUNS, at the edges of the live-probe loop: a theta so
#: small that every outcome weight snaps to 0 or 1, theta = pi, and a window
#: that keeps cnot_parity's probe live from round 1 to round 9998
PINNED_EDGE_RUNS = {
    "phase_probe_tiny_theta": (
        {"name": "phase_probe", "params": {"theta": 1e-7}},
        0,
        "80e4aa7ef199fdd6e6b182ed8e9a5fb7e4cc81dc784edc76915f95d0a85d126b",
    ),
    "phase_probe_pi": (
        {"name": "phase_probe", "params": {"theta": math.pi}},
        2,
        "eb815cbe13a247978f4b797b4ffd3c3ee89a4c71940c650b7bfc4f965da5630d",
    ),
    "cnot_parity_widest_window": (
        {"name": "cnot_parity", "rounds": [1, 9998]},
        2,
        "b43527d30d308cfb2fdc78c2ea379b56a244269397b2f6f053f1c73611f80445",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_EDGE_RUNS))
def test_sampled_edge_runs_are_pinned(tmp_path, name):
    attack, code, digest = PINNED_EDGE_RUNS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": 10_000, "seed": 2024, "attack": attack}))
    out = tmp_path / "stats.json"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == code
    data = out.read_bytes() + out.with_suffix(".jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


#: SHA-256 of the stats JSON followed by the transcript of an exact-mode run,
#: and the exit code, by seed; the classical phase measures every stored qubit
PINNED_EXACT_RUNS = {
    "identity": ({"name": "identity"}, 7, {
        5: (0, "f711b5ea500da78cbd8f829b8c5aa306e0b5a90dc0f4ec8e0f6e69b88e7e831b"),
        2024: (0, "bf835c32cc65f3e9f985e588ab83a4a3c30d3c9b94412f26f6ff9bc517a90665"),
    }),
    "cnot_parity": ({"name": "cnot_parity", "rounds": [1, 4]}, 7, {
        5: (0, "13b95557d7978d3726e5c0d6097bf6076bd6e1b73c5f4fc04f9709a9fbbcf20f"),
        2024: (2, "30f39a606bc6ca8a8070d6c70c64c7764e28a4c9e99fb8144c2ac12f64ab3103"),
    }),
    "measure_resend_z": ({"name": "measure_resend_z"}, 5, {
        5: (0, "21b58839c715e7d9e3cfca1e6836fd921b56bb9b85925575cb59437d8416f26f"),
        2024: (2, "e6bb175abcec2f066e0e484599cc360b3988d21fac0a58606beadf8c1802b84f"),
    }),
    "swap": ({"name": "swap"}, 5, {
        5: (2, "27ad25f9eab92ad270611aced77624ed1a3821b8be3ba0e832fad3d632b535e2"),
        2024: (0, "664de3d4116dd8808c58aa18a0bac5aaf9411bdd51c3aed4ddecff7bd1657583"),
    }),
    "phase_probe": ({"name": "phase_probe", "params": {"theta": 0.9}}, 7, {
        5: (2, "88fc5b2a350ebdf922af09b19bfae80ee01b02fb64919ad4749c056b93429b85"),
        2024: (2, "bc655ed75b954a4021dfc142863c24b0d62846744f98a98fa30d2fcdb06806fe"),
    }),
}


@pytest.mark.parametrize("seed", [5, 2024])
@pytest.mark.parametrize("name", sorted(PINNED_EXACT_RUNS))
def test_exact_runs_are_pinned(tmp_path, name, seed):
    attack, rounds, digests = PINNED_EXACT_RUNS[name]
    code, digest = digests[seed]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rounds": rounds, "seed": seed, "mode": "exact", "attack": attack}))
    out = tmp_path / "stats.json"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == code
    data = out.read_bytes() + out.with_suffix(".jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_check_output_bytes_are_pinned(capsys):
    assert cli.main(["check", "--attack", "identity", "--max-pattern-len", "2"]) == 0
    assert capsys.readouterr().out == GOLDEN_CHECK


#: SHA-256 of `sqkd check --max-pattern-len 5` stdout; every check passes
PINNED_CHECKS = {
    "cnot_parity": ([], "f515558abca27fa446259e73cc0c0528e82c6a3da8724ce06fba4570a18b16a2"),
    "measure_resend_z": ([], "ddf4319403f57ed9212100e49f5864acd826579e63d49208e50dd6055bae9bc8"),
    "swap": ([], "3ab90fab7ac1cfcc00d00236a33d4c751115698b48019ac5549254722db91f00"),
    "phase_probe": (
        ["--param", "theta=0.5"],
        "7fec52f53e018e76cd17bb9fdb558879f6006e78be6a2fe01e4e79e2f2799ac9",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHECKS))
def test_check_outputs_of_builtins_are_pinned(capsys, name):
    params, digest = PINNED_CHECKS[name]
    assert cli.main(["check", "--attack", name, "--max-pattern-len", "5", *params]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_phase_probe_grid(tmp_path):
    out = tmp_path / "scan.csv"
    grid = f"0:{math.pi / 2}:{math.pi / 6}"
    assert cli.main(
        ["scan", "--attack", "phase_probe", "--param", "theta", "--grid", grid,
         "--out", str(out)]
    ) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta", "ctrl_error", "test_error", "trace_distance", "holevo"]
    assert len(rows) == 5  # header + 4 grid points
    thetas = [float(r[0]) for r in rows[1:]]
    ctrl = [float(r[1]) for r in rows[1:]]
    td = [float(r[3]) for r in rows[1:]]
    for th, c, t in zip(thetas, ctrl, td):
        assert abs(c - (1 - math.cos(th)) / 2) < 1e-9
        assert abs(t - math.sin(th)) < 1e-9
    for got, want in zip(ctrl, [0.0, 0.0670, 0.25, 0.5]):
        assert abs(got - want) < 1e-3
    for got, want in zip(td, [0.0, 0.5, 0.8660, 1.0]):
        assert abs(got - want) < 1e-3


def test_scan_single_point_grid(tmp_path):
    out = tmp_path / "one.csv"
    assert cli.main(
        ["scan", "--attack", "phase_probe", "--param", "theta", "--grid", "0:0:1",
         "--out", str(out)]
    ) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    assert all(float(v) == 0.0 for v in rows[1])


def test_scan_descending_grid_preserved(tmp_path):
    out = tmp_path / "desc.csv"
    assert cli.main(
        ["scan", "--attack", "phase_probe", "--param", "theta", "--grid", "1:0:-0.5",
         "--out", str(out)]
    ) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    thetas = [float(r[0]) for r in rows[1:]]
    assert thetas == [1.0, 0.5, 0.0]


def test_scan_grid_points_do_not_drift(tmp_path):
    out = tmp_path / "tenths.csv"
    assert cli.main(
        ["scan", "--attack", "phase_probe", "--param", "theta", "--grid", "0:1:0.1",
         "--out", str(out)]
    ) == 0
    with open(out) as fh:
        thetas = [float(r[0]) for r in list(csv.reader(fh))[1:]]
    assert len(thetas) == 11
    assert thetas[-1] == 1.0


def test_scan_unknown_family(tmp_path, capsys):
    code = cli.main(
        ["scan", "--attack", "identity", "--param", "theta", "--grid", "0:1:0.5",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_scan_empty_grid(tmp_path):
    code = cli.main(
        ["scan", "--attack", "phase_probe", "--param", "theta", "--grid", "0:1:0",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 1


def test_scan_non_finite_grid(tmp_path, capsys):
    for grid, says in (("0:inf:1", "finite"), ("nan:1:0.5", "finite"), ("0:1:inf", "finite"),
                       ("a:1:0.1", "--grid 'a:1:0.1': could not convert string to float: 'a'")):
        code = cli.main(
            ["scan", "--attack", "phase_probe", "--param", "theta", "--grid", grid,
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1, grid
        assert says in capsys.readouterr().err, grid


def test_scan_refuses_grids_above_the_point_cap(tmp_path, capsys):
    cap = cli.MAX_GRID_POINTS
    assert len(cli._parse_grid(f"0:{cap - 1}:1")) == cap
    tracemalloc.start()
    try:
        for grid in (f"0:{cap}:1", "0:1:1e-12", "0:1e300:1e-300", "-1e308:1e308:1"):
            with pytest.raises(GridTooLarge):
                cli._parse_grid(grid)
            code = cli.main(
                ["scan", "--attack", "phase_probe", "--param", "theta", f"--grid={grid}",
                 "--out", str(tmp_path / "x.csv")]
            )
            assert code == 1, grid
            assert "more than" in capsys.readouterr().err
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the refusal allocates no grid
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# attacks
# ---------------------------------------------------------------------------


def test_attacks_listing(capsys):
    assert cli.main(["attacks"]) == 0
    names = capsys.readouterr().out.split()
    assert names == ["identity", "cnot_parity", "measure_resend_z", "swap", "phase_probe"]
