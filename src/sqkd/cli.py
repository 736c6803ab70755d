"""Batch front end: run simulations, verify attacks, scan parameter grids.

Exit codes: 0 success, 1 usage/config error, 2 eavesdropper detected
(protocol aborted), 3 robustness verdict failed.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .analysis import constraint_check, constraint_reports, eve_leakage, theorem_check
from .attacks import ATTACK_NAMES, build_attack
from .errors import (
    EmptyGrid,
    GridTooLarge,
    ParamOutOfRange,
    SqkdError,
    UnknownAttack,
    UnknownFamily,
)
from .protocol import (
    ProtocolConfig,
    classical_phase,
    run_protocol,
    stream_rng,
    write_transcript,
)

_CONFIG_KEYS = {f.name for f in fields(ProtocolConfig)} | {"attack"}
_ATTACK_KEYS = {"name", "params", "rounds"}

#: most points a scan grid may hold; each costs a check, so a larger grid is a typo
MAX_GRID_POINTS = 100_000

#: attack families that support parameter scans, with their scannable parameter
_SCAN_FAMILIES = {"phase_probe": "theta"}

SEED_ENV = "SQKD_SEED"


def _coerce(key: str, kind: type, value):
    """A config value as its field's type; numbers refuse bools and strings, ints fractions."""
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{key} must be an integer, got {value!r}")
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{key} must be an integer, got {value!r}")
    elif kind is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return kind(value)


def _load_run_config(path: str) -> tuple[ProtocolConfig, dict]:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "rounds" not in raw:
        raise ValueError("config requires a 'rounds' key")
    attack_raw = raw.get("attack", {"name": "identity"})
    if not isinstance(attack_raw, dict) or "name" not in attack_raw:
        raise ValueError("attack must be an object with a 'name' key")
    unknown = set(attack_raw) - _ATTACK_KEYS
    if unknown:
        raise ValueError(f"unknown attack keys: {sorted(unknown)}")
    if attack_raw["name"] not in ATTACK_NAMES:
        raise UnknownAttack(
            f"unknown attack {attack_raw['name']!r}; known: {', '.join(ATTACK_NAMES)}"
        )
    # keys left out of the file take ProtocolConfig's defaults
    kwargs = {
        f.name: _coerce(f.name, f.type, raw[f.name])
        for f in fields(ProtocolConfig)
        if f.name in raw
    }
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            kwargs["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"{SEED_ENV} must be an integer, got {env_seed!r}") from None
    return ProtocolConfig(**kwargs), attack_raw


def _check_rounds_pair(pair, n_rounds: int):
    """The attacked pair must be two ints naming rounds of the run."""
    if (
        not isinstance(pair, list)
        or len(pair) != 2
        or not all(isinstance(r, int) and not isinstance(r, bool) for r in pair)
    ):
        raise ParamOutOfRange(f"attack rounds must be a list of two ints, got {pair!r}")
    if max(pair) >= n_rounds:
        raise ParamOutOfRange(
            f"attack rounds {pair} name a round beyond the run's {n_rounds} rounds"
        )


def cmd_run(config_path: str, out_path: str) -> int:
    config, attack_raw = _load_run_config(config_path)
    # only cnot_parity reads the attacked rounds; the other attacks ignore them
    rounds_pair = attack_raw.get("rounds") if attack_raw["name"] == "cnot_parity" else None
    if rounds_pair is not None:
        _check_rounds_pair(rounds_pair, config.rounds)
    params = attack_raw.get("params")
    if params is not None and not isinstance(params, dict):
        raise ValueError(f"attack params must be an object, got {params!r}")
    attack = build_attack(
        attack_raw["name"],
        params={k: _coerce(f"param {k}", float, v) for k, v in (params or {}).items()},
        n_rounds=config.rounds,
        rounds=tuple(rounds_pair) if rounds_pair is not None else None,
    )
    transcript = run_protocol(config, attack)
    stats = classical_phase(transcript, stream_rng(config.seed, 1))

    out = Path(out_path)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(asdict(stats), fh, indent=2)
        fh.write("\n")
    header_extra = {"attack": attack_raw}
    write_transcript(out.with_suffix(".jsonl"), transcript, header_extra=header_extra)
    return 2 if stats.aborted else 0


def cmd_check(attack_name: str, params: dict, eps: float, max_pattern_len: int) -> int:
    attack = build_attack(attack_name, params=params, n_rounds=max_pattern_len)
    theorem = theorem_check(attack, eps=eps, max_pattern_len=max_pattern_len)
    # one walk of the all-CTRL pattern yields every round's row
    rounds = [asdict(r) for r in constraint_reports(attack, "C" * max_pattern_len)]
    verdict = {
        "attack": attack_name,
        "params": params,
        "eps": eps,
        "max_pattern_len": max_pattern_len,
        "rounds": rounds,
        "max_residual": theorem.max_residual,
        "max_leakage": theorem.max_leakage,
        "passed": theorem.passed,
    }
    print(json.dumps(verdict, indent=2))
    return 0 if theorem.passed else 3


def _parse_grid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = map(float, parts)
    except ValueError as exc:
        raise ValueError(f"--grid {spec!r}: {exc}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError(f"grid bounds and step must be finite, got {spec!r}")
    if step == 0:
        raise EmptyGrid("grid step must be nonzero")
    # points are start + k*step, so the error does not accumulate; the stop
    # is included up to a relative slack of 1e-9 steps; the count is checked
    # before anything is allocated
    last = (stop - start) / step + 1e-9
    if last < 0:
        raise EmptyGrid(f"grid {spec!r} contains no points")
    if last >= MAX_GRID_POINTS:  # also an overflow to inf
        raise GridTooLarge(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return [start + k * step for k in range(math.floor(last) + 1)]


def cmd_scan(family: str, param: str, grid: list[float], out_csv: str) -> int:
    if family not in _SCAN_FAMILIES or _SCAN_FAMILIES[family] != param:
        raise UnknownFamily(
            f"family {family!r} has no scannable parameter {param!r}; "
            f"supported: {_SCAN_FAMILIES}"
        )
    rows = []
    for value in grid:
        attack = build_attack(family, params={param: value})
        rep = constraint_check(attack, 0)
        leak = eve_leakage(attack, "S")
        rows.append(
            (
                value,
                rep.ctrl_error_prob,
                rep.test_residual,
                leak.per_bit_trace_distance[0],
                leak.holevo_bound,
            )
        )
    with open(out_csv, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "ctrl_error", "test_error", "trace_distance", "holevo"])
        writer.writerows(rows)
    return 0


def cmd_attacks() -> int:
    for name in ATTACK_NAMES:
        print(name)
    return 0


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--param expects k=v, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            params[key] = float(value)
        except ValueError:
            raise ValueError(f"--param {key} must be a number, got {value!r}") from None
    return params


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqkd",
        description="Simulate the reflect-or-measure key distribution protocol "
        "and verify eavesdropping attacks against it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured protocol run")
    p_run.add_argument("--config", required=True, help="path to a JSON run config")
    p_run.add_argument("--out", required=True, help="path for the stats JSON output")

    p_check = sub.add_parser("check", help="constraint and robustness checks for an attack")
    p_check.add_argument("--attack", required=True, help="registered attack name")
    p_check.add_argument(
        "--param", action="append", metavar="K=V", help="attack parameter (repeatable)"
    )
    p_check.add_argument("--eps", type=float, default=1e-9, help="residual tolerance")
    p_check.add_argument(
        "--max-pattern-len", type=int, default=6, help="longest choice pattern examined"
    )

    p_scan = sub.add_parser("scan", help="sweep an attack parameter, writing a CSV")
    p_scan.add_argument("--attack", required=True, help="attack family to sweep")
    p_scan.add_argument("--param", required=True, help="parameter name to sweep")
    p_scan.add_argument("--grid", required=True, help="start:stop:step (inclusive)")
    p_scan.add_argument("--out", required=True, help="path for the CSV output")

    sub.add_parser("attacks", help="list registered attack names")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out)
        if args.command == "check":
            return cmd_check(
                args.attack, _parse_params(args.param), args.eps, args.max_pattern_len
            )
        if args.command == "scan":
            return cmd_scan(args.attack, args.param, _parse_grid(args.grid), args.out)
        if args.command == "attacks":
            return cmd_attacks()
        raise ValueError(f"unknown command {args.command!r}")
    except (SqkdError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
