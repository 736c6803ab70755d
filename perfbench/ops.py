"""Benchmark workloads: op generation, execution through the CLI, output checks.

Every input an op hands to the program (run configs, run seeds, theta values,
cnot_parity round pairs, random unitaries) is derived from the workload seed
and the cycle index, so the same seed yields the same op list.  A workload is
a fixed cycle of op slots; the seed fills in each slot's inputs but never
changes its kind or size, which keeps the cost of a cycle the same from seed
to seed.
"""

import contextlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sqkd import cli
from sqkd.attacks import AttackSpec, Gate
from sqkd.engine import SubsystemLayout, Unitary, random_state, random_unitary
from sqkd.protocol import EXACT_ROUND_CAP

ATTACKS = ("identity", "cnot_parity", "measure_resend_z", "swap", "phase_probe")
#: attacks that add a probe qubit every round, so their exact state grows 8^N
PER_ROUND_PROBE = ("measure_resend_z", "swap")

SAMPLE_ROUNDS = 10_000
CHECK_LEN = 6
#: choice patterns of length 1..CHECK_LEN that `sqkd check` examines (126)
PATTERNS_PER_CHECK = sum(2**n for n in range(1, CHECK_LEN + 1))
#: protocol rounds those patterns cover, the sum of their lengths (642)
ROUNDS_PER_CHECK = sum(n * 2**n for n in range(1, CHECK_LEN + 1))
SILENT_DIMS = (2, 3, 4)

SE_LIMIT = 5.0
CLOSED_FORM_TOL = 1e-9
RESIDUAL_TOL = 1e-9
LEAKAGE_TOL = 1e-8


@dataclass
class Op:
    """One closed-loop request: a `sqkd run` or a `sqkd check` invocation."""

    kind: str  # "run" or "check"
    attack: str
    rounds: int  # protocol rounds the op covers
    patterns: int  # CTRL/SIFT choice patterns the op covers
    config: dict | None = None  # run ops: the JSON run config
    params: dict = field(default_factory=dict)  # check ops: --param values
    silent: AttackSpec | None = None  # check ops on a probe-decoupled attack

    def spec(self) -> dict:
        """JSON-able description of every input the op hands to the program."""
        out = {"kind": self.kind, "attack": self.attack, "config": self.config,
               "params": self.params}
        if self.silent is not None:
            gates = (self.silent.default_forward, self.silent.default_backward)
            out["silent"] = {
                "probe": _complex_list(self.silent.probe_factors[0].amps),
                "gates": [_complex_list(g.unitary.entries) for g in gates],
            }
        return out


def _complex_list(a) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(a).reshape(-1)]


# ---------------------------------------------------------------------------
# Op generation
# ---------------------------------------------------------------------------


def _run_op(attack: str, rounds: int, mode: str, rng) -> Op:
    spec = {"name": attack, "params": {}}
    seed = int(rng.integers(2**63))
    if attack == "phase_probe":
        spec["params"] = {"theta": float(rng.uniform(0.0, math.pi / 2))}
    if attack == "cnot_parity":
        spec["rounds"] = sorted(int(r) for r in rng.choice(rounds, size=2, replace=False))
    config = {"rounds": rounds, "seed": seed, "mode": mode, "attack": spec}
    return Op("run", attack, rounds=rounds, patterns=1, config=config)


def _check_op(attack: str, params=None, silent=None) -> Op:
    return Op("check", attack, rounds=ROUNDS_PER_CHECK, patterns=PATTERNS_PER_CHECK,
              params=params or {}, silent=silent)


def silent_attack(dim: int, rng) -> AttackSpec:
    """I ⊗ U on (transit, probe) on both legs: never detected, never leaks."""
    uf = Unitary(np.kron(np.eye(2), random_unitary(dim, rng).entries))
    ub = Unitary(np.kron(np.eye(2), random_unitary(dim, rng).entries))
    init = random_state(SubsystemLayout((dim,), ("E0",)), rng)
    return AttackSpec(
        name=f"silent_d{dim}",
        probe_dims=(dim,),
        probe_factors=(init,),
        default_forward=Gate(uf, ("T", "E0")),
        default_backward=Gate(ub, ("T", "E0")),
    )


def _sample_cycle(rng) -> list[Op]:
    return [_run_op(a, SAMPLE_ROUNDS, "sampling", rng) for a in ATTACKS]


# The latency median of a mixed cycle is steady only when it falls inside one
# group of ops of like cost, not on the edge between two.  So each cycle below
# has as many ops cheaper than its middle group as dearer ones (exact), or a
# middle group wide enough to hold the median (verify).


def _exact_cycle(rng) -> list[Op]:
    # identity runs twice: two ops below cnot_parity/phase_probe, two above
    attacks = ATTACKS + ("identity",)
    return [_run_op(a, EXACT_ROUND_CAP - (a in PER_ROUND_PROBE), "exact", rng) for a in attacks]


def _verify_cycle(rng) -> list[Op]:
    ops = []
    for heavy in PER_ROUND_PROBE:
        ops += [_check_op("identity"), _check_op("cnot_parity")]
        ops += [
            _check_op("phase_probe", {"theta": float(rng.uniform(0.0, math.pi / 2))})
            for _ in range(6)
        ]
        ops += [_check_op(f"silent_d{d}", silent=silent_attack(d, rng)) for d in SILENT_DIMS]
        ops.append(_check_op(heavy))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    make_cycle: object  # rng -> list[Op]
    tail_pct: int  # percentile op_tail_s reports
    warmup_ops: int  # leading ops of cycle 0 run once, untimed, before measuring

    @property
    def min_ops(self) -> int:
        """Op samples needed for ten of them to lie beyond the tail percentile."""
        return math.ceil(10 / (1 - self.tail_pct / 100))


#: Tail percentiles are fixed per workload, so that two commits are compared
#: at the same percentile; each is the highest of 50/75/90 whose sample need
#: a run of --seconds 15 meets on the unoptimised code.
WORKLOADS = {
    "sample": Workload("sample", _sample_cycle, tail_pct=50, warmup_ops=1),
    "verify": Workload("verify", _verify_cycle, tail_pct=50, warmup_ops=8),
    "exact": Workload("exact", _exact_cycle, tail_pct=75, warmup_ops=6),
}


def cycle(workload: str, seed: int, index: int) -> list[Op]:
    """The ops of one cycle; a pure function of (workload, seed, index)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    return WORKLOADS[workload].make_cycle(rng)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class Result:
    code: int
    stats: dict | None = None
    output: bytes = b""  # run ops: stats JSON followed by the transcript
    transcript: bytes = b""
    verdict: dict | None = None


@contextlib.contextmanager
def _registered(spec: AttackSpec | None):
    """Let `sqkd check --attack <spec.name>` resolve to a generated attack."""
    if spec is None:
        yield
        return
    builtin = cli.build_attack

    def build_attack(name, params=None, n_rounds=1, rounds=None):
        if name == spec.name:
            return spec
        return builtin(name, params=params, n_rounds=n_rounds, rounds=rounds)

    cli.build_attack = build_attack
    try:
        yield
    finally:
        cli.build_attack = builtin


def execute(op: Op, workdir: Path) -> Result:
    """Run one op in-process through `sqkd.cli.main`."""
    if op.kind == "run":
        cfg, out = workdir / "config.json", workdir / "stats.json"
        cfg.write_text(json.dumps(op.config), encoding="utf-8")
        out.unlink(missing_ok=True)
        out.with_suffix(".jsonl").unlink(missing_ok=True)
        code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
        if not out.exists():
            return Result(code)
        stats_bytes = out.read_bytes()
        transcript = out.with_suffix(".jsonl").read_bytes()
        return Result(code, stats=json.loads(stats_bytes), output=stats_bytes + transcript,
                      transcript=transcript)
    argv = ["check", "--attack", op.attack, "--max-pattern-len", str(CHECK_LEN)]
    for key, value in op.params.items():
        argv += ["--param", f"{key}={value!r}"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), _registered(op.silent):
        code = cli.main(argv)
    text = buf.getvalue()
    verdict = json.loads(text) if text.strip() else None
    return Result(code, verdict=verdict)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _near(rate: float, p: float, n: int) -> bool:
    """rate within SE_LIMIT binomial standard errors of p over n trials."""
    return n > 0 and abs(rate - p) <= SE_LIMIT * math.sqrt(p * (1 - p) / n)


def _error_rounds(transcript: bytes) -> set[int]:
    lines = transcript.decode().splitlines()[1:]
    return {rec["index"] for rec in map(json.loads, lines) if rec["error"]}


def check_run(op: Op, res: Result) -> list[str]:
    s = res.stats
    if s is None:
        return [f"exit code {res.code} and no stats written"]
    problems = []
    if res.code != (2 if s["aborted"] else 0):
        problems.append(f"exit code {res.code} but aborted={s['aborted']}")
    rounds = op.config["rounds"]
    if s["n_ctrl"] + s["n_test"] + s["n_key"] != rounds:
        problems.append("role counts do not add up to the rounds")
    if res.transcript.count(b"\n") != rounds + 1:
        problems.append("transcript does not hold a header and one line per round")
    sampled = op.config["mode"] == "sampling"
    a = op.attack
    if a != "swap" and s["key_mismatch_rate"] != 0:
        problems.append(f"{a}: key mismatch {s['key_mismatch_rate']}")
    if a in ("identity", "swap") and s["ctrl_errors"] != 0:
        problems.append(f"{a}: {s['ctrl_errors']} CTRL errors")
    if a != "swap" and s["test_errors"] != 0:
        problems.append(f"{a}: {s['test_errors']} TEST errors")
    if a == "swap" and sampled and not _near(s["test_error_rate"], 0.5, s["n_test"]):
        problems.append(f"swap: TEST error rate {s['test_error_rate']} is not 0.5")
    if a == "measure_resend_z" and sampled and not _near(s["ctrl_error_rate"], 0.5, s["n_ctrl"]):
        problems.append(f"measure_resend_z: CTRL error rate {s['ctrl_error_rate']} is not 0.5")
    if a == "phase_probe" and sampled:
        p = (1 - math.cos(op.config["attack"]["params"]["theta"])) / 2
        if not _near(s["ctrl_error_rate"], p, s["n_ctrl"]):
            problems.append(f"phase_probe: CTRL error rate {s['ctrl_error_rate']} is not {p}")
    if a == "cnot_parity":
        stray = _error_rounds(res.transcript) - set(op.config["attack"]["rounds"])
        if stray:
            problems.append(f"cnot_parity: errors on unattacked rounds {sorted(stray)[:5]}")
    return problems


def check_verdict(op: Op, res: Result) -> list[str]:
    v = res.verdict
    if res.code != 0 or v is None or v.get("passed") is not True:
        return [f"exit code {res.code}, verdict passed={v and v.get('passed')}"]
    problems = []
    if len(v["rounds"]) != CHECK_LEN:
        problems.append(f"{len(v['rounds'])} round reports, expected {CHECK_LEN}")
    if op.attack == "phase_probe":
        p = (1 - math.cos(op.params["theta"])) / 2
        got = v["rounds"][0]["ctrl_error_prob"]
        if abs(got - p) > CLOSED_FORM_TOL:
            problems.append(f"phase_probe: round-0 ctrl_error_prob {got} != {p}")
    if op.silent is not None or op.attack == "identity":
        if v["max_residual"] > RESIDUAL_TOL or v["max_leakage"] > LEAKAGE_TOL:
            problems.append(
                f"{op.attack}: residual {v['max_residual']}, leakage {v['max_leakage']}"
            )
    if op.attack in PER_ROUND_PROBE and v["max_residual"] <= RESIDUAL_TOL:
        problems.append(f"{op.attack}: leaks the key but shows no residual")
    return problems


def check(op: Op, res: Result) -> list[str]:
    """Problems with one op's output; empty when it is correct."""
    return check_run(op, res) if op.kind == "run" else check_verdict(op, res)


# ---------------------------------------------------------------------------
# Closed-loop client
# ---------------------------------------------------------------------------


@dataclass
class Segment:
    """Whole cycles measured back to back."""

    cycle_s: list[float] = field(default_factory=list)
    cycle_rounds: list[int] = field(default_factory=list)
    cycle_patterns: list[int] = field(default_factory=list)
    cycle_ops: list[int] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)

    def rate(self, work: list[int]) -> float:
        """Median over cycles of the work a cycle completed per second."""
        return float(np.median([w / t for w, t in zip(work, self.cycle_s)]))


class Runner:
    """One closed-loop client: each op starts after the previous one ends."""

    #: never start a cycle after this long, so a run ends well inside 180 s
    MAX_MEASURE_S = 110.0

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.tracer = None  # a spans.Tracer while a traced segment runs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._reference: dict[int, bytes] = {}

    def run_op(self, op: Op, label: str) -> tuple[float, Result | None]:
        """Execute and check one op; returns its latency and its result if correct."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        t0 = time.perf_counter()
        try:
            res = execute(op, self.workdir)
        except Exception:
            dt = time.perf_counter() - t0
            problems = ["raised " + traceback.format_exc(limit=3)]
            res = None
        else:
            dt = time.perf_counter() - t0
            problems = check(op, res)
        if problems:
            self.failed += 1
            self.problems.append(f"{label} {op.attack}: " + "; ".join(problems))
            return dt, None
        return dt, res

    def warm_up(self):
        """Run the first ops of cycle 0 untimed; cycle 0 repeats their inputs."""
        for i, op in enumerate(cycle(self.workload.name, self.seed, 0)[: self.workload.warmup_ops]):
            _, res = self.run_op(op, f"warm-up op {i}")
            if res is not None and op.kind == "run":
                self._reference[i] = res.output

    def measure(self, seconds: float, min_ops: int = 1) -> Segment:
        """Whole cycles until `seconds` have passed and `min_ops` ops have run."""
        seg = Segment()
        start = time.perf_counter()
        c = 0
        while True:
            rounds = patterns = n_ok = 0
            t_cycle = time.perf_counter()
            for i, op in enumerate(cycle(self.workload.name, self.seed, c)):
                dt, res = self.run_op(op, f"cycle {c} op {i}")
                seg.latencies.append(dt)
                if res is None:
                    continue
                if c == 0 and i in self._reference and res.output != self._reference[i]:
                    self.failed += 1
                    self.problems.append(f"cycle 0 op {i} {op.attack}: repeated input "
                                         "gave different stats or transcript")
                    continue
                rounds += op.rounds
                patterns += op.patterns
                n_ok += 1
            seg.cycle_s.append(time.perf_counter() - t_cycle)
            seg.cycle_rounds.append(rounds)
            seg.cycle_patterns.append(patterns)
            seg.cycle_ops.append(n_ok)
            c += 1
            elapsed = time.perf_counter() - start
            if elapsed >= self.MAX_MEASURE_S:
                return seg
            if elapsed >= seconds and len(seg.latencies) >= min_ops:
                return seg
