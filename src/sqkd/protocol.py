"""Round-by-round state machine of the key-distribution protocol.

Each round, Bob emits a fresh transit qubit prepared as |+>, the attack's
forward unitary acts on the outgoing leg, Alice either reflects (CTRL) or
sifts, the backward unitary acts on the returning leg, and Bob appends the
returned qubit to his quantum memory.  Two execution modes are provided:

* Sampling — Alice's sift is a projective Z measurement followed by
  resending the observed basis state; Bob's verification measurements are
  pre-recorded per round with deferred disclosure.  Collapses at each
  measurement keep the tracked state small, so round counts of 10^4+ are
  cheap.

* Exact — Alice delays measuring by copying the transit qubit onto a fresh
  probe qubit with an XOR; nothing is measured during the quantum phase and
  the full Bob ⊗ Alice ⊗ Eve joint state is retained.  Capped at
  EXACT_ROUND_CAP rounds.

After the quantum phase, classical_phase() announces choices, verifies CTRL
rounds in the X basis, sacrifices a fraction of SIFT rounds as TEST, and
computes error rates; with the default abort threshold of 0 any error at all
aborts the run.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .attacks import AttackSpec, Gate
from .engine import (
    MINUS,
    StateVector,
    SubsystemLayout,
    TRANSIT,
    alice_probe,
    apply_unitary,
    bob_memory,
    cnot,
    factor_out,
    ket_plus,
    ket_zero,
    measure,
    relabel,
    tensor,
)
from .errors import (
    AttackLayoutMismatch,
    ExactCapExceeded,
    FactorizationError,
    IncompleteTranscript,
    UnknownLabel,
)

EXACT_ROUND_CAP = 8

CTRL = "CTRL"
SIFT = "SIFT"
ROLE_CTRL = "Ctrl"
ROLE_TEST = "Test"
ROLE_KEY = "Key"
MODE_EXACT = "exact"
MODE_SAMPLING = "sampling"

#: substream indices for the documented seed-splitting rule
_STREAM_ROUNDS = 0
_STREAM_CLASSICAL = 1
_STREAM_TRIAL = 2


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic substream of a master seed.

    Streams are derived as SeedSequence([seed, *stream]); the protocol uses
    stream 0 for round randomness and stream 1 for the classical phase.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, stream)]))


def derive_seed(master: int, index: int) -> int:
    """Per-trial seed for independent runs: hash of (master, index)."""
    ss = np.random.SeedSequence([int(master), _STREAM_TRIAL, int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class ProtocolConfig:
    rounds: int
    ctrl_prob: float = 0.5
    test_fraction: float = 0.5
    seed: int = 0
    mode: str = MODE_SAMPLING
    abort_threshold: float = 0.0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        for name in ("ctrl_prob", "test_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.abort_threshold < 0:
            raise ValueError(f"abort_threshold must be >= 0, got {self.abort_threshold}")
        if self.mode not in (MODE_EXACT, MODE_SAMPLING):
            raise ValueError(f"mode must be 'exact' or 'sampling', got {self.mode!r}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.mode == MODE_EXACT and self.rounds > EXACT_ROUND_CAP:
            raise ExactCapExceeded(
                f"exact mode supports at most {EXACT_ROUND_CAP} rounds, got {self.rounds}"
            )


@dataclass
class RoundRecord:
    index: int
    choice: str
    alice_bit: int | None = None
    role: str | None = None
    bob_x_outcome: str | None = None
    bob_z_outcome: int | None = None
    error: bool | None = None


@dataclass
class Transcript:
    config: ProtocolConfig
    records: list[RoundRecord]
    final_state: StateVector | None = None


@dataclass(frozen=True)
class RunStats:
    n_ctrl: int
    n_test: int
    n_key: int
    ctrl_errors: int
    test_errors: int
    ctrl_error_rate: float
    test_error_rate: float
    key_alice: str
    key_bob: str
    key_mismatch_rate: float
    aborted: bool

    def as_dict(self) -> dict:
        return {
            "n_ctrl": self.n_ctrl,
            "n_test": self.n_test,
            "n_key": self.n_key,
            "ctrl_errors": self.ctrl_errors,
            "test_errors": self.test_errors,
            "ctrl_error_rate": self.ctrl_error_rate,
            "test_error_rate": self.test_error_rate,
            "key_alice": self.key_alice,
            "key_bob": self.key_bob,
            "key_mismatch_rate": self.key_mismatch_rate,
            "aborted": self.aborted,
        }


def _empty_state() -> StateVector:
    return StateVector(SubsystemLayout((), ()), np.ones(1, dtype=complex))


def apply_gate(state, gate: Gate | None):
    """Apply an attack gate; None is the identity.

    A gate naming a subsystem the state lacks raises AttackLayoutMismatch.
    """
    if gate is None:
        return state
    try:
        return apply_unitary(state, gate.unitary, gate.targets)
    except UnknownLabel as exc:
        raise AttackLayoutMismatch(str(exc)) from exc


class JointEvolution:
    """Threads the exact joint state through protocol rounds.

    Probe subsystems are materialized lazily, the first time a gate targets
    them; an Alice probe qubit is allocated every round (it simply stays |0>
    on CTRL rounds), and the transit qubit is relabeled into Bob's memory when
    the round completes.
    """

    def __init__(self, attack: AttackSpec, n_rounds: int):
        self.attack = attack
        self.n_rounds = n_rounds
        self.state = _empty_state()
        self._materialized: set[str] = set()

    def clone(self) -> "JointEvolution":
        other = JointEvolution.__new__(JointEvolution)
        other.attack = self.attack
        other.n_rounds = self.n_rounds
        other.state = self.state
        other._materialized = set(self._materialized)
        return other

    def _materialize(self, gate: Gate | None):
        if gate is None:
            return
        for label in gate.targets:
            if label == TRANSIT or label in self._materialized:
                continue
            factor = self.attack.probe_factor(label)
            self.state = tensor(self.state, factor)
            self._materialized.update(factor.layout.labels)

    def start_round(self, i: int):
        """Emit |+> into the transit slot and run the forward attack."""
        self.state = tensor(self.state, ket_plus(TRANSIT))
        self._materialize(self.attack.forward_gate(i))
        self._materialize(self.attack.backward_gate(i))
        self.state = apply_gate(self.state, self.attack.forward_gate(i))

    def alice(self, i: int, choice: str):
        """Allocate Alice's round probe; XOR the transit onto it when sifting."""
        self.state = tensor(self.state, ket_zero(alice_probe(i)))
        if choice == SIFT:
            self.state = apply_unitary(self.state, cnot(), (TRANSIT, alice_probe(i)))

    def finish_round(self, i: int):
        """Run the backward attack and move the transit into Bob's memory."""
        self.state = apply_gate(self.state, self.attack.backward_gate(i))
        self.state = relabel(self.state, TRANSIT, bob_memory(i))

    def run_round(self, i: int, choice: str):
        self.start_round(i)
        self.alice(i, choice)
        self.finish_round(i)


def _run_exact(config: ProtocolConfig, attack: AttackSpec, rng) -> Transcript:
    evo = JointEvolution(attack, config.rounds)
    records = []
    for i in range(config.rounds):
        choice = CTRL if rng.random() < config.ctrl_prob else SIFT
        evo.run_round(i, choice)
        records.append(RoundRecord(index=i, choice=choice))
    return Transcript(config=config, records=records, final_state=evo.state)


def _run_sampling(config: ProtocolConfig, attack: AttackSpec, rng) -> Transcript:
    records = []
    evo = JointEvolution(attack, config.rounds)
    last_use = attack.last_use_map(config.rounds)

    for i in range(config.rounds):
        evo.start_round(i)
        choice = CTRL if rng.random() < config.ctrl_prob else SIFT
        rec = RoundRecord(index=i, choice=choice)
        if choice == SIFT:
            # measure-and-resend: the collapsed basis state is the resend
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

        # discard the measured transit and any probe qubits past their last use
        drop = [TRANSIT] + [
            l
            for l in evo.state.layout.labels
            if l != TRANSIT and last_use.get(l, -1) <= i
        ]
        for label in drop:
            if len(evo.state.layout.labels) == 1:
                evo.state = _empty_state()
                break
            try:
                evo.state = factor_out(evo.state, label)[1]
            except FactorizationError:
                pass  # still entangled with a live probe; keep it

    return Transcript(config=config, records=records, final_state=None)


def run_protocol(config: ProtocolConfig, attack: AttackSpec) -> Transcript:
    """Execute the quantum phase of a full N-round run.

    Returns a transcript holding one record per round; in exact mode the
    records carry only Alice's choices (measurements happen later, in the
    classical phase, on the retained final_state), while in sampling mode all
    outcomes are already recorded.
    """
    rng = stream_rng(config.seed, _STREAM_ROUNDS)
    if config.mode == MODE_EXACT:
        return _run_exact(config, attack, rng)
    return _run_sampling(config, attack, rng)


def stats_from_records(records, abort_threshold: float) -> RunStats:
    """Aggregate statistics from role-assigned records."""
    n_ctrl = sum(1 for r in records if r.role == ROLE_CTRL)
    n_test = sum(1 for r in records if r.role == ROLE_TEST)
    n_key = sum(1 for r in records if r.role == ROLE_KEY)
    ctrl_errors = sum(1 for r in records if r.role == ROLE_CTRL and r.error)
    test_errors = sum(1 for r in records if r.role == ROLE_TEST and r.error)
    key_alice = "".join(str(r.alice_bit) for r in records if r.role == ROLE_KEY)
    key_bob = "".join(str(r.bob_z_outcome) for r in records if r.role == ROLE_KEY)
    ctrl_rate = ctrl_errors / n_ctrl if n_ctrl else 0.0
    test_rate = test_errors / n_test if n_test else 0.0
    mismatches = sum(a != b for a, b in zip(key_alice, key_bob))
    mismatch_rate = mismatches / n_key if n_key else 0.0
    return RunStats(
        n_ctrl=n_ctrl,
        n_test=n_test,
        n_key=n_key,
        ctrl_errors=ctrl_errors,
        test_errors=test_errors,
        ctrl_error_rate=ctrl_rate,
        test_error_rate=test_rate,
        key_alice=key_alice,
        key_bob=key_bob,
        key_mismatch_rate=mismatch_rate,
        aborted=bool(ctrl_rate > abort_threshold or test_rate > abort_threshold),
    )


def classical_phase(transcript: Transcript, rng: np.random.Generator) -> RunStats:
    """Announcement, CTRL verification, TEST sampling, and sifting.

    In exact mode the stored qubits are measured now: the X basis on CTRL
    positions, the Z basis on Alice's probe and Bob's memory for SIFT
    positions.  SIFT rounds are then partitioned into TEST (test_fraction,
    drawn uniformly without replacement from the supplied rng) and Key.
    Records are completed in place; the returned stats alone are what the
    parties would publish.
    """
    config = transcript.config
    records = transcript.records
    if len(records) != config.rounds:
        raise IncompleteTranscript(
            f"{len(records)} records for a {config.rounds}-round config"
        )

    if config.mode == MODE_EXACT:
        if transcript.final_state is None:
            raise IncompleteTranscript("exact-mode transcript lacks its final state")
        state = transcript.final_state
        for rec in records:
            if rec.choice == CTRL:
                outcome, state, _ = measure(state, bob_memory(rec.index), "x", rng)
                rec.bob_x_outcome = outcome
            else:
                bit, state, _ = measure(state, alice_probe(rec.index), "z", rng)
                rec.alice_bit = int(bit)
                outcome, state, _ = measure(state, bob_memory(rec.index), "z", rng)
                rec.bob_z_outcome = int(outcome)
    else:
        for rec in records:
            missing = (
                rec.bob_x_outcome is None
                if rec.choice == CTRL
                else (rec.alice_bit is None or rec.bob_z_outcome is None)
            )
            if missing:
                raise IncompleteTranscript(f"round {rec.index} lacks recorded outcomes")

    sift_indices = [r.index for r in records if r.choice == SIFT]
    n_test = int(round(config.test_fraction * len(sift_indices)))
    if n_test:
        picks = rng.choice(len(sift_indices), size=n_test, replace=False)
        test_set = {sift_indices[p] for p in picks}
    else:
        test_set = set()

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

    return stats_from_records(records, config.abort_threshold)


# ---------------------------------------------------------------------------
# Transcript serialization (JSON Lines)
# ---------------------------------------------------------------------------


def config_to_dict(config: ProtocolConfig) -> dict:
    return {
        "rounds": config.rounds,
        "ctrl_prob": config.ctrl_prob,
        "test_fraction": config.test_fraction,
        "seed": config.seed,
        "mode": config.mode,
        "abort_threshold": config.abort_threshold,
    }


def record_to_dict(rec: RoundRecord) -> dict:
    return {
        "index": rec.index,
        "choice": rec.choice,
        "alice_bit": rec.alice_bit,
        "role": rec.role,
        "bob_x_outcome": rec.bob_x_outcome,
        "bob_z_outcome": rec.bob_z_outcome,
        "error": rec.error,
    }


def record_from_dict(d: dict) -> RoundRecord:
    return RoundRecord(
        index=d["index"],
        choice=d["choice"],
        alice_bit=d["alice_bit"],
        role=d["role"],
        bob_x_outcome=d["bob_x_outcome"],
        bob_z_outcome=d["bob_z_outcome"],
        error=d["error"],
    )


def write_transcript(path, transcript: Transcript, header_extra: dict | None = None):
    """One JSON record per line, preceded by a header line with the config."""
    header = config_to_dict(transcript.config)
    if header_extra:
        header.update(header_extra)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for rec in transcript.records:
            fh.write(json.dumps(record_to_dict(rec)) + "\n")


def read_transcript(path) -> tuple[dict, list[RoundRecord]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line]
    header = json.loads(lines[0])
    records = [record_from_dict(json.loads(line)) for line in lines[1:]]
    return header, records


# ---------------------------------------------------------------------------
# Mode equivalence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiftEquivalenceReport:
    exact_ctrl_error: float
    exact_test_error: float
    sampled_ctrl_error: float
    sampled_test_error: float
    ctrl_se: float
    test_se: float
    max_sigma: float
    equivalent: bool
    trials: int
    rounds_per_trial: int

    def as_dict(self) -> dict:
        return {
            "exact_ctrl_error": self.exact_ctrl_error,
            "exact_test_error": self.exact_test_error,
            "sampled_ctrl_error": self.sampled_ctrl_error,
            "sampled_test_error": self.sampled_test_error,
            "ctrl_se": self.ctrl_se,
            "test_se": self.test_se,
            "max_sigma": self.max_sigma,
            "equivalent": self.equivalent,
            "trials": self.trials,
            "rounds_per_trial": self.rounds_per_trial,
        }


def _pooled_rate(pairs):
    """Ratio estimate with a cluster-robust standard error.

    pairs holds per-trial (errors, count); within-trial correlation (e.g. a
    parity attack hitting two rounds at once) is absorbed by the ratio
    estimator's robust variance.
    """
    total_cnt = sum(c for _, c in pairs)
    if total_cnt == 0:
        return 0.0, 0.0
    rate = sum(e for e, _ in pairs) / total_cnt
    resid = sum((e - rate * c) ** 2 for e, c in pairs)
    return rate, math.sqrt(resid) / total_cnt


def sift_equivalence_check(
    config: ProtocolConfig, attack: AttackSpec, trials: int
) -> SiftEquivalenceReport:
    """Compare the two SIFT realizations on CTRL/TEST error-rate estimates.

    The exact side computes Born-rule expectations of both error rates under
    the delayed-measurement (XOR-probe) model by enumerating Alice's choice
    tree.  The sampled side runs `trials` independent measure-and-resend
    simulations with per-trial derived seeds and pools the observed rates.
    The two are declared equivalent when they agree within 4 standard errors.
    """
    if config.rounds > EXACT_ROUND_CAP:
        raise ExactCapExceeded(
            f"equivalence check enumerates at most {EXACT_ROUND_CAP} rounds"
        )
    from .analysis import exact_rate_expectations

    exact = exact_rate_expectations(attack, config.rounds, config.ctrl_prob)

    ctrl_pairs = []
    test_pairs = []
    for t in range(trials):
        cfg = replace(config, seed=derive_seed(config.seed, t), mode=MODE_SAMPLING)
        transcript = run_protocol(cfg, attack)
        stats = classical_phase(transcript, stream_rng(cfg.seed, _STREAM_CLASSICAL))
        ctrl_pairs.append((stats.ctrl_errors, stats.n_ctrl))
        test_pairs.append((stats.test_errors, stats.n_test))

    ctrl_rate, ctrl_se = _pooled_rate(ctrl_pairs)
    test_rate, test_se = _pooled_rate(test_pairs)

    def sigma(diff, se):
        if diff == 0:
            return 0.0
        return abs(diff) / se if se > 0 else math.inf

    max_sigma = max(
        sigma(ctrl_rate - exact.ctrl_error_rate, ctrl_se),
        sigma(test_rate - exact.test_error_rate, test_se),
    )
    return SiftEquivalenceReport(
        exact_ctrl_error=exact.ctrl_error_rate,
        exact_test_error=exact.test_error_rate,
        sampled_ctrl_error=ctrl_rate,
        sampled_test_error=test_rate,
        ctrl_se=ctrl_se,
        test_se=test_se,
        max_sigma=max_sigma,
        equivalent=bool(max_sigma <= 4.0),
        trials=trials,
        rounds_per_trial=config.rounds,
    )
