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
from dataclasses import asdict, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .attacks import AttackSpec, Gate
from .engine import (
    MINUS,
    NORM_ATOL,
    PLUS,
    StateVector,
    SubsystemLayout,
    TRANSIT,
    alice_probe,
    apply_unitary,
    basis_state,
    bob_memory,
    cnot,
    draw_outcome,
    hadamard,
    ket_plus,
    ket_zero,
    measure,
    relabel,
    tensor,
)
from .errors import (
    AttackLayoutMismatch,
    ExactCapExceeded,
    IncompleteTranscript,
    InvalidState,
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
_STREAM_DEAD_PROBES = 3


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic substream of a master seed.

    Streams are derived as SeedSequence([seed, *stream]); the protocol uses
    stream 0 for round randomness, stream 1 for the classical phase and
    stream 3 for measuring out dead probes in sampling mode.
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
        if not math.isfinite(self.abort_threshold):
            raise ValueError(f"abort_threshold must be finite, got {self.abort_threshold}")
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


class _Instrument(NamedTuple):
    """One round's Kraus operators on the live probe space, indexed by outcome.

    alice[a] = <a|_T F |+>_T, bob_z[a][z] = <z|_T B |a>_T and
    bob_x[x] = <x|_T H B F |+>_T, for forward gate F and backward gate B.
    gates holds the two gates, so the unitaries whose ids key the cache stay
    alive while it does.
    """

    alice: np.ndarray
    bob_z: np.ndarray
    bob_x: np.ndarray
    gates: tuple


def _gate_key(gate: Gate | None, positions: dict[str, int]):
    if gate is None:
        return None
    return id(gate.unitary), tuple(positions.get(t, -1) for t in gate.targets)


def _gate_matrix(gate: Gate | None, layout: SubsystemLayout) -> np.ndarray:
    """Matrix of a gate on layout, one basis column at a time through apply_gate."""
    cols = [apply_gate(basis_state(layout, k), gate).amps for k in range(layout.dim)]
    return np.stack(cols, axis=1)


def _compile_round(fwd, bwd, labels, dims) -> _Instrument:
    layout = SubsystemLayout((2, *dims), (TRANSIT, *labels))
    d = layout.dim // 2
    f = _gate_matrix(fwd, layout).reshape(2, d, 2, d)
    b = _gate_matrix(bwd, layout).reshape(2, d, 2, d)
    alice = (f[:, :, 0, :] + f[:, :, 1, :]) / math.sqrt(2)
    bob_z = np.ascontiguousarray(b.transpose(2, 0, 1, 3))
    returned = np.einsum("zpaq,aqr->zpr", b, alice)
    bob_x = np.einsum("xz,zpr->xpr", hadamard().entries, returned)
    return _Instrument(alice, bob_z, bob_x, (fwd, bwd))


def _collapse(kraus: np.ndarray, psi: np.ndarray, rng) -> tuple[int, np.ndarray]:
    """Draw a two-outcome instrument on psi; returns (outcome, renormalised state)."""
    branch = kraus[0] @ psi
    idx, _ = draw_outcome(float(np.vdot(branch, branch).real), rng)
    if idx:
        branch = kraus[1] @ psi
    weight = float(np.vdot(branch, branch).real)
    if weight <= 0:
        raise InvalidState("cannot normalize a zero-weight branch")
    return idx, branch / math.sqrt(weight)


def _measure_out(psi, dims, pos, rng) -> np.ndarray:
    """Measure subsystem pos in its computational basis; returns the rest, renormalised."""
    t = np.moveaxis(psi.reshape(dims), pos, 0).reshape(dims[pos], -1)
    weights = np.cumsum((np.abs(t) ** 2).sum(axis=1))
    k = int(np.searchsorted(weights, rng.random() * weights[-1], side="right"))
    rest = t[min(k, dims[pos] - 1)]
    return rest / np.linalg.norm(rest)


def _run_sampling(config: ProtocolConfig, attack: AttackSpec, rng) -> Transcript:
    """Sample each round from a compiled instrument on Eve's live probe.

    Only the live probe persists between rounds, as a raw vector over labels
    and dims.  Each distinct round shape (the two gates' unitaries and target
    positions, and the live dims) is compiled once into an _Instrument.
    Probes past their last use are dropped after the round: all at once when
    no live label remains, and otherwise by measuring each in Z with draws
    from its own substream, which no later round can notice since nothing
    acts on it again.
    """
    records = []
    last_use = attack.last_use_map(config.rounds)
    labels: list[str] = []
    dims: list[int] = []
    psi = np.ones(1, dtype=complex)
    materialized: set[str] = set()
    compiled: dict = {}
    dead_rng = None  # built on first use: most runs never need it

    for i in range(config.rounds):
        fwd, bwd = attack.forward_gate(i), attack.backward_gate(i)
        for label in [t for g in (fwd, bwd) if g is not None for t in g.targets]:
            if label == TRANSIT or label in materialized:
                continue
            factor = attack.probe_factor(label)
            psi = np.outer(psi, factor.amps).reshape(-1)  # psi ⊗ factor
            labels += factor.layout.labels
            dims += factor.layout.dims
            materialized.update(factor.layout.labels)
        positions = {label: k + 1 for k, label in enumerate(labels)}
        positions[TRANSIT] = 0
        key = (_gate_key(fwd, positions), _gate_key(bwd, positions), tuple(dims))
        inst = compiled.get(key)
        if inst is None:
            inst = compiled[key] = _compile_round(fwd, bwd, labels, dims)

        choice = CTRL if rng.random() < config.ctrl_prob else SIFT
        rec = RoundRecord(index=i, choice=choice)
        if choice == SIFT:
            # measure-and-resend: Alice's Z outcome picks the resent basis state
            rec.alice_bit, psi = _collapse(inst.alice, psi, rng)
            rec.bob_z_outcome, psi = _collapse(inst.bob_z[rec.alice_bit], psi, rng)
        else:
            x, psi = _collapse(inst.bob_x, psi, rng)
            rec.bob_x_outcome = PLUS if x == 0 else MINUS
        records.append(rec)

        dead = [l for l in labels if last_use.get(l, -1) <= i]
        if len(dead) == len(labels):
            labels, dims, psi = [], [], np.ones(1, dtype=complex)
            dead = []
        for label in dead:
            pos = labels.index(label)
            if dead_rng is None:
                dead_rng = stream_rng(config.seed, _STREAM_DEAD_PROBES)
            psi = _measure_out(psi, dims, pos, dead_rng)
            del labels[pos], dims[pos]
        norm = math.sqrt(float(np.vdot(psi, psi).real))
        if not abs(norm - 1.0) <= NORM_ATOL:
            raise InvalidState(f"live probe norm {norm!r} deviates from 1 in round {i}")

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


_CONFIG_FIELDS = {f.name for f in fields(ProtocolConfig)}
_RECORD_FIELDS = {f.name for f in fields(RoundRecord)}


def write_transcript(path, transcript: Transcript, header_extra: dict | None = None):
    """One JSON record per line, preceded by a header line with the config.

    The header is the config's fields, then header_extra; each record line is
    the RoundRecord's fields in field order.  Records go through vars(), not
    asdict(), which is several times slower per record.
    """
    header = asdict(transcript.config)
    if header_extra:
        header.update(header_extra)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for rec in transcript.records:
            fh.write(json.dumps(vars(rec)) + "\n")


def read_transcript(path) -> tuple[dict, list[RoundRecord]]:
    """Header and records of a transcript written by write_transcript.

    Raises IncompleteTranscript for an empty file, a header that lacks a
    config key, or a record whose fields differ from RoundRecord's.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line]
    if not lines:
        raise IncompleteTranscript(f"transcript {path} is empty")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or not _CONFIG_FIELDS <= set(header):
        raise IncompleteTranscript(
            f"transcript header must hold the config keys {sorted(_CONFIG_FIELDS)}"
        )
    records = []
    for n, line in enumerate(lines[1:], start=2):
        d = json.loads(line)
        if not isinstance(d, dict) or set(d) != _RECORD_FIELDS:
            raise IncompleteTranscript(
                f"line {n} is not a record with exactly the fields {sorted(_RECORD_FIELDS)}"
            )
        records.append(RoundRecord(**d))
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
