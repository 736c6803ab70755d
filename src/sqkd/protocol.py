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
  EXACT_ROUND_CAP rounds, and refused before the first round when the final
  state would hold more than EXACT_AMPLITUDE_CAP amplitudes.

After the quantum phase, classical_phase() announces choices, verifies CTRL
rounds in the X basis, sacrifices a fraction of SIFT rounds as TEST, and
computes error rates; with the default abort threshold of 0 any error at all
aborts the run.
"""

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from operator import attrgetter, ne
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
    apply_on_axes,
    apply_unitary,
    bob_memory,
    hadamard,
    ket_plus,
    measure_out,
    outcome_threshold,
    project,
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
#: most amplitudes an exact run's state may hold; swap and measure_resend_z
#: reach it at EXACT_ROUND_CAP rounds
EXACT_AMPLITUDE_CAP = 2**24

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


def _new_factors(attack: AttackSpec, i: int, materialized: set[str]):
    """Probe factors round i's gates touch first, in target order, forward gate first.

    Each factor's labels join materialized as it is yielded, so a factor over
    several labels comes once, whole.
    """
    for gate in (attack.forward_gate(i), attack.backward_gate(i)):
        for label in gate.targets if gate is not None else ():
            if label != TRANSIT and label not in materialized:
                factor = attack.probe_factor(label)
                materialized.update(factor.layout.labels)
                yield factor


class JointEvolution:
    """Threads the exact joint state through protocol rounds.

    Probe subsystems are materialized lazily, the first time a gate targets
    them; the state's labels say which already are.  finish_round is the only
    code that runs a round's backward leg: it appends Alice's probe, holding
    [V·P₀ψ, V·P₁ψ] on SIFT (her XOR copy tags the transit's two computational
    branches, so V acts on each separately) and [V·ψ, 0] on CTRL, and relabels
    the transit into Bob's memory.
    """

    def __init__(self, attack: AttackSpec):
        self.attack = attack
        self.state = _empty_state()

    def clone(self) -> "JointEvolution":
        other = JointEvolution(self.attack)
        other.state = self.state
        return other

    def start_round(self, i: int):
        """Emit |+> into the transit slot and run the forward attack."""
        self.state = tensor(self.state, ket_plus(TRANSIT))
        for factor in _new_factors(self.attack, i, set(self.state.layout.labels)):
            self.state = tensor(self.state, factor)
        self.state = apply_gate(self.state, self.attack.forward_gate(i))

    def finish_round(self, i: int, choice: str):
        """Run the backward attack on the branches of Alice's choice; her probe comes last."""
        gate = self.attack.backward_gate(i)
        if choice == SIFT:
            branches = [apply_gate(project(self.state, TRANSIT, b), gate).amps for b in (0, 1)]
        else:
            out = apply_gate(self.state, gate).amps
            branches = [out, np.zeros_like(out)]
        layout = self.state.layout.relabeled(TRANSIT, bob_memory(i))
        layout = SubsystemLayout(layout.dims + (2,), layout.labels + (alice_probe(i),))
        self.state = StateVector(layout, np.stack(branches, axis=-1))

    def run_round(self, i: int, choice: str):
        self.start_round(i)
        self.finish_round(i, choice)


def exact_state_dim(attack: AttackSpec, n_rounds: int) -> int:
    """Amplitude count of an exact run's final state, without building it.

    Each round leaves Bob's memory qubit and Alice's probe qubit, and every
    probe factor some gate of the run targets is materialized once, whole, by
    _new_factors as in JointEvolution.
    """
    seen: set[str] = set()
    factors = (f for i in range(n_rounds) for f in _new_factors(attack, i, seen))
    return 4**n_rounds * math.prod(f.dim for f in factors)


def _run_exact(config: ProtocolConfig, attack: AttackSpec, rng) -> Transcript:
    dim = exact_state_dim(attack, config.rounds)
    if dim > EXACT_AMPLITUDE_CAP:
        raise ExactCapExceeded(
            f"an exact {config.rounds}-round run of {attack.name!r} would hold {dim} "
            f"amplitudes, above the cap of {EXACT_AMPLITUDE_CAP}"
        )
    evo = JointEvolution(attack)
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
    """

    alice: np.ndarray
    bob_z: np.ndarray
    bob_x: np.ndarray


def _gate_key(gate: Gate | None, positions: dict[str, int]):
    """A gate's unitary entries and target positions: equal keys, equal matrices."""
    if gate is None:
        return None
    return gate.unitary.entries.tobytes(), tuple(positions.get(t, -1) for t in gate.targets)


def _gate_matrix(gate: Gate | None, layout: SubsystemLayout) -> np.ndarray:
    """Matrix of a gate on layout: its unitary on the identity's output axes.

    A gate naming a subsystem the layout lacks raises AttackLayoutMismatch.
    """
    eye = np.eye(layout.dim, dtype=complex)
    if gate is None:
        return eye
    try:
        positions = [layout.index(t) for t in gate.targets]
    except UnknownLabel as exc:
        raise AttackLayoutMismatch(str(exc)) from exc
    columns = eye.reshape(*layout.dims, layout.dim)
    return apply_on_axes(columns, gate.unitary, positions).reshape(layout.dim, layout.dim)


def _compile_round(fwd, bwd, labels, dims) -> _Instrument:
    layout = SubsystemLayout((2, *dims), (TRANSIT, *labels))
    d = layout.dim // 2
    f = _gate_matrix(fwd, layout).reshape(2, d, 2, d)
    b = _gate_matrix(bwd, layout).reshape(2, d, 2, d)
    alice = (f[:, :, 0, :] + f[:, :, 1, :]) / math.sqrt(2)
    bob_z = np.ascontiguousarray(b.transpose(2, 0, 1, 3))
    returned = np.einsum("zpaq,aqr->zpr", b, alice)
    bob_x = np.einsum("xz,zpr->xpr", hadamard().entries, returned)
    return _Instrument(alice, bob_z, bob_x)


def _threshold(kraus: np.ndarray, psi: np.ndarray) -> tuple[float, np.ndarray]:
    """Outcome 0's threshold on psi (a draw below it gives 0) and its raw branch."""
    branch = kraus[0] @ psi
    return outcome_threshold(float(np.vdot(branch, branch).real)), branch


def _collapse(kraus: np.ndarray, psi: np.ndarray, u: float) -> tuple[int, np.ndarray]:
    """A two-outcome instrument on psi for the uniform draw u.

    Returns (outcome, renormalised state); outcome 0 when u falls below
    outcome_threshold of its weight, as engine.draw_outcome decides.
    """
    t, branch = _threshold(kraus, psi)
    idx = 0 if u < t else 1
    if idx:
        branch = kraus[1] @ psi
    weight = float(np.vdot(branch, branch).real)
    if weight <= 0:
        raise InvalidState("cannot normalize a zero-weight branch")
    return idx, branch / math.sqrt(weight)


def _pair_collapse(kraus: list, psi: list, u: float) -> tuple[int, list]:
    """_collapse for a live probe of dim 2, on Python complex lists.

    kraus[k] is outcome k's 2x2 matrix as rows.  numpy's per-call overhead
    dominates _collapse on two amplitudes; the sums here differ from its
    BLAS ones only in the last bits.
    """
    p0, p1 = psi
    (a, b), (c, d) = kraus[0]
    branch = [a * p0 + b * p1, c * p0 + d * p1]
    norm = math.hypot(*map(abs, branch))
    idx = 0 if u < outcome_threshold(norm * norm) else 1
    if idx:
        (a, b), (c, d) = kraus[1]
        branch = [a * p0 + b * p1, c * p0 + d * p1]
        norm = math.hypot(*map(abs, branch))
    if norm <= 0:
        raise InvalidState("cannot normalize a zero-weight branch")
    scale = 1.0 / norm
    return idx, [x * scale for x in branch]


class _Table(NamedTuple):
    """Outcome thresholds of a round that starts and ends with no live probe.

    A CTRL round reads PLUS when its draw is below x; a SIFT round gives
    Alice bit 0 below a, then Bob's Z outcome 0 below z[bit] (1.0 for a bit
    no draw gives).  Each is the threshold _collapse would draw against.
    """

    x: float
    a: float
    z: tuple[float, float]


def _round_table(inst: _Instrument, psi: np.ndarray) -> _Table:
    a, _ = _threshold(inst.alice, psi)
    # the draw u = bit gives Alice that bit wherever some draw reaches it
    z = tuple(
        _threshold(inst.bob_z[bit], _collapse(inst.alice, psi, bit)[1])[0] if reached else 1.0
        for bit, reached in enumerate((a > 0, a < 1))
    )
    return _Table(_threshold(inst.bob_x, psi)[0], a, z)


#: most doubles drawn from stream 0 at once by _round_draws
_BLOCK = 1 << 16


def _round_draws(rng, rounds: int, ctrl_prob: float):
    """Stream 0 for the next rounds, in blocks cut at round boundaries.

    Yields (u, starts): the draws of whole rounds, and the index in u of each
    round's choice draw.  A CTRL round takes 2 draws and a SIFT round 3, known
    only once its choice is drawn; a round split across blocks is carried
    into the next.  Each block draws at most _BLOCK doubles, and never more
    than the rounds left take at the least, so the rng ends where single
    draws would.
    """
    u = np.empty(0)  # draws of a round not yet complete
    while rounds:
        least = 2 * rounds + int(len(u) > 0 and u[0] >= ctrl_prob)
        u = np.concatenate([u, rng.random(min(least - len(u), _BLOCK))])
        is_ctrl = (u < ctrl_prob).tolist()
        starts = []
        p = 0
        while p < len(u):
            starts.append(p)
            p += 2 if is_ctrl[p] else 3
        if p > len(u):
            p = starts.pop()
        if starts:
            yield u[:p], starts
            rounds -= len(starts)
        u = u[p:]


#: a tabled record's fields after its index, by outcome code: 0/1 for a CTRL
#: round reading PLUS/MINUS, 2 + 2*bit + z for a SIFT round
_TABLED_FIELDS = [(CTRL, None, None, x, None, None) for x in (PLUS, MINUS)] + [
    (SIFT, bit, None, None, z, None) for bit in (0, 1) for z in (0, 1)
]


def _sample_table(table: _Table, first: int, end: int, ctrl_prob: float, rng) -> list[RoundRecord]:
    """Records of rounds [first, end), all drawn from one table.

    Each round takes its draws from _round_draws: the choice, then one (CTRL)
    or two (SIFT) outcomes.
    """
    records = []
    for u, starts in _round_draws(rng, end - first, ctrl_prob):
        s = np.array(starts, dtype=np.intp)
        second, third = u[s + 1], u[np.minimum(s + 2, len(u) - 1)]
        bit = second >= table.a
        sift = 2 + 2 * bit + (third >= np.where(bit, table.z[1], table.z[0]))
        codes = np.where(u[s] < ctrl_prob, second >= table.x, sift).tolist()
        records += [RoundRecord(i, *_TABLED_FIELDS[c]) for i, c in zip(range(first, end), codes)]
        first += len(starts)
    return records


def _sample_live(inst: _Instrument, psi, first: int, end: int, ctrl_prob: float, rng):
    """Records of rounds [first, end) on one instrument, and the live probe after them.

    Each round takes its draws from _round_draws: the choice, then one (CTRL)
    or two (SIFT) Kraus steps, each refusing a zero-weight branch; the
    live-probe norm is checked at the round's end.  A live probe of dim 2, the
    only one the built-in attacks keep, steps through Python lists
    (_pair_collapse), any other through _collapse.
    """
    if len(psi) == 2:
        step = _pair_collapse
        kraus = (inst.alice.tolist(), inst.bob_z.tolist(), inst.bob_x.tolist())
        psi = psi.tolist()
    else:
        step, kraus = _collapse, (inst.alice, inst.bob_z, inst.bob_x)
    alice, bob_z, bob_x = kraus
    records = []
    r = first
    for block, starts in _round_draws(rng, end - first, ctrl_prob):
        u = block.tolist()
        for p in starts:
            if u[p] < ctrl_prob:
                code, psi = step(bob_x, psi, u[p + 1])
            else:
                bit, psi = step(alice, psi, u[p + 1])
                z, psi = step(bob_z[bit], psi, u[p + 2])
                code = 2 + 2 * bit + z
            records.append(RoundRecord(r, *_TABLED_FIELDS[code]))
            norm = math.hypot(*map(abs, psi))
            if not abs(norm - 1.0) <= NORM_ATOL:
                raise InvalidState(f"live probe norm {norm!r} deviates from 1 in round {r}")
            r += 1
    return records, np.asarray(psi, dtype=complex)


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
    and dims.  Each distinct round shape (the two gates' unitary entries and
    target positions, and the live dims) is compiled once into an
    _Instrument.  Probes past their last use are dropped after the span of
    rounds that used them last: all at once when no live label remains, and
    otherwise by measuring each in Z with draws from its own substream, which
    no later round can notice since nothing acts on it again.

    A round that starts with no live probe and leaves none behind carries no
    state, and neither do the rounds after it that follow its gate rule
    (AttackSpec.run_end): they are all drawn from one outcome table per
    shape and fresh probe state (_sample_table).

    Every other round carries a live probe.  Its instrument stays fixed from
    the round up to the next live label's last use, within the round's gate
    rule, and _sample_live draws that span in one loop; a round after which
    some label is dropped is a span of its own.  Neither sampler ever draws
    past its span, so the rng ends where single draws would.

    Draws, weights and the outcome_threshold snap are engine.measure's, so
    the records are those of the dense engine; a span on a live probe of
    dim 2 sums on Python lists instead of BLAS, and could differ only where
    a draw lands within about 1e-16 of a threshold.
    """
    records = []
    last_use: dict[str, int] = {}  # of each materialized probe label
    labels: list[str] = []
    dims: list[int] = []
    psi = np.ones(1, dtype=complex)
    materialized: set[str] = set()
    compiled: dict = {}
    tables: dict = {}
    dead_rng = None  # built on first use: most runs never need it

    i = 0
    while i < config.rounds:
        fresh = not labels
        for factor in _new_factors(attack, i, materialized):
            psi = np.outer(psi, factor.amps).reshape(-1)  # psi ⊗ factor
            labels += factor.layout.labels
            dims += factor.layout.dims
            last_use.update((l, attack.last_use(l, config.rounds)) for l in factor.layout.labels)
        fwd, bwd = attack.forward_gate(i), attack.backward_gate(i)
        positions = {label: k + 1 for k, label in enumerate(labels)}
        positions[TRANSIT] = 0
        key = (_gate_key(fwd, positions), _gate_key(bwd, positions), tuple(dims))
        inst = compiled.get(key)
        if inst is None:
            inst = compiled[key] = _compile_round(fwd, bwd, labels, dims)

        if fresh and all(last_use[l] <= i for l in labels):
            table_key = (key, psi.tobytes())
            table = tables.get(table_key)
            if table is None:
                table = tables[table_key] = _round_table(inst, psi)
            stop = attack.run_end(i, config.rounds)
            records += _sample_table(table, i, stop, config.ctrl_prob, rng)
        else:
            # rounds of this gate rule before any live label's last use drop
            # nothing, and on these very gates materialize nothing: the
            # instrument stays fixed (a template builds new gates every round);
            # a round after which a label is dropped is a span of its own
            stop = min(attack.run_end(i, config.rounds), *(last_use[l] for l in labels))
            if stop <= i + 1 or (
                attack.forward_gate(i + 1) is not fwd or attack.backward_gate(i + 1) is not bwd
            ):
                stop = i + 1
            live, psi = _sample_live(inst, psi, i, stop, config.ctrl_prob, rng)
            records += live

        dead = [l for l in labels if last_use[l] < stop]
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
            raise InvalidState(f"live probe norm {norm!r} deviates from 1 in round {stop - 1}")
        i = stop

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


#: a Key or Test record's bit as key text; any other value is refused
_BIT_TEXT = {0: "0", 1: "1"}


def stats_from_records(records, abort_threshold: float) -> RunStats:
    """Aggregate statistics from role-assigned records, in one pass.

    Raises IncompleteTranscript when a Key or Test record's alice_bit or
    bob_z_outcome is not 0 or 1.
    """
    n = {ROLE_CTRL: 0, ROLE_TEST: 0, ROLE_KEY: 0}
    errors = dict(n)
    alice_bits, bob_bits = [], []
    for r in records:
        role = r.role
        if role in n:
            n[role] += 1
            if r.error:
                errors[role] += 1
            if role != ROLE_CTRL:
                try:
                    a, b = _BIT_TEXT[r.alice_bit], _BIT_TEXT[r.bob_z_outcome]
                except (KeyError, TypeError):
                    raise IncompleteTranscript(
                        f"round {r.index} is a {role} record whose bits are not 0 or 1"
                    ) from None
                if role == ROLE_KEY:
                    alice_bits.append(a)
                    bob_bits.append(b)
    key_alice, key_bob = "".join(alice_bits), "".join(bob_bits)
    ctrl_rate = errors[ROLE_CTRL] / n[ROLE_CTRL] if n[ROLE_CTRL] else 0.0
    test_rate = errors[ROLE_TEST] / n[ROLE_TEST] if n[ROLE_TEST] else 0.0
    mismatches = sum(map(ne, key_alice, key_bob))
    mismatch_rate = mismatches / n[ROLE_KEY] if n[ROLE_KEY] else 0.0
    return RunStats(
        n_ctrl=n[ROLE_CTRL],
        n_test=n[ROLE_TEST],
        n_key=n[ROLE_KEY],
        ctrl_errors=errors[ROLE_CTRL],
        test_errors=errors[ROLE_TEST],
        ctrl_error_rate=ctrl_rate,
        test_error_rate=test_rate,
        key_alice=key_alice,
        key_bob=key_bob,
        key_mismatch_rate=mismatch_rate,
        aborted=bool(ctrl_rate > abort_threshold or test_rate > abort_threshold),
    )


def classical_phase(transcript: Transcript, rng: np.random.Generator) -> RunStats:
    """Announcement, CTRL verification, TEST sampling, and sifting.

    In exact mode the stored qubits are measured now, in round order, with
    draws from the supplied rng: Bob's memory in the X basis for a CTRL
    round, Alice's probe and then Bob's memory in the Z basis for a SIFT
    round.  Each qubit is measured out of the state (engine.measure_out), so
    the state halves with every measurement.  SIFT rounds are then
    partitioned into TEST (test_fraction, drawn uniformly without
    replacement from the same rng) and Key.
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
                outcome, state, _ = measure_out(state, bob_memory(rec.index), "x", rng)
                rec.bob_x_outcome = outcome
            else:
                bit, state, _ = measure_out(state, alice_probe(rec.index), "z", rng)
                rec.alice_bit = int(bit)
                outcome, state, _ = measure_out(state, bob_memory(rec.index), "z", rng)
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


#: a record's fields after its index, the key of its cached line tail
_RECORD_TAIL = attrgetter(*[f.name for f in fields(RoundRecord)][1:])


def write_transcript(path, transcript: Transcript, header_extra: dict | None = None):
    """One JSON record per line, preceded by a header line with the config.

    The header is the config's fields, then header_extra; each record line is
    the RoundRecord's fields in field order, json.dumps(vars(rec)).  Records
    that differ only in their index share the text after it, so that tail is
    serialised once per distinct tuple of the other fields; each field holds
    values of one JSON type, so equal tuples serialise alike.
    """
    header = asdict(transcript.config)
    if header_extra:
        header.update(header_extra)
    lines = [json.dumps(header)]
    tails: dict = {}
    for rec in transcript.records:
        head = '{"index": ' + str(rec.index)
        key = _RECORD_TAIL(rec)
        tail = tails.get(key)
        if tail is None:
            tail = tails[key] = json.dumps(vars(rec))[len(head) :]
        lines.append(head + tail)
    lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


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
    The two are declared equivalent when they agree within 4 standard errors;
    exact_rate_expectations refuses more than EXACT_ROUND_CAP rounds before
    any trial runs.
    """
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
