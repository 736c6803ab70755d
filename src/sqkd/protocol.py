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

* Exact — on a SIFT round Alice delays measuring by copying the transit
  qubit onto a fresh probe qubit with an XOR; nothing is measured during the
  quantum phase and the Bob ⊗ Alice ⊗ Eve joint state is retained, with no
  probe for a CTRL round, where Alice's would stay |0>.  Capped at
  EXACT_ROUND_CAP rounds, and refused before the first round when the
  all-SIFT run's final state would hold more than EXACT_AMPLITUDE_CAP
  amplitudes.

After the quantum phase, classical_phase() announces choices, verifies CTRL
rounds in the X basis, sacrifices a fraction of SIFT rounds as TEST, and
computes error rates; with the default abort threshold of 0 any error at all
aborts the run.
"""

import json
import math
from array import array
from dataclasses import asdict, dataclass, fields
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
    _measure_raw,
    alice_probe,
    apply_on_axes,
    bob_memory,
    hadamard,
    ket_plus,
    outcome_threshold,
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


def config_value(key: str, kind: type, value):
    """A config value as its field's type; numbers refuse bools and strings, ints fractions."""
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{key} must be an integer, got {value!r}")
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{key} must be an integer, got {value!r}")
    elif kind is float and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return kind(value)


#: outcome codes of an exact round before the classical phase measures it,
#: by Alice's choice; a code below 2 is a CTRL round throughout
_PENDING_CTRL = -1
_PENDING_SIFT = 6


@dataclass(eq=False)
class Transcript:
    """A run's rounds as one int8 outcome code each.

    A code is 0/1 for a CTRL round reading PLUS/MINUS and 2 + 2*bit + z for a
    SIFT round; an exact run's rounds hold _PENDING_CTRL or _PENDING_SIFT
    until classical_phase measures them.  final_state holds an exact run's
    joint state until classical_phase takes it, and is None after: Bob's
    memory of every round, Alice's probe of every SIFT round, and every probe
    factor a gate touched, so exact_state_dim >> n_ctrl amplitudes.  test
    marks the Test rounds once classical_phase has assigned roles, and is
    None before.  Transcripts compare by identity; compare their codes and
    test instead.
    """

    config: ProtocolConfig
    codes: np.ndarray
    final_state: StateVector | None = None
    test: np.ndarray | None = None


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


def _gate_axes(gate: Gate, layout: SubsystemLayout) -> list[int]:
    """Axes of a gate's targets in layout, in target order.

    A target the layout lacks raises AttackLayoutMismatch.
    """
    try:
        return [layout.index(t) for t in gate.targets]
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


#: the |+> amplitudes Bob's transit qubit is emitted with, built and checked once
_PLUS_AMPS = ket_plus(TRANSIT).amps


class JointEvolution:
    """Threads the exact joint state through protocol rounds.

    Probe subsystems are materialized lazily, the first time a gate targets
    them; the state's labels say which already are.  finish_round is the only
    code that runs a round's backward leg: it relabels the transit into Bob's
    memory and, on SIFT, appends Alice's probe holding [V·P₀ψ, V·P₁ψ] (her XOR
    copy tags the transit's two computational branches, so V acts on each
    separately).  On CTRL Alice leaves her probe at |0>: with ctrl_probe it is
    appended all the same, holding [V·ψ, 0], and without it the round leaves
    V·ψ alone, half the amplitudes.  An exact run drops it (_run_exact),
    since classical_phase measures Alice's probe on SIFT rounds only.  The
    analysis walk keeps it: its leakage sums run over the whole layout, and
    without the zeros some `sqkd check` outputs move in the last bits.

    Without ctrl_probe, run_round joins a round that touches only its own
    fresh subsystems to the state as one outer product; with it, every round
    is evolved over the whole state, since the walk's outputs read the bits
    that order of products leaves.
    """

    def __init__(self, attack: AttackSpec, ctrl_probe: bool = True):
        self.attack = attack
        self.ctrl_probe = ctrl_probe
        self.state = StateVector(SubsystemLayout((), ()), np.ones(1, dtype=complex))
        # an exact run's own-subsystem rounds, run from the empty state, by shape
        self._own_rounds = None if ctrl_probe else {}

    def clone(self) -> "JointEvolution":
        other = JointEvolution(self.attack, self.ctrl_probe)
        other.state = self.state
        return other

    def start_round(self, i: int):
        """Emit |+> into the transit slot, bring in the round's new probe factors, run F.

        ψ ⊗ |+> ⊗ each new factor is built as raw outer products, in that
        order, with the entries engine.tensor gives; only the state F leaves
        is wrapped, so its norm is checked once.  The layout and F's axes come
        first, so a refused gate leaves ψ as it was, and ψ is released as soon
        as the first product is made.  F goes through engine.apply_on_axes, as V
        does in finish_round.
        """
        factors = list(_new_factors(self.attack, i, set(self.state.layout.labels)))
        layout = self.state.layout
        layout = SubsystemLayout(
            layout.dims + (2,) + tuple(d for f in factors for d in f.layout.dims),
            layout.labels + (TRANSIT,) + tuple(l for f in factors for l in f.layout.labels),
        )
        gate = self.attack.forward_gate(i)
        positions = None if gate is None else _gate_axes(gate, layout)
        amps = np.multiply.outer(self.state.amps, _PLUS_AMPS)
        self.state = None
        for factor in factors:
            amps = np.multiply.outer(amps, factor.amps)
        if gate is not None:
            amps = apply_on_axes(amps.reshape(layout.dims), gate.unitary, positions)
        self.state = StateVector(layout, amps.reshape(-1))

    def finish_round(self, i: int, choice: str):
        """Run the backward attack on the branches of Alice's choice; her probe comes last.

        With Alice's probe, the (..., 2) output is allocated once, as zeros.
        On SIFT, half b gets ψ's slice with the transit at b; on CTRL, half 0
        gets ψ.  V is then applied in place on each written half
        (engine.apply_on_axes), so the round holds ψ and the output, and no
        more than a block beside them.  A CTRL round without the probe holds
        ψ and V·ψ, or ψ alone when it has no backward gate.
        """
        gate = self.attack.backward_gate(i)
        layout = self.state.layout
        psi = self.state.amps.reshape(layout.dims)
        positions = None if gate is None else _gate_axes(gate, layout)
        if choice == CTRL and not self.ctrl_probe:
            out = psi if gate is None else apply_on_axes(psi, gate.unitary, positions)
            self.state = StateVector(layout.relabeled(TRANSIT, bob_memory(i)), out.reshape(-1))
            return
        pos = layout.index(TRANSIT)
        labels = layout.labels[:pos] + (bob_memory(i),) + layout.labels[pos + 1 :]
        out = np.zeros((*layout.dims, 2), dtype=complex)
        if choice == SIFT:
            for b in (0, 1):
                transit = (slice(None),) * pos + (b,)
                out[transit + (..., b)] = psi[transit]
        else:
            out[..., 0] = psi
        if gate is not None:
            for b in (0, 1) if choice == SIFT else (0,):
                half = out[..., b]
                apply_on_axes(half, gate.unitary, positions, out=half)
        layout = SubsystemLayout(layout.dims + (2,), labels + (alice_probe(i),))
        self.state = StateVector(layout, out.reshape(-1))

    def run_round(self, i: int, choice: str):
        """start_round, then finish_round; without ctrl_probe, as ψ ⊗ w where it can.

        A round whose gates target no label the state holds acts only on its
        transit and the factors it brings in.  Without ctrl_probe such a round
        is run from the empty state (|+> ⊗ its new factors, F, Alice's choice,
        V), and the w it leaves is joined to ψ with one np.multiply.outer, so F
        and V never pass over ψ.  The layout is the dense path's, [..., B_i,
        new labels..., A_i]; the amplitudes differ from it only in rounding,
        since ψ's entries multiply w after F and V.  w is kept for the run,
        keyed by both gates on [T, new labels], the new factors and the
        choice, so a template attack builds it once per choice; while ψ is
        still empty the round runs in place, and its state is w.  The analysis
        walk (ctrl_probe) keeps the dense path: the pinned `sqkd check`
        outputs read the last bits it leaves.
        """
        own = None if self._own_rounds is None else self._own_round(i, choice)
        if own is None:
            self.start_round(i)
            self.finish_round(i, choice)
            return
        key, labels = own
        psi, w = self.state, self._own_rounds.get(key)
        if w is None:
            # from the empty state: when ψ is empty, the round itself is w
            round_ = JointEvolution(self.attack, self.ctrl_probe) if psi.layout.labels else self
            round_.start_round(i)
            round_.finish_round(i, choice)
            w = self._own_rounds[key] = round_.state
            if round_ is self:
                return
        self.state = StateVector(
            SubsystemLayout(psi.layout.dims + w.layout.dims, psi.layout.labels + labels),
            np.multiply.outer(psi.amps, w.amps),
        )

    def _own_round(self, i: int, choice: str):
        """Round i's key and labels when its gates target no label the state holds, else None."""
        held = self.state.layout.labels
        gates = (self.attack.forward_gate(i), self.attack.backward_gate(i))
        if any(t in held for g in gates if g is not None for t in g.targets):
            return None
        factors = list(_new_factors(self.attack, i, set()))  # the gates touch no held label
        labels = tuple(l for f in factors for l in f.layout.labels)
        positions = {l: k for k, l in enumerate((TRANSIT, *labels))}
        key = (
            tuple(_gate_key(g, positions) for g in gates),
            tuple((f.layout.dims, f.amps.tobytes()) for f in factors),
            choice,
        )
        return key, (bob_memory(i), *labels) + (() if choice == CTRL else (alice_probe(i),))


def exact_state_dim(attack: AttackSpec, n_rounds: int) -> int:
    """Amplitude count of the largest final state an exact run can hold, without building it.

    That is the all-SIFT run's: each round leaves Bob's memory qubit and
    Alice's probe qubit, and every probe factor some gate of the run targets
    is materialized once, whole, by _new_factors as in JointEvolution.  An
    exact run holds no probe for a CTRL round, so its final state has
    exact_state_dim >> n_ctrl amplitudes.
    """
    seen: set[str] = set()
    factors = (f for i in range(n_rounds) for f in _new_factors(attack, i, seen))
    return 4**n_rounds * math.prod(f.dim for f in factors)


def check_exact_size(attack: AttackSpec, n_rounds: int):
    """Raise ExactCapExceeded above EXACT_ROUND_CAP rounds or EXACT_AMPLITUDE_CAP amplitudes."""
    if n_rounds > EXACT_ROUND_CAP:
        raise ExactCapExceeded(
            f"an exact run holds at most {EXACT_ROUND_CAP} rounds, got {n_rounds}"
        )
    dim = exact_state_dim(attack, n_rounds)
    if dim > EXACT_AMPLITUDE_CAP:
        raise ExactCapExceeded(
            f"an exact {n_rounds}-round run of {attack.name!r} would hold {dim} "
            f"amplitudes, above the cap of {EXACT_AMPLITUDE_CAP}"
        )


def _run_exact(config: ProtocolConfig, attack: AttackSpec, rng) -> Transcript:
    check_exact_size(attack, config.rounds)
    evo = JointEvolution(attack, False)  # no probe for a CTRL round
    codes = np.empty(config.rounds, dtype=np.int8)
    for i in range(config.rounds):
        choice = CTRL if rng.random() < config.ctrl_prob else SIFT
        evo.run_round(i, choice)
        codes[i] = _PENDING_CTRL if choice == CTRL else _PENDING_SIFT
    return Transcript(config=config, codes=codes, final_state=evo.state)


#: Bob's X-basis rotation, built and checked once
_HADAMARD = hadamard().entries


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
    columns = eye.reshape(*layout.dims, layout.dim)
    matrix = apply_on_axes(columns, gate.unitary, _gate_axes(gate, layout))
    return matrix.reshape(layout.dim, layout.dim)


def _compile_round(fwd, bwd, labels, dims) -> _Instrument:
    layout = SubsystemLayout((2, *dims), (TRANSIT, *labels))
    d = layout.dim // 2
    f = _gate_matrix(fwd, layout).reshape(2, d, 2, d)
    b = _gate_matrix(bwd, layout).reshape(2, d, 2, d)
    alice = (f[:, :, 0, :] + f[:, :, 1, :]) / math.sqrt(2)
    bob_z = np.ascontiguousarray(b.transpose(2, 0, 1, 3))
    returned = np.einsum("zpaq,aqr->zpr", b, alice)
    bob_x = np.einsum("xz,zpr->xpr", _HADAMARD, returned)
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


def _pair_collapse(kraus: list, psi: tuple, u: float) -> tuple[int, tuple]:
    """_collapse for a live probe of dim 2, on Python scalars.

    kraus[k] is outcome k's 2x2 matrix as rows and psi the pair (p0, p1):
    complex numbers, or floats when the instrument and psi are real.  numpy's
    per-call overhead dominates _collapse on two amplitudes; the sums here
    differ from its BLAS ones only in the last bits.  On floats every step
    gives the real part of its complex counterpart exactly, since a product
    of complex numbers whose imaginary parts are zero has the float product
    as its real part.
    """
    p0, p1 = psi
    (a, b), (c, d) = kraus[0]
    b0, b1 = a * p0 + b * p1, c * p0 + d * p1
    norm = math.hypot(abs(b0), abs(b1))
    idx = 0 if u < outcome_threshold(norm * norm) else 1
    if idx:
        (a, b), (c, d) = kraus[1]
        b0, b1 = a * p0 + b * p1, c * p0 + d * p1
        norm = math.hypot(abs(b0), abs(b1))
    if norm <= 0:
        raise InvalidState("cannot normalize a zero-weight branch")
    scale = 1.0 / norm
    return idx, (b0 * scale, b1 * scale)


#: most doubles drawn from stream 0 at once by _round_draws
_BLOCK = 1 << 16


def _start_table() -> tuple[list, np.ndarray]:
    """Round starts within one byte of draws, as _round_draws packs them.

    Bit j of a byte, most significant first as np.packbits packs, is set when
    draw j is a SIFT choice (3 draws) and clear for CTRL (2 draws).  For each
    byte and the offset entry (0, 1 or 2) of the first round start in it,
    exits[byte][entry] is the offset of the first start in the next byte,
    and masks[byte, entry] holds the byte's starts as bits in the same order.
    """
    exits, masks = [], []
    for byte in range(256):
        exits.append([])
        masks.append([])
        for entry in range(3):
            p, mask = entry, 0
            while p < 8:
                mask |= 0x80 >> p
                p += 2 + (byte >> (7 - p) & 1)
            exits[-1].append(p - 8)
            masks[-1].append(mask)
    return exits, np.array(masks, dtype=np.uint8)


_START_EXITS, _START_MASKS = _start_table()


def _round_draws(rng, rounds: int, ctrl_prob: float):
    """Stream 0 for the next rounds, in blocks cut at round boundaries.

    Yields (u, starts): the draws of whole rounds, and the index in u of each
    round's choice draw, as an intp array.  A CTRL round takes 2 draws and a
    SIFT round 3, known only once its choice is drawn; a round split across
    blocks is carried into the next.  Each block draws at most _BLOCK
    doubles, and never more than the rounds left take at the least, so the
    rng ends where single draws would.  The starts are found a byte of draws
    at a time: the SIFT bits are packed, and the offset of the first start in
    each byte is carried through _START_EXITS, whose _START_MASKS bits are
    the starts.
    """
    u = np.empty(0)  # draws of a round not yet complete
    while rounds:
        least = 2 * rounds + int(len(u) > 0 and u[0] >= ctrl_prob)
        u = np.concatenate([u, rng.random(min(least - len(u), _BLOCK))])
        sift = u >= ctrl_prob
        packed = np.packbits(sift)
        entries, entry = [], 0
        for byte in packed.tolist():
            entries.append(entry)
            entry = _START_EXITS[byte][entry]
        starts = np.flatnonzero(np.unpackbits(_START_MASKS[packed, entries])[: len(u)])
        last = int(starts[-1])
        p = last + 2 + int(sift[last])
        if p > len(u):
            p, starts = last, starts[:-1]
        if len(starts):
            yield u[:p], starts
            rounds -= len(starts)
        u = u[p:]


def _span_thresholds(inst: _Instrument, psi: np.ndarray) -> tuple[float, float, list[float]]:
    """Thresholds (x, a, z) of a table round on inst, which leaves the live probe alone.

    The round acts on the fresh state psi of the probes it brings in, all of
    which die at that round: a CTRL round reads PLUS
    when its draw is below x; a SIFT round gives Alice bit 0 below a, then
    Bob's Z outcome 0 below z[bit] (1.0 for a bit no draw gives).  Each is
    the threshold _collapse would draw against.
    """
    a, _ = _threshold(inst.alice, psi)
    # the draw u = bit gives Alice that bit wherever some draw reaches it
    z = [
        _threshold(inst.bob_z[bit], _collapse(inst.alice, psi, bit)[1])[0] if reached else 1.0
        for bit, reached in enumerate((a > 0, a < 1))
    ]
    return _threshold(inst.bob_x, psi)[0], a, z


def _sample_table(thresholds: tuple, out: np.ndarray, ctrl_prob: float, rng):
    """Outcome codes of the next len(out) table rounds, into out.

    Every round draws against the same _span_thresholds (x, a, z), taking its
    draws from _round_draws: the choice, then one (CTRL) or two (SIFT)
    outcomes.  Each block's codes are written into out as it is drawn.
    """
    x, a, z = thresholds
    i = 0
    for u, s in _round_draws(rng, len(out), ctrl_prob):
        second, third = u[s + 1], u[np.minimum(s + 2, len(u) - 1)]
        bit = second >= a
        sift = 2 + 2 * bit + (third >= np.where(bit, z[1], z[0]))
        stop = i + len(s)
        out[i:stop] = np.where(u[s] < ctrl_prob, second >= x, sift)
        i = stop


def _sample_live(inst: _Instrument, psi, first: int, end: int, ctrl_prob: float, rng):
    """Outcome codes of rounds [first, end) on one instrument, and the live probe after them.

    Each round takes its draws from _round_draws: the choice, then one (CTRL)
    or two (SIFT) Kraus steps, each refusing a zero-weight branch; the
    live-probe norm is checked at the round's end.  A live probe of dim 2, the
    only one the built-in attacks keep, steps on Python scalars
    (_pair_collapse): floats when the instrument and psi have no nonzero
    imaginary part, as for phase_probe and cnot_parity, and complex numbers
    otherwise.  Any other dim steps through _collapse.  The live probe comes
    back as a complex array either way.
    """
    pair = len(psi) == 2
    if pair:
        step = _pair_collapse
        operands = (inst.alice, inst.bob_z, inst.bob_x, psi)
        if not any(m.imag.any() for m in operands):
            operands = tuple(m.real for m in operands)
        alice, bob_z, bob_x, psi = (m.tolist() for m in operands)
        psi = tuple(psi)
    else:
        step, (alice, bob_z, bob_x) = _collapse, inst
    codes = []
    r = first
    for block, starts in _round_draws(rng, end - first, ctrl_prob):
        u = block.tolist()
        for p in starts.tolist():
            if u[p] < ctrl_prob:
                code, psi = step(bob_x, psi, u[p + 1])
            else:
                bit, psi = step(alice, psi, u[p + 1])
                z, psi = step(bob_z[bit], psi, u[p + 2])
                code = 2 + 2 * bit + z
            codes.append(code)
            if pair:
                p0, p1 = psi
                norm = math.hypot(abs(p0), abs(p1))
            else:
                norm = math.hypot(*map(abs, psi))
            if not abs(norm - 1.0) <= NORM_ATOL:
                raise InvalidState(f"live probe norm {norm!r} deviates from 1 in round {r}")
            r += 1
    return codes, np.asarray(psi, dtype=complex)


def _measure_out(psi, dims, pos, rng) -> np.ndarray:
    """Measure subsystem pos in its computational basis; returns the rest, renormalised."""
    t = np.moveaxis(psi.reshape(dims), pos, 0).reshape(dims[pos], -1)
    weights = np.cumsum((np.abs(t) ** 2).sum(axis=1))
    k = int(np.searchsorted(weights, rng.random() * weights[-1], side="right"))
    rest = t[min(k, dims[pos] - 1)]
    return rest / np.linalg.norm(rest)


def _tensor(psi, labels: list, dims: list, factors):
    """psi ⊗ each factor in turn, with the labels and dims of the product."""
    for factor in factors:
        psi = np.outer(psi, factor.amps).reshape(-1)
        labels = [*labels, *factor.layout.labels]
        dims = [*dims, *factor.layout.dims]
    return psi, labels, dims


def _run_sampling(config: ProtocolConfig, attack: AttackSpec, rng) -> Transcript:
    """Sample each round from a compiled instrument on Eve's probes.

    Only the live probe persists between rounds, as a raw vector over labels
    and dims.  Each distinct round shape (the two gates' unitary entries and
    target positions, and the dims they act on) is compiled once into an
    _Instrument.  Probes past their last use are dropped after the span of
    rounds that used them last: all at once when no live label remains, and
    otherwise by measuring each in Z with draws from its own substream, which
    no later round can notice since nothing acts on it again.

    A table round's gates target no live label, and every label it brings in
    dies at that round.  It acts on its new probes alone, which start in
    their fresh product state, and leaves the live probe as it was; so do the
    rounds after it that follow its gate rule (AttackSpec.run_end), none of
    which touches a live label either.  _sample_table draws that span against
    the thresholds of the round's instrument on the new probes' state, read
    once per run for each such pair (explicit per-round gates make each
    round a span of its own).  A round between two uses of a persistent
    probe, as in cnot_parity's window, is a table round on no probe at all.

    Every other round acts on the live probe.  Its instrument stays fixed
    from the round up to the next live label's last use, within the round's
    gate rule, and _sample_live draws that span in one loop; a round after
    which some label is dropped is a span of its own.  Neither sampler ever
    draws past its span, so the rng ends where single draws would.

    A round's draws, weights and outcome_threshold snap are engine.measure's,
    so its outcomes are those of the dense engine, except where a draw lands
    within about 1e-16 of a threshold: a span on a live probe of dim 2 sums
    on Python scalars instead of BLAS, and a table round reads its thresholds
    off the fresh state rather than the renormalised joint one.  A dead
    probe's Z outcome follows another rule (_measure_out): one draw from
    stream 3, located by searchsorted in its cumulative weights at
    rng.random() * weights[-1], for any dim and with no snap.
    """
    codes = np.empty(config.rounds, dtype=np.int8)
    last_use: dict[str, int] = {}  # of each materialized probe label
    labels: list[str] = []
    dims: list[int] = []
    psi = np.ones(1, dtype=complex)
    materialized: set[str] = set()
    compiled: dict = {}
    thresholds: dict = {}  # of each table span's key and fresh probe state
    dead_rng = None  # built on first use: most runs never need it

    i = 0
    while i < config.rounds:
        fwd, bwd = attack.forward_gate(i), attack.backward_gate(i)
        factors = list(_new_factors(attack, i, materialized))
        new = [l for factor in factors for l in factor.layout.labels]
        last_use.update((l, attack.last_use(l, config.rounds)) for l in new)
        targets = {t for g in (fwd, bwd) if g is not None for t in g.targets}
        table = targets.isdisjoint(labels) and all(last_use[l] <= i for l in new)
        if table:
            state, on_labels, on_dims = _tensor(np.ones(1, dtype=complex), [], [], factors)
        else:
            psi, labels, dims = _tensor(psi, labels, dims, factors)
            state, on_labels, on_dims = psi, labels, dims
        positions = {label: k + 1 for k, label in enumerate(on_labels)}
        positions[TRANSIT] = 0
        key = (_gate_key(fwd, positions), _gate_key(bwd, positions), tuple(on_dims))
        inst = compiled.get(key)
        if inst is None:
            inst = compiled[key] = _compile_round(fwd, bwd, on_labels, on_dims)

        if table:
            span = (key, state.tobytes())
            if span not in thresholds:
                thresholds[span] = _span_thresholds(inst, state)
            stop = attack.run_end(i, config.rounds)
            _sample_table(thresholds[span], codes[i:stop], config.ctrl_prob, rng)
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
            codes[i:stop], psi = _sample_live(inst, psi, i, stop, config.ctrl_prob, rng)

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

    return Transcript(config=config, codes=codes)


def run_protocol(config: ProtocolConfig, attack: AttackSpec) -> Transcript:
    """Execute the quantum phase of a full N-round run.

    Returns a transcript holding one outcome code per round; in exact mode the
    codes carry only Alice's choices (measurements happen later, in the
    classical phase, on the retained final_state), while in sampling mode all
    outcomes are already recorded.
    """
    rng = stream_rng(config.seed, _STREAM_ROUNDS)
    if config.mode == MODE_EXACT:
        return _run_exact(config, attack, rng)
    return _run_sampling(config, attack, rng)


def _key_text(bits: np.ndarray) -> str:
    """An array of 0/1 bits as the text "0110..."."""
    return (bits + ord("0")).astype(np.uint8).tobytes().decode("ascii")


def _roles(transcript: Transcript) -> np.ndarray:
    """The transcript's Test mask; IncompleteTranscript before classical_phase sets it."""
    if transcript.test is None:
        raise IncompleteTranscript("the transcript has no roles; classical_phase assigns them")
    return transcript.test


def run_stats(transcript: Transcript) -> RunStats:
    """Statistics of a transcript by outcome code: a code below 2 is a Ctrl
    round, any other a Test round where test is set and a Key round elsewhere.
    Raises IncompleteTranscript when roles are unset or an outcome pending."""
    codes, test = transcript.codes, _roles(transcript)
    pending = np.flatnonzero((codes < 0) | (codes >= _PENDING_SIFT))
    if len(pending):
        raise IncompleteTranscript(f"round {pending[0]} lacks recorded outcomes")
    sift = codes >= 2
    key = sift & ~test
    alice, bob = (codes - 2) >> 1, (codes - 2) & 1
    wrong = alice != bob
    n_ctrl, n_test, n_key = len(codes) - int(sift.sum()), int(test.sum()), int(key.sum())
    ctrl_errors, test_errors = int((codes == 1).sum()), int((wrong & test).sum())
    ctrl_rate = ctrl_errors / n_ctrl if n_ctrl else 0.0
    test_rate = test_errors / n_test if n_test else 0.0
    mismatches = int((wrong & key).sum())
    threshold = transcript.config.abort_threshold
    return RunStats(
        n_ctrl=n_ctrl,
        n_test=n_test,
        n_key=n_key,
        ctrl_errors=ctrl_errors,
        test_errors=test_errors,
        ctrl_error_rate=ctrl_rate,
        test_error_rate=test_rate,
        key_alice=_key_text(alice[key]),
        key_bob=_key_text(bob[key]),
        key_mismatch_rate=mismatches / n_key if n_key else 0.0,
        aborted=bool(ctrl_rate > threshold or test_rate > threshold),
    )


def classical_phase(transcript: Transcript, rng: np.random.Generator | None = None) -> RunStats:
    """Announcement, CTRL verification, TEST sampling, and sifting.

    Every draw comes from rng, by default stream 1 of the config's seed, the
    stream the transcript header's seed reproduces.  In exact mode the stored
    qubits are measured now, in round order: Bob's memory in the X basis for
    a CTRL round, Alice's probe and then Bob's memory in the Z basis for a
    SIFT round.  Each qubit is measured out of one raw amplitude buffer by
    engine._measure_raw, the step engine.measure_out wraps: the buffer and its
    squared norm, 1.0 for the final state, go from each measurement to the
    next, so the state halves with every measurement and is never
    renormalized or wrapped in a StateVector.  The codes are those of a chain
    of measure_out calls except where a draw lands within about 1e-16 of a
    threshold.  The transcript's final_state is set to None before the first
    measurement, so each buffer is freed once the next is measured out of
    it.  SIFT rounds are then partitioned into TEST
    (test_fraction, drawn uniformly without replacement) and Key.  The
    transcript's codes are completed and its Test rounds marked in place; the
    returned stats, run_stats of the transcript, alone are what the parties
    would publish.
    """
    config = transcript.config
    codes = transcript.codes
    if rng is None:
        rng = stream_rng(config.seed, _STREAM_CLASSICAL)
    if len(codes) != config.rounds:
        raise IncompleteTranscript(f"{len(codes)} rounds for a {config.rounds}-round config")

    if config.mode == MODE_EXACT:
        if transcript.final_state is None:
            raise IncompleteTranscript("exact-mode transcript lacks its final state")
        labels = list(transcript.final_state.layout.labels)
        t, w = transcript.final_state.tensor_view(), 1.0
        transcript.final_state = None

        def measured(label: str, basis: str) -> int:
            nonlocal t, w
            axis = labels.index(label)
            del labels[axis]
            idx, _, t, w = _measure_raw(t, axis, basis, w, rng)
            return idx

        for i, code in enumerate(codes.tolist()):
            if code < 2:
                codes[i] = measured(bob_memory(i), "x")
            else:
                bit = measured(alice_probe(i), "z")
                codes[i] = 2 + 2 * bit + measured(bob_memory(i), "z")

    sift = np.flatnonzero(codes >= 2)
    n_test = int(round(config.test_fraction * len(sift)))
    test = np.zeros(len(codes), dtype=bool)
    if n_test:
        test[sift[rng.choice(len(sift), size=n_test, replace=False)]] = True
    transcript.test = test
    return run_stats(transcript)


# ---------------------------------------------------------------------------
# Transcript serialization (JSON Lines)
# ---------------------------------------------------------------------------


#: each config field's type, as config_value reads it
_CONFIG_TYPES = {f.name: f.type for f in fields(ProtocolConfig)}
#: the fields of a record line after its index, in the order it writes them
_RECORD_NAMES = ("choice", "alice_bit", "role", "bob_x_outcome", "bob_z_outcome", "error")


def _record_fields(code: int, test: int) -> tuple:
    """A record's fields after its index, from its outcome code (0..5) and Test bit."""
    if code < 2:
        x = (PLUS, MINUS)[code]
        return CTRL, None, ROLE_CTRL, x, None, x == MINUS
    bit, z = divmod(code - 2, 2)
    return SIFT, bit, ROLE_TEST if test else ROLE_KEY, None, z, bit != z if test else None


#: the line format, built once: each class's line text after the index,
#: newline included, as json.dumps writes the record, by class key 2*code
#: plus the Test bit; one class per Ctrl code and one per SIFT code on a Key
#: and on a Test round
_TAILS = {
    2 * c + t: ", " + json.dumps(dict(zip(_RECORD_NAMES, _record_fields(c, t))))[1:] + "\n"
    for c in range(_PENDING_SIFT)
    for t in (0, 1)
    if c >= 2 or not t
}
#: the reader's inverse: each tail, without its newline, to (code, Test bit)
_CLASS_OF = {t[:-1]: (k >> 1, k & 1) for k, t in _TAILS.items()}
#: whether a class key has a tail, at key + 256: an int8 code's key lies in -256..255
_HAS_TAIL = np.zeros(512, dtype=bool)
_HAS_TAIL[[k + 256 for k in _TAILS]] = True


#: rounds whose lines write_transcript builds and writes at once
_CHUNK = 1 << 16


def write_transcript(path, transcript: Transcript, attack: dict | None = None):
    """One JSON record per line, preceded by a header line with the config.

    The header is the config's fields, then attack when given; each record
    line holds _RECORD_NAMES in order, its index followed by its class's tail
    from _TAILS.  A transcript without roles, or with a round whose class has
    no tail (a code outside 0..5, a Test CTRL round), raises
    IncompleteTranscript before the file is opened.  Lines are built and
    written _CHUNK rounds at a time, so the text of a run is never held whole.
    """
    test = _roles(transcript)
    header = asdict(transcript.config)
    if attack is not None:
        header["attack"] = attack
    keys = 2 * transcript.codes.astype(np.int16) + test
    bad = np.flatnonzero(~_HAS_TAIL[keys + 256])
    if len(bad):
        i = bad[0]
        marked = " marked Test" if test[i] else ""
        raise IncompleteTranscript(f"round {i} has no line: code {transcript.codes[i]}{marked}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for start in range(0, len(keys), _CHUNK):
            chunk = keys[start : start + _CHUNK].tolist()
            fh.write("".join([f'{{"index": {i}{_TAILS[k]}' for i, k in enumerate(chunk, start)]))


def _text(n: int, raw: bytes) -> str:
    """Line n of a transcript as text, without its newline."""
    try:
        return raw.decode("utf-8").rstrip("\r\n")
    except UnicodeDecodeError as exc:
        raise IncompleteTranscript(f"line {n} is not UTF-8 text ({exc.reason})") from None


def read_transcript(path) -> tuple[dict, Transcript]:
    """Header and transcript of a file write_transcript wrote, read line by line.

    Record i must be the line written for round i: its index, then a tail
    from _TAILS; blank lines are skipped.  The transcript always has its
    Test mask.  Raises IncompleteTranscript, naming the line, for an empty
    file, a line that is not UTF-8, a header holding no valid config, any
    other record line, or more or fewer records than the header's rounds.
    """
    codes, test = array("b"), bytearray()
    with open(path, "rb") as fh:
        texts = ((n, _text(n, raw)) for n, raw in enumerate(fh, start=1))
        lines = ((n, line) for n, line in texts if line)
        n, line = next(lines, (0, None))
        if line is None:
            raise IncompleteTranscript(f"transcript {path} is empty")
        try:
            header = json.loads(line)
            values = {k: config_value(k, t, header[k]) for k, t in _CONFIG_TYPES.items()}
            config = ProtocolConfig(**values)
        except (KeyError, TypeError, ValueError, ExactCapExceeded) as exc:
            raise IncompleteTranscript(
                f"line {n}: the header holds no valid config ({type(exc).__name__}: {exc})"
            ) from None
        for i, (n, line) in zip(range(config.rounds), lines):
            head = f'{{"index": {i}'
            cls = _CLASS_OF.get(line[len(head) :]) if line.startswith(head) else None
            if cls is None:
                raise IncompleteTranscript(f"line {n} is not a line written for round {i}")
            code, bit = cls
            codes.append(code)
            test.append(bit)
        extra = next(lines, None)
    if extra is not None:
        raise IncompleteTranscript(f"line {extra[0]} is past the header's {config.rounds} rounds")
    if len(codes) < config.rounds:
        raise IncompleteTranscript(
            f"the file ends at line {n}, after {len(codes)} of {config.rounds} records"
        )
    mask = np.frombuffer(test, dtype=bool)
    return header, Transcript(config, np.frombuffer(codes, dtype=np.int8), test=mask)
