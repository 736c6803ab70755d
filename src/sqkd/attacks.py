"""Eavesdropper model: one persistent probe register plus per-round unitaries.

An attack owns a probe register (labels "E0", "E1", ...) and, for each round,
a forward unitary applied on the outgoing leg and a backward unitary applied
on the returning leg.  Rounds without an entry act as identity; a default
gate, when set, covers every round that has no explicit entry.  Every gate
must include the transit qubit "T" among its targets (a gate that ignores the
channel is expressed as I ⊗ U on ("T", probe...)).

Probe initial states are stored as independent factors over disjoint label
sets so that per-round probes scale to large round counts; the dense joint
state is only formed on demand.
"""

import math
from dataclasses import dataclass, field
from typing import Mapping

from . import engine
from .errors import DuplicateRound, InvalidState, ParamOutOfRange, UnknownAttack
from .engine import (
    StateVector,
    TRANSIT,
    Unitary,
    cnot,
    controlled,
    eve_probe,
    ket_plus,
    ket_zero,
    rotation,
    swap_gate,
    tensor,
    trivial_state,
)


@dataclass(frozen=True)
class Gate:
    """A unitary bound to an ordered tuple of target labels."""

    unitary: Unitary
    targets: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        if len(set(self.targets)) != len(self.targets):
            raise InvalidState(f"repeated gate targets: {self.targets}")
        if TRANSIT not in self.targets:
            raise InvalidState(
                f"every attack gate must target the transit qubit, got {self.targets}"
            )


@dataclass(frozen=True)
class AttackSpec:
    """Probe definition plus per-round forward/backward unitaries."""

    name: str
    probe_dims: tuple[int, ...]
    probe_factors: tuple[StateVector, ...]
    forward: Mapping[int, Gate] = field(default_factory=dict)
    backward: Mapping[int, Gate] = field(default_factory=dict)
    default_forward: Gate | None = None
    default_backward: Gate | None = None
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "probe_dims", tuple(int(d) for d in self.probe_dims))
        object.__setattr__(self, "forward", dict(self.forward))
        object.__setattr__(self, "backward", dict(self.backward))
        object.__setattr__(self, "params", dict(self.params))
        labels = self.probe_labels
        by_label = {}
        for f in self.probe_factors:
            for l in f.layout.labels:
                if l in by_label:
                    raise InvalidState(f"probe label {l!r} covered by two factors")
                by_label[l] = f
        if sorted(by_label) != sorted(labels):
            raise InvalidState("probe factors must cover the probe labels exactly once")
        object.__setattr__(self, "_factor_by_label", by_label)
        for gate in self.all_gates():
            for t in gate.targets:
                if t == TRANSIT:
                    continue
                if t not in by_label:
                    raise InvalidState(f"gate targets unknown probe label {t!r}")

    @property
    def probe_labels(self) -> tuple[str, ...]:
        return tuple(eve_probe(i) for i in range(len(self.probe_dims)))

    def all_gates(self):
        gates = list(self.forward.values()) + list(self.backward.values())
        for g in (self.default_forward, self.default_backward):
            if g is not None:
                gates.append(g)
        return gates

    def forward_gate(self, round_index: int) -> Gate | None:
        return self.forward.get(round_index, self.default_forward)

    def backward_gate(self, round_index: int) -> Gate | None:
        return self.backward.get(round_index, self.default_backward)

    def probe_factor(self, label: str) -> StateVector:
        try:
            return self._factor_by_label[label]
        except KeyError:
            raise InvalidState(f"no probe factor holds label {label!r}") from None

    def probe_state(self) -> StateVector:
        """Dense joint probe state (small shared probes only)."""
        state = self.probe_factors[0]
        for f in self.probe_factors[1:]:
            state = tensor(state, f)
        order = [l for l in self.probe_labels if l in state.layout.labels]
        return engine.permute(state, order)

    def last_use_map(self, n_rounds: int) -> dict[str, int]:
        """Per-probe-label index of the last round whose gates touch it.

        Labels covered by a default gate map to n_rounds - 1; untouched
        labels are absent.
        """
        last: dict[str, int] = {}
        for mapping in (self.forward, self.backward):
            for i, g in mapping.items():
                for t in g.targets:
                    if t != TRANSIT and i > last.get(t, -1):
                        last[t] = i
        for g in (self.default_forward, self.default_backward):
            if g is not None:
                for t in g.targets:
                    if t != TRANSIT:
                        last[t] = n_rounds - 1
        return last


# ---------------------------------------------------------------------------
# Attack library
# ---------------------------------------------------------------------------


def identity_attack() -> AttackSpec:
    """Eve does nothing: a dimension-1 placeholder probe, no gates."""
    return AttackSpec(
        name="identity",
        probe_dims=(1,),
        probe_factors=(trivial_state(eve_probe(0)),),
    )


def cnot_parity_attack(rounds: tuple[int, int] = (0, 1)) -> AttackSpec:
    """Accumulate the parity of two transit qubits into one probe qubit.

    At each of the two named rounds the incoming qubit acts as the control of
    a CNOT onto the shared probe; the returning leg is untouched.
    """
    r0, r1 = int(rounds[0]), int(rounds[1])
    if min(r0, r1) < 0:
        raise ParamOutOfRange(f"attacked rounds must be >= 0, got {rounds}")
    if r0 == r1:
        raise DuplicateRound(f"the two attacked rounds must differ, got {rounds}")
    gate = Gate(cnot(), (TRANSIT, eve_probe(0)))
    return AttackSpec(
        name="cnot_parity",
        probe_dims=(2,),
        probe_factors=(ket_zero(eve_probe(0)),),
        forward={r0: gate, r1: gate},
        params={"round_a": float(r0), "round_b": float(r1)},
    )


def measure_resend_z_attack(n_rounds: int) -> AttackSpec:
    """Copy each transit qubit's Z value into a fresh probe qubit.

    Equivalent, by deferred measurement, to intercepting every qubit on the
    outgoing leg, measuring it in the computational basis, and resending the
    observed basis state.
    """
    dims = (2,) * n_rounds
    factors = tuple(ket_zero(eve_probe(i)) for i in range(n_rounds))
    copy = cnot()
    forward = {i: Gate(copy, (TRANSIT, eve_probe(i))) for i in range(n_rounds)}
    return AttackSpec(
        name="measure_resend_z",
        probe_dims=dims,
        probe_factors=factors,
        forward=forward,
    )


def swap_attack(n_rounds: int) -> AttackSpec:
    """Swap each transit qubit with a fresh |+> probe qubit on both legs.

    Reflected rounds come back as the original |+>, so CTRL sees nothing,
    while sifted rounds return |+> in place of Alice's basis state and the
    probe keeps her bit.
    """
    dims = (2,) * n_rounds
    factors = tuple(ket_plus(eve_probe(i)) for i in range(n_rounds))
    exchange = swap_gate()
    gates = {i: Gate(exchange, (TRANSIT, eve_probe(i))) for i in range(n_rounds)}
    return AttackSpec(
        name="swap",
        probe_dims=dims,
        probe_factors=factors,
        forward=gates,
        backward=dict(gates),
    )


def phase_probe_attack(theta: float) -> AttackSpec:
    """Rotate a shared probe qubit by theta whenever the transit qubit is |1>.

    The controlled rotation acts on the outgoing leg of every round; theta=0
    reduces to the identity attack.
    """
    theta = float(theta)
    if not 0.0 <= theta <= math.pi:
        raise ParamOutOfRange(f"theta must lie in [0, pi], got {theta}")
    gate = Gate(controlled(rotation(theta)), (TRANSIT, eve_probe(0)))
    return AttackSpec(
        name="phase_probe",
        probe_dims=(2,),
        probe_factors=(ket_zero(eve_probe(0)),),
        default_forward=gate,
        params={"theta": theta},
    )


ATTACK_NAMES = ("identity", "cnot_parity", "measure_resend_z", "swap", "phase_probe")

#: the parameters each attack takes; attacks not listed take none
_ATTACK_PARAMS = {"phase_probe": ("theta",)}


def build_attack(
    name: str,
    params: Mapping[str, float] | None = None,
    n_rounds: int = 1,
    rounds: tuple[int, int] | None = None,
) -> AttackSpec:
    """Construct a registered attack by name.

    n_rounds sizes the probe register of the per-round attacks; rounds picks
    the attacked pair for cnot_parity.
    """
    params = dict(params or {})
    if name not in ATTACK_NAMES:
        raise UnknownAttack(f"no attack named {name!r}; known: {', '.join(ATTACK_NAMES)}")
    unknown = sorted(set(params) - set(_ATTACK_PARAMS.get(name, ())))
    if unknown:
        raise ParamOutOfRange(f"attack {name!r} takes no parameter {', '.join(unknown)}")
    if name == "identity":
        return identity_attack()
    if name == "cnot_parity":
        return cnot_parity_attack(rounds if rounds is not None else (0, 1))
    if name == "measure_resend_z":
        return measure_resend_z_attack(n_rounds)
    if name == "swap":
        return swap_attack(n_rounds)
    if "theta" not in params:
        raise ParamOutOfRange("phase_probe requires a theta parameter")
    return phase_probe_attack(params["theta"])
