"""Eavesdropper model: one persistent probe register plus per-round unitaries.

An attack owns a probe register (labels "E0", "E1", ...) and, for each round,
a forward unitary applied on the outgoing leg and a backward unitary applied
on the returning leg.  Rounds without an entry act as identity; a default
gate, when set, covers every round that has no explicit entry, and a round
template covers round i with gates on a fresh per-round probe E_i.  Every gate
must include the transit qubit "T" among its targets (a gate that ignores the
channel is expressed as I ⊗ U on ("T", probe...)).

Probe initial states are stored as independent factors over disjoint label
sets so that per-round probes scale to large round counts; the dense joint
state is only formed on demand.
"""

import bisect
import math
from dataclasses import dataclass, field
from typing import Mapping

from . import engine
from .errors import DuplicateRound, InvalidState, ParamOutOfRange, UnknownAttack
from .engine import (
    StateVector,
    SubsystemLayout,
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
class RoundTemplate:
    """Gates of every round i < n_probes that names no explicit gate.

    At such a round i the forward and backward unitaries act on
    ("T", eve_probe(i)), a fresh probe prepared in probe's amplitudes; None
    leaves that leg untouched.  One template stands for n per-round gates and
    probe factors, so a per-round-probe attack costs O(1) to build.
    """

    probe: StateVector
    forward: Unitary | None = None
    backward: Unitary | None = None

    def __post_init__(self):
        if len(self.probe.layout.dims) != 1:
            raise InvalidState("a round template's probe must be one subsystem")
        d = 2 * self.probe.dim
        for u in (self.forward, self.backward):
            if u is not None and u.dim != d:
                raise InvalidState(f"template unitary of dim {u.dim} on (T, probe) of dim {d}")


@dataclass(frozen=True)
class AttackSpec:
    """Probe definition plus per-round forward/backward unitaries.

    Each leg of round i takes the first of: the explicit per-round entry,
    the round template (rounds below the probe count), the default gate.
    """

    name: str
    probe_dims: tuple[int, ...]
    probe_factors: tuple[StateVector, ...] = ()
    forward: Mapping[int, Gate] = field(default_factory=dict)
    backward: Mapping[int, Gate] = field(default_factory=dict)
    default_forward: Gate | None = None
    default_backward: Gate | None = None
    params: Mapping[str, float] = field(default_factory=dict)
    template: RoundTemplate | None = None

    def __post_init__(self):
        object.__setattr__(self, "forward", dict(self.forward))
        object.__setattr__(self, "backward", dict(self.backward))
        object.__setattr__(self, "params", dict(self.params))
        by_label = {}
        if self.template is None:
            object.__setattr__(self, "probe_dims", tuple(int(d) for d in self.probe_dims))
            for f in self.probe_factors:
                for l in f.layout.labels:
                    if l in by_label:
                        raise InvalidState(f"probe label {l!r} covered by two factors")
                    by_label[l] = f
            if sorted(by_label) != sorted(self.probe_labels):
                raise InvalidState("probe factors must cover the probe labels exactly once")
            dims = tuple(by_label[l].layout.dim_of(l) for l in self.probe_labels)
            if dims != self.probe_dims:
                raise InvalidState(
                    f"probe_dims {self.probe_dims} disagree with the factors' dims {dims}"
                )
        else:
            # taken as given: a template attack is built without a step per probe
            object.__setattr__(self, "probe_dims", tuple(self.probe_dims))
            if self.probe_factors:
                raise InvalidState("a round template supplies every probe factor")
            if self.default_forward is not None or self.default_backward is not None:
                raise InvalidState("a round template and default gates cannot both apply")
            if self.probe_dims != (self.template.probe.dim,) * len(self.probe_dims):
                raise InvalidState("every templated probe must have the template's dimension")
        object.__setattr__(self, "_factor_by_label", by_label)
        explicit_last: dict[str, int] = {}
        for mapping in (self.forward, self.backward):
            for i, g in mapping.items():
                for t in g.targets:
                    if t != TRANSIT and i > explicit_last.get(t, -1):
                        explicit_last[t] = i
        defaults = (self.default_forward, self.default_backward)
        default_labels = {t for g in defaults if g is not None for t in g.targets} - {TRANSIT}
        for t in [*explicit_last, *default_labels]:
            if t not in by_label and self._template_round(t) is None:
                raise InvalidState(f"gate targets unknown probe label {t!r}")
        object.__setattr__(self, "_explicit_last", explicit_last)
        object.__setattr__(self, "_default_labels", default_labels)
        # rounds whose gates may differ from their neighbours': explicit
        # entries, and template rounds whose probe an explicit gate also uses
        irregular = set(self.forward) | set(self.backward)
        irregular.update(r for r in map(self._template_round, explicit_last) if r is not None)
        object.__setattr__(self, "_irregular", frozenset(irregular))
        object.__setattr__(self, "_breaks", sorted(irregular))

    def _template_round(self, label: str) -> int | None:
        """The round whose template gates act on label, if any."""
        if self.template is None or not label.startswith("E") or not label[1:].isdigit():
            return None
        i = int(label[1:])
        return i if i < len(self.probe_dims) and label == eve_probe(i) else None

    def _template_touches(self, round_index: int) -> bool:
        """Whether the template's gates act at this round (on its own probe)."""
        t = self.template
        return (t.forward is not None and round_index not in self.forward) or (
            t.backward is not None and round_index not in self.backward
        )

    def _template_gate(self, round_index: int, unitary: Unitary | None) -> Gate | None:
        if unitary is None or not 0 <= round_index < len(self.probe_dims):
            return None
        return Gate(unitary, (TRANSIT, eve_probe(round_index)))

    @property
    def probe_labels(self) -> tuple[str, ...]:
        return tuple(eve_probe(i) for i in range(len(self.probe_dims)))

    def all_gates(self):
        gates = list(self.forward.values()) + list(self.backward.values())
        for g in (self.default_forward, self.default_backward):
            if g is not None:
                gates.append(g)
        for i in range(len(self.probe_dims) if self.template is not None else 0):
            for mapping, u in (
                (self.forward, self.template.forward),
                (self.backward, self.template.backward),
            ):
                if u is not None and i not in mapping:
                    gates.append(self._template_gate(i, u))
        return gates

    def forward_gate(self, round_index: int) -> Gate | None:
        if round_index in self.forward:
            return self.forward[round_index]
        if self.template is not None:
            return self._template_gate(round_index, self.template.forward)
        return self.default_forward

    def backward_gate(self, round_index: int) -> Gate | None:
        if round_index in self.backward:
            return self.backward[round_index]
        if self.template is not None:
            return self._template_gate(round_index, self.template.backward)
        return self.default_backward

    def run_end(self, start: int, n_rounds: int) -> int:
        """End of the run of rounds from start whose gates follow start's rule.

        Every round in [start, end) takes its gates from the same template,
        default or absent gate, on its own probe for a template, and names no
        explicit entry; an irregular start is a run of one round.
        """
        if start in self._irregular:
            return start + 1
        ends = [n_rounds]
        k = bisect.bisect_right(self._breaks, start)
        if k < len(self._breaks):
            ends.append(self._breaks[k])
        if self.template is not None and start < len(self.probe_dims):
            ends.append(len(self.probe_dims))
        return min(ends)

    def probe_factor(self, label: str) -> StateVector:
        if self._template_round(label) is not None:
            probe = self.template.probe
            return StateVector(SubsystemLayout(probe.layout.dims, (label,)), probe.amps)
        try:
            return self._factor_by_label[label]
        except KeyError:
            raise InvalidState(f"no probe factor holds label {label!r}") from None

    def probe_state(self) -> StateVector:
        """Dense joint probe state (small shared probes only)."""
        factors = self.probe_factors or [self.probe_factor(l) for l in self.probe_labels]
        state = factors[0]
        for f in factors[1:]:
            state = tensor(state, f)
        order = [l for l in self.probe_labels if l in state.layout.labels]
        return engine.permute(state, order)

    def last_use(self, label: str, n_rounds: int) -> int:
        """Index of the last round whose gates touch label; -1 if none does.

        A label covered by a default gate is last used at n_rounds - 1, and a
        template probe at its own round, or later where an explicit gate
        touches it too.
        """
        if label in self._default_labels:
            return n_rounds - 1
        last = self._explicit_last.get(label, -1)
        r = self._template_round(label)
        if r is not None and r < n_rounds and self._template_touches(r):
            last = max(last, r)
        return last

    def last_use_map(self, n_rounds: int) -> dict[str, int]:
        """last_use of every probe label some gate touches."""
        labels = set(self._explicit_last) | self._default_labels
        if self.template is not None:
            n = min(n_rounds, len(self.probe_dims))
            labels.update(eve_probe(i) for i in range(n) if self._template_touches(i))
        return {l: self.last_use(l, n_rounds) for l in labels}


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
    return AttackSpec(
        name="measure_resend_z",
        probe_dims=(2,) * n_rounds,
        template=RoundTemplate(ket_zero(eve_probe(0)), forward=cnot()),
    )


def swap_attack(n_rounds: int) -> AttackSpec:
    """Swap each transit qubit with a fresh |+> probe qubit on both legs.

    Reflected rounds come back as the original |+>, so CTRL sees nothing,
    while sifted rounds return |+> in place of Alice's basis state and the
    probe keeps her bit.
    """
    exchange = swap_gate()
    return AttackSpec(
        name="swap",
        probe_dims=(2,) * n_rounds,
        template=RoundTemplate(ket_plus(eve_probe(0)), forward=exchange, backward=exchange),
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
