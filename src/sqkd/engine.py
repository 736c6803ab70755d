"""Dense statevector and density-matrix kernel for labeled composite systems.

States live over an ordered list of subsystems of arbitrary finite dimension,
each identified by a unique string label ("T" for the transit qubit, "B3" for
the fourth qubit in Bob's memory, and so on).  Amplitude ordering is row-major
over the subsystem list: the first label is the most significant index.

All values are immutable after construction and every operation returns a new
value, so states can be shared freely.  Tolerances: state norm 1e-10;
unitarity/Hermiticity/trace 1e-9.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateLabel,
    EmptyKeepSet,
    FactorizationError,
    IndexOutOfRange,
    InvalidState,
    NonQubitTarget,
    UnknownLabel,
)

NORM_ATOL = 1e-10
MATRIX_ATOL = 1e-9

PLUS = "plus"
MINUS = "minus"

TRANSIT = "T"


def bob_memory(i: int) -> str:
    return f"B{i}"


def alice_probe(i: int) -> str:
    return f"A{i}"


def eve_probe(i: int) -> str:
    return f"E{i}"


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=complex)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SubsystemLayout:
    """Ordered subsystem dimensions with unique labels."""

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.dims) != len(self.labels):
            raise DimensionMismatch(
                f"{len(self.dims)} dims but {len(self.labels)} labels"
            )
        if any(d < 1 for d in self.dims):
            raise DimensionMismatch(f"subsystem dimensions must be >= 1: {self.dims}")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLabel(f"labels not unique: {self.labels}")

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabel(f"label {label!r} not in layout {self.labels}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.index(label)]

    def relabeled(self, old: str, new: str) -> "SubsystemLayout":
        i = self.index(old)
        if new in self.labels and new != old:
            raise DuplicateLabel(f"label {new!r} already present")
        labels = list(self.labels)
        labels[i] = new
        return SubsystemLayout(self.dims, tuple(labels))


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector over a subsystem layout."""

    layout: SubsystemLayout
    amps: np.ndarray

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amps).reshape(-1))
        object.__setattr__(self, "amps", amps)
        if amps.shape[0] != self.layout.dim:
            raise DimensionMismatch(
                f"{amps.shape[0]} amplitudes for layout of dimension {self.layout.dim}"
            )
        norm = math.sqrt(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > NORM_ATOL:
            raise InvalidState(f"state norm {norm!r} deviates from 1 beyond {NORM_ATOL}")

    @property
    def dim(self) -> int:
        return self.layout.dim

    def tensor_view(self) -> np.ndarray:
        return self.amps.reshape(self.layout.dims)


@dataclass(frozen=True)
class SubnormalizedVector:
    """Unnormalized branch of a state, carrying its Born weight."""

    layout: SubsystemLayout
    amps: np.ndarray
    weight: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amps).reshape(-1))
        object.__setattr__(self, "amps", amps)
        if amps.shape[0] != self.layout.dim:
            raise DimensionMismatch(
                f"{amps.shape[0]} amplitudes for layout of dimension {self.layout.dim}"
            )
        w = float(np.vdot(amps, amps).real)
        if self.weight is None:
            object.__setattr__(self, "weight", w)
        elif abs(self.weight - w) > NORM_ATOL:
            raise InvalidState(f"declared weight {self.weight} != squared norm {w}")
        if not -NORM_ATOL <= self.weight <= 1 + NORM_ATOL:
            raise InvalidState(f"branch weight {self.weight} outside [0, 1]")

    def normalized(self) -> StateVector:
        if self.weight <= 0:
            raise InvalidState("cannot normalize a zero-weight branch")
        return StateVector(self.layout, self.amps / math.sqrt(self.weight))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, trace-1 matrix.

    eigenvalues holds the spectrum of its Hermitian part, computed once by
    the PSD check.
    """

    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
        object.__setattr__(self, "entries", _frozen(m))
        if np.abs(m - m.conj().T).max() > MATRIX_ATOL:
            raise InvalidState("matrix is not Hermitian within tolerance")
        tr = np.trace(m).real
        if abs(tr - 1.0) > MATRIX_ATOL:
            raise InvalidState(f"trace {tr} deviates from 1 beyond {MATRIX_ATOL}")
        evals = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if evals.min() < -MATRIX_ATOL:
            raise InvalidState("matrix has an eigenvalue below -tolerance")
        object.__setattr__(self, "eigenvalues", evals)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @staticmethod
    def from_state(psi: StateVector | SubnormalizedVector) -> "DensityMatrix":
        amps = psi.amps
        if isinstance(psi, SubnormalizedVector):
            amps = psi.normalized().amps
        return DensityMatrix(np.outer(amps, amps.conj()))


@dataclass(frozen=True)
class Unitary:
    """Square matrix with U†U = I within tolerance."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"unitary must be square, got {m.shape}")
        object.__setattr__(self, "entries", _frozen(m))
        d = m.shape[0]
        defect = np.linalg.norm(m.conj().T @ m - np.eye(d))
        if defect > MATRIX_ATOL:
            raise InvalidState(f"U†U deviates from I by {defect} (Frobenius)")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


# ---------------------------------------------------------------------------
# State constructors
# ---------------------------------------------------------------------------


def single(label: str, amps, dim: int | None = None) -> StateVector:
    """One-subsystem state from raw amplitudes."""
    amps = np.asarray(amps, dtype=complex).reshape(-1)
    d = dim if dim is not None else amps.shape[0]
    return StateVector(SubsystemLayout((d,), (label,)), amps)


def ket_zero(label: str) -> StateVector:
    return single(label, [1, 0])


def ket_one(label: str) -> StateVector:
    return single(label, [0, 1])


def ket_plus(label: str) -> StateVector:
    return single(label, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def ket_minus(label: str) -> StateVector:
    return single(label, [1 / math.sqrt(2), -1 / math.sqrt(2)])


def basis_state(layout: SubsystemLayout, index: int) -> StateVector:
    amps = np.zeros(layout.dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(layout, amps)


def trivial_state(label: str) -> StateVector:
    """Dimension-1 placeholder subsystem."""
    return single(label, [1], dim=1)


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def hadamard() -> Unitary:
    return Unitary(_H)


def identity_gate(dim: int = 2) -> Unitary:
    return Unitary(np.eye(dim, dtype=complex))


def cnot() -> Unitary:
    """Controlled NOT; the first target label is the control."""
    m = np.eye(4, dtype=complex)
    m[[2, 3]] = m[[3, 2]]
    return Unitary(m)


def swap_gate() -> Unitary:
    m = np.eye(4, dtype=complex)
    m[[1, 2]] = m[[2, 1]]
    return Unitary(m)


def rotation(theta: float) -> Unitary:
    """Real qubit rotation with R(theta)|0> = cos(theta)|0> + sin(theta)|1>."""
    c, s = math.cos(theta), math.sin(theta)
    return Unitary(np.array([[c, -s], [s, c]], dtype=complex))


def controlled(u: Unitary) -> Unitary:
    """|0><0| ⊗ I + |1><1| ⊗ u; the first target label is the control."""
    d = u.dim
    m = np.eye(2 * d, dtype=complex)
    m[d:, d:] = u.entries
    return Unitary(m)


def phase_gate(phi: float) -> Unitary:
    return Unitary(np.diag([1.0, np.exp(1j * phi)]))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; b's subsystems are appended after a's."""
    overlap = set(a.layout.labels) & set(b.layout.labels)
    if overlap:
        raise DuplicateLabel(f"label sets intersect: {sorted(overlap)}")
    layout = SubsystemLayout(a.layout.dims + b.layout.dims, a.layout.labels + b.layout.labels)
    return StateVector(layout, np.kron(a.amps, b.amps))


def apply_unitary(psi, u: Unitary, targets):
    """Apply u on the listed target subsystems, identity elsewhere.

    The target order defines the operator's index convention (e.g. for cnot()
    the first target is the control).  Accepts a StateVector or an
    unnormalized branch and returns the same kind; the weight is preserved.
    """
    positions = [psi.layout.index(t) for t in targets]
    t = apply_on_axes(psi.amps.reshape(psi.layout.dims), u, positions)
    if isinstance(psi, SubnormalizedVector):
        return SubnormalizedVector(psi.layout, t.reshape(-1))
    return StateVector(psi.layout, t.reshape(-1))


def apply_on_axes(t: np.ndarray, u: Unitary, positions) -> np.ndarray:
    """u on the axes of tensor t at positions, in u's index order.

    Axes not listed, trailing ones included, are left as they are, so a
    trailing column axis applies u to every column at once.
    """
    positions = list(positions)
    d_targets = math.prod(t.shape[p] for p in positions)
    if u.dim != d_targets:
        raise DimensionMismatch(
            f"operator dim {u.dim} != product of target dims {d_targets}"
        )
    t = np.moveaxis(t, positions, range(len(positions)))
    moved_shape = t.shape
    t = u.entries @ t.reshape(d_targets, -1)
    return np.moveaxis(t.reshape(moved_shape), range(len(positions)), positions)


def _weight(amps: np.ndarray) -> float:
    """Squared norm of an amplitude array; floating-point dust snaps to exact 0."""
    w = float(np.linalg.norm(amps) ** 2)
    return w if w > 1e-24 else 0.0


def _front(psi, labels) -> np.ndarray:
    """Amplitude tensor with the named subsystems moved to the front.

    The named subsystems keep one axis each, in the given order; the others
    follow in layout order, flattened into one trailing axis.
    """
    dims = psi.layout.dims
    positions = [psi.layout.index(l) for l in labels]
    rest = [i for i in range(len(dims)) if i not in positions]
    t = np.transpose(psi.amps.reshape(dims), positions + rest)
    return t.reshape(*(dims[p] for p in positions), -1)


def outcome_threshold(w0: float) -> float:
    """Outcome 0's Born weight w0 as draw_outcome compares it to a uniform draw.

    w0 is clamped to [0, 1], and weights within 1e-12 of 0 or 1 are snapped
    so that deterministic outcomes are exact.
    """
    w0 = min(max(w0, 0.0), 1.0)
    if w0 > 1 - 1e-12:
        return 1.0
    if w0 < 1e-12:
        return 0.0
    return w0


def draw_outcome(w0: float, rng: np.random.Generator) -> tuple[int, float]:
    """Draw a two-outcome measurement whose outcome 0 has Born weight w0.

    Returns (outcome, prob) from one rng.random() draw: outcome 0 when the
    draw falls below outcome_threshold(w0).
    """
    w0 = outcome_threshold(w0)
    idx = 0 if rng.random() < w0 else 1
    return idx, (w0 if idx == 0 else 1.0 - w0)


def project(psi, target: str, basis_state: int) -> SubnormalizedVector:
    """Unnormalized branch with the target collapsed in place.

    The layout is unchanged: the target subsystem remains, left in the
    projected basis state.  The weight is the Born probability of that
    outcome (times the incoming weight when given an unnormalized branch,
    so chained projections accumulate joint probabilities).
    """
    pos = psi.layout.index(target)
    d = psi.layout.dims[pos]
    if not 0 <= basis_state < d:
        raise IndexOutOfRange(f"basis state {basis_state} for dimension-{d} subsystem")
    t = np.moveaxis(psi.amps.reshape(psi.layout.dims), pos, 0)
    out = np.zeros_like(t)
    out[basis_state] = t[basis_state]
    out = np.moveaxis(out, 0, pos)
    return SubnormalizedVector(psi.layout, out.reshape(-1))


def measure_out(psi: StateVector, target: str, basis: str, rng: np.random.Generator):
    """Projectively measure a qubit subsystem in the Z or X basis and drop it.

    Returns (outcome, rest, prob) where outcome is 0/1 for Z and
    "plus"/"minus" for X, rest is the renormalized state of the other
    subsystems, in layout order, and prob is the Born probability of the
    reported outcome, drawn by draw_outcome.
    """
    basis = basis.lower()
    if basis not in ("z", "x"):
        raise ValueError(f"basis must be 'z' or 'x', got {basis!r}")
    if psi.layout.dim_of(target) != 2:
        raise NonQubitTarget(f"target {target!r} has dimension != 2")
    t = _front(psi, [target])
    if basis == "x":
        t = _H @ t
    idx, prob = draw_outcome(_weight(t[0]), rng)
    rest = t[idx]
    w = float(np.vdot(rest, rest).real)
    if w <= 0:
        raise InvalidState("cannot normalize a zero-weight branch")
    pos = psi.layout.index(target)
    layout = SubsystemLayout(
        psi.layout.dims[:pos] + psi.layout.dims[pos + 1 :],
        psi.layout.labels[:pos] + psi.layout.labels[pos + 1 :],
    )
    outcome = (PLUS if idx == 0 else MINUS) if basis == "x" else idx
    return outcome, StateVector(layout, rest / math.sqrt(w)), prob


def measure(psi: StateVector, target: str, basis: str, rng: np.random.Generator):
    """Projectively measure a qubit subsystem in the Z or X basis.

    Returns (outcome, collapsed, prob) as measure_out does, except that
    collapsed keeps the layout: the target is put back, at its position, in
    the measured basis state |k> or |±>.
    """
    outcome, rest, prob = measure_out(psi, target, basis, rng)
    if basis.lower() == "x":
        ket = _H[:, int(outcome == MINUS)]
    else:
        ket = np.eye(2)[outcome]
    pos = psi.layout.index(target)
    t = np.outer(ket, rest.amps).reshape(2, *rest.layout.dims)
    return outcome, StateVector(psi.layout, np.moveaxis(t, 0, pos)), prob


def partial_trace(state: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix over the kept subsystems, in layout order."""
    keep = list(keep)
    if not keep:
        raise EmptyKeepSet("must keep at least one subsystem")
    labels = sorted(set(keep), key=state.layout.index)
    if len(labels) != len(keep):
        raise DuplicateLabel(f"repeated labels in keep set: {keep}")
    m = _front(state, labels)
    m = m.reshape(-1, m.shape[-1])
    return DensityMatrix(m @ m.conj().T)


def trace_distance(r1: DensityMatrix, r2: DensityMatrix) -> float:
    """(1/2)·Σ|eigenvalues(r1 − r2)|, in [0, 1].

    The operands are taken in a fixed order, by their bytes, so the result
    is exactly symmetric despite eigensolver round-off.
    """
    if r1.dim != r2.dim:
        raise DimensionMismatch(f"dims {r1.dim} and {r2.dim} differ")
    a, b = sorted((r1.entries, r2.entries), key=lambda m: m.tobytes())
    d = a - b
    evals = np.linalg.eigvalsh((d + d.conj().T) / 2)
    return min(max(float(np.abs(evals).sum()) / 2, 0.0), 1.0)


def purity(rho: DensityMatrix) -> float:
    """trace(rho²), in [1/dim, 1]."""
    return float(np.trace(rho.entries @ rho.entries).real)


def permute(psi: StateVector, new_order) -> StateVector:
    """Reorder subsystems to the given label order."""
    new_order = list(new_order)
    if sorted(new_order) != sorted(psi.layout.labels):
        raise UnknownLabel(
            f"new order {new_order} is not a permutation of {psi.layout.labels}"
        )
    positions = [psi.layout.index(l) for l in new_order]
    t = np.transpose(psi.tensor_view(), positions)
    layout = SubsystemLayout(
        tuple(psi.layout.dims[p] for p in positions), tuple(new_order)
    )
    return StateVector(layout, t.reshape(-1))


def factor_out(psi: StateVector, label: str) -> tuple[StateVector, StateVector]:
    """Split a product state into (factor over label, rest).

    Raises FactorizationError if the subsystem is entangled with the rest
    (reduced purity below 1 - 1e-9).
    """
    if len(psi.layout.labels) < 2:
        raise FactorizationError("cannot factor the only subsystem out")
    pos = psi.layout.index(label)
    t = np.moveaxis(psi.tensor_view(), pos, 0)
    d = psi.layout.dims[pos]
    m = t.reshape(d, -1)
    rho = m @ m.conj().T
    if np.trace(rho @ rho).real < 1 - MATRIX_ATOL:
        raise FactorizationError(f"subsystem {label!r} is entangled with the rest")
    evals, evecs = np.linalg.eigh(rho)
    phi = evecs[:, -1]
    rest_amps = phi.conj() @ m
    rest_amps = rest_amps / np.linalg.norm(rest_amps)
    rest_dims = tuple(dd for i, dd in enumerate(psi.layout.dims) if i != pos)
    rest_labels = tuple(ll for i, ll in enumerate(psi.layout.labels) if i != pos)
    return (
        single(label, phi, dim=d),
        StateVector(SubsystemLayout(rest_dims, rest_labels), rest_amps),
    )


# ---------------------------------------------------------------------------
# Random generators (test and attack-sampling support)
# ---------------------------------------------------------------------------


def random_state(layout: SubsystemLayout, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=layout.dim) + 1j * rng.normal(size=layout.dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


def random_unitary(dim: int, rng: np.random.Generator) -> Unitary:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return Unitary(q * (d / np.abs(d)))


def phase_deviation(a: StateVector, b: StateVector) -> float:
    """Max componentwise modulus of (b - e^{iφ}·a) at the best global phase φ."""
    if a.layout != b.layout:
        raise DimensionMismatch("states live on different layouts")
    ov = np.vdot(a.amps, b.amps)
    phase = ov / abs(ov) if abs(ov) > 1e-15 else 1.0
    return float(np.abs(b.amps - phase * a.amps).max())
