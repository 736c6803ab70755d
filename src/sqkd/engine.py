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
        if not abs(norm - 1.0) <= NORM_ATOL:
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
    weight: float = field(init=False)

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amps).reshape(-1))
        object.__setattr__(self, "amps", amps)
        if amps.shape[0] != self.layout.dim:
            raise DimensionMismatch(
                f"{amps.shape[0]} amplitudes for layout of dimension {self.layout.dim}"
            )
        object.__setattr__(self, "weight", float(np.vdot(amps, amps).real))
        if not -NORM_ATOL <= self.weight <= 1 + NORM_ATOL:
            raise InvalidState(f"branch weight {self.weight} outside [0, 1]")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, trace-1 matrix.

    eigenvalues holds the spectrum of its Hermitian part, computed once by
    the PSD check (check_densities on a stack of one).
    """

    entries: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
        object.__setattr__(self, "entries", _frozen(m))
        object.__setattr__(self, "eigenvalues", check_densities(m[None])[0])

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


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
        if not defect <= MATRIX_ATOL:
            raise InvalidState(f"U†U deviates from I by {defect} (Frobenius)")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


# ---------------------------------------------------------------------------
# State constructors
# ---------------------------------------------------------------------------


def single(label: str, amps) -> StateVector:
    """One-subsystem state from raw amplitudes."""
    amps = np.asarray(amps, dtype=complex).reshape(-1)
    return StateVector(SubsystemLayout((amps.shape[0],), (label,)), amps)


def ket_zero(label: str) -> StateVector:
    return single(label, [1, 0])


def ket_plus(label: str) -> StateVector:
    return single(label, [1 / math.sqrt(2), 1 / math.sqrt(2)])


def trivial_state(label: str) -> StateVector:
    """Dimension-1 placeholder subsystem."""
    return single(label, [1])


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

#: most columns one matrix product of a _blocks walk takes
_BLOCK_COLUMNS = 1 << 14
#: BLAS gemm computes a product's columns in groups of this many; the last
#: few columns go through narrower kernels that round apart from the groups,
#: so a product is cut into blocks only at multiples of it
_GEMM_GRAIN = 4


def hadamard() -> Unitary:
    return Unitary(_H)


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


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Kronecker product; b's subsystems are appended after a's.

    The amplitudes are the outer product of a's and b's, flattened: each
    entry is the one product np.kron takes, at a fraction of its cost.
    """
    overlap = set(a.layout.labels) & set(b.layout.labels)
    if overlap:
        raise DuplicateLabel(f"label sets intersect: {sorted(overlap)}")
    layout = SubsystemLayout(a.layout.dims + b.layout.dims, a.layout.labels + b.layout.labels)
    return StateVector(layout, np.multiply.outer(a.amps, b.amps).reshape(-1))


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


def apply_on_axes(
    t: np.ndarray, u: Unitary, positions, out: np.ndarray | None = None
) -> np.ndarray:
    """u on the axes of tensor t at positions, in u's index order, written into out.

    Axes not listed, trailing ones included, are left as they are, so a
    trailing column axis applies u to every column at once.  out has t's
    shape and may be t itself; it is allocated when None.  With the target
    axes moved to the front (one transpose view of each), each block _blocks
    yields is one u.entries @ block product written into out, so nothing the
    size of t is held beside out, and every column rounds as in one product
    over all.
    """
    positions = list(positions)
    d_targets = math.prod(t.shape[p] for p in positions)
    if u.dim != d_targets:
        raise DimensionMismatch(
            f"operator dim {u.dim} != product of target dims {d_targets}"
        )
    if out is None:
        out = np.empty(t.shape, dtype=complex)
    k = len(positions)
    order = positions + [a for a in range(t.ndim) if a not in positions]
    src, dst = t.transpose(order), out.transpose(order)
    for index in _blocks(src, k):
        block = src[index]
        dst[index] = (u.entries @ block.reshape(d_targets, -1)).reshape(block.shape)
    return out


def _blocks(src: np.ndarray, k: int):
    """Indices of the blocks a product on src's first k axes is cut into.

    The next axes are walked until a block holds at most _BLOCK_COLUMNS
    columns, but never cut below a multiple of _GEMM_GRAIN columns, so every
    column rounds as in one product over all of them.
    """
    rest = src.shape[k:]
    lead, cols = 0, math.prod(rest)
    while cols > _BLOCK_COLUMNS and cols // rest[lead] % _GEMM_GRAIN == 0:
        cols //= rest[lead]
        lead += 1
    targets = (slice(None),) * k
    for index in np.ndindex(*rest[:lead]):
        yield targets + index


#: most entries one BLAS dot of _norm takes: OpenBLAS splits a longer dot
#: across threads, and its sum then depends on the thread count
_DOT_ENTRIES = 10_000


def _norm(amps: np.ndarray) -> float:
    """2-norm of an amplitude array, summed in fixed chunks of _DOT_ENTRIES.

    Each chunk is summed as np.linalg.norm sums: the dot of its real parts
    plus that of its imaginary parts.  Up to _DOT_ENTRIES entries the result
    is np.linalg.norm's; beyond, the chunks' sums are added in order, so the
    bits do not depend on the BLAS thread count.
    """
    x = amps.ravel(order="K")
    re, im = x.real, x.imag
    sq = 0.0
    for s in range(0, len(x), _DOT_ENTRIES):
        r, i = re[s : s + _DOT_ENTRIES], im[s : s + _DOT_ENTRIES]
        sq += r.dot(r) + i.dot(i)
    return math.sqrt(sq)


def _weight(amps: np.ndarray) -> float:
    """Squared norm of an amplitude array (_norm); floating-point dust snaps to exact 0."""
    w = _norm(amps) ** 2
    return w if w > 1e-24 else 0.0


def _front(psi, labels) -> np.ndarray:
    """View of the amplitude tensor with the named subsystems' axes first.

    The named axes come in the given order and the others follow in layout
    order, one axis each; nothing is copied, so a reader flattens only the
    slice it reads.
    """
    dims = psi.layout.dims
    positions = [psi.layout.index(l) for l in labels]
    rest = [i for i in range(len(dims)) if i not in positions]
    return psi.amps.reshape(dims).transpose(positions + rest)


def outcome_threshold(w0: float) -> float:
    """Outcome 0's Born weight w0 as draw_outcome compares it to a uniform draw.

    Weights within 1e-12 of 0 or 1, and any beyond them, are snapped to 0 or
    1 so that deterministic outcomes are exact; the snaps alone keep the
    result in [0, 1] for any w0 but NaN, which is returned as it is.
    """
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
    t = _front(psi, [target])
    d = t.shape[0]
    if not 0 <= basis_state < d:
        raise IndexOutOfRange(f"basis state {basis_state} for dimension-{d} subsystem")
    out = np.zeros_like(t)  # laid out as psi is, so ravel("K") reads it in layout order
    out[basis_state] = t[basis_state]
    return SubnormalizedVector(psi.layout, out.ravel(order="K"))


def _half(t: np.ndarray, axis: int, k: int, basis: str) -> np.ndarray:
    """Outcome k's half of qubit axis `axis` of t, as a new contiguous array.

    In Z it is slice k of that axis.  In X it is row k of _H applied on that
    axis.  When the columns after the axis number a multiple of _GEMM_GRAIN
    and no fewer than the leading indices, each leading index's (2, cols)
    slice is multiplied where it lies: one matmul takes as many leading
    indices as fit in _BLOCK_COLUMNS columns (rounded down to the grain), or
    one index's columns cut to that width.  Otherwise, where that would take
    many small products, they go over the blocks _blocks walks on the
    axis-first view, gathering a block when the axis is not first.  Every
    cut falls on a multiple of _GEMM_GRAIN columns, so every entry has the
    bits of the full product's.
    """
    if basis == "z":
        return t[(slice(None),) * axis + (k,)].copy()
    shape = t.shape[:axis] + t.shape[axis + 1 :]
    out = np.empty(shape, dtype=complex)
    lead = math.prod(t.shape[:axis])
    cols = out.size // lead
    if cols % _GEMM_GRAIN == 0 and cols >= lead:
        src, dst = t.reshape(lead, 2, cols), out.reshape(lead, cols)
        step = max(_BLOCK_COLUMNS - _BLOCK_COLUMNS % _GEMM_GRAIN, _GEMM_GRAIN)
        group = max(step // cols, 1)
        for i in range(0, lead, group):
            for c in range(0, cols, step):
                dst[i : i + group, c : c + step] = (_H @ src[i : i + group, :, c : c + step])[:, k]
        return out
    src = t.transpose(axis, *range(axis), *range(axis + 1, t.ndim))
    for index in _blocks(src, 1):
        block = src[index]
        out[index[1:]] = (_H @ block.reshape(2, -1))[k].reshape(block.shape[1:])
    return out


def _measure_raw(t: np.ndarray, axis: int, basis: str, w: float, rng: np.random.Generator):
    """Measure qubit axis `axis` of an unnormalized amplitude tensor t in Z or X and drop it.

    w is t's squared norm.  Returns (idx, prob, half, w_half): outcome idx
    (0 for |0> or |+>) and its probability, drawn by draw_outcome against
    _weight(outcome 0's half) / w; the kept half, t without the axis, not
    renormalized; and its squared norm (_weight).  Beside t, only one half is
    held at a time: outcome 0's is built first, since its weight needs it,
    and outcome 1's only when drawn, after the first is released.  Raises
    InvalidState when the kept half has zero weight.
    """
    half = _half(t, axis, 0, basis)
    w_half = _weight(half)
    idx, prob = draw_outcome(w_half / w, rng)
    if idx:
        del half
        half = _half(t, axis, 1, basis)
        w_half = _weight(half)
    if w_half <= 0:
        raise InvalidState("cannot keep a zero-weight branch")
    return idx, prob, half, w_half


def measure_out(psi: StateVector, target: str, basis: str, rng: np.random.Generator):
    """Projectively measure a qubit subsystem in the Z or X basis and drop it.

    Returns (outcome, rest, prob) where outcome is 0/1 for Z and
    "plus"/"minus" for X, rest is the renormalized state of the other
    subsystems, in layout order, and prob is the Born probability of the
    reported outcome.  The measurement is _measure_raw's on psi's amplitudes
    at squared norm 1.0, so its draw is draw_outcome on outcome 0's weight
    itself; the kept half is then divided by its norm (np.vdot).
    """
    basis = basis.lower()
    if basis not in ("z", "x"):
        raise ValueError(f"basis must be 'z' or 'x', got {basis!r}")
    if psi.layout.dim_of(target) != 2:
        raise NonQubitTarget(f"target {target!r} has dimension != 2")
    pos = psi.layout.index(target)
    idx, prob, rest, _ = _measure_raw(psi.tensor_view(), pos, basis, 1.0, rng)
    rest /= math.sqrt(float(np.vdot(rest, rest).real))
    layout = SubsystemLayout(
        psi.layout.dims[:pos] + psi.layout.dims[pos + 1 :],
        psi.layout.labels[:pos] + psi.layout.labels[pos + 1 :],
    )
    outcome = (PLUS if idx == 0 else MINUS) if basis == "x" else idx
    return outcome, StateVector(layout, rest), prob


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
    d_keep = math.prod(state.layout.dim_of(l) for l in labels)
    m = _front(state, labels).reshape(d_keep, -1)
    return DensityMatrix(m @ m.conj().T)


def check_densities(m: np.ndarray) -> np.ndarray:
    """Spectra of the Hermitian parts of a stack of density matrices.

    m has shape (n, d, d).  Raises InvalidState unless every matrix is
    Hermitian, of trace 1 and PSD within MATRIX_ATOL; each test is written
    so that NaN fails it.  Returns the (n, d) eigenvalues, each row as
    eigvalsh of that matrix alone gives it.
    """
    mh = np.swapaxes(m.conj(), -1, -2)
    if not np.abs(m - mh).max(initial=0.0) <= MATRIX_ATOL:
        raise InvalidState("matrix is not Hermitian within tolerance")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    off = ~(np.abs(tr - 1.0) <= MATRIX_ATOL)
    if off.any():
        raise InvalidState(f"trace {tr[off][0]} deviates from 1 beyond {MATRIX_ATOL}")
    evals = np.linalg.eigvalsh((m + mh) / 2)
    if not evals.min(initial=0.0) >= -MATRIX_ATOL:
        raise InvalidState("matrix has an eigenvalue below -tolerance")
    return evals


def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(1/2)·Σ|eigenvalues(a[i] − b[i])| for each pair of two (n, d, d) stacks, in [0, 1].

    Each pair is taken in a fixed order, by its bytes, so every distance is
    exactly symmetric despite eigensolver round-off; each row has the bits
    of that pair's distance taken alone.
    """
    swap = np.array([x.tobytes() > y.tobytes() for x, y in zip(a, b)], dtype=bool)
    swap = swap.reshape(-1, 1, 1)
    d = np.where(swap, b, a) - np.where(swap, a, b)
    evals = np.linalg.eigvalsh((d + np.swapaxes(d.conj(), -1, -2)) / 2)
    return np.minimum(np.maximum(np.abs(evals).sum(axis=-1) / 2, 0.0), 1.0)


def trace_distance(r1: DensityMatrix, r2: DensityMatrix) -> float:
    """(1/2)·Σ|eigenvalues(r1 − r2)|, in [0, 1], by trace_distances."""
    if r1.dim != r2.dim:
        raise DimensionMismatch(f"dims {r1.dim} and {r2.dim} differ")
    return float(trace_distances(r1.entries[None], r2.entries[None])[0])


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
        single(label, phi),
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
