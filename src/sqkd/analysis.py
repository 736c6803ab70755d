"""Exact verification of the protocol's robustness argument.

The central quantities, all computed from exact joint-state evolution:

* Branch decomposition.  After the forward attack acts on |+> ⊗ |probe>,
  projecting the transit qubit onto |0> and |1> yields two unnormalized
  branches whose weights sum to 1.

* Constraint residuals per round.  test_residual is the total weight of
  bit-flipping components the backward unitary V leaves on a sifted qubit,
  ‖(<1|⊗I)V|0>|E'0>‖² + ‖(<0|⊗I)V|1>|E'1>‖²; ctrl_error_prob is the Born
  probability of |-> on a reflected qubit, reconstructed by linearity from
  the same branches; f_distance is ‖F'0 − F'1‖₂ on the branches after V.

* Leakage.  Running a fixed CTRL/SIFT choice pattern coherently, condition
  the probe's reduced state on each of Alice's bits and report trace
  distances and the Holevo bound of the joint ensemble.

theorem_check ties these together: any attack whose residuals vanish on
every round of every pattern must also show vanishing leakage.  The
tolerance coupling (leakage ≤ 10·eps whenever residual ≤ eps) is an
engineering margin for numerical propagation at desk scale, not a claimed
analytic bound: the underlying theorem is exact (zero error ⇒ zero
information).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .attacks import AttackSpec
from .engine import (
    DensityMatrix,
    StateVector,
    SubnormalizedVector,
    SubsystemLayout,
    TRANSIT,
    _branch_weight,
    alice_probe,
    apply_unitary,
    bob_memory,
    hadamard,
    ket_plus,
    ket_zero,
    partial_trace,
    permute,
    phase_deviation,
    project,
    purity,
    tensor,
    trace_distance,
)
from .errors import AttackLayoutMismatch, ExactCapExceeded
from .protocol import CTRL, EXACT_ROUND_CAP, JointEvolution, SIFT, apply_gate

RESIDUAL_TOL = 1e-9

_WEIGHT_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintReport:
    round: int
    test_residual: float
    ctrl_error_prob: float
    f_distance: float


@dataclass(frozen=True)
class LeakageReport:
    pattern: str
    per_bit_trace_distance: tuple[float, ...]
    holevo_bound: float
    max_leakage: float


@dataclass(frozen=True)
class TheoremReport:
    max_residual: float
    max_leakage: float
    eps: float
    passed: bool
    n_patterns: int


@dataclass(frozen=True)
class ProductStructureReport:
    pattern: str
    precondition_ok: bool
    max_round_residual: float
    product_ok: bool | None
    max_deviation: float | None
    eve_purity: float | None
    witness_bob_purity: float | None


@dataclass(frozen=True)
class ExpectedRates:
    ctrl_error_rate: float
    test_error_rate: float


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _normalize_pattern(pattern: str) -> str:
    pattern = pattern.upper()
    if not pattern or any(ch not in "CS" for ch in pattern):
        raise ValueError(f"pattern must be a nonempty string over C/S, got {pattern!r}")
    if len(pattern) > EXACT_ROUND_CAP:
        raise ExactCapExceeded(
            f"pattern length {len(pattern)} exceeds the exact cap {EXACT_ROUND_CAP}"
        )
    return pattern


def _drop_slice(vec, label: str, index: int) -> tuple[np.ndarray, SubsystemLayout]:
    """Slice one subsystem at a basis index and remove it from the layout."""
    pos = vec.layout.index(label)
    t = np.moveaxis(vec.amps.reshape(vec.layout.dims), pos, 0)[index]
    dims = tuple(d for i, d in enumerate(vec.layout.dims) if i != pos)
    labels = tuple(l for i, l in enumerate(vec.layout.labels) if i != pos)
    return t.reshape(-1), SubsystemLayout(dims, labels)


def _bell(label_a: str, label_b: str) -> StateVector:
    amps = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    return StateVector(SubsystemLayout((2, 2), (label_a, label_b)), amps)


def _eve_labels(layout: SubsystemLayout) -> list[str]:
    return [l for l in layout.labels if l.startswith("E")]


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(ρ) = −tr(ρ log₂ ρ)."""
    evals = np.linalg.eigvalsh((rho.entries + rho.entries.conj().T) / 2)
    evals = np.clip(evals.real, 0.0, 1.0)
    nz = evals[evals > 1e-15]
    return float(-(nz * np.log2(nz)).sum())


def holevo_bound(ensemble) -> float:
    """χ of an ensemble of (probability, DensityMatrix) pairs."""
    total = sum(p for p, _ in ensemble)
    avg = sum(p * rho.entries for p, rho in ensemble) / total
    chi = von_neumann_entropy(DensityMatrix(avg))
    chi -= sum((p / total) * von_neumann_entropy(rho) for p, rho in ensemble)
    return max(chi, 0.0) + 0.0


# ---------------------------------------------------------------------------
# Branch extraction and per-round constraints
# ---------------------------------------------------------------------------


def extract_branches(
    attack: AttackSpec, round_index: int, eve_state: StateVector
) -> tuple[SubnormalizedVector, SubnormalizedVector]:
    """Forward-attack a fresh |+> against Eve's current state and split it.

    Returns the two unnormalized branches tagged by the transit qubit's
    computational value, as vectors over eve_state's own layout; their
    weights sum to 1.
    """
    if TRANSIT in eve_state.layout.labels:
        raise AttackLayoutMismatch("eve_state must not contain the transit qubit")
    state = tensor(ket_plus(TRANSIT), eve_state)
    state = apply_gate(state, attack.forward_gate(round_index))
    branches = []
    for b in (0, 1):
        amps, layout = _drop_slice(state, TRANSIT, b)
        branches.append(SubnormalizedVector(layout, amps))
    return branches[0], branches[1]


def _constraint_at(attack: AttackSpec, round_index: int, post_forward: StateVector) -> ConstraintReport:
    """Round residuals from the joint state right after the forward attack.

    post_forward must still contain the transit qubit; any other subsystems
    (Bob's memory, earlier Alice probes, the probe register) ride along as
    spectators.
    """
    bg = attack.backward_gate(round_index)

    # SIFT hypothesis: Alice's XOR tags each branch with its bit, so the
    # backward unitary acts on the collapsed branches separately.
    v_branches = [
        apply_gate(project(post_forward, TRANSIT, b), bg) for b in (0, 1)
    ]
    test_residual = _branch_weight(v_branches[0], TRANSIT, 1) + _branch_weight(
        v_branches[1], TRANSIT, 0
    )

    # CTRL hypothesis: no XOR, the transit stays coherent; by linearity the
    # output is V applied to the branch sum, and the error is the |-> weight.
    ctrl_out = apply_gate(post_forward, bg)
    ctrl_rotated = apply_unitary(ctrl_out, hadamard(), (TRANSIT,))
    ctrl_error_prob = _branch_weight(ctrl_rotated, TRANSIT, 1)

    f0, _ = _drop_slice(v_branches[0], TRANSIT, 0)
    f1, _ = _drop_slice(v_branches[1], TRANSIT, 1)
    f_distance = float(np.linalg.norm(f0 - f1))

    return ConstraintReport(
        round=round_index,
        test_residual=test_residual,
        ctrl_error_prob=ctrl_error_prob,
        f_distance=f_distance,
    )


def constraint_check(
    attack: AttackSpec, round_index: int, prefix: str | None = None
) -> ConstraintReport:
    """Residuals for one round, given the preceding choice pattern.

    Eve's state entering the round is obtained by actually evolving the
    prefix (her probe is not reset between rounds).  The default prefix
    reflects every earlier round; a prefix with a letter other than C/S
    raises ValueError.
    """
    if prefix is None:
        prefix = "C" * round_index
    if len(prefix) != round_index:
        raise ValueError(
            f"prefix length {len(prefix)} must equal the round index {round_index}"
        )
    # the round's own choice does not affect its residuals; C is a placeholder
    _, _, reports = next(_walk_patterns(attack, [_normalize_pattern(prefix + "C")]))
    return reports[-1]


def _walk_patterns(attack: AttackSpec, patterns):
    """Evolve every pattern over the prefix trie of the set, depth first.

    Each distinct prefix is evolved once, the evolution being cloned where
    the trie branches, and each internal node's round residuals are computed
    once.  Yields (pattern, final state, reports along its path) for every
    distinct pattern, CTRL branches before SIFT ones.  While a subtree is
    walked, the post-forward state of each ancestor that still has a child
    to visit stays live.
    """
    wanted = set(patterns)
    inner = {p[:k] for p in wanted for k in range(len(p))}
    nodes = wanted | inner

    def visit(evo, prefix, reports):
        if prefix in wanted:
            yield prefix, evo.state, reports
        if prefix not in inner:
            return
        i = len(prefix)
        evo.start_round(i)
        reports = reports + [_constraint_at(attack, i, evo.state)]
        kids = [ch for ch in "CS" if prefix + ch in nodes]
        for ch in kids:
            # the last child takes over the parent's evolution instead of a copy
            child = evo if ch == kids[-1] else evo.clone()
            child.alice(i, CTRL if ch == "C" else SIFT)
            child.finish_round(i)
            yield from visit(child, prefix + ch, reports)

    yield from visit(JointEvolution(attack, max(map(len, wanted))), "", [])


# ---------------------------------------------------------------------------
# Leakage
# ---------------------------------------------------------------------------


def _leakage_from_final(
    final: StateVector, pattern: str, compute_holevo: bool
) -> LeakageReport:
    e_labels = _eve_labels(final.layout)
    sift_positions = [i for i, ch in enumerate(pattern) if ch == "S"]

    per_bit = []
    for j in sift_positions:
        if not e_labels:
            per_bit.append(0.0)
            continue
        conditionals = []
        for b in (0, 1):
            br = project(final, alice_probe(j), b)
            if br.weight < _WEIGHT_FLOOR:
                conditionals = None
                break
            conditionals.append(partial_trace(br.normalized(), e_labels))
        per_bit.append(
            trace_distance(*conditionals) if conditionals is not None else 0.0
        )

    chi = 0.0
    if compute_holevo and e_labels and sift_positions:
        branches = [SubnormalizedVector(final.layout, final.amps)]
        for j in sift_positions:
            branches = [
                project(br, alice_probe(j), b) for br in branches for b in (0, 1)
            ]
        ensemble = [
            (br.weight, partial_trace(br.normalized(), e_labels))
            for br in branches
            if br.weight > _WEIGHT_FLOOR
        ]
        chi = holevo_bound(ensemble)

    return LeakageReport(
        pattern=pattern,
        per_bit_trace_distance=tuple(per_bit),
        holevo_bound=chi,
        max_leakage=max(per_bit, default=0.0),
    )


def eve_leakage(
    attack: AttackSpec, pattern: str, compute_holevo: bool = True
) -> LeakageReport:
    """Distinguishability of Eve's final state across Alice's bit values.

    Runs the pattern coherently, then for each SIFT position projects
    Alice's probe on 0 and 1 and reports the trace distance between the two
    reduced probe states; holevo_bound is χ of the ensemble over all joint
    bit assignments.
    """
    pattern = _normalize_pattern(pattern)
    _, final, _ = next(_walk_patterns(attack, [pattern]))
    return _leakage_from_final(final, pattern, compute_holevo)


# ---------------------------------------------------------------------------
# The robustness theorem, numerically
# ---------------------------------------------------------------------------


def default_patterns(max_len: int, sample: int = 64, seed: int = 0) -> list[str]:
    """All CTRL/SIFT patterns up to max_len, or a random sample beyond 6."""
    if max_len <= 6:
        out = []
        for n in range(1, max_len + 1):
            for k in range(2**n):
                out.append("".join("S" if (k >> (n - 1 - i)) & 1 else "C" for i in range(n)))
        return out
    rng = np.random.default_rng(np.random.SeedSequence([seed, max_len]))
    return ["".join(rng.choice(["C", "S"], size=max_len)) for _ in range(sample)]


def theorem_check(
    attack: AttackSpec,
    patterns=None,
    eps: float = 1e-9,
    max_pattern_len: int = 6,
    compute_holevo: bool = False,
) -> TheoremReport:
    """Detectability implies leakage: residual r vs trace-distance leakage ℓ.

    r is the worst per-round (test_residual + ctrl_error_prob) across every
    round of every pattern; ℓ is the worst per-bit trace distance.  The
    verdict passes unless the attack is undetectable (r ≤ eps) yet leaks
    (ℓ > 10·eps).  A non-finite or negative eps, or an empty pattern set
    (max_pattern_len < 1), raises ValueError: no verdict could be honoured.
    """
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    if patterns is None:
        patterns = default_patterns(max_pattern_len)
    if not patterns:
        raise ValueError("no patterns to check; max_pattern_len must be >= 1")
    max_residual = 0.0
    max_leakage = 0.0
    normalized = [_normalize_pattern(p) for p in patterns]
    for pattern, final, reports in _walk_patterns(attack, normalized):
        for rep in reports:
            max_residual = max(max_residual, rep.test_residual + rep.ctrl_error_prob)
        leak = _leakage_from_final(final, pattern, compute_holevo)
        max_leakage = max(max_leakage, leak.max_leakage)
    passed = (max_residual > eps) or (max_leakage <= 10 * eps)
    return TheoremReport(
        max_residual=max_residual,
        max_leakage=max_leakage,
        eps=eps,
        passed=passed,
        n_patterns=len(patterns),
    )


# ---------------------------------------------------------------------------
# Product structure of the final Bob+Alice state
# ---------------------------------------------------------------------------


def product_structure_check(attack: AttackSpec, pattern: str) -> ProductStructureReport:
    """Verify the final joint state factorizes into the announced round states.

    For attacks with vanishing residuals, the final state must equal
    (⊗ per-round |+0> or (|00>+|11>)/√2) ⊗ |probe>, up to a global phase.
    Attacks failing the residual precondition take the witness path instead:
    the purity of Bob's reduced memory state is reported, since a value
    below 1 certifies the memory is not in a product of pure round states.
    """
    pattern = _normalize_pattern(pattern)
    _, final, reports = next(_walk_patterns(attack, [pattern]))
    max_residual = max(r.test_residual + r.ctrl_error_prob for r in reports)

    if max_residual > RESIDUAL_TOL:
        b_labels = [bob_memory(i) for i in range(len(pattern))]
        witness = purity(partial_trace(final, b_labels))
        return ProductStructureReport(
            pattern=pattern,
            precondition_ok=False,
            max_round_residual=max_residual,
            product_ok=None,
            max_deviation=None,
            eve_purity=None,
            witness_bob_purity=witness,
        )

    expected = None
    for i, ch in enumerate(pattern):
        part = (
            tensor(ket_plus(bob_memory(i)), ket_zero(alice_probe(i)))
            if ch == "C"
            else _bell(bob_memory(i), alice_probe(i))
        )
        expected = part if expected is None else tensor(expected, part)

    e_labels = _eve_labels(final.layout)
    eve_purity = None
    if e_labels:
        rho_e = partial_trace(final, e_labels)
        eve_purity = purity(rho_e)
        evals, evecs = np.linalg.eigh((rho_e.entries + rho_e.entries.conj().T) / 2)
        eve_dims = tuple(final.layout.dim_of(l) for l in e_labels)
        eve_state = StateVector(
            SubsystemLayout(eve_dims, tuple(e_labels)),
            evecs[:, -1] / np.linalg.norm(evecs[:, -1]),
        )
        expected = tensor(expected, eve_state)

    expected = permute(expected, final.layout.labels)
    deviation = phase_deviation(expected, final)
    ok = deviation <= 1e-8 and (eve_purity is None or eve_purity >= 1 - 1e-8)
    return ProductStructureReport(
        pattern=pattern,
        precondition_ok=True,
        max_round_residual=max_residual,
        product_ok=bool(ok),
        max_deviation=deviation,
        eve_purity=eve_purity,
        witness_bob_purity=None,
    )


# ---------------------------------------------------------------------------
# Exact error-rate expectations (mode equivalence)
# ---------------------------------------------------------------------------


def exact_rate_expectations(
    attack: AttackSpec, n_rounds: int, ctrl_prob: float
) -> ExpectedRates:
    """Born-rule expectations of the CTRL and TEST error rates.

    Enumerates Alice's full choice tree with its probabilities, collecting
    per-round marginal error probabilities along every branch, and returns
    the ratio of expected errors to expected round counts — the quantity the
    sampling mode's pooled frequencies estimate.
    """
    if n_rounds > EXACT_ROUND_CAP:
        raise ExactCapExceeded(f"enumeration capped at {EXACT_ROUND_CAP} rounds")
    probs = {"C": ctrl_prob, "S": 1.0 - ctrl_prob}
    choices = [ch for ch in "CS" if probs[ch] != 0.0]
    patterns = ["".join(p) for p in itertools.product(choices, repeat=n_rounds)]
    ce = cc = te = tc = 0.0
    for pattern, _, reports in _walk_patterns(attack, patterns):
        weight = 1.0
        ctrl_q = test_q = 0.0
        for ch, rep in zip(pattern, reports):
            weight *= probs[ch]
            if ch == "C":
                ctrl_q += rep.ctrl_error_prob
            else:
                test_q += rep.test_residual
        n_ctrl = pattern.count("C")
        ce += weight * ctrl_q
        cc += weight * n_ctrl
        te += weight * test_q
        tc += weight * (n_rounds - n_ctrl)
    ctrl_rate = ce / cc if cc else 0.0
    test_rate = te / tc if tc else 0.0
    return ExpectedRates(ctrl_error_rate=ctrl_rate, test_error_rate=test_rate)
