"""Exact verification of the protocol's robustness argument.

The central quantities, all computed from exact joint-state evolution:

* Branch decomposition.  After the forward attack acts on |+> ⊗ |probe>,
  a SIFT round's JointEvolution.finish_round projects the transit qubit onto
  |0> and |1> and keeps the two unnormalized branches, whose weights sum to
  1, as the halves of Alice's probe.

* Constraint residuals per round.  test_residual is the total weight of
  bit-flipping components the backward unitary V leaves on a sifted qubit,
  ‖(<1|⊗I)V|0>|E'0>‖² + ‖(<0|⊗I)V|1>|E'1>‖²; ctrl_error_prob is the Born
  probability of |-> on a reflected qubit, reconstructed by linearity from
  the same branches; f_distance is ‖F'0 − F'1‖₂ on the branches after V,
  all read off the state a SIFT round's JointEvolution.finish_round leaves.

* Leakage.  Running a fixed CTRL/SIFT choice pattern coherently, condition
  the probe's reduced state on each of Alice's bits and report trace
  distances and the Holevo bound of the joint ensemble, all from one Gram
  block of Eve's amplitudes per joint value of the sifted bits.

Every reduction reads its slices off engine._front, the state's amplitude
tensor with the named subsystems moved to the front.

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
    SubsystemLayout,
    _front,
    _weight,
    alice_probe,
    bob_memory,
    ket_plus,
    ket_zero,
    partial_trace,
    permute,
    phase_deviation,
    purity,
    tensor,
    trace_distance,
)
from .errors import ExactCapExceeded
from .protocol import CTRL, EXACT_ROUND_CAP, JointEvolution, SIFT

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


def _bell(label_a: str, label_b: str) -> StateVector:
    amps = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    return StateVector(SubsystemLayout((2, 2), (label_a, label_b)), amps)


def _eve_labels(layout: SubsystemLayout) -> list[str]:
    return [l for l in layout.labels if l.startswith("E")]


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(ρ) = −tr(ρ log₂ ρ), from the spectrum the PSD check computed."""
    evals = np.clip(rho.eigenvalues, 0.0, 1.0)
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
# Per-round constraints
# ---------------------------------------------------------------------------


def _residuals(round_index: int, sifted: StateVector) -> ConstraintReport:
    """Round residuals from the state a SIFT round's finish_round leaves.

    s[b][t] is branch b's slice at returned transit value t after V: Alice's
    XOR tagged each branch with its bit, so V acted on them separately.
    """
    s = _front(sifted, [alice_probe(round_index), bob_memory(round_index)])

    # CTRL hypothesis: no XOR, the transit stays coherent; by linearity the
    # output is the sum of the two branches, and the error is its |-> weight.
    ctrl = s[0] + s[1]

    return ConstraintReport(
        round=round_index,
        test_residual=_weight(s[0][1]) + _weight(s[1][0]),
        ctrl_error_prob=_weight((ctrl[0] - ctrl[1]) / math.sqrt(2)),
        f_distance=float(np.linalg.norm(s[0][0] - s[1][1])),
    )


def constraint_reports(attack: AttackSpec, pattern: str) -> list[ConstraintReport]:
    """Residuals of every round along one choice pattern, from one walk.

    Report i is round i's, with the pattern's first i letters as its prefix;
    no report depends on the pattern's last letter.
    """
    _, _, reports = next(_walk_patterns(attack, [_normalize_pattern(pattern)]))
    return reports


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
    return constraint_reports(attack, prefix + "C")[-1]


def _walk_patterns(attack: AttackSpec, patterns):
    """Evolve every pattern over the prefix trie of the set, depth first.

    Each distinct prefix is evolved once.  At every internal node the SIFT
    child is evolved, since its state carries the round's residuals; its
    subtree is walked first, and the CTRL child, if wanted, takes over the
    parent's evolution afterwards.  Yields (pattern, final state, reports
    along its path) for every distinct pattern, SIFT branches before CTRL
    ones.  While a SIFT subtree is walked, the post-forward state of each
    ancestor with a CTRL child still to visit stays live; walking CTRL first
    would hold the larger SIFT child instead.
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
        ctrl_wanted = prefix + "C" in nodes
        sift = evo.clone() if ctrl_wanted else evo
        sift.finish_round(i, SIFT)
        reports = reports + [_residuals(i, sift.state)]
        if prefix + "S" in nodes:
            yield from visit(sift, prefix + "S", reports)
        del sift  # else the SIFT subtree's last state stays live through the CTRL one
        if ctrl_wanted:
            evo.finish_round(i, CTRL)
            yield from visit(evo, prefix + "C", reports)

    yield from visit(JointEvolution(attack), "", [])


# ---------------------------------------------------------------------------
# Leakage
# ---------------------------------------------------------------------------


def _weighted_states(blocks) -> list[tuple[float, DensityMatrix]]:
    """(weight, state) of each Gram block weighing over the floor.

    The blocks are normalised in place, so no copy of them is made.
    """
    out = []
    for g in blocks:
        w = float(np.trace(g).real)
        if w > _WEIGHT_FLOOR:
            g /= w
            out.append((w, DensityMatrix(g)))
    return out


def _leakage_from_final(
    final: StateVector, pattern: str, compute_holevo: bool
) -> LeakageReport:
    e_labels = _eve_labels(final.layout)
    sifted = [alice_probe(i) for i, ch in enumerate(pattern) if ch == "S"]
    k = len(sifted)
    per_bit = [0.0] * k
    chi = 0.0
    if e_labels and sifted:
        d_e = math.prod(final.layout.dim_of(l) for l in e_labels)
        m = _front(final, sifted + e_labels).reshape(2**k, d_e, -1)
        # Eve's unnormalised state for each joint value of the sifted bits,
        # filled in place: stacking a list would hold every block twice
        blocks = np.empty((2**k, d_e, d_e), dtype=complex)
        for b, mk in enumerate(m):
            blocks[b] = mk @ mk.conj().T
        joint = blocks.reshape((2,) * k + (d_e, d_e))
        for q in range(k):
            pair = _weighted_states(joint.sum(axis=tuple(a for a in range(k) if a != q)))
            if len(pair) == 2:
                per_bit[q] = trace_distance(pair[0][1], pair[1][1])
        if compute_holevo:
            chi = holevo_bound(_weighted_states(blocks))

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

    Runs the pattern coherently, then for each SIFT position conditions
    Eve's reduced state on Alice's probe reading 0 and 1 and reports the trace
    distance between the two; holevo_bound is χ of the ensemble over all
    joint bit assignments.  Beyond the final state, memory holds one
    reordered copy of it and one Eve-sized block per joint bit assignment.
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
    # summed in enumeration order, so the float sums do not follow the walk's
    reports_of = {p: reports for p, _, reports in _walk_patterns(attack, patterns)}
    ce = cc = te = tc = 0.0
    for pattern in patterns:
        weight = 1.0
        ctrl_q = test_q = 0.0
        for ch, rep in zip(pattern, reports_of[pattern]):
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
