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
  block of Eve's amplitudes per joint value of the sifted bits.  The
  per-bit distances go in batches of at most _BATCH_ENTRIES entries through
  one engine.check_densities and one engine.trace_distances call, with the
  bits one DensityMatrix pair per bit would give.

Every reduction reads the state through engine._front, a view of its
amplitude tensor with the named subsystems' axes first: nothing is copied,
and each reader flattens only the slice it reads.

theorem_check ties these together: any attack whose residuals vanish on
every round of every pattern must also show vanishing leakage.  The
tolerance coupling (leakage ≤ 10·eps whenever residual ≤ eps) is an
engineering margin for numerical propagation at desk scale, not a claimed
analytic bound: the underlying theorem is exact (zero error ⇒ zero
information).
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .attacks import AttackSpec
from .engine import (
    DensityMatrix,
    StateVector,
    SubsystemLayout,
    _front,
    _norm,
    _weight,
    alice_probe,
    bob_memory,
    check_densities,
    ket_plus,
    ket_zero,
    partial_trace,
    permute,
    phase_deviation,
    purity,
    tensor,
    trace_distances,
)
from .protocol import (
    CTRL,
    MODE_SAMPLING,
    SIFT,
    JointEvolution,
    ProtocolConfig,
    check_exact_size,
    classical_phase,
    derive_seed,
    run_protocol,
)

RESIDUAL_TOL = 1e-9

_WEIGHT_FLOOR = 1e-12

#: most entries leakage stacks into one batch: joint-bit slices of the state
#: for the Gram blocks, or the marginals of the bits compared together
_BATCH_ENTRIES = 1 << 12

#: patterns default_patterns draws beyond length 6, and the seed it draws them with
_SAMPLE_SIZE = 64
_SAMPLE_SEED = 0


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
    #: constraint_reports(attack, pattern), read off the walk the leakage came from
    rounds: tuple[ConstraintReport, ...] = ()


@dataclass(frozen=True)
class TheoremReport:
    max_residual: float
    max_leakage: float
    eps: float
    passed: bool
    n_patterns: int
    #: residuals of every round of the all-CTRL pattern as long as the longest
    #: pattern, read off the walk; () when the pattern set lacks it
    ctrl_rounds: tuple[ConstraintReport, ...] = ()


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


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _normalize_pattern(pattern: str) -> str:
    pattern = pattern.upper()
    if not pattern or any(ch not in "CS" for ch in pattern):
        raise ValueError(f"pattern must be a nonempty string over C/S, got {pattern!r}")
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

    s[b][t] is a view of branch b's slice at returned transit value t after
    V: Alice's XOR tagged each branch with its bit, so V acted on them
    separately.
    """
    s = _front(sifted, [alice_probe(round_index), bob_memory(round_index)])

    # CTRL hypothesis: no XOR, the transit stays coherent; by linearity the
    # output is the sum of the two branches, and the error is its |-> weight.
    ctrl = s[0] + s[1]

    return ConstraintReport(
        round=round_index,
        test_residual=_weight(s[0][1]) + _weight(s[1][0]),
        ctrl_error_prob=_weight((ctrl[0] - ctrl[1]) / math.sqrt(2)),
        f_distance=_norm(s[0][0] - s[1][1]),
    )


def constraint_reports(attack: AttackSpec, pattern: str) -> list[ConstraintReport]:
    """Residuals of every round along one choice pattern, from one walk.

    Report i is round i's, with the pattern's first i letters as its prefix;
    no report depends on the pattern's last letter.
    """
    _, _, reports = next(_walk_patterns(attack, [pattern]))
    return reports


def constraint_check(attack: AttackSpec, round_index: int) -> ConstraintReport:
    """Residuals for one round after every earlier round reflected (CTRL).

    Eve's state entering the round is obtained by actually evolving the
    earlier rounds (her probe is not reset between rounds); constraint_reports
    takes any other pattern.  A negative round_index raises ValueError.
    """
    if round_index < 0:
        raise ValueError(f"round_index must be >= 0, got {round_index}")
    # the round's own choice does not affect its residuals; C is a placeholder
    return constraint_reports(attack, "C" * (round_index + 1))[-1]


def _walk_patterns(attack: AttackSpec, patterns):
    """Evolve every pattern over the prefix trie of the set, depth first.

    The one check of patterns: each is upper-cased, and an empty one or one
    with a letter other than C or S raises ValueError before any round is
    evolved.  Each distinct prefix is evolved once.  At every internal node
    the SIFT child is evolved, since its state carries the round's
    residuals; its subtree is walked first, and the CTRL child, if wanted,
    takes over the parent's evolution afterwards.  Yields (upper-cased
    pattern, final state, reports along its path) for every distinct
    pattern, SIFT branches before CTRL ones.  While a SIFT subtree is walked,
    the post-forward state of each ancestor with a CTRL child still to visit
    stays live; walking CTRL first would hold the larger SIFT child instead.
    """
    wanted = {_normalize_pattern(p) for p in patterns}
    check_exact_size(attack, max(map(len, wanted), default=0))
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


def _joint_blocks(final: StateVector, pattern: str) -> np.ndarray | None:
    """Eve's unnormalised state for each joint value of the sifted bits.

    Shaped (2,) * k + (d_e, d_e) for k sifted bits; None when no bit is
    sifted or Eve holds no subsystem.  With m the state's view with the
    bits' axes first and Eve's next, the block at bits is m[bits] @
    m[bits]†, m[bits] flattened to (d_e, -1).  The blocks are filled in
    place, since stacking a list would hold every block twice.  When that
    flattening copies, consecutive slices are copied together, up to
    _BATCH_ENTRIES entries, into one stacked product, which rounds each
    block as the slice's own product does.  When it returns a strided view,
    the slices go one at a time, since a view's product can round apart
    from a copy's.
    """
    e_labels = _eve_labels(final.layout)
    sifted = [alice_probe(i) for i, ch in enumerate(pattern) if ch == "S"]
    if not (e_labels and sifted):
        return None
    k = len(sifted)
    d_e = math.prod(final.layout.dim_of(l) for l in e_labels)
    m = _front(final, sifted + e_labels)
    blocks = np.empty((2**k, d_e, d_e), dtype=complex)
    j = 0  # slices per product: 2**j
    if not np.may_share_memory(m[(0,) * k].reshape(d_e, -1), m):
        while j < k and m.size >> (k - j - 1) <= _BATCH_ENTRIES:
            j += 1
    for p, prefix in enumerate(itertools.product((0, 1), repeat=k - j)):
        c = m[prefix].reshape(2**j, d_e, -1)
        np.matmul(c, c.conj().transpose(0, 2, 1), out=blocks[p << j : (p + 1) << j])
    return blocks.reshape((2,) * k + (d_e, d_e))


def _bit_marginals(joint: np.ndarray | None):
    """Eve's unnormalised states given each sifted bit's values 0 and 1.

    Yields a (2, d_e, d_e) array for each bit in turn, summed out of the
    joint blocks over the other bits; nothing when joint is None.
    """
    if joint is None:
        return
    k = joint.ndim - 2
    for q in range(k):
        yield joint.sum(axis=tuple(a for a in range(k) if a != q))


def _batches(pairs):
    """Stacks of consecutive same-shape marginal pairs, in order.

    A stack holds at most _BATCH_ENTRIES entries, or one pair when a pair
    alone is larger, so large Eve registers go one bit at a time.
    """
    batch = []
    for pair in pairs:
        fits = pair.size * (len(batch) + 1) <= _BATCH_ENTRIES
        if batch and not (fits and pair.shape == batch[0].shape):
            yield np.stack(batch)
            batch = []
        batch.append(pair)
    if batch:
        yield np.stack(batch)


def _bit_distances(batch: np.ndarray) -> np.ndarray:
    """Trace distance between the two states of each stacked marginal pair.

    The marginals weighing over _WEIGHT_FLOOR are normalised in place and
    checked by one engine.check_densities call; the pairs are compared by
    one engine.trace_distances call, and a pair with a side at or below the
    floor reads 0.  Every distance has the bits of a trace_distance between
    the two DensityMatrix values.
    """
    w = np.trace(batch, axis1=-2, axis2=-1).real
    live = w > _WEIGHT_FLOOR
    batch[live] /= w[live][:, None, None]
    check_densities(batch[live])
    both = live.all(axis=1)
    out = np.zeros(len(batch))
    out[both] = trace_distances(batch[both, 0], batch[both, 1])
    return out


def _leakage_from_final(final: StateVector, pattern: str) -> LeakageReport:
    joint = _joint_blocks(final, pattern)
    per_bit = [0.0] * pattern.count("S")
    chi = 0.0
    if joint is not None:
        batches = _batches(_bit_marginals(joint))
        per_bit = [t for batch in batches for t in _bit_distances(batch).tolist()]
        chi = holevo_bound(_weighted_states(joint.reshape(-1, *joint.shape[-2:])))

    return LeakageReport(
        pattern=pattern,
        per_bit_trace_distance=tuple(per_bit),
        holevo_bound=chi,
        max_leakage=max(per_bit, default=0.0),
    )


def eve_leakage(attack: AttackSpec, pattern: str) -> LeakageReport:
    """Distinguishability of Eve's final state across Alice's bit values.

    Runs the pattern coherently, then for each SIFT position conditions
    Eve's reduced state on Alice's probe reading 0 and 1 and reports the trace
    distance between the two; holevo_bound is χ of the ensemble over all
    joint bit assignments.  Beyond the final state, memory holds one
    Eve-sized Gram block per joint bit assignment and, at a time, one batch:
    copies of joint-bit slices of the state, or bit marginals, holding at
    most _BATCH_ENTRIES entries together, or a single slice or bit's pair
    when that alone is larger.  rounds holds constraint_reports(attack,
    pattern), read off the same walk.
    """
    pattern, final, reports = next(_walk_patterns(attack, [pattern]))
    return replace(_leakage_from_final(final, pattern), rounds=tuple(reports))


# ---------------------------------------------------------------------------
# The robustness theorem, numerically
# ---------------------------------------------------------------------------


def default_patterns(max_len: int) -> list[str]:
    """All CTRL/SIFT patterns up to max_len, or _SAMPLE_SIZE random ones beyond 6."""
    if max_len <= 6:
        return [
            "".join(p) for n in range(1, max_len + 1) for p in itertools.product("CS", repeat=n)
        ]
    rng = np.random.default_rng(np.random.SeedSequence([_SAMPLE_SEED, max_len]))
    return ["".join(rng.choice(["C", "S"], size=max_len)) for _ in range(_SAMPLE_SIZE)]


def theorem_check(
    attack: AttackSpec,
    patterns=None,
    eps: float = 1e-9,
    max_pattern_len: int = 6,
) -> TheoremReport:
    """Detectability implies leakage: residual r vs trace-distance leakage ℓ.

    r is the worst per-round (test_residual + ctrl_error_prob) across every
    round of every pattern; ℓ is the worst per-bit trace distance.  The
    verdict passes unless the attack is undetectable (r ≤ eps) yet leaks
    (ℓ > 10·eps).  A non-finite or negative eps, or an empty pattern set
    (max_pattern_len < 1), raises ValueError: no verdict could be honoured.
    ctrl_rounds holds the residuals of the all-CTRL pattern as long as the
    longest pattern, read off the walk when the set holds that pattern.
    """
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    if patterns is None:
        patterns = default_patterns(max_pattern_len)
    if not patterns:
        raise ValueError("no patterns to check; max_pattern_len must be >= 1")
    max_residual = 0.0
    max_leakage = 0.0
    ctrl = "C" * max(map(len, patterns))
    ctrl_rounds = ()

    def marginals():
        nonlocal max_residual, ctrl_rounds
        for pattern, final, reports in _walk_patterns(attack, patterns):
            if pattern == ctrl:
                ctrl_rounds = tuple(reports)
            for rep in reports:
                max_residual = max(max_residual, rep.test_residual + rep.ctrl_error_prob)
            # the blocks live only in the sub-generator and the final state is
            # dropped once read, so neither is live while the walk evolves the
            # next pattern
            bits = _bit_marginals(_joint_blocks(final, pattern))
            del final
            yield from bits

    # the bits of successive patterns share a batch as one pattern's bits do
    for batch in _batches(marginals()):
        max_leakage = max(max_leakage, *_bit_distances(batch).tolist())
    passed = (max_residual > eps) or (max_leakage <= 10 * eps)
    return TheoremReport(
        max_residual=max_residual,
        max_leakage=max_leakage,
        eps=eps,
        passed=passed,
        n_patterns=len(patterns),
        ctrl_rounds=ctrl_rounds,
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
    pattern, final, reports = next(_walk_patterns(attack, [pattern]))
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
    sampling mode's pooled frequencies estimate.  n_rounds < 1 raises ValueError.
    """
    check_exact_size(attack, n_rounds)
    probs = {"C": ctrl_prob, "S": 1.0 - ctrl_prob}
    choices = [ch for ch in "CS" if probs[ch] != 0.0]
    patterns = ["".join(p) for p in itertools.product(choices, repeat=n_rounds)]
    # summed in enumeration order, so the float sums do not follow the walk's
    reports_of = {}
    for pattern, final, reports in _walk_patterns(attack, patterns):
        del final  # else it is live while the walk evolves the next pattern
        reports_of[pattern] = reports
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
    exact_rate_expectations refuses a run too large to enumerate before any
    trial runs.
    """
    exact = exact_rate_expectations(attack, config.rounds, config.ctrl_prob)

    stats = []
    for t in range(trials):
        cfg = replace(config, seed=derive_seed(config.seed, t), mode=MODE_SAMPLING)
        stats.append(classical_phase(run_protocol(cfg, attack)))
    ctrl_rate, ctrl_se = _pooled_rate([(s.ctrl_errors, s.n_ctrl) for s in stats])
    test_rate, test_se = _pooled_rate([(s.test_errors, s.n_test) for s in stats])

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
