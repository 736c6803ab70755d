import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqkd import engine
from sqkd.engine import (
    DensityMatrix,
    MINUS,
    PLUS,
    StateVector,
    SubnormalizedVector,
    SubsystemLayout,
    Unitary,
    apply_unitary,
    check_densities,
    cnot,
    factor_out,
    hadamard,
    ket_plus,
    ket_zero,
    measure,
    measure_out,
    partial_trace,
    permute,
    phase_deviation,
    project,
    purity,
    random_state,
    random_unitary,
    single,
    tensor,
    trace_distance,
    trace_distances,
)
from sqkd.errors import (
    DimensionMismatch,
    DuplicateLabel,
    EmptyKeepSet,
    FactorizationError,
    IndexOutOfRange,
    InvalidState,
    NonQubitTarget,
    UnknownLabel,
)

from helpers import (
    identity_gate,
    ket_minus,
    reference_apply_on_axes,
    reference_measure_out,
)

INV_SQRT2 = 1 / math.sqrt(2)


def bell(l1="q0", l2="q1"):
    return StateVector(
        SubsystemLayout((2, 2), (l1, l2)),
        np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    )


# ---------------------------------------------------------------------------
# Types and invariants
# ---------------------------------------------------------------------------


def test_layout_rejects_duplicates_and_bad_dims():
    with pytest.raises(DuplicateLabel):
        SubsystemLayout((2, 2), ("a", "a"))
    with pytest.raises(DimensionMismatch):
        SubsystemLayout((2, 0), ("a", "b"))
    with pytest.raises(DimensionMismatch):
        SubsystemLayout((2,), ("a", "b"))


def test_state_norm_invariant():
    with pytest.raises(InvalidState):
        StateVector(SubsystemLayout((2,), ("q",)), np.array([1.0, 1.0]))
    # dimension-1 placeholder subsystems are allowed
    StateVector(SubsystemLayout((1,), ("p",)), np.array([1.0]))


def test_unitary_invariant():
    with pytest.raises(InvalidState):
        Unitary(np.array([[1, 1], [0, 1]], dtype=complex))
    Unitary(np.eye(3))


def test_subnormalized_weight_checks():
    from sqkd.engine import SubnormalizedVector

    layout = SubsystemLayout((2,), ("q",))
    branch = SubnormalizedVector(layout, np.array([0.5, 0.5]))
    assert abs(branch.weight - 0.5) < 1e-12
    with pytest.raises(InvalidState):
        SubnormalizedVector(layout, np.array([1.0, 1.0]))  # weight 2 > 1
    assert SubnormalizedVector(layout, np.zeros(2)).weight == 0.0


def test_density_matrix_invariants():
    with pytest.raises(InvalidState):
        DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidState):
        DensityMatrix(np.eye(2))  # trace 2
    with pytest.raises(InvalidState):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    DensityMatrix(np.eye(2) / 2)


# NaN compares false with everything, so a check written as `x > tol` lets it pass


def test_state_vector_refuses_nan():
    with pytest.raises(InvalidState):
        StateVector(SubsystemLayout((2,), ("q",)), np.array([np.nan, 0]))


def test_density_matrix_refuses_nan():
    with pytest.raises(InvalidState):
        DensityMatrix(np.full((2, 2), np.nan))


def test_unitary_refuses_nan():
    with pytest.raises(InvalidState):
        Unitary(np.full((2, 2), np.nan))


def test_check_densities_checks_every_matrix_of_a_stack():
    rng = np.random.default_rng(5)
    good = np.stack([_random_density(3, rng).entries for _ in range(4)])
    evals = check_densities(good)
    for row, m in zip(evals, good):
        assert np.array_equal(row, DensityMatrix(m).eigenvalues)
    bad = {
        "nan": np.full((3, 3), np.nan),
        "not Hermitian": np.diag([0.5, 0.5, 0.0]) + np.diag([0.1j, 0.1j], 1),
        "trace": np.eye(3),
        "eigenvalue": np.diag([1.5, -0.5, 0.0]),
    }
    for name, m in bad.items():
        stack = good.copy()
        stack[2] = m
        with pytest.raises(InvalidState):
            check_densities(stack)
        with pytest.raises(InvalidState):
            DensityMatrix(m)


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


def test_tensor_plus_zero():
    out = tensor(ket_plus("a"), ket_zero("b"))
    assert out.layout.dims == (2, 2)
    np.testing.assert_allclose(out.amps, [INV_SQRT2, 0, INV_SQRT2, 0], atol=1e-15)


def test_tensor_zero_zero():
    out = tensor(ket_zero("a"), ket_zero("b"))
    np.testing.assert_allclose(out.amps, [1, 0, 0, 0], atol=0)


def test_tensor_norm_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = random_state(SubsystemLayout((2, 2), ("a0", "a1")), rng)
        b = random_state(SubsystemLayout((3,), ("b0",)), rng)
        out = tensor(a, b)
        assert abs(np.linalg.norm(out.amps) - 1) < 1e-10


def test_tensor_duplicate_label():
    with pytest.raises(DuplicateLabel):
        tensor(ket_zero("a"), single("a", [0, 1]))


# ---------------------------------------------------------------------------
# apply_unitary
# ---------------------------------------------------------------------------


def test_cnot_builds_bell_state():
    psi = tensor(ket_plus("T"), ket_zero("E0"))
    out = apply_unitary(psi, cnot(), ["T", "E0"])
    np.testing.assert_allclose(out.amps, [INV_SQRT2, 0, 0, INV_SQRT2], atol=1e-15)


def test_identity_is_exact():
    rng = np.random.default_rng(3)
    psi = random_state(SubsystemLayout((2, 3), ("a", "b")), rng)
    out = apply_unitary(psi, identity_gate(6), ["a", "b"])
    assert np.array_equal(out.amps, psi.amps)


def test_apply_then_invert_random():
    rng = np.random.default_rng(17)
    layout = SubsystemLayout((2, 2, 2), ("a", "b", "c"))
    for _ in range(25):
        psi = random_state(layout, rng)
        u = random_unitary(4, rng)
        u_inv = Unitary(u.entries.conj().T)
        out = apply_unitary(apply_unitary(psi, u, ["a", "c"]), u_inv, ["a", "c"])
        assert np.abs(out.amps - psi.amps).max() < 1e-9


def test_apply_unitary_errors():
    psi = tensor(ket_zero("a"), ket_zero("b"))
    with pytest.raises(DimensionMismatch):
        apply_unitary(psi, hadamard(), ["a", "b"])
    with pytest.raises(UnknownLabel):
        apply_unitary(psi, hadamard(), ["missing"])


def test_norm_preserved_over_1000_random_cases():
    rng = np.random.default_rng(23)
    layout = SubsystemLayout((2, 2, 2), ("a", "b", "c"))
    for _ in range(1000):
        psi = random_state(layout, rng)
        u = random_unitary(4, rng)
        out = apply_unitary(psi, u, ["b", "c"])
        assert abs(np.linalg.norm(out.amps) - 1) < 1e-10


#: block sizes the kernels are checked at: None leaves engine._BLOCK_COLUMNS
_BLOCK_SIZES = [1, 2, 7, None]


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=6),
    data=st.data(),
    block=st.sampled_from(_BLOCK_SIZES),
    in_place=st.booleans(),
)
def test_apply_on_axes_matches_the_one_product_oracle(dims, data, block, in_place):
    axes = st.integers(0, len(dims) - 1)
    targets = data.draw(st.lists(axes, min_size=1, max_size=3, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u = random_unitary(math.prod(dims[p] for p in targets), rng)
    t = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    want = reference_apply_on_axes(t, u, targets)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(engine, "_BLOCK_COLUMNS", block)
        got = engine.apply_on_axes(t, u, targets, out=t if in_place else None)
    assert np.array_equal(got, want)
    assert (got is t) == in_place


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def test_measure_plus_in_x_is_deterministic():
    rng = np.random.default_rng(0)
    outcome, collapsed, prob = measure(ket_plus("q"), "q", "x", rng)
    assert outcome == PLUS
    assert prob == 1.0
    assert phase_deviation(collapsed, ket_plus("q")) < 1e-12


def test_measure_zero_in_x_is_uniform():
    counts = {PLUS: 0, MINUS: 0}
    for seed in range(400):
        rng = np.random.default_rng(seed)
        outcome, _, prob = measure(ket_zero("q"), "q", "x", rng)
        counts[outcome] += 1
        assert abs(prob - 0.5) < 1e-12
    assert 140 < counts[PLUS] < 260


def test_measure_bell_in_x_collapses_partner():
    # (|00>+|11>)/sqrt2 = (|++>+|-->)/sqrt2: outcomes correlate, probs 1/2
    seen = set()
    for seed in range(30):
        rng = np.random.default_rng(seed)
        outcome, collapsed, prob = measure(bell(), "q0", "x", rng)
        assert abs(prob - 0.5) < 1e-12
        partner = factor_out(collapsed, "q1")[0]
        expected = ket_plus("q1") if outcome == PLUS else ket_minus("q1")
        assert phase_deviation(partner, expected) < 1e-9
        seen.add(outcome)
    assert seen == {PLUS, MINUS}


def test_measure_nonqubit_target():
    psi = single("d3", [1, 0, 0])
    with pytest.raises(NonQubitTarget):
        measure(psi, "d3", "z", np.random.default_rng(0))


@pytest.mark.parametrize("basis, amps", [("z", [1, 0, 0, 0]), ("x", [0.5, 0.5, 0.5, 0.5])])
def test_measure_out_refuses_a_zero_weight_branch(monkeypatch, basis, amps):
    # a draw forced onto outcome 1, whose half is exactly empty: q is |0> or
    # |+>, with amplitudes whose products with _H's entries are exact
    psi = StateVector(SubsystemLayout((2, 2), ("q", "r")), np.array(amps, dtype=complex))
    monkeypatch.setattr(engine, "draw_outcome", lambda w0, rng: (1, 0.0))
    with pytest.raises(InvalidState, match="zero-weight"):
        measure_out(psi, "q", basis, np.random.default_rng(0))


@pytest.mark.parametrize("n", [0, 1, 10_000, 10_001, 25_000])
def test_norm_is_numpys_within_one_dot(n):
    # up to _DOT_ENTRIES entries, the bits np.linalg.norm gives; beyond, the
    # chunks' sums, so a long array no longer has the bits of one BLAS dot
    rng = np.random.default_rng(n)
    amps = (rng.normal(size=2 * n) + 1j * rng.normal(size=2 * n))[::2]
    if n <= engine._DOT_ENTRIES:
        assert engine._norm(amps) == np.linalg.norm(amps)
    else:
        assert engine._norm(amps) == pytest.approx(np.linalg.norm(amps), rel=1e-14)


def test_measure_sampling_matches_born_probabilities():
    # empirical frequency within 4 standard errors over 1e5 samples
    amps = [math.cos(0.6), math.sin(0.6)]
    psi = single("q", amps)
    p1 = math.sin(0.6) ** 2
    n = 100_000
    rng = np.random.default_rng(99)
    ones = sum(measure(psi, "q", "z", rng)[0] for _ in range(n))
    se = math.sqrt(p1 * (1 - p1) / n)
    assert abs(ones / n - p1) < 4 * se


from helpers import reference_outcome_threshold as _reference_outcome_threshold

_THRESHOLD_EDGES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072009e-308,  # the largest subnormal
    -2.2250738585072009e-308,
    # each snap bound and the floats beside it
    *(y for x in (1e-12, 1 - 1e-12) for y in (math.nextafter(x, 0), x, math.nextafter(x, 1))),
]


def _same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=300, deadline=None)
@given(w0=st.floats(allow_nan=True, allow_infinity=True))
def test_outcome_threshold_matches_the_clamped_oracle(w0):
    assert _same_bits(engine.outcome_threshold(w0), _reference_outcome_threshold(w0))


def test_outcome_threshold_matches_the_clamped_oracle_at_its_edges():
    for w0 in _THRESHOLD_EDGES + [math.nan, -math.inf, math.inf, -1.0, 2.0]:
        assert _same_bits(engine.outcome_threshold(w0), _reference_outcome_threshold(w0)), w0


from helpers import reference_measure as _reference_measure

_KETS = {0: ket_zero, 1: lambda l: single(l, [0, 1]), PLUS: ket_plus, MINUS: ket_minus}


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), max_size=3),
    data=st.data(),
    basis=st.sampled_from(["z", "x"]),
)
def test_measure_out_matches_the_collapsing_oracle(dims, data, basis):
    pos = data.draw(st.integers(0, len(dims)))
    dims = (*dims[:pos], 2, *dims[pos:])
    labels = tuple(f"s{i}" for i in range(len(dims)))
    state_seed, seed = data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(0, 2**32 - 1))
    psi = random_state(SubsystemLayout(dims, labels), np.random.default_rng(state_seed))
    rng, oracle_rng, measure_rng = (np.random.default_rng(seed) for _ in range(3))
    want, collapsed, want_prob = _reference_measure(psi, labels[pos], basis, oracle_rng)

    outcome, rest, prob = engine.measure_out(psi, labels[pos], basis, rng)
    assert (outcome, prob) == (want, want_prob)
    assert rest.layout.labels == labels[:pos] + labels[pos + 1 :]
    put_back = permute(tensor(rest, _KETS[outcome](labels[pos])), labels)
    assert np.abs(put_back.amps - collapsed.amps).max() < 1e-12
    assert rng.random() == oracle_rng.random()

    outcome, kept, prob = measure(psi, labels[pos], basis, measure_rng)
    assert (outcome, prob) == (want, want_prob)
    assert np.abs(kept.amps - collapsed.amps).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 3), max_size=6),
    pos=st.integers(0, 6),
    basis=st.sampled_from(["z", "x"]),
    block=st.sampled_from(_BLOCK_SIZES),
    state_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
)
@example(  # a last target after 9 columns: blocks of 4, 4 and the 1 left over
    dims=[3, 3], pos=2, basis="x", block=2, state_seed=1, seed=0
)
@example(  # a middle target read in place: 2 leading indices of 8 columns, in one matmul
    dims=[2, 2, 2, 2], pos=1, basis="x", block=None, state_seed=2, seed=1
)
@example(  # the same, with each leading index's 8 columns cut in two
    dims=[2, 2, 2, 2], pos=1, basis="x", block=7, state_seed=2, seed=1
)
def test_measure_out_matches_the_full_product_oracle(dims, pos, basis, block, state_seed, seed):
    # in X only the kept half of the rotated state is built, block by block
    pos = min(pos, len(dims))
    dims = (*dims[:pos], 2, *dims[pos:])
    labels = tuple(f"s{i}" for i in range(len(dims)))
    psi = random_state(SubsystemLayout(dims, labels), np.random.default_rng(state_seed))
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want, want_rest, want_prob = reference_measure_out(psi, labels[pos], basis, oracle_rng)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(engine, "_BLOCK_COLUMNS", block)
        outcome, rest, prob = engine.measure_out(psi, labels[pos], basis, rng)
    assert (outcome, prob) == (want, want_prob)
    assert rest.layout == want_rest.layout
    assert np.array_equal(rest.amps, want_rest.amps)


# ---------------------------------------------------------------------------
# project
# ---------------------------------------------------------------------------


def test_project_plus_zero_on_transit():
    psi = tensor(ket_plus("T"), ket_zero("E"))
    branch = project(psi, "T", 0)
    assert abs(branch.weight - 0.5) < 1e-12
    np.testing.assert_allclose(branch.amps, [INV_SQRT2, 0, 0, 0], atol=1e-15)


def test_project_orthogonal_gives_zero_weight():
    branch = project(ket_zero("q"), "q", 1)
    assert branch.weight == 0.0


def test_project_bell_first_qubit():
    branch = project(bell(), "q0", 0)
    assert abs(branch.weight - 0.5) < 1e-12
    np.testing.assert_allclose(branch.amps, [INV_SQRT2, 0, 0, 0], atol=1e-15)


def test_project_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        project(ket_zero("q"), "q", 2)


def test_born_completeness_both_bases():
    rng = np.random.default_rng(5)
    layout = SubsystemLayout((2, 2, 2), ("a", "b", "c"))
    for _ in range(50):
        psi = random_state(layout, rng)
        for target in ("a", "c"):
            w = project(psi, target, 0).weight + project(psi, target, 1).weight
            assert abs(w - 1) < 1e-9
            rotated = apply_unitary(psi, hadamard(), [target])
            w = project(rotated, target, 0).weight + project(rotated, target, 1).weight
            assert abs(w - 1) < 1e-9


# ---------------------------------------------------------------------------
# partial_trace
# ---------------------------------------------------------------------------


def test_partial_trace_product_state():
    rho = partial_trace(tensor(ket_plus("a"), ket_zero("b")), ["a"])
    expected = np.array([[0.5, 0.5], [0.5, 0.5]])
    np.testing.assert_allclose(rho.entries, expected, atol=1e-12)
    assert abs(purity(rho) - 1) < 1e-9


def test_partial_trace_bell_is_maximally_mixed():
    rho = partial_trace(bell(), ["q0"])
    np.testing.assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_parity_attack_state():
    # (1/2)[(|00>+|11>)|0> + (|01>+|10>)|1>]; keep the two leading qubits
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = amps[0b110] = amps[0b011] = amps[0b101] = 0.5
    psi = StateVector(SubsystemLayout((2, 2, 2), ("b0", "b1", "e")), amps)
    rho = partial_trace(psi, ["b0", "b1"])
    evals = np.sort(np.linalg.eigvalsh(rho.entries))
    np.testing.assert_allclose(evals, [0, 0, 0.5, 0.5], atol=1e-9)
    assert abs(purity(rho) - 0.5) < 1e-9
    # the product of its single-qubit marginals is strictly more mixed
    marg = np.kron(
        partial_trace(psi, ["b0"]).entries, partial_trace(psi, ["b1"]).entries
    )
    assert abs(purity(DensityMatrix(marg)) - 0.25) < 1e-9


def test_partial_trace_errors():
    psi = bell()
    with pytest.raises(EmptyKeepSet):
        partial_trace(psi, [])
    with pytest.raises(UnknownLabel):
        partial_trace(psi, ["zz"])


from helpers import oracle_partial_trace as _oracle_partial_trace


@pytest.mark.parametrize(
    "dims,keep",
    [
        ((2, 2), [0]),
        ((2, 2, 2), [1]),
        ((2, 3, 2), [0, 2]),
        ((4, 2, 2), [0]),
        ((2, 2, 2, 2), [1, 3]),
        ((2, 2, 2, 2, 2, 2), [0, 3, 4]),
        ((3, 3, 3), [2]),
    ],
)
def test_partial_trace_against_brute_force(dims, keep):
    rng = np.random.default_rng(hash(dims) % 2**32)
    labels = tuple(f"s{i}" for i in range(len(dims)))
    layout = SubsystemLayout(dims, labels)
    for _ in range(5):
        psi = random_state(layout, rng)
        got = partial_trace(psi, [labels[k] for k in keep])
        want = _oracle_partial_trace(psi.amps, dims, keep)
        assert np.abs(got.entries - want).max() < 1e-9


@settings(max_examples=40, deadline=None)
@given(dims=st.lists(st.integers(1, 3), min_size=1, max_size=4), data=st.data())
def test_partial_trace_matches_oracle_on_random_states(dims, data):
    # keep sets in any order; the result is in layout order either way
    keep = data.draw(st.lists(st.sampled_from(range(len(dims))), min_size=1, unique=True))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    labels = tuple(f"s{i}" for i in range(len(dims)))
    psi = random_state(SubsystemLayout(dims, labels), rng)
    got = partial_trace(psi, [labels[k] for k in keep])
    want = _oracle_partial_trace(psi.amps, dims, sorted(keep))
    assert np.abs(got.entries - want).max() < 1e-12


# ---------------------------------------------------------------------------
# trace_distance / purity
# ---------------------------------------------------------------------------


def test_trace_distance_basics():
    rho = partial_trace(bell(), ["q0"])
    assert trace_distance(rho, rho) == 0.0
    r0, r1, rp = (
        DensityMatrix(np.outer(a, a.conj()))
        for a in (ket_zero("q").amps, single("q", [0, 1]).amps, ket_plus("q").amps)
    )
    assert abs(trace_distance(r0, r1) - 1.0) < 1e-12
    assert abs(trace_distance(r0, rp) - math.sqrt(0.5)) < 1e-12


def test_trace_distance_dimension_mismatch():
    r2 = DensityMatrix(np.eye(2) / 2)
    r4 = DensityMatrix(np.eye(4) / 4)
    with pytest.raises(DimensionMismatch):
        trace_distance(r2, r4)


def _random_density(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m @ m.conj().T
    return DensityMatrix(m / np.trace(m).real)


def test_trace_distance_metric_axioms():
    rng = np.random.default_rng(31)
    for _ in range(60):
        a, b, c = (_random_density(4, rng) for _ in range(3))
        dab, dba = trace_distance(a, b), trace_distance(b, a)
        assert dab == dba  # symmetric by construction, bitwise
        assert dab >= 0.0
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-9


def test_trace_distances_have_the_bits_of_each_pair_alone():
    rng = np.random.default_rng(37)
    for dim in (1, 2, 3, 6):
        a = [_random_density(dim, rng) for _ in range(7)]
        b = [_random_density(dim, rng) for _ in range(7)]
        b[3] = a[3]
        sa, sb = (np.stack([r.entries for r in rs]) for rs in (a, b))
        got = trace_distances(sa, sb)
        assert got.tolist() == [trace_distance(x, y) for x, y in zip(a, b)]
        assert np.array_equal(got, trace_distances(sb, sa))
        assert got[3] == 0.0


def test_purity_bounds():
    rng = np.random.default_rng(41)
    a = ket_plus("q").amps
    assert abs(purity(DensityMatrix(np.outer(a, a.conj()))) - 1) < 1e-9
    assert abs(purity(DensityMatrix(np.eye(2) / 2)) - 0.5) < 1e-12
    for dim in (2, 3, 4):
        for _ in range(20):
            p = purity(_random_density(dim, rng))
            assert 1 / dim - 1e-9 <= p <= 1 + 1e-9


# ---------------------------------------------------------------------------
# layout manipulation helpers
# ---------------------------------------------------------------------------


def test_permute():
    psi = tensor(ket_zero("a"), ket_plus("b"))
    flipped = permute(psi, ["b", "a"])
    assert flipped.layout.labels == ("b", "a")
    np.testing.assert_allclose(
        flipped.amps, tensor(ket_plus("b"), ket_zero("a")).amps, atol=1e-15
    )


def test_factor_out_product_and_entangled():
    psi = tensor(ket_plus("a"), single("b", [0, 1]))
    phi, rest = factor_out(psi, "a")
    assert phase_deviation(phi, ket_plus("a")) < 1e-9
    assert phase_deviation(rest, single("b", [0, 1])) < 1e-9
    with pytest.raises(FactorizationError):
        factor_out(bell(), "q0")


@pytest.mark.parametrize(
    "error, call",
    [
        (DuplicateLabel, lambda: SubsystemLayout((2, 2), ("a", "b")).relabeled("a", "b")),
        (DimensionMismatch, lambda: StateVector(SubsystemLayout((2,), ("a",)), np.ones(3))),
        (DimensionMismatch, lambda: SubnormalizedVector(SubsystemLayout((2,), ("a",)), [1, 0, 0])),
        (DimensionMismatch, lambda: DensityMatrix(np.ones((2, 3)) / 2)),
        (DimensionMismatch, lambda: Unitary(np.eye(3)[:2])),
        (ValueError, lambda: measure(ket_plus("a"), "a", "y", np.random.default_rng(0))),
        (ValueError, lambda: measure_out(ket_plus("a"), "a", "", np.random.default_rng(0))),
        (DuplicateLabel, lambda: partial_trace(bell(), ["q0", "q0"])),
        (UnknownLabel, lambda: permute(bell(), ["q0", "q0"])),
        (UnknownLabel, lambda: permute(bell(), ["q0"])),
        (FactorizationError, lambda: factor_out(ket_zero("a"), "a")),
        (DimensionMismatch, lambda: phase_deviation(bell(), bell("q1", "q0"))),
    ],
    ids=[
        "relabel-onto-existing",
        "state-amp-count",
        "branch-amp-count",
        "nonsquare-density",
        "nonsquare-unitary",
        "basis-y",
        "basis-empty",
        "repeated-keep",
        "permute-repeat",
        "permute-short",
        "factor-only-subsystem",
        "phase-across-layouts",
    ],
)
def test_engine_refuses_malformed_input(error, call):
    with pytest.raises(error):
        call()
