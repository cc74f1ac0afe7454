"""Tests for entry distributions, seeding, and perturbation assembly."""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlaw import (
    BudgetViolationError,
    EntryDistribution,
    InvalidValueError,
    MatrixSample,
    PerturbationSpec,
    ShapeError,
    ValidationError,
    assemble,
    build_perturbation,
    derive_seed,
    numerical_rank,
    read_matrix_csv,
    sample_matrix,
    write_matrix_csv,
)
from circlaw import ensemble, spectral
from circlaw.ensemble import PERTURBATION_KINDS, RANK_TOLERANCE

ALL_KINDS = [
    "complex-gaussian",
    "real-gaussian",
    "rademacher",
    "complex-rademacher",
    "centered-bernoulli(0.3)",
    "centered-uniform",
]

# E|X|^4 per kind, used for the variance of the second-moment estimator
FOURTH_MOMENT = {
    "complex-gaussian": 2.0,
    "real-gaussian": 3.0,
    "rademacher": 1.0,
    "complex-rademacher": 1.0,
    "centered-bernoulli(0.3)": 0.49 / 0.3 + 0.09 / 0.7,
    "centered-uniform": 9.0 / 5.0,
}


def test_distribution_parse_round_trip():
    for text in ALL_KINDS:
        d = EntryDistribution.parse(text)
        assert str(d) == text
        assert EntryDistribution.parse(str(d)) == d


def test_distribution_parse_rejects_garbage():
    with pytest.raises(ValidationError):
        EntryDistribution.parse("gaussian")
    with pytest.raises(ValidationError):
        EntryDistribution.parse("centered-bernoulli(1.5)")
    with pytest.raises(ValidationError):
        EntryDistribution.parse("centered-bernoulli(0)")
    with pytest.raises(ValidationError):
        EntryDistribution.parse("centered-bernoulli(abc)")


def _reference_row(text, rng, n):
    """Row of n entries of the law `text`, written out from its definition.
    A complex law takes entry k's real and imaginary parts from draws 2k and
    2k+1 of the row's stream."""
    half = np.sqrt(0.5)
    if text == "complex-gaussian":
        g = rng.standard_normal((n, 2))
        return (g[:, 0] + 1j * g[:, 1]) * half
    if text == "real-gaussian":
        return rng.standard_normal(n)
    if text == "rademacher":
        return np.where(rng.integers(0, 2, n) == 1, 1.0, -1.0)
    if text == "complex-rademacher":
        s = np.where(rng.integers(0, 2, (n, 2)) == 1, 1.0, -1.0)
        return (s[:, 0] + 1j * s[:, 1]) * half
    if text == "centered-bernoulli(0.3)":
        p = 0.3
        return np.where(rng.random(n) < p, 1.0 - p, -p) / np.sqrt(p * (1.0 - p))
    assert text == "centered-uniform"
    return (2.0 * rng.random(n) - 1.0) * np.sqrt(3.0)


@pytest.mark.parametrize("text", ALL_KINDS)
def test_sampling_matches_reference_draws(text):
    """Row j of every law is its reference draw from the counter-based stream
    keyed by (seed, j), byte for byte."""
    d = EntryDistribution.parse(text)
    for n in (1, 7, 64):
        for seed in (0, 123, 2**64 - 1):
            x = sample_matrix(d, n, seed).entries
            for j in range(n):
                ss = np.random.SeedSequence(seed, spawn_key=(0, j))
                rng = np.random.Generator(np.random.Philox(ss))
                ref = np.asarray(_reference_row(text, rng, n), dtype=np.complex128)
                assert x[j].tobytes() == ref.tobytes(), (n, seed, j)


# sha256 of sample_matrix(law, 7, seed=11).entries, recorded when each row
# still built its own Philox bit generator; the bytes must never change.
GOLDEN_SAMPLE_SHA256 = {
    "complex-gaussian": "26542c0252d70957cedf3ba84ab05013b8307f4949824c8b2f88817b00638153",
    "real-gaussian": "86438657d727a8bd4904816be18c21fd275bee8284fc04498b6f922ea1f64370",
    "rademacher": "1f575f6f73d52e3468fa43eab3074dd0b8069b4b33852cf043ae942e0db1aa0a",
    "complex-rademacher": "9c6eb547046d3f85bcf52abc1518f47f9a077dbc5fef78746b7322b6b0738fb1",
    "centered-bernoulli(0.3)":
        "ceb1dc2d91cbece03256e990b7d6da51fcac556c0f1d3f92bbcc20c666594c10",
    "centered-uniform": "d0bb16eec55cd0aefc926938bd0954c1751b860e192bec3d06f53ea5d4b7f974",
}


@pytest.mark.parametrize("text", ALL_KINDS)
def test_sampling_matches_golden_bytes(text):
    entries = sample_matrix(EntryDistribution.parse(text), 7, seed=11).entries
    assert hashlib.sha256(entries.tobytes()).hexdigest() == GOLDEN_SAMPLE_SHA256[text]


@pytest.mark.parametrize("text", ALL_KINDS)
def test_drawing_into_a_buffer_gives_sample_matrix_bytes(text):
    """_draw writes sample_matrix's entries into a caller's buffer of
    either layout, whatever it held: a real law's imaginary parts are +0.0
    there too, not the buffer's old values."""
    d = EntryDistribution.parse(text)
    x = sample_matrix(d, 9, seed=31).entries
    for order in ("F", "C"):
        out = np.full((9, 9), np.nan + 7j, dtype=np.complex128, order=order)
        assert ensemble._draw(d, 31, out) is out
        assert np.ascontiguousarray(out).tobytes() == x.tobytes(), order
        if d.kind in ("real-gaussian", "rademacher", "centered-bernoulli",
                      "centered-uniform"):
            assert not np.signbit(out.imag).any() and not out.imag.any()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 123456789012345])
def test_row_keys_are_the_rows_seed_sequence_states(seed):
    keys = ensemble._row_keys(seed, 2000)
    assert keys.shape == (2000, 2) and keys.dtype == np.uint64
    for j in (*range(40), 1023, 1999):
        ref = np.random.SeedSequence(seed, spawn_key=(0, j)).generate_state(2, np.uint64)
        assert keys[j].tobytes() == ref.tobytes(), j


def test_sampling_is_bitwise_deterministic():
    for kind in ALL_KINDS:
        d = EntryDistribution.parse(kind)
        a = sample_matrix(d, 9, seed=123).entries
        b = sample_matrix(d, 9, seed=123).entries
        assert a.tobytes() == b.tobytes()
        c = sample_matrix(d, 9, seed=124).entries
        assert not np.array_equal(a, c)


def test_sampling_prefix_stability():
    """Entry (j, k) depends only on the seed, not on the matrix size."""
    for kind in ALL_KINDS:
        d = EntryDistribution.parse(kind)
        small = sample_matrix(d, 5, seed=77).entries
        big = sample_matrix(d, 8, seed=77).entries
        assert np.array_equal(small, big[:5, :5])


def test_sampling_rejects_bad_dimension():
    d = EntryDistribution.parse("complex-gaussian")
    with pytest.raises(ShapeError):
        sample_matrix(d, 0, seed=1)
    with pytest.raises(ShapeError):
        sample_matrix(d, -3, seed=1)


def test_entries_are_standardized():
    """Mean 0 and unit second moment within 4 standard errors at 1e6 draws."""
    for kind in ALL_KINDS:
        d = EntryDistribution.parse(kind)
        x = sample_matrix(d, 1000, seed=101).entries
        n_draws = x.size
        mean = np.mean(x)
        second = float(np.mean(np.abs(x) ** 2))
        assert abs(mean) <= 4.0 / np.sqrt(n_draws), kind
        var4 = FOURTH_MOMENT[kind] - 1.0
        if var4 == 0.0:
            assert abs(second - 1.0) <= 1e-12, kind
        else:
            assert abs(second - 1.0) <= 4.0 * np.sqrt(var4 / n_draws), kind


def test_rademacher_support():
    d = EntryDistribution.parse("rademacher")
    x = sample_matrix(d, 40, seed=3).entries
    assert np.all(np.isin(x, [-1.0, 1.0]))
    assert np.isrealobj(x) or np.all(x.imag == 0.0)


def test_complex_rademacher_support():
    d = EntryDistribution.parse("complex-rademacher")
    x = sample_matrix(d, 40, seed=3).entries
    r = np.sqrt(0.5)
    assert np.all(np.isin(x.real, [-r, r]))
    assert np.all(np.isin(x.imag, [-r, r]))


def test_centered_uniform_support():
    d = EntryDistribution.parse("centered-uniform")
    x = sample_matrix(d, 60, seed=9).entries
    lim = np.sqrt(3.0)
    assert np.all(np.abs(x.real) <= lim)
    assert np.all(x.imag == 0.0)


def test_centered_bernoulli_support():
    p = 0.3
    d = EntryDistribution.parse(f"centered-bernoulli({p})")
    x = sample_matrix(d, 60, seed=9).entries.real
    hi = (1.0 - p) / np.sqrt(p * (1.0 - p))
    lo = -p / np.sqrt(p * (1.0 - p))
    vals = np.unique(x)
    assert vals.size == 2
    assert np.allclose(sorted(vals), [lo, hi], rtol=0, atol=1e-15)


def test_derive_seed_is_pure_and_spreads():
    assert derive_seed(42, 3, 1) == derive_seed(42, 3, 1)
    seen = {derive_seed(42, n, r) for n in range(4) for r in range(4)}
    assert len(seen) == 16
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)


def test_numerical_rank_examples():
    assert numerical_rank(np.zeros((5, 5))) == 0
    assert numerical_rank(np.eye(6)) == 6
    assert numerical_rank(np.ones((4, 4))) == 1


@pytest.mark.parametrize("m, error", [
    ([[float("inf"), 1.0], [1.0, 1.0]], InvalidValueError),
    ([[float("nan")]], InvalidValueError),
    (np.ones(3), ShapeError),
])
def test_numerical_rank_checks_its_matrix(m, error):
    """The input rule of spectral's functions, where an unchecked SVD gave
    rank 0 for an inf entry and numpy's raw LinAlgError for the others."""
    with pytest.raises(error):
        numerical_rank(m)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_numerical_rank_of_an_empty_matrix_is_zero_without_an_svd(monkeypatch, shape):
    monkeypatch.setattr(np.linalg, "svd", None)
    assert numerical_rank(np.zeros(shape)) == 0


def _product(p):
    """A perturbation's M as the product U V* of its factors."""
    return p.u @ p.vh


def test_zero_perturbation():
    p = build_perturbation(PerturbationSpec("zero"), 5)
    m = _product(p)
    assert (p.dim, p.rank) == (5, 0)
    assert (p.u.shape, p.vh.shape) == ((5, 0), (0, 5))
    assert m.shape == (5, 5)
    assert np.all(m == 0.0)
    assert numerical_rank(m) == 0


def test_all_ones_perturbation_budgets():
    n = 7
    p = build_perturbation(PerturbationSpec("all-ones"), n)
    m = _product(p)
    assert p.rank == 1
    assert (p.u.shape, p.vh.shape) == ((n, 1), (1, n))
    assert np.all(m == 1.0)
    assert numerical_rank(m) == 1
    s1 = np.linalg.svd(m, compute_uv=False)[0]
    assert abs(s1 - n) <= 1e-12 * n
    # sum of n^2 ones is exact in floating point
    assert float(np.sum(np.abs(m) ** 2)) == n * n


def test_all_ones_scale():
    m = _product(build_perturbation(PerturbationSpec("all-ones", scale=2.5), 4))
    assert np.all(m == 2.5)


def test_low_rank_perturbation():
    left = [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)]
    right = [(0.0, 0.0, 2.0, 0.0), (0.0, 0.0, 0.0, 3.0)]
    spec = PerturbationSpec("low-rank", left_factors=left, right_factors=right)
    p = build_perturbation(spec, 4)
    m = _product(p)
    assert p.rank == 2
    assert (p.u.shape, p.vh.shape) == ((4, 2), (2, 4))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = 2.0
    expected[1, 3] = 3.0
    assert np.array_equal(m, expected)
    s = np.linalg.svd(m, compute_uv=False)
    assert s[2] <= 1e-10 * s[0]
    assert numerical_rank(m) == 2


def test_low_rank_factor_length_mismatch():
    spec = PerturbationSpec("low-rank", left_factors=[(1.0, 2.0)],
                            right_factors=[(1.0, 2.0)])
    with pytest.raises(ShapeError):
        build_perturbation(spec, 3)


def test_low_rank_requires_matching_factor_lists():
    with pytest.raises(ValidationError):
        PerturbationSpec("low-rank", left_factors=[(1.0,)], right_factors=[])
    with pytest.raises(ValidationError):
        PerturbationSpec("low-rank", left_factors=[], right_factors=[])


def test_file_requires_path():
    with pytest.raises(ValidationError):
        PerturbationSpec("file")


def test_negative_rank_budget_rejected():
    for budget in (-1, 1.5, True, "1"):
        with pytest.raises(ValidationError, match="rank_budget"):
            PerturbationSpec("zero", rank_budget=budget)
    with pytest.raises(ValidationError, match="rank_budget"):
        PerturbationSpec("low-rank", left_factors=[(1.0,)], right_factors=[(1.0,)],
                         rank_budget=1.5)


@pytest.mark.parametrize("c", [float("nan"), -1.0, -float("inf")])
def test_hs_budget_coefficient_must_be_nonnegative(c):
    with pytest.raises(ValidationError, match="hs_budget_coefficient"):
        PerturbationSpec("zero", hs_budget_coefficient=c)
    with pytest.raises(ValidationError, match="hs_budget_coefficient"):
        PerturbationSpec("file", path="m.csv", hs_budget_coefficient=c)


def test_hs_budget_coefficient_inf_is_unbounded():
    spec = PerturbationSpec("all-ones", scale=100.0, hs_budget_coefficient=float("inf"))
    assert build_perturbation(spec, 4).rank == 1


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    back = read_matrix_csv(path, 3)
    assert np.array_equal(m, back)


def test_matrix_csv_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("1,1,1.0,0.0\n1,1,2.0,0.0\n")
    with pytest.raises(ValidationError):
        read_matrix_csv(path, 2)


def test_matrix_csv_rejects_out_of_range(tmp_path):
    path = tmp_path / "oob.csv"
    path.write_text("3,1,1.0,0.0\n")
    with pytest.raises(ShapeError):
        read_matrix_csv(path, 2)


def test_matrix_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,1,abc,0.0\n")
    with pytest.raises(ValidationError):
        read_matrix_csv(path, 2)


def test_matrix_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1,1,inf,0.0\n")
    with pytest.raises(InvalidValueError):
        read_matrix_csv(path, 2)


def test_file_perturbation_rank_budget_enforced(tmp_path):
    path = tmp_path / "rank2.csv"
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = 1.0
    m[1, 1] = 1.0
    write_matrix_csv(path, m)
    spec = PerturbationSpec("file", path=path, rank_budget=1)
    with pytest.raises(BudgetViolationError):
        build_perturbation(spec, 3)
    ok = PerturbationSpec("file", path=path, rank_budget=2)
    realized = build_perturbation(ok, 3)
    assert np.array_equal(_product(realized), m)
    assert realized.rank == 2


def test_hs_budget_enforced(tmp_path):
    path = tmp_path / "big.csv"
    n = 3
    m = np.full((n, n), 2.0, dtype=complex)
    write_matrix_csv(path, m)
    # ||M||^2 = 4 n^2 exceeds c n^2 for c = 1
    spec = PerturbationSpec("file", path=path, hs_budget_coefficient=1.0)
    with pytest.raises(BudgetViolationError):
        build_perturbation(spec, n)
    ok = PerturbationSpec("file", path=path, hs_budget_coefficient=4.0)
    _assert_truncation_of(build_perturbation(ok, n), m)


def _assert_truncation_of(p, m):
    """U V* is M's rank-r truncation: within RANK_TOLERANCE * s1 of M in
    operator norm."""
    s1 = np.linalg.norm(m, 2)
    assert np.linalg.norm(_product(p) - m, 2) <= RANK_TOLERANCE * s1


def _complex_vectors(seed, count, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))


def _rank2_file(tmp_path, n=5):
    u, v = _complex_vectors(11, 2, n), _complex_vectors(12, 2, n)
    path = tmp_path / "rank2.csv"
    write_matrix_csv(path, u.T @ v.conj())
    return PerturbationSpec("file", path=path)


def _full_rank_file(tmp_path, n=5):
    path = tmp_path / "full.csv"
    write_matrix_csv(path, _complex_vectors(13, n, n))
    return PerturbationSpec("file", path=path)


_U, _V = _complex_vectors(3, 2, 6)


def _low_rank(seed, k, n):
    left, right = np.split(_complex_vectors(seed, 2 * k, n), 2)
    return PerturbationSpec("low-rank", left_factors=left, right_factors=right)


# case -> (spec from tmp_path, n, rank of the realized M)
STRUCTURAL_CASES = {
    "zero": (lambda tmp: PerturbationSpec("zero"), 6, 0),
    "ones-scale-0": (lambda tmp: PerturbationSpec("all-ones", scale=0.0), 6, 0),
    "ones-scale-neg-0": (lambda tmp: PerturbationSpec("all-ones", scale=-0.0), 6, 0),
    "ones-scale-2.5": (lambda tmp: PerturbationSpec("all-ones", scale=2.5), 6, 1),
    "ones-scale-1e-300": (lambda tmp: PerturbationSpec("all-ones", scale=1e-300), 6, 1),
    "low-rank-independent": (lambda tmp: _low_rank(4, 2, 6), 6, 2),
    "low-rank-parallel": (
        lambda tmp: PerturbationSpec(
            "low-rank", left_factors=[_U, (1 - 2j) * _U], right_factors=[_V, _V]),
        6, 1
    ),
    "low-rank-k-equals-n": (lambda tmp: _low_rank(5, 6, 6), 6, 6),
    "file": (_rank2_file, 5, 2),
    "file-full-rank": (_full_rank_file, 5, 5),
}


def _dense_oracle(spec, n):
    """M built densely from the spec alone, without its factors."""
    if spec.kind == "all-ones":
        return np.full((n, n), complex(spec.scale))
    if spec.kind == "low-rank":
        u = np.array(spec.left_factors, dtype=complex)
        v = np.array(spec.right_factors, dtype=complex)
        return u.T @ v.conj()
    if spec.kind == "file":
        return read_matrix_csv(spec.path, n)
    return np.zeros((n, n), dtype=complex)


def test_file_perturbation_is_read_once(tmp_path):
    """A file M is parsed when the perturbation is built and kept read-only."""
    spec = _rank2_file(tmp_path)
    p = build_perturbation(spec, 5)
    m = read_matrix_csv(tmp_path / "rank2.csv", 5)
    (tmp_path / "rank2.csv").unlink()
    assert not p.u.flags.writeable and not p.vh.flags.writeable
    _assert_truncation_of(p, m)
    assert numerical_rank(_product(p)) == p.rank == 2


@pytest.mark.parametrize("case", sorted(STRUCTURAL_CASES))
def test_structural_rank_matches_dense_rank(case, tmp_path):
    """U V* is the M built densely without the factors, within
    RANK_TOLERANCE * s1, and the rank and HS norm from the k-by-k core are
    the dense numerical rank and sum of |m_ij|^2: the HS budget binds where
    the dense sum says it should."""
    make_spec, n, expected = STRUCTURAL_CASES[case]
    spec = make_spec(tmp_path)
    m = _dense_oracle(spec, n)
    p = build_perturbation(spec, n)
    assert p.u.shape == p.vh.T.shape == (n, p.u.shape[1])
    _assert_truncation_of(p, m)
    assert p.rank == numerical_rank(m) == expected
    hs = float(np.sum(np.abs(m) ** 2))
    c = hs / (n * n)
    build_perturbation(dataclasses.replace(spec, hs_budget_coefficient=c * (1 + 1e-9)), n)
    if hs > 0:
        with pytest.raises(BudgetViolationError, match=r"exceeds c\*n\^2"):
            build_perturbation(
                dataclasses.replace(spec, hs_budget_coefficient=c * (1 - 1e-9)), n)


def test_rank_budget_checked_against_structural_rank():
    ones = PerturbationSpec("all-ones", rank_budget=0)
    with pytest.raises(BudgetViolationError, match="rank 1, declared budget 0"):
        build_perturbation(ones, 4)
    zero_ones = PerturbationSpec("all-ones", scale=0.0, rank_budget=0)
    assert build_perturbation(zero_ones, 4).rank == 0
    rank2 = dataclasses.replace(_low_rank(6, 2, 5), rank_budget=1)
    with pytest.raises(BudgetViolationError, match="rank 2, declared budget 1"):
        build_perturbation(rank2, 5)
    parallel = PerturbationSpec("low-rank", left_factors=[_U, 2 * _U],
                                right_factors=[_V, _V], rank_budget=1)
    assert build_perturbation(parallel, 6).rank == 1


def test_replaced_spec_builds_from_its_new_fields():
    """A spec holds no value derived from another field, so a copy made by
    dataclasses.replace carries no stale budget or k."""
    ones = dataclasses.replace(PerturbationSpec("all-ones"), scale=3.0)
    assert build_perturbation(ones, 4).rank == 1
    two_pairs = _low_rank(4, 2, 5)
    spec = dataclasses.replace(_low_rank(3, 1, 5), left_factors=two_pairs.left_factors,
                               right_factors=two_pairs.right_factors)
    assert build_perturbation(spec, 5).rank == 2


_ENTRY = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _budgetless_case(draw):
    """(kind, n, value): the scale of all-ones, the left and right factors
    (k <= n pairs) of low-rank, the matrix rows of file, None for zero."""
    kind = draw(st.sampled_from(PERTURBATION_KINDS))
    n = draw(st.integers(1, 6))

    def rows(count):
        return st.lists(st.lists(_ENTRY, min_size=n, max_size=n),
                        min_size=count, max_size=count)

    if kind == "all-ones":
        return kind, n, draw(st.floats(-1e150, 1e150))
    if kind == "low-rank":
        k = draw(st.integers(1, n))
        return kind, n, (draw(rows(k)), draw(rows(k)))
    return kind, n, draw(rows(n)) if kind == "file" else None


@given(case=_budgetless_case())
@example(case=("all-ones", 4, -0.0))
@example(case=("all-ones", 4, 1e-300))
@example(case=("all-ones", 4, 1e150))
@settings(max_examples=200, deadline=None)
def test_spec_with_no_budget_never_violates_one(case, tmp_path_factory):
    """A spec of any kind with both budgets left out builds, and so does
    the same spec given the budgets its factors imply (zero: rank 0 and
    c = 0; all-ones: rank 1 and c = scale^2; low-rank: rank k), so leaving
    a budget out loses no verdict."""
    kind, n, value = case
    keywords, implied = {}, {"rank_budget": 0, "hs_budget_coefficient": 0.0}
    if kind == "all-ones":
        keywords = {"scale": value}
        implied = {"rank_budget": 1, "hs_budget_coefficient": value * value}
    elif kind == "low-rank":
        keywords = {"left_factors": value[0], "right_factors": value[1]}
        implied = {"rank_budget": len(value[0])}
    elif kind == "file":
        path = tmp_path_factory.mktemp("m") / "m.csv"
        write_matrix_csv(path, np.array(value))
        keywords, implied = {"path": path}, {}
    spec = PerturbationSpec(kind, **keywords)
    assert (spec.rank_budget, spec.hs_budget_coefficient) == (None, None)
    rank = build_perturbation(spec, n).rank
    assert build_perturbation(dataclasses.replace(spec, **implied), n).rank == rank


def test_perturbation_whose_norm_overflows_is_rejected():
    """An all-ones scale near the float maximum puts ||M|| past it: the QR
    core is not finite, and the spec is rejected rather than given rank 0."""
    with pytest.raises(InvalidValueError, match="all-ones perturbation: .*overflows"):
        build_perturbation(PerturbationSpec("all-ones", scale=1.7e308), 4)
    assert build_perturbation(PerturbationSpec("all-ones", scale=1e300), 4).rank == 1


def test_file_factors_equal_at_one_and_two_ambient_threads(rank3_csv, at_ambient_threads):
    n = 200
    spec = PerturbationSpec("file", path=rank3_csv(n))

    def factor_bytes():
        p = build_perturbation(spec, n)
        return p.u.tobytes(), p.vh.tobytes()

    assert at_ambient_threads(1, factor_bytes) == at_ambient_threads(2, factor_bytes)


def test_each_qr_and_svd_pins_by_its_own_matrix(rank3_csv, monkeypatch, at_ambient_threads):
    """Each call pins itself, whatever its matrix's size: at two ambient
    threads the file SVD, the QRs and the 3-by-3 core's SVD all run on one
    BLAS thread, at n = 6 and at n = 8 alike."""
    get_threads = spectral._openblas()[0]
    calls = []

    def recording(name):
        fn = getattr(np.linalg, name)

        def record(a, *args, **kwargs):
            calls.append((name, max(a.shape), get_threads()))
            return fn(a, *args, **kwargs)

        return record

    for name in ("qr", "svd"):
        monkeypatch.setattr(np.linalg, name, recording(name))
    spec = PerturbationSpec("file", path=rank3_csv(6))
    for n in (6, 8):
        at_ambient_threads(2, lambda: build_perturbation(spec, n))
    assert calls == [("svd", 6, 1), ("qr", 6, 1), ("qr", 6, 1), ("svd", 3, 1),
                     ("svd", 8, 1), ("qr", 8, 1), ("qr", 8, 1), ("svd", 3, 1)]


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_scale_rejected(scale):
    with pytest.raises(ValidationError, match="finite"):
        PerturbationSpec("all-ones", scale=scale)


@pytest.mark.parametrize("bad", [float("nan"), complex(0.0, float("inf"))])
def test_non_finite_factor_entry_rejected(bad):
    with pytest.raises(ValidationError, match="finite"):
        PerturbationSpec("low-rank", left_factors=[(1.0, bad)],
                         right_factors=[(1.0, 1.0)])


@pytest.mark.parametrize("side", ["left_factors", "right_factors"])
@pytest.mark.parametrize("bad", [10**400, "x", "1", True],
                         ids=["huge", "str", "numeric-str", "bool"])
def test_bad_factor_entry_rejected(side, bad):
    factors = {"left_factors": [(1.0, 1.0)], "right_factors": [(1.0, 1.0)]}
    factors[side] = [(1.0, bad)]
    with pytest.raises(ValidationError, match=side):
        PerturbationSpec("low-rank", **factors)


def test_assemble_scaling_and_shift():
    """x = 0, m = all ones, n = 4: b has constant entries 1/2."""
    d = EntryDistribution.parse("complex-gaussian")
    x = sample_matrix(d, 4, seed=0)
    x = type(x)(dim=4, entries=np.zeros((4, 4), dtype=complex), seed=0,
                distribution=d)
    pair = assemble(x, build_perturbation(PerturbationSpec("all-ones"), 4))
    assert np.all(pair.a_matrix == 0.0)
    assert np.all(pair.b_matrix == 0.5)
    assert pair.perturbation_rank == 1
    eig = np.sort(np.abs(np.linalg.eigvals(pair.b_matrix)))[::-1]
    assert abs(eig[0] - 2.0) <= 1e-12
    assert np.all(eig[1:] <= 1e-12)


def test_assemble_zero_perturbation_identity():
    d = EntryDistribution.parse("complex-gaussian")
    x = sample_matrix(d, 6, seed=2)
    pair = assemble(x, build_perturbation(PerturbationSpec("zero"), 6))
    assert np.array_equal(pair.a_matrix, pair.b_matrix)
    assert pair.perturbation_rank == 0


def test_assemble_rejects_shape_mismatch():
    d = EntryDistribution.parse("complex-gaussian")
    x = sample_matrix(d, 4, seed=2)
    with pytest.raises(ShapeError, match="perturbation dim 3"):
        assemble(x, build_perturbation(PerturbationSpec("all-ones"), 3))


def test_perturbed_and_scaled_spend_x_into_the_assembled_pair():
    """perturbed forms B in a new array and leaves X as it was, and scaled
    turns X's own array into A; the results are assemble's pair, byte for
    byte."""
    d = EntryDistribution.parse("complex-gaussian")
    p = build_perturbation(PerturbationSpec("all-ones", scale=0.7), 9)
    pair = assemble(sample_matrix(d, 9, seed=4), p)
    x = sample_matrix(d, 9, seed=4)
    b = ensemble.perturbed(x, p)
    assert b is not x.entries
    assert x.entries.tobytes() == sample_matrix(d, 9, seed=4).entries.tobytes()
    assert b.tobytes() == pair.b_matrix.tobytes()
    x = sample_matrix(d, 9, seed=4)
    a = ensemble.scaled(x)
    assert a is x.entries
    assert a.tobytes() == pair.a_matrix.tobytes()
    with pytest.raises(ShapeError, match="perturbation dim 8"):
        ensemble.perturbed(x, build_perturbation(PerturbationSpec("zero"), 8))


def test_assemble_exact_linearity_in_perturbation():
    """With n = 16 the 1/sqrt(n) scaling is a power of two, so doubling the
    perturbation shifts b by exactly m/4."""
    d = EntryDistribution.parse("rademacher")
    p1 = assemble(sample_matrix(d, 16, seed=5),
                  build_perturbation(PerturbationSpec("all-ones"), 16))
    p2 = assemble(sample_matrix(d, 16, seed=5),
                  build_perturbation(PerturbationSpec("all-ones", scale=2.0), 16))
    assert np.all(p2.b_matrix - p1.b_matrix == 0.25)
    assert np.array_equal(p2.a_matrix, p1.a_matrix)


def test_assemble_generic_linearity(tmp_path):
    d = EntryDistribution.parse("complex-gaussian")
    rng = np.random.default_rng(4)
    m = (rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    write_matrix_csv(tmp_path / "m.csv", m)
    dense = build_perturbation(PerturbationSpec("file", path=tmp_path / "m.csv"), 10)
    base = assemble(sample_matrix(d, 10, seed=8),
                    build_perturbation(PerturbationSpec("zero"), 10)).b_matrix
    shifted = assemble(sample_matrix(d, 10, seed=8), dense).b_matrix
    assert np.allclose(shifted - base, m / np.sqrt(10.0), rtol=1e-13, atol=0)


def _low_rank_spec(n, k=2, seed=7, **budgets):
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal((2, k, n)) + 1j * rng.standard_normal((2, k, n))
    return PerturbationSpec("low-rank", left_factors=u, right_factors=v, **budgets)


@pytest.mark.parametrize("make_spec", [
    lambda n: PerturbationSpec("zero"),
    lambda n: PerturbationSpec("all-ones", scale=2.0),
    _low_rank_spec,
], ids=["zero", "all-ones", "low-rank"])
def test_build_perturbation_allocates_no_dense_matrix(traced_peak, make_spec):
    """Rank and HS norm come from the structure; only a file M is dense."""
    n = 200
    spec = make_spec(n)
    assert traced_peak(build_perturbation, spec, n) < n * n * 16 / 4


@pytest.mark.parametrize("make_spec", [
    lambda tmp_path, n: PerturbationSpec("zero"),
    lambda tmp_path, n: PerturbationSpec("all-ones", scale=2.0),
    lambda tmp_path, n: _low_rank_spec(n),
    _rank2_file,
    _full_rank_file,
], ids=["zero", "all-ones", "low-rank", "file", "file-full-rank"])
def test_assemble_adds_no_dense_structured_matrix(tmp_path, traced_peak, make_spec):
    """U V* is formed in B's own array and A is X's own buffer: assemble
    allocates B alone, with no n-by-n M or A beside it."""
    n = 200
    x = sample_matrix(EntryDistribution.parse("complex-gaussian"), n, seed=1)
    p = build_perturbation(make_spec(tmp_path, n), n)
    assert traced_peak(assemble, x, p) < 1.25 * n * n * 16


def _file_perturbation(tmp_path, n):
    rng = np.random.default_rng(11)
    write_matrix_csv(tmp_path / "m.csv",
                     rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return build_perturbation(PerturbationSpec("file", path=tmp_path / "m.csv"), n)


@pytest.mark.parametrize("make_perturbation", [
    lambda tmp_path, n: build_perturbation(PerturbationSpec("zero"), n),
    lambda tmp_path, n: build_perturbation(PerturbationSpec("all-ones", scale=2.5), n),
    lambda tmp_path, n: build_perturbation(_low_rank_spec(n), n),
    _file_perturbation,
], ids=["zero", "all-ones", "low-rank", "file"])
def test_assemble_spends_x_into_a_with_reference_bytes(tmp_path, make_perturbation):
    """A is x * s in X's own buffer and B is (x + M) * s, s = 1/sqrt(n),
    byte for byte against X as it was before the call."""
    n = 37
    p = make_perturbation(tmp_path, n)
    x = sample_matrix(EntryDistribution.parse("complex-gaussian"), n, seed=4)
    before = x.entries.copy()
    s = 1.0 / np.sqrt(float(n))
    pair = assemble(x, p)
    assert pair.a_matrix is x.entries
    assert pair.a_matrix.tobytes() == (before * s).tobytes()
    assert pair.b_matrix.tobytes() == ((before + _product(p)) * s).tobytes()


@pytest.mark.parametrize("entries", [
    np.arange(16.0).reshape(4, 4) - 7.5,
    np.arange(16).reshape(4, 4) - 7,
], ids=["float64", "int64"])
def test_matrix_sample_stores_complex128(entries):
    """Real or integer entries are stored as their complex128 values; a
    complex128 array is kept as it is."""
    x = MatrixSample(dim=4, entries=entries, seed=0,
                     distribution=EntryDistribution.parse("real-gaussian"))
    assert x.entries.dtype == np.complex128
    assert np.array_equal(x.entries, entries)
    same = np.asarray(entries, np.complex128)
    assert MatrixSample(dim=4, entries=same, seed=0,
                        distribution=x.distribution).entries is same


def test_matrix_sample_accepts_a_transposed_sample():
    """A transpose, whose rows are not contiguous, is copied once into a
    C-contiguous array with its values, and assemble spends the copy."""
    d = EntryDistribution.parse("complex-gaussian")
    xt = sample_matrix(d, 4, seed=6).entries.T
    x = MatrixSample(dim=4, entries=xt, seed=6, distribution=d)
    assert x.entries.flags.c_contiguous and np.array_equal(x.entries, xt)
    before = xt.copy()
    pair = assemble(x, build_perturbation(PerturbationSpec("all-ones"), 4))
    assert np.array_equal(xt, before)
    assert pair.a_matrix.tobytes() == (before * 0.5).tobytes()
    assert pair.b_matrix.tobytes() == ((before + 1.0) * 0.5).tobytes()


def test_assemble_copies_read_only_entries_once():
    """A read-only X is copied when the sample is made, so assemble can
    spend the copy and the caller's array keeps its values."""
    d = EntryDistribution.parse("complex-gaussian")
    frozen = sample_matrix(d, 5, seed=2).entries
    frozen.flags.writeable = False
    before = frozen.copy()
    pair = assemble(MatrixSample(dim=5, entries=frozen, seed=2, distribution=d),
                    build_perturbation(PerturbationSpec("zero"), 5))
    assert np.array_equal(frozen, before)
    assert pair.a_matrix.tobytes() == (before * (1.0 / np.sqrt(5.0))).tobytes()


def test_assemble_zero_bytes_match_dense_sum():
    """X + 0j rounds like X + zeros: both turn a -0.0 part into +0.0."""
    n = 4
    d = EntryDistribution.parse("real-gaussian")
    entries = sample_matrix(d, n, seed=3).entries.copy()
    entries[0, 0] = complex(-0.0, -0.0)
    x = MatrixSample(dim=n, entries=entries, seed=3, distribution=d)
    p = build_perturbation(PerturbationSpec("zero"), n)
    dense = (x.entries + np.zeros((n, n), dtype=complex)) * (1.0 / np.sqrt(float(n)))
    assert assemble(x, p).b_matrix.tobytes() == dense.tobytes()


@pytest.mark.parametrize("dist", ["complex-gaussian", "real-gaussian"])
@pytest.mark.parametrize("scale", [1.0, -2.5, 0.0, -0.0, 1e-3])
def test_assemble_all_ones_bytes_match_full_reference(dist, scale):
    """B has the bytes of X + np.full(scale), a -0.0 entry included. U V*
    is zero-filled before the scale is added, so a -0.0 scale gives the M of
    +0.0: the sign of a zero scale does not reach M."""
    n = 9
    d = EntryDistribution.parse(dist)
    entries = sample_matrix(d, n, seed=3).entries.copy()
    entries[0, 0] = complex(-0.0, -0.0)
    x = MatrixSample(dim=n, entries=entries, seed=3, distribution=d)
    p = build_perturbation(PerturbationSpec("all-ones", scale=scale), n)
    m = np.full((n, n), complex(scale + 0.0))
    dense = (entries + m) * (1.0 / np.sqrt(float(n)))
    assert assemble(x, p).b_matrix.tobytes() == dense.tobytes()


@pytest.mark.parametrize("make_spec", [
    lambda n, c: PerturbationSpec("all-ones", scale=-1.5, hs_budget_coefficient=c),
    lambda n, c: _low_rank_spec(n, hs_budget_coefficient=c),
], ids=["all-ones", "low-rank"])
def test_structural_hs_norm_matches_dense(make_spec):
    """The HS budget binds where the dense ||M||^2 says it should."""
    n = 30
    m = _dense_oracle(make_spec(n, None), n)
    c = float(np.sum(np.abs(m) ** 2)) / (n * n)
    build_perturbation(make_spec(n, c * (1 + 1e-9)), n)
    with pytest.raises(BudgetViolationError, match=r"exceeds c\*n\^2"):
        build_perturbation(make_spec(n, c * (1 - 1e-9)), n)


@pytest.mark.parametrize("dist", ["complex-gaussian", "real-gaussian"])
@pytest.mark.parametrize("scale", [1.0, -2.5, 0.0, 1e-3])
def test_assemble_all_ones_bytes_match_dense_sum(dist, scale):
    """Adding the all-ones scale as a scalar gives the bytes of X + M."""
    n = 9
    x = sample_matrix(EntryDistribution.parse(dist), n, seed=3)
    p = build_perturbation(PerturbationSpec("all-ones", scale=scale), n)
    dense = (x.entries + _product(p)) * (1.0 / np.sqrt(float(n)))
    assert assemble(x, p).b_matrix.tobytes() == dense.tobytes()


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
