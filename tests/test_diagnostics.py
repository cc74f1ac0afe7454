"""Tests for log-determinant gap diagnostics, scaling fits, and identities."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from circlaw import (
    BumpFunction,
    DeltaDiagnostics,
    DomainError,
    EntryDistribution,
    InvalidValueError,
    MatrixSample,
    PerturbationSpec,
    Rectangle,
    ShapeError,
    ValidationError,
    ZGrid,
    aggregate_scaling,
    assemble,
    build_perturbation,
    constant_case,
    delta_at,
    delta_row,
    delta_scan,
    disk_record,
    eigenvalues,
    green_identity_residual,
    run_lemma_trials,
    sample_matrix,
    verify_rank_inequality,
)
from circlaw import diagnostics, spectral
from circlaw.harness import write_scaling_csv

CG = EntryDistribution.parse("complex-gaussian")


def make_pair(n, seed, spec=None, dist=CG):
    x = sample_matrix(dist, n, seed)
    return assemble(x, build_perturbation(spec or PerturbationSpec("all-ones"), n))


def test_zgrid_points_order_and_count():
    g = ZGrid((0.0, 1.0), (0.0, 1.0), 1.0)
    assert len(g) == 4
    assert np.array_equal(g.points(), [0.0, 1.0, 1.0j, 1.0 + 1.0j])


def test_zgrid_non_divisible_span():
    g = ZGrid((0.0, 0.9), (0.0, 0.0), 0.2)
    pts = g.points()
    assert len(g) == 5
    assert np.allclose(pts.real, [0.0, 0.2, 0.4, 0.6, 0.8], atol=1e-12)


def test_zgrid_singleton():
    g = ZGrid((0.5, 0.5), (0.5, 0.5), 1.0)
    assert len(g) == 1
    assert g.points()[0] == 0.5 + 0.5j


def test_zgrid_validation():
    with pytest.raises(ValidationError):
        ZGrid((0.0, 1.0), (0.0, 1.0), 0.0)
    with pytest.raises(ValidationError):
        ZGrid((1.0, 0.0), (0.0, 1.0), 0.5)
    with pytest.raises(ValidationError):
        ZGrid((0.0, float("inf")), (0.0, 1.0), 0.5)


def test_zgrid_point_bound():
    """Each axis fits, but the product does not; one point fewer fits."""
    assert len(ZGrid((0.0, 999.0), (0.0, 999.0), 1.0)) == 10**6
    with pytest.raises(ValidationError, match="exceeds 1000000 grid points"):
        ZGrid((0.0, 999.0), (0.0, 1000.0), 1.0)


def test_delta_zero_perturbation_is_exactly_zero():
    pair = make_pair(20, seed=1, spec=PerturbationSpec("zero"))
    d = delta_at(pair, 0.3 + 0.2j)
    assert d.delta == 0.0
    assert d.ks == 0.0
    assert d.rank_bound == 0.0
    assert not d.singular_flag
    assert d.cross_check_ok and d.rank_inequality_ok and d.chain_bound_ok


def test_delta_one_by_one_analytic():
    """n = 1: delta is log|x - z| - log|x + m - z| exactly."""
    x_val = 0.3 + 0.4j
    x = MatrixSample(np.array([[x_val]]))
    pair = assemble(x, build_perturbation(PerturbationSpec("all-ones"), 1))
    z = 0.1 - 0.2j
    d = delta_at(pair, z)
    expected = math.log(abs(x_val - z)) - math.log(abs(x_val + 1.0 - z))
    assert abs(d.delta - expected) <= 1e-14
    assert d.ks == 1.0
    assert d.rank_bound == 1.0


def test_delta_rank_one_perturbation():
    pair = make_pair(10, seed=5)
    d = delta_at(pair, 0.3 + 0.1j)
    assert not d.singular_flag
    assert d.cross_check_ok
    assert d.ks <= 0.1 + 1e-12
    assert d.rank_bound == 0.1
    assert d.rank_inequality_ok
    assert d.chain_bound_ok
    assert abs(d.delta) <= d.ibp_bound + 1e-8


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_delta_at_of_real_sample_matches_complex(dtype):
    """A sample given real or integer entries gives a complex128 pair and
    the delta_at record of the equal complex sample."""
    rng = np.random.default_rng(9)
    values = rng.integers(-3, 4, (6, 6))
    z = 0.3 + 0.2j
    records = []
    for entries in (values.astype(dtype), values.astype(np.complex128)):
        x = MatrixSample(entries)
        pair = assemble(x, build_perturbation(PerturbationSpec("all-ones"), 6))
        assert pair.a_matrix.dtype == pair.b_matrix.dtype == np.complex128
        records.append(repr(delta_at(pair, z)))
    assert records[0] == records[1]


def test_delta_at_allocates_no_shifted_copy(traced_peak, lane_nbytes):
    """A - zI and B - zI are formed one at a time in LAPACK's working copy,
    never beside another shifted copy: delta_at allocates that one n-by-n
    buffer and LAPACK's workspace (numpy's route allocates its workspace
    untraced), and well under a quarter of an n-by-n array more. A shifted
    copy beside numpy's own working copy took 2 n-by-n arrays."""
    n = 200
    pair = make_pair(n, seed=3)
    assert traced_peak(delta_at, pair, 0.3 + 0.2j) < 1.25 * n * n * 16 + lane_nbytes(n)[1]


def test_delta_at_leaves_pair_bitwise_unchanged():
    pair = make_pair(30, seed=6)
    a, b = pair.a_matrix.tobytes(), pair.b_matrix.tobytes()
    for z in (0.3 + 0.2j, -1.0 - 0.0j, 2.5j):
        delta_at(pair, z)
    assert pair.a_matrix.tobytes() == a
    assert pair.b_matrix.tobytes() == b


@pytest.mark.parametrize("failing_call", [1, 2])
def test_delta_at_restores_pair_when_svd_raises(monkeypatch, shifted, lapack_calls,
                                                failing_call):
    """The first SVD is of A - zI, the second of B - zI; either may raise.
    Each is handed a working copy of its shifted matrix, so the pair is
    never written."""
    pair = make_pair(12, seed=4)
    z = 0.3 + 0.1j
    a, b = pair.a_matrix.tobytes(), pair.b_matrix.tobytes()
    svd_values = spectral._svd_values
    calls = []

    def failing(m):
        calls.append(m)
        if len(calls) == failing_call:
            raise InvalidValueError("injected")
        return svd_values(m)

    monkeypatch.setattr(spectral, "_svd_values", failing)
    lapack_calls(lambda name, m: failing(m) if name == "svd" else None)
    with pytest.raises(InvalidValueError, match="injected"):
        delta_at(pair, z)
    matrix = (pair.a_matrix, pair.b_matrix)[failing_call - 1]
    assert calls[-1] is not matrix
    assert calls[-1].tobytes() == shifted(matrix, z).tobytes()
    assert pair.a_matrix.tobytes() == a
    assert pair.b_matrix.tobytes() == b


def test_delta_at_scans_each_shifted_matrix_once(monkeypatch):
    """One np.isfinite pass over A - zI and one over B - zI, where the SVD
    and the LU each took their own."""
    n = 12
    pair = make_pair(n, seed=2)
    scans = []
    isfinite = np.isfinite

    def counting(a, *args, **kwargs):
        if np.shape(a) == (n, n):
            scans.append(1)
        return isfinite(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    delta_at(pair, 0.3 + 0.2j)
    assert len(scans) == 2


def test_delta_row_rejects_spectra_that_do_not_pair():
    pair = make_pair(6, seed=1)
    a = spectral.shifted(pair.a_matrix, 0.5)
    with pytest.raises(ShapeError, match="do not pair"):
        delta_row(a, spectral.shifted(pair.b_matrix, 0.25), 1)
    with pytest.raises(ShapeError, match="do not pair"):
        delta_row(a, spectral.shifted(make_pair(7, seed=1).b_matrix, 0.5), 1)
    assert repr(delta_row(a, spectral.shifted(pair.b_matrix, 0.5), 1)) \
        == repr(delta_at(pair, 0.5))


def test_delta_at_hands_lapack_the_shifted_matrices(monkeypatch, shifted, lapack_calls):
    """The SVD and LU inputs are bitwise the copy-based oracle's a - z*I, on
    numpy's route and on the lane route."""
    pair = make_pair(16, seed=8)
    z = -0.7 + 0.4j
    seen = []
    for name in ("_svd_values", "_lu_log_abs_det"):
        fn = getattr(spectral, name)
        monkeypatch.setattr(spectral, name,
                            lambda m, fn=fn: seen.append(m.tobytes()) or fn(m))
    lapack_calls(lambda name, m: seen.append(m.tobytes()))
    delta_at(pair, z)
    shifted_a = shifted(pair.a_matrix, z).tobytes()
    shifted_b = shifted(pair.b_matrix, z).tobytes()
    assert seen == [shifted_a, shifted_a, shifted_b, shifted_b]


def test_delta_singular_point_is_flagged():
    """Entries 2I at n = 4 make A exactly the identity, so z = 1 is singular."""
    n = 4
    x = MatrixSample(2.0 * np.eye(n, dtype=complex))
    pair = assemble(x, build_perturbation(PerturbationSpec("all-ones"), n))
    d = delta_at(pair, 1.0 + 0.0j)
    assert d.singular_flag
    assert math.isnan(d.delta)
    assert d.ks == 0.25
    assert d.rank_bound == 0.25
    assert d.rank_inequality_ok
    # cross-check and chain bound are vacuous at flagged points
    assert d.cross_check_ok
    assert d.chain_bound_ok


def test_verify_rank_inequality_identical():
    a = np.eye(5, dtype=complex)
    r = verify_rank_inequality(a, a)
    assert r.lhs == 0.0
    assert r.rhs == 0.0
    assert r.holds


def test_verify_rank_inequality_rank_one():
    pair = make_pair(10, seed=5)
    r = verify_rank_inequality(pair.a_matrix, pair.b_matrix)
    assert r.rhs == 0.1
    assert r.holds


def test_verify_rank_inequality_three_rows():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    b = a.copy()
    b[4, 0] += 1.0
    b[9, 3] -= 2.0j
    b[17] *= 3.0
    r = verify_rank_inequality(a, b)
    assert r.rhs == 3.0 / 20.0
    assert r.holds


def test_verify_rank_inequality_shift_invariance():
    pair = make_pair(12, seed=8)
    z = 0.4 - 0.7j
    r0 = verify_rank_inequality(pair.a_matrix, pair.b_matrix)
    r1 = verify_rank_inequality(pair.a_matrix - z * np.eye(12),
                                pair.b_matrix - z * np.eye(12))
    assert r0.rhs == r1.rhs
    assert r1.holds


@pytest.mark.parametrize("shape", [(7, 4), (4, 7)])
def test_verify_rank_inequality_rectangular(shape):
    """n-by-m singular values are zero-padded to the n rows; a rank-one
    difference moves one atom of n."""
    rows, cols = shape
    rng = np.random.default_rng(4)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = a + np.outer(rng.standard_normal(rows), rng.standard_normal(cols))
    r = verify_rank_inequality(a, b)
    assert r.rhs == 1.0 / rows
    assert r.lhs == pytest.approx(r.rhs, abs=1e-15)
    assert r.holds


def test_every_checked_inequality_returns_one_check_record():
    """The rank bound, Weyl's inequality and every rule of a delta row come
    back as the same (lhs, rhs, holds) record."""
    pair = make_pair(10, seed=5)
    d = delta_at(pair, 0.5 + 0.5j)
    checks = [verify_rank_inequality(pair.a_matrix, pair.b_matrix),
              spectral.check_weyl(pair.b_matrix),
              *(d.check(name) for name in diagnostics.ROW_CHECKS)]
    assert [type(c) for c in checks] == [spectral.Check] * (2 + len(diagnostics.ROW_CHECKS))
    assert all(c.holds for c in checks)
    assert d.checks() == {name: d.check(name) for name in diagnostics.ROW_CHECKS}


def test_verify_rank_inequality_shape_mismatch():
    with pytest.raises(ShapeError):
        verify_rank_inequality(np.eye(3), np.eye(4))


def test_verify_rank_inequality_rejects_an_overflowing_difference():
    """a - b has an inf entry; its rank is not 0, and no false violation
    (ks 0.5 > bound 0.0) is reported."""
    with np.errstate(over="ignore"), pytest.raises(InvalidValueError, match="non-finite"):
        verify_rank_inequality(np.diag([1e308, 1.0]), np.diag([-1e308, 2.0]))


def test_verify_rank_inequality_overflow_warns_nothing():
    """The overflowing a - b is rejected with InvalidValueError alone, with
    no numpy RuntimeWarning printed ahead of it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidValueError, match="non-finite"):
            verify_rank_inequality(np.diag([1e308, 1.0]), np.diag([-1e308, 2.0]))


def test_delta_scan_zero_perturbation():
    pair = make_pair(15, seed=3, spec=PerturbationSpec("zero"))
    rows = delta_scan(pair, ZGrid((-1.0, 1.0), (-1.0, 1.0), 1.0))
    assert len(rows) == 9
    assert all(r.delta == 0.0 for r in rows)
    assert all(r.ks == 0.0 for r in rows)


def test_delta_scan_singleton_matches_delta_at():
    pair = make_pair(12, seed=9)
    z = 0.25 - 0.5j
    row = delta_scan(pair, ZGrid((0.25, 0.25), (-0.5, -0.5), 1.0))[0]
    direct = delta_at(pair, z)
    assert row == direct


def test_delta_scan_chain_bound_holds():
    pair = make_pair(60, seed=9)
    rows = delta_scan(pair, ZGrid((-2.0, 2.0), (-2.0, 2.0), 1.0))
    assert len(rows) == 25
    assert all(r.cross_check_ok for r in rows)
    assert all(r.chain_bound_ok for r in rows)
    assert all(r.rank_inequality_ok for r in rows)
    assert not any(r.singular_flag for r in rows)


def _identity_row(dim):
    return DeltaDiagnostics(
        z=0j, delta=0.0, delta_logdet=0.0, s_max_a=1.0, s_min_a=1.0,
        s_max_b=1.0, s_min_b=1.0, ks=0.0, rank_bound=0.0, ibp_bound=0.0,
        singular_flag=False,
    )


def test_aggregate_scaling_degenerate_rows_fit_zero():
    rows = [(d, 0, _identity_row(d)) for d in (10, 20, 40)]
    agg = aggregate_scaling(rows, 3.0)
    assert agg.a_hat == 0.0
    assert agg.b_hat == 0.0
    assert agg.eps_hat == 0.0
    assert agg.smin_violation_fraction == 0.0
    assert agg.dims == (10, 20, 40)
    assert all(s.median_abs_delta == 0.0 for s in agg.per_dim)


def test_aggregate_scaling_drops_all_flagged_dim():
    flagged = DeltaDiagnostics(
        z=0j, delta=float("nan"), delta_logdet=float("nan"), s_max_a=1.0,
        s_min_a=0.0, s_max_b=1.0, s_min_b=0.0, ks=0.0, rank_bound=0.0,
        ibp_bound=float("nan"), singular_flag=True,
    )
    rows = [(10, 0, _identity_row(10)), (20, 0, flagged), (20, 1, flagged),
            (40, 0, flagged), (40, 1, _identity_row(40))]
    agg = aggregate_scaling(rows, 3.0)
    assert agg.dims == (10, 40)
    assert [(s.dim, s.rows, s.flagged) for s in agg.per_dim] == [(10, 1, 0), (40, 2, 1)]
    assert agg.a_hat == agg.b_hat == agg.eps_hat == 0.0
    # one usable dim: no exponent can be fitted
    assert math.isnan(aggregate_scaling(rows[:3], 3.0).a_hat)


def test_aggregate_scaling_counts_smin_violations():
    row = DeltaDiagnostics(
        z=0j, delta=0.0, delta_logdet=0.0, s_max_a=1.0, s_min_a=1e-9,
        s_max_b=1.0, s_min_b=1.0, ks=0.0, rank_bound=0.0, ibp_bound=0.0,
        singular_flag=False,
    )
    rows = [(10, 0, row), (20, 0, _identity_row(20))]
    # threshold 10^-3 = 1e-3 > 1e-9 so the first row violates
    agg = aggregate_scaling(rows, 3.0)
    assert agg.smin_violation_fraction == 0.5


def _scaling_row(ks, s_min_a, s_min_b, s_max_a, s_max_b, delta=0.0, flagged=False):
    return DeltaDiagnostics(
        z=0j, delta=delta, delta_logdet=delta, s_max_a=s_max_a, s_min_a=s_min_a,
        s_max_b=s_max_b, s_min_b=s_min_b, ks=ks, rank_bound=0.0, ibp_bound=0.0,
        singular_flag=flagged,
    )


def test_aggregate_scaling_fits_each_exponent_with_its_sign():
    """s_max ~ n^0.5, s_min ~ n^-1 and ks ~ 1/n: a_hat = 0.5, b_hat = 1 and
    eps_hat = 1, each per-dim value the hand-computed median, min or max of
    the unflagged rows, and a flagged row, however extreme, in none of them."""
    dims = (10, 20, 40, 80)
    rows = []
    for n in dims:
        root = math.sqrt(n)
        rows += [(n, k, _scaling_row(f / n, f / n, f / (2 * n), f * root, root,
                                     delta=(-1) ** k * f / n**2))
                 for k, f in enumerate((1, 2, 4, 8))]
        rows.append((n, 4, _scaling_row(1.0, 1e-300, 1e-300, 1e300, 1e300,
                                        delta=math.nan, flagged=True)))
    agg = aggregate_scaling(rows, 3.0)
    assert abs(agg.a_hat - 0.5) <= 1e-12
    assert abs(agg.b_hat - 1.0) <= 1e-12
    assert abs(agg.eps_hat - 1.0) <= 1e-12
    assert agg.dims == dims
    for s, n in zip(agg.per_dim, dims):
        assert (s.rows, s.flagged) == (5, 1)
        assert s.median_abs_delta == (2 / n**2 + 4 / n**2) / 2
        assert s.median_ks == (2 / n + 4 / n) / 2
        assert s.min_smin == 1 / (2 * n)
        assert s.max_smax == 8 * math.sqrt(n)


def test_aggregate_scaling_leaves_a_zero_statistic_out_of_its_own_fit_only():
    """ks is 0 at n = 40, so eps_hat is fitted on the other three dims, while
    a_hat and b_hat are still fitted on all four."""
    dims = (10, 20, 40, 80)
    s_min, s_max = (0.5, 0.1, 0.3, 0.05), (1.0, 3.0, 2.0, 5.0)
    ks = tuple(0.0 if n == 40 else 1 / n for n in dims)
    rows = [(n, 0, _scaling_row(k, lo, 2 * lo, hi, hi / 2))
            for n, k, lo, hi in zip(dims, ks, s_min, s_max)]
    agg = aggregate_scaling(rows, 3.0)
    assert agg.dims == dims
    assert [s.median_ks for s in agg.per_dim] == list(ks)
    assert abs(agg.eps_hat - 1.0) <= 1e-12
    logs, not_40 = np.log(dims), [0, 1, 3]
    for hat, sign, values in ((agg.a_hat, 1, s_max), (agg.b_hat, -1, s_min)):
        ys = np.log(values)
        assert abs(hat - sign * np.polyfit(logs, ys, 1)[0]) <= 1e-12
        assert abs(hat - sign * np.polyfit(logs[not_40], ys[not_40], 1)[0]) > 1e-3


def test_scaling_stats_table_names_the_records_fields(tmp_path):
    """DimScalingStats holds one field per SCALING_STATS entry, in order,
    between dim and the row counts; ScalingReport one *_hat field per fitted
    exponent; and scaling.csv's columns are n and the table's names."""
    table = diagnostics.SCALING_STATS
    fields = [f.name for f in dataclasses.fields(diagnostics.DimScalingStats)]
    assert fields == ["dim", *table, "rows", "flagged"]
    hats = [f.name for f in dataclasses.fields(diagnostics.ScalingReport)
            if f.name.endswith("_hat")]
    assert hats == sorted(s.exponent for s in table.values() if s.exponent)
    assert all(s.sign in (1, -1) for s in table.values() if s.exponent)
    path = tmp_path / "scaling.csv"
    write_scaling_csv(path, aggregate_scaling([(10, 0, _identity_row(10))], 3.0))
    assert path.read_text().splitlines()[0] == ",".join(["n", *table])


def test_constant_case_deterministic_skeleton():
    """X = 0: the perturbed matrix is ones/sqrt(n) with eigenvalues
    {sqrt(n), 0, ..., 0}; the disc record reads the outlier and the bulk's
    largest modulus from them."""
    n = 16
    x = MatrixSample(np.zeros((n, n), dtype=complex))
    pair = assemble(x, build_perturbation(PerturbationSpec("all-ones"), n))

    eig = eigenvalues(pair.b_matrix)
    assert abs(eig[0] - 4.0) <= 1e-12
    assert np.all(np.abs(eig[1:]) <= 1e-12)

    record = disk_record(pair, n, 3)
    assert (record.dim, record.replicate) == (n, 3)
    assert abs(record.top_eigen_modulus - 4.0) <= 1e-12
    assert record.bulk_max_modulus <= 1e-12


def test_constant_case_outlier_near_sqrt_n():
    r = constant_case(400, CG, seed=1)
    assert abs(r.lambda1 - 20.0) <= 3.0
    assert abs(r.lambda2) <= 2.5
    assert 1.0 <= r.s1_central <= 3.0


def test_constant_case_is_the_pairs_record_one_matrix_at_a_time(monkeypatch):
    """The record of B's eigenvalues and A's top singular value from
    assemble's pair, byte for byte, with at most 1.25 n-by-n arrays traced
    at each LAPACK call (A beside B would show 2)."""
    n, seed = 120, 9
    pair = assemble(sample_matrix(CG, n, seed),
                    build_perturbation(PerturbationSpec("all-ones"), n))
    eig = eigenvalues(pair.b_matrix)
    s1 = float(spectral.singular_values(pair.a_matrix)[0])
    current = []
    blas = spectral._blas

    def recording(fn, *args, **kwargs):
        if fn.__module__.startswith("numpy"):
            current.append(tracemalloc.get_traced_memory()[0] - start)
        return blas(fn, *args, **kwargs)

    monkeypatch.setattr(spectral, "_blas", recording)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        r = constant_case(n, CG, seed)
    finally:
        tracemalloc.stop()
    assert repr((r.lambda1, r.lambda2, r.s1_central)) == repr(
        (complex(eig[0]), complex(eig[1]), s1))
    assert max(current) <= 1.25 * 16 * n * n


def test_constant_case_rejects_tiny_n():
    with pytest.raises(ShapeError):
        constant_case(1, CG, seed=0)


def test_rectangle_validation():
    with pytest.raises(ValidationError):
        Rectangle(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValidationError):
        Rectangle(0.0, 1.0, 2.0, 2.0)


def test_bump_function_values():
    b = BumpFunction(center=0j, radius=2.0, amplitude=3.0)
    assert b.value(np.array([0j]))[0] == 3.0
    assert b.value(np.array([2.0 + 0j]))[0] == 0.0
    assert b.value(np.array([5.0 + 0j]))[0] == 0.0
    inside = b.value(np.array([1.0 + 0j]))[0]
    assert 0.0 < inside < 3.0


def test_bump_function_laplacian_at_center():
    b = BumpFunction(center=0.5j, radius=2.0, amplitude=3.0)
    expected = -4.0 * 3.0 / 4.0
    assert abs(b.laplacian(np.array([0.5j]))[0] - expected) <= 1e-12


def test_bump_function_laplacian_matches_finite_differences():
    b = BumpFunction(center=0.2 + 0.1j, radius=1.3, amplitude=0.7)
    rng = np.random.default_rng(1)
    pts = b.center + 0.9 * ((rng.random(200) - 0.5) + 1j * (rng.random(200) - 0.5))
    h = 1e-4
    fd = (b.value(pts + h) + b.value(pts - h) + b.value(pts + 1j * h)
          + b.value(pts - 1j * h) - 4.0 * b.value(pts)) / (h * h)
    assert np.max(np.abs(fd - b.laplacian(pts))) <= 1e-6


def test_bump_function_rejects_bad_radius():
    with pytest.raises(ValidationError):
        BumpFunction(radius=0.0)


@pytest.mark.parametrize("field, value", [
    ("radius", "1"), ("radius", float("nan")), ("radius", float("inf")), ("radius", True),
    ("amplitude", "1"), ("amplitude", float("nan")),
])
def test_bump_function_rejects_other_than_finite_numbers(field, value):
    with pytest.raises(ValidationError, match=f"bump {field}"):
        BumpFunction(**{field: value})


@pytest.mark.parametrize("center", ["0", float("nan"), complex(0.0, float("inf")),
                                    [0.0, float("nan")], True])
def test_bump_function_rejects_other_than_a_finite_center(center):
    with pytest.raises(ValidationError, match="bump center"):
        BumpFunction(center=center)


@pytest.mark.parametrize("center, stored", [(1, 1 + 0j), (0.5, 0.5 + 0j),
                                            ([0.25, -1], 0.25 - 1j), (2j, 2j)])
def test_bump_function_stores_its_center_as_complex(center, stored):
    b = BumpFunction(center=center)
    assert type(b.center) is complex and b.center == stored


@pytest.mark.parametrize("bounds", [("0", "1", "0", "1"), (0.0, float("nan"), 0.0, 1.0),
                                    (0.0, 1.0, float("-inf"), 1.0)])
def test_rectangle_rejects_bounds_other_than_finite_numbers(bounds):
    with pytest.raises(ValidationError, match="rectangle"):
        Rectangle(*bounds)


@pytest.mark.parametrize("step", ["0.1", float("nan"), float("inf")])
def test_green_identity_rejects_step_other_than_finite_number(step):
    b = BumpFunction(center=0j, radius=1.0, amplitude=1.0)
    with pytest.raises(ValidationError, match="grid step"):
        green_identity_residual([0j], b, step, Rectangle(-1.5, 1.5, -1.5, 1.5))


def test_green_identity_single_root():
    """P(z) = z with a bump at the origin: lhs = f(0) = 1."""
    b = BumpFunction(center=0j, radius=1.0, amplitude=1.0)
    rect = Rectangle(-1.5, 1.5, -1.5, 1.5)
    res = green_identity_residual([0j], b, 0.01, rect)
    assert res.lhs == 1.0
    assert res.residual <= 1e-2


def test_green_identity_two_roots():
    """P(z) = z^2 - 1 with a bump that covers only the root at +1."""
    b = BumpFunction(center=1.0 + 0j, radius=0.5, amplitude=1.0)
    rect = Rectangle(0.3, 1.7, -0.7, 0.7)
    res = green_identity_residual([1.0 + 0j, -1.0 + 0j], b, 0.01, rect)
    assert res.lhs == 1.0
    assert res.residual <= 1e-2


def test_green_identity_away_from_roots():
    b = BumpFunction(center=0j, radius=0.5, amplitude=1.0)
    rect = Rectangle(-0.75, 0.75, -0.75, 0.75)
    res = green_identity_residual([2.0 + 0j], b, 0.02, rect)
    assert res.lhs == 0.0
    assert abs(res.rhs) <= 1e-2


def test_green_identity_residual_contracts_with_step():
    b = BumpFunction(center=0j, radius=1.0, amplitude=1.0)
    rect = Rectangle(-1.5, 1.5, -1.5, 1.5)
    coarse = green_identity_residual([0j], b, 0.02, rect)
    fine = green_identity_residual([0j], b, 0.01, rect)
    assert fine.residual <= 0.6 * coarse.residual


def test_green_identity_validation():
    b = BumpFunction(center=0j, radius=1.0, amplitude=1.0)
    rect = Rectangle(-1.5, 1.5, -1.5, 1.5)
    with pytest.raises(ValidationError):
        green_identity_residual([], b, 0.01, rect)
    with pytest.raises(InvalidValueError):
        green_identity_residual([complex("nan")], b, 0.01, rect)
    with pytest.raises(ValidationError):
        green_identity_residual([0j], b, -0.1, rect)
    with pytest.raises(ValidationError):
        # 2 * radius / step < 8 cells
        green_identity_residual([0j], b, 0.5, rect)
    with pytest.raises(DomainError):
        green_identity_residual([0j], b, 0.01, Rectangle(-0.8, 0.8, -0.8, 0.8))
    # the roots follow the one number rule, as a 1-d array
    for roots in (["a"], [True], ["0.5"], [0j, None]):
        with pytest.raises(InvalidValueError, match="roots must be numbers"):
            green_identity_residual(roots, b, 0.01, rect)
    with pytest.raises(ShapeError, match="ragged"):
        green_identity_residual([[0j, 0.5j], [0j]], b, 0.01, rect)
    for roots in ([[0j], [0.5j]], 0j):
        with pytest.raises(ShapeError, match="1-d"):
            green_identity_residual(roots, b, 0.01, rect)


def test_poly_matches_power_sum():
    """The lemma suite's polynomial (numpy's polyval, Horner order) against
    the power sum sum(c_k (x/scale)^k): terms at most 1 in size, at most 5 of
    them, so the two orders differ by a few float64 ulps of 5."""
    rng = np.random.default_rng(6)
    x = rng.uniform(1.0, 10.0, 50)
    for degree in range(5):
        c = rng.uniform(-1.0, 1.0, degree + 1)
        expected = sum(ck * (x / 10.0) ** k for k, ck in enumerate(c))
        assert np.max(np.abs(diagnostics._poly(c, 10.0)(x) - expected)) <= 1e-14


def test_lemma_trials_all_pass():
    rep = run_lemma_trials(50, seed=3)
    assert rep.trials == 50
    assert rep.total_violations == 0


def test_lemma_trials_rejects_bad_count():
    with pytest.raises(ValidationError):
        run_lemma_trials(0, seed=1)


@pytest.mark.parametrize("trials", [True, 2.0, "3"])
def test_lemma_trials_rejects_count_other_than_int(trials):
    with pytest.raises(ValidationError, match="trials"):
        run_lemma_trials(trials, seed=1)


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
