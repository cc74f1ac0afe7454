"""Tests for eigenvalue/singular-value summaries and the Weyl comparison."""

import pickle
import sys
import threading
import time

import numpy as np
import pytest

from circlaw import (
    InvalidValueError,
    NumericalConsistencyError,
    ShapeError,
    ValidationError,
    check_weyl,
    delta_row,
    eigenvalues,
    log_abs_det_lu,
    logdet_agree,
    max_dimension,
    singular_values,
    summarize,
    verify_rank_inequality,
)
from circlaw import spectral
from circlaw.ensemble import numerical_rank


def test_shifted_in_place_matches_shifted_and_restores(monkeypatch, shifted, lapack_calls):
    """A lane writes m - z*I in place into its own buffer, by the one
    subtraction a shifted copy makes; m is only read, so it is as before
    also when a LAPACK call raises. (Named for the in-place shift of m
    itself, which the lanes replaced.)"""
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    before = m.tobytes()
    z = 0.3 - 0.7j
    lane = spectral._Lane(5, spectral._lapack())
    lane.fill(m, z)
    assert lane.a.tobytes() == shifted(m, z).tobytes()
    assert m.tobytes() == before

    def failing(*args):
        raise RuntimeError("call failed")

    lapack_calls(failing)
    monkeypatch.setattr(spectral, "_svd_values", failing)
    with pytest.raises(RuntimeError, match="call failed"):
        spectral.shifted(m, [z, -z])
    assert m.tobytes() == before


@pytest.mark.parametrize("m", [
    np.zeros((2, 3), dtype=complex),
    np.zeros(4, dtype=complex),
    np.zeros((3, 3)),
    np.zeros((3, 3), dtype=np.complex64),
    [[1.0 + 0j]],
])
def test_shifted_in_place_rejects_other_than_square_complex128(m):
    """shifted reads m as it is, so it takes only a square complex128 array,
    as the in-place shift it replaced did."""
    with pytest.raises(ShapeError, match="square complex128"):
        spectral.shifted(m, 1.0)


def test_shifted_equals_the_checked_functions_on_a_shifted_copy(shifted):
    rng = np.random.default_rng(12)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    before = m.tobytes()
    z = np.complex128(0.4 - 1.1j)
    result = spectral.shifted(m, z)
    assert m.tobytes() == before
    copy = shifted(m, z)
    assert result.z == complex(z) and type(result.z) is complex
    assert result.singular_values.tobytes() == singular_values(copy).tobytes()
    assert (result.log_abs_det, result.singular) == log_abs_det_lu(copy)


def _numpy_route(monkeypatch, fn):
    """fn() with shifted on numpy's route, as where the LAPACK symbols are
    missing."""
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_lapack", lambda: None)
        return fn()


@pytest.mark.parametrize("n", [1, 2, 7, 50, 200, 400, 600])
def test_lanes_are_bitwise_numpys_route(monkeypatch, at_ambient_threads, n):
    """The lane route's singular values, log|det| and eigenvalues are
    bitwise those of np.linalg's svd, slogdet and eigvals, at ambient
    thread counts 1 and 2: the shifts on one lane and, at n <=
    BLAS_PIN_MAX_DIM, where a unit runs more, on two, at an exactly
    singular shift too (m's first column is z times e_1); the eigensolve in
    LAPACK's order."""
    if spectral._lapack() is None:
        pytest.skip("numpy's OpenBLAS LAPACK symbols are not available")
    rng = np.random.default_rng(n)
    m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    m[:, 0] = 0.0
    m[0, 0] = 0.5 + 0.5j
    points = [0.5 + 0.5j, 0.0, -1.0, 2.5j, 0.3 - 0.9j]

    def compare():
        expected = _numpy_route(monkeypatch, lambda: spectral.shifted(m, points))
        assert expected[0].singular and not expected[1].singular
        for lanes in (1, 2) if n <= spectral.BLAS_PIN_MAX_DIM else (1,):
            got = spectral.shifted(m, points, lanes)
            assert [(s.z, s.singular_values.tobytes(), repr(s.log_abs_det), s.singular)
                    for s in got] == \
                [(s.z, s.singular_values.tobytes(), repr(s.log_abs_det), s.singular)
                 for s in expected]
        with spectral._pinned(n):
            eig = spectral._Lane(n, spectral._lapack()).eigensolve(m)
        assert eig.dtype == np.complex128
        assert eig.tobytes() == spectral._blas(np.linalg.eigvals, m).tobytes()

    for threads in (1, 2):
        at_ambient_threads(threads, compare)


def test_lanes_run_pinned_and_leave_no_thread(lapack_calls, at_ambient_threads):
    """Every lane call at n <= BLAS_PIN_MAX_DIM runs on one BLAS thread, two
    lanes share the shifts, and the ambient count comes back, also when a
    lane raises on an overflowing diagonal; no lane thread outlives the
    call."""
    if spectral._lapack() is None:
        pytest.skip("numpy's OpenBLAS LAPACK symbols are not available")
    get_threads = spectral._openblas()[0]
    seen = []
    lapack_calls(lambda name, a: seen.append((get_threads(), threading.get_ident())))
    m = np.eye(8, dtype=complex)
    m[0, 0] = 1.7e308
    points = [0.5, 0.25j, -1.0, 1.5, 2.0j, -0.5j]

    def run(shifts):
        before = threading.active_count()
        result = spectral.shifted(m, shifts)
        assert threading.active_count() == before
        return get_threads(), result

    threads, spectra = at_ambient_threads(2, lambda: run(points))
    assert threads == 2 and len(spectra) == len(points)
    assert len(seen) == 2 * len(points)
    assert {count for count, _ in seen} == {1}
    assert len({ident for _, ident in seen}) == 2

    def failing(shifts):
        before = threading.active_count()
        with pytest.raises(InvalidValueError, match="non-finite"):
            spectral.shifted(m, shifts)
        return get_threads(), threading.active_count() - before

    for bad in ([0.5, 0.25j, -1.7e308, 1.5, -1.7e308j], [-1.7e308, 0.5]):
        assert at_ambient_threads(2, lambda: failing(bad)) == (2, 0)
    assert {count for count, _ in seen} == {1}


def test_lanes_under_fast_thread_switching_lose_no_shift(monkeypatch, lapack_calls):
    """Eight lanes, more than the cores, switching threads every
    microsecond: every shift's spectrum lands at its own index, bitwise the
    serial one. Of three failing shifts the first one's error is raised at
    any lane count, as a serial loop raises it."""
    m = np.eye(6, dtype=complex) + 0.25j
    points = [complex(0.1 * k, 0.05) for k in range(40)]
    serial = spectral.shifted(m, points, 1)
    fails = {13, 27, 31}

    def failing(name, a):
        k = round((1.0 - a[1, 1].real) * 10)
        if name == "svd" and k in fails:
            raise RuntimeError(f"failed at {k}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            got = spectral.shifted(m, points, 8)
            assert [(s.z, s.singular_values.tobytes(), s.log_abs_det) for s in got] == \
                [(s.z, s.singular_values.tobytes(), s.log_abs_det) for s in serial]
        svd_values = spectral._svd_values
        monkeypatch.setattr(spectral, "_svd_values",
                            lambda a: failing("svd", a) or svd_values(a))
        lapack_calls(failing)
        for lanes in (1, 2, 3, 8, 8, 8):
            with pytest.raises(RuntimeError, match="failed at 13$"):
                spectral.shifted(m, points, lanes)
    finally:
        sys.setswitchinterval(interval)


def test_an_interrupt_on_the_calling_lane_stops_the_other_lanes():
    """An interrupt reaches the calling thread, lane 0; the runner re-raises
    it once the other lanes have stopped at their next item, where they
    would otherwise run every item left."""
    done = []

    def run(_, i):
        time.sleep(0.05 if i == 0 else 0.005)
        if i == 0:
            raise KeyboardInterrupt
        done.append(i)

    with pytest.raises(KeyboardInterrupt):
        spectral._on_lanes(run, list(range(400)), 2, 8)
    assert len(done) < 100


def test_shifted_flags_a_singular_shift():
    result = spectral.shifted(np.eye(3, dtype=complex), 1.0)
    assert result.singular and result.log_abs_det == float("-inf")
    assert result.singular_values[-1] == 0.0


def _count_square_isfinite(monkeypatch, n):
    """The np.isfinite scans of n-by-n arrays, counted."""
    scans = []
    isfinite = np.isfinite

    def counting(a, *args, **kwargs):
        if np.shape(a) == (n, n):
            scans.append(1)
        return isfinite(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    return scans


def test_shifted_scans_its_matrix_once(monkeypatch):
    """One finiteness scan serves the SVD and the LU; the public functions
    each keep their own."""
    m = np.eye(5, dtype=complex)
    scans = _count_square_isfinite(monkeypatch, 5)
    spectral.shifted(m, 0.5)
    assert len(scans) == 1
    singular_values(m)
    log_abs_det_lu(m)
    assert len(scans) == 3


@pytest.mark.parametrize("fn", [summarize, check_weyl, numerical_rank],
                         ids=lambda fn: fn.__name__)
def test_each_public_function_scans_its_matrix_once(monkeypatch, fn):
    """One finiteness scan of the caller's matrix serves every LAPACK step
    after it."""
    m = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(complex)
    scans = _count_square_isfinite(monkeypatch, 5)
    fn(m)
    assert len(scans) == 1


def test_summarize_of_the_empty_matrix_agrees_with_the_lu():
    s = summarize(np.zeros((0, 0)))
    assert log_abs_det_lu(np.zeros((0, 0))) == (0.0, False)
    assert (s.singular, s.log_abs_det) == (False, 0.0)


def _zero_last_singular_value(monkeypatch):
    """_svd_values and the lane route's zgesdd with the smallest value set
    to 0, as for a matrix whose LU factors without a zero pivot."""
    svd_values = spectral._svd_values

    def zeroed(m):
        sv = svd_values(m)
        sv[-1] = 0.0
        return sv

    monkeypatch.setattr(spectral, "_svd_values", zeroed)
    lapack = spectral._lapack()
    if lapack is not None:
        def zgesdd(*args):
            lapack.zgesdd(*args)
            args[5][-1:] = 0.0

        handle = lapack._replace(zgesdd=zgesdd)
        monkeypatch.setattr(spectral, "_lapack", lambda: handle)


def test_a_zero_singular_value_makes_the_matrix_singular(monkeypatch):
    """The one singular rule: the LU finds no zero here, but the smallest
    singular value is 0, so shifted and summarize both call m singular."""
    m = np.diag([2.0, 3.0, 4.0]).astype(complex)
    _zero_last_singular_value(monkeypatch)
    assert log_abs_det_lu(m) == (pytest.approx(np.log(24.0)), False)
    result = spectral.shifted(m, 1.0j)
    assert result.singular and result.log_abs_det == float("-inf")
    s = summarize(m)
    assert s.singular and s.log_abs_det is None


def test_every_singular_verdict_is_the_one_rule(monkeypatch):
    """shifted, summarize, log_abs_det_lu and, through shifted, a delta row
    all take their verdict from _log_abs_det."""
    monkeypatch.setattr(spectral, "_log_abs_det", lambda lu, sv=None: (-np.inf, True))
    m = np.eye(3, dtype=complex)
    side = spectral.shifted(m, 0.5)
    assert side.singular and side.singular_values[-1] == 0.5
    assert delta_row(side, side, 0).singular_flag
    assert summarize(m).singular
    assert log_abs_det_lu(m) == (-np.inf, True)


def test_summarize_rejects_an_overflowing_singular_value_sum():
    """s1 overflows to inf while the LU stays finite: the routes disagree,
    so the summary raises rather than report log|det| = inf."""
    m = 1e307 * (np.eye(40) + 0.5 * np.ones((40, 40)))
    assert not log_abs_det_lu(m)[1]
    with pytest.raises(NumericalConsistencyError, match="inf"):
        summarize(m)


@pytest.mark.parametrize("z", [float("nan"), complex(0.0, float("inf"))])
def test_shifted_rejects_a_non_finite_shift_and_restores(z):
    m = np.eye(4, dtype=complex)
    with pytest.raises(InvalidValueError, match="non-finite"):
        spectral.shifted(m, z)
    assert m.tobytes() == np.eye(4, dtype=complex).tobytes()


def test_eigenvalues_diagonal_order():
    """Modulus-descending order, so 2i comes before 1."""
    vals = eigenvalues(np.diag([1.0, 2.0j]))
    assert np.allclose(vals, [2.0j, 1.0], atol=1e-14)


def test_eigenvalues_rank_one():
    vals = eigenvalues(np.ones((3, 3)))
    assert abs(vals[0] - 3.0) <= 1e-12
    assert np.all(np.abs(vals[1:]) <= 1e-12)


def test_eigenvalues_companion():
    # companion matrix of z^2 - 1 has eigenvalues +1 and -1; computed moduli
    # can differ in the last ulp so compare as a multiset
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    vals = np.sort_complex(eigenvalues(c))
    assert np.allclose(vals, [-1.0, 1.0], atol=1e-14)


def test_eigenvalues_tie_break_by_angle():
    vals = eigenvalues(np.diag([-2.0, 2.0]))
    # equal modulus: ascending angle puts +2 (angle 0) before -2 (angle pi)
    assert np.allclose(vals, [2.0, -2.0], atol=0)


def test_singular_values_examples():
    s = singular_values(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(s, [1.0, 0.0], atol=1e-15)
    assert np.allclose(singular_values(np.eye(3)), [1.0, 1.0, 1.0], atol=0)
    s = singular_values(np.array([[3.0, 0.0], [4.0, 0.0]]))
    assert np.allclose(s, [5.0, 0.0], atol=1e-14)


def test_singular_values_rectangular():
    s = singular_values(np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
    assert s.shape == (2,)
    assert np.allclose(s, [2.0, 1.0], atol=1e-14)


def test_shifted_examples(shifted):
    a = np.zeros((2, 2), dtype=complex)
    out = shifted(a, 1.0 + 2.0j)
    assert np.array_equal(out, np.diag([-1.0 - 2.0j, -1.0 - 2.0j]))
    # original is untouched
    assert np.all(a == 0.0)
    b = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(shifted(b, 0.0), b)


def test_summarize_identity():
    s = summarize(np.eye(2))
    assert s.log_abs_det == 0.0
    assert not s.singular
    assert s.spectral_radius == 1.0
    assert s.operator_norm == 1.0
    assert s.hs_norm_sq == 2.0


def test_summarize_diagonal():
    s = summarize(np.diag([2.0, 3.0]))
    assert abs(s.log_abs_det - np.log(6.0)) <= 1e-12
    assert abs(s.spectral_radius - 3.0) <= 1e-12
    assert abs(s.operator_norm - 3.0) <= 1e-12
    assert s.hs_norm_sq == 13.0


def test_summarize_singular_matrix():
    s = summarize(np.ones((2, 2)))
    assert s.singular
    assert s.log_abs_det is None


def test_log_abs_det_lu():
    val, singular = log_abs_det_lu(np.diag([2.0, 5.0]))
    assert abs(val - np.log(10.0)) <= 1e-12
    assert not singular
    _, singular = log_abs_det_lu(np.ones((2, 2)))
    assert singular


def test_logdet_agree_tolerance():
    """1e-8 relative plus 1e-12 absolute, symmetric in its arguments."""
    assert logdet_agree(100.0, 100.0 + 0.9e-6)
    assert not logdet_agree(100.0, 100.0 + 1.1e-6)
    assert logdet_agree(0.0, 0.9e-12) and logdet_agree(0.9e-12, 0.0)
    assert not logdet_agree(0.0, 1.1e-12)


def test_logdet_agree_rejects_an_infinite_value():
    """An infinite value agrees with nothing, though rtol * inf is inf."""
    assert not logdet_agree(float("inf"), 1.0)
    assert not logdet_agree(1.0, float("-inf"))
    assert not logdet_agree(float("inf"), float("inf"))


def test_summarize_cross_check_uses_logdet_agree(monkeypatch):
    a = np.diag([2.0, 3.0])
    assert summarize(a).log_abs_det == pytest.approx(np.log(6.0), abs=1e-12)
    monkeypatch.setattr(spectral, "CROSS_CHECK_ATOL", -1.0)
    with pytest.raises(NumericalConsistencyError):
        summarize(a)


def test_abs_det_equals_product_of_singular_values():
    """|det A| = prod s_k within 1e-6 relative error."""
    rng = np.random.default_rng(12)
    for n in [2, 5, 11, 23, 50]:
        a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a /= np.sqrt(2.0 * n)
        val, singular = log_abs_det_lu(a)
        assert not singular
        s = singular_values(a)
        log_prod = float(np.sum(np.log(s)))
        assert abs(val - log_prod) <= 1e-6 * max(1.0, abs(val))


def test_singular_values_unitary_invariance():
    rng = np.random.default_rng(7)
    for n in [2, 8, 20]:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        s0 = singular_values(a)
        s1 = singular_values(q @ a)
        s2 = singular_values(a @ q)
        assert np.allclose(s0, s1, rtol=1e-8, atol=1e-8)
        assert np.allclose(s0, s2, rtol=1e-8, atol=1e-8)


def test_eigenvalue_shift_consistency(shifted):
    """Spectrum of A - zI is the spectrum of A shifted by -z."""
    rng = np.random.default_rng(19)
    for n in [2, 6, 20]:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        z = complex(rng.standard_normal(), rng.standard_normal())
        lhs = np.sort_complex(eigenvalues(shifted(a, z)))
        rhs = np.sort_complex(eigenvalues(a) - z)
        assert np.allclose(lhs, rhs, atol=1e-6)


def test_weyl_examples():
    w = check_weyl(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert w.lhs == 0.0
    assert abs(w.rhs - 1.0) <= 1e-14
    assert w.holds
    w = check_weyl(np.diag([1.0 + 1.0j, 2.0]))
    assert abs(w.lhs - 6.0) <= 1e-12
    assert abs(w.rhs - 6.0) <= 1e-12
    assert w.holds


def test_weyl_property_random():
    """Sum |lambda_k|^2 <= sum s_k^2 over a thousand random matrices."""
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if rng.random() < 0.3:
            a = a.real.astype(np.complex128)
        assert check_weyl(a).holds


def test_rejects_non_square():
    with pytest.raises(ShapeError):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        summarize(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        eigenvalues(np.ones(4))


def test_rejects_non_finite():
    m = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(InvalidValueError):
        eigenvalues(m)
    with pytest.raises(InvalidValueError):
        singular_values(m)


@pytest.mark.parametrize("fn", [eigenvalues, singular_values, log_abs_det_lu, summarize,
                                numerical_rank], ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("entries", [[["1", "0"], ["0", "2"]], [[True, False], [False, True]],
                                     [["a", "b"], ["c", "d"]], [[1.0, None], [0.0, 1.0]]],
                         ids=["numeric-strings", "bools", "strings", "none"])
def test_matrix_entries_must_be_numbers(fn, entries):
    """The measures' number rule: no string, bool or object is read as a
    number, where complex128 conversion took '1' as 1 and True as 1."""
    with pytest.raises(InvalidValueError, match="entries must be numbers"):
        fn(entries)


@pytest.mark.parametrize("fn", [eigenvalues, singular_values, verify_rank_inequality],
                         ids=lambda fn: fn.__name__)
def test_a_ragged_matrix_is_a_shape_error(fn):
    args = ([[1.0, 2.0], [3.0]],) * (2 if fn is verify_rank_inequality else 1)
    with pytest.raises(ShapeError, match="regular array, got a ragged nesting"):
        fn(*args)


_RNG = np.random.default_rng(21)
_M = _RNG.standard_normal((16, 16)) + 1j * _RNG.standard_normal((16, 16))
_N = _M + np.outer(_RNG.standard_normal(16), np.ones(16))
_LAYOUT_CASES = [(eigenvalues, 1), (singular_values, 1), (log_abs_det_lu, 1),
                 (summarize, 1), (check_weyl, 1), (verify_rank_inequality, 2)]


@pytest.mark.parametrize("fn, arity", _LAYOUT_CASES,
                         ids=[fn.__name__ for fn, _ in _LAYOUT_CASES])
@pytest.mark.parametrize("view", [np.transpose, lambda m: m[::2, ::2]],
                         ids=["transpose", "strided"])
def test_any_layout_gives_the_contiguous_bytes(fn, arity, view):
    """A transposed or strided complex view gives the bytes of its
    contiguous copy."""
    args = [view(m) for m in (_M, _N)[:arity]]
    assert not any(a.flags.c_contiguous for a in args)
    expected = fn(*(np.ascontiguousarray(a) for a in args))
    assert pickle.dumps(fn(*args)) == pickle.dumps(expected)


def test_dimension_cap(monkeypatch):
    monkeypatch.setenv("CIRCLAW_MAX_N", "10")
    assert max_dimension() == 10
    with pytest.raises(ValidationError):
        eigenvalues(np.eye(11))
    # at the cap is fine
    assert eigenvalues(np.eye(10)).shape == (10,)
    monkeypatch.delenv("CIRCLAW_MAX_N")
    assert max_dimension() == 2000


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
