"""Tests for eigenvalue/singular-value summaries and the Weyl comparison."""

import pickle
import sys
import threading
import time

import numpy as np
import pytest

from circlaw import (
    EntryDistribution,
    InvalidValueError,
    MatrixSample,
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
from circlaw.ensemble import numerical_rank, sample_matrix


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
    np.eye(3),
    np.arange(9).reshape(3, 3),
    np.arange(9.0).reshape(3, 3).astype(np.complex64),
    [[1.0 + 0j]],
    [[2, 1], [0, 3]],
])
def test_shifted_in_place_rejects_other_than_square_complex128(m):
    """A real, integer, complex64 or list m gives the bytes of its complex128
    copy: shifted takes m by the one input rule. (Named for the type test
    kept from the in-place shift, which rejected all of these; its non-2-d
    and non-square cases are test_rejects_non_square's.)"""
    z = [0.5, 1.0 - 2.0j]
    expected = spectral.shifted(np.array(m, dtype=np.complex128), z)
    assert pickle.dumps(spectral.shifted(m, z)) == pickle.dumps(expected)


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
    thread counts 1 and 2: the shifts on one lane and on two, at an exactly
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
        for lanes in (1, 2):
            got = spectral.shifted(m, points, lanes)
            assert [(s.z, s.singular_values.tobytes(), repr(s.log_abs_det), s.singular)
                    for s in got] == \
                [(s.z, s.singular_values.tobytes(), repr(s.log_abs_det), s.singular)
                 for s in expected]
        with spectral._pinned():
            eig = spectral._Lane(n, spectral._lapack()).eigensolve(m)
        assert eig.dtype == np.complex128
        assert eig.tobytes() == spectral._blas(np.linalg.eigvals, m).tobytes()

    for threads in (1, 2):
        at_ambient_threads(threads, compare)


def test_lane_lu_of_a_pivot_beyond_a_float_is_numpys_verdict(monkeypatch):
    """A pivot whose modulus exceeds a float, though both its parts are
    finite, from entries whose moduli do not: the lane's log|det| sum
    overflows, and its verdict is numpy's route's, singular with log|det|
    -inf."""
    c = 0.75e308 * (1 + 1j)
    m = spectral._as_matrix([[1, -c], [1, c]])

    def verdict():
        lane = spectral._Lane(2, spectral._lapack())
        lane.fill(m, 0.0)
        with np.errstate(over="ignore"):
            return spectral._log_abs_det(lane.lu_log_abs_det())

    assert verdict() == _numpy_route(monkeypatch, verdict) == (-np.inf, True)


def test_lanes_run_pinned_and_leave_no_thread(lapack_calls, at_ambient_threads):
    """Every lane call runs on one BLAS thread, two lanes share the shifts,
    and the ambient count comes back, also when a lane raises on an
    overflowing diagonal; no lane thread outlives the call."""
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
        spectral._on_lanes(run, list(range(400)), 2)
    assert len(done) < 100


def test_threads_pinning_at_once_leave_the_ambient_count(at_ambient_threads):
    """Two threads of a library caller, each taking five eigensolves at
    n = 200, leave OpenBLAS at the ambient count after every one of 20
    trials: no pin saves another thread's 1 as the count to restore."""
    get_threads = spectral._openblas()[0]
    m = np.random.default_rng(3).standard_normal((200, 200)).astype(complex)

    def solve():
        for _ in range(5):
            eigenvalues(m)

    def trial():
        threads = [threading.Thread(target=solve) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        return get_threads()

    assert [at_ambient_threads(2, trial) for _ in range(20)] == [2] * 20


def test_a_pin_holds_after_another_threads_pin_closes(at_ambient_threads):
    """A thread that pins while another thread's pin is open still runs on
    one BLAS thread once that earlier pin closes, and reads the ambient
    count through blas_thread_count; the last pin to close restores it."""
    get_threads = spectral._openblas()[0]
    opened, close = threading.Event(), threading.Event()

    def other():
        with spectral._pinned():
            opened.set()
            close.wait(10)

    def overlap():
        helper = threading.Thread(target=other)
        helper.start()
        assert opened.wait(10)
        with spectral._pinned():
            close.set()
            helper.join(10)
            assert not helper.is_alive()
            inside = get_threads(), spectral.blas_thread_count()
        return inside, get_threads()

    assert at_ambient_threads(2, overlap) == ((1, 2), 2)


def test_a_large_call_beside_another_threads_pin_has_its_lone_bytes(at_ambient_threads):
    """At two ambient threads, the eigenvalues and singular values of a
    600-by-600 matrix taken while a second thread holds a pin have the bytes
    of the same calls made alone: every call runs on one BLAS thread,
    whatever its size, so its bytes do not depend on another thread's
    timing."""
    m = np.random.default_rng(11).standard_normal((600, 600)).astype(complex)

    def calls():
        return eigenvalues(m).tobytes(), singular_values(m).tobytes()

    def beside_a_pin():
        opened, close = threading.Event(), threading.Event()

        def hold(_):
            opened.set()
            close.wait(60)

        helper = threading.Thread(target=spectral._blas, args=(hold, np.eye(8)))
        helper.start()
        try:
            assert opened.wait(60)
            return calls()
        finally:
            close.set()
            helper.join(60)

    alone = at_ambient_threads(2, calls)
    assert at_ambient_threads(2, beside_a_pin) == alone


def test_pins_on_more_threads_than_cores_under_fast_switching(at_ambient_threads):
    """Eight threads, switching every microsecond, each open and close
    pins 300 times, nested one deep: every block reads one BLAS thread,
    and the ambient count comes back once all have ended."""
    get_threads = spectral._openblas()[0]
    seen = []

    def pin_often():
        for _ in range(300):
            with spectral._pinned():
                with spectral._pinned():
                    seen.append(get_threads())
                seen.append(get_threads())

    def run():
        threads = [threading.Thread(target=pin_often) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        return get_threads()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert at_ambient_threads(2, run) == 2
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 8 * 600 and set(seen) == {1}


def test_lane_share_is_the_same_inside_a_pin(at_ambient_threads):
    """_lanes reads the ambient count inside a pin, where OpenBLAS reads 1,
    so a unit run inside another's pin gets the same share of threads."""
    if spectral._lapack() is None:
        pytest.skip("numpy's OpenBLAS LAPACK symbols are not available")
    cases = [(shifts, workers) for shifts in (1, 2, 9) for workers in (1, 2, 3)]

    def shares():
        outside = [spectral._lanes(*case) for case in cases]
        with spectral._pinned():
            return outside, [spectral._lanes(*case) for case in cases]

    outside, inside = at_ambient_threads(2, shares)
    assert inside == outside and max(outside) == 2


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
    with pytest.raises(ShapeError, match="square"):
        spectral.shifted(np.zeros((2, 3), dtype=complex), 1.0)
    with pytest.raises(ShapeError, match="2-d"):
        spectral.shifted(np.zeros(4, dtype=complex), 1.0)


def test_rejects_non_finite():
    """NaN, and an entry whose parts are finite but whose modulus is not:
    summarize gave NaN eigenvalues for it, and the LU a false singular."""
    for entry in (np.nan, 1.5e308 * (1 + 1j)):
        m = np.array([[1.0, entry], [0.0, 1.0]])
        for fn in (eigenvalues, singular_values, summarize, log_abs_det_lu,
                   shifted_spectrum):
            with pytest.raises(InvalidValueError, match="non-finite"):
                fn(m)


def shifted_spectrum(m):
    """spectral.shifted at one shift, as a function of the matrix alone."""
    return spectral.shifted(m, 0.5 + 0.5j)


def shifts_of_the_identity(z):
    """spectral.shifted of the 2-by-2 identity at the shifts z."""
    return spectral.shifted(np.eye(2), z)


def matrix_sample(m):
    """A MatrixSample of the entries m, at their row count."""
    return MatrixSample(dim=len(m), entries=m, seed=0,
                        distribution=EntryDistribution.parse("complex-gaussian"))


@pytest.mark.parametrize("fn", [eigenvalues, singular_values, log_abs_det_lu, summarize,
                                numerical_rank, shifted_spectrum, matrix_sample,
                                shifts_of_the_identity],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("entries", [[["1", "0"], ["0", "2"]], [[True, False], [False, True]],
                                     [["a", "b"], ["c", "d"]], [[1.0, None], [0.0, 1.0]]],
                         ids=["numeric-strings", "bools", "strings", "none"])
def test_matrix_entries_must_be_numbers(fn, entries):
    """The measures' number rule: no string, bool or object is read as a
    number, where complex128 conversion took '1' as 1 and True as 1; nor as
    a shift."""
    what = "shifts" if fn is shifts_of_the_identity else "entries"
    with pytest.raises(InvalidValueError, match=f"{what} must be numbers"):
        fn(entries)


def test_a_bool_mixed_into_numbers_is_not_a_number():
    """numpy coerces [[1.0, True], [0, 2]] to float64, so eigenvalues
    returned [2, 1], and shifted factored the shift False at z = 0."""
    with pytest.raises(InvalidValueError, match="entries must be numbers, got a bool"):
        eigenvalues([[1.0, True], [0, 2]])
    with pytest.raises(InvalidValueError, match="shifts must be numbers, got a bool"):
        spectral.shifted(np.eye(2), [0.5, False])
    with pytest.raises(InvalidValueError, match="must be numbers, got a bool"):
        spectral.shifted(np.eye(2), [np.float64(0.5), np.bool_(True)])
    with pytest.raises(InvalidValueError, match="must be numbers, got a bool"):
        eigenvalues([np.array([1.0, 0.0]), np.array([False, True])])


def test_a_numeric_array_is_taken_as_it_is():
    """A numeric ndarray passes the number rule without a look at its
    elements, as the same object."""
    for a in (np.eye(3), np.arange(4), np.ones(2, dtype=np.complex64)):
        assert spectral._numbers(a, "values") is a


def test_shifts_are_numbers_as_a_point_or_a_1d_sequence():
    """shifted took '0.5' as 0.5 and True as 1, and [[0.5]] raised a raw
    TypeError."""
    for z in ("0.5", True):
        with pytest.raises(InvalidValueError, match="shifts must be numbers"):
            shifts_of_the_identity(z)
    with pytest.raises(ShapeError, match="1-d sequence, got shape"):
        shifts_of_the_identity([[0.5]])


@pytest.mark.parametrize("fn", [eigenvalues, singular_values, verify_rank_inequality,
                                shifted_spectrum, matrix_sample, shifts_of_the_identity],
                         ids=lambda fn: fn.__name__)
def test_a_ragged_matrix_is_a_shape_error(fn):
    args = ([[1.0, 2.0], [3.0]],) * (2 if fn is verify_rank_inequality else 1)
    with pytest.raises(ShapeError, match="regular array, got a ragged nesting"):
        fn(*args)


_RNG = np.random.default_rng(21)
_M = _RNG.standard_normal((16, 16)) + 1j * _RNG.standard_normal((16, 16))
_N = _M + np.outer(_RNG.standard_normal(16), np.ones(16))
_LAYOUT_CASES = [(eigenvalues, 1), (singular_values, 1), (log_abs_det_lu, 1),
                 (summarize, 1), (check_weyl, 1), (verify_rank_inequality, 2),
                 (shifted_spectrum, 1), (matrix_sample, 1)]


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
    # shifted, a sample's entries and a draw take the same cap
    with pytest.raises(ValidationError):
        spectral.shifted(np.eye(11), 0.5)
    with pytest.raises(ValidationError):
        matrix_sample(np.eye(11))
    with pytest.raises(ValidationError):
        sample_matrix(EntryDistribution.parse("complex-gaussian"), 11, 0)
    # at the cap is fine
    assert eigenvalues(np.eye(10)).shape == (10,)
    monkeypatch.delenv("CIRCLAW_MAX_N")
    assert max_dimension() == 2000


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
