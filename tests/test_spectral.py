"""Tests for eigenvalue/singular-value summaries and the Weyl comparison."""

import pickle

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


def test_shifted_in_place_matches_shifted_and_restores(shifted):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    before = m.tobytes()
    z = 0.3 - 0.7j
    expected = shifted(m, z).tobytes()
    with spectral._shifted_in_place(m, z) as s:
        assert s is m
        assert m.tobytes() == expected
    assert m.tobytes() == before
    with pytest.raises(RuntimeError, match="block failed"):
        with spectral._shifted_in_place(m, z):
            raise RuntimeError("block failed")
    assert m.tobytes() == before


@pytest.mark.parametrize("m", [
    np.zeros((2, 3), dtype=complex),
    np.zeros(4, dtype=complex),
    np.zeros((3, 3)),
    np.zeros((3, 3), dtype=np.complex64),
    [[1.0 + 0j]],
])
def test_shifted_in_place_rejects_other_than_square_complex128(m):
    with pytest.raises(ShapeError, match="square complex128"):
        with spectral._shifted_in_place(m, 1.0):
            pass


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
    """_svd_values with its smallest value set to 0, as for a matrix whose
    LU factors without a zero pivot."""
    svd_values = spectral._svd_values

    def zeroed(m):
        sv = svd_values(m)
        sv[-1] = 0.0
        return sv

    monkeypatch.setattr(spectral, "_svd_values", zeroed)


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
