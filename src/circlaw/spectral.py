"""Dense spectral reductions: eigenvalues, singular values, norms, log|det|.

Eigenvalues are labeled by nonincreasing modulus with ties broken by
increasing principal argument; singular values are nonincreasing. log|det|
is computed from the singular values and cross-checked against an
LU-factorization value; disagreement is an internal-consistency error.

A caller's matrix is checked once (`_as_matrix`), and `_log_abs_det` alone
decides that a matrix is singular. This module owns the BLAS thread count
of every BLAS and LAPACK call in the package, least squares included: each
goes through `_blas`, which runs it on one thread when its matrix has no
side above BLAS_PIN_MAX_DIM.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidValueError,
    NumericalConsistencyError,
    ShapeError,
    ValidationError,
)

__all__ = [
    "SpectralSummary",
    "ShiftedSpectrum",
    "WeylCheck",
    "eigenvalues",
    "singular_values",
    "shifted",
    "summarize",
    "check_weyl",
    "log_abs_det_lu",
    "logdet_agree",
    "max_dimension",
    "check_dimension",
    "BLAS_PIN_MAX_DIM",
    "blas_thread_count",
]

DEFAULT_MAX_DIMENSION = 2000

# Tolerances of the SVD-vs-LU log|det| cross-check (see logdet_agree).
CROSS_CHECK_RTOL = 1e-8
CROSS_CHECK_ATOL = 1e-12


def max_dimension() -> int:
    """Dense-solve dimension cap; override with env var CIRCLAW_MAX_N."""
    raw = os.environ.get("CIRCLAW_MAX_N")
    if raw is None:
        return DEFAULT_MAX_DIMENSION
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"CIRCLAW_MAX_N must be an integer, got {raw!r}")
    if cap < 1:
        raise ValidationError(f"CIRCLAW_MAX_N must be positive, got {cap}")
    return cap


def check_dimension(n: int) -> None:
    """Reject a dimension above the dense-solve cap, before anything n-by-n
    is built."""
    cap = max_dimension()
    if n > cap:
        raise ValidationError(f"dimension {n} exceeds dense-solve cap {cap} "
                              "(set CIRCLAW_MAX_N to raise it)")


# Largest matrix side whose BLAS and LAPACK calls run on one thread (_blas).
# Measured on the work of an earlier unit, 1 eigvals + 3 SVDs + 2 slogdet (a
# unit now takes no SVD of A, so 2 SVDs), 2-core box, OpenBLAS 0.3.31:
#
#      n    1 thread: wall / CPU    2 threads: wall / CPU
#    200    0.11 / 0.11 s           0.12 / 0.23 s
#    400    0.54-0.56 / 0.54 s      0.54-0.60 / 1.05 s
#    500    0.98-1.05 s             0.88-0.90 s
#   1000    5.5-5.8 s               4.35-4.43 s
#
# Up to 400 a second thread spins without shortening the wall time; above
# it the second thread pays. LAPACK results depend on the thread count in
# their last bits, so one thread also makes the bytes at n <= 400 the same
# at any ambient thread count.
BLAS_PIN_MAX_DIM = 400


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS (get, set) thread-count functions through
    ctypes, or None where the library or its symbols are missing."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(libs[0])
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    return get_threads, set_threads


def blas_thread_count() -> int | None:
    """The ambient OpenBLAS thread count; None where it cannot be read."""
    openblas = _openblas()
    return None if openblas is None else openblas[0]()


def _blas(fn, m: np.ndarray, *args, **kwargs):
    """fn(m, *args, **kwargs) on one BLAS thread when no side of m exceeds
    BLAS_PIN_MAX_DIM, with the ambient count restored afterwards, also when
    fn raises. Above the constant, or without OpenBLAS's thread symbols, fn
    runs at the ambient count. The count is process-wide, so one pinned call
    runs at a time per process."""
    openblas = _openblas() if max(m.shape) <= BLAS_PIN_MAX_DIM else None
    if openblas is None:
        return fn(m, *args, **kwargs)
    get_threads, set_threads = openblas
    ambient = get_threads()
    set_threads(1)
    try:
        return fn(m, *args, **kwargs)
    finally:
        set_threads(ambient)


def _check_entries(m: np.ndarray) -> None:
    """The one scan of a matrix for non-finite entries, and the size cap."""
    if not np.isfinite(m).all():
        raise InvalidValueError("matrix contains non-finite entries")
    check_dimension(max(m.shape))


def _as_matrix(a, square: bool = True) -> np.ndarray:
    """a as a finite C-contiguous complex128 matrix, copied only when it is
    not one, so every layout of the same entries gives the same bytes."""
    m = np.asarray(a, dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got shape {m.shape}")
    if square and m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    _check_entries(m)
    return m


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalues, singular values, and derived norms of one matrix.

    ``log_abs_det`` is the singular-value sum, cross-checked against the
    LU value, or None when the matrix is singular (see _log_abs_det).
    """

    eigenvalues: np.ndarray
    singular_values: np.ndarray
    log_abs_det: float | None
    singular: bool
    spectral_radius: float
    operator_norm: float
    hs_norm_sq: float


@dataclass(frozen=True)
class ShiftedSpectrum:
    """Singular values (nonincreasing) and LU log|det| of one m - z*I.

    ``log_abs_det`` is -inf when ``singular`` is set (see _log_abs_det).
    """

    z: complex
    singular_values: np.ndarray
    log_abs_det: float
    singular: bool


@dataclass(frozen=True)
class WeylCheck:
    lhs: float  # sum of squared eigenvalue moduli
    rhs: float  # sum of squared singular values
    holds: bool


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    vals = _blas(np.linalg.eigvals, m)
    ang = np.angle(vals)
    # atan2 maps a negative-zero imaginary part on the negative real axis
    # to -pi; fold it back so the argument lives in (-pi, pi]
    ang[ang == -np.pi] = np.pi
    order = np.lexsort((ang, -np.abs(vals)))
    return vals[order]


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues, sorted by nonincreasing modulus, with ties broken by
    increasing principal argument in (-pi, pi]."""
    return _eigenvalues(_as_matrix(a))


def _svd_values(m: np.ndarray) -> np.ndarray:
    return _blas(np.linalg.svd, m, compute_uv=False)


def singular_values(a) -> np.ndarray:
    """Singular values in nonincreasing order; rectangular input allowed."""
    return _svd_values(_as_matrix(a, square=False))


@contextlib.contextmanager
def _shifted_in_place(m: np.ndarray, z: complex):
    """Shift a square complex128 array to m - z*I for the block, without an
    n-by-n copy: only the diagonal changes, by the one subtraction a shifted
    copy would make. The saved diagonal is written back on exit, also when
    the block raises, so m comes back bit for bit."""
    if not (isinstance(m, np.ndarray) and m.dtype == np.complex128
            and m.ndim == 2 and m.shape[0] == m.shape[1]):
        raise ShapeError("in-place shift needs a square complex128 array, got "
                         f"{type(m).__name__} {getattr(m, 'shape', '')}")
    idx = np.arange(m.shape[0])
    diagonal = m[idx, idx]
    m[idx, idx] -= z
    try:
        yield m
    finally:
        m[idx, idx] = diagonal


def _lu_log_abs_det(m: np.ndarray):
    return _blas(np.linalg.slogdet, m)


def _log_abs_det(lu, sv: np.ndarray | None = None) -> tuple[float, bool]:
    """The one singular rule: (log|det|, singular) from an LU's (sign,
    log|det|) and the matrix's singular values sv, where known. It is
    singular, with log|det| -inf, when the LU finds a zero or non-finite
    determinant or the smallest singular value is 0."""
    sign, logdet = lu
    if sign == 0 or not np.isfinite(logdet) or (sv is not None and sv.size and sv[-1] == 0):
        return float("-inf"), True
    return float(logdet), False


def log_abs_det_lu(a) -> tuple[float, bool]:
    """log|det| from a pivoted LU factorization; (value, singular)."""
    return _log_abs_det(_lu_log_abs_det(_as_matrix(a)))


def shifted(m: np.ndarray, z: complex) -> ShiftedSpectrum:
    """The singular values and LU log|det| of m - z*I, both factored from
    one shift of m's own array (see _shifted_in_place), which is scanned for
    non-finite entries once. m is a square complex128 array and comes back
    bit for bit, also when a call raises, so it must not be shared by two
    threads at once. The values are those of singular_values and
    log_abs_det_lu on a shifted copy, unless a zero singular value makes it
    singular."""
    with _shifted_in_place(m, z) as s:
        _check_entries(s)
        sv = _svd_values(s)
        lu = _lu_log_abs_det(s)
    log_abs_det, singular = _log_abs_det(lu, sv)
    return ShiftedSpectrum(z=complex(z), singular_values=sv,
                           log_abs_det=log_abs_det, singular=singular)


def logdet_agree(x: float, y: float) -> bool:
    """|x - y| within CROSS_CHECK_RTOL relative plus CROSS_CHECK_ATOL absolute;
    an infinite value agrees with nothing."""
    gap = abs(x - y)
    return gap < np.inf and gap <= CROSS_CHECK_RTOL * max(abs(x), abs(y)) + CROSS_CHECK_ATOL


def summarize(a) -> SpectralSummary:
    """Full spectral summary with the log|det| cross-check applied."""
    m = _as_matrix(a)
    eig = _eigenvalues(m)
    sv = _svd_values(m)
    lu_val, singular = _log_abs_det(_lu_log_abs_det(m), sv)
    log_abs_det = None
    if not singular:
        log_abs_det = float(np.sum(np.log(sv)))
        if not logdet_agree(log_abs_det, lu_val):
            raise NumericalConsistencyError(
                f"log|det| disagreement: singular-value sum {log_abs_det} "
                f"vs LU factorization {lu_val}"
            )
    return SpectralSummary(
        eigenvalues=eig,
        singular_values=sv,
        log_abs_det=log_abs_det,
        singular=singular,
        spectral_radius=float(np.abs(eig[0])) if eig.size else 0.0,
        operator_norm=float(sv[0]) if sv.size else 0.0,
        hs_norm_sq=float(np.sum(np.abs(m) ** 2)),
    )


def check_weyl(a) -> WeylCheck:
    """Compare the eigenvalue and singular-value second moments.

    The eigenvalue sum never exceeds the singular-value sum; equality holds
    for normal matrices.
    """
    m = _as_matrix(a)
    lhs = float(np.sum(np.abs(_eigenvalues(m)) ** 2))
    rhs = float(np.sum(_svd_values(m) ** 2))
    return WeylCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-8 * rhs))
