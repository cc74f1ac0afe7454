"""Dense spectral reductions: eigenvalues, singular values, norms, log|det|.

Eigenvalues are labeled by nonincreasing modulus with ties broken by
increasing principal argument; singular values are nonincreasing. log|det|
is computed from the singular values and cross-checked against an
LU-factorization value; disagreement is an internal-consistency error.

A caller's matrix is checked once (`_as_matrix`), and `_log_abs_det` alone
decides that a matrix is singular. This module owns the BLAS thread count
of every BLAS and LAPACK call in the package, least squares included: each
goes through `_blas`, or runs on a lane (`_Lane`), and runs on one thread
when its matrix has no side above BLAS_PIN_MAX_DIM (`_pinned`). A lane
calls numpy's own OpenBLAS LAPACK by ctypes, without the GIL, so lanes run
a matrix's shifts, or whole units (`_on_lanes`), on parallel threads; their
values are bitwise those of np.linalg.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
def _openblas_lib():
    """numpy's bundled OpenBLAS, loaded through ctypes, or None where it is
    missing."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    try:
        return ctypes.CDLL(libs[0]) if libs else None
    except OSError:
        return None


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS (get, set) thread-count functions through
    ctypes, or None where the library or its symbols are missing."""
    lib = _openblas_lib()
    try:
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except AttributeError:  # no such symbol, or no library (None)
        return None
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    return get_threads, set_threads


class _Lapack(NamedTuple):
    zgesdd: Callable
    zgetrf: Callable
    zgeev: Callable


class _FortranArray:
    """The ctypes argument type of a Fortran-contiguous numpy array: its
    data pointer. numpy's ndpointer passes one through a cast that leaves
    cyclic garbage behind on every call."""

    @staticmethod
    def from_param(a: np.ndarray) -> ctypes.c_void_p:
        if not a.flags.f_contiguous:
            raise TypeError("LAPACK needs a Fortran-contiguous array")
        return ctypes.c_void_p(a.ctypes.data)


@functools.cache
def _lapack() -> _Lapack | None:
    """The same OpenBLAS's zgesdd, zgetrf and zgeev (ILP64 ints) through
    ctypes, or None where the library or its symbols are missing. A ctypes
    call releases the GIL, so lanes (_Lane) run their calls at the same
    time; np.linalg holds it through each call."""
    lib = _openblas_lib()
    try:
        lapack = _Lapack(lib.scipy_zgesdd_64_, lib.scipy_zgetrf_64_, lib.scipy_zgeev_64_)
    except AttributeError:  # no such symbol, or no library (None)
        return None
    char, int_p, array = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64), _FortranArray
    # jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, rwork, iwork, info
    lapack.zgesdd.argtypes = [char, int_p, int_p, array, int_p, array, array,
                              int_p, array, int_p, array, int_p, array, array, int_p]
    # m, n, a, lda, ipiv, info
    lapack.zgetrf.argtypes = [int_p, int_p, array, int_p, array, int_p]
    # jobvl, jobvr, n, a, lda, w, vl, ldvl, vr, ldvr, work, lwork, rwork, info
    lapack.zgeev.argtypes = [char, char, int_p, array, int_p, array, array, int_p,
                             array, int_p, array, int_p, array, int_p]
    lapack.zgesdd.restype = lapack.zgetrf.restype = lapack.zgeev.restype = None
    return lapack


def blas_thread_count() -> int | None:
    """The ambient OpenBLAS thread count; None where it cannot be read."""
    openblas = _openblas()
    return None if openblas is None else openblas[0]()


@contextlib.contextmanager
def _pinned(n: int):
    """The block on one BLAS thread when n <= BLAS_PIN_MAX_DIM, with the
    ambient count restored after it, also when it raises. Above the
    constant, or without OpenBLAS's thread symbols, the block runs at the
    ambient count. The count is process-wide, so a block that runs lanes
    pins once for all of them: a restore inside one would unpin the
    others."""
    openblas = _openblas() if n <= BLAS_PIN_MAX_DIM else None
    if openblas is None:
        yield
        return
    get_threads, set_threads = openblas
    ambient = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(ambient)


def _blas(fn, m: np.ndarray, *args, **kwargs):
    """fn(m, *args, **kwargs), pinned by the largest side of m (_pinned)."""
    with _pinned(max(m.shape)):
        return fn(m, *args, **kwargs)


def _lanes(n: int, shifts: int, workers: int = 1) -> int:
    """How many threads shifted factors `shifts` shifts of an n-by-n matrix
    on: the ambient OpenBLAS thread count shared among `workers` units run
    at once, at least 1 and at most the number of shifts. One above
    BLAS_PIN_MAX_DIM, where each call runs at the ambient count, and where
    OpenBLAS's LAPACK or thread-count symbols are missing."""
    openblas = _openblas()
    if openblas is None or _lapack() is None or n > BLAS_PIN_MAX_DIM:
        return 1
    return max(1, min(shifts, openblas[0]() // workers))


def _check_finite(m: np.ndarray) -> None:
    """The one scan of a matrix for non-finite entries."""
    if not np.isfinite(m).all():
        raise InvalidValueError("matrix contains non-finite entries")


def _check_entries(m: np.ndarray) -> None:
    """The finiteness scan and the size cap."""
    _check_finite(m)
    check_dimension(max(m.shape))


def _numbers(values, what: str, value_error=InvalidValueError,
             shape_error=ShapeError) -> np.ndarray:
    """The one number rule: values as a numpy array of ints, floats or
    complex numbers, never of bools, strings or other objects (value_error),
    and never from a ragged nesting (shape_error); `what` names them in the
    message."""
    try:
        a = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise shape_error(f"{what} must form a regular array, got a ragged "
                          "nesting") from None
    if a.dtype.kind not in "iufc":
        raise value_error(f"{what} must be numbers, got {a.dtype} values")
    return a


def _as_matrix(a, square: bool = True) -> np.ndarray:
    """a as a finite C-contiguous complex128 matrix of numbers (_numbers),
    copied only when it is not one, so every layout of the same entries
    gives the same bytes."""
    m = np.asarray(_numbers(a, "matrix entries"), dtype=np.complex128, order="C")
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
    with _pinned(m.shape[0]):
        vals = _Lane(m.shape[0], _lapack()).eigensolve(m)
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


class _Lane:
    """One lane: a Fortran-order n-by-n working buffer, into which each
    shift m - z*I, or m for an eigensolve, is written, and LAPACK's calls on
    it. The SVD workspace is sized once by an lwork = -1 query, as numpy's
    svd queries, and like numpy's it is held only through each SVD. Without
    a lapack handle numpy's functions run instead. A lane calls private
    functions only: perfbench's tracer, which wraps the public ones, keeps
    one span stack and is not thread-safe."""

    def __init__(self, n: int, lapack: _Lapack | None):
        self.lapack = lapack
        self.a = np.empty((n, n), dtype=np.complex128, order="F")
        self._diagonal = self.a.reshape(-1, order="F")[:: n + 1]
        if lapack is None:
            return
        self._n, self._one, self._info = (ctypes.c_int64(v) for v in (n, 1, 0))
        self._ld = ctypes.c_int64(max(n, 1))
        self._ipiv = np.empty(n, dtype=np.int64)
        self.lwork = ctypes.c_int64(-1)
        query = np.empty(1, dtype=np.complex128)
        self._gesdd(np.empty(n), query)
        self.lwork.value = max(1, int(query[0].real))

    def workspace_nbytes(self) -> int:
        """The bytes each SVD allocates beside the buffer: work, and
        numpy's sizes of rwork and iwork for jobz 'N'."""
        return 16 * self.lwork.value + 8 * (7 + 8) * self.a.shape[0]

    def fill(self, m: np.ndarray, z: complex) -> None:
        """The buffer as m - z*I: the one subtraction a shifted copy makes.
        An overflow to inf is left to _check_finite."""
        self.a[...] = m
        with np.errstate(over="ignore", invalid="ignore"):
            self._diagonal -= z

    def _gesdd(self, s: np.ndarray, work: np.ndarray) -> None:
        n = self.a.shape[0]
        self.lapack.zgesdd(b"N", self._n, self._n, self.a, self._ld, s, work,
                           self._one, work, self._one, work, self.lwork,
                           np.empty(7 * n), np.empty(8 * n, dtype=np.int64), self._info)

    def svd_values(self) -> np.ndarray:
        """The buffer's singular values, nonincreasing; zgesdd overwrites
        the buffer."""
        if self.lapack is None:
            return _svd_values(self.a)
        s = np.empty(self.a.shape[0])
        self._gesdd(s, np.empty(self.lwork.value, dtype=np.complex128))
        if self._info.value != 0:
            raise np.linalg.LinAlgError("SVD did not converge")
        return s

    def lu_log_abs_det(self) -> tuple[float, float]:
        """numpy's slogdet of the buffer as (sign, log|det|), with a sign
        that is only told apart from 0; zgetrf overwrites the buffer. The
        sum runs in numpy's order with the same libm calls, so it has
        slogdet's bits (np.log and np.abs differ from them by an ulp)."""
        if self.lapack is None:
            return _lu_log_abs_det(self.a)
        self.lapack.zgetrf(self._n, self._n, self.a, self._ld, self._ipiv, self._info)
        if self._info.value != 0:  # a zero pivot, as numpy reads it
            return 0.0, -math.inf
        logdet = 0.0
        try:
            for d in self.a.diagonal().tolist():
                logdet += math.log(abs(d))
        except OverflowError:  # |d| beyond a float; numpy's sum is inf
            logdet = math.inf
        return 1.0, logdet

    def eigensolve(self, m: np.ndarray) -> np.ndarray:
        """m's eigenvalues in LAPACK's order, by zgeev on the buffer with
        jobvl = jobvr = 'N', numpy's rwork and its lwork = -1 query, so they
        are np.linalg.eigvals's bits; zgeev overwrites the buffer."""
        if self.lapack is None:
            return _blas(np.linalg.eigvals, m)
        self.a[...] = m
        n = self.a.shape[0]
        w, rwork = np.empty(n, dtype=np.complex128), np.empty(2 * n)

        def geev(work: np.ndarray, lwork: int) -> None:
            self.lapack.zgeev(b"N", b"N", self._n, self.a, self._ld, w, work, self._one,
                              work, self._one, work, ctypes.c_int64(lwork), rwork, self._info)

        query = np.empty(1, dtype=np.complex128)
        geev(query, -1)
        lwork = max(1, int(query[0].real))
        geev(np.empty(lwork, dtype=np.complex128), lwork)
        if self._info.value != 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return w

    def factor(self, m: np.ndarray, z: complex) -> ShiftedSpectrum:
        """m - z*I scanned once, then its SVD and, refilled, its LU."""
        self.fill(m, z)
        _check_finite(self.a)
        sv = self.svd_values()
        self.fill(m, z)
        log_abs_det, singular = _log_abs_det(self.lu_log_abs_det(), sv)
        return ShiftedSpectrum(z=z, singular_values=sv, log_abs_det=log_abs_det,
                               singular=singular)


def _on_lanes(run, items: list, lanes: int, n: int, start=lambda: None) -> list:
    """[run(state, item) for item in items] on up to `lanes` threads in one
    _pinned(n) region: lane k takes items k, k + lanes, ... with a state
    start() makes on its thread, and the calling thread is lane 0. A lane
    that raises stops every lane at the items after its own, and the error
    of the first failing item is raised once all have ended, as a serial
    loop would raise it."""
    lanes = max(1, min(lanes, len(items)))
    out = [None] * len(items)
    errors: dict[int, Exception] = {}
    first_error = [len(items)]
    lock = threading.Lock()

    def run_lane(k: int) -> None:
        i = k
        try:
            state = start()
            for i in range(k, len(items), lanes):
                if i > first_error[0]:
                    return
                out[i] = run(state, items[i])
        except Exception as exc:
            with lock:
                errors[i] = exc
                first_error[0] = min(first_error[0], i)

    with _pinned(n):
        helpers = [threading.Thread(target=run_lane, args=(k,))
                   for k in range(1, lanes)]
        for helper in helpers:
            helper.start()
        try:
            run_lane(0)
        except BaseException:  # an interrupt stops the other lanes too
            first_error[0] = -1
            raise
        finally:
            for helper in helpers:
                helper.join()
    if errors:
        raise errors[min(errors)]
    return out


def shifted(m: np.ndarray, z, lanes: int | None = None):
    """The singular values and LU log|det| of m - z*I, at one shift z or at
    each of a sequence of shifts: one ShiftedSpectrum, or a list of them in
    the order of z. m is a square complex128 array and is only read. Each
    shift is written into a lane's working buffer (_Lane), scanned for
    non-finite entries once and factored there. The shifts run on `lanes`
    threads (_on_lanes), by default _lanes(n, shifts), every LAPACK call on
    one BLAS thread at n <= BLAS_PIN_MAX_DIM, so the values are the same at
    any lane count. They are those of singular_values and log_abs_det_lu on
    a shifted copy, unless a zero singular value makes it singular."""
    if not (isinstance(m, np.ndarray) and m.dtype == np.complex128
            and m.ndim == 2 and m.shape[0] == m.shape[1]):
        raise ShapeError("shifted needs a square complex128 array, got "
                         f"{type(m).__name__} {getattr(m, 'shape', '')}")
    n = m.shape[0]
    check_dimension(n)
    one = np.ndim(z) == 0
    points = [complex(z)] if one else [complex(p) for p in z]
    spectra = _on_lanes(lambda lane, p: lane.factor(m, p), points,
                        _lanes(n, len(points)) if lanes is None else lanes, n,
                        lambda: _Lane(n, _lapack()))
    return spectra[0] if one else spectra


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
