"""Dense spectral reductions: eigenvalues, singular values, norms, log|det|.

Eigenvalues are labeled by nonincreasing modulus with ties broken by
increasing principal argument; singular values are nonincreasing. log|det|
is computed from the singular values and cross-checked against an
LU-factorization value (logdet_agree): `summarize` raises on a
disagreement, while `shifted` returns both values and a run's delta row
fails its cross_check rule (diagnostics.ROW_CHECKS).

A caller's matrix is checked once (`_as_matrix`), and `_log_abs_det` alone
decides that a matrix is singular. This module owns the BLAS thread count
of every BLAS and LAPACK call in the package, least squares and the lanes'
included: each goes through `_blas`, its one pin site, and runs on one
OpenBLAS thread (`_pinned`, a region counted across threads), so its bytes
do not depend on the ambient count. A lane (`_Lane`) calls numpy's own
OpenBLAS LAPACK by ctypes, without the GIL, so lanes run a matrix's shifts,
or whole units (`_on_lanes`), on parallel threads, bitwise np.linalg's
values.
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


# Pinned blocks open on all threads, and the ambient count the first saved.
_pin_lock = threading.Lock()
_pins_open = _pins_ambient = 0


def blas_thread_count() -> int | None:
    """The ambient OpenBLAS thread count, inside a pin too; None if unknown."""
    openblas = _openblas()
    if openblas is None:
        return None
    with _pin_lock:
        return _pins_ambient if _pins_open else openblas[0]()


@contextlib.contextmanager
def _pinned():
    """The block on one BLAS thread. LAPACK results depend on the thread
    count in their last bits, so a call on one thread has the same bytes at
    any ambient count; the lab spends the ambient threads on lanes and units
    instead (_lane_share, run_units). The pinned blocks of all threads form
    one counted region, so they nest and overlap: the first to open saves
    the ambient count and sets 1, the last to close restores it, also when a
    block raises. Without OpenBLAS's thread symbols the block runs at the
    ambient count."""
    global _pins_open, _pins_ambient
    openblas = _openblas()
    if openblas is None:
        yield
        return
    get_threads, set_threads = openblas
    with _pin_lock:
        if not _pins_open:
            _pins_ambient = get_threads()
            set_threads(1)
        _pins_open += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins_open -= 1
            if not _pins_open:
                set_threads(_pins_ambient)


def _blas(fn, *args, **kwargs):
    """fn(*args, **kwargs) on one BLAS thread (_pinned): the one pin site of
    every BLAS and LAPACK call, numpy's functions and a lane's ctypes
    routines alike."""
    with _pinned():
        return fn(*args, **kwargs)


def _lane_share(workers: int = 1) -> int:
    """The threads one unit may run LAPACK calls on: the ambient OpenBLAS
    thread count shared among `workers` units run at once (read inside a pin
    too), at least 1. One where OpenBLAS's LAPACK or thread-count symbols
    are missing."""
    threads = blas_thread_count()
    if threads is None or _lapack() is None:
        return 1
    return max(1, threads // workers)


def _check_finite(m: np.ndarray) -> None:
    """The scan of a caller's matrix, or a lane's shifted diagonal, for inf,
    NaN and an entry whose modulus overflows a float."""
    if not np.isfinite(np.abs(m)).all():
        raise InvalidValueError("matrix contains non-finite entries")


# Columns per block of _check_columns' scan.
_SCAN_COLUMNS = 64


def _check_columns(m: np.ndarray) -> None:
    """_check_finite on m's blocks of _SCAN_COLUMNS columns, so the scan's
    temporary is a block's moduli, not half of m; a Fortran-order m's blocks
    are contiguous."""
    for k in range(0, m.shape[1], _SCAN_COLUMNS):
        _check_finite(m[:, k:k + _SCAN_COLUMNS])


def _numbers(values, what: str, value_error=InvalidValueError,
             shape_error=ShapeError) -> np.ndarray:
    """The one number rule: values as a numpy array of ints, floats or
    complex numbers, never of bools, strings or other objects (value_error),
    and never from a ragged nesting (shape_error); `what` names them in the
    message. numpy takes a bool mixed into numbers as 0 or 1, so anything
    but a numeric ndarray, which is taken as it is, has its elements looked
    at once more."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iufc":
        return values
    try:
        a = np.asarray(values)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise shape_error(f"{what} must form a regular array, got a ragged "
                          "nesting") from None
    if a.dtype.kind not in "iufc":
        raise value_error(f"{what} must be numbers, got {a.dtype} values")
    if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat):
        raise value_error(f"{what} must be numbers, got a bool among them")
    return a


def _as_matrix(a, square: bool = True) -> np.ndarray:
    """The one input rule for a caller's matrix: a finite C-contiguous
    complex128 matrix of numbers (_numbers) within the cap, copied only when
    it is not one, so every layout of the same entries gives the same bytes."""
    m = np.asarray(_numbers(a, "matrix entries"), dtype=np.complex128, order="C")
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got shape {m.shape}")
    if square and m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    _check_finite(m)
    check_dimension(max(m.shape))
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


def _by_modulus(vals: np.ndarray) -> np.ndarray:
    """Eigenvalues sorted by nonincreasing modulus, ties by increasing
    principal argument in (-pi, pi]."""
    ang = np.angle(vals)
    # atan2 maps a negative-zero imaginary part on the negative real axis
    # to -pi; fold it back so the argument lives in (-pi, pi]
    ang[ang == -np.pi] = np.pi
    order = np.lexsort((ang, -np.abs(vals)))
    return vals[order]


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    return _by_modulus(_Lane(m.shape[0], _lapack()).eigensolve(m))


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
    it, each through _blas. A lane may be given its buffer: an eigensolve
    then factors that matrix in place. The SVD and eigensolve workspaces are
    sized at their first call by an lwork = -1 query, as numpy's, and each
    is held only through its call. Without a lapack handle numpy's functions
    run instead. A lane calls private functions only: perfbench's tracer,
    which wraps the public ones, keeps one span stack and is not
    thread-safe."""

    def __init__(self, n: int, lapack: _Lapack | None, buffer: np.ndarray | None = None):
        self.lapack = lapack
        self.a = np.empty((n, n), dtype=np.complex128, order="F") if buffer is None else buffer
        self._diagonal = self.a.reshape(-1, order="F")[:: n + 1]
        if lapack is None:
            return
        self._n, self._one, self._info = (ctypes.c_int64(v) for v in (n, 1, 0))
        self._ld = ctypes.c_int64(max(n, 1))
        self._ipiv = np.empty(n, dtype=np.int64)

    @functools.cached_property
    def lwork(self) -> int:
        """The SVD's work length, queried once, by an lwork = -1 call."""
        query = np.empty(1, dtype=np.complex128)
        self._gesdd(np.empty(self.a.shape[0]), query, -1)
        return max(1, int(query[0].real))

    @functools.cached_property
    def eig_lwork(self) -> int:
        """The eigensolve's work length, queried once, by an lwork = -1
        call; it depends on n alone, and the buffer is left as it was."""
        query = np.empty(1, dtype=np.complex128)
        self._geev(np.empty(self.a.shape[0], dtype=np.complex128), query, -1)
        return max(1, int(query[0].real))

    def workspace_nbytes(self) -> int:
        """The bytes each SVD allocates beside the buffer: work, and
        numpy's sizes of rwork and iwork for jobz 'N'."""
        return 16 * self.lwork + 8 * (7 + 8) * self.a.shape[0]

    def eig_workspace_nbytes(self) -> int:
        """The bytes each eigensolve allocates beside the buffer: work, the
        eigenvalues and rwork."""
        return 16 * self.eig_lwork + (16 + 16) * self.a.shape[0]

    def fill(self, m: np.ndarray, z: complex) -> None:
        """The buffer as m - z*I: m copied in, then shifted."""
        self.a[...] = m
        self.shift(z)

    def shift(self, z: complex) -> None:
        """z subtracted from the buffer's diagonal: the one subtraction a
        shifted copy makes. An overflow to inf, or a non-finite z, is left
        to factor."""
        with np.errstate(over="ignore", invalid="ignore"):
            self._diagonal -= z

    def _gesdd(self, s: np.ndarray, work: np.ndarray, lwork: int) -> None:
        n = self.a.shape[0]
        _blas(self.lapack.zgesdd, b"N", self._n, self._n, self.a, self._ld, s, work,
              self._one, work, self._one, work, ctypes.c_int64(lwork),
              np.empty(7 * n), np.empty(8 * n, dtype=np.int64), self._info)

    def _geev(self, w: np.ndarray, work: np.ndarray, lwork: int) -> None:
        _blas(self.lapack.zgeev, b"N", b"N", self._n, self.a, self._ld, w, work,
              self._one, work, self._one, work, ctypes.c_int64(lwork),
              np.empty(2 * self.a.shape[0]), self._info)

    def svd_values(self) -> np.ndarray:
        """The buffer's singular values, nonincreasing; zgesdd overwrites
        the buffer."""
        if self.lapack is None:
            return _svd_values(self.a)
        s = np.empty(self.a.shape[0])
        self._gesdd(s, np.empty(self.lwork, dtype=np.complex128), self.lwork)
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
        _blas(self.lapack.zgetrf, self._n, self._n, self.a, self._ld, self._ipiv, self._info)
        if self._info.value != 0:  # a zero pivot, as numpy reads it
            return 0.0, -math.inf
        logdet = 0.0
        try:
            for d in self.a.diagonal().tolist():
                logdet += math.log(abs(d))
        except OverflowError:  # |d| beyond a float; numpy's sum is inf
            logdet = math.inf
        return 1.0, logdet

    def eigensolve(self, m: np.ndarray | None = None) -> np.ndarray:
        """The eigenvalues of m, copied into the buffer, or of the buffer
        itself, in LAPACK's order, by zgeev with jobvl = jobvr = 'N',
        numpy's rwork and its lwork = -1 query, so they are
        np.linalg.eigvals's bits; zgeev overwrites the buffer."""
        if m is not None:
            self.a[...] = m
        if self.lapack is None:
            return _blas(np.linalg.eigvals, self.a)
        w = np.empty(self.a.shape[0], dtype=np.complex128)
        self._geev(w, np.empty(self.eig_lwork, dtype=np.complex128), self.eig_lwork)
        if self._info.value != 0:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return w

    def factor(self, m: np.ndarray, z: complex) -> ShiftedSpectrum:
        """m - z*I with its diagonal scanned (m was checked by _as_matrix),
        then its SVD and, refilled, its LU."""
        self.fill(m, z)
        _check_finite(self._diagonal)
        sv = self.svd_values()
        self.fill(m, z)
        return _spectrum(z, sv, self.lu_log_abs_det())


def _spectrum(z: complex, sv: np.ndarray, lu) -> ShiftedSpectrum:
    """The ShiftedSpectrum of one shift from its SVD and its LU's (sign,
    log|det|), by the one singular rule (_log_abs_det)."""
    log_abs_det, singular = _log_abs_det(lu, sv)
    return ShiftedSpectrum(z=z, singular_values=sv, log_abs_det=log_abs_det,
                           singular=singular)


def _on_lanes(run, items: list, lanes: int, start=lambda: None) -> list:
    """[run(state, item) for item in items] on up to `lanes` threads, which
    pin nothing: lane k takes items k, k + lanes, ... with a state start()
    makes on its thread, and the calling thread is lane 0. A lane
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

    helpers = [threading.Thread(target=run_lane, args=(k,)) for k in range(1, lanes)]
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


def shifted(m, z, lanes: int | None = None):
    """The singular values and LU log|det| of m - z*I, at one shift z or at
    each of a sequence of shifts: one ShiftedSpectrum, or a list of them in
    the order of z. m is taken by the one input rule (_as_matrix) and only
    read, z by the number rule (_numbers) as a point or a 1-d sequence; a
    non-finite point is found by the scan of its shifted diagonal. Each
    shift is written into a lane's working buffer (_Lane) and factored
    there. The shifts run on `lanes` threads (_on_lanes), by default the
    ambient share (_lane_share) capped at the number of shifts, every
    LAPACK call on one BLAS thread, so the values are the same at any lane
    count and ambient thread count.
    They are those of singular_values and log_abs_det_lu on a shifted copy,
    unless a zero singular value makes it singular."""
    m = _as_matrix(m)
    n = m.shape[0]
    shifts = _numbers(z, "shifts")
    if shifts.ndim > 1:
        raise ShapeError(f"shifts must be a point or a 1-d sequence, got shape {shifts.shape}")
    one = shifts.ndim == 0
    points = shifts.astype(np.complex128).reshape(-1).tolist()
    spectra = _on_lanes(lambda lane, p: lane.factor(m, p), points,
                        min(len(points), _lane_share()) if lanes is None else lanes,
                        lambda: _Lane(n, _lapack()))
    return spectra[0] if one else spectra


def _eigensolve_beside(m: np.ndarray, points: list, write) -> tuple[np.ndarray, list]:
    """m's eigenvalues, sorted (_by_modulus), and at each shift z the pair
    of ShiftedSpectrum of w - z*I and of m - z*I, for the matrix w that
    write(buffer) writes into an n-by-n buffer, as shifted's of w and m.

    m is a Fortran-order complex128 matrix checked by _as_matrix, which the
    eigensolve, m's last use, factors in place: the call spends m. Each
    shift has a lane (_Lane). First, on the shifts' lanes, m - z*I with its
    diagonal scanned, its LU, and m - z*I again. Then, on one more thread
    (_on_lanes), zgeev on m's own buffer runs beside each lane's SVD of
    m - z*I and the SVD and LU of w - z*I, for which write fills the buffer
    twice, each time with w scanned in column blocks (_check_columns) and
    its shifted diagonal scanned. So m and one buffer per shift are the
    only n-by-n arrays held, as shifted's m and lanes. write runs on a lane
    thread, so it calls private functions only (see _Lane)."""
    n = m.shape[0]
    lapack = _lapack()
    jobs = [(_Lane(n, lapack), z) for z in points]

    def lu_of_m(_, job) -> tuple[float, float]:
        lane, z = job
        lane.fill(m, z)
        _check_finite(lane._diagonal)
        lu = lane.lu_log_abs_det()
        lane.fill(m, z)
        return lu

    def load_w(lane: _Lane, z: complex) -> None:
        write(lane.a)
        _check_columns(lane.a)
        lane.shift(z)
        _check_finite(lane._diagonal)

    def rest(lane: _Lane, z: complex, lu) -> tuple[ShiftedSpectrum, ShiftedSpectrum]:
        m_z = _spectrum(z, lane.svd_values(), lu)
        load_w(lane, z)
        sv = lane.svd_values()
        load_w(lane, z)
        return _spectrum(z, sv, lane.lu_log_abs_det()), m_z

    lus = _on_lanes(lu_of_m, jobs, len(jobs))
    tasks = [functools.partial(rest, *job, lu) for job, lu in zip(jobs, lus)]
    tasks.append(_Lane(n, lapack, m).eigensolve)
    done = _on_lanes(lambda _, task: task(), tasks, len(tasks))
    return _by_modulus(done[-1]), done[:-1]


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
