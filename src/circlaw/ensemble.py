"""Standardized i.i.d. matrix samplers and deterministic perturbation builders.

Entry laws are standardized to mean 0 and unit second absolute moment, so the
scaled matrix X/sqrt(n) has bulk spectrum filling the unit disc. Perturbations
are declared by a small spec (kind, rank budget, Hilbert-Schmidt budget) and
realized, for every kind, as n-by-k factors of M = U V*; no n-by-n M is kept.
"""

from __future__ import annotations

import math
import numbers
import os
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import (
    BudgetViolationError,
    InvalidValueError,
    ShapeError,
    ValidationError,
)
from .spectral import _as_matrix, _blas, _svd_values, check_dimension

__all__ = [
    "DISTRIBUTION_KINDS",
    "PERTURBATION_KEYS",
    "PERTURBATION_KINDS",
    "EntryDistribution",
    "PerturbationSpec",
    "Perturbation",
    "MatrixSample",
    "AssembledPair",
    "sample_matrix",
    "build_perturbation",
    "perturbed",
    "scaled",
    "assemble",
    "numerical_rank",
    "derive_seed",
    "read_matrix_csv",
    "write_matrix_csv",
]

# The config keys of each perturbation kind, each a PerturbationSpec field;
# the kinds are its keys.
_BUDGET_KEYS = ("rank_budget", "hs_budget_coefficient")
PERTURBATION_KEYS = {
    "zero": ("kind", *_BUDGET_KEYS),
    "all-ones": ("kind", "scale", *_BUDGET_KEYS),
    "low-rank": ("kind", "k", "left_factors", "right_factors", *_BUDGET_KEYS),
    "file": ("kind", "path", *_BUDGET_KEYS),
}
PERTURBATION_KINDS = tuple(PERTURBATION_KEYS)

# Singular values at or below this fraction of s1 count as numerically zero.
RANK_TOLERANCE = 1e-10

_SQRT_HALF = np.sqrt(0.5)
_SQRT_THREE = np.sqrt(3.0)


def _unit_complex(parts: np.ndarray) -> None:
    """Scale a complex row's interleaved standard parts to E|x|^2 = 1."""
    parts *= _SQRT_HALF


# Each entry law's row fill, fill(rng, parts, p), and the open interval its
# parameter p lies in, or None for a law without one. parts is the row's
# float64 view, real and imaginary parts interleaved, zero on entry; a real
# law fills the real parts only. Entry k of a row consumes a fixed prefix of
# the row's stream (draws 2k and 2k+1 for a complex law), independent of n.
# The kinds are its keys.
_DISTRIBUTIONS = {
    "complex-gaussian": (
        lambda rng, parts, p: _unit_complex(rng.standard_normal(out=parts)), None),
    "real-gaussian": (
        lambda rng, parts, p: np.copyto(parts[::2], rng.standard_normal(parts.size // 2)),
        None),
    "rademacher": (
        lambda rng, parts, p: np.copyto(
            parts[::2], 2.0 * rng.integers(0, 2, parts.size // 2) - 1.0), None),
    "complex-rademacher": (
        lambda rng, parts, p: _unit_complex(np.subtract(
            2.0 * rng.integers(0, 2, parts.size), 1.0, out=parts)), None),
    "centered-bernoulli": (
        lambda rng, parts, p: np.copyto(
            parts[::2], ((rng.random(parts.size // 2) < p) - p) / np.sqrt(p * (1.0 - p))),
        (0, 1)),
    "centered-uniform": (
        lambda rng, parts, p: np.copyto(
            parts[::2], (2.0 * rng.random(parts.size // 2) - 1.0) * _SQRT_THREE), None),
}
DISTRIBUTION_KINDS = tuple(_DISTRIBUTIONS)

# A parameterized wire string, kind(p); any other is a bare kind.
_WIRE_RE = re.compile(r"([^(]*)\((.+)\)")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _real(value, label: str) -> float:
    """A number as a float. A number is a real (numpy's included) that is not
    a bool, so never a string; an integer too large for a float is rejected
    naming the key."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValidationError(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{label} is an integer too large for a float") from None


def _finite(value, label: str) -> float:
    """A finite number as a float, by _real's number rule."""
    x = _real(value, label)
    if not math.isfinite(x):
        raise ValidationError(f"{label} must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class EntryDistribution:
    """A scalar entry law with mean 0 and E|X|^2 = 1.

    ``kind`` is one of :data:`DISTRIBUTION_KINDS`. ``p`` is the law's
    parameter, a number strictly inside the open interval of the kind's
    table row (the Bernoulli law's success probability, in (0, 1)), and
    must be None for a law without one. The wire string is ``kind`` or
    ``kind(p)``.
    """

    kind: str
    p: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in DISTRIBUTION_KINDS:
            raise ValidationError(
                f"unknown distribution kind {self.kind!r}; "
                f"expected one of {', '.join(DISTRIBUTION_KINDS)}"
            )
        interval = _DISTRIBUTIONS[self.kind][1]
        if interval is None:
            if self.p is not None:
                raise ValidationError(f"{self.kind} takes no parameter, got p={self.p!r}")
            return
        if self.p is None:
            raise ValidationError(
                f"{self.kind} requires a parameter, as in {self.kind}(p)")
        p = _real(self.p, f"{self.kind} p")
        lo, hi = interval
        if not lo < p < hi:
            raise ValidationError(f"{self.kind} requires p in ({lo}, {hi}), got {p!r}")
        object.__setattr__(self, "p", p)

    @classmethod
    def parse(cls, text: str) -> "EntryDistribution":
        """Parse a whole wire string, ``kind`` or ``kind(p)``."""
        if not isinstance(text, str):
            raise ValidationError(f"distribution must be a string, got {text!r}")
        m = _WIRE_RE.fullmatch(text)
        if m is None:
            return cls(text)
        kind, arg = m.groups()
        try:
            p = float(arg)
        except ValueError:
            raise ValidationError(f"bad {kind} parameter: {text!r}") from None
        return cls(kind, p)

    def __str__(self) -> str:
        return self.kind if self.p is None else f"{self.kind}({self.p!r})"


@dataclass(frozen=True)
class MatrixSample:
    """An n-by-n draw of i.i.d. standardized entries, taken by the one input
    rule (spectral._as_matrix) and stored writeable, a read-only array copied
    once. scaled (and so assemble) spends the entries."""

    dim: int
    entries: np.ndarray
    seed: int
    distribution: EntryDistribution

    def __post_init__(self) -> None:
        entries = _as_matrix(self.entries)
        if not entries.flags.writeable:
            entries = entries.copy()
        object.__setattr__(self, "entries", entries)
        if entries.shape != (self.dim, self.dim):
            raise ShapeError(f"entries shape {entries.shape} does not match dim {self.dim}")


@dataclass(frozen=True)
class AssembledPair:
    """The scaled pair A = X/sqrt(n) and B = (X + M)/sqrt(n)."""

    a_matrix: np.ndarray
    b_matrix: np.ndarray
    dim: int
    perturbation_rank: int


def _sequence(value, label: str):
    """A list; a tuple or a numpy array of at least one axis stands for one."""
    if isinstance(value, (list, tuple)) or isinstance(value, np.ndarray) and value.ndim:
        return value
    raise ValidationError(f"{label} must be a list, got {value!r}")


def _complex(value, label: str) -> complex:
    """A complex number given as a number (not a bool) or an [re, im] pair
    of reals."""
    if isinstance(value, numbers.Real):
        return complex(_real(value, label), 0.0)
    if isinstance(value, numbers.Complex):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_real(value[0], label), _real(value[1], label))
    raise ValidationError(
        f"{label} must be a number or an [re, im] pair of reals, got {value!r}")


def _complex_factors(vectors, label: str) -> tuple[tuple[complex, ...], ...]:
    """Factor vectors as tuples of complex; None stands for none."""
    return tuple(tuple(_complex(v, f"{label} entry") for v in _sequence(vec, label))
                 for vec in _sequence(() if vectors is None else vectors, label))


@dataclass(frozen=True)
class PerturbationSpec:
    """Declarative description of a deterministic additive perturbation.

    The fields are the config file's perturbation keys and this class owns
    their rules, so a spec built in Python obeys the config file's. A key is
    given when it is not None; a key outside the kind's PERTURBATION_KEYS
    must not be. A spec holds only what was given: no field is filled from
    another, and only ``scale`` has a default (1.0). ``scale`` and
    ``hs_budget_coefficient`` are numbers (not bools or strings) that fit a
    float; a factor entry is a number or an ``[re, im]`` pair of reals; a
    given ``k`` must be the integer number of factor pairs; ``path`` is a
    str or ``os.PathLike``. They are stored as float, complex and str. The
    scale and factor entries must be finite.

    build_perturbation enforces ``rank_budget`` (an int >= 0) and
    ``hs_budget_coefficient`` (the c in ||M||^2 <= c n^2, c >= 0, inf for
    no bound) once per dim. A budget left None is not checked: the factors
    already bound the rank by their width k and ||M||^2 by their core.
    """

    kind: str
    scale: float | None = None
    left_factors: tuple[tuple[complex, ...], ...] | None = None
    right_factors: tuple[tuple[complex, ...], ...] | None = None
    path: str | None = None
    rank_budget: int | None = None
    hs_budget_coefficient: float | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in PERTURBATION_KINDS:
            raise ValidationError(
                f"unknown perturbation kind {self.kind!r}; "
                f"expected one of {', '.join(PERTURBATION_KINDS)}"
            )
        stray = [f.name for f in fields(self)
                 if f.name not in PERTURBATION_KEYS[self.kind]
                 and getattr(self, f.name) is not None]
        if stray:
            raise ValidationError("; ".join(
                f"key {key!r} not applicable to perturbation kind {self.kind!r}"
                for key in stray))
        if self.kind == "all-ones":
            object.__setattr__(self, "scale", _finite(
                1.0 if self.scale is None else self.scale, "perturbation scale"))
        if self.kind == "file":
            if self.path is not None and not isinstance(self.path, (str, os.PathLike)):
                raise ValidationError(
                    f"perturbation path must be a string or os.PathLike, got {self.path!r}")
            if not self.path:
                raise ValidationError("file perturbation requires a path")
            object.__setattr__(self, "path", str(self.path))
        if self.kind == "low-rank":
            for side in ("left_factors", "right_factors"):
                object.__setattr__(self, side, _complex_factors(getattr(self, side), side))
            if not self.left_factors or len(self.left_factors) != len(self.right_factors):
                raise ValidationError(
                    "low-rank perturbation requires matching nonempty factor lists"
                )
            if not all(math.isfinite(v.real) and math.isfinite(v.imag)
                       for vec in (*self.left_factors, *self.right_factors) for v in vec):
                raise ValidationError("low-rank factor entries must be finite")
            k = len(self.left_factors)
            if self.k is not None and not (_is_int(self.k) and self.k == k):
                raise ValidationError(
                    f"perturbation k must be the integer {k}, the number of "
                    f"factor pairs, got {self.k!r}")
        budget = self.rank_budget
        if budget is not None and not (_is_int(budget) and budget >= 0):
            raise ValidationError(
                f"rank_budget must be a nonnegative integer, got {budget!r}")
        if self.hs_budget_coefficient is not None:
            c = _real(self.hs_budget_coefficient, "hs_budget_coefficient")
            if not c >= 0:
                raise ValidationError(
                    f"hs_budget_coefficient must be >= 0 (inf for no bound), got {c!r}")
            object.__setattr__(self, "hs_budget_coefficient", c)


def _check_seed(seed, label: str = "seed") -> None:
    """A seed is an integer in [0, 2^64), so no two seeds alias."""
    if not (_is_int(seed) and 0 <= seed < 1 << 64):
        raise ValidationError(f"{label} must be an integer in [0, 2^64), got {seed!r}")


def derive_seed(master_seed: int, *key: int) -> int:
    """Derive a 64-bit sub-seed from a master seed in [0, 2^64) and a key path.

    Pure function of its arguments; used so that replicated experiments can
    run in any order (or in parallel) and still draw identical samples.
    """
    _check_seed(master_seed, "master_seed")
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hashmix(values: np.ndarray, hash_const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix step on uint32 values; the hash constant is
    advanced by mult and returned with them."""
    values = values ^ np.uint32(hash_const)
    hash_const = hash_const * mult & _MASK32
    values = values * np.uint32(hash_const)
    return values ^ (values >> np.uint32(16)), hash_const


def _row_keys(seed: int, n: int) -> np.ndarray:
    """Row j's Philox key, SeedSequence(seed, spawn_key=(0, j))
    .generate_state(2, np.uint64), for every j < n at once.

    Row j's assembled entropy is that of SeedSequence(seed, spawn_key=(0,))
    (the seed's words, zero-padded to the 4-word pool, then the spawn word
    0) followed by the word j. So its pool is that sequence's pool with j
    mixed into each of the 4 words, after the 20 hashmix steps the shared
    words took (4 fill, 12 cross-mix, 4 for the word 0); generate_state
    then hashes the 4 pool words into the key's 4 uint32 words. Every row
    takes the same uint32 steps, so they run on a vector of j.
    """
    pool = np.random.SeedSequence(seed, spawn_key=(0,)).pool
    j = np.arange(n, dtype=np.uint32)
    words = np.empty((n, 4), dtype=np.uint32)
    hash_a = _INIT_A * pow(_MULT_A, 20, 1 << 32) & _MASK32
    hash_b = _INIT_B
    for i, word in enumerate(pool):
        mixed_j, hash_a = _hashmix(j, hash_a, _MULT_A)
        mixed = np.uint32(_MIX_MULT_L * int(word) & _MASK32) - np.uint32(_MIX_MULT_R) * mixed_j
        words[:, i], hash_b = _hashmix(mixed ^ (mixed >> np.uint32(16)), hash_b, _MULT_B)
    return words.astype("<u4").view("<u8").astype(np.uint64)


def sample_matrix(dist: EntryDistribution, n: int, seed: int) -> MatrixSample:
    """Draw an n-by-n matrix of i.i.d. standardized entries.

    Entry (j, k) is a pure function of (seed, j, k): each row has its own
    counter-based Philox stream, keyed by SeedSequence(seed, spawn_key=(0, j)),
    and entry k consumes a fixed prefix of it. Two calls with equal arguments
    return bitwise-identical matrices, and rows may be generated in any
    order (see _draw). An n above the dense-solve cap is rejected before
    anything is drawn.
    """
    if not _is_int(n) or n < 1:
        raise ShapeError(f"matrix dimension must be a positive integer, got {n!r}")
    check_dimension(n)
    _check_seed(seed)
    entries = _draw(dist, seed, np.empty((n, n), dtype=np.complex128))
    return MatrixSample(dim=n, entries=entries, seed=seed, distribution=dist)


def _draw(dist: EntryDistribution, seed: int, out: np.ndarray) -> np.ndarray:
    """sample_matrix's entries, written row by row into out, an n-by-n
    complex128 array of any layout, whatever it held; returns out.

    Each row is filled in one zeroed row array, so a real law's imaginary
    parts stay 0, and copied into out. One Philox serves every row: setting
    its state to a row's key (_row_keys) and a zero counter starts the
    stream Philox(that SeedSequence) would, without building a bit
    generator per row.
    """
    fill = _DISTRIBUTIONS[dist.kind][0]
    row = np.zeros(out.shape[1], dtype=np.complex128)
    parts = row.view(np.float64)
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state
    for j, key in enumerate(_row_keys(seed, out.shape[0])):
        state["state"]["key"] = key
        bit_generator.state = state
        fill(rng, parts, dist.p)
        out[j] = row
    return out


def _rank(s: np.ndarray) -> int:
    """Count the descending singular values s (at least one) above
    RANK_TOLERANCE * s1."""
    return int(np.count_nonzero(s > RANK_TOLERANCE * s[0]))


def numerical_rank(m) -> int:
    """Count singular values above RANK_TOLERANCE * s1. m is checked as
    spectral's functions check a matrix, and may be rectangular; an empty m
    has rank 0 and takes no SVD."""
    m = _as_matrix(m, square=False)
    return _rank(_svd_values(m)) if m.size else 0


def read_matrix_csv(path, n: int) -> np.ndarray:
    """Read an n-by-n complex matrix from rows ``j,k,re,im`` (1-indexed).

    Entries absent from the file are zero. Duplicate coordinates and
    out-of-range indices are rejected.
    """
    m = np.zeros((n, n), dtype=np.complex128)
    seen: set[tuple[int, int]] = set()
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValidationError(
                f"{path}:{lineno}: expected 'j,k,re,im', got {line!r}"
            )
        try:
            j, k = int(parts[0]), int(parts[1])
            re_v, im_v = float(parts[2]), float(parts[3])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: malformed row {line!r}")
        if not (1 <= j <= n and 1 <= k <= n):
            raise ShapeError(
                f"{path}:{lineno}: index ({j},{k}) outside 1..{n}"
            )
        if (j, k) in seen:
            raise ValidationError(f"{path}:{lineno}: duplicate entry ({j},{k})")
        seen.add((j, k))
        if not (np.isfinite(re_v) and np.isfinite(im_v)):
            raise InvalidValueError(f"{path}:{lineno}: non-finite value")
        m[j - 1, k - 1] = complex(re_v, im_v)
    return m


def write_matrix_csv(path, m) -> None:
    """Write nonzero entries of a matrix, taken by the one input rule
    (spectral._as_matrix), as ``j,k,re,im`` rows that read_matrix_csv reads."""
    m = _as_matrix(m, square=False)
    lines = []
    for j in range(m.shape[0]):
        for k in range(m.shape[1]):
            v = m[j, k]
            if v != 0:
                lines.append(f"{j + 1},{k + 1},{float(v.real)!r},{float(v.imag)!r}")
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


@dataclass(frozen=True)
class Perturbation:
    """M = U V* of one spec at one dim, its numerical rank, budgets checked.

    ``u`` is the read-only n-by-k factor U and ``vh`` the read-only k-by-n
    V*, both built once per dim; no n-by-n M is kept (a unit forms U V* only
    to add it to X).
    """

    spec: PerturbationSpec
    dim: int
    rank: int
    u: np.ndarray = field(repr=False, compare=False)
    vh: np.ndarray = field(repr=False, compare=False)


def _low_rank_factors(spec: PerturbationSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The given factors, once their lengths and k fit dim n."""
    for vec in (*spec.left_factors, *spec.right_factors):
        if len(vec) != n:
            raise ShapeError(f"low-rank factor has length {len(vec)}, expected {n}")
    k = len(spec.left_factors)
    if k > n:
        raise ShapeError(f"low-rank k={k} exceeds dimension {n}")
    return (np.array(spec.left_factors, dtype=np.complex128).T,
            np.array(spec.right_factors, dtype=np.complex128).T)


def _file_factors(spec: PerturbationSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """U_r S_r and V_r of the file M's SVD, truncated at its numerical rank r."""
    w, s, vh = _blas(np.linalg.svd, read_matrix_csv(spec.path, n))
    r = _rank(s)
    return w[:, :r] * s[:r], vh[:r].conj().T


# Each perturbation kind's factors, factors(spec, n) -> (U, V), n-by-k
# complex arrays with M = U V*. The kinds are its keys.
_FACTORS = {
    "zero": lambda spec, n: (np.zeros((n, 0), np.complex128),) * 2,
    "all-ones": lambda spec, n: (np.full((n, 1), spec.scale, np.complex128),
                                 np.ones((n, 1), np.complex128)),
    "low-rank": _low_rank_factors,
    "file": _file_factors,
}


def build_perturbation(spec: PerturbationSpec, n: int) -> Perturbation:
    """M = U V* at dim n with its rank, after enforcing the declared budgets.

    The factors come from the kind's row of _FACTORS, once per dim. For
    every kind the rank and ||M||^2_HS are the numerical rank (at
    RANK_TOLERANCE) and squared Frobenius norm of the k-by-k core R_U R_V*
    from QR of the factors; a core that overflows a float is rejected.
    """
    if not _is_int(n) or n < 1:
        raise ShapeError(f"matrix dimension must be a positive integer, got {n!r}")
    u, v = _FACTORS[spec.kind](spec, n)
    # U V* = Q_U (R_U R_V*) Q_V* with orthonormal columns in Q_U and Q_V,
    # so M and the k-by-k core share their singular values.
    with np.errstate(over="ignore", invalid="ignore"):  # inf is handled below
        core = _blas(np.matmul, _blas(np.linalg.qr, u, mode="r"),
                     _blas(np.linalg.qr, v, mode="r").conj().T)
        hs_sq = float(np.sum(np.abs(core) ** 2))
    if not np.all(np.isfinite(core)):
        raise InvalidValueError(f"{spec.kind} perturbation: ||M|| overflows a float")
    rank = numerical_rank(core)
    if spec.rank_budget is not None and rank > spec.rank_budget:
        raise BudgetViolationError(
            f"{spec.kind} perturbation has numerical rank {rank}, "
            f"declared budget {spec.rank_budget}"
        )
    if spec.hs_budget_coefficient is not None:
        limit = spec.hs_budget_coefficient * n * n
        if hs_sq > limit * (1.0 + 1e-12) + 1e-300:
            raise BudgetViolationError(
                f"perturbation squared HS norm {hs_sq} exceeds c*n^2 = {limit}"
            )
    vh = v.conj().T
    u.flags.writeable = vh.flags.writeable = False  # every unit shares them
    return Perturbation(spec, n, rank, u, vh)


def perturbed(x: MatrixSample, perturbation: Perturbation) -> np.ndarray:
    """B = (X + M)/sqrt(n) for the perturbation's M in a new array: U V*,
    plus X, times s = 1/sqrt(n). x is left as it was."""
    if perturbation.dim != x.dim:
        raise ShapeError(f"perturbation dim {perturbation.dim} does not match "
                         f"sample dim {x.dim}")
    b = _blas(np.matmul, perturbation.u, perturbation.vh)
    b += x.entries
    b *= 1.0 / np.sqrt(float(x.dim))
    return b


def scaled(x: MatrixSample) -> np.ndarray:
    """A = X/sqrt(n) in x's own array: x is spent, its entries become A."""
    return _scale(x.entries)


def _scale(x: np.ndarray) -> np.ndarray:
    """An n-by-n X times 1/sqrt(n), in place, so X's array becomes A's;
    returns it."""
    x *= 1.0 / np.sqrt(float(x.shape[0]))
    return x


def assemble(x: MatrixSample, perturbation: Perturbation) -> AssembledPair:
    """A = X/sqrt(n) and B = (X + M)/sqrt(n) for the perturbation's M: B by
    perturbed, then x spent by scaled into A, so the pair holds two n-by-n
    arrays rather than three. A caller who wants to keep X passes a copy."""
    b = perturbed(x, perturbation)
    return AssembledPair(
        a_matrix=scaled(x), b_matrix=b, dim=x.dim, perturbation_rank=perturbation.rank,
    )
