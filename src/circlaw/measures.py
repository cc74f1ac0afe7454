"""Atomic empirical measures and exact distances between them.

The 1-d measures carry singular values; the 2-d measures carry eigenvalues.
Kolmogorov distances are computed exactly from merged atom lists, and the
integration-by-parts difference is evaluated as an exact piecewise sum (the
CDF difference is constant between consecutive atoms). Two private
primitives carry every distance: `_ecdf`, the right-continuous ECDF of a 1-d
measure, and `_ks_to_law`, the one-sample Kolmogorov distance of a sample to
a continuous law. Atoms may come in any numpy memory layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, MeasureError, SingularSupportError
from .spectral import _numbers

__all__ = [
    "EmpiricalMeasure1D",
    "EmpiricalMeasure2D",
    "IbpResult",
    "ecdf_eval",
    "kolmogorov_distance",
    "ibp_difference",
    "log_integral_diff",
    "radial_disk_distance",
    "angular_disk_distance",
]


def _atoms(values, dtype, label: str) -> np.ndarray:
    """values as a nonempty 1-d array of finite dtype entries; they must be
    numbers by the package's one rule (spectral._numbers), real for a real
    dtype."""
    a = _numbers(values, "atoms", MeasureError, MeasureError)
    if a.ndim != 1:
        raise MeasureError(f"{label} atoms must form a 1-d array, got shape {a.shape}")
    if a.size == 0:
        raise MeasureError(f"a {label} empirical measure needs at least one atom")
    if a.dtype.kind == "c" and np.dtype(dtype).kind != "c":
        raise MeasureError(f"{label} atoms must be real, got complex values")
    a = a.astype(dtype, copy=False)
    if not np.isfinite(a).all():
        raise MeasureError("atoms must be finite")
    return a


def _reals(values, what: str, error) -> np.ndarray:
    """values as an array of real numbers by the package's one rule
    (spectral._numbers); anything else, complex numbers included, raises
    error."""
    a = _numbers(values, what, error, error)
    if a.dtype.kind == "c":
        raise error(f"{what} must be real, got complex values")
    return a


@dataclass(frozen=True)
class EmpiricalMeasure1D:
    """Uniform-weight atoms on the real line, stored sorted."""

    atoms: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", np.sort(_atoms(self.atoms, np.float64, "1-d")))

    @property
    def n(self) -> int:
        return int(self.atoms.size)


@dataclass(frozen=True)
class EmpiricalMeasure2D:
    """Uniform-weight atoms in the complex plane."""

    atoms: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", _atoms(self.atoms, np.complex128, "2-d"))

    @property
    def n(self) -> int:
        return int(self.atoms.size)


def _ecdf(m: EmpiricalMeasure1D, x):
    """Right-continuous ECDF at x, a number or an array: fraction of atoms <= x."""
    return np.searchsorted(m.atoms, x, side="right") / m.n


def _ks_to_law(sample: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Sup |F_n - F| of the sample's ECDF F_n against a continuous CDF F: the
    largest of i/n - F(x_i) and F(x_i) - (i-1)/n over the sorted sample, as
    the sup is attained at a sample point or its left limit."""
    f = cdf(np.sort(sample))
    n = f.size
    return float(max((np.arange(1, n + 1) / n - f).max(),
                     (f - np.arange(0, n) / n).max(), 0.0))


def ecdf_eval(m: EmpiricalMeasure1D, x: float) -> float:
    """Right-continuous ECDF: fraction of atoms <= x."""
    return float(_ecdf(m, x))


def kolmogorov_distance(mu: EmpiricalMeasure1D, nu: EmpiricalMeasure1D) -> float:
    """Exact sup-norm distance between two empirical CDFs.

    The CDF difference is a right-continuous step function whose value on
    each interval between consecutive merged atoms equals its value at the
    left endpoint, so the supremum is attained on the merged atom list.
    """
    pts = np.concatenate([mu.atoms, nu.atoms])
    return float(np.max(np.abs(_ecdf(mu, pts) - _ecdf(nu, pts))))


@dataclass(frozen=True)
class IbpResult:
    """Both sides of the integration-by-parts identity plus the sup-norm bound.

    ``bound`` is (f(beta) - f(alpha)) * ||F_mu - F_nu||_inf and dominates
    |lhs| whenever f is nondecreasing on the interval.
    """

    lhs: float
    rhs: float
    bound: float


def ibp_difference(
    f: Callable[[np.ndarray], np.ndarray],
    mu: EmpiricalMeasure1D,
    nu: EmpiricalMeasure1D,
    interval: tuple[float, float],
) -> IbpResult:
    """Evaluate int f d(mu - nu) against the CDF-difference integral.

    lhs is the atom sum. rhs is the summation-by-parts representation of the
    same quantity, int f'(x)(F_nu - F_mu)(x) dx, computed as an exact
    piecewise sum over the merged-atom partition: on each piece the CDF
    difference is constant and the integral of f' is an f increment, so no
    numeric quadrature is involved. (The boundary terms vanish because both
    CDFs agree at the last atom and are zero before the first.) The
    interval must be two real numbers (DomainError), and f's values real
    numbers (MeasureError).
    """
    ends = _reals(interval, "interval ends", DomainError)
    if ends.shape != (2,):
        raise DomainError(f"interval must be two numbers, got shape {ends.shape}")
    alpha, beta = float(ends[0]), float(ends[1])
    if not alpha < beta:
        raise DomainError(f"interval [{alpha}, {beta}] is empty")
    for m in (mu, nu):
        if m.atoms[0] < alpha or m.atoms[-1] > beta:
            raise DomainError(
                f"atoms [{m.atoms[0]}, {m.atoms[-1]}] fall outside "
                f"[{alpha}, {beta}]"
            )

    def f_of(x):
        return _reals(f(x), "f's values", MeasureError)

    lhs = float(np.mean(f_of(mu.atoms)) - np.mean(f_of(nu.atoms)))

    cuts = np.unique(np.concatenate([mu.atoms, nu.atoms]))
    diff = _ecdf(mu, cuts) - _ecdf(nu, cuts)
    f_cuts = f_of(cuts).astype(np.float64, copy=False)
    # Difference vanishes beyond the last atom, so the piece reaching beta
    # contributes nothing; pieces before the first atom carry zero difference.
    rhs = -float(np.sum(diff[:-1] * (f_cuts[1:] - f_cuts[:-1])))

    ks = float(np.max(np.abs(diff)))
    f_alpha, f_beta = (float(v) for v in f_of(np.array([alpha, beta])))
    bound = (f_beta - f_alpha) * ks
    return IbpResult(lhs=lhs, rhs=rhs, bound=bound)


def log_integral_diff(mu: EmpiricalMeasure1D, nu: EmpiricalMeasure1D) -> float:
    """Mean log-atom difference: int log t d(mu - nu)(t).

    Equals the normalized log-determinant gap when the measures carry the
    singular values of two equally sized matrices.
    """
    for m in (mu, nu):
        if m.atoms[0] <= 0.0:
            raise SingularSupportError(
                f"log integral requires strictly positive atoms, found {m.atoms[0]}"
            )
    return float(np.mean(np.log(mu.atoms)) - np.mean(np.log(nu.atoms)))


def radial_disk_distance(m: EmpiricalMeasure2D) -> float:
    """Sup distance between the radial ECDF and the unit-disk radial CDF r^2."""
    return _ks_to_law(np.abs(m.atoms), lambda r: np.minimum(r * r, 1.0))


def angular_disk_distance(m: EmpiricalMeasure2D) -> float:
    """Kolmogorov distance of normalized atom arguments to the uniform law.

    Arguments are mapped to [0, 1) by theta/(2 pi) mod 1. Atoms exactly at
    the origin carry no argument and are excluded.
    """
    atoms = m.atoms[np.abs(m.atoms) > 0.0]
    if atoms.size == 0:
        raise MeasureError("angular distance undefined: all atoms at the origin")
    return _ks_to_law(np.mod(np.angle(atoms) / (2.0 * np.pi), 1.0), lambda u: u)
