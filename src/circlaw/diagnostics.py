"""Finite-n diagnostics for the perturbed-vs-central spectral comparison.

Each operation turns one step of the log-determinant comparison argument
into a measurable quantity: the normalized log|det| gap at a shift z, the
rank bound on the Kolmogorov distance between singular-value ECDFs, extreme
singular-value scaling across dimensions, the rank-one outlier case, and
the Green-identity quadrature for polynomial root-counting measures.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import ensemble, measures, spectral
from .ensemble import _finite, _is_int
from .errors import (
    DomainError,
    InvalidValueError,
    ShapeError,
    ValidationError,
)
from .measures import EmpiricalMeasure1D

__all__ = [
    "ZGrid",
    "ROW_CHECKS",
    "SCALING_STATS",
    "DeltaDiagnostics",
    "RankCheck",
    "DimScalingStats",
    "ScalingReport",
    "ConstantCaseRecord",
    "GreenIdentityResult",
    "Rectangle",
    "BumpFunction",
    "LemmaSuiteReport",
    "delta_row",
    "delta_at",
    "verify_rank_inequality",
    "delta_scan",
    "constant_case",
    "green_identity_residual",
    "aggregate_scaling",
    "ks_distance_brute_force",
    "run_lemma_trials",
]

# Slack constants for the recorded inequality checks.
RANK_SLACK = 1e-12
CHAIN_SLACK = 1e-8

# Upper bound on the number of points a ZGrid may hold.
MAX_Z_GRID_POINTS = 10**6


def _positive(value, label: str) -> float:
    """A finite positive number as a float, by ensemble's number rule."""
    x = _finite(value, label)
    if not x > 0:
        raise ValidationError(f"{label} must be positive, got {x!r}")
    return x


@dataclass(frozen=True)
class ZGrid:
    """Finite rectangular grid of complex shift points.

    Each range is a [lo, hi] pair of numbers (a list or a tuple) and the step
    a number, by ensemble's number rule; all are stored as floats. A config
    file's z_grid object is read as ZGrid(**obj), so these are its rules.
    """

    re_range: tuple[float, float]
    im_range: tuple[float, float]
    step: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "step", _positive(self.step, "grid step"))
        for name in ("re_range", "im_range"):
            pair = getattr(self, name)
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ValidationError(
                    f"{name} must be a [lo, hi] pair of numbers, got {pair!r}")
            lo, hi = (_finite(v, name) for v in pair)
            if hi < lo:
                raise ValidationError(f"{name} must be an ordered pair, got {(lo, hi)}")
            object.__setattr__(self, name, (lo, hi))
        # Each span is checked first: an inf or huge span has no int count.
        if not all((hi - lo) / self.step < MAX_Z_GRID_POINTS
                   for lo, hi in (self.re_range, self.im_range)) \
                or len(self) > MAX_Z_GRID_POINTS:
            raise ValidationError(
                f"re_range {self.re_range} x im_range {self.im_range} at step "
                f"{self.step} exceeds {MAX_Z_GRID_POINTS} grid points")

    def _counts(self) -> tuple[int, ...]:
        """Points per axis, real then imaginary: lo, lo + step, ... up to hi."""
        return tuple(int(math.floor((hi - lo) / self.step + 1e-9)) + 1
                     for lo, hi in (self.re_range, self.im_range))

    def points(self) -> np.ndarray:
        """Grid points, imaginary part varying slowest."""
        n_re, n_im = self._counts()
        res = self.re_range[0] + self.step * np.arange(n_re)
        ims = self.im_range[0] + self.step * np.arange(n_im)
        return (res[None, :] + 1j * ims[:, None]).ravel()

    def __len__(self) -> int:
        return math.prod(self._counts())


# The checks of every delta row, by name. A RowRule gives a check's two sides
# on a row, whether they hold (slacks are read at each call) and the line
# that names a failure by both sides; unless on_flagged, it holds vacuously
# on a singular-flagged row. A RowCheck is a rule evaluated on one row.
RowRule = NamedTuple("RowRule", [("sides", Callable), ("holds", Callable),
                                 ("line", str), ("on_flagged", bool)])
RowCheck = NamedTuple("RowCheck", [("lhs", float), ("rhs", float), ("holds", bool)])
ROW_CHECKS = {
    "cross_check": RowRule(  # the SVD and LU routes agree
        lambda d: (d.delta, d.delta_logdet), lambda x, y: spectral.logdet_agree(x, y),
        "cross-check: delta={!r} vs delta_logdet={!r}", False),
    "rank_inequality": RowRule(
        lambda d: (d.ks, d.rank_bound), lambda x, y: x <= y + RANK_SLACK,
        "rank inequality: ks={!r} > rank_bound={!r}", True),
    "chain_bound": RowRule(  # |delta| <= (log s_max - log s_min) * ks
        lambda d: (abs(d.delta), d.ibp_bound), lambda x, y: x <= y + CHAIN_SLACK,
        "chain bound: |delta|={!r} > ibp_bound={!r}", False),
}


@dataclass(frozen=True)
class DeltaDiagnostics:
    """Per-shift record of the log|det| gap and its controlling inequalities.

    ``delta`` is the singular-value route (mean log-atom difference);
    ``delta_logdet`` is the independent LU-factorization route. Both are NaN
    when ``singular_flag`` is set. Its checks are the rules of ROW_CHECKS.
    """

    z: complex
    delta: float
    delta_logdet: float
    s_max_a: float
    s_min_a: float
    s_max_b: float
    s_min_b: float
    ks: float
    rank_bound: float
    ibp_bound: float
    singular_flag: bool

    def check(self, name: str) -> RowCheck:
        """The rule ROW_CHECKS[name] on this row."""
        rule = ROW_CHECKS[name]
        lhs, rhs = rule.sides(self)
        vacuous = self.singular_flag and not rule.on_flagged
        return RowCheck(lhs, rhs, bool(vacuous or rule.holds(lhs, rhs)))

    def checks(self) -> dict[str, RowCheck]:
        """Every rule of ROW_CHECKS on this row, by name."""
        return {name: self.check(name) for name in ROW_CHECKS}

    cross_check_ok = property(lambda self: self.check("cross_check").holds)
    rank_inequality_ok = property(lambda self: self.check("rank_inequality").holds)
    chain_bound_ok = property(lambda self: self.check("chain_bound").holds)

    def failed_checks(self) -> list[str]:
        """One line per failing check, with both sides of its inequality."""
        return [ROW_CHECKS[name].line.format(c.lhs, c.rhs)
                for name, c in self.checks().items() if not c.holds]


@dataclass(frozen=True)
class RankCheck:
    ks: float
    bound: float
    holds: bool


def delta_row(a: spectral.ShiftedSpectrum, b: spectral.ShiftedSpectrum,
              rank: int) -> DeltaDiagnostics:
    """The normalized log|det| gap and its bounds at one shift, from the
    shifted spectra of A - zI and B - zI (spectral.shifted) and the rank of
    M, which bounds the KS distance by rank / n.

    If either shifted matrix is singular, by spectral's one rule (its
    ``singular`` field), the record comes back with ``singular_flag`` set and
    NaN gap values instead of an exception.
    """
    sv_a, sv_b = a.singular_values, b.singular_values
    if a.z != b.z or sv_a.shape != sv_b.shape:
        raise ShapeError(f"shifted spectra of A at {a.z} ({sv_a.size} values) and "
                         f"B at {b.z} ({sv_b.size} values) do not pair")
    n = sv_a.size
    mu_a, mu_b = EmpiricalMeasure1D(sv_a), EmpiricalMeasure1D(sv_b)
    ks = measures.kolmogorov_distance(mu_a, mu_b)
    s_max_a, s_min_a = float(sv_a[0]), float(sv_a[-1])
    s_max_b, s_min_b = float(sv_b[0]), float(sv_b[-1])

    singular = bool(a.singular or b.singular)
    if singular:
        delta = delta_logdet = ibp_bound = float("nan")
    else:
        delta = measures.log_integral_diff(mu_a, mu_b)
        delta_logdet = (a.log_abs_det - b.log_abs_det) / n
        s_max = max(s_max_a, s_max_b)
        s_min = min(s_min_a, s_min_b)
        ibp_bound = (math.log(s_max) - math.log(s_min)) * ks

    return DeltaDiagnostics(
        z=a.z,
        delta=delta,
        delta_logdet=delta_logdet,
        s_max_a=s_max_a,
        s_min_a=s_min_a,
        s_max_b=s_max_b,
        s_min_b=s_min_b,
        ks=ks,
        rank_bound=rank / n,
        ibp_bound=ibp_bound,
        singular_flag=singular,
    )


def delta_at(pair: ensemble.AssembledPair, z: complex) -> DeltaDiagnostics:
    """delta_row of the pair's A - zI and B - zI at one shift.

    The pair's arrays are only read: each shifted matrix is formed in a
    working copy, one at a time, and factored there (spectral.shifted). One
    shift takes one lane; delta_scan spends the ambient BLAS thread budget
    across a grid's shifts, with the same bytes.
    """
    return delta_row(spectral.shifted(pair.a_matrix, z),
                     spectral.shifted(pair.b_matrix, z), pair.perturbation_rank)


def verify_rank_inequality(a, b) -> RankCheck:
    """Check the rank bound on the singular-value ECDF distance.

    For n-by-m inputs the measures carry the n eigenvalues of sqrt(AA*), so
    singular values are zero-padded to the row count, and the bound is
    rank(a - b) / n. The bound is shift-invariant: subtracting z*I from both
    operands leaves a - b unchanged.
    """
    a, b = (spectral._as_matrix(m, square=False) for m in (a, b))
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    rows = a.shape[0]
    sv_a, sv_b = (np.pad(spectral._svd_values(m), (0, rows - min(m.shape)))
                  for m in (a, b))
    ks = measures.kolmogorov_distance(
        EmpiricalMeasure1D(sv_a), EmpiricalMeasure1D(sv_b)
    )
    with np.errstate(over="ignore", invalid="ignore"):  # numerical_rank rejects inf
        difference = a - b
    bound = ensemble.numerical_rank(difference) / rows
    holds = ROW_CHECKS["rank_inequality"].holds(ks, bound)
    return RankCheck(ks=ks, bound=bound, holds=bool(holds))


def delta_scan(pair: ensemble.AssembledPair, grid: ZGrid) -> list[DeltaDiagnostics]:
    """delta_at on every grid point, each side's shifts factored by one
    spectral.shifted call; flagged points are kept."""
    points = grid.points()
    return [delta_row(a_z, b_z, pair.perturbation_rank) for a_z, b_z in
            zip(spectral.shifted(pair.a_matrix, points),
                spectral.shifted(pair.b_matrix, points))]


# The scaling report's statistics, by DimScalingStats field, in scaling.csv's
# order. A ScalingStat gives a statistic's value on an unflagged delta row,
# its reducer over a dim's rows, and the ScalingReport field and sign of its
# fitted log-log exponent (None if it has none).
ScalingStat = NamedTuple("ScalingStat", [("value", Callable), ("reduce", Callable),
                                         ("exponent", str), ("sign", int)])
SCALING_STATS = {
    "median_abs_delta": ScalingStat(lambda d: abs(d.delta), np.median, None, None),
    "median_ks": ScalingStat(lambda d: d.ks, np.median, "eps_hat", -1),
    "min_smin": ScalingStat(lambda d: min(d.s_min_a, d.s_min_b), min, "b_hat", -1),
    "max_smax": ScalingStat(lambda d: max(d.s_max_a, d.s_max_b), max, "a_hat", 1),
}


@dataclass(frozen=True)
class DimScalingStats:
    """Aggregates over all non-flagged (replicate, z) rows at one dimension."""

    dim: int
    median_abs_delta: float
    median_ks: float
    min_smin: float
    max_smax: float
    rows: int
    flagged: int


@dataclass(frozen=True)
class ScalingReport:
    """Per-dimension statistics plus log-log fitted growth/decay exponents.

    ``a_hat`` tracks growth of the largest shifted singular value, ``b_hat``
    decay of the smallest, ``eps_hat`` decay of the Kolmogorov distance.
    ``smin_violation_fraction`` is the fraction of rows whose smallest
    shifted singular value drops below n**(-reference_exponent_b0).
    """

    dims: tuple[int, ...]
    per_dim: tuple[DimScalingStats, ...]
    a_hat: float
    b_hat: float
    eps_hat: float
    reference_exponent_b0: float
    smin_violation_fraction: float


def _fit_slope(dims: Sequence[int], values: Sequence[float]) -> float:
    """OLS slope of log(value) against log(dim) over positive values.

    Returns 0.0 when fewer than two positive values remain (a flat or
    degenerate statistic carries no measurable exponent); aggregate_scaling's
    NaN instead means fewer than two usable dims, so no statistic was fitted.
    """
    pts = [(math.log(d), math.log(v)) for d, v in zip(dims, values)
           if np.isfinite(v) and v > 0]
    if len(pts) < 2:
        return 0.0
    xs, ys = np.array(pts).T
    slope, _ = spectral._blas(np.polyfit, xs, ys, 1)
    return float(slope)


def aggregate_scaling(
    rows: Sequence[tuple[int, int, DeltaDiagnostics]],
    b0: float,
) -> ScalingReport:
    """Aggregate scan rows into SCALING_STATS' per-dim values and exponents.

    A dim whose rows are all singular-flagged is left out of ``per_dim`` and
    of the fits; with fewer than two usable dims the exponents are NaN.
    """
    by_dim: dict[int, list[DeltaDiagnostics]] = {}
    for dim, _replicate, diag in rows:
        by_dim.setdefault(dim, []).append(diag)

    smin = SCALING_STATS["min_smin"].value
    per_dim: list[DimScalingStats] = []
    violations = total = 0
    for dim in sorted(by_dim):
        diags = by_dim[dim]
        ok = [d for d in diags if not d.singular_flag]
        if not ok:
            continue
        try:
            threshold = dim ** (-b0)
        except OverflowError:  # every finite s_min is below it
            threshold = math.inf
        violations += sum(1 for d in ok if smin(d) < threshold)
        total += len(ok)
        per_dim.append(DimScalingStats(
            dim=dim, **{name: float(stat.reduce([stat.value(d) for d in ok]))
                        for name, stat in SCALING_STATS.items()},
            rows=len(diags), flagged=len(diags) - len(ok)))

    dims = tuple(s.dim for s in per_dim)
    fit = len(per_dim) >= 2
    return ScalingReport(
        dims=dims,
        per_dim=tuple(per_dim),
        **{stat.exponent: stat.sign * _fit_slope(dims, [getattr(s, name) for s in per_dim])
           if fit else math.nan for name, stat in SCALING_STATS.items() if stat.exponent},
        reference_exponent_b0=b0,
        smin_violation_fraction=(violations / total) if total else 0.0,
    )


@dataclass(frozen=True)
class ConstantCaseRecord:
    """Outlier and bulk summary of one unit with the all-ones perturbation."""

    dim: int
    replicate: int
    lambda1: complex
    lambda2: complex
    s1_central: float


def constant_case(
    n: int, dist: ensemble.EntryDistribution, seed: int
) -> ConstantCaseRecord:
    """Sample X from the raw seed, perturb by the all-ones matrix, and
    report as the record of replicate 0 the two largest-modulus eigenvalues
    of B (one eigensolve) and the operator norm of A (one SVD). As in a run
    unit, B and A are formed one at a time, each from its own draw of X."""
    if n < 2:
        raise ShapeError(f"constant case needs n >= 2, got {n}")
    spectral.check_dimension(n)
    perturbation = ensemble.build_perturbation(ensemble.PerturbationSpec("all-ones"), n)
    eig = spectral.eigenvalues(
        ensemble.perturbed(ensemble.sample_matrix(dist, n, seed), perturbation))
    a = ensemble.scaled(ensemble.sample_matrix(dist, n, seed))
    return ConstantCaseRecord(
        dim=n, replicate=0, lambda1=complex(eig[0]), lambda2=complex(eig[1]),
        s1_central=float(spectral.singular_values(a)[0]))


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle in the complex plane; its bounds are finite floats."""

    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def __post_init__(self) -> None:
        for name in ("re_lo", "re_hi", "im_lo", "im_hi"):
            object.__setattr__(self, name, _finite(getattr(self, name), f"rectangle {name}"))
        if not (self.re_lo < self.re_hi and self.im_lo < self.im_hi):
            raise ValidationError("rectangle bounds must satisfy lo < hi")


@dataclass(frozen=True)
class BumpFunction:
    """Smooth compactly supported radial bump with an analytic Laplacian.

    f(z) = amplitude * exp(1 - 1/(1 - u)) with u = |z - center|^2 / radius^2
    inside the support disc, 0 outside. f(center) = amplitude. The center is
    a finite number or [re, im] pair of reals, stored as a complex; the
    radius (> 0) and the amplitude are finite numbers, stored as floats.
    """

    center: complex = 0.0 + 0.0j
    radius: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        center = ensemble._complex(self.center, "bump center")
        if not cmath.isfinite(center):
            raise ValidationError(f"bump center must be finite, got {center!r}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", _positive(self.radius, "bump radius"))
        object.__setattr__(self, "amplitude", _finite(self.amplitude, "bump amplitude"))

    def _u(self, z) -> np.ndarray:
        d = spectral._numbers(z, "bump argument").astype(np.complex128, copy=False) - self.center
        return (d.real * d.real + d.imag * d.imag) / (self.radius * self.radius)

    def value(self, z) -> np.ndarray:
        u = self._u(z)
        out = np.zeros_like(u)
        inside = u < 1.0 - 1e-12
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - u[inside]))
        return out

    __call__ = value

    def laplacian(self, z) -> np.ndarray:
        """Exact 2-d Laplacian; vanishes smoothly at the support boundary."""
        u = self._u(z)
        out = np.zeros_like(u)
        # Near u = 1 the exponential underflow dominates the rational blowup;
        # cut slightly early to avoid inf * 0.
        inside = u < 1.0 - 1e-9
        ui = u[inside]
        one_minus = 1.0 - ui
        h1 = -1.0 / one_minus**2
        h2 = -2.0 / one_minus**3
        g = np.exp(1.0 - 1.0 / one_minus)
        out[inside] = (
            (4.0 * self.amplitude / (self.radius * self.radius))
            * g
            * (ui * (h2 + h1 * h1) + h1)
        )
        return out


@dataclass(frozen=True)
class GreenIdentityResult:
    lhs: float
    rhs: float
    residual: float


def green_identity_residual(
    roots: Sequence[complex],
    f: BumpFunction,
    grid_step: float,
    domain: Rectangle,
) -> GreenIdentityResult:
    """Compare the root-counting sum of f against its log-modulus integral.

    lhs sums f over the roots (counting measure, not normalized). rhs is the
    midpoint Riemann sum of laplacian(f) * log|P| over the domain, scaled by
    1/(2 pi), with P the monic polynomial having the given roots. Grid nodes
    within grid_step/2 of a root are skipped; the log singularity there is
    integrable, so the skip contributes O(h^2 log h) to the residual. The
    roots are a 1-d array of numbers by the one rule (spectral._numbers).
    """
    roots_arr = spectral._numbers(roots, "roots")
    if roots_arr.ndim != 1:
        raise ShapeError(f"roots must form a 1-d array, got shape {roots_arr.shape}")
    if roots_arr.size == 0:
        raise ValidationError("at least one root is required")
    if not np.isfinite(roots_arr).all():
        raise InvalidValueError("roots must be finite")
    grid_step = _positive(grid_step, "grid step")
    if 2.0 * f.radius / grid_step < 8.0:
        raise ValidationError(
            f"grid step {grid_step} does not resolve the support width "
            f"{2.0 * f.radius} (need >= 8 cells across)"
        )
    c = f.center
    if not (
        domain.re_lo <= c.real - f.radius
        and c.real + f.radius <= domain.re_hi
        and domain.im_lo <= c.imag - f.radius
        and c.imag + f.radius <= domain.im_hi
    ):
        raise DomainError("test-function support exceeds the quadrature domain")

    h = grid_step
    xs = np.arange(domain.re_lo + h / 2.0, domain.re_hi, h)
    ys = np.arange(domain.im_lo + h / 2.0, domain.im_hi, h)
    zz = xs[None, :] + 1j * ys[:, None]

    lap = f.laplacian(zz)
    dist = np.min(np.abs(zz[..., None] - roots_arr[None, None, :]), axis=-1)
    keep = dist >= h / 2.0
    log_p = np.zeros_like(lap)
    log_p[keep] = np.sum(
        np.log(np.abs(zz[keep][:, None] - roots_arr[None, :])), axis=-1
    )
    rhs = float(np.sum(lap[keep] * log_p[keep]) * h * h / (2.0 * np.pi))
    lhs = float(np.sum(f.value(roots_arr)))
    return GreenIdentityResult(lhs=lhs, rhs=rhs, residual=abs(lhs - rhs))


@dataclass(frozen=True)
class LemmaSuiteReport:
    """Violation counts from the randomized exact-property trials."""

    trials: int
    weyl_violations: int
    ibp_identity_violations: int
    ibp_bound_violations: int
    rank_violations: int
    ks_oracle_mismatches: int

    @property
    def total_violations(self) -> int:
        return (
            self.weyl_violations
            + self.ibp_identity_violations
            + self.ibp_bound_violations
            + self.rank_violations
            + self.ks_oracle_mismatches
        )


def ks_distance_brute_force(
    mu: EmpiricalMeasure1D, nu: EmpiricalMeasure1D
) -> float:
    """Independent KS evaluation on a dense grid of atoms and midpoints."""
    grid = np.unique(np.concatenate([mu.atoms, nu.atoms]))
    if grid.size > 1:
        mids = 0.5 * (grid[1:] + grid[:-1])
        grid = np.concatenate([grid, mids, [grid[0] - 1.0, grid[-1] + 1.0]])
    best = 0.0
    for x in grid:
        f_mu = float(np.mean(mu.atoms <= x))
        f_nu = float(np.mean(nu.atoms <= x))
        best = max(best, abs(f_mu - f_nu))
    return best


def _random_measure(rng: np.random.Generator, max_atoms: int, lo: float, hi: float):
    n = int(rng.integers(1, max_atoms + 1))
    return EmpiricalMeasure1D(rng.uniform(lo, hi, n))


def _poly(coeffs: np.ndarray, scale: float):
    """Polynomial sum(c_k (x/scale)^k) as a callable. numpy.polynomial is
    looked up at call time, so importing circlaw does not import it."""
    return lambda x: np.polynomial.polynomial.polyval(x / scale, coeffs)


def run_lemma_trials(trials: int, seed: int) -> LemmaSuiteReport:
    """Randomized verification of the exact supporting inequalities.

    Per trial: Weyl's second-moment inequality on a random complex matrix,
    the integration-by-parts identity and its monotone bound on random atom
    sets, the rank bound with a planted low-rank difference, and agreement
    of the Kolmogorov distance with a brute-force grid evaluation.
    """
    if not (_is_int(trials) and trials >= 1):
        raise ValidationError(f"trials must be a positive integer, got {trials!r}")
    ensemble._check_seed(seed)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    weyl = ibp_identity = ibp_bound = rank_bad = ks_bad = 0

    for _ in range(trials):
        # Weyl: random complex Gaussian entries, n in 2..30.
        n = int(rng.integers(2, 31))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = spectral.check_weyl(a)
        if not w.holds:
            weyl += 1

        # IBP identity with a random degree-<=4 polynomial on [1, 10].
        mu = _random_measure(rng, 40, 1.0, 10.0)
        nu = _random_measure(rng, 40, 1.0, 10.0)
        coeffs = rng.uniform(-1.0, 1.0, int(rng.integers(1, 6)))
        res = measures.ibp_difference(_poly(coeffs, 10.0), mu, nu, (1.0, 10.0))
        if abs(res.lhs - res.rhs) > 1e-10 * (1.0 + abs(res.lhs)):
            ibp_identity += 1

        # Monotone bound with nonnegative coefficients (nondecreasing on [1, 10]).
        res_mono = measures.ibp_difference(_poly(np.abs(coeffs), 10.0), mu, nu,
                                           (1.0, 10.0))
        if abs(res_mono.lhs) > res_mono.bound + 1e-10:
            ibp_bound += 1

        # Rank bound with a planted rank-k difference, k in 0..5.
        n = int(rng.integers(2, 41))
        k = int(rng.integers(0, min(5, n) + 1))
        base = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        bump_m = np.zeros((n, n), dtype=np.complex128)
        for _i in range(k):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            bump_m += np.outer(u, v)
        check = verify_rank_inequality(base, base + bump_m)
        if not check.holds or check.bound > k / n + RANK_SLACK:
            rank_bad += 1

        # KS against the brute-force oracle, exact match required.
        mu2 = _random_measure(rng, 40, -5.0, 5.0)
        nu2 = _random_measure(rng, 40, -5.0, 5.0)
        if measures.kolmogorov_distance(mu2, nu2) != ks_distance_brute_force(mu2, nu2):
            ks_bad += 1

    return LemmaSuiteReport(
        trials=trials,
        weyl_violations=weyl,
        ibp_identity_violations=ibp_identity,
        ibp_bound_violations=ibp_bound,
        rank_violations=rank_bad,
        ks_oracle_mismatches=ks_bad,
    )
