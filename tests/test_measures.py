"""Tests for empirical measures, Kolmogorov distances, and CDF identities."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circlaw import (
    DomainError,
    EmpiricalMeasure1D,
    EmpiricalMeasure2D,
    EntryDistribution,
    MeasureError,
    PerturbationSpec,
    SingularSupportError,
    angular_disk_distance,
    assemble,
    build_perturbation,
    ecdf_eval,
    ibp_difference,
    kolmogorov_distance,
    ks_distance_brute_force,
    log_abs_det_lu,
    log_integral_diff,
    radial_disk_distance,
    sample_matrix,
    singular_values,
)


def m1(*atoms):
    return EmpiricalMeasure1D(atoms=tuple(float(a) for a in atoms))


def m2(*atoms):
    return EmpiricalMeasure2D(atoms=tuple(complex(a) for a in atoms))


def test_measures_reject_empty_and_non_finite():
    with pytest.raises(MeasureError):
        EmpiricalMeasure1D(atoms=())
    with pytest.raises(MeasureError):
        EmpiricalMeasure1D(atoms=(1.0, float("nan")))
    with pytest.raises(MeasureError):
        EmpiricalMeasure2D(atoms=())
    with pytest.raises(MeasureError):
        EmpiricalMeasure2D(atoms=(complex("inf"),))


@pytest.mark.parametrize("cls", [EmpiricalMeasure1D, EmpiricalMeasure2D])
def test_measures_reject_atoms_that_are_not_1d(cls):
    with pytest.raises(MeasureError, match=r"1-d array, got shape \(4, 4\)"):
        cls(atoms=np.ones((4, 4)))


def test_1d_measure_rejects_complex_atoms():
    for atoms in ([1.0, 2.0j], np.array([1.0, 2.0], dtype=complex)):
        with pytest.raises(MeasureError, match="must be real"):
            EmpiricalMeasure1D(atoms=atoms)


@pytest.mark.parametrize("cls", [EmpiricalMeasure1D, EmpiricalMeasure2D])
@pytest.mark.parametrize("atoms", [["1", "2"], [True, False], [1.0, None]],
                         ids=["strings", "bools", "none"])
def test_measures_reject_atoms_that_are_not_numbers(cls, atoms):
    with pytest.raises(MeasureError, match="must be numbers"):
        cls(atoms=atoms)


def test_measure_atoms_sorted():
    m = m1(3.0, 1.0, 2.0)
    assert np.array_equal(m.atoms, [1.0, 2.0, 3.0])


def test_ecdf_examples():
    m = m1(1, 2, 3)
    assert ecdf_eval(m, 2.0) == 2.0 / 3.0
    assert ecdf_eval(m, 0.5) == 0.0
    assert ecdf_eval(m, 3.0) == 1.0
    assert ecdf_eval(m1(1), 0.5) == 0.0
    assert ecdf_eval(m1(0, 0), 0.0) == 1.0


def test_kolmogorov_examples():
    assert kolmogorov_distance(m1(1, 2, 3), m1(1, 2, 3)) == 0.0
    assert kolmogorov_distance(m1(0), m1(1)) == 1.0
    assert kolmogorov_distance(m1(1, 2), m1(1, 3)) == 0.5


def test_kolmogorov_matches_brute_force():
    """Exact agreement with an exhaustive evaluation over a thousand trials."""
    rng = np.random.default_rng(42)
    for _ in range(1000):
        na = int(rng.integers(1, 41))
        nb = int(rng.integers(1, 41))
        a = m1(*np.round(rng.standard_normal(na), 2))
        b = m1(*np.round(rng.standard_normal(nb), 2))
        assert kolmogorov_distance(a, b) == ks_distance_brute_force(a, b)


@given(
    st.lists(st.integers(-5, 5), min_size=1, max_size=8),
    st.lists(st.integers(-5, 5), min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_kolmogorov_metric_properties(xs, ys):
    a = m1(*xs)
    b = m1(*ys)
    d = kolmogorov_distance(a, b)
    assert d == kolmogorov_distance(b, a)
    assert 0.0 <= d <= 1.0
    if sorted(xs) == sorted(ys):
        assert d == 0.0
    assert d == ks_distance_brute_force(a, b)


def test_ibp_linear_function_example():
    """f(x) = x, mu = {0, 2}, nu = {1, 1}: both sides are exactly zero."""
    r = ibp_difference(
        lambda x: np.asarray(x, dtype=float),
        m1(0, 2),
        m1(1, 1),
        (-1.0, 3.0),
    )
    assert r.lhs == 0.0
    assert r.rhs == 0.0
    assert r.bound == 2.0


def test_ibp_constant_function():
    r = ibp_difference(
        lambda x: np.full_like(np.asarray(x, dtype=float), 7.0),
        m1(0, 2, 5),
        m1(1),
        (-1.0, 6.0),
    )
    assert r.lhs == 0.0
    assert r.rhs == 0.0
    assert r.bound == 0.0


def test_ibp_single_atoms():
    # mu = delta_2, nu = delta_1, f(x) = x: lhs = 1
    r = ibp_difference(
        lambda x: np.asarray(x, dtype=float),
        m1(2),
        m1(1),
        (0.0, 3.0),
    )
    assert r.lhs == 1.0
    assert abs(r.rhs - 1.0) <= 1e-15
    assert r.bound == 3.0


def test_ibp_log_on_singular_values():
    d = EntryDistribution.parse("complex-gaussian")
    sa = singular_values(sample_matrix(d, 10, seed=1).entries / np.sqrt(10))
    sb = singular_values(sample_matrix(d, 10, seed=2).entries / np.sqrt(10))
    mu = m1(*sa)
    nu = m1(*sb)
    lo = 0.5 * min(mu.atoms[0], nu.atoms[0])
    hi = 2.0 * max(mu.atoms[-1], nu.atoms[-1])
    r = ibp_difference(np.log, mu, nu, (lo, hi))
    assert abs(r.lhs - r.rhs) <= 1e-10
    assert abs(r.lhs) <= r.bound + 1e-12


def test_ibp_polynomial_property():
    """Exact-summation identity for scaled monomials over random atom pairs."""
    rng = np.random.default_rng(11)
    for _ in range(1000):
        na = int(rng.integers(1, 13))
        nb = int(rng.integers(1, 13))
        mu = m1(*(1.0 + 9.0 * rng.random(na)))
        nu = m1(*(1.0 + 9.0 * rng.random(nb)))
        coeffs = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 5)))
        scale = 10.0

        def f(x, c=coeffs):
            x = np.asarray(x, dtype=float) / scale
            return sum(ck * x ** k for k, ck in enumerate(c, start=1))

        r = ibp_difference(f, mu, nu, (0.5, 10.5))
        assert abs(r.lhs - r.rhs) <= 1e-10 * (1.0 + abs(r.lhs))


def test_ibp_bound_for_nondecreasing_f():
    rng = np.random.default_rng(23)
    for _ in range(300):
        mu = m1(*rng.uniform(0.0, 5.0, size=int(rng.integers(1, 10))))
        nu = m1(*rng.uniform(0.0, 5.0, size=int(rng.integers(1, 10))))
        r = ibp_difference(
            lambda x: np.asarray(x, dtype=float) ** 3,
            mu, nu, (-0.5, 5.5),
        )
        assert abs(r.lhs) <= r.bound + 1e-10


def test_ibp_rejects_atoms_outside_interval():
    with pytest.raises(DomainError):
        ibp_difference(
            lambda x: np.asarray(x, dtype=float),
            m1(0, 2), m1(1), (0.5, 3.0),
        )


def test_ibp_rejects_empty_interval():
    with pytest.raises(DomainError):
        ibp_difference(
            lambda x: np.asarray(x, dtype=float),
            m1(1), m1(1), (2.0, 1.0),
        )


def test_log_integral_examples():
    assert log_integral_diff(m1(1.0), m1(float(np.e))) == -1.0
    assert log_integral_diff(m1(2, 3), m1(2, 3)) == 0.0


def test_log_integral_antisymmetry():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a = m1(*np.exp(rng.standard_normal(int(rng.integers(1, 12)))))
        b = m1(*np.exp(rng.standard_normal(int(rng.integers(1, 12)))))
        assert log_integral_diff(a, b) == -log_integral_diff(b, a)


def test_log_integral_rejects_zero_atom():
    with pytest.raises(SingularSupportError):
        log_integral_diff(m1(0.0, 1.0), m1(1.0))


def test_log_integral_matches_log_det_gap():
    """For singular-value measures the integral is the normalized log-det gap."""
    d = EntryDistribution.parse("complex-gaussian")
    n = 10
    x = sample_matrix(d, n, seed=6)
    pair = assemble(x, build_perturbation(PerturbationSpec("all-ones"), n))
    mu = m1(*singular_values(pair.a_matrix))
    nu = m1(*singular_values(pair.b_matrix))
    lhs = log_integral_diff(mu, nu)
    la, _ = log_abs_det_lu(pair.a_matrix)
    lb, _ = log_abs_det_lu(pair.b_matrix)
    rhs = (la - lb) / n
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_radial_distance_single_origin_atom():
    assert radial_disk_distance(m2(0j)) == 1.0


def test_radial_distance_quantile_atoms():
    """Moduli at sqrt(k/n) track the disc radial CDF to within 1/n."""
    n = 16
    atoms = np.sqrt(np.arange(1, n + 1) / n) * np.exp(2j * np.pi * np.arange(n) / n)
    assert radial_disk_distance(m2(*atoms)) <= 1.0 / n + 1e-12


def test_radial_distance_outside_disk():
    # all mass at modulus 2: distance is sup |1{r >= 2} - min(r^2,1)| = 1
    assert radial_disk_distance(m2(2.0 + 0j)) == 1.0


def test_radial_distance_quarter_turn_exact():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    d0 = radial_disk_distance(m2(*z))
    d1 = radial_disk_distance(m2(*(z * 1j)))
    assert d0 == d1


def test_radial_distance_generic_rotation():
    rng = np.random.default_rng(5)
    z = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    d0 = radial_disk_distance(m2(*z))
    d1 = radial_disk_distance(m2(*(z * np.exp(0.7j))))
    assert abs(d0 - d1) <= 1e-12


def test_angular_distance_quarter_points():
    assert angular_disk_distance(m2(1, 1j, -1, -1j)) <= 0.25 + 1e-15


def test_angular_distance_single_atom():
    theta = 0.6
    u = theta / (2.0 * np.pi)
    d = angular_disk_distance(m2(np.exp(1j * theta)))
    assert abs(d - max(u, 1.0 - u)) <= 1e-15


def test_angular_distance_excludes_origin():
    with_origin = angular_disk_distance(m2(0j, 1, 1j, -1, -1j))
    without = angular_disk_distance(m2(1, 1j, -1, -1j))
    assert with_origin == without


def test_angular_distance_all_origin_rejected():
    with pytest.raises(MeasureError):
        angular_disk_distance(m2(0j, 0j))


def test_disk_distances_on_central_sample():
    """Eigenvalues of a scaled 800-dim Gaussian sample hug the disc law."""
    d = EntryDistribution.parse("complex-gaussian")
    x = sample_matrix(d, 800, seed=11)
    eig = np.linalg.eigvals(x.entries / np.sqrt(800.0))
    m = m2(*eig)
    assert radial_disk_distance(m) <= 0.1
    assert angular_disk_distance(m) <= 0.1


def test_disk_distances_of_strided_atoms():
    """Strided complex atoms build a measure with the distances of their
    contiguous copy."""
    rng = np.random.default_rng(9)
    eig = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    view, copy = EmpiricalMeasure2D(eig[::2]), EmpiricalMeasure2D(eig[::2].copy())
    assert radial_disk_distance(view) == radial_disk_distance(copy)
    assert angular_disk_distance(view) == angular_disk_distance(copy)


def _sup_distance_brute_force(sample, cdf):
    """max |F_n - F| over a dense grid holding the sample points, the points
    just left of them and an even spread around them."""
    grid = np.concatenate([sample, np.nextafter(sample, -np.inf),
                           np.linspace(sample.min() - 1.0, sample.max() + 1.0, 201)])
    f_n = np.mean(sample[None, :] <= grid[:, None], axis=1)
    return float(np.max(np.abs(f_n - cdf(grid))))


@given(st.lists(st.complex_numbers(max_magnitude=1.5, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_disk_distances_match_brute_force(zs):
    z = np.array(zs, dtype=complex)
    radial = _sup_distance_brute_force(np.abs(z), lambda r: np.clip(r, 0.0, 1.0) ** 2)
    assert abs(radial_disk_distance(m2(*z)) - radial) <= 1e-12
    nonzero = z[np.abs(z) > 0.0]
    assume(nonzero.size)
    u = np.mod(np.angle(nonzero) / (2.0 * np.pi), 1.0)
    angular = _sup_distance_brute_force(u, lambda t: np.clip(t, 0.0, 1.0))
    assert abs(angular_disk_distance(m2(*z)) - angular) <= 1e-12


@given(st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_ecdf_is_monotone(xs):
    m = m1(*xs)
    grid = np.linspace(min(xs) - 1.0, max(xs) + 1.0, 25)
    vals = [ecdf_eval(m, t) for t in grid]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == 1.0


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
