"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Thresholds are fixed finite-size tolerances; seeds are pinned so every run
checks the same matrices. Runtimes are reported but not asserted.
"""

import time

import numpy as np
import pytest

from circlaw import (
    BumpFunction,
    EntryDistribution,
    ExperimentConfig,
    PerturbationSpec,
    Rectangle,
    ZGrid,
    assemble,
    build_perturbation,
    constant_case,
    delta_at,
    delta_scan,
    derive_seed,
    green_identity_residual,
    run_experiment,
    run_lemma_trials,
    sample_matrix,
)
from circlaw import spectral
from circlaw.harness import disk_record

CG = EntryDistribution.parse("complex-gaussian")
CR = EntryDistribution.parse("complex-rademacher")

REPORT_FILES = ["delta.csv", "disk.csv", "scaling.csv", "report.json"]


def _line(tag: str, ok: bool, detail: str) -> None:
    print(f"acceptance {tag}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"{tag}: {detail}"


def _pair(n, seed, dist=CG):
    x = sample_matrix(dist, n, seed)
    return assemble(x, build_perturbation(PerturbationSpec("all-ones"), n))


@pytest.fixture(scope="module")
def decay_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("decay") / "out"
    cfg = ExperimentConfig(
        name="delta-decay",
        dims=(50, 100, 200, 400),
        distribution=CG,
        perturbation=PerturbationSpec("all-ones"),
        z_grid=ZGrid((0.5, 0.5), (0.5, 0.5), 1.0),
        replicates=20,
        master_seed=3,
        output_dir=str(out),
    )
    t0 = time.perf_counter()
    report = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    snapshot = {name: (out / name).read_bytes() for name in REPORT_FILES}
    return cfg, report, snapshot, elapsed


def test_criterion_1_lemma_suite():
    """Exact lemma properties over a thousand randomized trials."""
    t0 = time.perf_counter()
    rep = run_lemma_trials(1000, seed=7)
    elapsed = time.perf_counter() - t0
    detail = (
        f"trials=1000 weyl={rep.weyl_violations} "
        f"ibp_id={rep.ibp_identity_violations} ibp_bound={rep.ibp_bound_violations} "
        f"rank={rep.rank_violations} ks={rep.ks_oracle_mismatches} "
        f"{elapsed:.1f}s"
    )
    _line("1 lemma-suite", rep.total_violations == 0, detail)


def test_criterion_2_delta_cross_check():
    """Both routes to the log-determinant gap agree on a 5x5 grid."""
    t0 = time.perf_counter()
    grid = ZGrid((-2.0, 2.0), (-2.0, 2.0), 1.0)
    worst_gap = 0.0
    flagged = 0
    chain_ok = True
    for n in (50, 200):
        pair = _pair(n, derive_seed(2, n, 0))
        for d in delta_scan(pair, grid):
            if d.singular_flag:
                flagged += 1
                continue
            gap = abs(d.delta - d.delta_logdet)
            rel = gap / max(abs(d.delta), abs(d.delta_logdet), 1e-300)
            worst_gap = max(worst_gap, rel)
            chain_ok = chain_ok and d.chain_bound_ok and d.cross_check_ok
    elapsed = time.perf_counter() - t0
    ok = flagged == 0 and chain_ok and worst_gap <= 1e-8
    detail = (f"grid=5x5 n=50,200 max_rel_gap={worst_gap:.2e} "
              f"flagged={flagged} {elapsed:.1f}s")
    _line("2 delta-cross-check", ok, detail)


def test_criterion_3_delta_decay(decay_run):
    """Median |delta| strictly decreasing in n and small at n = 400."""
    _, report, _, elapsed = decay_run
    medians = [s.median_abs_delta for s in report.scaling.per_dim]
    decreasing = all(a > b for a, b in zip(medians, medians[1:]))
    final_small = medians[-1] <= 0.05
    detail = ("medians=" + ",".join(f"{m:.4f}" for m in medians)
              + f" {elapsed:.1f}s")
    _line("3 delta-decay", decreasing and final_small, detail)


def test_criterion_4_circular_law_distances():
    """Disk distances at n = 800 are small and below the n = 200 values."""
    t0 = time.perf_counter()
    ok = True
    parts = []
    for i, dist in enumerate((CG, CR)):
        recs = {}
        for n in (200, 800):
            pair = _pair(n, derive_seed(4, n, i), dist=dist)
            recs[n] = disk_record(pair, n, 0)
        r200, r800 = recs[200], recs[800]
        ok = ok and r800.radial_ks <= 0.1 and r800.angular_ks <= 0.1
        ok = ok and r800.radial_ks <= r200.radial_ks
        ok = ok and r800.angular_ks <= r200.angular_ks
        parts.append(
            f"{dist.kind}: radial {r200.radial_ks:.4f}->{r800.radial_ks:.4f} "
            f"angular {r200.angular_ks:.4f}->{r800.angular_ks:.4f}"
        )
    elapsed = time.perf_counter() - t0
    _line("4 circular-law", ok, "; ".join(parts) + f" {elapsed:.1f}s")


def test_criterion_5_constant_case():
    """Rank-one all-ones spike: outlier near sqrt(n), bulk edge near 2."""
    t0 = time.perf_counter()
    max_l1_err = 0.0
    max_l2 = 0.0
    for seed in range(10):
        r = constant_case(400, CG, seed=seed)
        max_l1_err = max(max_l1_err, abs(r.lambda1 - 20.0))
        max_l2 = max(max_l2, abs(r.lambda2))
    s1s = [constant_case(1000, CG, seed=seed).s1_central for seed in range(3)]
    elapsed = time.perf_counter() - t0
    ok = (max_l1_err <= 3.0 and max_l2 <= 2.5
          and all(1.8 <= s <= 2.2 for s in s1s))
    detail = (f"max|l1-20|={max_l1_err:.3f} max|l2|={max_l2:.3f} "
              f"s1={','.join(f'{s:.3f}' for s in s1s)} {elapsed:.1f}s")
    _line("5 constant-case", ok, detail)


def test_criterion_6_smallest_singular_value():
    """No replicate puts the smallest singular value below n^-3 at z = 1."""
    t0 = time.perf_counter()
    n = 200
    threshold = float(n) ** -3.0
    violations = 0
    smallest = float("inf")
    for rep in range(100):
        pair = _pair(n, derive_seed(6, n, rep))
        d = delta_at(pair, 1.0 + 0.0j)
        smin = min(d.s_min_a, d.s_min_b)
        smallest = min(smallest, smin)
        if smin < threshold:
            violations += 1
    elapsed = time.perf_counter() - t0
    detail = (f"replicates=100 min_smin={smallest:.2e} "
              f"threshold={threshold:.2e} violations={violations} {elapsed:.1f}s")
    _line("6 smin-tail", violations == 0, detail)


def test_criterion_7_green_identity():
    """Quadrature residual small at h = 0.01 and contracting as h halves."""
    t0 = time.perf_counter()
    cases = [
        ("z", [0j], BumpFunction(center=0j, radius=1.0, amplitude=1.0),
         Rectangle(-1.5, 1.5, -1.5, 1.5)),
        ("z^2-1", [1.0 + 0j, -1.0 + 0j],
         BumpFunction(center=1.0 + 0j, radius=0.5, amplitude=1.0),
         Rectangle(0.3, 1.7, -0.7, 0.7)),
    ]
    ok = True
    parts = []
    for label, roots, bump, rect in cases:
        coarse = green_identity_residual(roots, bump, 0.01, rect)
        fine = green_identity_residual(roots, bump, 0.005, rect)
        ok = ok and coarse.residual <= 1e-2
        ok = ok and fine.residual <= 0.6 * coarse.residual
        parts.append(f"{label}: {coarse.residual:.2e}->{fine.residual:.2e}")
    elapsed = time.perf_counter() - t0
    _line("7 green-identity", ok, "; ".join(parts) + f" {elapsed:.1f}s")


def test_criterion_8_determinism(decay_run):
    """Reruns of the same config are byte-identical, any worker count and
    any ambient BLAS thread count."""
    cfg, _, snapshot, _ = decay_run
    t0 = time.perf_counter()
    out = cfg.output_dir
    from pathlib import Path

    run_experiment(cfg, workers=1)
    serial = {name: (Path(out) / name).read_bytes() for name in REPORT_FILES}
    run_experiment(cfg, workers=2)
    parallel = {name: (Path(out) / name).read_bytes() for name in REPORT_FILES}
    same_serial = serial == snapshot
    same_parallel = parallel == snapshot
    detail = f"serial_match={same_serial} workers2_match={same_parallel}"
    ok = same_serial and same_parallel
    openblas = spectral._openblas()
    if openblas is not None:
        get_threads, set_threads = openblas
        ambient = get_threads()
        other = 1 if ambient > 1 else 2
        set_threads(other)
        try:
            run_experiment(cfg, workers=1)
        finally:
            set_threads(ambient)
        rerun = {name: (Path(out) / name).read_bytes() for name in REPORT_FILES}
        same_threads = rerun == snapshot
        detail += f" threads{ambient}to{other}_match={same_threads}"
        ok = ok and same_threads
    elapsed = time.perf_counter() - t0
    _line("8 determinism", ok, f"{detail} {elapsed:.1f}s")
    if openblas is None:
        pytest.skip("numpy's OpenBLAS thread-count symbols are not available: "
                    "no rerun at another ambient BLAS thread count")


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
