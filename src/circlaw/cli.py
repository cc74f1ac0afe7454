"""Command-line front end.

Exit codes: 0 success, 1 validation or input errors, 2 numerical-consistency
failures (a delta row failing a rule of diagnostics.ROW_CHECKS, or a lemma
violation). Summaries go to stdout; machine-readable output goes to files.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import diagnostics, ensemble, harness, spectral
from .errors import CirclawError, NumericalConsistencyError, ValidationError

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument errors map to exit code 1, not argparse's default 2."""

    def error(self, message: str):
        raise ValidationError(message)


def _cores() -> int:
    """The cores this process may run on (all of them where the platform
    has no affinity call)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="circlaw",
        description="Finite-n diagnostics for perturbed i.i.d. random matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sampling_args(p, with_out=True):
        p.add_argument("--n", type=int, required=True, help="matrix dimension")
        p.add_argument("--dist", default="complex-gaussian",
                       help="entry law as kind or kind(p); kinds: "
                       + ", ".join(ensemble.DISTRIBUTION_KINDS))
        p.add_argument("--seed", type=int, default=0, help="sampling seed")
        if with_out:
            p.add_argument("--out", default=None, help="output file path")

    p = sub.add_parser("sample", help="draw an i.i.d. matrix sample")
    add_sampling_args(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("spectrum", help="spectral summary of a scaled sample")
    add_sampling_args(p)
    p.set_defaults(func=_cmd_spectrum)

    def add_config_args(p):
        p.add_argument("--config", required=True, help="experiment config JSON path")
        p.add_argument("--seed", type=int, default=None,
                       help="override master_seed")
        p.add_argument("--n", type=int, default=None,
                       help="override dims with a single dimension")
        p.add_argument("--dist", default=None, help="override distribution")
        p.add_argument("--out", default=None, help="override output_dir")
        p.add_argument("--workers", type=int, default=_cores(),
                       help="units run at a time on threads, at most the units "
                       "(default: the cores this process may run on)")

    p = sub.add_parser("delta-scan", help="log-determinant gap scan over a z grid")
    add_config_args(p)
    p.set_defaults(func=_cmd_delta_scan)

    p = sub.add_parser("circular-law", help="disc-law distances per replicate")
    add_config_args(p)
    p.set_defaults(func=_cmd_circular_law)

    p = sub.add_parser("constant-case",
                       help="outlier eigenvalues under the all-ones perturbation")
    add_sampling_args(p, with_out=False)
    p.set_defaults(func=_cmd_constant_case)

    p = sub.add_parser("verify-lemmas",
                       help="randomized checks of the supporting inequalities")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("run", help="full experiment with CSV/JSON reports")
    add_config_args(p)
    p.set_defaults(func=_cmd_run)

    return parser


def _load_config(args) -> harness.ExperimentConfig:
    """The config file with the command line's overrides; a bad --workers
    is rejected first."""
    harness._check_workers(args.workers)
    config = harness.load_config(args.config)
    changes = {}
    if args.seed is not None:
        changes["master_seed"] = args.seed
    if args.n is not None:
        changes["dims"] = (args.n,)
    if args.dist is not None:
        changes["distribution"] = ensemble.EntryDistribution.parse(args.dist)
    if args.out is not None:
        changes["output_dir"] = args.out
    return dataclasses.replace(config, **changes) if changes else config


def _cmd_sample(args) -> int:
    dist = ensemble.EntryDistribution.parse(args.dist)
    spectral.check_dimension(args.n)
    sample = ensemble.sample_matrix(dist, args.n, args.seed)
    mean = complex(np.mean(sample.entries))
    second = float(np.mean(np.abs(sample.entries) ** 2))
    print(f"sample: n={args.n} dist={dist} seed={args.seed}")
    print(f"  empirical mean = {mean.real:.6g}{mean.imag:+.6g}i")
    print(f"  empirical E|X|^2 = {second:.6g}")
    if args.out:
        ensemble.write_matrix_csv(args.out, sample.entries)
        print(f"  wrote {args.out}")
    return 0


def _cmd_spectrum(args) -> int:
    dist = ensemble.EntryDistribution.parse(args.dist)
    spectral.check_dimension(args.n)
    sample = ensemble.sample_matrix(dist, args.n, args.seed)
    summary = spectral.summarize(ensemble.scaled(sample))
    print(f"spectrum of X/sqrt(n): n={args.n} dist={dist} seed={args.seed}")
    print(f"  spectral radius = {summary.spectral_radius:.6g}")
    print(f"  operator norm   = {summary.operator_norm:.6g}")
    print(f"  log|det|        = " + (
        f"{summary.log_abs_det:.6g}" if not summary.singular else "singular"
    ))
    if args.out:
        lines = [f"{float(v.real)!r},{float(v.imag)!r}" for v in summary.eigenvalues]
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"  wrote {args.out}")
    return 0


def _consistency_status(rows) -> int:
    """0, or 2 after naming on stderr the failing-row count and the first row."""
    bad = [(dim, rep, d) for dim, rep, d in rows if d.failed_checks()]
    if not bad:
        return 0
    dim, rep, d = bad[0]
    print(f"  CONSISTENCY FAILURE on {len(bad)} of {len(rows)} delta rows; "
          f"first at n={dim} replicate={rep} z={d.z}: "
          + "; ".join(d.failed_checks()), file=sys.stderr)
    return 2


def _cmd_delta_scan(args) -> int:
    config = _load_config(args)
    path = harness._output_dir(config) / "delta.csv"
    units = harness.run_units(config, {"delta"}, args.workers)
    rows = [(u.dim, u.replicate, d) for u in units for d in u.diagnostics]
    harness.write_delta_csv(path, rows)
    summary = harness.consistency_section(rows)
    print(f"delta-scan: {len(rows)} rows ({summary['flagged_points']} singular-flagged)")
    clean = [abs(d.delta) for _, _, d in rows if not d.singular_flag]
    if clean:
        print(f"  max |delta| = {max(clean):.6g}")
        print(f"  max cross-check gap = {summary['max_cross_check_gap']:.3g}")
    print(f"  wrote {path}")
    return _consistency_status(rows)


def _cmd_circular_law(args) -> int:
    config = _load_config(args)
    path = harness._output_dir(config) / "disk.csv"
    records = [u.disk for u in harness.run_units(config, {"disk"}, args.workers)]
    harness.write_disk_csv(path, records)
    for dim in config.dims:
        rs = [r for r in records if r.dim == dim]
        print(
            f"n={dim}: mean radial ks = "
            f"{float(np.mean([r.radial_ks for r in rs])):.4f}, "
            f"mean angular ks = "
            f"{float(np.mean([r.angular_ks for r in rs])):.4f}"
        )
    print(f"wrote {path}")
    return 0


def _cmd_constant_case(args) -> int:
    dist = ensemble.EntryDistribution.parse(args.dist)
    result = diagnostics.constant_case(args.n, dist, args.seed)
    root_n = float(np.sqrt(args.n))
    print(f"constant case: n={args.n} dist={dist} seed={args.seed}")
    print(f"  lambda1 = {result.lambda1.real:.6g}{result.lambda1.imag:+.6g}i "
          f"(|lambda1| = {abs(result.lambda1):.6g}, sqrt(n) = {root_n:.6g})")
    print(f"  lambda2 = {result.lambda2.real:.6g}{result.lambda2.imag:+.6g}i "
          f"(|lambda2| = {abs(result.lambda2):.6g})")
    print(f"  s1_central = {result.s1_central:.6g}")
    return 0


def _cmd_verify_lemmas(args) -> int:
    report = diagnostics.run_lemma_trials(args.trials, args.seed)
    print(f"lemma suite: {report.trials} trials per property")
    print(f"  weyl violations          = {report.weyl_violations}")
    print(f"  ibp identity violations  = {report.ibp_identity_violations}")
    print(f"  ibp bound violations     = {report.ibp_bound_violations}")
    print(f"  rank bound violations    = {report.rank_violations}")
    print(f"  ks oracle mismatches     = {report.ks_oracle_mismatches}")
    print(f"  total violations         = {report.total_violations}")
    return 0 if report.total_violations == 0 else 2


def _cmd_run(args) -> int:
    config = _load_config(args)
    n = config.dims[-1]
    plan = harness._plan(config, harness.STAGES, args.workers)
    lanes, units = plan.lanes, plan.at_once
    dense = harness.unit_dense_bytes(n, lanes)
    copies = f"LAPACK's working copy on each of {lanes} lane{'s' * (lanes > 1)}"
    print(f"preflight: {len(config.dims) * config.replicates} units, "
          f"LAPACK work {harness.lapack_work(config):.4g} n^3; one unit at "
          f"n={n} holds {dense / 2**20:.3g} MiB dense "
          + (f"(B, which its eigensolve factors in place on a spare lane, and {copies}, "
             "into which A - zI is drawn)" if plan.beside else
             f"(A or B, never both, and {copies})")
          + f"; at most {units * dense / 2**20:.3g} MiB in {units} "
          f"unit{'s' * (units > 1)} in flight")
    report = harness.run_experiment(config, workers=args.workers)
    print(f"run '{config.name}': {len(report.delta_rows)} delta rows, "
          f"{report.flagged_points} singular-flagged")
    scaling = report.scaling
    print("  exponents: " + " ".join(f"{e}={getattr(scaling, e):.4g}" for e in sorted(
        s.exponent for s in diagnostics.SCALING_STATS.values() if s.exponent)))
    print(f"  s_min violation fraction (b0={scaling.reference_exponent_b0:g}): "
          f"{scaling.smin_violation_fraction:.4g}")
    for stage, seconds in report.timings.items():
        print(f"  {stage[:-2]} time: {seconds:.2f}s")
    threads = spectral.blas_thread_count()
    print("  BLAS: " + ("unknown" if threads is None else
                        f"{threads} ambient threads, 1 per call")
          + f"; a unit's grid shifts on up to {lanes} lane{'s' * (lanes > 1)}"
          + (", and B's eigensolve on one more beside them" if plan.beside else ""))
    print(f"  reports in {config.output_dir}")
    return _consistency_status(report.delta_rows)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else exc
        print(f"error: file not found: {name}", file=sys.stderr)
        return 1
    except NumericalConsistencyError as exc:
        print(f"numerical consistency failure: {exc}", file=sys.stderr)
        return 2
    except (CirclawError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
