"""Benchmark of `circlaw run` on seeded workloads.

    python3 perfbench/run.py --workload decay --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark writes the workload's config
from --seed, times set-up (a fresh interpreter importing circlaw and loading
the config), then repeats `circlaw run` in fresh interpreters for --seconds
and checks every repeat's outputs. With --trace 1 it adds one traced run and
prints the per-layer metrics instead of the end-to-end ones. The last line of
stdout is one JSON object: correct, attempted, failed and metrics; the lines
before it and `.perfbench/results/` hold the machine, the sample counts and
the sha256 of each report file.

Nothing here sets a BLAS or OpenMP thread count: report bytes and timings
depend on it, so the ambient value is recorded instead.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
REPORT_FILES = ("delta.csv", "disk.csv", "scaling.csv", "report.json")

DEADLINE_S = 170.0      # every run must end within 180 s
SETUP_PROBES = 9        # timed fresh-interpreter imports, after one warm-up
OUTLIER_TOL = 1.0       # |top eigenvalue modulus - predicted outlier|


class Tally:
    """Operations attempted and failed: one per (dim, replicate) unit and
    one per delta row, over every run of `circlaw run` in this invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_digests: dict[str, str] | None = None


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess | None:
    try:
        return subprocess.run(
            [sys.executable, str(BENCH / "child.py"), *args], cwd=ROOT,
            capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return None


def _fail(message: str, proc: subprocess.CompletedProcess | None = None) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    if proc is not None:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])


def time_setup(config_path: Path, deadline: float) -> list[float]:
    times = []
    for probe in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = _child(["setup", str(config_path)], deadline - time.monotonic())
        elapsed = time.perf_counter() - t0
        if proc is None or proc.returncode != 0:
            _fail("set-up probe failed", proc)
            return []
        if probe:
            times.append(elapsed)
    return times


def check_outputs(config: dict, out_dir: Path, result: dict) -> tuple[int, int, dict]:
    """Failed operations among one run's units and rows, and its file digests.

    A row fails when the program's own cross-check, rank or chain verdict
    fails or the row is missing from delta.csv; a unit fails when its disk.csv
    row is missing or its top eigenvalue is not at the predicted outlier.
    Singular-flagged rows are legitimate output.
    """
    dims, reps = config["dims"], config["replicates"]
    points = workloads.grid_points(config)
    units, rows = len(dims) * reps, len(dims) * reps * points
    if result.get("status") != 0 or "rows" not in result:
        return units + rows, units + rows, {}
    try:
        data = {name: (out_dir / name).read_bytes() for name in REPORT_FILES}
    except FileNotFoundError as exc:
        _fail(f"report file missing: {exc.filename}")
        return units + rows, units + rows, {}
    digests = {name: hashlib.sha256(b).hexdigest() for name, b in data.items()}
    digests["bytes"] = sum(len(b) for b in data.values())

    per_unit: dict[tuple[int, int], int] = {}
    for rec in csv.DictReader(data["delta.csv"].decode().splitlines()):
        key = (int(rec["n"]), int(rec["replicate"]))
        per_unit[key] = per_unit.get(key, 0) + 1
    expected = {(n, r) for n in dims for r in range(reps)}
    missing_rows = sum(max(points - per_unit.get(k, 0), 0) for k in expected)
    failed = result["rows_failed_check"] + missing_rows

    seen = set()
    for rec in csv.DictReader(data["disk.csv"].decode().splitlines()):
        n, rep = int(rec["n"]), int(rec["replicate"])
        seen.add((n, rep))
        top = float(rec["top_eigen_modulus"])
        if not abs(top - workloads.expected_outlier(config, n)) <= OUTLIER_TOL:
            failed += 1
    failed += len(expected - seen)
    return units + rows, min(failed, units + rows), digests


def run_once(config: dict, config_path: Path, tally: Tally, deadline: float,
             spans_path: Path | None = None) -> dict | None:
    """One `circlaw run` in a fresh interpreter, checked; None if it gave no
    timings (crash or timeout)."""
    out_dir = ROOT / config["output_dir"]
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = WORK / "child-result.json"
    result_path.unlink(missing_ok=True)
    args = ["run", str(config_path), str(result_path)]
    if spans_path is not None:
        args.append(str(spans_path))
    proc = _child(args, deadline - time.monotonic())
    result = {}
    if proc is None:
        _fail("run timed out")
    elif result_path.exists():
        result = json.loads(result_path.read_text())
    if proc is not None and (proc.returncode != 0 or result.get("status") != 0):
        _fail(f"run failed: {result.get('error') or proc.returncode}", proc)

    ops, failed, digests = check_outputs(config, out_dir, result)
    files = {k: v for k, v in digests.items() if k != "bytes"}
    if files and tally.first_digests is None:
        tally.first_digests = files
    elif files and files != tally.first_digests:
        _fail("report bytes differ from the first run's")
        failed = ops
    tally.attempted += ops
    tally.failed += failed
    if "wall_s" not in result:
        return None
    result["digests"] = digests
    return result


def _within(name: str, span: str) -> bool:
    """True for the span named `span` and for every span of layer `span`."""
    return name == span or name.startswith(span + ".")


def per_layer(names: list[str], spans: list, traced: dict, samples: list[dict],
              tally: Tally) -> dict[str, float]:
    summary = tracer.summarize(spans)
    out: dict[str, float] = {}
    covered = set()
    for name in names:
        span, _, key = name.rpartition(".")
        if key in ("self_s", "calls", "n3"):
            matched = [s for s in summary if _within(s, span)]
            out[name] = sum(summary[s][key] for s in matched)
            if key == "self_s":
                covered.update(matched)
    run_s = statistics.median(s["wall_s"] for s in samples)
    cpu_s = statistics.median(s["cpu_s"] for s in samples)
    out.update({
        "diagnostics.rows": traced["rows"],
        "diagnostics.rows_flagged": traced["rows_flagged"],
        "harness.report_bytes": traced["digests"]["bytes"],
        "harness.cpu_per_wall": cpu_s / run_s,
        "trace.run_s": traced["wall_s"],
        "trace.overhead_frac": traced["wall_s"] / run_s,
        "trace.unattributed_s":
            traced["wall_s"] - sum(summary[s]["self_s"] for s in covered),
        "failed_frac": tally.failed / tally.attempted,
    })
    return out


def machine(sample: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": sample["numpy"],
        "blas_config": sample["blas"]["config"],
        "blas_threads": sample["blas"]["threads"],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        # set-up compiles circlaw on every import when bytecode is not cached
        "PYTHONDONTWRITEBYTECODE":
            os.environ.get("PYTHONDONTWRITEBYTECODE", "unset"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "circlaw" / "__init__.py").is_file():
        _fail(f"no circlaw sources under {ROOT / 'src'}")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    run_dir = WORK / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out_rel = (run_dir / "out").relative_to(ROOT).as_posix()
    config = workloads.build_config(args.workload, args.seed, out_rel)
    config_path = run_dir / "config.json"
    config_path.write_text(workloads.config_text(config))

    setup = time_setup(config_path, deadline)
    if not setup:
        return 1

    tally = Tally()
    samples: list[dict] = []
    start = time.monotonic()
    while True:
        sample = run_once(config, config_path, tally, deadline)
        if sample is None:
            break
        samples.append(sample)
        # Stop at the repeat count whose expected end is nearest the end of
        # the window: start another repeat only if at least half of it is
        # expected to fit. With --trace, leave room for the traced run.
        now = time.monotonic()
        typical = statistics.median(s["wall_s"] for s in samples) + 0.5
        room = deadline - now - typical * (2.5 if args.trace else 1.5)
        if now - start + typical / 2 > args.seconds or room < 0:
            break
    if not samples:
        return 1

    if args.trace:
        spans_path = run_dir / "spans.json"
        traced = run_once(config, config_path, tally, deadline, spans_path)
        if traced is None or "rows" not in traced or not spans_path.exists():
            return 1
        metrics = per_layer([m["name"] for m in wanted],
                            json.loads(spans_path.read_text()), traced,
                            samples, tally)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(s["wall_s"] for s in samples),
            "cpu_s": statistics.median(s["cpu_s"] for s in samples),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        }

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine(samples[0]),
        "setup_samples": len(setup),
        "run_samples": len(samples),
        "run_s_samples": [s["wall_s"] for s in samples],
        "report_sha256": tally.first_digests,
        "metrics": metrics,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(results, indent=1) + "\n")
    print(json.dumps({k: v for k, v in results.items() if k != "metrics"}))
    for m in wanted:
        print(f"{m['name']:40s} {metrics[m['name']]!r} {m['unit']}")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
