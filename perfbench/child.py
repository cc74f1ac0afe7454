"""One fresh interpreter for the circlaw benchmark.

    python3 perfbench/child.py setup CONFIG
        Import circlaw and load CONFIG, then exit; the parent times this.
    python3 perfbench/child.py run CONFIG RESULT [SPANS]
        Run `circlaw run --config CONFIG --workers 1` through circlaw.cli.main
        and write wall, CPU, peak RSS, the row verdicts and the BLAS set-up
        to RESULT as JSON. With SPANS, trace the layer modules and write the
        spans there after the run.

circlaw is imported from the checkout's `src/`, never from site-packages.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_circlaw():
    sys.path.insert(0, str(SRC))
    import circlaw
    import circlaw.cli

    if Path(circlaw.__file__).resolve().parent != SRC / "circlaw":
        raise ImportError(f"circlaw imported from {circlaw.__file__}, not {SRC}")
    return circlaw


def blas_info() -> dict:
    """numpy's bundled OpenBLAS config and live thread count, via ctypes."""
    import numpy as np

    info = {"config": "unknown", "threads": "unknown"}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas64_*.so"))
    if not libs:
        return info
    try:
        lib = ctypes.CDLL(libs[0])
        get_config = lib.scipy_openblas_get_config64_
        get_threads = lib.scipy_openblas_get_num_threads64_
    except (OSError, AttributeError):
        return info
    get_config.argtypes = []
    get_config.restype = ctypes.c_char_p
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    info["config"] = get_config().decode(errors="replace").strip()
    info["threads"] = get_threads()
    return info


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run(config: str, result_path: str, spans_path: str | None) -> int:
    circlaw = import_circlaw()
    from circlaw import harness

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # Keep the RunReport, whose rows carry the program's own check verdicts.
    reports = []
    run_experiment = harness.run_experiment

    def capture(*args, **kwargs):
        report = run_experiment(*args, **kwargs)
        reports.append(report)
        return report

    harness.run_experiment = capture

    error = None
    cpu0 = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        status = circlaw.cli.main(["run", "--config", config, "--workers", "1"])
    except Exception:
        status = None
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    cpu = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN) - cpu0
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    result = {
        "status": status,
        "error": error,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "blas": blas_info(),
        "numpy": sys.modules["numpy"].__version__,
    }
    if reports:
        rows = reports[0].delta_rows
        result["rows"] = len(rows)
        result["rows_flagged"] = reports[0].flagged_points
        result["rows_failed_check"] = sum(
            1 for _dim, _rep, d in rows
            if not (d.cross_check_ok and d.rank_inequality_ok and d.chain_bound_ok)
        )
    if tracer is not None:
        Path(spans_path).write_text(json.dumps(tracer.spans))
    Path(result_path).write_text(json.dumps(result))
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "setup":
        import_circlaw()
        from circlaw import harness

        harness.load_config(argv[1])
        return 0
    if len(argv) in (3, 4) and argv[0] == "run":
        return run(argv[1], argv[2], argv[3] if len(argv) == 4 else None)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
