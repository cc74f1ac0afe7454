"""Seeded workload configs for the circlaw benchmark.

Each workload is a `circlaw run` config built from the benchmark seed alone:
the same (workload, seed) always gives the same JSON text. The program sees
only that JSON file. Factors and seeds are drawn with the standard library's
`random.Random`, so the inputs do not depend on the numpy version or BLAS.
"""

from __future__ import annotations

import json
import math
import random

# One shift z = 0.5 + 0.5i: the criterion-3 acceptance config.
ONE_SHIFT = {"re_range": [0.5, 0.5], "im_range": [0.5, 0.5], "step": 1.0}

# The reason for each workload is its "why" in BENCHMARK.json.
WORKLOADS = ("decay", "scan", "spike")

# Eigenvalues of M/sqrt(n) for the scan workload's low-rank M.
SCAN_OUTLIERS = (3.0, 5.0)


def _unit_pair(rng: random.Random, n: int) -> list[list[complex]]:
    """Two orthonormal complex n-vectors (Gram-Schmidt of Gaussian draws)."""
    basis: list[list[complex]] = []
    for _ in range(2):
        v = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)]
        for q in basis:
            dot = sum(qi.conjugate() * vi for qi, vi in zip(q, v))
            v = [vi - dot * qi for qi, vi in zip(q, v)]
        norm = math.sqrt(sum(abs(vi) ** 2 for vi in v))
        basis.append([vi / norm for vi in v])
    return basis


def _pairs(vec: list[complex]) -> list[list[float]]:
    return [[v.real, v.imag] for v in vec]


def build_config(workload: str, seed: int, output_dir: str) -> dict:
    """The `circlaw run` config of one workload for one benchmark seed."""
    rng = random.Random(f"circlaw-bench:{workload}:{seed}")
    config = {
        "name": f"bench-{workload}",
        "distribution": "complex-gaussian",
        "master_seed": rng.getrandbits(63),
        "output_dir": output_dir,
    }
    if workload == "decay":
        config.update(dims=[50, 100, 200, 400], replicates=20,
                      perturbation={"kind": "all-ones"}, z_grid=ONE_SHIFT)
    elif workload == "spike":
        config.update(dims=[1000], replicates=2,
                      perturbation={"kind": "all-ones"}, z_grid=ONE_SHIFT)
    elif workload == "scan":
        # M = U V* with U = sqrt(n) Q diag(3, 5) and V = Q, so M/sqrt(n) has
        # eigenvalues 3 and 5 and B's predicted outliers sit there. The
        # default z-grid applies. Factors must have length n: one dim only.
        n = 200
        q = _unit_pair(rng, n)
        left = [[math.sqrt(n) * s * v for v in col]
                for s, col in zip(SCAN_OUTLIERS, q)]
        config.update(dims=[n], replicates=3, perturbation={
            "kind": "low-rank",
            "left_factors": [_pairs(col) for col in left],
            "right_factors": [_pairs(col) for col in q],
        })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return config


def expected_outlier(config: dict, n: int) -> float:
    """Largest predicted outlier modulus of B for this config at dim n."""
    if config["perturbation"]["kind"] == "all-ones":
        return math.sqrt(n)
    return max(SCAN_OUTLIERS)


def grid_points(config: dict) -> int:
    """Number of z points the config's grid evaluates."""
    grid = config.get("z_grid", {"re_range": [-2.5, 2.5],
                                 "im_range": [-2.5, 2.5], "step": 0.5})

    def axis(lo, hi):
        return int(math.floor((hi - lo) / grid["step"] + 1e-9)) + 1

    return axis(*grid["re_range"]) * axis(*grid["im_range"])


def config_text(config: dict) -> str:
    return json.dumps(config, indent=1, sort_keys=True) + "\n"
