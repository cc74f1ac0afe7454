"""Golden format of the four report files.

The records below are built by hand, so every value and the text it must be
written as are both fixed in this file. A writer change that alters the
format fails here even when it alters all four files consistently. The
records need not be consistent with their config; only the format is tested.
"""

import json
import math

import pytest

from circlaw import EntryDistribution, ExperimentConfig, PerturbationSpec, ZGrid
from circlaw.diagnostics import (
    DeltaDiagnostics,
    DimScalingStats,
    ScalingReport,
)
from circlaw.harness import DiskRecord, RunReport, write_report_files

NAN, INF = math.nan, math.inf


def _delta(z, delta, delta_logdet, s_max_a, s_min_a, s_max_b, s_min_b, ks,
           rank_bound, ibp_bound, singular_flag):
    return DeltaDiagnostics(
        z=z, delta=delta, delta_logdet=delta_logdet, s_max_a=s_max_a,
        s_min_a=s_min_a, s_max_b=s_max_b, s_min_b=s_min_b, ks=ks,
        rank_bound=rank_bound, ibp_bound=ibp_bound, singular_flag=singular_flag,
    )


def low_rank_report() -> RunReport:
    """NaN, +-inf, -0.0, the smallest subnormal and 1e16 in every file, a
    singular-flagged delta row, and the config echo of a low-rank spec with
    an explicit rank budget."""
    config = ExperimentConfig(
        name="golden",
        dims=(5, 12),
        distribution=EntryDistribution.parse("centered-bernoulli(0.25)"),
        perturbation=PerturbationSpec(
            "low-rank", left_factors=[(1.0, 2j)], right_factors=[(-0.5, 1e16)],
            rank_budget=2, hs_budget_coefficient=4.5),
        replicates=2,
        master_seed=7,
        output_dir="out",
        z_grid=ZGrid((-1.0, 1.0), (0.0, 0.5), 0.25),
    )
    delta_rows = (
        (5, 0, _delta(complex(-0.0, 1.5), 5e-324, 0.0, 1e16, 0.25, 2.0, 0.125,
                      0.2, 0.2, 0.75, False)),
        (5, 1, _delta(complex(0.5, 0.0), NAN, NAN, INF, 0.0, 3.0, -INF,
                      1 / 3, 0.2, NAN, True)),
        (12, 0, _delta(complex(2.5, -1.0), 0.125, 0.125 + 2**-40, 4.0, 0.5, 4.0,
                       0.5, 0.0, 1 / 12, 0.0, False)),
    )
    scaling = ScalingReport(
        dims=(5, 12),
        per_dim=(DimScalingStats(5, 5e-324, 0.2, 0.125, 1e16, rows=2, flagged=1),
                 DimScalingStats(12, 0.125, NAN, -0.0, INF, rows=1, flagged=0)),
        a_hat=0.5, b_hat=NAN, eps_hat=-INF, reference_exponent_b0=3.0,
        smin_violation_fraction=0.5,
    )
    return RunReport(
        config=config,
        delta_rows=delta_rows,
        disk_rows=(DiskRecord(1, 0, NAN, NAN, 2.5, NAN),
                   DiskRecord(5, 0, 0.1, -0.0, NAN, 1e-300),
                   DiskRecord(12, 1, 5e-324, 1e16, INF, 0.25)),
        scaling=scaling,
        timings={},
    )


def file_report() -> RunReport:
    """No rows at all, and the config echo of a file spec with an unbounded
    Hilbert-Schmidt budget (written as null, like every non-finite float)."""
    config = ExperimentConfig(
        name="file-echo",
        dims=(4,),
        distribution=EntryDistribution.parse("complex-gaussian"),
        perturbation=PerturbationSpec("file", path="m.csv", hs_budget_coefficient=INF),
        replicates=1,
        master_seed=0,
        output_dir="out",
    )
    scaling = ScalingReport((), (), NAN, NAN, NAN, 3.0, 0.0)
    return RunReport(config=config, delta_rows=(), disk_rows=(), scaling=scaling,
                     timings={})


LOW_RANK_FILES = {
    "delta.csv": """\
n,replicate,z_re,z_im,delta,ks,rank_bound,ibp_bound,s_min_a,s_min_b,s_max_a,s_max_b,singular_flag
5,0,-0.0,1.5,5e-324,0.2,0.2,0.75,0.25,0.125,1e+16,2.0,0
5,1,0.5,0.0,nan,0.3333333333333333,0.2,nan,0.0,-inf,inf,3.0,1
12,0,2.5,-1.0,0.125,0.0,0.08333333333333333,0.0,0.5,0.5,4.0,4.0,0
""",
    "disk.csv": """\
n,replicate,radial_ks,angular_ks,top_eigen_modulus,bulk_max_modulus
1,0,nan,nan,2.5,nan
5,0,0.1,-0.0,nan,1e-300
12,1,5e-324,1e+16,inf,0.25
""",
    "scaling.csv": """\
n,median_abs_delta,median_ks,min_smin,max_smax
5,5e-324,0.2,0.125,1e+16
12,0.125,nan,-0.0,inf
""",
    "report.json": """\
{
  "config": {
    "dims": [
      5,
      12
    ],
    "distribution": "centered-bernoulli(0.25)",
    "master_seed": 7,
    "name": "golden",
    "output_dir": "out",
    "perturbation": {
      "hs_budget_coefficient": 4.5,
      "kind": "low-rank",
      "left_factors": [
        [
          [
            1.0,
            0.0
          ],
          [
            0.0,
            2.0
          ]
        ]
      ],
      "rank_budget": 2,
      "right_factors": [
        [
          [
            -0.5,
            0.0
          ],
          [
            1e+16,
            0.0
          ]
        ]
      ]
    },
    "reference_exponent_b0": 3.0,
    "replicates": 2,
    "z_grid": {
      "im_range": [
        0.0,
        0.5
      ],
      "re_range": [
        -1.0,
        1.0
      ],
      "step": 0.25
    }
  },
  "consistency": {
    "chain_bound_ok": false,
    "cross_check_ok": true,
    "delta_rows": 3,
    "flagged_points": 1,
    "max_cross_check_gap": 9.094947017729282e-13,
    "rank_inequality_ok": false
  },
  "disk": [
    {
      "angular_ks": null,
      "bulk_max_modulus": null,
      "n": 1,
      "radial_ks": null,
      "replicate": 0,
      "top_eigen_modulus": 2.5
    },
    {
      "angular_ks": -0.0,
      "bulk_max_modulus": 1e-300,
      "n": 5,
      "radial_ks": 0.1,
      "replicate": 0,
      "top_eigen_modulus": null
    },
    {
      "angular_ks": 1e+16,
      "bulk_max_modulus": 0.25,
      "n": 12,
      "radial_ks": 5e-324,
      "replicate": 1,
      "top_eigen_modulus": null
    }
  ],
  "scaling": {
    "a_hat": 0.5,
    "b_hat": null,
    "dims": [
      5,
      12
    ],
    "eps_hat": null,
    "per_dim": [
      {
        "flagged": 1,
        "max_smax": 1e+16,
        "median_abs_delta": 5e-324,
        "median_ks": 0.2,
        "min_smin": 0.125,
        "n": 5,
        "rows": 2
      },
      {
        "flagged": 0,
        "max_smax": null,
        "median_abs_delta": 0.125,
        "median_ks": null,
        "min_smin": -0.0,
        "n": 12,
        "rows": 1
      }
    ],
    "reference_exponent_b0": 3.0,
    "smin_violation_fraction": 0.5
  }
}
""",
}

FILE_FILES = {
    "delta.csv": """\
n,replicate,z_re,z_im,delta,ks,rank_bound,ibp_bound,s_min_a,s_min_b,s_max_a,s_max_b,singular_flag
""",
    "disk.csv": """\
n,replicate,radial_ks,angular_ks,top_eigen_modulus,bulk_max_modulus
""",
    "scaling.csv": """\
n,median_abs_delta,median_ks,min_smin,max_smax
""",
    "report.json": """\
{
  "config": {
    "dims": [
      4
    ],
    "distribution": "complex-gaussian",
    "master_seed": 0,
    "name": "file-echo",
    "output_dir": "out",
    "perturbation": {
      "hs_budget_coefficient": null,
      "kind": "file",
      "path": "m.csv"
    },
    "reference_exponent_b0": 3.0,
    "replicates": 1,
    "z_grid": {
      "im_range": [
        -2.5,
        2.5
      ],
      "re_range": [
        -2.5,
        2.5
      ],
      "step": 0.5
    }
  },
  "consistency": {
    "chain_bound_ok": true,
    "cross_check_ok": true,
    "delta_rows": 0,
    "flagged_points": 0,
    "max_cross_check_gap": null,
    "rank_inequality_ok": true
  },
  "disk": [],
  "scaling": {
    "a_hat": null,
    "b_hat": null,
    "dims": [],
    "eps_hat": null,
    "per_dim": [],
    "reference_exponent_b0": 3.0,
    "smin_violation_fraction": 0.0
  }
}
""",
}


@pytest.mark.parametrize("build, expected", [
    (low_rank_report, LOW_RANK_FILES),
    (file_report, FILE_FILES),
], ids=["low-rank", "file"])
def test_report_files_match_golden_text(tmp_path, build, expected):
    paths = write_report_files(build(), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name
    assert {p.name for p in paths.values()} == set(expected)


def _no_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("expected", [LOW_RANK_FILES, FILE_FILES],
                         ids=["low-rank", "file"])
def test_golden_report_json_is_strict_json(expected):
    """No NaN or Infinity token: a strict JSON parser reads report.json."""
    json.loads(expected["report.json"], parse_constant=_no_constant)
