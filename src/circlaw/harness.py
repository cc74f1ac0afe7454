"""Experiment orchestration: config parsing, replicated runs, report files.

A run is a pure function of its configuration: per-(dim, replicate) sample
seeds are derived from the master seed, and units may execute in any order or
on parallel threads, each LAPACK call on one BLAS thread, so the CSV/JSON
outputs are byte-identical across repetitions, worker counts and ambient BLAS
thread counts.
Floats are written in shortest round-trip decimal form.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import diagnostics, ensemble, measures, spectral
from .diagnostics import ROW_CHECKS, DeltaDiagnostics, ScalingReport, ZGrid
from .ensemble import (
    EntryDistribution,
    PerturbationSpec,
    _finite,
    _is_int,
)
from .errors import MeasureError, ValidationError

__all__ = [
    "DEFAULT_Z_GRID",
    "DEFAULT_REFERENCE_EXPONENT",
    "ExperimentConfig",
    "DiskRecord",
    "RunReport",
    "STAGES",
    "parse_config",
    "load_config",
    "serialize_config",
    "build_pair",
    "run_units",
    "run_experiment",
    "lapack_work",
    "unit_dense_bytes",
    "disk_record",
    "write_report_files",
    "write_delta_csv",
    "write_disk_csv",
    "write_scaling_csv",
]

DEFAULT_REFERENCE_EXPONENT = 3.0

# The DeltaDiagnostics fields written to delta.csv, after the unit's n and
# replicate and z split into its two parts.
_DELTA_FIELDS = (
    "delta", "ks", "rank_bound", "ibp_bound", "s_min_a", "s_min_b", "s_max_a",
    "s_max_b", "singular_flag",
)

# Per-unit products: delta_scan rows and the disc-law record.
STAGES = ("delta", "disk")


DEFAULT_Z_GRID = ZGrid(re_range=(-2.5, 2.5), im_range=(-2.5, 2.5), step=0.5)
_INVALID = "invalid experiment config: "


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one replicated scan experiment.

    The fields are the JSON config's top-level keys; a field with a default
    is optional. Every value is checked here or in its own type, and all
    problems found here are reported together. A dim above the dense-solve
    cap is rejected here, before any unit is sampled.
    """

    name: str
    dims: tuple[int, ...]
    distribution: EntryDistribution
    perturbation: PerturbationSpec
    replicates: int
    master_seed: int
    output_dir: str
    z_grid: ZGrid = DEFAULT_Z_GRID
    reference_exponent_b0: float = DEFAULT_REFERENCE_EXPONENT

    def __post_init__(self) -> None:
        if isinstance(self.dims, list):
            object.__setattr__(self, "dims", tuple(self.dims))
        problems: list[str] = []
        if not isinstance(self.name, str) or not self.name:
            problems.append("name must be a nonempty string")
        if not isinstance(self.dims, tuple):
            problems.append(f"dims must be a list, got {self.dims!r}")
        elif not self.dims:
            problems.append("dims must be nonempty")
        elif not all(_is_int(d) and d >= 1 for d in self.dims):
            problems.append(f"dims must be positive integers, got {list(self.dims)}")
        elif any(b <= a for a, b in zip(self.dims, self.dims[1:])):
            problems.append(f"dims must be strictly increasing, got {list(self.dims)}")
        else:
            try:
                spectral.check_dimension(self.dims[-1])
            except ValidationError as exc:
                problems.append(str(exc))
        if not _is_int(self.replicates) or self.replicates < 1:
            problems.append(f"replicates must be a positive integer, got {self.replicates!r}")
        try:
            ensemble._check_seed(self.master_seed, "master_seed")
        except ValidationError as exc:
            problems.append(str(exc))
        if not isinstance(self.output_dir, str) or not self.output_dir:
            problems.append("output_dir must be a nonempty string")
        if not isinstance(self.distribution, EntryDistribution):
            problems.append("distribution must be an EntryDistribution")
        if not isinstance(self.perturbation, PerturbationSpec):
            problems.append("perturbation must be a PerturbationSpec")
        if not isinstance(self.z_grid, ZGrid):
            problems.append("z_grid must be a ZGrid")
        try:
            object.__setattr__(self, "reference_exponent_b0", _finite(
                self.reference_exponent_b0, "reference_exponent_b0"))
        except ValidationError as exc:
            problems.append(str(exc))
        if problems:
            raise ValidationError(_INVALID + "; ".join(problems))


def _key_problems(schema, obj: dict, prefix: str = "") -> list[str]:
    """Unknown and missing keys of a JSON object read into the dataclass
    schema; a field with no default is required."""
    fields = dataclasses.fields(schema)
    names = {f.name for f in fields}
    problems = [f"unknown {prefix}key {key!r}" for key in obj if key not in names]
    problems.extend(
        f"{prefix}missing required key {f.name!r}" for f in fields
        if f.name not in obj and f.default is dataclasses.MISSING
    )
    return problems


# JSON null in a nested object: no HS bound, or a rank budget left out; a
# budget left out is not checked. None means "not given" in every other
# field, so null there is rejected.
_NULL_MEANS = {"hs_budget_coefficient": math.inf, "rank_budget": None}


def _object_reader(schema, label: str):
    """The reader of a nested JSON object: its keys by name, as at the top
    level, then schema(**obj), which checks every value."""
    def read(obj):
        if not isinstance(obj, dict):
            raise ValidationError(f"{label} must be a JSON object")
        problems = _key_problems(schema, obj, f"{label} ") or [
            f"{label} {key} must not be null" for key, value in obj.items()
            if value is None and key not in _NULL_MEANS]
        if problems:
            raise ValidationError("; ".join(problems))
        return schema(**{key: _NULL_MEANS[key] if value is None else value
                         for key, value in obj.items()})
    return read


# The config keys whose JSON value is not the field value; ExperimentConfig
# and the types it holds check every value.
_CONFIG_READERS = {
    "distribution": EntryDistribution.parse,
    "perturbation": _object_reader(PerturbationSpec, "perturbation"),
    "z_grid": _object_reader(ZGrid, "z_grid"),
}
# Valid values for the required keys a document leaves out or gets wrong,
# so that ExperimentConfig still reports its own problems in the same pass.
_STAND_INS = dict(name="-", dims=(1,), distribution=EntryDistribution("rademacher"),
                  perturbation=PerturbationSpec("zero"), replicates=1, master_seed=0,
                  output_dir="-")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment configuration.

    The keys, required keys and defaults of the document and of its
    perturbation and z_grid objects are the fields of ExperimentConfig,
    PerturbationSpec and ZGrid. The parser checks only what JSON adds:
    unknown and missing keys, by name, and null inside those objects (see
    _NULL_MEANS). Every other rule is the type's, so a config built in
    Python obeys the same rules. The key problems, the first problem of
    each nested value and ExperimentConfig's own problems are reported
    together.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer literal past Python's digit limit
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("config document must be a JSON object")

    problems = _key_problems(ExperimentConfig, doc)
    values = dict(_STAND_INS)
    for f in dataclasses.fields(ExperimentConfig):
        if f.name in doc:
            read = _CONFIG_READERS.get(f.name)
            try:
                values[f.name] = read(doc[f.name]) if read else doc[f.name]
            except ValidationError as exc:
                problems.append(str(exc))
    try:
        config = ExperimentConfig(**values)
    except ValidationError as exc:
        problems.append(str(exc).removeprefix(_INVALID))
    if problems:
        raise ValidationError(_INVALID + "; ".join(problems))
    return config


def load_config(path) -> ExperimentConfig:
    """Read and parse a config file; missing files surface the path."""
    return parse_config(Path(path).read_text())


def config_to_obj(config: ExperimentConfig) -> dict:
    """Every field through _json, so an unbounded budget is null; the
    distribution is written as its wire string, and the perturbation's
    fields that are None (not given) are left out."""
    obj = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    obj["distribution"] = str(config.distribution)
    obj["perturbation"] = {key: _json(value) for key, value in
                           dataclasses.asdict(config.perturbation).items()
                           if value is not None}
    return {key: _json(value) for key, value in obj.items()}


def serialize_config(config: ExperimentConfig) -> str:
    """Inverse of parse_config: parse(serialize(c)) == c."""
    return json.dumps(config_to_obj(config), indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class DiskRecord:
    """Disc-law distances for one replicate, the outlier's modulus (NaN when
    rank 0) and the largest modulus of the bulk (NaN when it is empty)."""

    dim: int
    replicate: int
    radial_ks: float
    angular_ks: float
    top_eigen_modulus: float
    bulk_max_modulus: float


@dataclass(frozen=True)
class UnitResult:
    """The stages one unit computed; a stage not asked for is empty/None."""

    dim: int
    replicate: int
    diagnostics: tuple[DeltaDiagnostics, ...]
    disk: DiskRecord | None


@dataclass(frozen=True)
class RunReport:
    """In-memory result of run_experiment; timings are not serialized."""

    config: ExperimentConfig
    delta_rows: tuple[tuple[int, int, DeltaDiagnostics], ...]
    disk_rows: tuple[DiskRecord, ...]
    scaling: ScalingReport
    timings: dict[str, float]

    @property
    def flagged_points(self) -> int:
        return sum(1 for _, _, d in self.delta_rows if d.singular_flag)


def disk_record(pair, dim: int, replicate: int) -> DiskRecord:
    """Disc-law distances of the perturbed ESD for one assembled pair: one
    eigensolve of its B, and the rank of its perturbation (see _disk_of). A
    sample is its checked entries and the pair holds only its matrices and
    that rank, so dim and replicate, which label the record, are the
    caller's."""
    return _disk_of(spectral.eigenvalues(pair.b_matrix), pair.perturbation_rank,
                    dim, replicate)


def _disk_of(eig: np.ndarray, rank: int, dim: int, replicate: int) -> DiskRecord:
    """Disc-law distances of B's eigenvalues eig, sorted by nonincreasing
    modulus (spectral.eigenvalues).

    When the perturbation has rank >= 1 the single largest-modulus eigenvalue
    is excluded from the distances and reported as top_eigen_modulus. The
    bulk's first eigenvalue has its largest modulus.
    """
    if rank >= 1:
        top_modulus = float(np.abs(eig[0]))
        bulk = eig[1:]
    else:
        top_modulus = float("nan")
        bulk = eig
    if bulk.size == 0:
        radial = angular = bulk_max = float("nan")
    else:
        bulk_max = float(np.abs(bulk[0]))
        cloud = measures.EmpiricalMeasure2D(bulk)
        radial = measures.radial_disk_distance(cloud)
        try:
            angular = measures.angular_disk_distance(cloud)
        except MeasureError:
            angular = float("nan")
    return DiskRecord(
        dim=dim,
        replicate=replicate,
        radial_ks=radial,
        angular_ks=angular,
        top_eigen_modulus=top_modulus,
        bulk_max_modulus=bulk_max,
    )


def _unit_seed(config: ExperimentConfig, dim: int, replicate: int) -> int:
    """The unit's sample seed, a pure function of (master_seed, dim,
    replicate), so units can be computed in any order or concurrently, and a
    unit can draw its X again instead of keeping it."""
    return ensemble.derive_seed(config.master_seed, dim, replicate)


def _sample(config: ExperimentConfig, dim: int, replicate: int) -> ensemble.MatrixSample:
    """The unit's X, drawn from its seed (_unit_seed)."""
    return ensemble.sample_matrix(config.distribution, dim,
                                  _unit_seed(config, dim, replicate))


def build_pair(config: ExperimentConfig, perturbation: ensemble.Perturbation,
               replicate: int) -> ensemble.AssembledPair:
    """Sample and assemble one (dim, replicate) unit at the perturbation's dim.

    assemble spends the sample, whose buffer becomes A, so the pair holds A
    and B only. The run itself holds one of them at a time (_run_unit).
    """
    return ensemble.assemble(_sample(config, perturbation.dim, replicate), perturbation)


def lapack_work(config: ExperimentConfig) -> int:
    """The units' dense LAPACK work in n^3, known at load: per unit, an SVD
    and an LU of A - zI and of B - zI at every grid point and one eigensolve
    of B."""
    per_unit = 4 * len(config.z_grid) + 1
    return config.replicates * per_unit * sum(n**3 for n in config.dims)


def unit_dense_bytes(n: int, lanes: int) -> int:
    """What one unit at dim n on `lanes` lanes holds densely at its peak, in
    n-by-n complex128 matrices: one matrix, B or A, and each lane's working
    copy (spectral._Lane), which LAPACK factors; while B is formed, X and
    U V* (B's array), and then B and its Fortran-order copy where B's
    eigensolve runs beside the shifts. That eigensolve factors B in place,
    and A - zI is drawn straight into the lanes' copies, so it holds no
    more. A unit also keeps n singular values per grid point of B - zI
    until A's pass.
    """
    return (1 + lanes) * 16 * n * n


class _Plan(NamedTuple):
    """How run_units spends the ambient BLAS threads (_plan)."""

    stages: frozenset
    at_once: int  # units run at a time
    share: int  # each unit's threads
    lanes: int  # threads a unit's grid shifts run on
    beside: bool  # B's eigensolve on one more thread, beside the shifts


def _plan(config: ExperimentConfig, stages, workers: int) -> _Plan:
    """The one place the schedule is decided. Units run `workers` at a
    time, at most the number of units; each gets an equal share of the
    ambient BLAS thread count (spectral._lane_share), runs its grid shifts
    on up to that many lanes, and runs B's eigensolve beside them where it
    computes both stages and its share has a thread to spare beyond one per
    shift. Each schedule wins where the plan picks it: beside, a one-shift
    unit keeps two threads busy; on a full grid, drawing A once per
    factorization would cost more than the eigensolve it overlaps. A bad
    worker count or stage set is rejected here."""
    _check_workers(workers)
    unknown = sorted(set(stages) - set(STAGES))
    if unknown or not stages:
        raise ValidationError(
            f"stages must be a nonempty subset of {STAGES}, got {unknown or 'none'}")
    at_once = min(workers, config.replicates * len(config.dims))
    share = spectral._lane_share(at_once)
    shifts = len(config.z_grid)
    return _Plan(stages=frozenset(stages), at_once=at_once, share=share,
                 lanes=min(shifts, share),
                 beside=set(stages) >= set(STAGES) and share > shifts)


def _run_unit(config: ExperimentConfig, perturbation: ensemble.Perturbation,
              replicate: int, plan: _Plan) -> UnitResult:
    """One unit, computing only the plan's stages, holding one n-by-n
    matrix and a working copy per lane (unit_dense_bytes).

    B's pass: X is drawn, B = (X + M)/sqrt(n) formed and X dropped.
    "disk" takes the one eigensolve of B; "delta" the SVD and LU of B - zI
    at every grid point, keeping only their spectral.shifted results. A's
    pass, for "delta" only: B is dropped, X drawn again from its seed and
    scaled in place into A, and the SVD and LU of A - zI at each grid point
    complete that point's row (diagnostics.delta_row). Each pass is one
    spectral.shifted call over the grid's points on the plan's lanes, each
    with its own working copy.

    Where the plan puts B's eigensolve beside the shifts, it runs there
    instead (spectral._eigensolve_beside): B is checked and copied into
    Fortran order, each shift's LU of B - zI is taken, then zgeev factors B
    in place, its last use, while each lane takes the SVD of B - zI and
    then draws A - zI straight into its copy from the unit's seed, once for
    the SVD and once for the LU. Only the calling thread calls a public
    function.

    The bytes are those of delta_scan and disk_record on build_pair's pair,
    under any plan and at any ambient BLAS thread count.
    """
    dim, rank = perturbation.dim, perturbation.rank
    points = config.z_grid.points()
    b = ensemble.perturbed(_sample(config, dim, replicate), perturbation)
    if plan.beside:
        seed = _unit_seed(config, dim, replicate)
        b = np.asfortranarray(spectral._as_matrix(b))
        eig, pairs = spectral._eigensolve_beside(b, points.tolist(), lambda out: (
            ensemble._scale(ensemble._draw(config.distribution, seed, out))))
        diags = tuple(diagnostics.delta_row(a_z, b_z, rank) for a_z, b_z in pairs)
        return UnitResult(dim=dim, replicate=replicate, diagnostics=diags,
                          disk=_disk_of(eig, rank, dim, replicate))
    disk = (_disk_of(spectral.eigenvalues(b), rank, dim, replicate)
            if "disk" in plan.stages else None)
    diags = ()
    if "delta" in plan.stages:
        b_side = spectral.shifted(b, points, plan.lanes)
        del b
        a = ensemble.scaled(_sample(config, dim, replicate))
        diags = tuple(diagnostics.delta_row(a_z, b_z, rank) for a_z, b_z
                      in zip(spectral.shifted(a, points, plan.lanes), b_side))
    return UnitResult(dim=dim, replicate=replicate, diagnostics=diags, disk=disk)


def _check_workers(workers) -> None:
    """A worker count is an int, not a bool, and at least 1."""
    if not _is_int(workers) or workers < 1:
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")


def _output_dir(config: ExperimentConfig) -> Path:
    """output_dir, created and probed for writing, so that a command whose
    reports cannot be written fails before its first unit."""
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".write-probe"
    probe.write_text("")
    probe.unlink()
    return out_dir


def run_units(config: ExperimentConfig, stages, workers: int = 1) -> list[UnitResult]:
    """Every (dim, replicate) unit in dims-then-replicates order, computing
    the given subset of STAGES from one Perturbation per dim, built before
    any unit samples. The schedule is one plan (_plan), made here and
    passed to every unit: units run plan.at_once at a time on threads
    (spectral._on_lanes), and at one every unit runs on the calling thread.
    Each LAPACK call runs on one BLAS thread, so the results depend on
    neither the worker count nor the ambient count."""
    plan = _plan(config, stages, workers)
    perturbations = [ensemble.build_perturbation(config.perturbation, dim)
                     for dim in config.dims]
    tasks = [(perturbation, replicate) for perturbation in perturbations
             for replicate in range(config.replicates)]
    return spectral._on_lanes(lambda _, task: _run_unit(config, *task, plan),
                              tasks, plan.at_once)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> RunReport:
    """Execute the configured scan and write report files to output_dir.

    Every unit computes all STAGES (see run_units). Outputs are identical for
    identical configs regardless of worker count. A bad worker count is
    rejected before output_dir is created.
    """
    _check_workers(workers)
    out_dir = _output_dir(config)

    t0 = time.perf_counter()
    units = run_units(config, STAGES, workers)
    t_units = time.perf_counter() - t0

    t0 = time.perf_counter()
    delta_rows = tuple(
        (u.dim, u.replicate, d) for u in units for d in u.diagnostics
    )
    scaling = diagnostics.aggregate_scaling(delta_rows, config.reference_exponent_b0)
    report = RunReport(
        config=config,
        delta_rows=delta_rows,
        disk_rows=tuple(u.disk for u in units),
        scaling=scaling,
        timings={},
    )
    t_aggregate = time.perf_counter() - t0

    t0 = time.perf_counter()
    write_report_files(report, out_dir)
    t_write = time.perf_counter() - t0
    report.timings.update(
        {"units_s": t_units, "aggregate_s": t_aggregate, "write_s": t_write}
    )
    return report


def _column(name: str) -> str:
    """Report files write a record's dim as n."""
    return "n" if name == "dim" else name


def _cell(value) -> str:
    """A CSV cell: bools as 1/0, ints as digits, anything else in shortest
    round-trip float form."""
    if isinstance(value, int):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, columns: Sequence[str], rows) -> None:
    lines = [",".join(columns)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n")


def _write_records_csv(path, names: Sequence[str], records) -> None:
    """One CSV row per record, one column per named field."""
    _write_csv(path, [_column(name) for name in names],
               ([getattr(r, name) for name in names] for r in records))


def write_delta_csv(path, rows: Sequence[tuple[int, int, DeltaDiagnostics]]) -> None:
    _write_csv(path, ("n", "replicate", "z_re", "z_im", *_DELTA_FIELDS), (
        (dim, replicate, d.z.real, d.z.imag, *(getattr(d, f) for f in _DELTA_FIELDS))
        for dim, replicate, d in rows
    ))


def write_disk_csv(path, rows: Sequence[DiskRecord]) -> None:
    _write_records_csv(path, [f.name for f in dataclasses.fields(DiskRecord)], rows)


def write_scaling_csv(path, scaling: ScalingReport) -> None:
    _write_records_csv(path, ("dim", *diagnostics.SCALING_STATS), scaling.per_dim)


def _jf(x: float):
    """Float for JSON; None for non-finite values."""
    x = float(x)
    return x if math.isfinite(x) else None


def _json(value):
    """A record as JSON: dataclasses as dicts of their fields (dim as n),
    tuples as lists, non-finite floats and complex parts as null."""
    if dataclasses.is_dataclass(value):
        return {_column(f.name): _json(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    if isinstance(value, complex):
        return [_jf(value.real), _jf(value.imag)]
    if isinstance(value, float):
        return _jf(value)
    return value


def consistency_section(rows: Sequence[tuple[int, int, DeltaDiagnostics]]) -> dict:
    """report.json's consistency section: <name>_ok per rule of ROW_CHECKS,
    true when no row fails it; the row and flagged counts; and the largest
    gap between the cross-check's two sides on an unflagged row."""
    checks = [d.checks() for _, _, d in rows]
    gaps = [abs(c["cross_check"].lhs - c["cross_check"].rhs)
            for c, (_, _, d) in zip(checks, rows) if not d.singular_flag]
    return {**{f"{name}_ok": all(c[name].holds for c in checks) for name in ROW_CHECKS},
            "flagged_points": len(rows) - len(gaps),
            "delta_rows": len(rows),
            "max_cross_check_gap": _jf(max(gaps)) if gaps else None}


def report_to_obj(report: RunReport) -> dict:
    return {
        "config": config_to_obj(report.config),
        "consistency": consistency_section(report.delta_rows),
        "disk": _json(report.disk_rows),
        "scaling": _json(report.scaling),
    }


def write_report_files(report: RunReport, out_dir) -> dict[str, Path]:
    """Write delta.csv, disk.csv, scaling.csv, and report.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "delta": out_dir / "delta.csv",
        "disk": out_dir / "disk.csv",
        "scaling": out_dir / "scaling.csv",
        "report": out_dir / "report.json",
    }
    write_delta_csv(paths["delta"], report.delta_rows)
    write_disk_csv(paths["disk"], report.disk_rows)
    write_scaling_csv(paths["scaling"], report.scaling)
    paths["report"].write_text(
        json.dumps(report_to_obj(report), indent=2, sort_keys=True) + "\n"
    )
    return paths
