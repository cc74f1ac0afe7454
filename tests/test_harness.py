"""Tests for experiment configs, report generation, and the CLI."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlaw import (
    DEFAULT_Z_GRID,
    EntryDistribution,
    ExperimentConfig,
    PerturbationSpec,
    ValidationError,
    ZGrid,
    load_config,
    parse_config,
    run_experiment,
    serialize_config,
    write_report_files,
)
from circlaw import cli, diagnostics, ensemble, harness, spectral

CG = EntryDistribution.parse("complex-gaussian")

MINIMAL = {
    "name": "demo",
    "dims": [10, 20],
    "distribution": "complex-gaussian",
    "perturbation": {"kind": "all-ones"},
    "replicates": 2,
    "master_seed": 7,
    "output_dir": "out",
}


def cfg_json(**overrides):
    obj = dict(MINIMAL)
    obj.update(overrides)
    return json.dumps(obj)


def small_config(tmp_path, **overrides):
    fields = dict(
        name="small",
        dims=(6, 8),
        distribution=CG,
        perturbation=PerturbationSpec("all-ones"),
        z_grid=ZGrid((0.0, 0.5), (0.0, 0.0), 0.5),
        replicates=2,
        master_seed=13,
        output_dir=str(tmp_path / "out"),
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


@pytest.fixture
def sample_calls(monkeypatch):
    """The arguments of every ensemble.sample_matrix call."""
    calls = []
    sample_matrix = ensemble.sample_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return sample_matrix(*args, **kwargs)

    monkeypatch.setattr(ensemble, "sample_matrix", counting)
    return calls


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_parse_minimal_config_fills_defaults():
    c = parse_config(cfg_json())
    assert c.name == "demo"
    assert c.dims == (10, 20)
    assert c.distribution == CG
    assert c.perturbation.kind == "all-ones"
    assert c.z_grid == DEFAULT_Z_GRID
    assert c.reference_exponent_b0 == 3.0
    assert c.replicates == 2


def test_parse_rejects_unsorted_dims():
    with pytest.raises(ValidationError, match="increasing"):
        parse_config(cfg_json(dims=[200, 100]))
    with pytest.raises(ValidationError):
        parse_config(cfg_json(dims=[100, 100]))
    with pytest.raises(ValidationError):
        parse_config(cfg_json(dims=[]))
    with pytest.raises(ValidationError):
        parse_config(cfg_json(dims=[0, 10]))


def test_parse_rejects_unknown_keys_by_name():
    with pytest.raises(ValidationError, match="rankk"):
        parse_config(cfg_json(rankk=1))


def test_parse_reports_all_problems_at_once():
    bad = cfg_json(rankk=1, wibble=2)
    with pytest.raises(ValidationError, match="rankk") as exc:
        parse_config(bad)
    assert "wibble" in str(exc.value)


def test_parse_reports_nested_and_config_problems_together():
    """A nested object that fails to read does not hide ExperimentConfig's
    own problems, and stands in without a problem of its own."""
    text = cfg_json(perturbation={"kind": "all-ones", "scale": "x"},
                    z_grid={"re_range": [0, 1], "im_range": [0, 0], "step": "0.5"},
                    replicates=0)
    with pytest.raises(ValidationError) as exc:
        parse_config(text)
    msg = str(exc.value)
    for problem in ("perturbation scale must be a number", "grid step must be a number",
                    "replicates must be a positive integer"):
        assert problem in msg
    assert "must be a PerturbationSpec" not in msg and "must be a ZGrid" not in msg
    obj = dict(MINIMAL, replicates=0, rankk=1)
    del obj["master_seed"]
    with pytest.raises(ValidationError) as exc:
        parse_config(json.dumps(obj))
    for problem in ("rankk", "missing required key 'master_seed'", "replicates"):
        assert problem in str(exc.value)


def test_parse_rejects_unknown_perturbation_key():
    with pytest.raises(ValidationError, match="strength"):
        parse_config(cfg_json(perturbation={"kind": "all-ones", "strength": 2}))


def test_parse_rejects_inapplicable_perturbation_key():
    # scale applies to all-ones, not to zero
    with pytest.raises(ValidationError, match="scale"):
        parse_config(cfg_json(perturbation={"kind": "zero", "scale": 2.0}))


def test_parse_rejects_unknown_z_grid_key():
    grid = {"re_range": [0, 1], "im_range": [0, 1], "step": 0.5, "shape": "x"}
    with pytest.raises(ValidationError, match="shape"):
        parse_config(cfg_json(z_grid=grid))


def test_parse_rejects_partial_z_grid():
    with pytest.raises(ValidationError, match="step"):
        parse_config(cfg_json(z_grid={"re_range": [0, 1], "im_range": [0, 1]}))


def test_parse_rejects_missing_keys_by_name():
    obj = dict(MINIMAL)
    del obj["master_seed"]
    del obj["output_dir"]
    with pytest.raises(ValidationError, match="master_seed") as exc:
        parse_config(json.dumps(obj))
    assert "output_dir" in str(exc.value)


def test_parse_rejects_malformed_json():
    with pytest.raises(ValidationError):
        parse_config("{not json")
    with pytest.raises(ValidationError):
        parse_config("[1, 2, 3]")


def test_parse_low_rank_factors():
    pert = {
        "kind": "low-rank",
        "left_factors": [[1.0, 0.0, 0.0], [[0.0, 1.0], 1.0, 0.0]],
        "right_factors": [[0.0, 0.0, 2.0], [0.0, 3.0, 0.0]],
    }
    c = parse_config(cfg_json(perturbation=pert, dims=[3]))
    assert c.perturbation.k is None
    assert len(c.perturbation.left_factors) == 2
    assert c.perturbation.left_factors[1][0] == 1.0j


def test_parse_low_rank_k_mismatch():
    pert = {
        "kind": "low-rank",
        "k": 3,
        "left_factors": [[1.0, 0.0]],
        "right_factors": [[0.0, 1.0]],
    }
    with pytest.raises(ValidationError, match="k"):
        parse_config(cfg_json(perturbation=pert))


def _no_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_serialize_round_trip_handcrafted():
    specs = [
        PerturbationSpec("zero"),
        PerturbationSpec("all-ones", scale=0.5),
        PerturbationSpec("low-rank", left_factors=[(1.0, 2.0j)],
                         right_factors=[(0.0, 1.0)], hs_budget_coefficient=9.0),
        PerturbationSpec("file", path="/tmp/m.csv", rank_budget=3),
        PerturbationSpec("file", path="/tmp/m.csv", hs_budget_coefficient=math.inf),
        dataclasses.replace(PerturbationSpec("all-ones"),
                            hs_budget_coefficient=math.inf),
        PerturbationSpec("low-rank", left_factors=[(1.0, 2.0j)],
                         right_factors=[(0.0, 1.0)], hs_budget_coefficient=math.inf),
    ]
    for spec in specs:
        c = ExperimentConfig(
            name="rt", dims=(4, 8), distribution=CG, perturbation=spec,
            z_grid=ZGrid((-1.0, 1.0), (0.0, 0.5), 0.25),
            replicates=3, master_seed=99, output_dir="somewhere",
            reference_exponent_b0=2.5,
        )
        text = serialize_config(c)
        json.loads(text, parse_constant=_no_constant)
        assert parse_config(text) == c


# kind -> constructor keywords of a spec that gives no budget
KIND_KEYWORDS = {
    "zero": {},
    "all-ones": {"scale": -1.5},
    "low-rank": {"left_factors": [(1.0, 2.0j), (0.0, 1.0)],
                 "right_factors": [(0.0, 1.0), (1.0, -1.0)]},
    "file": {"path": "/tmp/m.csv"},
}


def _echoed_perturbation(spec):
    """The config's perturbation spec and its report.json echo."""
    c = ExperimentConfig(name="rt", dims=(2, 4), distribution=CG, perturbation=spec,
                         replicates=1, master_seed=5, output_dir="out")
    text = serialize_config(c)
    assert parse_config(text) == c
    return json.loads(text, parse_constant=_no_constant)["perturbation"]


@pytest.mark.parametrize("kind", sorted(KIND_KEYWORDS))
def test_spec_budget_left_out_is_none_and_not_echoed(kind):
    """A spec holds only what was given: a budget or k left out stays None
    and is absent from the echo, which holds the given keys (and scale)."""
    spec = PerturbationSpec(kind, **KIND_KEYWORDS[kind])
    assert (spec.rank_budget, spec.hs_budget_coefficient, spec.k) == (None, None, None)
    echo = _echoed_perturbation(spec)
    assert set(echo) == {"kind", *KIND_KEYWORDS[kind]}


@pytest.mark.parametrize("budgets", [
    {}, {"rank_budget": 5}, {"hs_budget_coefficient": 7.5},
    {"rank_budget": 3, "hs_budget_coefficient": math.inf},
], ids=["structural", "rank", "hs", "rank-and-unbounded-hs"])
@pytest.mark.parametrize("kind", sorted(KIND_KEYWORDS))
def test_serialize_round_trip_every_kind(kind, budgets):
    echo = _echoed_perturbation(PerturbationSpec(kind, **KIND_KEYWORDS[kind], **budgets))
    for key, value in budgets.items():
        assert echo[key] == (None if value == math.inf else value)


# kind -> a non-default value of each of a few keys the kind does not take
STRAY_KEYS = {
    "zero": {"scale": 5.0, "path": "m.csv"},
    "all-ones": {"path": "m.csv"},
    "low-rank": {"scale": 2.0},
    "file": {"left_factors": [(1.0,)], "right_factors": [(1.0,)]},
}


@pytest.mark.parametrize("kind", sorted(STRAY_KEYS))
def test_spec_rejects_a_key_its_kind_does_not_take(kind):
    """The echo writes only the kind's keys, so a spec that set another one
    would not survive parse(serialize(c)); at its default it does."""
    keywords = KIND_KEYWORDS[kind]
    stray = STRAY_KEYS[kind]
    with pytest.raises(ValidationError) as exc:
        PerturbationSpec(kind, **keywords, **stray)
    for key in stray:
        assert f"key {key!r} not applicable to perturbation kind {kind!r}" \
            in str(exc.value)
    defaults = {f.name: f.default for f in dataclasses.fields(PerturbationSpec)}
    _echoed_perturbation(
        PerturbationSpec(kind, **keywords, **{key: defaults[key] for key in stray}))


@pytest.mark.parametrize("build, message", [
    (lambda: PerturbationSpec("zero", scale=1.0),
     "key 'scale' not applicable to perturbation kind 'zero'"),
    (lambda: PerturbationSpec("file", path="m.csv", left_factors=[]),
     "key 'left_factors' not applicable to perturbation kind 'file'"),
    (lambda: PerturbationSpec("low-rank", left_factors=[(1.0,)],
                              right_factors=[(2.0,)], k=2),
     "perturbation k must be the integer 1, the number of factor pairs, got 2"),
], ids=["zero-scale-1", "file-empty-factors", "low-rank-k-2"])
def test_spec_rejects_what_a_config_file_rejects(build, message):
    """A key given at its value from a Python caller obeys the config
    file's rules: a key the kind does not take is rejected even at the
    value the kind would imply, and k must be the number of factor pairs."""
    with pytest.raises(ValidationError) as exc:
        build()
    assert message in str(exc.value)


def test_spec_k_is_the_number_of_factor_pairs():
    """A given k is checked against the factor pairs and kept as given; a k
    left out stays None."""
    factors = {"left_factors": [(1.0,)], "right_factors": [(2.0,)]}
    spec = PerturbationSpec("low-rank", **factors, k=1)
    assert spec.k == 1 and _echoed_perturbation(spec)["k"] == 1
    assert PerturbationSpec("low-rank", **factors).k is None
    assert PerturbationSpec("zero").k is None


@pytest.mark.parametrize("obj, key", [
    ({"kind": None}, "kind"),
    ({"kind": "all-ones", "scale": None}, "scale"),
    ({"kind": "file", "path": None}, "path"),
    ({"kind": "low-rank", "k": None, "left_factors": [[1.0]], "right_factors": [[1.0]]},
     "k"),
    ({"kind": "low-rank", "left_factors": None, "right_factors": [[1.0]]},
     "left_factors"),
], ids=["kind", "scale", "path", "k", "factors"])
def test_parse_rejects_null_naming_the_key(obj, key):
    """null means "not given" nowhere in a config file, so "scale": null
    does not become the default scale."""
    with pytest.raises(ValidationError, match=f"perturbation {key} must not be null"):
        parse_config(cfg_json(perturbation=obj))


def test_parse_null_budgets_keep_their_meaning():
    grid = {"re_range": [0, 1], "im_range": [0, 0], "step": None}
    with pytest.raises(ValidationError, match="z_grid step must not be null"):
        parse_config(cfg_json(z_grid=grid))
    spec = parse_config(cfg_json(perturbation={
        "kind": "all-ones", "scale": 2.0, "rank_budget": None,
        "hs_budget_coefficient": None})).perturbation
    assert (spec.rank_budget, spec.hs_budget_coefficient) == (None, math.inf)


# A perturbation object's values: numbers (nan, inf and one too large for a
# float included), bools, strings, lists of numbers and factor lists.
_NUMBER = st.one_of(st.integers(-3, 3), st.floats(), st.just(10**400))
_FACTORS = st.lists(st.lists(
    st.one_of(_NUMBER, st.lists(_NUMBER, min_size=2, max_size=2)), min_size=1, max_size=3),
    max_size=2)
_PERTURBATION_VALUE = st.one_of(
    _NUMBER, st.booleans(), st.text(max_size=3), st.lists(_NUMBER, max_size=3), _FACTORS)
_PERTURBATION_OBJECT_KEYS = sorted(
    set().union(*ensemble.PERTURBATION_KEYS.values()) - {"kind"}) + ["strength"]


@given(obj=st.fixed_dictionaries(
    {"kind": st.sampled_from(ensemble.PERTURBATION_KINDS)},
    optional=dict.fromkeys(_PERTURBATION_OBJECT_KEYS, _PERTURBATION_VALUE)))
@example(obj={"kind": "zero", "scale": 1.0})
@settings(max_examples=300, deadline=None)
def test_python_and_json_agree_on_every_perturbation_object(obj):
    """parse_config accepts a perturbation object exactly when
    PerturbationSpec(**obj) does, and then both give the same spec, whose
    echo parses back to it. Python rejects an unknown key with TypeError."""
    try:
        spec = PerturbationSpec(**obj)
    except TypeError:
        assert "strength" in obj
        spec = None
    except ValidationError:
        spec = None
    try:
        parsed = parse_config(cfg_json(perturbation=obj)).perturbation
    except ValidationError:
        parsed = None
    assert parsed == spec
    if spec is not None:
        _echoed_perturbation(spec)


def test_serialize_is_deterministic():
    c = parse_config(cfg_json())
    assert serialize_config(c) == serialize_config(parse_config(serialize_config(c)))


@given(
    name=st.text(st.characters(min_codepoint=97, max_codepoint=122),
                 min_size=1, max_size=8),
    dims=st.lists(st.integers(2, 64), min_size=1, max_size=4, unique=True),
    kind=st.sampled_from(["complex-gaussian", "rademacher", "centered-uniform"]),
    replicates=st.integers(1, 5),
    seed=st.integers(0, 2**63 - 1),
    scale=st.floats(0.25, 4.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_config_round_trip_property(name, dims, kind, replicates, seed, scale):
    c = ExperimentConfig(
        name=name,
        dims=tuple(sorted(dims)),
        distribution=EntryDistribution.parse(kind),
        perturbation=PerturbationSpec("all-ones", scale=scale),
        replicates=replicates,
        master_seed=seed,
        output_dir="out",
    )
    assert parse_config(serialize_config(c)) == c


def _config(**fields):
    values = dict(name="lib", dims=(4,), distribution=CG,
                  perturbation=PerturbationSpec("zero"), replicates=1,
                  master_seed=1, output_dir="out")
    values.update(fields)
    return ExperimentConfig(**values)


# A value built in Python that a config file could not hold, and the field
# its ValidationError names.
LIBRARY_REJECTS = {
    "scale-str": (lambda: PerturbationSpec("all-ones", scale="2"), "scale"),
    "scale-huge": (lambda: PerturbationSpec("all-ones", scale=10**400), "scale"),
    "scale-bool": (lambda: PerturbationSpec("all-ones", scale=True), "scale"),
    "hs-str": (lambda: PerturbationSpec("all-ones", hs_budget_coefficient="1"),
               "hs_budget_coefficient"),
    "hs-bool": (lambda: PerturbationSpec("all-ones", hs_budget_coefficient=True),
                "hs_budget_coefficient"),
    "path-int": (lambda: PerturbationSpec("file", path=5), "path"),
    "step-str": (lambda: ZGrid((0, 1), (0, 1), "0.5"), "step"),
    "range-str": (lambda: ZGrid((0, "1"), (0, 1), 0.5), "re_range"),
    "range-huge": (lambda: ZGrid((0, 1), (0, 10**400), 0.5), "im_range"),
    "range-triple": (lambda: ZGrid((0, 0.5, 1), (0, 1), 0.5), "re_range"),
    "p-str": (lambda: EntryDistribution("centered-bernoulli", "0.3"),
              "centered-bernoulli p"),
    "parse-int": (lambda: EntryDistribution.parse(5), "distribution"),
    "parse-none": (lambda: EntryDistribution.parse(None), "distribution"),
    "dims-int": (lambda: _config(dims=5), "dims"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REJECTS))
def test_library_value_rejected_by_name(case):
    """The types apply the config file's value rules, so a Python caller gets
    the same ValidationError, naming the field, and never a raw TypeError or
    a config whose echo does not parse."""
    build, field = LIBRARY_REJECTS[case]
    with pytest.raises(ValidationError) as exc:
        build()
    assert field in str(exc.value)


@pytest.mark.parametrize("text", ["centered-bernoulli(0.3)\n", "complex-gaussian\n"],
                         ids=["parameterized", "bare"])
def test_distribution_with_trailing_newline_rejected(text):
    """The wire string is the whole string, for a law with a parameter too."""
    with pytest.raises(ValidationError, match="distribution"):
        EntryDistribution.parse(text)
    with pytest.raises(ValidationError, match="distribution"):
        parse_config(cfg_json(distribution=text))


@pytest.mark.parametrize("text, message", [
    ("rademacher(0.3)", "rademacher takes no parameter"),
    ("centered-bernoulli", "centered-bernoulli requires a parameter, as in "
                           "centered-bernoulli(p)"),
], ids=["stray-parameter", "missing-parameter"])
def test_distribution_parameter_error_names_the_kind(capsys, text, message):
    with pytest.raises(ValidationError) as exc:
        EntryDistribution.parse(text)
    assert message in str(exc.value)
    assert cli.main(["sample", "--n", "8", "--dist", text]) == 1
    assert message in capsys.readouterr().err


def test_library_int_values_are_stored_as_floats():
    """The types store the floats a config file's reader would give, so the
    echo of a spec or grid built from ints writes 2.0, not 2."""
    spec = PerturbationSpec("all-ones", scale=2, hs_budget_coefficient=np.float32(5))
    grid = ZGrid([0, 1], (0, np.float32(0.5)), 1)
    assert repr((spec.scale, spec.hs_budget_coefficient)) == "(2.0, 5.0)"
    assert repr((grid.re_range, grid.im_range, grid.step)) == "((0.0, 1.0), (0.0, 0.5), 1.0)"
    config = _config(perturbation=spec, z_grid=grid)
    text = serialize_config(config)
    assert '"scale": 2.0' in text and '"step": 1.0' in text
    assert parse_config(text) == config


# Any JSON-like value: numbers (nan, inf and one too large for a float
# included), bools, strings, null, and lists of these, nested.
_ATOM = st.one_of(
    st.integers(-3, 3), st.floats(), st.booleans(), st.text(max_size=3), st.none(),
    st.just(10**400))
_VALUE = st.recursive(_ATOM, lambda inner: st.lists(inner, max_size=3), max_leaves=6)
_SPEC_FIELDS = [f.name for f in dataclasses.fields(PerturbationSpec) if f.name != "kind"]


@given(
    kind=st.one_of(st.sampled_from(ensemble.PERTURBATION_KINDS), _VALUE),
    spec_fields=st.fixed_dictionaries({}, optional=dict.fromkeys(_SPEC_FIELDS, _VALUE)),
    grid=st.one_of(st.none(), st.fixed_dictionaries(
        dict.fromkeys(("re_range", "im_range", "step"), _VALUE))),
    dist=st.one_of(st.none(), st.fixed_dictionaries(
        {"kind": st.one_of(st.sampled_from(ensemble.DISTRIBUTION_KINDS), _VALUE)},
        optional={"p": st.one_of(st.floats(0.0, 1.0), _VALUE)})),
)
@example(kind="all-ones", spec_fields={"scale": True}, grid=None, dist=None)
@settings(max_examples=300, deadline=None)
def test_constructed_config_is_rejected_or_round_trips(kind, spec_fields, grid, dist):
    """Whatever a field holds, a type raises ValidationError and nothing else,
    or the config it makes survives parse(serialize(c)) with a strict-JSON
    echo. A grid or distribution drawn as None is the default."""
    try:
        config = _config(
            perturbation=PerturbationSpec(kind, **spec_fields),
            z_grid=DEFAULT_Z_GRID if grid is None else ZGrid(**grid),
            distribution=CG if dist is None else EntryDistribution(**dist),
        )
    except ValidationError:
        return
    text = serialize_config(config)
    json.loads(text, parse_constant=_no_constant)
    assert parse_config(text) == config


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "nope.json")


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(cfg_json())
    assert load_config(path) == parse_config(cfg_json())


def test_config_validation_collects_problems():
    with pytest.raises(ValidationError) as exc:
        ExperimentConfig(
            name="", dims=(), distribution=CG,
            perturbation=PerturbationSpec("zero"),
            replicates=0, master_seed=1, output_dir="out",
        )
    msg = str(exc.value)
    assert "name" in msg
    assert "dims" in msg
    assert "replicates" in msg


def test_config_b0_too_large_for_a_float_rejected():
    with pytest.raises(ValidationError, match="reference_exponent_b0"):
        ExperimentConfig(
            name="b0", dims=(4,), distribution=CG,
            perturbation=PerturbationSpec("zero"), replicates=1, master_seed=1,
            output_dir="out", reference_exponent_b0=10**400,
        )


def test_parse_config_rejects_over_long_integer_literal():
    with pytest.raises(ValidationError, match="JSON"):
        parse_config(cfg_json().replace('"master_seed": 7', '"master_seed": ' + "9" * 5000))


@pytest.mark.parametrize("stages", [{"dleta"}, {"delta", "disc"}, set()],
                         ids=["typo", "one-typo", "empty"])
def test_run_units_rejects_unknown_stages(tmp_path, monkeypatch, stages):
    def no_units(*args):
        raise AssertionError("a unit was run")

    monkeypatch.setattr(harness, "_run_unit", no_units)
    with pytest.raises(ValidationError, match="stages") as exc:
        harness.run_units(small_config(tmp_path), stages)
    for stage in stages - set(harness.STAGES):
        assert stage in str(exc.value)


def test_run_experiment_zero_perturbation(tmp_path):
    cfg = small_config(tmp_path, perturbation=PerturbationSpec("zero"))
    report = run_experiment(cfg)
    assert report.consistency_ok
    assert report.flagged_points == 0
    rows = read_csv(tmp_path / "out" / "delta.csv")
    # 2 dims * 2 replicates * 2 grid points
    assert len(rows) == 8
    assert all(float(r["delta"]) == 0.0 for r in rows)
    assert all(float(r["ks"]) == 0.0 for r in rows)
    assert all(r["singular_flag"] == "0" for r in rows)
    # zero perturbation produces no outlier: the whole spectrum is the bulk
    assert all(math.isnan(r.top_eigen_modulus) and r.bulk_max_modulus > 0.0
               for r in report.disk_rows)
    disk = read_csv(tmp_path / "out" / "disk.csv")
    assert len(disk) == 4
    assert all(r["top_eigen_modulus"] == "nan" for r in disk)


def test_run_experiment_all_ones(tmp_path):
    cfg = small_config(tmp_path)
    report = run_experiment(cfg)
    assert report.consistency_ok
    rows = read_csv(tmp_path / "out" / "delta.csv")
    assert len(rows) == 8
    assert {r["n"] for r in rows} == {"6", "8"}
    disk = read_csv(tmp_path / "out" / "disk.csv")
    assert len(disk) == 4
    for r in disk:
        assert 0.0 <= float(r["radial_ks"]) <= 1.0
        assert 0.0 <= float(r["angular_ks"]) <= 1.0
        assert float(r["top_eigen_modulus"]) > 1.0
    # one outlier per unit, above the bulk it was taken from
    assert len(report.disk_rows) == 4
    assert all(r.top_eigen_modulus > r.bulk_max_modulus > 0.0
               for r in report.disk_rows)
    scaling = read_csv(tmp_path / "out" / "scaling.csv")
    assert [r["n"] for r in scaling] == ["6", "8"]
    report_obj = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report_obj["consistency"]["flagged_points"] == 0
    assert report_obj["config"]["name"] == "small"


@pytest.mark.parametrize("kind, outliers", [("all-ones", 1), ("zero", 0)])
def test_disk_csv_bulk_max_modulus_is_the_units_largest_bulk_modulus(
    tmp_path, kind, outliers
):
    """The column is the largest modulus of B's eigenvalues once the
    outlier, if any, is set aside, computed here from the unit's own pair."""
    cfg = small_config(tmp_path, perturbation=PerturbationSpec(kind))
    run_experiment(cfg)
    disk = read_csv(tmp_path / "out" / "disk.csv")
    assert len(disk) == 4
    for row in disk:
        n, replicate = int(row["n"]), int(row["replicate"])
        perturbation = ensemble.build_perturbation(cfg.perturbation, n)
        pair = harness.build_pair(cfg, perturbation, replicate)
        bulk = spectral.eigenvalues(pair.b_matrix)[outliers:]
        assert row["bulk_max_modulus"] == repr(float(np.max(np.abs(bulk))))


def test_disk_of_an_empty_bulk_is_nan():
    """n = 1 with rank 1: the one eigenvalue is the outlier, so no bulk is
    left and its distances and largest modulus are NaN."""
    record = harness._disk(np.array([[2.0 + 0j]]), 1, 1, 0)
    assert record.top_eigen_modulus == 2.0
    assert all(math.isnan(v) for v in (record.radial_ks, record.angular_ks,
                                       record.bulk_max_modulus))


def test_disk_of_an_exact_zero_bulk_atom_has_no_angle():
    """B = diag(3, 0) with rank 1: the bulk is the atom 0, whose argument is
    undefined, so the angular distance is NaN; all its mass sits at radius 0,
    so the radial distance is 1."""
    record = harness._disk(np.diag([3.0, 0.0]).astype(complex), 1, 2, 0)
    assert (record.top_eigen_modulus, record.bulk_max_modulus, record.radial_ks) == \
        (3.0, 0.0, 1.0)
    assert math.isnan(record.angular_ks)


def test_build_pair_holds_two_dense_matrices(tmp_path, traced_peak):
    """build_pair allocates X, which becomes A, and B: two n-by-n complex
    arrays, not three. A first draw imports modules lazily, so one unit
    runs before the measured one."""
    n = 200
    cfg = small_config(tmp_path, dims=(n,))
    perturbation = ensemble.build_perturbation(cfg.perturbation, n)
    harness.build_pair(cfg, perturbation, 1)
    assert traced_peak(harness.build_pair, cfg, perturbation, 0) < 2.25 * n * n * 16


def test_run_unit_holds_one_dense_matrix_at_each_lapack_call(tmp_path, monkeypatch,
                                                             lapack_calls, lane_nbytes):
    """At each SVD, LU and eigensolve of a unit tracemalloc sees at most
    1.25 n-by-n complex128 arrays beside the lanes' working copies and
    LAPACK workspace: the one matrix factored, A or B, and the per-shift
    results (numpy's route does not trace its own copy; the eigensolve's
    copy is a lane's buffer). A unit holding A beside B would show 2 more.
    A first unit imports modules lazily, so one runs before the measured
    one."""
    n = 200
    cfg = small_config(tmp_path, dims=(n,), z_grid=ZGrid((0.0, 0.5), (0.0, 0.5), 0.5))
    perturbation = ensemble.build_perturbation(cfg.perturbation, n)
    lanes = spectral._lanes(len(cfg.z_grid))
    harness._run_unit(cfg, perturbation, 1, harness.STAGES, lanes)
    per_lane = sum(lane_nbytes(n))
    current = []
    blas = spectral._blas

    def recording(fn, *args, **kwargs):
        if fn.__module__.startswith("numpy"):
            current.append(tracemalloc.get_traced_memory()[0] - start)
        return blas(fn, *args, **kwargs)

    monkeypatch.setattr(spectral, "_blas", recording)
    lapack_calls(lambda name, a: current.append(tracemalloc.get_traced_memory()[0] - start))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        harness._run_unit(cfg, perturbation, 0, harness.STAGES, lanes)
    finally:
        tracemalloc.stop()
    assert len(current) == 4 * len(cfg.z_grid) + 1
    assert max(current) <= 1.25 * 16 * n * n + lanes * per_lane


def test_an_overlapped_unit_holds_b_and_one_lane_at_each_lapack_call(tmp_path,
                                                                    monkeypatch,
                                                                    lapack_calls,
                                                                    lane_nbytes):
    """A one-shift unit with a lane share of 2 takes B's eigensolve on a
    helper thread, in place on B, beside the SVDs and LUs on the calling
    thread. At each of its 5 LAPACK calls tracemalloc sees at most 1.25
    n-by-n complex128 arrays beside the lane's buffer, the SVD's and the
    eigensolve's workspaces: B, and the scans' blocks and the rows of the
    draws of A, which are written straight into the lane's buffer. A unit
    holding A beside B would show 1 more."""
    if spectral._lapack() is None:
        pytest.skip("numpy's OpenBLAS LAPACK symbols are not available")
    n = 200
    cfg = small_config(tmp_path, dims=(n,), z_grid=ZGrid((0.5, 0.5), (0.5, 0.5), 1.0))
    perturbation = ensemble.build_perturbation(cfg.perturbation, n)
    harness._run_unit(cfg, perturbation, 1, harness.STAGES, 2)
    lane = spectral._Lane(n, spectral._lapack())
    beside = sum(lane_nbytes(n)) + lane.eig_workspace_nbytes()
    calls = []
    lapack_calls(lambda name, a: calls.append(
        (name, threading.get_ident(), tracemalloc.get_traced_memory()[0] - start)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        harness._run_unit(cfg, perturbation, 0, harness.STAGES, 2)
    finally:
        tracemalloc.stop()
    assert sorted(name for name, _, _ in calls) == ["eigvals", "slogdet", "slogdet",
                                                    "svd", "svd"]
    main = threading.get_ident()
    assert {ident == main for name, ident, _ in calls if name == "eigvals"} == {False}
    assert {ident == main for name, ident, _ in calls if name != "eigvals"} == {True}
    assert max(held for _, _, held in calls) <= 1.25 * 16 * n * n + beside


def _unit_configs(tmp_path, rank3_csv):
    """One config per perturbation kind at dim 40, and all-ones at 400."""
    n = 40
    rng = np.random.default_rng(23)
    left, right = rng.standard_normal((2, 2, n)) + 1j * rng.standard_normal((2, 2, n))
    grid = ZGrid((-0.5, 0.5), (0.0, 0.5), 0.5)
    specs = {
        "zero": PerturbationSpec("zero"),
        "all-ones": PerturbationSpec("all-ones"),
        "low-rank": PerturbationSpec("low-rank", left_factors=left, right_factors=right),
        "file": PerturbationSpec("file", path=rank3_csv(n)),
    }
    configs = [small_config(tmp_path, dims=(n,), perturbation=spec, z_grid=grid)
               for spec in specs.values()]
    configs.append(small_config(tmp_path, dims=(400,), replicates=1,
                                z_grid=ZGrid((0.5, 0.5), (0.5, 0.5), 1.0)))
    return configs


def _one_shift_configs(tmp_path, rank3_csv):
    """One config per perturbation kind at one shift, at dims 1 and 400,
    each with its own file M."""
    rng = np.random.default_rng(29)
    configs = []
    for n in (1, 400):
        k = min(n, 2)
        left, right = rng.standard_normal((2, k, n)) + 1j * rng.standard_normal((2, k, n))
        path = rank3_csv(n).rename(tmp_path / f"rank3-{n}.csv")
        for spec in (PerturbationSpec("zero"), PerturbationSpec("all-ones"),
                     PerturbationSpec("low-rank", left_factors=left, right_factors=right),
                     PerturbationSpec("file", path=path)):
            configs.append(small_config(tmp_path, dims=(n,), perturbation=spec,
                                        replicates=1,
                                        z_grid=ZGrid((0.5, 0.5), (0.5, 0.5), 1.0)))
    return configs


@pytest.mark.parametrize("stages", [{"delta"}, {"disk"}, {"delta", "disk"}],
                         ids=["delta", "disk", "both"])
def test_run_unit_bytes_are_those_of_the_pair_entry_points(tmp_path, rank3_csv,
                                                           stages):
    """A unit's rows and disc record, from one matrix at a time and a second
    draw of X, are bitwise delta_scan and disk_record of build_pair's pair:
    at lane shares 1 and 2, so a one-shift unit computing both stages takes
    both schedules, the serial one and B's eigensolve beside the shifts."""
    configs = _one_shift_configs(tmp_path, rank3_csv)  # renames each rank3.csv it writes
    configs += _unit_configs(tmp_path, rank3_csv)
    for cfg in configs:
        n = cfg.dims[0]
        perturbation = ensemble.build_perturbation(cfg.perturbation, n)
        for replicate in range(cfg.replicates):
            pair = harness.build_pair(cfg, perturbation, replicate)
            rows = diagnostics.delta_scan(pair, cfg.z_grid) if "delta" in stages else []
            disk = harness.disk_record(pair, n, replicate) if "disk" in stages else None
            for share in (1, 2):
                unit = harness._run_unit(cfg, perturbation, replicate, stages, share)
                assert [repr(d) for d in unit.diagnostics] == [repr(d) for d in rows]
                assert repr(unit.disk) == repr(disk)


def test_run_unit_draws_x_twice_for_delta_and_once_for_disk(tmp_path, sample_calls):
    """A disk-only unit never forms A, so it draws X once; with delta it
    draws X again, from the same seed, for A's pass."""
    cfg = small_config(tmp_path, dims=(6,), replicates=1)
    perturbation = ensemble.build_perturbation(cfg.perturbation, 6)
    harness._run_unit(cfg, perturbation, 0, {"disk"})
    assert len(sample_calls) == 1
    harness._run_unit(cfg, perturbation, 0, harness.STAGES, 1)
    assert len(sample_calls) == 3 and sample_calls[1] == sample_calls[2]


def test_an_overlapped_unit_draws_x_once_for_b_and_twice_into_a_lane(
    tmp_path, monkeypatch, sample_calls
):
    """With B's eigensolve beside the shifts a unit draws X once for B and
    then A - zI twice into the lane's buffer, for the SVD and for the LU,
    all from the unit's seed."""
    draws = []
    draw = ensemble._draw

    def recording(dist, seed, out):
        draws.append(seed)
        return draw(dist, seed, out)

    monkeypatch.setattr(ensemble, "_draw", recording)
    cfg = small_config(tmp_path, dims=(6,), replicates=1,
                       z_grid=ZGrid((0.5, 0.5), (0.5, 0.5), 1.0))
    perturbation = ensemble.build_perturbation(cfg.perturbation, 6)
    harness._run_unit(cfg, perturbation, 0, harness.STAGES, 2)
    assert len(sample_calls) == 1
    assert draws == [sample_calls[0][2]] * 3


@pytest.mark.parametrize("routine, message", [
    ("zgeev", "Eigenvalues did not converge"), ("zgesdd", "SVD did not converge")])
def test_an_overlapped_unit_raises_a_lapack_failure_and_joins_its_helper(
    tmp_path, monkeypatch, routine, message
):
    """A LAPACK call reporting info != 0 raises LinAlgError in either
    schedule, as the serial one does: zgeev's on the helper thread, an
    SVD's on the calling one. The helper is joined either way, so the
    thread count is back at its start."""
    real = spectral._lapack()
    if real is None:
        pytest.skip("numpy's OpenBLAS LAPACK symbols are not available")
    info = {"zgeev": 13, "zgesdd": 14}[routine]
    lwork = {"zgeev": 11, "zgesdd": 11}[routine]

    def failing(*args):
        getattr(real, routine)(*args)
        if args[lwork].value != -1:
            args[info].value = 1

    handle = real._replace(**{routine: failing})
    monkeypatch.setattr(spectral, "_lapack", lambda: handle)
    cfg = small_config(tmp_path, dims=(40,), replicates=1,
                       z_grid=ZGrid((0.5, 0.5), (0.5, 0.5), 1.0))
    perturbation = ensemble.build_perturbation(cfg.perturbation, 40)
    threads = threading.active_count()
    for share in (1, 2):
        with pytest.raises(np.linalg.LinAlgError, match=message):
            harness._run_unit(cfg, perturbation, 0, harness.STAGES, share)
        assert threading.active_count() == threads


def low_rank_config(tmp_path, n=8):
    rng = np.random.default_rng(21)
    left, right = rng.standard_normal((2, 2, n)) + 1j * rng.standard_normal((2, 2, n))
    return small_config(
        tmp_path, dims=(n,),
        perturbation=PerturbationSpec("low-rank", left_factors=left,
                                      right_factors=right),
    )


def test_run_experiment_low_rank_end_to_end(tmp_path):
    cfg = low_rank_config(tmp_path)
    report = run_experiment(cfg, workers=1)
    assert report.consistency_ok
    assert len(report.disk_rows) == 2
    assert all(r.top_eigen_modulus >= r.bulk_max_modulus > 0.0
               for r in report.disk_rows)
    names = ["delta.csv", "disk.csv", "scaling.csv", "report.json"]
    serial = {n: (tmp_path / "out" / n).read_bytes() for n in names}
    rows = read_csv(tmp_path / "out" / "delta.csv")
    # 1 dim * 2 replicates * 2 grid points
    assert len(rows) == 4
    assert all(float(r["rank_bound"]) == 2 / 8 for r in rows)
    run_experiment(cfg, workers=2)
    parallel = {n: (tmp_path / "out" / n).read_bytes() for n in names}
    assert serial == parallel


def file_config(tmp_path):
    """dims (6, 8) with a rank-3 M read from a file of 6-by-6 entries."""
    rng = np.random.default_rng(22)
    u, v = rng.standard_normal((2, 6, 3)) + 1j * rng.standard_normal((2, 6, 3))
    path = tmp_path / "m.csv"
    ensemble.write_matrix_csv(path, u @ v.conj().T)
    return small_config(tmp_path, perturbation=PerturbationSpec("file", path=path))


CONFIGS = {"all-ones": small_config, "low-rank": low_rank_config, "file": file_config}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_run_experiment_takes_no_svd_of_m(tmp_path, monkeypatch, lapack_calls, kind):
    """The n-by-n SVDs are of A - zI and B - zI at each z, for every kind,
    and of a file M once per dim. Every M adds one SVD of its k-by-k core
    per dim: k is 1 for all-ones, 2 for this low-rank M and 3 for this file.
    Shifted SVDs are counted on numpy's route or on the lane route."""
    cfg = CONFIGS[kind](tmp_path)
    shapes = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    lapack_calls(lambda name, a: shapes.append(a.shape) if name == "svd" else None)
    run_experiment(cfg)
    units = len(cfg.dims) * cfg.replicates
    per_unit = 2 * len(cfg.z_grid)
    per_dim = kind == "file"
    square = [s for s in shapes if s[0] == s[1] and s[0] in cfg.dims]
    assert len(square) == units * per_unit + len(cfg.dims) * per_dim
    k = {"all-ones": 1, "low-rank": 2, "file": 3}[kind]
    core = [(k, k)] * len(cfg.dims)
    assert [s for s in shapes if s not in square] == core


def test_run_experiment_scaling_zero_perturbation(tmp_path):
    cfg = small_config(
        tmp_path, dims=(8, 12, 16), perturbation=PerturbationSpec("zero"),
        z_grid=ZGrid((0.5, 0.5), (0.0, 0.0), 1.0), master_seed=21,
    )
    rep = run_experiment(cfg).scaling
    assert rep.dims == (8, 12, 16)
    assert rep.eps_hat == 0.0
    assert rep.smin_violation_fraction == 0.0
    assert all(s.median_abs_delta == 0.0 for s in rep.per_dim)
    assert all(s.median_ks == 0.0 for s in rep.per_dim)


def test_run_experiment_scaling_rank_one_ks_is_reciprocal_dim(tmp_path):
    """With a rank-one perturbation the ECDF distance tracks 1/n exactly."""
    cfg = small_config(
        tmp_path, dims=(10, 20, 40), z_grid=ZGrid((0.5, 0.5), (0.0, 0.0), 1.0),
        replicates=3, master_seed=9,
    )
    rep = run_experiment(cfg).scaling
    for stats in rep.per_dim:
        assert abs(stats.median_ks - 1.0 / stats.dim) <= 1e-12
    assert rep.eps_hat > 0.9


def test_run_experiment_is_byte_deterministic(tmp_path):
    cfg = small_config(tmp_path)
    run_experiment(cfg)
    names = ["delta.csv", "disk.csv", "scaling.csv", "report.json"]
    first = {n: (tmp_path / "out" / n).read_bytes() for n in names}
    run_experiment(cfg)
    second = {n: (tmp_path / "out" / n).read_bytes() for n in names}
    assert first == second


def test_run_experiment_workers_match_serial(tmp_path):
    cfg = small_config(tmp_path)
    run_experiment(cfg, workers=1)
    names = ["delta.csv", "disk.csv", "scaling.csv", "report.json"]
    serial = {n: (tmp_path / "out" / n).read_bytes() for n in names}
    run_experiment(cfg, workers=3)
    parallel = {n: (tmp_path / "out" / n).read_bytes() for n in names}
    assert serial == parallel


def test_reports_equal_at_one_and_two_workers_and_threads_at_every_dim(
    tmp_path, monkeypatch, at_ambient_threads
):
    """dims (8, 401), 2 replicates, one shift: the report files are the same
    bytes at workers 1 and 2 and at ambient thread counts 1 and 2. Every
    unit runs in this process, as a recorder around _run_unit sees: at
    workers=1 all on the calling thread, with a share of 2 at two ambient
    threads (so B's eigensolve runs beside the shift, at 401 too), and at
    workers=2 two at a time with a share of 1 each, the two units at 401
    together (a barrier that both must reach)."""
    cfg = small_config(tmp_path, dims=(8, 401),
                       z_grid=ZGrid((0.5, 0.5), (0.5, 0.5), 1.0))
    run_unit = harness._run_unit
    seen = []
    together = [None]

    def recording(config, perturbation, replicate, stages, share):
        seen.append((perturbation.dim, threading.get_ident(), share))
        if perturbation.dim == 401 and together[0] is not None:
            together[0].wait()
        return run_unit(config, perturbation, replicate, stages, share)

    monkeypatch.setattr(harness, "_run_unit", recording)

    def reports(workers):
        seen.clear()
        together[0] = threading.Barrier(2, timeout=60) if workers == 2 else None
        run_experiment(cfg, workers=workers)
        assert sorted(n for n, _, _ in seen) == [8, 8, 401, 401]
        return [(tmp_path / "out" / name).read_bytes()
                for name in ("delta.csv", "disk.csv", "scaling.csv", "report.json")]

    one = at_ambient_threads(1, lambda: reports(1))
    assert {(ident, share) for _, ident, share in seen} == {(threading.get_ident(), 1)}
    assert at_ambient_threads(2, lambda: reports(1)) == one
    assert {share for _, _, share in seen} == {2}
    assert at_ambient_threads(2, lambda: reports(2)) == one
    assert {share for _, _, share in seen} == {1}
    assert len({ident for n, ident, _ in seen if n == 401}) == 2


def test_a_lone_unit_at_two_workers_takes_both_threads(tmp_path, monkeypatch,
                                                      at_ambient_threads):
    """One unit, one shift, at two ambient threads: workers=2 runs it with
    a share of 2, not 2 // 2, since there is no second unit to share with,
    so B's eigensolve runs beside the shift; the bytes are workers=1's."""
    cfg = small_config(tmp_path, dims=(8,), replicates=1,
                       z_grid=ZGrid((0.5, 0.5), (0.5, 0.5), 1.0))
    run_unit = harness._run_unit
    shares = []

    def recording(config, perturbation, replicate, stages, share):
        shares.append(share)
        return run_unit(config, perturbation, replicate, stages, share)

    monkeypatch.setattr(harness, "_run_unit", recording)

    def reports(workers):
        run_experiment(cfg, workers=workers)
        return [(tmp_path / "out" / name).read_bytes()
                for name in ("delta.csv", "disk.csv", "scaling.csv", "report.json")]

    one = at_ambient_threads(2, lambda: reports(1))
    assert at_ambient_threads(2, lambda: reports(2)) == one
    assert shares == [2, 2]
    assert harness._in_flight(cfg, 2) == harness._in_flight(cfg, 1)


def test_two_workers_give_each_unit_its_share_of_the_ambient_threads(tmp_path,
                                                                     monkeypatch):
    """With OpenBLAS faked to an ambient count of 4, workers=2 gives each
    unit's shifts 2 lanes, as each of two forked workers had: the share is
    the ambient count's also while another unit's pin holds the count at 1.
    The ambient count comes back after the run."""
    if spectral._lapack() is None:
        pytest.skip("numpy's OpenBLAS LAPACK symbols are not available")
    threads = [4]
    monkeypatch.setattr(spectral, "_openblas", lambda: (
        lambda: threads[0], lambda count: threads.__setitem__(0, count)))
    lanes = []
    shifted = spectral.shifted

    def recording(m, z, count=None):
        lanes.append(count)
        return shifted(m, z, count)

    monkeypatch.setattr(spectral, "shifted", recording)
    cfg = small_config(tmp_path, z_grid=ZGrid((0.0, 1.0), (0.0, 0.0), 0.5))
    harness.run_units(cfg, {"delta"}, 2)
    assert lanes == [2] * 8 and threads == [4]
    lanes.clear()
    harness.run_units(cfg, {"delta"}, 1)
    assert lanes == [3] * 8


def test_run_units_raise_the_first_failing_units_error_at_any_worker_count(
    tmp_path, monkeypatch
):
    """Of three failing units the first in dims-then-replicates order has
    its error raised, at any worker count, as a serial loop raises it."""
    cfg = small_config(tmp_path, replicates=3)
    run_unit = harness._run_unit

    def failing(config, perturbation, replicate, *args):
        if (perturbation.dim, replicate) in {(6, 2), (8, 0), (8, 2)}:
            raise RuntimeError(f"unit {perturbation.dim}/{replicate}")
        return run_unit(config, perturbation, replicate, *args)

    monkeypatch.setattr(harness, "_run_unit", failing)
    for workers in (1, 2, 3, 6):
        with pytest.raises(RuntimeError, match="unit 6/2$"):
            harness.run_units(cfg, harness.STAGES, workers)


def test_run_experiment_report_excludes_timings(tmp_path):
    cfg = small_config(tmp_path)
    report = run_experiment(cfg)
    assert report.timings  # measured in memory
    obj = json.loads((tmp_path / "out" / "report.json").read_text())
    text = (tmp_path / "out" / "report.json").read_text()
    assert "timings" not in obj
    assert "seconds" not in text


def test_run_experiment_output_dir_not_creatable(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    cfg = small_config(tmp_path, output_dir=str(blocker / "out"))
    with pytest.raises(OSError):
        run_experiment(cfg)


def test_run_experiment_single_dim_has_nan_exponents(tmp_path):
    cfg = small_config(tmp_path, dims=(6,))
    report = run_experiment(cfg)
    assert math.isnan(report.scaling.a_hat)
    obj = json.loads((tmp_path / "out" / "report.json").read_text())
    assert obj["scaling"]["a_hat"] is None


def test_report_json_serializes_complex_and_nonfinite(tmp_path):
    """The low-rank factors echo as [re, im] pairs; the disc records hold
    the outlier and bulk moduli, and report.json has no constant_case."""
    cfg = low_rank_config(tmp_path)
    run_experiment(cfg)
    obj = json.loads((tmp_path / "out" / "report.json").read_text())
    factor = obj["config"]["perturbation"]["left_factors"][0][0]
    assert isinstance(factor, list) and len(factor) == 2
    assert "constant_case" not in obj
    assert all(r["top_eigen_modulus"] >= r["bulk_max_modulus"] for r in obj["disk"])
    cons = obj["consistency"]
    assert cons["delta_rows"] == 4
    assert cons["cross_check_ok"] is True
    assert isinstance(cons["max_cross_check_gap"], float)


def test_write_report_files_returns_paths(tmp_path):
    cfg = small_config(tmp_path, dims=(6,))
    report = run_experiment(cfg)
    out = write_report_files(report, tmp_path / "elsewhere")
    assert sorted(p.name for p in out.values()) == [
        "delta.csv", "disk.csv", "report.json", "scaling.csv",
    ]
    assert all(p.exists() for p in out.values())


# ---- CLI ----


# An integer literal too large for a float.
HUGE = 10**400


def write_config(tmp_path, **overrides):
    overrides.setdefault("dims", [6, 8])
    overrides.setdefault("output_dir", str(tmp_path / "out"))
    overrides.setdefault(
        "z_grid", {"re_range": [0.0, 0.5], "im_range": [0.0, 0.0], "step": 0.5})
    path = tmp_path / "config.json"
    path.write_text(cfg_json(**overrides))
    return path


def test_cli_run(tmp_path, capsys):
    path = write_config(tmp_path, replicates=1)
    code = cli.main(["run", "--config", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "out" / "report.json").exists()
    assert "rows" in out


def test_cli_run_dist_overrides_the_config_distribution(tmp_path, capsys):
    """--dist replaces the config's law, and report.json echoes the new one."""
    path = write_config(tmp_path, replicates=1)
    assert cli.main(["run", "--config", str(path), "--dist", "rademacher"]) == 0
    obj = json.loads((tmp_path / "out" / "report.json").read_text())
    assert obj["config"]["distribution"] == "rademacher"


def test_cli_run_zero_scale_all_ones_has_no_constant_case(tmp_path, capsys):
    """scale 0 gives M rank 0: no outlier, so the whole spectrum is the
    bulk; report.json has no constant_case section for any config."""
    path = write_config(tmp_path, dims=[50], replicates=1,
                        perturbation={"kind": "all-ones", "scale": 0.0})
    assert cli.main(["run", "--config", str(path)]) == 0
    obj = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "constant_case" not in obj
    assert obj["disk"][0]["top_eigen_modulus"] is None
    assert 0.5 < obj["disk"][0]["bulk_max_modulus"] < 2.0


@pytest.fixture
def blas_threads_two():
    """OpenBLAS's thread-count getter, with the ambient count set to 2 for
    the test and restored after it."""
    openblas = spectral._openblas()
    if openblas is None:
        pytest.skip("numpy's OpenBLAS thread-count symbols are not available")
    get_threads, set_threads = openblas
    ambient = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(ambient)


def eigvals_thread_counts(monkeypatch, lapack_calls, get_threads):
    """The BLAS thread count at each eigensolve: each np.linalg.eigvals call
    on numpy's route, each zgeev call on the lane route."""
    counts = []
    eigvals = np.linalg.eigvals

    def recording(a):
        counts.append(get_threads())
        return eigvals(a)

    def on_lane(name, a):
        if name == "eigvals":
            counts.append(get_threads())

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    lapack_calls(on_lane)
    return counts


def test_run_units_pin_one_blas_thread_and_restore_ambient(
    tmp_path, monkeypatch, lapack_calls, blas_threads_two
):
    counts = eigvals_thread_counts(monkeypatch, lapack_calls, blas_threads_two)
    harness.run_units(small_config(tmp_path), harness.STAGES)
    assert counts == [1, 1, 1, 1]
    assert blas_threads_two() == 2


def test_lapack_call_restores_ambient_blas_threads_when_it_raises(
    monkeypatch, blas_threads_two
):
    counts = []

    def failing(a, **kwargs):
        counts.append(blas_threads_two())
        raise RuntimeError("svd failed")

    monkeypatch.setattr(np.linalg, "svd", failing)
    with pytest.raises(RuntimeError, match="svd failed"):
        spectral.singular_values(np.eye(3))
    assert counts == [1]
    assert blas_threads_two() == 2


def test_run_units_pin_one_blas_thread_at_every_dim(
    tmp_path, monkeypatch, lapack_calls, blas_threads_two
):
    """A unit above 400, where a second thread shortens a call, pins each
    call as a small one does."""
    counts = eigvals_thread_counts(monkeypatch, lapack_calls, blas_threads_two)
    harness.run_units(small_config(tmp_path, dims=(8, 401)), {"disk"})
    assert counts == [1, 1, 1, 1]
    assert blas_threads_two() == 2


def test_file_config_reports_equal_at_one_and_two_ambient_threads(
    tmp_path, rank3_csv, at_ambient_threads
):
    """A file M's own SVD and QRs run on one thread too, so its
    factors, and with them B, do not depend on the ambient count."""
    n = 200
    cfg = small_config(tmp_path, dims=(n,), replicates=1,
                       perturbation=PerturbationSpec("file", path=rank3_csv(n)),
                       z_grid=ZGrid((0.5, 0.5), (0.5, 0.5), 0.5))

    def reports():
        run_experiment(cfg)
        return [(tmp_path / "out" / name).read_bytes()
                for name in ("delta.csv", "disk.csv", "scaling.csv")]

    assert at_ambient_threads(1, reports) == at_ambient_threads(2, reports)


def test_low_rank_reports_equal_at_one_and_two_ambient_threads(
    tmp_path, monkeypatch, at_ambient_threads
):
    """One lane at one ambient thread, two lanes at two, two workers of one
    lane each at two, and numpy's route: the same report bytes."""
    cfg = dataclasses.replace(low_rank_config(tmp_path, n=120),
                              z_grid=ZGrid((-1.0, 1.0), (0.0, 0.5), 1.0))

    def reports(workers=1):
        run_experiment(cfg, workers=workers)
        return [(tmp_path / "out" / name).read_bytes()
                for name in ("delta.csv", "disk.csv", "scaling.csv", "report.json")]

    one = at_ambient_threads(1, reports)
    assert at_ambient_threads(2, reports) == one
    assert at_ambient_threads(2, lambda: reports(workers=2)) == one
    monkeypatch.setattr(spectral, "_lapack", lambda: None)
    assert reports() == one


def test_cli_spectrum_out_equal_at_one_and_two_ambient_threads(
    tmp_path, at_ambient_threads
):
    out = tmp_path / "eigenvalues.csv"

    def written():
        assert cli.main(["spectrum", "--n", "200", "--seed", "2", "--out", str(out)]) == 0
        return out.read_bytes()

    assert at_ambient_threads(1, written) == at_ambient_threads(2, written)


def test_cli_run_prints_blas_threads_outside_reports(tmp_path, capsys,
                                                     blas_threads_two):
    path = write_config(tmp_path, replicates=1)
    assert cli.main(["run", "--config", str(path), "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert ("BLAS: 2 ambient threads, 1 per call; a unit's grid shifts on up to "
            "2 lanes\n") in out
    for name in ("delta.csv", "disk.csv", "scaling.csv", "report.json"):
        assert "BLAS" not in (tmp_path / "out" / name).read_text()


def test_cli_run_without_openblas_symbols_does_not_pin(
    tmp_path, capsys, monkeypatch, lapack_calls, blas_threads_two
):
    counts = eigvals_thread_counts(monkeypatch, lapack_calls, blas_threads_two)
    monkeypatch.setattr(spectral, "_openblas", lambda: None)
    path = write_config(tmp_path, replicates=1)
    assert cli.main(["run", "--config", str(path)]) == 0
    assert "BLAS: unknown" in capsys.readouterr().out
    assert counts == [2, 2]
    assert blas_threads_two() == 2


@pytest.mark.parametrize("kind", sorted(CONFIGS) + ["all-ones-scale-0"])
def test_lapack_work_counts_the_units_lapack_calls(tmp_path, monkeypatch, lapack_calls,
                                                  kind):
    """lapack_work is the n^3 summed over the units' n-by-n SVDs, LUs and
    eigensolves, on numpy's route or on the lane route, the same for every
    kind; a file M's own SVD per dim comes on top."""
    if kind == "all-ones-scale-0":
        cfg = small_config(tmp_path,
                           perturbation=PerturbationSpec("all-ones", scale=0.0))
    else:
        cfg = CONFIGS[kind](tmp_path)
    work = []
    for name in ("svd", "eigvals", "slogdet"):
        fn = getattr(np.linalg, name)

        def counting(a, *args, fn=fn, **kwargs):
            if np.ndim(a) == 2 and np.shape(a)[0] == np.shape(a)[1] in cfg.dims:
                work.append(np.shape(a)[0] ** 3)
            return fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    lapack_calls(lambda name, a: work.append(a.shape[0] ** 3))
    harness.run_units(cfg, harness.STAGES)
    m_svd = sum(n**3 for n in cfg.dims) if kind == "file" else 0
    assert sum(work) == harness.lapack_work(cfg) + m_svd
    zero = dataclasses.replace(cfg, perturbation=PerturbationSpec("zero"))
    assert harness.lapack_work(cfg) == harness.lapack_work(zero)


def test_cli_run_prints_preflight_before_units_outside_reports(
    tmp_path, capsys, monkeypatch
):
    """dims (6, 8), 1 replicate, 2 grid points, all-ones: per unit 4 * 2
    LAPACK calls on the grid and 1 eigensolve, 9 * (6^3 + 8^3) in all. A
    unit holds one 8-by-8 complex128 matrix and a working copy per lane,
    1024 bytes each: 2 * 1024 on one lane, 3 * 1024 on two, where B's
    eigensolve runs beside the shifts with more than two threads to share;
    one unit is in flight at a time."""
    path = write_config(tmp_path, replicates=1)
    printed = []
    sample_matrix = ensemble.sample_matrix

    def recording(*args):
        printed.append(capsys.readouterr().out)
        return sample_matrix(*args)

    monkeypatch.setattr(ensemble, "sample_matrix", recording)
    assert cli.main(["run", "--config", str(path), "--workers", "1"]) == 0
    held = {1: "0.00195 MiB dense (A or B, never both, and LAPACK's working copy "
               "on each of 1 lane); at most 0.00195 MiB in 1 unit in flight",
            2: "0.00293 MiB dense (A or B, never both, and LAPACK's working copy "
               "on each of 2 lanes); at most 0.00293 MiB in 1 unit in flight",
            3: "0.00293 MiB dense (B, which its eigensolve factors in place on a "
               "spare lane, and LAPACK's working copy on each of 2 lanes, into "
               "which A - zI is drawn); at most 0.00293 MiB in 1 unit in flight"
            }[min(spectral._lane_share(), 3)]
    line = f"preflight: 2 units, LAPACK work 6552 n^3; one unit at n=8 holds {held}\n"
    assert printed[0] == line
    assert line not in capsys.readouterr().out
    for name in ("delta.csv", "disk.csv", "scaling.csv", "report.json"):
        assert "LAPACK work" not in (tmp_path / "out" / name).read_text()


@pytest.mark.parametrize("cores", [1, 4])
def test_cli_workers_default_to_the_available_cores(tmp_path, capsys, monkeypatch,
                                                   at_ambient_threads, cores):
    """Without --workers, run, delta-scan and circular-law take the cores
    this process may run on, at most their units. Of dims (6, 8), one
    replicate, at two ambient threads: one core runs the two units one at a
    time on the calling thread, as --workers 1 does, on 2 lanes each; four
    cores run both at once (a barrier both must reach), on 1 lane each. run's
    preflight line counts the units in flight, and every file has the bytes
    of --workers 1."""
    path = write_config(tmp_path, replicates=1)
    commands = {"run": "report.json", "delta-scan": "delta.csv",
                "circular-law": "disk.csv"}

    def written(*flags):
        files = []
        for command, name in commands.items():
            out = tmp_path / command
            assert cli.main([command, "--config", str(path), "--out", str(out),
                             *flags]) == 0
            files.append((out / name).read_bytes())
        return files, capsys.readouterr().out

    serial, _ = at_ambient_threads(2, lambda: written("--workers", "1"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    run_unit = harness._run_unit
    on_caller = []
    together = threading.Barrier(2, timeout=60)

    def recording(config, perturbation, replicate, stages, share):
        on_caller.append(threading.current_thread() is threading.main_thread())
        if cores > 1:
            together.wait()
        return run_unit(config, perturbation, replicate, stages, share)

    monkeypatch.setattr(harness, "_run_unit", recording)
    files, out = at_ambient_threads(2, written)
    assert files == serial
    assert len(on_caller) == 2 * len(commands)
    if cores == 1:
        assert all(on_caller)
        assert "2 lanes); at most 0.00293 MiB in 1 unit in flight\n" in out
    else:
        assert on_caller.count(True) == len(commands)
        assert "1 lane); at most 0.00391 MiB in 2 units in flight\n" in out


def test_cli_run_missing_config(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert code == 1
    assert "absent.json" in err


def test_cli_run_invalid_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code = cli.main(["run", "--config", str(path)])
    assert code == 1


def test_cli_run_rejects_non_finite_scale(tmp_path, capsys):
    path = write_config(
        tmp_path, perturbation={"kind": "all-ones", "scale": float("nan")})
    code = cli.main(["run", "--config", str(path)])
    assert code == 1
    assert "scale must be finite" in capsys.readouterr().err


def test_cli_run_rejects_non_finite_factor(tmp_path, capsys):
    pert = {
        "kind": "low-rank",
        "left_factors": [[1.0, [0.0, float("inf")], 0.0]],
        "right_factors": [[0.0, 1.0, 0.0]],
    }
    path = write_config(tmp_path, dims=[3], perturbation=pert)
    code = cli.main(["run", "--config", str(path)])
    assert code == 1
    assert "factor entries must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("slack, check", [
    ("CROSS_CHECK_ATOL", "cross-check: delta="),
    ("RANK_SLACK", "rank inequality: ks="),
    ("CHAIN_SLACK", "chain bound: |delta|="),
])
def test_cli_run_consistency_failure_names_first_row(
    tmp_path, capsys, monkeypatch, slack, check
):
    """A slack of -1 fails its check on every row; run and delta-scan both
    exit 2 and name the first row and its check on stderr."""
    module = spectral if slack == "CROSS_CHECK_ATOL" else diagnostics
    monkeypatch.setattr(module, slack, -1.0)
    path = write_config(tmp_path, replicates=1)
    for command in ("run", "delta-scan"):
        code = cli.main([command, "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 2, command
        assert "CONSISTENCY FAILURE on 4 of 4 delta rows" in captured.err
        assert "first at n=6 replicate=0 z=0j: " + check in captured.err
        assert "CONSISTENCY" not in captured.out


def test_cli_a_check_added_to_the_table_gates_everything(tmp_path, capsys, monkeypatch):
    """A fourth rule, put into diagnostics.ROW_CHECKS only, is in
    failed_checks, in report.json as <name>_ok, in the stderr line and in
    the exit code of run and delta-scan."""
    monkeypatch.setitem(diagnostics.ROW_CHECKS, "always_fails", diagnostics.RowRule(
        lambda d: (d.ks, d.rank_bound), lambda x, y: False,
        "always fails: ks={!r} vs rank_bound={!r}", True))
    path = write_config(tmp_path, replicates=1)
    for command in ("run", "delta-scan"):
        assert cli.main([command, "--config", str(path)]) == 2, command
        err = capsys.readouterr().err
        assert "CONSISTENCY FAILURE on 4 of 4 delta rows" in err
        assert "first at n=6 replicate=0 z=0j: always fails: ks=" in err
    report = run_experiment(harness.load_config(path))
    assert not report.consistency_ok
    for _, _, d in report.delta_rows:
        assert d.failed_checks() == [
            f"always fails: ks={d.ks!r} vs rank_bound={d.rank_bound!r}"]
        assert d.cross_check_ok and d.rank_inequality_ok and d.chain_bound_ok
    cons = json.loads((tmp_path / "out" / "report.json").read_text())["consistency"]
    assert {k: v for k, v in cons.items() if k.endswith("_ok")} == {
        "always_fails_ok": False, "chain_bound_ok": True, "cross_check_ok": True,
        "rank_inequality_ok": True}


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_cli_delta_scan_summary_is_runs_consistency(tmp_path, capsys, kind):
    """delta-scan's flagged count and max cross-check gap are report.json's
    flagged_points and max_cross_check_gap from run."""
    path = str(config_file(tmp_path, CONFIGS[kind](tmp_path)))
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert cli.main(["delta-scan", "--config", path, "--out", str(tmp_path / "d")]) == 0
    out = capsys.readouterr().out
    cons = json.loads((tmp_path / "run" / "report.json").read_text())["consistency"]
    assert (f"delta-scan: {cons['delta_rows']} rows "
            f"({cons['flagged_points']} singular-flagged)\n") in out
    assert f"  max cross-check gap = {cons['max_cross_check_gap']:.3g}\n" in out


@pytest.mark.parametrize("command", ["run", "delta-scan", "circular-law"])
@pytest.mark.parametrize("key, overrides", [
    ("scale", {"perturbation": {"kind": "all-ones", "scale": "x"}}),
    ("hs_budget_coefficient",
     {"perturbation": {"kind": "all-ones", "hs_budget_coefficient": "x"}}),
    ("rank_budget", {"perturbation": {"kind": "all-ones", "rank_budget": "x"}}),
    ("rank_budget", {"perturbation": {"kind": "all-ones", "rank_budget": 1.0}}),
    ("rank_budget", {"perturbation": {"kind": "all-ones", "rank_budget": True}}),
    ("left_factors", {"perturbation": {
        "kind": "low-rank", "left_factors": 5, "right_factors": [[1.0]]}}),
    ("step", {"z_grid": {"re_range": [0, 1], "im_range": [0, 0], "step": "x"}}),
    ("step", {"z_grid": {"re_range": [0, 1], "im_range": [0, 0],
                         "step": float("nan")}}),
    ("step", {"z_grid": {"re_range": [0, 1], "im_range": [0, 0],
                         "step": float("inf")}}),
    ("re_range", {"z_grid": {"re_range": [0, "a"], "im_range": [0, 0], "step": 1}}),
    ("hs_budget_coefficient",
     {"perturbation": {"kind": "all-ones", "hs_budget_coefficient": float("nan")}}),
    ("hs_budget_coefficient",
     {"perturbation": {"kind": "all-ones", "hs_budget_coefficient": -1.0}}),
    ("scale", {"perturbation": {"kind": "all-ones", "scale": HUGE}}),
    ("hs_budget_coefficient",
     {"perturbation": {"kind": "all-ones", "hs_budget_coefficient": HUGE}}),
    ("reference_exponent_b0", {"reference_exponent_b0": HUGE}),
    ("step", {"z_grid": {"re_range": [0, 1], "im_range": [0, 0], "step": HUGE}}),
    ("re_range", {"z_grid": {"re_range": [0, HUGE], "im_range": [0, 0], "step": 1}}),
    ("step", {"z_grid": {"re_range": [0, 1], "im_range": [0, 0], "step": 1e-300}}),
    ("re_range", {"z_grid": {"re_range": [-1e308, 1e308], "im_range": [0, 0],
                             "step": 1}}),
    ("left_factors", {"dims": [3], "perturbation": {
        "kind": "low-rank", "left_factors": [[1.0, [0.0, HUGE], 0.0]],
        "right_factors": [[1.0, 0.0, 0.0]]}}),
    ("perturbation k", {"dims": [3], "perturbation": {
        "kind": "low-rank", "k": True, "left_factors": [[1.0, 0.0, 0.0]],
        "right_factors": [[0.0, 1.0, 0.0]]}}),
    ("perturbation k", {"dims": [3], "perturbation": {
        "kind": "low-rank", "k": 1.0, "left_factors": [[1.0, 0.0, 0.0]],
        "right_factors": [[0.0, 1.0, 0.0]]}}),
    ("perturbation path must be a string",
     {"perturbation": {"kind": "file", "path": 5}}),
    ("perturbation path must be a string",
     {"perturbation": {"kind": "file", "path": True}}),
    ("perturbation path must be a string",
     {"perturbation": {"kind": "file", "path": ["m.csv"]}}),
], ids=["scale", "hs", "rank-str", "rank-float", "rank-bool", "factors", "step",
        "step-nan", "step-inf", "re-range", "hs-nan", "hs-negative", "scale-huge",
        "hs-huge", "b0-huge", "step-huge", "re-range-huge", "step-tiny", "span-inf",
        "factor-huge", "k-bool", "k-float", "path-int", "path-bool", "path-list"])
def test_cli_malformed_config_value_exits_one(tmp_path, capsys, command, key, overrides):
    path = write_config(tmp_path, **overrides)
    code = cli.main([command, "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert key in err
    assert "Traceback" not in err


def test_cli_run_hs_budget_null_is_unbounded(tmp_path, capsys):
    """null reads as inf: no HS bound, and the echo writes null again."""
    bounded = write_config(tmp_path, replicates=1, perturbation={
        "kind": "all-ones", "scale": 3.0, "hs_budget_coefficient": 1.0})
    assert cli.main(["run", "--config", str(bounded)]) == 1
    assert "exceeds c*n^2" in capsys.readouterr().err

    path = write_config(tmp_path, replicates=1, perturbation={
        "kind": "all-ones", "scale": 3.0, "hs_budget_coefficient": None})
    assert load_config(path).perturbation.hs_budget_coefficient == math.inf
    assert cli.main(["run", "--config", str(path)]) == 0
    text = (tmp_path / "out" / "report.json").read_text()
    obj = json.loads(text, parse_constant=_no_constant)
    assert obj["config"]["perturbation"]["hs_budget_coefficient"] is None


@pytest.mark.parametrize("argv", [
    ["run", "--config", "{config}"],
    ["run", "--config", "{config}", "--n", "20"],
    ["delta-scan", "--config", "{config}", "--n", "20"],
    ["constant-case", "--n", "20"],
    ["spectrum", "--n", "20"],
    ["sample", "--n", "20"],
], ids=["run-dims", "run-n", "delta-scan-n", "constant-case", "spectrum", "sample"])
def test_cli_dimension_cap_checked_before_sampling(
    tmp_path, capsys, monkeypatch, sample_calls, argv
):
    monkeypatch.setenv("CIRCLAW_MAX_N", "10")
    dims = [6, 20] if argv[-1] == "{config}" else [6, 8]
    path = write_config(tmp_path, dims=dims)
    code = cli.main([str(path) if a == "{config}" else a for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert "dimension 20 exceeds dense-solve cap 10" in err
    assert sample_calls == []


# Rank one, factors of length 6.
LOW_RANK_6 = {"kind": "low-rank", "left_factors": [[1.0] * 6],
              "right_factors": [[0.0] * 5 + [1.0]]}


@pytest.mark.parametrize("argv, overrides, message", [
    (["run"], {"perturbation": LOW_RANK_6}, "length 6, expected 8"),
    (["delta-scan", "--n", "8"], {"dims": [6], "perturbation": LOW_RANK_6},
     "length 6, expected 8"),
    (["circular-law"], {"perturbation": {"kind": "file", "path": "{m}"}},
     "index (7,7) outside 1..6"),
    (["run"], {"perturbation": {"kind": "all-ones", "scale": 3.0,
                                "hs_budget_coefficient": 1.0}}, "exceeds c*n^2"),
], ids=["two-dim-low-rank", "low-rank-n", "file-index", "hs-budget"])
def test_cli_perturbation_checked_before_sampling(
    tmp_path, capsys, sample_calls, argv, overrides, message
):
    """The perturbation is built at every dim before any unit samples."""
    m_path = tmp_path / "m.csv"
    m_path.write_text("7,7,1.0,0.0\n")
    if overrides["perturbation"].get("path") == "{m}":
        overrides = {"perturbation": {"kind": "file", "path": str(m_path)}}
    path = write_config(tmp_path, **overrides)
    code = cli.main([argv[0], "--config", str(path), *argv[1:]])
    err = capsys.readouterr().err
    assert code == 1
    assert message in err
    assert sample_calls == []


def test_cli_run_large_negative_b0_saturates_threshold(tmp_path, capsys):
    """n ** 400 overflows a float: the threshold is inf, so every row counts."""
    path = write_config(tmp_path, replicates=1, reference_exponent_b0=-400)
    assert cli.main(["run", "--config", str(path)]) == 0
    obj = json.loads((tmp_path / "out" / "report.json").read_text())
    assert obj["scaling"]["smin_violation_fraction"] == 1.0


def config_file(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(serialize_config(cfg))
    return path


@pytest.mark.parametrize("kind", ["all-ones", "low-rank"])
def test_cli_views_write_run_bytes(tmp_path, capsys, kind):
    """delta-scan's delta.csv and circular-law's disk.csv equal run's."""
    cfg = small_config(tmp_path) if kind == "all-ones" else low_rank_config(tmp_path)
    path = str(config_file(tmp_path, cfg))
    for command, out in [("run", "run"), ("delta-scan", "delta"),
                         ("circular-law", "disk")]:
        code = cli.main([command, "--config", path, "--out", str(tmp_path / out)])
        assert code == 0
    for out, name in [("delta", "delta.csv"), ("disk", "disk.csv")]:
        assert (tmp_path / out / name).read_bytes() \
            == (tmp_path / "run" / name).read_bytes()
        assert sorted(p.name for p in (tmp_path / out).iterdir()) == [name]


@pytest.mark.parametrize("command, name", [("delta-scan", "delta.csv"),
                                           ("circular-law", "disk.csv")])
def test_cli_views_write_the_same_bytes_at_one_and_two_workers(tmp_path, capsys,
                                                                command, name):
    """delta-scan and circular-law take --workers as run does, and their
    file has the same bytes at 1 and 2 workers."""
    path = str(config_file(tmp_path, small_config(tmp_path, replicates=3)))
    files = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        assert cli.main([command, "--config", path, "--out", str(out),
                         "--workers", workers]) == 0
        files.append((out / name).read_bytes())
    assert files[0] == files[1]


@pytest.mark.parametrize("command", ["delta-scan", "circular-law"])
def test_cli_views_reject_bad_workers_before_anything(tmp_path, capsys, sample_calls,
                                                      command):
    path = write_config(tmp_path, replicates=1)
    assert cli.main([command, "--config", str(path), "--workers", "0"]) == 1
    assert "workers must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and sample_calls == []


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_cli_commands_do_no_extra_lapack_work(tmp_path, monkeypatch, capsys,
                                             lapack_calls, kind):
    """n-by-n LAPACK calls per command: delta-scan takes 2 SVDs and 2 LUs per
    z per unit, circular-law one eigensolve per unit, run both and nothing
    more for any kind, and constant-case one eigensolve and one SVD. A file
    M adds one SVD per dim to each config command. Shifted SVDs and LUs are
    counted on numpy's route or on the lane route."""
    cfg = CONFIGS[kind](tmp_path)
    path = str(config_file(tmp_path, cfg))
    calls = []

    def counting(name, fn):
        def wrapped(a, *args, **kwargs):
            if np.ndim(a) == 2 and np.shape(a)[0] == np.shape(a)[1] in cfg.dims:
                calls.append(name)
            return fn(a, *args, **kwargs)
        return wrapped

    for name in ("svd", "eigvals", "slogdet"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    lapack_calls(lambda name, a: calls.append(name))

    units = len(cfg.dims) * cfg.replicates
    per_z = 2 * len(cfg.z_grid) * units
    m_svd = len(cfg.dims) if kind == "file" else 0
    expected = [
        (["delta-scan", "--config", path],
         {"svd": per_z + m_svd, "eigvals": 0, "slogdet": per_z}),
        (["circular-law", "--config", path],
         {"svd": m_svd, "eigvals": units, "slogdet": 0}),
        (["run", "--config", path],
         {"svd": per_z + m_svd, "eigvals": units, "slogdet": per_z}),
        (["constant-case", "--n", str(cfg.dims[-1])],
         {"svd": 1, "eigvals": 1, "slogdet": 0}),
    ]
    for argv, counts in expected:
        calls.clear()
        assert cli.main(argv) == 0
        assert {name: calls.count(name) for name in counts} == counts, argv[0]


def test_cli_bad_flag_exits_one(capsys):
    code = cli.main(["run", "--no-such-flag"])
    assert code == 1


def test_cli_missing_subcommand_exits_one(capsys):
    assert cli.main([]) == 1


def test_cli_sample_and_spectrum(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code = cli.main(["sample", "--n", "4", "--dist", "rademacher",
                     "--seed", "3", "--out", str(out)])
    assert code == 0
    assert out.exists()
    text = out.read_text()
    assert "np.float64" not in text

    code = cli.main(["spectrum", "--n", "6", "--seed", "2"])
    captured = capsys.readouterr().out
    assert code == 0
    assert "spectral radius" in captured
    assert "np.float64" not in captured


def test_cli_spectrum_file_keeps_the_bytes_of_x_over_root_n(tmp_path, capsys):
    """spectrum forms A as a run does (ensemble.scaled, X times 1/sqrt(n)
    in X's own array); its file has the sha256 of the eigenvalues of
    X / sqrt(n), the formula it used before."""
    out = tmp_path / "eig.csv"
    assert cli.main(["spectrum", "--n", "200", "--seed", "2", "--out", str(out)]) == 0
    x = ensemble.sample_matrix(CG, 200, 2)
    eig = spectral.eigenvalues(x.entries / np.sqrt(200.0))
    text = "\n".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in eig) + "\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() \
        == hashlib.sha256(text.encode()).hexdigest()


def test_cli_sample_rejects_bad_dist(capsys):
    code = cli.main(["sample", "--n", "4", "--dist", "bogus"])
    assert code == 1


def test_cli_delta_scan(tmp_path, capsys):
    path = write_config(tmp_path, replicates=1)
    out_dir = tmp_path / "scan"
    code = cli.main(["delta-scan", "--config", str(path), "--out", str(out_dir)])
    assert code == 0
    rows = read_csv(out_dir / "delta.csv")
    assert len(rows) == 4


def test_cli_circular_law(tmp_path, capsys):
    path = write_config(tmp_path, replicates=1)
    out_dir = tmp_path / "disk"
    code = cli.main(["circular-law", "--config", str(path), "--out", str(out_dir)])
    assert code == 0
    rows = read_csv(out_dir / "disk.csv")
    assert len(rows) == 2


def test_cli_constant_case(capsys):
    code = cli.main(["constant-case", "--n", "50", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lambda1" in out


def test_cli_verify_lemmas(capsys):
    code = cli.main(["verify-lemmas", "--trials", "25", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "violations" in out
    assert "total" in out


def test_cli_run_worker_override(tmp_path, capsys):
    path = write_config(tmp_path, replicates=1)
    code = cli.main(["run", "--config", str(path), "--workers", "2"])
    assert code == 0


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_run_rejects_bad_workers_before_anything(tmp_path, capsys, workers):
    path = write_config(tmp_path, replicates=1)
    code = cli.main(["run", "--config", str(path), "--workers", workers])
    out, err = capsys.readouterr()
    assert code == 1
    assert "workers must be a positive integer" in err
    assert "preflight:" not in out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", [0, 2.0, True, "2"])
def test_run_experiment_rejects_bad_workers_before_output_dir(tmp_path, workers):
    """A float or bool never reaches the unit threads or a serial run."""
    cfg = small_config(tmp_path)
    with pytest.raises(ValidationError, match="workers"):
        run_experiment(cfg, workers=workers)
    with pytest.raises(ValidationError, match="workers"):
        harness.run_units(cfg, {"delta"}, workers)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "delta-scan", "circular-law"])
def test_cli_unwritable_output_dir_fails_before_sampling(
    tmp_path, capsys, sample_calls, command
):
    """output_dir is created and probed before the first unit, so a path
    under a regular file costs no scan."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = write_config(tmp_path, output_dir=str(blocker / "out"))
    assert cli.main([command, "--config", str(path)]) == 1
    assert "Not a directory" in capsys.readouterr().err
    assert sample_calls == []


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_seed_outside_u64_rejected(seed):
    """Seeds used to be masked to 64 bits, so -1 drew the samples of
    2^64 - 1 and 2^64 + 5 those of 5; now a seed is an integer in [0, 2^64)."""
    with pytest.raises(ValidationError, match=r"seed must be an integer in \[0, 2\^64\)"):
        ensemble.sample_matrix(CG, 2, seed)
    with pytest.raises(ValidationError, match="master_seed"):
        ensemble.derive_seed(seed, 2, 0)
    with pytest.raises(ValidationError, match="master_seed"):
        parse_config(cfg_json(master_seed=seed))
    with pytest.raises(ValidationError, match="master_seed"):
        _config(master_seed=seed)
    top = ensemble.sample_matrix(CG, 2, 2**64 - 1).entries
    assert not np.array_equal(top, ensemble.sample_matrix(CG, 2, 0).entries)
    assert ensemble.derive_seed(2**64 - 1, 2, 0) != ensemble.derive_seed(0, 2, 0)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("argv", [
    ["sample", "--n", "4"], ["spectrum", "--n", "4"], ["constant-case", "--n", "4"],
    ["verify-lemmas", "--trials", "2"], ["run", "--config", "{config}"],
], ids=["sample", "spectrum", "constant-case", "verify-lemmas", "run"])
def test_cli_seed_outside_u64_exits_one(tmp_path, capsys, argv, seed):
    path = write_config(tmp_path)
    code = cli.main([str(path) if a == "{config}" else a for a in argv] + ["--seed", seed])
    out, err = capsys.readouterr()
    assert code == 1
    assert "seed must be an integer in [0, 2^64)" in err
    assert "Traceback" not in err and out == ""


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
