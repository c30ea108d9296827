import csv
import hashlib
import json
import shutil
import tempfile
import types
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relarm import io
from relarm.cli import main
from relarm.clustering import kmeans
from relarm.config import config_from_dict, load_config
from relarm.dataset import load_dataset
from relarm.errors import ValidationError, shown
from relarm.normalize import normalize_dataset
from relarm.snapshot import load_snapshot, save_snapshot
from conftest import FORK_CPUS, ForkDecided, decide_only, parse_plain

ROOT = Path(__file__).resolve().parents[1]
GEN = ROOT / "perfbench" / "gen.py"
BUNDLED_CONFIG = json.loads(
    (ROOT / "src" / "relarm" / "data" / "country_config.json").read_text(encoding="utf-8")
)

NAMES = [
    "gdp_growth",
    "competitiveness",
    "gdp_per_capita",
    "gov_debt_gdp",
    "budget_balance_gdp",
    "inflation",
    "inflation_volatility",
    "cab_fdi_gdp",
    "reserves",
]


@pytest.fixture
def workdir(tmp_path, data_dir):
    shutil.copy(data_dir / "country_raw.csv", tmp_path / "data.csv")
    shutil.copy(data_dir / "country_config.json", tmp_path / "config.json")
    shutil.copy(data_dir / "table8_reference.csv", tmp_path / "reference.csv")
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_matrix_csv(path):
    """(header, row ids, values) of a matrix written by the CLI."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, [r[0] for r in rows], np.array([[float(x) for x in r[1:]] for r in rows])


def test_run_writes_outputs(workdir, capsys):
    out = workdir / "out"
    code = run_cli(
        "run", "--config", workdir / "config.json", "--data", workdir / "data.csv",
        "--out-dir", out,
    )
    assert code == 0
    assert (out / "ratings.csv").exists()
    assert (out / "snapshot.json").exists()
    lines = (out / "ratings.csv").read_text().strip().splitlines()
    assert len(lines) == 31  # header + 30 objects
    assert "recommendation" in capsys.readouterr().out


def test_run_byte_deterministic(workdir):
    for sub in ("a", "b"):
        run_cli(
            "run", "--config", workdir / "config.json",
            "--data", workdir / "data.csv", "--out-dir", workdir / sub,
            "--dump-intermediates",
        )
    for name in (
        "ratings.csv", "snapshot.json", "normalized.csv", "w_matrix.csv",
        "lambda.csv", "features.csv", "centers.csv",
    ):
        assert (workdir / "a" / name).read_bytes() == (workdir / "b" / name).read_bytes()


def test_failed_ratings_write_leaves_the_old_snapshot(workdir, monkeypatch, capsys):
    """``run`` replaces its outputs only once all are written: a ratings
    write that fails leaves the previous run's snapshot byte for byte, and
    no temporary file or directory."""
    out = workdir / "out"
    args = ("run", "--config", workdir / "config.json", "--data", workdir / "data.csv",
            "--out-dir", out)
    assert run_cli(*args) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["seed"] += 1  # a snapshot that differs from the first
    (workdir / "config.json").write_text(json.dumps(cfg))

    def fail(path, ratings):
        raise OSError(28, "No space left on device", str(path))

    monkeypatch.setattr(io, "write_ratings_csv", fail)
    capsys.readouterr()
    assert run_cli(*args) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    monkeypatch.undo()
    assert run_cli(*args) == 0
    assert (out / "snapshot.json").read_bytes() != before["snapshot.json"]


def test_dump_intermediates(workdir, country_dataset, country_run):
    out = workdir / "out"
    run_cli(
        "run", "--config", workdir / "config.json", "--data", workdir / "data.csv",
        "--out-dir", out, "--dump-intermediates",
    )
    for name in ("normalized.csv", "w_matrix.csv", "lambda.csv", "features.csv", "centers.csv"):
        assert (out / name).exists(), name
    # rows in the data's order, every value read back exactly
    header, ids, values = read_matrix_csv(out / "normalized.csv")
    assert header == ["object"] + NAMES
    assert ids == list(country_dataset.objects)
    assert np.array_equal(values, normalize_dataset(country_dataset))
    header, ids, values = read_matrix_csv(out / "features.csv")
    assert header == ["object"] + [f"PC{p + 1}" for p in range(country_run.snapshot.model.d)]
    assert ids == list(country_dataset.objects)
    assert np.array_equal(values, country_run.features)


def test_missing_k_is_usage_error(workdir, capsys):
    cfg = json.loads((workdir / "config.json").read_text())
    del cfg["k"]
    (workdir / "bad.json").write_text(json.dumps(cfg))
    code = run_cli(
        "run", "--config", workdir / "bad.json", "--data", workdir / "data.csv",
        "--out-dir", workdir / "out",
    )
    assert code == 1
    assert "'k'" in capsys.readouterr().err


def test_normalize_is_not_a_command(workdir, capsys):
    # run --dump-intermediates writes normalized.csv
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "normalize", "--config", workdir / "config.json",
            "--data", workdir / "data.csv", "--out-dir", workdir / "out",
        )
    assert exc.value.code == 1
    assert "invalid choice: 'normalize'" in capsys.readouterr().err
    assert not (workdir / "out").exists()


def test_fit_then_assign_matches_run(workdir):
    run_cli(
        "run", "--config", workdir / "config.json", "--data", workdir / "data.csv",
        "--out-dir", workdir / "full",
    )
    run_cli(
        "fit", "--config", workdir / "config.json", "--data", workdir / "data.csv",
        "--out-dir", workdir / "fit",
    )
    code = run_cli(
        "assign", "--snapshot", workdir / "fit" / "snapshot.json",
        "--data", workdir / "data.csv", "--out-dir", workdir / "assigned",
    )
    assert code == 0
    full = (workdir / "full" / "ratings.csv").read_text()
    assigned = (workdir / "assigned" / "ratings.csv").read_text()
    # same object -> category mapping
    def cats(text):
        return {
            line.split(",")[0]: line.split(",")[3]
            for line in text.strip().splitlines()[1:]
        }
    assert cats(full) == cats(assigned)


def test_assign_leaves_tmpdir_empty(workdir, tmp_path_factory, monkeypatch):
    tmpdir = tmp_path_factory.mktemp("tmpdir")
    monkeypatch.setenv("TMPDIR", str(tmpdir))
    monkeypatch.setattr(tempfile, "tempdir", str(tmpdir))
    run_cli(
        "fit", "--config", workdir / "config.json", "--data", workdir / "data.csv",
        "--out-dir", workdir / "fit",
    )
    code = run_cli(
        "assign", "--snapshot", workdir / "fit" / "snapshot.json",
        "--data", workdir / "data.csv", "--out-dir", workdir / "assigned",
    )
    assert code == 0
    assert list(tmpdir.iterdir()) == []


def test_score_subcommand(workdir, data_dir, capsys):
    code = run_cli(
        "score", "--ratings", data_dir / "table8_model_categories.csv",
        "--reference", workdir / "reference.csv",
        "--config", workdir / "config.json", "--out-dir", workdir / "out",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "26/30" in out
    report = json.loads((workdir / "out" / "agreement.json").read_text())
    assert report["matched"] == 26 and report["compared"] == 30
    assert "recommendation" in report["note"]


def test_score_empty_reference(workdir, data_dir, capsys):
    (workdir / "empty.csv").write_text("object,agency,category\n")
    code = run_cli(
        "score", "--ratings", data_dir / "table8_model_categories.csv",
        "--reference", workdir / "empty.csv", "--out-dir", workdir / "out",
    )
    assert code == 0
    assert "no comparable objects" in capsys.readouterr().out
    report = json.loads((workdir / "out" / "agreement.json").read_text())
    assert report["no_comparable_objects"] is True


def test_score_unknown_object_warns(workdir, data_dir, capsys):
    (workdir / "ref.csv").write_text(
        "object,agency,category\nZed,Fitch,AA\nAtlantis,Fitch,AA\nZed,S&P,A\n"
    )
    code = run_cli(
        "score", "--ratings", data_dir / "table8_model_categories.csv",
        "--reference", workdir / "ref.csv", "--out-dir", workdir / "out",
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "Atlantis" in err
    # one warning per skipped object, in sorted order
    assert err == (
        "warning: reference object 'Atlantis' absent from results; skipped\n"
        "warning: reference object 'Zed' absent from results; skipped\n"
    )


def test_run_unknown_reference_object_warns(workdir, capsys):
    ref = workdir / "reference.csv"
    ref.write_text(ref.read_text() + "Atlantis,Fitch,AA\n")
    code = run_cli(
        "run", "--config", workdir / "config.json", "--data", workdir / "data.csv",
        "--reference", ref, "--out-dir", workdir / "out",
    )
    assert code == 0
    assert capsys.readouterr().err == (
        "warning: reference object 'Atlantis' absent from results; skipped\n"
    )
    report = json.loads((workdir / "out" / "agreement.json").read_text())
    assert report["skipped_reference_objects"] == ["Atlantis"]


def test_repeated_reference_pair_names_both_rows(workdir, data_dir, capsys):
    ref = workdir / "reference.csv"
    rows = ref.read_text().splitlines()
    assert "Switzerland,S&P," in rows[1], rows[1]
    ref.write_text("\n".join(rows + ["Switzerland,S&P,CCC"]) + "\n")
    code = run_cli(
        "score", "--ratings", data_dir / "table8_model_categories.csv",
        "--reference", ref, "--out-dir", workdir / "out",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {ref}: row {len(rows) + 1}: object 'Switzerland' is already "
        "rated by agency 'S&P' at row 2\n"
    ), err


UNCOLLAPSIBLE = (
    "reference category 'ZZ' does not collapse to any scale label "
    "['AAA', 'AA', 'A', 'BBB', 'BB', 'B', 'CCC']"
)


def test_uncollapsible_category_is_validation_error(workdir, data_dir, capsys):
    ref = workdir / "ref.csv"
    ref.write_text("object,agency,category\nSwitzerland,Fitch,ZZ\n")
    code = run_cli(
        "score", "--ratings", data_dir / "table8_model_categories.csv",
        "--reference", ref,
        "--config", workdir / "config.json", "--out-dir", workdir / "out",
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {ref}: {UNCOLLAPSIBLE}\n"
    assert not (workdir / "out").exists()


def test_score_without_config_says_where_its_scale_came_from(workdir, data_dir, capsys):
    """Without ``--config``, ``score`` reads the scale from the categories
    of the ratings file, so a file that holds only some of them rejects
    valid agency ratings; the error says so and points to ``--config``,
    with which the same files score."""
    ratings = workdir / "ratings.csv"
    ratings.write_text("object,cluster,projection,category\nGreece,6,0.5,B\n")
    reference = data_dir / "table8_reference.csv"
    argv = ["score", "--ratings", ratings, "--reference", reference,
            "--out-dir", workdir / "out"]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == (
        f"error: {reference}: reference category 'BB+' does not collapse to any scale "
        f"label ['B'] (the scale was read from the categories in the ratings file "
        f"{ratings}; --config gives the config's whole scale)\n"
    )
    assert not (workdir / "out").exists()
    assert run_cli(*argv, "--config", workdir / "config.json") == 0
    assert "agreement: 1/1 = 1.0000" in capsys.readouterr().out


def test_run_uncollapsible_category_writes_nothing(workdir, capsys):
    ref = workdir / "ref.csv"
    ref.write_text("object,agency,category\nSwitzerland,Fitch,ZZ\n")
    code = run_cli(
        "run", "--config", workdir / "config.json", "--data", workdir / "data.csv",
        "--reference", ref, "--out-dir", workdir / "out", "--dump-intermediates",
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {ref}: {UNCOLLAPSIBLE}\n"
    assert not (workdir / "out").exists()


def test_missing_required_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run")
    assert exc.value.code == 1


@pytest.mark.parametrize("command", ["run", "fit"])
def test_k_is_not_a_flag(workdir, command, capsys):
    # k is fixed by the config's labels, so no flag overrides it
    with pytest.raises(SystemExit) as exc:
        run_cli(
            command, "--config", workdir / "config.json", "--data", workdir / "data.csv",
            "--out-dir", workdir / "out", "--k", 7,
        )
    assert exc.value.code == 1
    assert "unrecognized arguments: --k 7" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "fit"])
def test_seed_and_threshold_are_not_flags(workdir, command, capsys):
    # the config alone sets them
    with pytest.raises(SystemExit) as exc:
        run_cli(
            command, "--config", workdir / "config.json", "--data", workdir / "data.csv",
            "--out-dir", workdir / "out", "--seed", 7, "--threshold", 0.9,
        )
    assert exc.value.code == 1
    assert "unrecognized arguments: --seed 7 --threshold 0.9" in capsys.readouterr().err
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_assign_matches_run_at_iteration_cap(tmp_path, cap):
    """Lloyd stopped by max_iterations: the snapshot's centers are the ones
    the last assignment was made against, so assign reproduces run."""
    rng = np.random.default_rng(11)
    values = rng.normal(size=(300, 3)) @ rng.normal(size=(3, 3))
    names = ["a", "b", "c"]
    with open(tmp_path / "data.csv", "w", newline="") as fh:
        fh.write("object," + ",".join(names) + "\n")
        for i, row in enumerate(values):
            fh.write(f"o{i}," + ",".join(repr(float(v)) for v in row) + "\n")
    cfg = {
        "indicators": [{"name": n, "direction": "positive"} for n in names],
        "k": 6, "labels": ["A", "B", "C", "D", "E", "F"], "seed": 3,
        "restarts": 4, "max_iterations": cap,
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert run_cli(
        "run", "--config", tmp_path / "config.json", "--data", tmp_path / "data.csv",
        "--out-dir", tmp_path / "run",
    ) == 0
    assert run_cli(
        "assign", "--snapshot", tmp_path / "run" / "snapshot.json",
        "--data", tmp_path / "data.csv", "--out-dir", tmp_path / "assigned",
    ) == 0
    run = (tmp_path / "run" / "ratings.csv").read_text()
    assigned = (tmp_path / "assigned" / "ratings.csv").read_text()
    assert assigned == run


@pytest.mark.parametrize("command", ["run", "fit"])
def test_iteration_cap_warns_on_stderr(workdir, capsys, command):
    capped = _edit_config(workdir, lambda c: c.__setitem__("max_iterations", 1))
    outs = []
    for config in (workdir / "config.json", capped):
        code = run_cli(
            command, "--config", config, "--data", workdir / "data.csv",
            "--out-dir", workdir / "out",
        )
        assert code == 0
        outs.append(capsys.readouterr())
    assert outs[0].err == ""
    assert outs[1].err == "warning: k-means stopped at max_iterations=1 before converging\n"
    assert outs[1].out == outs[0].out


def test_writers_leave_only_their_outputs(workdir):
    """Every output goes through a temporary file that is renamed into
    place, and none of those is left behind."""
    assert run_cli(
        "run", "--config", workdir / "config.json", "--data", workdir / "data.csv",
        "--reference", workdir / "reference.csv", "--dump-intermediates",
        "--out-dir", workdir / "out",
    ) == 0
    assert sorted(p.name for p in (workdir / "out").iterdir()) == [
        "agreement.json", "centers.csv", "features.csv", "lambda.csv",
        "normalized.csv", "ratings.csv", "snapshot.json", "w_matrix.csv",
    ]


def _edit_config(workdir, edit):
    cfg = json.loads((workdir / "config.json").read_text())
    edit(cfg)
    path = workdir / "bad.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("edit, field", [
    (lambda c: c["indicators"][2].pop("name"), "indicators[2]"),
    (lambda c: c["indicators"].__setitem__(0, "gdp_growth"), "indicators[0]"),
    (lambda c: c.__setitem__("k", "seven"), "'k'"),
    (lambda c: c.__setitem__("labels", None), "'labels'"),
    (lambda c: c.__setitem__("k", 2.9), "'k'"),
    (lambda c: c.__setitem__("k", "3"), "'k'"),
    (lambda c: c.__setitem__("seed", True), "'seed'"),
    (lambda c: c.__setitem__("restarts", 50.0), "'restarts'"),
    (lambda c: c.__setitem__("max_iterations", "300"), "'max_iterations'"),
    (lambda c: c.__setitem__("variance_threshold", "0.95"), "'variance_threshold'"),
    (lambda c: c.__setitem__("center", "false"), "'center'"),
    (lambda c: c["indicators"][3].__setitem__("pre_normalized", "false"),
     "'indicators[3].pre_normalized'"),
    (lambda c: c["labels"].__setitem__(1, 1.5), "'labels[1]'"),
    (lambda c: c.__setitem__("distance", ["euclidean"]), "'distance'"),
    (lambda c: c["indicators"][4].__setitem__("name", 5), "'indicators[4].name'"),
    (lambda c: c.__setitem__("collapse_table", {"AA+": 5}), "'collapse_table.AA+'"),
    (lambda c: c.__setitem__("center", False), "'center' must be true, got False"),
    (lambda c: c.__setitem__("distance", "manhattan"),
     "'distance' must be \"euclidean\", got 'manhattan'"),
    (lambda c: c.__setitem__("restart", 1), "unknown key 'restart'"),
    (lambda c: c["indicators"][1].__setitem__("pre_normalised", True),
     "unknown key 'indicators[1].pre_normalised'"),
    (lambda c: c.__setitem__("variance_threshold", 10**400), "'variance_threshold'"),
    (lambda c: c["indicators"][5].__setitem__("name", "gdp_growth"),
     "'indicators[5].name' repeats 'gdp_growth'"),
], ids=["indicator-without-name", "indicator-is-string", "k-not-integer", "labels-null",
        "k-fraction", "k-string", "seed-bool", "restarts-float", "max-iterations-string",
        "threshold-string", "center-string", "pre-normalized-string", "label-number",
        "distance-list", "indicator-name-number", "collapse-value-number", "center-false",
        "distance-manhattan", "unknown-key", "unknown-indicator-key", "threshold-huge",
        "repeated-indicator-name"])
def test_bad_config_field_names_file_and_field(workdir, capsys, edit, field):
    config = _edit_config(workdir, edit)
    code = run_cli(
        "run", "--config", config, "--data", workdir / "data.csv",
        "--out-dir", workdir / "out",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert str(config) in err and field in err, err


_INDICATOR_KEYS = ("name", "direction", "pre_normalized")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(
    in_indicator=st.booleans(),
    key=st.sampled_from([*BUNDLED_CONFIG, *_INDICATOR_KEYS]) | st.text(max_size=12),
    value=_JSON,
)
def test_edited_config_loads_or_is_a_validation_error(in_indicator, key, value):
    """The bundled config with one key set to any JSON value, replaced or
    added, at the top level or in an indicator: a config, or a
    ``ValidationError``, which an unknown key always gets."""
    raw = json.loads(json.dumps(BUNDLED_CONFIG))
    target = raw["indicators"][1] if in_indicator else raw
    known = key in (
        _INDICATOR_KEYS if in_indicator else (*BUNDLED_CONFIG, "distance", "center")
    )
    target[key] = value
    try:
        config_from_dict(raw)
    except ValidationError:
        return
    assert known, f"unknown key {key!r} was accepted"


# bytes that are syntax in CSV or JSON, numbers a reader must reject, a
# lead and a lone continuation byte that break UTF-8, and runs past the
# decoders' limits: a CSV field, JSON nesting, an integer's digits
_TOKENS = [b",", b'"', b"\n", b"\r", b" ", b"-", b".", b"0", b"9", b"1e999", b"nan",
           b"x", b"{", b"}", b"[", b"]", b":", b"null", b"true", b"\xc3", b"\xa9",
           b"x" * 200_000, b"[" * 100_000, b"9" * 5000]


@pytest.fixture(scope="session")
def bundled_inputs(tmp_path_factory, data_dir, country_config, country_run):
    """For each reader: itself, the bytes of a valid input and a path in a
    fresh directory to write a mutant of them to."""
    work = tmp_path_factory.mktemp("mutants")
    save_snapshot(country_run.snapshot, work / "snapshot.json")
    readers = {
        "config": (load_config, data_dir / "country_config.json"),
        "data": (lambda p: load_dataset(p, country_config.indicators),
                 data_dir / "country_raw.csv"),
        "snapshot": (load_snapshot, work / "snapshot.json"),
        "ratings": (io.read_ratings_csv, data_dir / "table8_model_categories.csv"),
        "reference": (io.read_reference_csv, data_dir / "table8_reference.csv"),
    }
    return {
        kind: (read, path.read_bytes(), work / f"mutant-{path.name}")
        for kind, (read, path) in readers.items()
    }


@pytest.mark.parametrize("kind", ["config", "data", "snapshot", "ratings", "reference"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_input_loads_or_names_its_file(bundled_inputs, kind, data):
    """A bundled input with one slice deleted or one token inserted: its
    reader returns, or raises a ``ValidationError`` that starts with the
    file's path."""
    read, original, path = bundled_inputs[kind]
    i = data.draw(st.integers(0, len(original)), label="at")
    if data.draw(st.booleans(), label="delete"):
        mutant = original[:i] + original[i + data.draw(st.integers(1, 64), label="n"):]
    else:
        mutant = original[:i] + data.draw(st.sampled_from(_TOKENS), label="token") + original[i:]
    path.write_bytes(mutant)
    try:
        read(path)
    except ValidationError as exc:
        assert str(exc).startswith(f"{path}: "), exc


_NESTED = "[" * 100_000  # past the recursion limit of the JSON decoder
_DIGITS = "9" * 5000  # past the int-digit limit of the JSON decoder
_HUGE = "1" + "0" * 400  # an integer beyond the float range


def _json_with(text, keys, literal):
    """The JSON ``text`` with ``literal`` written as the value at the key
    path ``keys``."""
    doc = json.loads(text)
    *parents, last = keys
    target = doc
    for key in parents:
        target = target[key]
    target[last] = "@literal@"
    return json.dumps(doc).replace('"@literal@"', literal)


def _long_first_cell(text):
    """The CSV ``text`` with its first data row's first cell a quoted field
    of 200,000 characters, past ``csv.field_size_limit()``."""
    header, first, rest = text.split("\n", 2)
    return "\n".join([header, '"' + "x" * 200_000 + '"' + first[first.index(","):], rest])


# the reader, the file it reads, that file's hostile text made from its
# valid one, and what the error says after the file's path; the 5,000-digit
# literals sit where a value that large is rejected even by an interpreter
# without an int-digit limit (``k`` disagrees with the labels, a name must
# be a string)
_HOSTILE = {
    "config-nested": ("config", "config.json", lambda t: _NESTED, "invalid JSON: "),
    "config-digits": ("config", "config.json", lambda t: _json_with(t, ["k"], _DIGITS), ""),
    "snapshot-nested": ("snapshot", "snapshot.json", lambda t: _NESTED, "invalid JSON: "),
    "snapshot-digits": ("snapshot", "snapshot.json",
                        lambda t: _json_with(t, ["config", "k"], _DIGITS), ""),
    "snapshot-huge-center": (
        "snapshot", "snapshot.json",
        lambda t: _json_with(t, ["clusters", "centers", 0, 0], _HUGE),
        "'clusters.centers' has an entry beyond the float range",
    ),
    "snapshot-huge-min": (
        "snapshot", "snapshot.json",
        lambda t: _json_with(t, ["normalization", "column_min", 0], _HUGE),
        "'normalization.column_min' has an entry beyond the float range",
    ),
    "data-long-id": ("data", "data.csv", _long_first_cell, "field larger than field limit"),
    "ratings-long-object": ("ratings", "ratings.csv", _long_first_cell,
                            "field larger than field limit"),
    "reference-long-object": ("reference", "reference.csv", _long_first_cell,
                              "field larger than field limit"),
}


@pytest.mark.parametrize("case", list(_HOSTILE))
def test_input_past_a_decoder_limit_names_its_file(workdir, data_dir, country_run, capsys,
                                                   case):
    """A file past a limit of the CSV or JSON decoder, or with an array
    entry beyond the float range, is one ``ValidationError`` that starts
    with its path: exit 1 and one stderr line from the CLI, no traceback."""
    reader, name, hostile, problem = _HOSTILE[case]
    shutil.copy(data_dir / "table8_model_categories.csv", workdir / "ratings.csv")
    save_snapshot(country_run.snapshot, workdir / "snapshot.json")
    path = workdir / name
    path.write_text(hostile(path.read_text(encoding="utf-8")), encoding="utf-8")
    config, data, snapshot, ratings, reference = (workdir / f for f in (
        "config.json", "data.csv", "snapshot.json", "ratings.csv", "reference.csv"))
    fit = ["run", "--config", config, "--data", data]
    score = ["score", "--ratings", ratings, "--reference", reference]
    argv = {"config": fit, "data": fit, "ratings": score, "reference": score,
            "snapshot": ["assign", "--snapshot", snapshot, "--data", data]}[reader]
    assert run_cli(*argv, "--out-dir", workdir / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {problem}"), err[:300]
    assert err.count("\n") == 1 and "Traceback" not in err, err[:300]
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("name, where", [
    ("data.csv", "row 2, column 'gdp_growth': non-numeric value 'xxx"),
    ("config.json", "'k' must be an integer, got 'xxx"),
    ("ratings.csv", "row 2, column 'projection': 'xxx"),
], ids=["data", "config", "ratings"])
def test_a_huge_value_gives_a_short_error_line(workdir, data_dir, capsys, monkeypatch,
                                               name, where):
    """A 100,000-character value is echoed by its head and its length: the
    error is one line under 200 characters that still names the file and
    the row and column, or the key."""
    monkeypatch.chdir(workdir)
    shutil.copy(data_dir / "table8_model_categories.csv", "ratings.csv")
    huge = "x" * 100_000
    if name == "config.json":
        Path(name).write_text(json.dumps({**BUNDLED_CONFIG, "k": huge}), encoding="utf-8")
    else:  # the first data row's second cell
        text = Path(name).read_text(encoding="utf-8")
        header, first, rest = text.split("\n", 2)
        cells = first.split(",")
        cells[1 if name == "data.csv" else 2] = huge
        Path(name).write_text("\n".join([header, ",".join(cells), rest]), encoding="utf-8")
    argv = {
        "data.csv": ["run", "--config", "config.json", "--data", "data.csv"],
        "config.json": ["run", "--config", "config.json", "--data", "data.csv"],
        "ratings.csv": ["score", "--ratings", "ratings.csv", "--reference", "reference.csv"],
    }[name]
    assert run_cli(*argv, "--out-dir", "out") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: {where}"), err[:300]
    assert "x… (100002 characters)" in err, err[:300]
    assert err.count("\n") == 1 and len(err) < 200, err[:300]


@pytest.mark.parametrize("command", ["run", "score"])
def test_collapse_target_outside_the_labels_names_the_config(workdir, data_dir, capsys,
                                                             command):
    """A collapse table that maps to no label is the config's fault: ``score``
    blames the config, not the reference, and ``run`` writes nothing."""
    config = _edit_config(workdir, lambda c: c.__setitem__("collapse_table", {"AA+": "ZZ"}))
    argv = {
        "run": ["run", "--config", config, "--data", workdir / "data.csv"],
        "score": ["score", "--ratings", data_dir / "table8_model_categories.csv",
                  "--reference", workdir / "reference.csv", "--config", config],
    }[command]
    assert run_cli(*argv, "--out-dir", workdir / "out") == 1
    assert capsys.readouterr().err == (
        f"error: {config}: 'collapse_table.AA+' must be one of the labels "
        "['AAA', 'AA', 'A', 'BBB', 'BB', 'B', 'CCC'], got 'ZZ'\n"
    )
    assert not (workdir / "out").exists()


def test_benchmark_configs_load(tmp_path, fork_calls, monkeypatch):
    """Every config ``perfbench/gen.py`` writes loads, and every data file
    it writes takes the plain-table parse under its config, so a change to
    the config contract or to the fork rule that would break or slow the
    benchmark fails here first.  With more than one usable CPU, the
    parses of assign_bulk (many narrow rows) and fit_wide (few wide ones)
    fork, and fit_tall's stays in one process; fit_tall's restarts fork
    (14 MB of distance blocks) and fit_wide's stay in one process
    (0.8 MB).  The generator runs from its source text, so nothing is
    written beside it; assign_bulk writes no config of its own (it uses
    fit_tall's)."""
    gen = types.ModuleType("perfbench_gen")
    exec(compile(GEN.read_text(encoding="utf-8"), str(GEN), "exec"), gen.__dict__)
    gen.generate(0, tmp_path, workloads=gen.WORKLOADS)
    configs = sorted(tmp_path.glob("*/config.json"))
    assert [p.parent.name for p in configs] == ["fit_tall", "fit_wide"]
    values = {}
    for workload, config, forks in [("fit_tall", "fit_tall", False),
                                    ("fit_wide", "fit_wide", True),
                                    ("assign_bulk", "fit_tall", True)]:
        specs = load_config(tmp_path / config / "config.json").indicators
        text = (tmp_path / workload / "data.csv").read_text(encoding="utf-8")
        fork_calls.clear()
        table = parse_plain(text, specs)
        assert table is not None, workload
        assert bool(fork_calls) == forks, workload
        values[workload] = table[1]
    # the rule reads k, the number of points and the restarts, so the raw
    # values stand in for the features the fit would cluster
    decide_only(monkeypatch)
    for workload, forks in [("fit_tall", True), ("fit_wide", False)]:
        cfg = load_config(tmp_path / workload / "config.json")
        with pytest.raises(ForkDecided) as decided:
            kmeans(values[workload], cfg.k, cfg.seed, cfg.restarts)
        assert decided.value.args == (FORK_CPUS if forks else 1,), workload


def test_benchmark_fits_match_the_reference(tmp_path):
    """``run`` on the fit_tall and fit_wide inputs ``perfbench/gen.py``
    writes gives the outputs ``perfbench/reference.json`` records: d,
    every object's cluster id and category (as the benchmark's sha256 of
    ``object,cluster,category`` lines) and the cluster projections to 1e-9
    relative.  So a change to k-means' result on the benchmark's fits fails
    here, and not only in the benchmark's own output check."""
    gen = types.ModuleType("perfbench_gen")
    exec(compile(GEN.read_text(encoding="utf-8"), str(GEN), "exec"), gen.__dict__)
    gen.generate(0, tmp_path, workloads=("fit_tall", "fit_wide"))
    reference = json.loads((GEN.parent / "reference.json").read_text(encoding="utf-8"))
    for workload in ("fit_tall", "fit_wide"):
        inputs, out = tmp_path / workload, tmp_path / workload / "out"
        assert main(["run", "--config", str(inputs / "config.json"),
                     "--data", str(inputs / "data.csv"), "--out-dir", str(out)]) == 0
        want = reference["outputs"][workload]
        snap = json.loads((out / "snapshot.json").read_text(encoding="utf-8"))
        assert snap["model"]["d"] == want["d"], workload
        with open(out / "ratings.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))[1:]
        digest = hashlib.sha256("".join(f"{o},{q},{c}\n" for o, q, _, c in rows).encode())
        assert digest.hexdigest() == want["ratings_sha256"], workload
        np.testing.assert_allclose(snap["clusters"]["projections"], want["projections"],
                                   rtol=1e-9, atol=0)


def test_non_utf8_data_names_file_and_line(workdir, capsys):
    data = workdir / "data.csv"
    raw = data.read_bytes().replace(b"Switzerland", b"Schw\xe9iz")
    data.write_bytes(raw)
    code = run_cli(
        "run", "--config", workdir / "config.json", "--data", data,
        "--out-dir", workdir / "out",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"{data}: line 2: byte 0xe9" in err, err


@pytest.mark.parametrize("edit, message", [
    (lambda rows: rows[3].__setitem__(1, "one"), "row 4, column 'cluster': 'one' is not an integer"),
    (lambda rows: rows[2].__setitem__(2, "zz"), "row 3, column 'projection': 'zz' is not a finite number"),
    (lambda rows: rows[5].__setitem__(2, "nan"), "row 6, column 'projection': 'nan' is not a finite number"),
    (lambda rows: rows[3].__setitem__(2, "0.5"),
     "row 4: cluster 1 has projection 0.5 and category 'AAA', but row 2 gave it 1.0 and 'AAA'"),
    (lambda rows: rows[3].__setitem__(3, "AA"),
     "row 4: cluster 1 has projection 1.0 and category 'AA', but row 2 gave it 1.0 and 'AAA'"),
    (lambda rows: rows[4].pop(), "row 5 has fewer cells than the header"),
    (lambda rows: rows[4].append("x"), "row 5 has more cells than the header"),
    (lambda rows: [row.append(row[3]) for row in rows],
     "columns repeated in the header: ['category']"),
    (lambda rows: [row.pop(2) for row in rows],
     "columns missing from the header: ['projection']"),
    (lambda rows: rows.append(["Switzerland"] + rows[-1][1:]),
     "row 32: object 'Switzerland' is already rated at row 2"),
], ids=["cluster-not-integer", "projection-not-number", "projection-nan",
        "projection-differs", "category-differs", "short-row", "long-row",
        "repeated-column", "missing-column", "duplicate-object"])
def test_bad_ratings_file_names_file_row_and_column(workdir, data_dir, capsys, edit, message):
    rows = [
        line.split(",")
        for line in (data_dir / "table8_model_categories.csv").read_text().splitlines()
    ]
    assert rows[1][1:] == rows[3][1:] == ["1", "1.0", "AAA"]
    edit(rows)
    ratings = workdir / "ratings.csv"
    ratings.write_text("".join(",".join(row) + "\n" for row in rows))
    code = run_cli(
        "score", "--ratings", ratings, "--reference", workdir / "reference.csv",
        "--out-dir", workdir / "out",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {ratings}: {message}\n" == err, err


@pytest.mark.parametrize("edit, message", [
    (lambda rows: rows[4].pop(), "row 5 has fewer cells than the header"),
    (lambda rows: rows[4].append("x"), "row 5 has more cells than the header"),
    (lambda rows: [row.append(row[2]) for row in rows],
     "columns repeated in the header: ['category']"),
    (lambda rows: [row.pop(1) for row in rows], "columns missing from the header: ['agency']"),
    (lambda rows: rows[0].append("source"), "row 2 has fewer cells than the header"),
], ids=["short-row", "long-row", "repeated-column", "missing-column", "unfilled-column"])
def test_bad_reference_file_names_file_and_row(workdir, data_dir, capsys, edit, message):
    ref = workdir / "reference.csv"
    rows = [line.split(",") for line in ref.read_text().splitlines()]
    assert rows[0] == ["object", "agency", "category"]
    edit(rows)
    ref.write_text("".join(",".join(row) + "\n" for row in rows))
    code = run_cli(
        "score", "--ratings", data_dir / "table8_model_categories.csv",
        "--reference", ref, "--out-dir", workdir / "out",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {ref}: {message}\n" == err, err


@pytest.mark.parametrize("flag", ["--ratings", "--reference"])
def test_score_non_utf8_input_names_file(workdir, data_dir, capsys, flag):
    bad = workdir / "bad.csv"
    bad.write_bytes(b"object,cluster,projection,category\nSchw\xe9iz,1,1.0,AAA\n")
    files = {"--ratings": data_dir / "table8_model_categories.csv",
             "--reference": workdir / "reference.csv", flag: bad}
    code = run_cli("score", *(x for kv in files.items() for x in kv),
                   "--out-dir", workdir / "out")
    assert code == 1
    assert f"{bad}: line 2: byte 0xe9" in capsys.readouterr().err


def _cut_rows(rows):
    return rows[:1]


def _repeat_row(rows):
    return rows + rows[1:2]


def _bad_first_cell(rows, cell="nan"):
    cells = rows[1].split(",")
    return [rows[0], ",".join(cells[:1] + [cell] + cells[2:]), *rows[2:]]


@pytest.mark.parametrize("command", ["run", "assign"])
@pytest.mark.parametrize("edit, message", [
    (_cut_rows, "need at least 1 rating object, got 0"),
    (_repeat_row, "duplicate object ids: ['Switzerland']"),
    (_bad_first_cell, "row 2, column 'gdp_growth': non-finite value 'nan'"),
], ids=["header-only", "repeated-row", "nan-cell"])
def test_bad_data_rows_name_the_file(workdir, capsys, command, edit, message):
    assert run_cli(
        "fit", "--config", workdir / "config.json", "--data", workdir / "data.csv",
        "--out-dir", workdir / "fit",
    ) == 0
    data = workdir / "bad.csv"
    data.write_text("\n".join(edit((workdir / "data.csv").read_text().splitlines())) + "\n")
    model = (
        ["--config", workdir / "config.json"] if command == "run"
        else ["--snapshot", workdir / "fit" / "snapshot.json"]
    )
    code = run_cli(command, *model, "--data", data, "--out-dir", workdir / "out")
    assert code == 1
    assert capsys.readouterr().err == f"error: {data}: {message}\n"


@pytest.mark.parametrize("cell, problem", [
    ("nan", "non-finite value 'nan'"),
    ("inf", "non-finite value 'inf'"),
    ("1e999", "non-finite value '1e999'"),
    ("abc", "non-numeric value 'abc'"),
])
def test_bad_cell_is_numbered_by_file_line(workdir, capsys, cell, problem):
    # the first data row is line 2 of the file, whatever is wrong with it
    data = workdir / "bad.csv"
    rows = (workdir / "data.csv").read_text().splitlines()
    data.write_text("\n".join(_bad_first_cell(rows, cell)) + "\n")
    code = run_cli(
        "run", "--config", workdir / "config.json", "--data", data,
        "--out-dir", workdir / "out",
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {data}: row 2, column 'gdp_growth': {problem}\n"
    )


def _competitiveness(rows, value_of):
    """``rows`` with the competitiveness cell of data row r set to
    ``value_of(r)``, r = 1 for the first data row."""
    j = 1 + NAMES.index("competitiveness")
    out = rows[:1]
    for r, row in enumerate(rows[1:], start=1):
        cells = row.split(",")
        cells[j] = value_of(r)
        out.append(",".join(cells))
    return out


@pytest.mark.parametrize("command", ["run", "assign"])
def test_pre_normalized_value_outside_unit_range_names_file_and_object(
    workdir, capsys, command
):
    config = _edit_config(
        workdir, lambda c: c["indicators"][1].__setitem__("pre_normalized", True)
    )
    rows = (workdir / "data.csv").read_text().splitlines()
    good, bad = workdir / "good.csv", workdir / "bad.csv"
    good.write_text("\n".join(_competitiveness(rows, lambda r: str(r / 40))) + "\n")
    # file line 4 holds the third object, United States
    bad.write_text(
        "\n".join(_competitiveness(rows, lambda r: "1.5" if r == 3 else str(r / 40)))
        + "\n"
    )
    assert run_cli(
        "fit", "--config", config, "--data", good, "--out-dir", workdir / "fit"
    ) == 0
    model = (
        ["--config", config] if command == "run"
        else ["--snapshot", workdir / "fit" / "snapshot.json"]
    )
    capsys.readouterr()
    code = run_cli(command, *model, "--data", bad, "--out-dir", workdir / "out")
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: pre-normalized column 'competitiveness' has value 1.5 "
        f"outside [0, 1] for object 'United States'\n"
    )
    assert not (workdir / "out").exists()


def test_repeated_indicator_names_the_data_file(workdir, capsys):
    config = _edit_config(workdir, lambda c: c["indicators"].append(c["indicators"][0]))
    code = run_cli(
        "run", "--config", config, "--data", workdir / "data.csv",
        "--out-dir", workdir / "out",
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {config}: 'indicators[9].name' repeats 'gdp_growth'\n"
    )


def test_range_too_wide_names_column(workdir, capsys):
    data = workdir / "data.csv"
    rows = data.read_text().splitlines()
    for i, v in ((1, "-1e308"), (2, "1e308"), (3, "0")):
        cells = rows[i].split(",")
        cells[1 + NAMES.index("inflation")] = v
        rows[i] = ",".join(cells)
    data.write_text("\n".join(rows) + "\n")
    code = run_cli(
        "run", "--config", workdir / "config.json", "--data", data,
        "--out-dir", workdir / "out",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: {data}: column 'inflation': the width hi - lo of its range "
        "[-1e+308, 1e+308] is not a finite number\n"
    ), err


@pytest.mark.parametrize("command", ["run", "fit"])
def test_constant_column_warns_on_stderr(workdir, capsys, command):
    data = workdir / "data.csv"
    header, *rows = data.read_text().splitlines()
    rows = [",".join(r.split(",")[:1] + ["1.0"] + r.split(",")[2:]) for r in rows]
    data.write_text("\n".join([header, *rows]) + "\n")
    assert header.split(",")[1] == "gdp_growth"
    code = run_cli(
        command, "--config", workdir / "config.json", "--data", data,
        "--out-dir", workdir / "out",
    )
    assert code == 0
    assert capsys.readouterr().err == (
        "warning: column 'gdp_growth' is constant; mapped to 0.5\n"
    )


def _first_rows(workdir, n):
    """The data file cut to its first ``n`` objects."""
    lines = (workdir / "data.csv").read_text().splitlines()
    path = workdir / f"first{n}.csv"
    path.write_text("\n".join(lines[: n + 1]) + "\n")
    return path


def test_assign_scores_one_object(workdir):
    assert run_cli(
        "run", "--config", workdir / "config.json", "--data", workdir / "data.csv",
        "--out-dir", workdir / "run",
    ) == 0
    header, first, *_ = (workdir / "run" / "ratings.csv").read_text().splitlines()
    assert run_cli(
        "assign", "--snapshot", workdir / "run" / "snapshot.json",
        "--data", _first_rows(workdir, 1), "--out-dir", workdir / "one",
    ) == 0
    assert (workdir / "one" / "ratings.csv").read_text() == f"{header}\n{first}\n"


@pytest.mark.parametrize("command", ["run", "fit"])
def test_one_object_has_no_ranges(workdir, capsys, command):
    data = _first_rows(workdir, 1)
    code = run_cli(
        command, "--config", workdir / "config.json", "--data", data,
        "--out-dir", workdir / "out",
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {data}: need at least 2 rating objects to take column ranges, got 1\n"
    )
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", ["run", "fit"])
def test_zero_variance_names_the_data_file(workdir, capsys, command):
    # every object a copy of the first: each column constant, nothing to fit
    header, first = (workdir / "data.csv").read_text().splitlines()[:2]
    values = first.partition(",")[2]
    data = workdir / "same.csv"
    data.write_text(header + "\n" + "".join(f"copy{r},{values}\n" for r in range(4)))
    code = run_cli(
        command, "--config", workdir / "config.json", "--data", data,
        "--out-dir", workdir / "out",
    )
    assert code == 1
    assert capsys.readouterr().err == "".join(
        f"warning: column {name!r} is constant; mapped to 0.5\n" for name in NAMES
    ) + f"error: {data}: data has zero total variance; cannot fit\n"
    assert not (workdir / "out").exists()


@pytest.mark.parametrize("command", ["run", "fit"])
def test_k_above_distinct_objects_names_the_data_file(workdir, capsys, command):
    # the config's k=7 over 3 objects
    data = _first_rows(workdir, 3)
    code = run_cli(
        command, "--config", workdir / "config.json", "--data", data,
        "--out-dir", workdir / "out",
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {data}: k=7 exceeds the number of distinct points (3)\n"
    )
    assert not (workdir / "out").exists()


_RATINGS_HEADER = "object,cluster,projection,category\n"


# an object holding the indicator list and a stray key, where the list belongs
_NESTED_INDICATORS = {"indicators": BUNDLED_CONFIG["indicators"], "junk": 1}


def _config_with(**changes):
    """The bundled config's JSON text, each key of ``changes`` set to its
    value, or left out where the value is None."""
    cfg = {**BUNDLED_CONFIG, **changes}
    return json.dumps({key: value for key, value in cfg.items() if value is not None})


@pytest.mark.parametrize("command, flag, text, message", [
    ("run", "--data", "", "empty file"),
    ("assign", "--data", "", "empty file"),
    ("score", "--ratings", _RATINGS_HEADER, "empty ratings file"),
    ("score", "--ratings", "",
     "columns missing from the header: ['object', 'cluster', 'projection', 'category']"),
    ("run", "--config", "[]", "config must be a JSON object"),
    ("assign", "--snapshot", "[]", "snapshot must be a JSON object"),
    ("run", "--config", _config_with(indicators=None), "config is missing the 'indicators' key"),
    ("run", "--config", _config_with(labels=None), "config is missing the 'labels' key"),
    ("run", "--config", _config_with(labels=["AAA", "AA", "A", "AA", "BB", "B", "CCC"]),
     "'labels[3]' repeats 'AA'"),
    ("run", "--config", _config_with(indicators=_NESTED_INDICATORS),
     f"'indicators' must be a non-empty list, got {shown(_NESTED_INDICATORS)}"),
    ("run", "--config", _config_with(indicators=[]),
     "'indicators' must be a non-empty list, got []"),
    ("run", "--config", _config_with(variance_threshold=0),
     "'variance_threshold' must be in (0, 1], got 0.0"),
    ("run", "--config", _config_with(variance_threshold=1.5),
     "'variance_threshold' must be in (0, 1], got 1.5"),
    ("run", "--config", _config_with(k=0), "'k' must be >= 1, got 0"),
    ("run", "--config", _config_with(labels=["AAA", "AA", "A", "BBB", "BB", "B"]),
     "'labels' holds 6 labels but 'k' is 7"),
    ("run", "--config", _config_with(restarts=0), "'restarts' must be >= 1, got 0"),
    ("run", "--config", _config_with(max_iterations=0), "'max_iterations' must be >= 1, got 0"),
], ids=["run-empty-data", "assign-empty-data", "ratings-header-only", "ratings-empty",
        "config-list", "snapshot-list", "no-indicators", "no-labels", "repeated-label",
        "indicators-object", "indicators-empty", "threshold-0", "threshold-1.5", "k-0",
        "6-labels-for-k-7", "restarts-0", "max-iterations-0"])
def test_bad_input_names_its_file_and_writes_nothing(
    workdir, data_dir, country_run, capsys, command, flag, text, message
):
    save_snapshot(country_run.snapshot, workdir / "snapshot.json")
    inputs = {
        "run": {"--config": workdir / "config.json", "--data": workdir / "data.csv"},
        "assign": {"--snapshot": workdir / "snapshot.json", "--data": workdir / "data.csv"},
        "score": {"--ratings": data_dir / "table8_model_categories.csv",
                  "--reference": workdir / "reference.csv"},
    }[command]
    bad = workdir / "bad"
    bad.write_text(text, encoding="utf-8")
    inputs[flag] = bad
    code = run_cli(command, *chain.from_iterable(inputs.items()), "--out-dir", workdir / "out")
    assert code == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not (workdir / "out").exists()


def test_eigensolver_failure_exits_2_and_writes_nothing(workdir, capsys, monkeypatch):
    def eigh(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    code = run_cli(
        "run", "--config", workdir / "config.json", "--data", workdir / "data.csv",
        "--out-dir", workdir / "out",
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"numerical failure: {workdir / 'data.csv'}: eigensolver failed: "
        "Eigenvalues did not converge\n"
    )
    assert not (workdir / "out").exists()
