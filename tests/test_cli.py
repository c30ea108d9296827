import csv
import json
import shutil
import tempfile

import numpy as np
import pytest

from relarm.cli import main
from relarm.normalize import normalize_dataset

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


def test_flag_overrides_config(workdir):
    # --seed wins over the config seed: snapshot records the effective seed
    out = workdir / "out"
    run_cli(
        "run", "--config", workdir / "config.json", "--data", workdir / "data.csv",
        "--out-dir", out, "--seed", 7,
    )
    snap = json.loads((out / "snapshot.json").read_text())
    assert snap["config"]["seed"] == 7


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
], ids=["indicator-without-name", "indicator-is-string", "k-not-integer", "labels-null",
        "k-fraction", "k-string", "seed-bool", "restarts-float", "max-iterations-string",
        "threshold-string", "center-string", "pre-normalized-string", "label-number",
        "distance-list", "indicator-name-number", "collapse-value-number"])
def test_bad_config_field_names_file_and_field(workdir, capsys, edit, field):
    config = _edit_config(workdir, edit)
    code = run_cli(
        "run", "--config", config, "--data", workdir / "data.csv",
        "--out-dir", workdir / "out",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert str(config) in err and field in err, err


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
    (lambda rows: rows.append(["Switzerland"] + rows[-1][1:]),
     "row 32: object 'Switzerland' is already rated at row 2"),
], ids=["cluster-not-integer", "projection-not-number", "projection-nan",
        "projection-differs", "category-differs", "short-row", "duplicate-object"])
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


def test_repeated_indicator_names_the_data_file(workdir, capsys):
    config = _edit_config(workdir, lambda c: c["indicators"].append(c["indicators"][0]))
    code = run_cli(
        "run", "--config", config, "--data", workdir / "data.csv",
        "--out-dir", workdir / "out",
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {workdir / 'data.csv'}: duplicate indicator names: ['gdp_growth']\n"
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
        "error: column 'inflation': the width hi - lo of its range "
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
    code = run_cli(
        command, "--config", workdir / "config.json", "--data", _first_rows(workdir, 1),
        "--out-dir", workdir / "out",
    )
    assert code == 1
    assert capsys.readouterr().err == (
        "error: need at least 2 rating objects to take column ranges, got 1\n"
    )
    assert not (workdir / "out").exists()
