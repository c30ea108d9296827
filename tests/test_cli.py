import json
import shutil
import tempfile

import pytest

from relarm.cli import main

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


def test_dump_intermediates(workdir):
    out = workdir / "out"
    run_cli(
        "run", "--config", workdir / "config.json", "--data", workdir / "data.csv",
        "--out-dir", out, "--dump-intermediates",
    )
    for name in ("normalized.csv", "w_matrix.csv", "lambda.csv", "features.csv", "centers.csv"):
        assert (out / name).exists(), name


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


def test_normalize_subcommand(workdir):
    out = workdir / "out"
    code = run_cli(
        "normalize", "--config", workdir / "config.json",
        "--data", workdir / "data.csv", "--out-dir", out,
    )
    assert code == 0
    header = (out / "normalized.csv").read_text().splitlines()[0]
    assert header == "object," + ",".join(NAMES)


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
    (workdir / "ref.csv").write_text("object,agency,category\nAtlantis,Fitch,AA\n")
    code = run_cli(
        "score", "--ratings", data_dir / "table8_model_categories.csv",
        "--reference", workdir / "ref.csv", "--out-dir", workdir / "out",
    )
    assert code == 0
    assert "Atlantis" in capsys.readouterr().err


def test_uncollapsible_category_is_validation_error(workdir, data_dir, capsys):
    (workdir / "ref.csv").write_text("object,agency,category\nSwitzerland,Fitch,ZZ\n")
    code = run_cli(
        "score", "--ratings", data_dir / "table8_model_categories.csv",
        "--reference", workdir / "ref.csv",
        "--config", workdir / "config.json", "--out-dir", workdir / "out",
    )
    assert code == 1


def test_missing_required_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run")
    assert exc.value.code == 1
