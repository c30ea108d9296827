"""Golden outputs of ``relarm run`` on the bundled country sample.

The fixture pins behaviour, not just run-to-run determinism: cluster ids,
categories and the retained ``d`` must match exactly, and the floats of
``W``, ``Lambda``, the centers and their projections to 1e-12.  With
``--reference`` it pins the agreement counts, each object's category and
match, and the stdout lines.

Regenerate (only when a change of output is intended, and say so in
CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from relarm.cli import main

DATA = Path(__file__).resolve().parents[1] / "src" / "relarm" / "data"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_country.json"
TOL = 1e-12


def country_run_summary(out_dir: Path) -> dict:
    """Run the CLI on the country sample and collect what the fixture pins."""
    code = main([
        "run", "--config", str(DATA / "country_config.json"),
        "--data", str(DATA / "country_raw.csv"), "--out-dir", str(out_dir),
    ])
    assert code == 0
    with open(out_dir / "ratings.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    snap = json.loads((out_dir / "snapshot.json").read_text(encoding="utf-8"))
    return {
        "objects": [
            {"object": r["object"], "cluster": int(r["cluster"]), "category": r["category"]}
            for r in rows
        ],
        "d": snap["model"]["d"],
        "W": snap["model"]["W"],
        "Lambda": snap["model"]["Lambda"],
        "centers": snap["clusters"]["centers"],
        "projections": snap["clusters"]["projections"],
    }


def country_reference_summary(out_dir: Path) -> dict:
    """Run the CLI with the agencies' ratings and collect what the
    fixture pins of the comparison."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([
            "run", "--config", str(DATA / "country_config.json"),
            "--data", str(DATA / "country_raw.csv"),
            "--reference", str(DATA / "table8_reference.csv"),
            "--out-dir", str(out_dir),
        ])
    assert code == 0
    report = json.loads((out_dir / "agreement.json").read_text(encoding="utf-8"))
    return {
        "matched": report["matched"],
        "compared": report["compared"],
        "per_object": [
            {k: row[k] for k in ("object", "model_category", "matched")}
            for row in report["per_object"]
        ],
        "stdout": stdout.getvalue().splitlines(),
    }


def test_country_run_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = country_run_summary(tmp_path)
    assert got["objects"] == golden["objects"]
    assert got["d"] == golden["d"]
    for key in ("W", "Lambda", "centers", "projections"):
        np.testing.assert_allclose(
            np.array(got[key]), np.array(golden[key]), rtol=0, atol=TOL, err_msg=key
        )


def test_country_run_with_reference_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert country_reference_summary(tmp_path) == golden["reference_run"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        summary = country_run_summary(Path(tmp) / "run")
        summary["reference_run"] = country_reference_summary(Path(tmp) / "reference")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
