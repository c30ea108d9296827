"""Fit once, save a snapshot, score objects against it without refitting,
and measure agreement with reference agency ratings.

Run:  python3 demos/snapshot_and_agreement.py
"""

import tempfile
from importlib import resources
from pathlib import Path

from relarm import (
    load_config,
    load_dataset,
    load_snapshot,
    run_pipeline,
    save_snapshot,
    score_agreement,
    score_with_snapshot,
)
from relarm.io import read_reference_csv

data = resources.files("relarm") / "data"
config = load_config(data / "country_config.json")
dataset = load_dataset(data / "country_raw.csv", config.indicators)

outputs = run_pipeline(config, dataset)

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "snapshot.json"
    save_snapshot(outputs.snapshot, path)
    print(f"snapshot written ({path.stat().st_size} bytes)")

    # re-score the same objects purely from the snapshot
    rescored = score_with_snapshot(load_snapshot(path), dataset)
    assert rescored.categories() == outputs.ratings.categories()
    print("snapshot re-scoring reproduces the fitted categories")

# agreement against reference agency ratings (subcategories collapse,
# a match against any one agency counts)
reference = read_reference_csv(data / "table8_reference.csv")
report = score_agreement(outputs.ratings, reference, labels=config.labels)
print(
    f"\nagreement with reference ratings: {report.matched}/{report.compared}"
    f" = {report.fraction:.3f}"
)
for row in report.per_object:
    mark = "+" if row.matched else "-"
    refs = ", ".join(f"{a}:{c}" for a, c in row.reference)
    print(f"  {mark} {row.object_id:<15} model={row.model_category:<4} ({refs})")
