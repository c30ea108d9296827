import json

import numpy as np
import pytest

from relarm.errors import ValidationError
from relarm.pipeline import build_snapshot
from relarm.snapshot import load_snapshot, save_snapshot, score_with_snapshot


def test_snapshot_roundtrip_is_lossless(tmp_path, country_config, country_dataset, country_run):
    snap = build_snapshot(country_config, country_dataset, country_run)
    path = tmp_path / "snapshot.json"
    save_snapshot(snap, path)
    loaded = load_snapshot(path)
    np.testing.assert_array_equal(loaded.model.components, snap.model.components)
    np.testing.assert_array_equal(loaded.model.W, snap.model.W)
    np.testing.assert_array_equal(loaded.centers, snap.centers)
    np.testing.assert_array_equal(loaded.column_min, snap.column_min)
    assert loaded.per_cluster == snap.per_cluster
    assert loaded.config == country_config


def test_scoring_original_objects_matches_fit(tmp_path, country_config, country_dataset, country_run):
    snap = build_snapshot(country_config, country_dataset, country_run)
    path = tmp_path / "snapshot.json"
    save_snapshot(snap, path)
    rescored = score_with_snapshot(load_snapshot(path), country_dataset)
    assert rescored.categories() == country_run.ratings.categories()
    assert rescored.clusters == country_run.ratings.clusters


def test_scoring_new_objects(tmp_path, country_config, country_dataset, country_run):
    snap = build_snapshot(country_config, country_dataset, country_run)
    # a synthetic strong economy: best raw value per column by direction
    from relarm.dataset import Direction, RawDataset

    best = np.empty(country_dataset.n_indicators)
    worst = np.empty_like(best)
    for j, spec in enumerate(country_dataset.indicators):
        col = country_dataset.values[:, j]
        if spec.direction is Direction.POSITIVE:
            best[j], worst[j] = col.max(), col.min()
        else:
            best[j], worst[j] = col.min(), col.max()
    new = RawDataset(
        objects=("Utopia", "Dystopia"),
        indicators=country_dataset.indicators,
        values=np.vstack([best, worst]),
    )
    result = score_with_snapshot(snap, new)
    cats = result.categories()
    order = list(country_config.labels)
    assert order.index(cats["Utopia"]) < order.index(cats["Dystopia"])


def test_load_rejects_categories_that_disagree_with_projections(
    tmp_path, country_config, country_dataset, country_run
):
    path = tmp_path / "snapshot.json"
    save_snapshot(build_snapshot(country_config, country_dataset, country_run), path)
    doc = json.loads(path.read_text())
    cats = doc["clusters"]["categories"]
    best, worst = cats.index("AAA"), cats.index("CCC")
    cats[best], cats[worst] = "CCC", "AAA"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=str(path)):
        load_snapshot(path)


def _drop_last(rows):
    rows.pop()


@pytest.mark.parametrize("edit, key", [
    (lambda doc: _drop_last(doc["clusters"]["centers"][2]), "'clusters.centers'"),
    (lambda doc: _drop_last(doc["model"]["W"][4]), "'model.W'"),
    (lambda doc: doc.pop("clusters"), "'clusters'"),
    (lambda doc: doc["model"].pop("Lambda"), "'model.Lambda'"),
    (lambda doc: _drop_last(doc["clusters"]["centers"]), "'clusters.centers'"),
    (lambda doc: doc["model"].__setitem__("W", "none"), "'model.W'"),
    (lambda doc: doc["config"].__setitem__("k", "seven"), "'k'"),
    (lambda doc: doc["config"].__setitem__("k", 7.0), "'k'"),
    (lambda doc: doc["config"].__setitem__("center", "false"), "'center'"),
    (lambda doc: doc["config"]["indicators"][0].__setitem__("pre_normalized", 0),
     "'indicators[0].pre_normalized'"),
    (lambda doc: doc["model"].__setitem__("centered", "false"), "'model.centered'"),
    (lambda doc: doc["clusters"]["centers"][0].__setitem__(0, float("nan")),
     "'clusters.centers'"),
    (lambda doc: doc["normalization"]["column_max"].__setitem__(1, float("inf")),
     "'normalization.column_max'"),
], ids=["ragged-center", "ragged-W", "no-clusters", "no-Lambda", "center-missing",
        "W-not-numbers", "config-k", "config-k-float", "config-center-string",
        "config-pre-normalized-int", "model-centered-string", "center-nan",
        "column-max-infinite"])
def test_load_rejects_malformed_snapshot(
    tmp_path, country_config, country_dataset, country_run, edit, key
):
    path = tmp_path / "snapshot.json"
    save_snapshot(build_snapshot(country_config, country_dataset, country_run), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as exc:
        load_snapshot(path)
    assert str(exc.value).startswith(f"{path}: ") and key in str(exc.value)
