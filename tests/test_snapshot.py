import json
from pathlib import Path

import numpy as np
import pytest

from relarm.cli import main
from relarm.dataset import Direction, IndicatorSpec, RawDataset
from relarm.errors import ValidationError
from relarm.pipeline import build_snapshot, run_pipeline
from relarm.snapshot import load_snapshot, save_snapshot, score_with_snapshot

# written by `relarm fit` on the country sample before format 2
SNAPSHOT_V1 = Path(__file__).parent / "data" / "snapshot_country_v1.json"


def test_snapshot_roundtrip_is_lossless(tmp_path, country_config, country_dataset, country_run):
    snap = build_snapshot(country_config, country_dataset, country_run)
    path = tmp_path / "snapshot.json"
    save_snapshot(snap, path)
    loaded = load_snapshot(path)
    assert loaded.model.components is None
    np.testing.assert_array_equal(loaded.model.Lambda, snap.model.Lambda)
    np.testing.assert_array_equal(loaded.model.variance_fractions, snap.model.variance_fractions)
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


def test_indicators_declared_otherwise_are_rejected(
    country_config, country_dataset, country_run
):
    # gdp_growth declared negative: the snapshot would store the config's
    # positive direction for a fit made with the negative one
    first, *rest = country_dataset.indicators
    flipped = RawDataset(
        objects=country_dataset.objects,
        indicators=(IndicatorSpec(first.name, Direction.NEGATIVE), *rest),
        values=country_dataset.values,
    )
    with pytest.raises(ValidationError) as exc:
        run_pipeline(country_config, flipped)
    assert str(exc.value) == (
        "dataset indicator 1 is 'gdp_growth' (negative), but the configuration "
        "declares 'gdp_growth' (positive)"
    )
    snap = build_snapshot(country_config, country_dataset, country_run)
    with pytest.raises(ValidationError, match="'gdp_growth' \\(negative\\), but the snapshot"):
        score_with_snapshot(snap, flipped)
    fewer = RawDataset(
        objects=country_dataset.objects,
        indicators=country_dataset.indicators[:-1],
        values=country_dataset.values[:, :-1],
    )
    with pytest.raises(ValidationError, match="indicator 9 is absent, but the configuration"):
        run_pipeline(country_config, fewer)


def test_format_1_snapshot_assigns_like_run(tmp_path, data_dir):
    common = ["--data", str(data_dir / "country_raw.csv"), "--out-dir"]
    assert main(["run", "--config", str(data_dir / "country_config.json"),
                 *common, str(tmp_path / "run")]) == 0
    assert main(["assign", "--snapshot", str(SNAPSHOT_V1),
                 *common, str(tmp_path / "assigned")]) == 0
    run = (tmp_path / "run" / "ratings.csv").read_bytes()
    assert (tmp_path / "assigned" / "ratings.csv").read_bytes() == run


def test_format_1_snapshot_saves_as_format_2_without_unread_keys(tmp_path):
    path = tmp_path / "snapshot.json"
    save_snapshot(load_snapshot(SNAPSHOT_V1), path)
    doc = json.loads(SNAPSHOT_V1.read_text())
    assert doc["format_version"] == 1
    del doc["model"]["components"], doc["model"]["column_means"]
    doc["format_version"] = 2
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


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


def _scale(section, key, factor):
    section[key] = [factor * x for x in section[key]]


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
    (lambda doc: doc.__setitem__("format_version", 3), "unsupported snapshot format 3"),
    (lambda doc: _scale(doc["model"], "Lambda", 3), "'model.Lambda'"),
    (lambda doc: _scale(doc["clusters"], "projections", 7), "'clusters.projections'"),
], ids=["ragged-center", "ragged-W", "no-clusters", "no-Lambda", "center-missing",
        "W-not-numbers", "config-k", "config-k-float", "config-center-string",
        "config-pre-normalized-int", "model-centered-string", "center-nan",
        "column-max-infinite", "format-version-3", "Lambda-tripled",
        "projections-times-7"])
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


def test_load_accepts_projections_a_rounding_apart(
    tmp_path, country_config, country_dataset, country_run
):
    """Another BLAS may round a center's projection differently: a snapshot
    whose projections are one ulp off still loads, and keeps them."""
    path = tmp_path / "snapshot.json"
    save_snapshot(build_snapshot(country_config, country_dataset, country_run), path)
    doc = json.loads(path.read_text())
    nudged = np.nextafter(doc["clusters"]["projections"], np.inf).tolist()
    doc["clusters"]["projections"] = nudged
    path.write_text(json.dumps(doc))
    loaded = load_snapshot(path)
    assert [c.projection for c in sorted(loaded.per_cluster, key=lambda c: c.cluster)] == nudged
