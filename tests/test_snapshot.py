import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from relarm.cli import main
from relarm.config import PipelineConfig
from relarm.dataset import Direction, IndicatorSpec, RawDataset
from relarm.errors import RelarmError, ValidationError
from relarm.io import read_ratings_csv
from relarm.pipeline import run_pipeline
from relarm.snapshot import load_snapshot, save_snapshot, score_with_snapshot
from test_golden import TOL

# written by `relarm fit` on the country sample in format 1
SNAPSHOT_V1 = Path(__file__).parent / "data" / "snapshot_country_v1.json"


def test_snapshot_roundtrip_is_lossless(tmp_path, country_config, country_run):
    snap = country_run.snapshot
    path = tmp_path / "snapshot.json"
    save_snapshot(snap, path)
    loaded = load_snapshot(path)
    for a in (loaded.model.W, loaded.model.Lambda, loaded.model.variance_fractions):
        assert not a.flags.writeable
    np.testing.assert_array_equal(loaded.model.Lambda, snap.model.Lambda)
    np.testing.assert_array_equal(loaded.model.variance_fractions, snap.model.variance_fractions)
    np.testing.assert_array_equal(loaded.model.W, snap.model.W)
    np.testing.assert_array_equal(loaded.centers, snap.centers)
    np.testing.assert_array_equal(loaded.column_min, snap.column_min)
    assert loaded.per_cluster == snap.per_cluster
    assert loaded.config == country_config


def test_scoring_original_objects_matches_fit(tmp_path, country_dataset, country_run):
    snap = country_run.snapshot
    path = tmp_path / "snapshot.json"
    save_snapshot(snap, path)
    rescored = score_with_snapshot(load_snapshot(path), country_dataset)
    assert rescored.categories() == country_run.ratings.categories()
    assert rescored.clusters == country_run.ratings.clusters


VALUE =st.one_of(st.integers(-3, 3).map(float), st.floats(-100, 100))


@st.composite
def fits(draw):
    """A small dataset, with repeated values likely, and a config to fit
    it, stopped at 1, 2 or 3 Lloyd iterations or run to convergence."""
    m, n = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    rows = st.lists(VALUE, min_size=n, max_size=n)
    indicators = tuple(
        IndicatorSpec(f"x{j}", draw(st.sampled_from(list(Direction)))) for j in range(n)
    )
    dataset = RawDataset(
        objects=tuple(f"o{i}" for i in range(m)),
        indicators=indicators,
        values=np.array(draw(st.lists(rows, min_size=m, max_size=m))),
    )
    k = draw(st.integers(1, min(m, 4)))
    config = PipelineConfig(
        indicators=indicators,
        k=k,
        labels=tuple("ABCD"[:k]),
        seed=draw(st.integers(0, 2**32)),
        restarts=draw(st.integers(1, 4)),
        max_iterations=draw(st.sampled_from([1, 2, 3, 300])),
    )
    return config, dataset


@pytest.mark.filterwarnings("ignore::relarm.normalize.ConstantColumnWarning")
@settings(max_examples=200, deadline=None)
@given(fits())
def test_saved_snapshot_rates_the_fit_data_as_run_does(tmp_path_factory, fit):
    config, dataset = fit
    try:
        outputs = run_pipeline(config, dataset)
    except RelarmError:  # k above the distinct points, or no variance at all
        reject()
    path = tmp_path_factory.mktemp("fit") / "snapshot.json"
    save_snapshot(outputs.snapshot, path)
    assert score_with_snapshot(load_snapshot(path), dataset) == outputs.ratings
    if outputs.clusters.converged:
        assert outputs.ratings.clusters == outputs.clusters.assignments


def test_run_rates_by_nearest_center_after_a_repair_at_the_cap(tmp_path):
    """a and c are a squared distance 0 apart (1e-200 squared underflows),
    so the first Lloyd step leaves a cluster empty, and the repair moves a
    into it; stopped there, k-means reports a in cluster 3 though center
    1 is as near.  run rates a by its nearest center, as assign does."""
    spec = (IndicatorSpec("x", Direction.POSITIVE),)
    dataset = RawDataset(("a", "b", "c"), spec, np.array([[0.0], [1.0], [1e-200]]))
    config = PipelineConfig(
        indicators=spec, k=3, labels=("A", "B", "C"), seed=0, restarts=1, max_iterations=1
    )
    outputs = run_pipeline(config, dataset)
    assert outputs.clusters.assignments == (3, 2, 1)
    assert not outputs.clusters.converged
    assert outputs.ratings.clusters == (1, 2, 1)
    save_snapshot(outputs.snapshot, tmp_path / "snapshot.json")
    assert score_with_snapshot(load_snapshot(tmp_path / "snapshot.json"), dataset) == outputs.ratings


def test_scoring_new_objects(tmp_path, country_config, country_dataset, country_run):
    snap = country_run.snapshot
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
    snap = country_run.snapshot
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
    # the stored snapshot was fitted on one OpenBLAS kernel, so a fresh run on
    # another may move a projection in its last digits, but no rating
    run = read_ratings_csv(tmp_path / "run" / "ratings.csv")
    assigned = read_ratings_csv(tmp_path / "assigned" / "ratings.csv")
    assert assigned.objects == run.objects and assigned.clusters == run.clusters
    assert assigned.categories() == run.categories()
    np.testing.assert_allclose([c.projection for c in assigned.per_cluster],
                               [c.projection for c in run.per_cluster], rtol=0, atol=TOL)


def test_format_1_snapshot_saves_as_format_3_without_unread_keys(tmp_path):
    path = tmp_path / "snapshot.json"
    save_snapshot(load_snapshot(SNAPSHOT_V1), path)
    doc = json.loads(SNAPSHOT_V1.read_text())
    assert doc["format_version"] == 1
    del doc["model"]["components"], doc["model"]["column_means"]
    del doc["model"]["variance_threshold"], doc["model"]["centered"]
    del doc["config"]["distance"], doc["config"]["center"]
    doc["format_version"] = 3
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_format_2_snapshot_assigns_like_run_and_saves_as_format_3(tmp_path, data_dir):
    common = ["--data", str(data_dir / "country_raw.csv"), "--out-dir"]
    assert main(["run", "--config", str(data_dir / "country_config.json"),
                 *common, str(tmp_path / "run")]) == 0
    written = (tmp_path / "run" / "snapshot.json").read_text()
    # the keys format 2 stored besides those of format 3, at their only values
    doc = json.loads(written)
    doc["format_version"] = 2
    doc["config"].update(distance="euclidean", center=True)
    doc["model"].update(variance_threshold=doc["config"]["variance_threshold"], centered=True)
    v2 = tmp_path / "v2.json"
    v2.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert main(["assign", "--snapshot", str(v2), *common, str(tmp_path / "assigned")]) == 0
    run = (tmp_path / "run" / "ratings.csv").read_bytes()
    assert (tmp_path / "assigned" / "ratings.csv").read_bytes() == run
    save_snapshot(load_snapshot(v2), tmp_path / "resaved.json")
    assert (tmp_path / "resaved.json").read_text() == written


def test_load_rejects_categories_that_disagree_with_projections(tmp_path, country_run):
    path = tmp_path / "snapshot.json"
    save_snapshot(country_run.snapshot, path)
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


def _swap_ranges(doc):
    ranges = doc["normalization"]
    ranges["column_min"], ranges["column_max"] = ranges["column_max"], ranges["column_min"]


def _overflow_range(doc):
    j = [s["name"] for s in doc["config"]["indicators"]].index("inflation")
    doc["normalization"]["column_min"][j] = -1e308
    doc["normalization"]["column_max"][j] = 1e308


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
    (lambda doc: doc["config"]["indicators"][1].__setitem__("name", "gdp_growth"),
     "'config': 'indicators[1].name' repeats 'gdp_growth'"),
    (lambda doc: doc["config"].__setitem__("indicators", {"indicators": []}),
     "'config': 'indicators' must be a non-empty list, got {"),
    (lambda doc: doc["clusters"]["centers"][0].__setitem__(0, float("nan")),
     "'clusters.centers'"),
    (lambda doc: doc["normalization"]["column_max"].__setitem__(1, float("inf")),
     "'normalization.column_max'"),
    (lambda doc: doc.__setitem__("format_version", 4), "unsupported snapshot format 4"),
    (lambda doc: _scale(doc["model"], "Lambda", 3), "'model.Lambda'"),
    (lambda doc: _scale(doc["clusters"], "projections", 7), "'clusters.projections'"),
    (_swap_ranges, "'normalization.column_min' 6.9 exceeds 'normalization.column_max' "
     "-0.7 for indicator 'gdp_growth'"),
    (_overflow_range, "'normalization': column 'inflation': the width hi - lo of its "
     "range [-1e+308, 1e+308] is not a finite number"),
], ids=["ragged-center", "ragged-W", "no-clusters", "no-Lambda", "center-missing",
        "W-not-numbers", "config-k", "config-k-float", "config-center-string",
        "config-pre-normalized-int", "config-repeated-name", "config-indicators-object",
        "center-nan", "column-max-infinite", "format-version-4", "Lambda-tripled",
        "projections-times-7", "ranges-swapped", "range-overflows"])
def test_load_rejects_malformed_snapshot(tmp_path, country_run, edit, key):
    path = tmp_path / "snapshot.json"
    save_snapshot(country_run.snapshot, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as exc:
        load_snapshot(path)
    assert str(exc.value).startswith(f"{path}: ") and key in str(exc.value)


def test_load_accepts_projections_a_rounding_apart(tmp_path, country_run):
    """Another BLAS may round a center's projection differently: a snapshot
    whose projections are one ulp off still loads, and keeps them."""
    path = tmp_path / "snapshot.json"
    save_snapshot(country_run.snapshot, path)
    doc = json.loads(path.read_text())
    nudged = np.nextafter(doc["clusters"]["projections"], np.inf).tolist()
    doc["clusters"]["projections"] = nudged
    path.write_text(json.dumps(doc))
    loaded = load_snapshot(path)
    assert [c.projection for c in sorted(loaded.per_cluster, key=lambda c: c.cluster)] == nudged
