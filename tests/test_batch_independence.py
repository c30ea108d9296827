"""Scoring a row gives the same bytes whatever rows it is scored with.

Scaling by the stored ranges, the map through W and the nearest center
are all elementwise, each sum added in a fixed order, so a row's
features, cluster id and ``ratings.csv`` line depend on the snapshot and
the row alone: scored by itself, in any split of a table into shares, or
with the whole table.  A BLAS product takes another kernel for a single
row than for many, and so gives other last bits, so these tests also fail
if a BLAS call returns to the scoring path.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relarm.attributes import map_to_feature_space
from relarm.cli import main
from relarm.config import PipelineConfig
from relarm.dataset import Direction, IndicatorSpec, RawDataset
from relarm.io import rating_rows
from relarm.pipeline import run_pipeline
from relarm.snapshot import normalize_with_snapshot, score_rows


def scored(snapshot, ids, values):
    """The d x M features, cluster ids and ``ratings.csv`` lines of rows
    ``values``, scored in one call."""
    coords = map_to_feature_space(normalize_with_snapshot(snapshot, values), snapshot.model)
    rated = score_rows(snapshot, ids, values)
    return coords, list(rated.clusters), rating_rows(rated)


def assert_split_scores_as_bulk(snapshot, values, bounds):
    """``values`` scored in the shares that ``bounds`` (0, cuts..., M)
    cut, and one row at a time, give the bulk bytes."""
    ids = [f"o{i}" for i in range(len(values))]
    coords, clusters, text = scored(snapshot, ids, values)
    for cut in (bounds, range(len(values) + 1)):
        parts = [scored(snapshot, ids[a:b], values[a:b]) for a, b in zip(cut, cut[1:])]
        assert np.concatenate([p[0] for p in parts], axis=1).tobytes() == coords.tobytes()
        assert [q for p in parts for q in p[1]] == clusters
        assert "".join(p[2] for p in parts) == text


def test_each_country_scored_alone_as_in_bulk(country_dataset, country_run):
    """Each of the 30 countries scored by itself gives its bulk features,
    cluster and line, bit for bit, and so do the fit's own ratings."""
    values = country_dataset.values
    assert_split_scores_as_bulk(country_run.snapshot, values, [0, 7, 8, 30])
    coords, clusters, _ = scored(country_run.snapshot, country_dataset.objects, values)
    assert coords.tobytes() == country_run.features.T.tobytes()
    assert tuple(clusters) == country_run.ratings.clusters


def test_assign_of_one_row_files_writes_the_bulk_lines(tmp_path, data_dir, country_run):
    """``relarm assign`` of each country in a file of its own writes the
    line that the whole table's assign writes for it."""
    fit = tmp_path / "fit"
    assert main(["fit", "--config", str(data_dir / "country_config.json"),
                 "--data", str(data_dir / "country_raw.csv"), "--out-dir", str(fit)]) == 0
    header, *rows = (data_dir / "country_raw.csv").read_text(encoding="utf-8").splitlines()

    def assign(lines, name):
        (tmp_path / f"{name}.csv").write_text("\n".join([header, *lines]) + "\n",
                                              encoding="utf-8")
        assert main(["assign", "--snapshot", str(fit / "snapshot.json"),
                     "--data", str(tmp_path / f"{name}.csv"),
                     "--out-dir", str(tmp_path / name)]) == 0
        return (tmp_path / name / "ratings.csv").read_text(encoding="utf-8").splitlines()

    bulk_header, *bulk = assign(rows, "bulk")
    for i, row in enumerate(rows):
        assert assign([row], f"row{i}") == [bulk_header, bulk[i]], row


@st.composite
def snapshots(draw):
    """A snapshot fitted on a random table of 12-40 objects and 1-12
    indicators, with columns of unlike scales, either direction and some
    pre-normalized."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(12, 40)), draw(st.integers(1, 12))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    indicators = tuple(
        IndicatorSpec(f"x{j}", draw(st.sampled_from(list(Direction))), pre)
        for j, pre in enumerate(flags)
    )
    values = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3, 3, size=n)
    values[:, flags] = rng.uniform(size=(m, sum(flags)))
    k = draw(st.integers(1, 5))
    config = PipelineConfig(indicators=indicators, k=k, labels=tuple("ABCDE"[:k]),
                            seed=0, restarts=2)
    dataset = RawDataset(tuple(f"f{i}" for i in range(m)), indicators, values)
    return run_pipeline(config, dataset).snapshot


@settings(max_examples=60)
@given(snapshots(), st.data())
def test_rows_score_alone_in_shares_and_in_bulk_alike(snapshot, data):
    """New rows, inside the fit's ranges and past them, scored one at a
    time, in any split into shares and in bulk give the same bytes."""
    lo, hi = snapshot.column_min, snapshot.column_max
    n = len(lo)
    m = data.draw(st.integers(1, 30))
    where = data.draw(st.lists(st.lists(st.floats(-0.5, 1.5), min_size=n, max_size=n),
                               min_size=m, max_size=m))
    values = lo + np.array(where) * (hi - lo)
    cuts = data.draw(st.lists(st.integers(1, m), max_size=4))
    assert_split_scores_as_bulk(snapshot, values, sorted({0, m, *cuts}))
