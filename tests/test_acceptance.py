"""Acceptance suite: one test per criterion, each printing a PASS line
at its stated tolerance (run with `pytest -s tests/test_acceptance.py`
to see the lines)."""

import shutil
import time

import numpy as np
import pytest

from relarm.clustering import Xorshift64Star, _kmeanspp_init, _lloyd, kmeans
from relarm.dataset import Direction, IndicatorSpec, RawDataset
from relarm.io import read_ratings_csv, read_reference_csv
from relarm.normalize import normalize_dataset
from relarm.pca import derive_weights, fit_pca
from relarm.pipeline import run_pipeline
from relarm.rating import RatingScale, assign_ratings, score_agreement

from fixture_check import verify_fixture_w


def report(name):
    print(f"\nACCEPTANCE {name}: PASS")


def test_criterion_1_normalization_fixture():
    dataset = RawDataset(
        objects=("a", "b", "c"),
        indicators=(
            IndicatorSpec("pos", Direction.POSITIVE),
            IndicatorSpec("neg", Direction.NEGATIVE),
        ),
        values=np.array([[4.44, 7.5], [3.3, -1.3], [5.76, 180.9]]),
    )
    # the fastest of 5 calls: a cold first call can be several times slower
    elapsed = []
    for _ in range(5):
        t0 = time.perf_counter()
        normalized = normalize_dataset(dataset)
        elapsed.append(time.perf_counter() - t0)
    pos, neg = normalized[0]
    assert pos == pytest.approx(0.4634, abs=1e-4)
    assert neg == pytest.approx(0.9517, abs=1e-4)
    assert min(elapsed) < 1e-3
    report("1 (normalization fixture, <1ms)")


def test_criterion_2_fixture_self_consistency(table5_w, table6_lambda):
    fixture = verify_fixture_w(
        table5_w, table6_lambda, column_tol=1e-3, lambda_expected=0.96, lambda_tol=5e-3
    )
    assert fixture.ok, fixture.failures
    report("2 (shipped W/Lambda fixtures self-consistent)")


def test_criterion_3a_end_to_end_invariants(country_config, country_dataset):
    # exact regeneration of the paper's result tables is out of reach:
    # the experiment's 10th expert column is unpublished and its
    # clustering seed is unstated; this run checks every module
    # invariant on the 9 published columns instead.
    t0 = time.perf_counter()
    out = run_pipeline(country_config, country_dataset)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0

    model = out.model
    np.testing.assert_allclose(model.W.sum(axis=0), np.ones(model.d), atol=1e-12)
    cum = np.cumsum(model.variance_fractions)
    assert cum[model.d - 1] >= 0.95
    assert model.d == 1 or cum[model.d - 2] < 0.95

    labels = set(out.clusters.assignments)
    assert labels == set(range(1, 8))  # 7 non-empty clusters
    categories = {c.category for c in out.ratings.per_cluster}
    assert len(categories) == 7  # bijective cluster -> category mapping
    report("3a (end-to-end run <1s, all module invariants)")


def test_criterion_3b_sanity_ordering(country_config, country_dataset):
    out = run_pipeline(country_config, country_dataset)
    cats = out.ratings.categories()
    order = list(country_config.labels)
    for strong in ("Switzerland", "Norway", "Germany"):
        assert order.index(cats[strong]) < order.index(cats["Venezuela"]), (
            f"{strong} ({cats[strong]}) not above Venezuela ({cats['Venezuela']})"
        )
    report("3b (Switzerland/Norway/Germany strictly above Venezuela)")


def test_criterion_4_pca_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        m = int(rng.integers(4, 13))
        n = int(rng.integers(2, 7))
        x = rng.uniform(size=(m, n))
        model = fit_pca(x, 0.95)
        c = (x - x.mean(axis=0)).T @ (x - x.mean(axis=0)) / (m - 1)
        ref_vals, ref_vecs = np.linalg.eigh(c)
        order = np.argsort(-ref_vals)
        ref_vals = np.maximum(ref_vals[order], 0.0)
        ref_vecs = ref_vecs[:, order]
        np.testing.assert_allclose(
            model.variance_fractions, ref_vals / ref_vals.sum(), atol=1e-8
        )
        ref_abs = np.abs(ref_vecs / np.abs(ref_vecs).sum(axis=0))
        # null-space eigenvectors (zero eigenvalues) are basis-dependent;
        # compare only up to the numerical rank
        rank = int(np.sum(ref_vals > 1e-12 * ref_vals.sum()))
        np.testing.assert_allclose(
            np.abs(model.components[:, :rank]), ref_abs[:, :rank], atol=1e-8
        )
        # eigenpair residuals of the implementation's own eigenvectors
        vecs = model.components / np.linalg.norm(model.components, axis=0)
        vals = model.variance_fractions * np.trace(c)
        assert np.abs(c @ vecs - vecs * vals).max() < 1e-10
    report("4 (200 random PCA instances match brute-force oracle)")


def test_criterion_5_kmeans_properties(tmp_path, data_dir):
    rng = np.random.default_rng(99)
    # SSE non-increasing per Lloyd iteration on 100 random instances
    for _ in range(100):
        pts = rng.uniform(size=(int(rng.integers(8, 40)), int(rng.integers(1, 5))))
        k = int(rng.integers(2, 6))
        centers = _kmeanspp_init(pts, k, Xorshift64Star(int(rng.integers(0, 2**32))))
        _, _, _, history = _lloyd(pts, centers, 300)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    # exact planted-partition recovery at >= 10x separation
    k, per, spread = 5, 12, 0.02
    blob_centers = rng.uniform(size=(k, 3))
    blob_centers = blob_centers * 10  # inter-center distance >> 10 * spread
    pts = np.vstack(
        [c + rng.normal(scale=spread, size=(per, 3)) for c in blob_centers]
    )
    truth = np.repeat(np.arange(k), per)
    res = kmeans(pts, k=k, seed=4, restarts=10)
    mapping = {}
    for t, f in zip(truth, res.assignments):
        mapping.setdefault(t, f)
        assert mapping[t] == f
    assert len(set(mapping.values())) == k

    # byte-identical outputs for identical seeds (full CLI run, twice)
    from relarm.cli import main

    shutil.copy(data_dir / "country_raw.csv", tmp_path / "data.csv")
    shutil.copy(data_dir / "country_config.json", tmp_path / "config.json")
    for sub in ("r1", "r2"):
        assert main([
            "run", "--config", str(tmp_path / "config.json"),
            "--data", str(tmp_path / "data.csv"),
            "--out-dir", str(tmp_path / sub), "--dump-intermediates",
        ]) == 0
    for name in ("ratings.csv", "snapshot.json", "features.csv", "centers.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (
            tmp_path / "r2" / name
        ).read_bytes()
    report("5 (k-means SSE monotone, planted recovery, byte determinism)")


def test_criterion_6_ranking_function_properties():
    from relarm.attributes import map_to_feature_space

    rng = np.random.default_rng(7)
    checked = 0
    while checked < 1000:
        m = int(rng.integers(4, 10))
        n = int(rng.integers(2, 6))
        model = fit_pca(rng.uniform(size=(m, n)), 0.95)
        for _ in range(10):
            lo = rng.uniform(size=n)
            hi = np.minimum(lo + rng.uniform(size=n) * (1.0 - lo), 1.0)
            r_lo, r_hi = map_to_feature_space(np.vstack([lo, hi]), model)
            for p in range(model.d):
                assert r_hi[p] >= r_lo[p] - 1e-12
                assert -1e-12 <= r_lo[p] <= 1.0 + 1e-12
                assert -1e-12 <= r_hi[p] <= 1.0 + 1e-12
            checked += 1
            if checked >= 1000:
                break
    report("6 (1000 monotonicity + range checks on ranking functions)")


def test_criterion_7_ordering_invariances(country_config, country_dataset):
    out = run_pipeline(country_config, country_dataset)
    scale = country_config.scale
    objects = country_dataset.objects
    base = assign_ratings(objects, out.clusters, out.model.Lambda, scale)

    # scaling the rating vector never changes categories
    for c in (0.1, 3.0, 100.0):
        scaled = assign_ratings(objects, out.clusters, c * out.model.Lambda, scale)
        assert scaled.categories() == base.categories()

    # permuting cluster ids never changes per-object categories
    from relarm.clustering import ClusteringResult

    k = out.clusters.k
    rng = np.random.default_rng(1)
    perm = rng.permutation(k) + 1  # old id q -> perm[q-1]
    inverse = {int(perm[q - 1]): q for q in range(1, k + 1)}
    permuted = ClusteringResult(
        assignments=tuple(int(perm[a - 1]) for a in out.clusters.assignments),
        centers=np.array([out.clusters.centers[inverse[q + 1] - 1] for q in range(k)]),
        sse=out.clusters.sse,
        restarts_used=out.clusters.restarts_used,
        seed=out.clusters.seed,
    )
    relabeled = assign_ratings(objects, permuted, out.model.Lambda, scale)
    assert relabeled.categories() == base.categories()

    # flipping any eigenvector sign leaves the whole pipeline bit-identical
    from relarm.attributes import map_to_feature_space

    for p in range(out.model.components.shape[1]):
        flipped = np.array(out.model.components)
        flipped[:, p] = -flipped[:, p]
        model2 = derive_weights(
            flipped,
            out.model.variance_fractions,
            out.model.variance_threshold,
            centered=out.model.centered,
        )
        assert model2.d == out.model.d
        assert np.array_equal(model2.W, out.model.W)
        assert np.array_equal(model2.Lambda, out.model.Lambda)
        features2 = map_to_feature_space(out.normalized, model2)
        assert np.array_equal(features2, out.features)
        clusters2 = kmeans(
            features2, k=country_config.k, seed=country_config.seed,
            restarts=country_config.restarts,
        )
        assert clusters2.assignments == out.clusters.assignments
        assert np.array_equal(clusters2.centers, out.clusters.centers)
        ratings2 = assign_ratings(objects, clusters2, model2.Lambda, scale)
        assert ratings2 == out.ratings
    report("7 (scale/relabel/sign invariances)")


def test_criterion_8_agreement_scoring(data_dir):
    result = read_ratings_csv(data_dir / "table8_model_categories.csv")
    reference = read_reference_csv(data_dir / "table8_reference.csv")
    scale = RatingScale(("AAA", "AA", "A", "BBB", "BB", "B", "CCC"))
    report_ = score_agreement(result, reference, scale=scale)
    assert report_.matched == 26
    assert report_.compared == 30
    assert report_.fraction == pytest.approx(26 / 30, abs=1e-12)
    report("8 (match grid scores 26/30 = 0.867)")
