import numpy as np
import pytest

from relarm.errors import ValidationError
from relarm.io import read_ratings_csv, read_reference_csv
from relarm.rating import (
    assign_ratings,
    bind_categories,
    collapse_category,
    project_center,
    score_agreement,
)

LABELS7 = ("AAA", "AA", "A", "BBB", "BB", "B", "CCC")


def bind(centers, rating_vector, labels):
    """The per-cluster table of ``centers`` by projection on ``rating_vector``."""
    return bind_categories([project_center(c, rating_vector) for c in centers], labels)


def rate(objects, centers, assignments, rating_vector, labels):
    """Rate objects that sit on their assigned (1-based) centers."""
    centers = np.asarray(centers, dtype=np.float64)
    coords = centers[np.asarray(assignments) - 1].T
    result = assign_ratings(objects, coords, centers, bind(centers, rating_vector, labels))
    assert result.clusters == tuple(assignments)
    return result


def ids(n):
    return tuple(f"o{i}" for i in range(n))


class TestProjection:
    def test_direct_arithmetic(self):
        assert project_center([0.5, 0.5], [0.8, 0.2]) == pytest.approx(0.5)

    def test_zero_center(self):
        assert project_center([0.0, 0.0], [0.4, 0.6]) == 0.0

    def test_published_center_row(self, table7_centers, table6_lambda):
        cc = table7_centers[0]
        expected = abs(float(np.dot(cc, table6_lambda)))
        assert project_center(cc, table6_lambda) == pytest.approx(expected, abs=1e-15)
        # oracle: explicit summation in Lambda's order, which is the
        # projection's own, bit for bit
        naive = 0.0
        for c, l in zip(cc.tolist(), table6_lambda.tolist()):
            naive += c * l
        assert project_center(cc, table6_lambda) == abs(naive)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            project_center([1.0, 2.0], [1.0])


class TestAssign:
    def test_two_clusters(self):
        result = rate(ids(3), [[0.9], [0.1]], [1, 2, 2], [1.0], ("A", "B"))
        cats = result.categories()
        assert cats["o0"] == "A" and cats["o1"] == "B"

    def test_single_cluster(self):
        result = rate(ids(3), [[0.4]], [1, 1, 1], [1.0], ("only",))
        assert set(result.categories().values()) == {"only"}

    def test_scale_size_mismatch(self):
        with pytest.raises(ValidationError):
            rate(ids(2), [[0.9], [0.1]], [1, 2], [1.0], LABELS7)

    def test_ties_flagged_and_broken_by_index(self):
        # equal projections, |0.5| and |-0.5|, from two distinct centers
        result = rate(ids(2), [[0.5], [-0.5]], [1, 2], [1.0], ("A", "B"))
        assert result.categories() == {"o0": "A", "o1": "B"}
        # equal centers: the table still binds by id, and an object at equal
        # distance from both goes to the lower id
        centers = np.array([[0.5], [0.5]])
        per_cluster = bind(centers, [1.0], ("A", "B"))
        assert [(c.cluster, c.category) for c in per_cluster] == [(1, "A"), (2, "B")]
        assert assign_ratings(ids(2), centers.T, centers, per_cluster).clusters == (1, 1)

    def test_objects_in_same_cluster_share_category(self, country_run):
        ratings = country_run.ratings
        category_of = {c.cluster: c.category for c in ratings.per_cluster}
        cats = ratings.categories()
        assert list(cats) == list(ratings.objects)
        assert [cats[o] for o in ratings.objects] == [
            category_of[q] for q in ratings.clusters
        ]

    def test_scale_invariance_of_ordering(self, country_run):
        base = country_run.ratings.categories()
        centers = country_run.clusters.centers
        for c in (0.1, 3.0, 100.0):
            scaled = assign_ratings(
                country_run.ratings.objects,
                country_run.features.T,
                centers,
                bind(centers, c * country_run.snapshot.model.Lambda, LABELS7),
            )
            assert scaled.categories() == base

    def test_label_permutation_invariance(self, country_run):
        centers = country_run.clusters.centers
        k = centers.shape[0]
        perm = np.roll(np.arange(1, k + 1), 3)  # old id q -> perm[q-1]
        permuted = np.array(
            [centers[int(np.where(perm == q + 1)[0][0])] for q in range(k)]
        )
        objects, coords = country_run.ratings.objects, country_run.features.T
        lam = country_run.snapshot.model.Lambda
        base = assign_ratings(objects, coords, centers, bind(centers, lam, LABELS7))
        other = assign_ratings(objects, coords, permuted, bind(permuted, lam, LABELS7))
        assert other.clusters == tuple(int(perm[q - 1]) for q in base.clusters)
        assert base.categories() == other.categories()

    def test_rows_of_objects_are_refused(self):
        # the coordinates are d x M, one column per object; M x d rows (the
        # layout of ``PipelineOutputs.features``) are a ValidationError
        centers = np.array([[0.9, 0.1], [0.1, 0.9]])
        rows = np.array([[0.8, 0.2], [0.2, 0.8], [0.5, 0.4]])
        per_cluster = bind(centers, [0.5, 0.5], ("A", "B"))
        assert assign_ratings(ids(3), rows.T, centers, per_cluster).clusters == (1, 2, 1)
        with pytest.raises(ValidationError, match=r"coordinates of shape \(3, 2\) for 3 objects"):
            assign_ratings(ids(3), rows, centers, per_cluster)

    def test_monotone_consistency(self):
        result = rate(ids(2), [[0.6, 0.5], [0.4, 0.5]], [1, 2], [0.7, 0.3], ("hi", "lo"))
        order = [c.cluster for c in result.per_cluster]  # best first
        assert order.index(1) < order.index(2)


class TestCollapse:
    def test_modifier_stripping(self):
        assert collapse_category("AA+", LABELS7) == "AA"
        assert collapse_category("BBB-", LABELS7) == "BBB"
        assert collapse_category("CCC", LABELS7) == "CCC"

    def test_explicit_table_wins(self):
        assert collapse_category("Aa1", LABELS7, {"Aa1": "AA"}) == "AA"

    def test_uncollapsible_rejected(self):
        with pytest.raises(ValidationError, match="collapse"):
            collapse_category("ZZZ", LABELS7)


class TestScoreAgreement:
    def test_subcategory_match(self):
        result = rate(("x", "y"), [[0.9], [0.1]], [1, 2], [1.0], ("AA", "A"))
        report = score_agreement(
            result, {"x": {"Fitch": "AA+"}}, labels=LABELS7
        )
        assert report.matched == 1 and report.compared == 1

    def test_must_match_at_least_one_agency(self):
        result = rate(("x", "y"), [[0.9], [0.1]], [1, 2], [1.0], ("BBB", "B"))
        report = score_agreement(
            result,
            {"x": {"S&P": "A", "Moody's": "A", "Fitch": "A"}},
            labels=LABELS7,
        )
        assert report.matched == 0 and report.compared == 1

    def test_unrated_objects_excluded_from_denominator(self):
        result = rate(("x", "y"), [[0.9], [0.1]], [1, 2], [1.0], ("AA", "A"))
        report = score_agreement(result, {"x": {"Fitch": "AA"}}, labels=LABELS7)
        assert report.compared == 1

    def test_empty_reference(self):
        result = rate(ids(2), [[0.9], [0.1]], [1, 2], [1.0], ("AA", "A"))
        report = score_agreement(result, {}, labels=LABELS7)
        assert report.compared == 0 and report.fraction is None

    def test_reference_object_missing_from_results_is_skipped(self):
        result = rate(("x", "y"), [[0.9], [0.1]], [1, 2], [1.0], ("AA", "A"))
        report = score_agreement(result, {"ghost": {"Fitch": "AA"}}, labels=LABELS7)
        assert report.skipped == ("ghost",)
        assert report.compared == 0

    def test_published_match_grid(self, data_dir):
        result = read_ratings_csv(data_dir / "table8_model_categories.csv")
        reference = read_reference_csv(data_dir / "table8_reference.csv")
        report = score_agreement(result, reference, labels=LABELS7)
        assert report.matched == 26
        assert report.compared == 30
        assert report.fraction == pytest.approx(26 / 30)
