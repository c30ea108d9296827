import csv
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relarm.io import atomic_write, rating_rows, write_rating_rows, write_ratings_csv
from relarm.rating import ClusterRating, RatingResult

# every character csv.writer quotes for, beside ones it leaves alone
TEXT = st.text(alphabet=',"\r\n ab\t\'é中', max_size=5)


@st.composite
def ratings(draw):
    k = draw(st.integers(1, 4))
    per_cluster = tuple(
        ClusterRating(
            cluster=q + 1,
            projection=draw(st.floats(allow_nan=False, allow_infinity=False)),
            category=draw(TEXT),
        )
        for q in range(k)
    )
    objects = draw(st.lists(TEXT, max_size=8))
    clusters = [draw(st.integers(1, k)) for _ in objects]
    return RatingResult(tuple(objects), tuple(clusters), per_cluster)


@settings(max_examples=300, deadline=None)
@given(ratings())
def test_ratings_csv_equals_csv_writer_rows(tmp_path_factory, result):
    path = tmp_path_factory.mktemp("w") / "ratings.csv"
    write_ratings_csv(path, result)
    cluster = {c.cluster: c for c in result.per_cluster}
    expected = path.with_name("expected.csv")
    with open(expected, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["object", "cluster", "projection", "category"])
        for obj, q in zip(result.objects, result.clusters):
            w.writerow([obj, q, repr(cluster[q].projection), cluster[q].category])
    assert path.read_bytes() == expected.read_bytes()


@settings(max_examples=200, deadline=None)
@given(ratings(), st.lists(st.integers(0, 8), max_size=3))
def test_ratings_written_in_pieces_equal_the_whole(tmp_path_factory, result, cuts):
    """Rows formatted piece by piece, as ``relarm assign`` formats each
    share's, make the file that the whole result makes; a piece may need
    quoting where another does not."""
    work = tmp_path_factory.mktemp("w")
    write_ratings_csv(work / "whole.csv", result)
    bounds = [0] + sorted(min(c, len(result.objects)) for c in cuts) + [len(result.objects)]
    pieces = [
        RatingResult(result.objects[a:b], result.clusters[a:b], result.per_cluster)
        for a, b in zip(bounds, bounds[1:])
    ]
    write_rating_rows(work / "pieces.csv", [rating_rows(p) for p in pieces])
    assert (work / "pieces.csv").read_bytes() == (work / "whole.csv").read_bytes()


def test_ratings_ids_that_are_not_strings_are_written_as_csv_writer_writes_them(tmp_path):
    path = tmp_path / "ratings.csv"
    write_ratings_csv(path, RatingResult((7, 2.5), (1, 1), (ClusterRating(1, 0.5, "A"),)))
    assert path.read_bytes() == b"object,cluster,projection,category\r\n7,1,0.5,A\r\n2.5,1,0.5,A\r\n"


def test_failed_write_keeps_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("half a new file")
            fh.flush()
            raise RuntimeError("disk gone")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["ratings.csv"]


@pytest.mark.parametrize("objects", [("a", "b"), ("a,1", "b")], ids=["joined", "quoted"])
def test_ratings_write_failing_mid_file_keeps_old_ratings(tmp_path, objects):
    path = tmp_path / "ratings.csv"
    good = RatingResult(("x", "y"), (1, 1), (ClusterRating(1, 0.5, "AAA"),))
    write_ratings_csv(path, good)
    before = path.read_bytes()
    # the second object's cluster has no row: formatting fails after the first
    bad = RatingResult(objects, (1, 2), (ClusterRating(1, 0.5, "AAA"),))
    with pytest.raises(KeyError):
        write_ratings_csv(path, bad)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ratings.csv"]


def test_atomic_write_replaces_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old")
    with atomic_write(path) as fh:
        fh.write("new")
    assert path.read_text() == "new"
    assert os.listdir(tmp_path) == ["out.json"]
