import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relarm.dataset import Direction, IndicatorSpec, RawDataset
from relarm.errors import ValidationError
from relarm.normalize import ConstantColumnWarning, normalize_dataset, scale_column

columns = arrays(
    np.float64,
    st.integers(min_value=2, max_value=40),
    elements=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
)


def make_dataset(values, specs):
    return RawDataset(
        objects=tuple(f"o{i}" for i in range(len(values))),
        indicators=specs,
        values=np.asarray(values, dtype=np.float64),
    )


def normalize_one(col, direction):
    """One column scaled over its own range, through ``normalize_dataset``."""
    ds = make_dataset(np.reshape(col, (-1, 1)), (IndicatorSpec("x", direction),))
    return normalize_dataset(ds)[:, 0]


def test_published_positive_example():
    col = np.array([4.44, 3.3, 5.76])
    out = normalize_one(col, Direction.POSITIVE)
    assert out[0] == pytest.approx(0.4634, abs=1e-4)


def test_published_negative_example():
    col = np.array([7.5, -1.3, 180.9])
    out = normalize_one(col, Direction.NEGATIVE)
    assert out[0] == pytest.approx(0.9517, abs=1e-4)


def test_endpoints():
    col = np.array([2.0, 5.0, 9.0])
    out = normalize_one(col, Direction.POSITIVE)
    assert out[0] == 0.0 and out[2] == 1.0


def test_negative_direction_reverses():
    out = normalize_one(np.array([0.0, 10.0]), Direction.NEGATIVE)
    assert out.tolist() == [1.0, 0.0]


@given(col=columns, c=st.floats(min_value=1e-3, max_value=1e3),
       s=st.floats(min_value=-1e6, max_value=1e6))
@settings(max_examples=200)
def test_affine_invariance(col, c, s):
    # the transformed column must keep a representable spread, otherwise
    # float cancellation collapses it to a constant
    transformed = c * col + s
    assume(np.ptp(transformed) > 1e-7 * max(1.0, np.abs(transformed).max()))
    for direction in Direction:
        base = normalize_one(col, direction)
        shifted = normalize_one(transformed, direction)
        np.testing.assert_allclose(shifted, base, atol=1e-8)


@given(col=columns)
def test_direction_duality(col):
    if col.min() == col.max():
        return
    pos = normalize_one(col, Direction.POSITIVE)
    neg = normalize_one(col, Direction.NEGATIVE)
    np.testing.assert_allclose(neg, 1.0 - pos, atol=1e-12)


@pytest.mark.filterwarnings("ignore::relarm.normalize.ConstantColumnWarning")
@given(col=columns)
def test_rank_preservation(col):
    pos = normalize_one(col, Direction.POSITIVE)
    neg = normalize_one(col, Direction.NEGATIVE)
    order = np.argsort(col, kind="stable")
    assert (np.diff(pos[order]) >= 0).all()
    assert (np.diff(neg[order]) <= 0).all()


@pytest.mark.filterwarnings("ignore::relarm.normalize.ConstantColumnWarning")
@given(col=columns)
def test_range_and_extremes(col):
    out = normalize_one(col, Direction.POSITIVE)
    assert out.min() >= 0.0 and out.max() <= 1.0
    if col.min() != col.max():
        assert out.min() == 0.0 and out.max() == 1.0


def test_country_fixture_matches_published_matrix(
    country_dataset, table4_matrix, country_run
):
    np.testing.assert_allclose(
        country_run.normalized, table4_matrix, atol=5e-3
    )


def test_normalize_dataset_constant_column_flagged():
    ds = make_dataset(
        [[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]],
        (
            IndicatorSpec("c", Direction.POSITIVE),
            IndicatorSpec("v", Direction.POSITIVE),
        ),
    )
    with pytest.warns(ConstantColumnWarning) as record:
        nm = normalize_dataset(ds)
    assert [str(w.message) for w in record] == ["column 'c' is constant; mapped to 0.5"]
    assert nm[:, 0].tolist() == [0.5, 0.5, 0.5]


def test_pre_normalized_passthrough_and_range_check():
    specs = (
        IndicatorSpec("x", Direction.POSITIVE),
        IndicatorSpec("expert", Direction.POSITIVE, pre_normalized=True),
    )
    ds = make_dataset([[0.0, 0.2], [10.0, 0.9]], specs)
    nm = normalize_dataset(ds)
    assert nm[:, 1].tolist() == [0.2, 0.9]

    # the dataset itself rejects the value, naming the column and object
    with pytest.raises(
        ValidationError,
        match=r"column 'expert' has value 1.5 outside \[0, 1\] for object 'o1'",
    ):
        make_dataset([[0.0, 0.2], [10.0, 1.5]], specs)


def test_column_order_independent_of_evaluation():
    specs = (
        IndicatorSpec("a", Direction.POSITIVE),
        IndicatorSpec("b", Direction.NEGATIVE),
    )
    ds = make_dataset([[1.0, 4.0], [3.0, 2.0]], specs)
    nm = normalize_dataset(ds)
    np.testing.assert_array_equal(nm, [[0.0, 0.0], [1.0, 1.0]])


def test_values_far_outside_a_stored_range_clip_without_overflow():
    # col - lo overflows to +-inf (RuntimeWarning is an error in this suite)
    col = np.array([1.7e308, -1.7e308, -5e307])
    for direction, expected in ((Direction.POSITIVE, [1.0, 0.0, 0.5]),
                                (Direction.NEGATIVE, [0.0, 1.0, 0.5])):
        out = scale_column(col, -1e308, 0.0, IndicatorSpec("x", direction))
        assert out.tolist() == expected
