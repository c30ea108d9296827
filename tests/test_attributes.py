import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relarm.attributes import map_to_feature_space
from relarm.errors import ValidationError
from relarm.pca import fit_pca


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(42)
    return fit_pca(rng.uniform(size=(12, 5)), variance_threshold=0.99)


def rank_values(b, model):
    """Ranking-function values of one normalized row, one per component."""
    return map_to_feature_space(np.atleast_2d(b), model)[:, 0]


def test_component_index_range():
    # one ranking function per retained component 1..d, none beyond d
    model = fit_pca(np.random.default_rng(42).uniform(size=(12, 5)), 0.5)
    assert 1 <= model.d < 5
    out = map_to_feature_space(np.ones((3, 5)), model)
    assert out.shape == (model.d, 3)


def test_rank_value_endpoints(model):
    np.testing.assert_allclose(rank_values(np.ones(5), model), 1.0, rtol=0, atol=1e-12)
    assert rank_values(np.zeros(5), model).tolist() == [0.0] * model.d


def in_order(w, b) -> float:
    """sum_k w[k] * b[k] in Python floats, added in index order."""
    total = 0.0
    for x, y in zip(w.tolist(), b.tolist()):
        total += x * y
    return total


def test_rank_value_matches_naive_loop(model):
    # for a nonnegative row this sum is also the l1 norm of the entrywise
    # product of the row with the signed component; the map adds its terms
    # in indicator order, so it equals the scalar loop bit for bit
    rng = np.random.default_rng(0)
    for _ in range(100):
        b = rng.uniform(size=5)
        r = rank_values(b, model)
        for p in range(1, model.d + 1):
            assert r[p - 1] == in_order(model.W[:, p - 1], b)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_monotonicity_and_range(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 10))
    n = int(rng.integers(2, 6))
    model = fit_pca(rng.uniform(size=(m, n)), 0.95)
    lo = rng.uniform(size=n)
    hi = np.minimum(lo + rng.uniform(size=n) * (1 - lo), 1.0)
    r_lo, r_hi = rank_values(lo, model), rank_values(hi, model)
    assert (r_hi >= r_lo - 1e-12).all()
    assert (-1e-12 <= r_lo).all() and (r_lo <= 1 + 1e-12).all()


def test_map_identity_rows_select_w(model):
    out = map_to_feature_space(np.eye(5), model)
    np.testing.assert_array_equal(out, model.W.T)


def test_map_row_of_ones_gives_ones(model):
    b = np.vstack([np.ones(5), np.zeros(5)])
    out = map_to_feature_space(b, model)
    np.testing.assert_allclose(out[:, 0], np.ones(model.d), atol=1e-12)


def test_map_dimension_mismatch(model):
    with pytest.raises(ValidationError):
        map_to_feature_space(np.ones((3, 4)), model)


def test_map_with_synthetic_expert_column(country_run):
    """30 x 10 matrix: the 9 published columns plus a flat expert column."""
    b10 = np.hstack(
        [country_run.normalized, np.full((30, 1), 0.5)]
    )
    model = fit_pca(b10, 0.95)
    out = map_to_feature_space(b10, model)
    assert out.shape == (model.d, 30)
    assert out.min() >= 0.0 and out.max() <= 1.0 + 1e-12
    # cross-check every entry against the scalar ranking function
    for i in range(30):
        for p in range(1, model.d + 1):
            assert out[p - 1, i] == in_order(model.W[:, p - 1], b10[i])


def test_comparison_consistency(country_run):
    model = country_run.snapshot.model
    b = country_run.normalized
    r = map_to_feature_space(b, model)
    for p in range(1, model.d + 1):
        sums = [in_order(np.abs(model.W[:, p - 1]), b[i]) for i in range(len(b))]
        for i in range(len(b)):
            for j in range(len(b)):
                assert (r[p - 1, i] >= r[p - 1, j]) == (sums[i] >= sums[j])
