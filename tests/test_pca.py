import numpy as np
import pytest

from relarm.errors import ValidationError
from relarm.pca import fit_pca, jacobi_eigh

from fixture_check import verify_fixture_w


def random_cov(rng, n, m=None):
    x = rng.normal(size=((m or n + 3), n))
    return x.T @ x / (x.shape[0] - 1)


class TestJacobi:
    def test_matches_reference_solver(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4, 6, 9):
            c = random_cov(rng, n)
            vals, vecs = jacobi_eigh(c)
            np.testing.assert_allclose(
                np.sort(vals), np.sort(np.linalg.eigvalsh(c)), atol=1e-10
            )
            # eigenpair residuals
            assert np.abs(c @ vecs - vecs * vals).max() < 1e-10

    def test_orthogonal_vectors(self):
        c = random_cov(np.random.default_rng(1), 5)
        _, vecs = jacobi_eigh(c)
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(5), atol=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_one_by_one(self):
        vals, vecs = jacobi_eigh(np.array([[3.0]]))
        assert vals.tolist() == [3.0] and vecs.tolist() == [[1.0]]


class TestFitPca:
    def test_rank_one_data(self):
        b = np.array([[0.0, 0.0], [1 / 3, 1 / 3], [2 / 3, 2 / 3], [1.0, 1.0]])
        model = fit_pca(b, variance_threshold=0.95)
        assert model.d == 1
        assert model.variance_fractions[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(model.W[:, 0], [0.5, 0.5], atol=1e-12)

    def test_constant_column_gives_zero_weight(self):
        b = np.array([[0.5, 0.0], [0.5, 0.5], [0.5, 1.0]])
        model = fit_pca(b, variance_threshold=0.95)
        assert model.variance_fractions[1] == 0.0
        assert model.W[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_invariants_on_country_data(self, country_config, country_run):
        model = country_run.snapshot.model
        f = model.variance_fractions
        assert (f >= 0).all()
        assert (np.diff(f) <= 1e-15).all()
        assert f.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(model.W.sum(axis=0), np.ones(model.d), atol=1e-12)
        cum = np.cumsum(f)
        threshold = country_config.variance_threshold
        assert cum[model.d - 1] >= threshold
        assert model.d == 1 or cum[model.d - 2] < threshold

    def test_threshold_validation(self, country_run):
        b = np.array([[0.0, 1.0], [1.0, 0.0], [0.3, 0.6]])
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                fit_pca(b, variance_threshold=bad)

    def test_trace_conservation(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(12, 5))
        model = fit_pca(x, variance_threshold=0.9)
        c = (x - x.mean(axis=0)).T @ (x - x.mean(axis=0)) / (x.shape[0] - 1)
        vals, _ = jacobi_eigh(c)
        assert vals.sum() == pytest.approx(np.trace(c), rel=1e-10)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(4, 11))
            n = int(rng.integers(2, 7))
            x = rng.uniform(size=(m, n))
            model = fit_pca(x, 1.0)  # d is then the numerical rank
            c = (x - x.mean(axis=0)).T @ (x - x.mean(axis=0)) / (m - 1)
            ref_vals, ref_vecs = np.linalg.eigh(c)
            order = np.argsort(-ref_vals)
            ref_vals = np.maximum(ref_vals[order], 0.0)
            np.testing.assert_allclose(
                model.variance_fractions, ref_vals / ref_vals.sum(), atol=1e-8
            )
            ref_abs = np.abs(
                ref_vecs[:, order] / np.abs(ref_vecs[:, order]).sum(axis=0)
            )
            # compare only above the numerical rank; the null-space basis
            # is not unique
            rank = int(np.sum(ref_vals > 1e-12 * ref_vals.sum()))
            assert model.d == rank
            np.testing.assert_allclose(model.W, ref_abs[:, :rank], atol=1e-8)


    def test_matches_jacobi_reference(self):
        # fit_pca calls LAPACK through np.linalg.eigh, the same routine the
        # eigh oracle above uses; the Jacobi solver is an independent check
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = int(rng.integers(4, 30))
            n = int(rng.integers(2, 12))
            x = rng.uniform(size=(m, n))
            model = fit_pca(x, 1.0)  # d is then the numerical rank
            c = (x - x.mean(axis=0)).T @ (x - x.mean(axis=0)) / (m - 1)
            vals, vecs = jacobi_eigh(c)
            order = np.argsort(-vals, kind="stable")
            vals = np.maximum(vals[order], 0.0)
            np.testing.assert_allclose(
                model.variance_fractions, vals / vals.sum(), atol=1e-10
            )
            rank = int(np.sum(vals > 1e-12 * vals.sum()))
            assert model.d == rank
            ref = vecs[:, order][:, :rank]
            np.testing.assert_allclose(
                model.W, np.abs(ref / np.abs(ref).sum(axis=0)), atol=1e-8
            )


class TestFixtureCheck:
    def test_table_fixtures_self_consistent(self, table5_w, table6_lambda):
        report = verify_fixture_w(table5_w, table6_lambda)
        assert report.ok, report.failures
        assert all(abs(s - 1.0) <= 1e-3 for s in report.column_sums)
        assert report.lambda_sum == pytest.approx(0.96, abs=5e-3)

    def test_identity_fixture_passes(self):
        w = np.array([[1.0], [0.0], [0.0]])
        assert verify_fixture_w(w).ok

    def test_bad_fixture_reported(self):
        report = verify_fixture_w(np.array([[0.7], [0.2]]))
        assert not report.ok
        assert "column 1" in report.failures[0]
