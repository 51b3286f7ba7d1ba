import itertools
import warnings

import numpy as np
import pytest

from molmatch.metrics import (
    MetricError,
    aggregate,
    auprc,
    auroc,
    delta_auprc,
    pca_project,
)
from oracles import auroc_bruteforce, average_precision_bruteforce, pca_dense


class TestWorkedExample:
    scores = [0.9, 0.8, 0.3]
    labels = [1, 0, 1]

    def test_auroc(self):
        assert auroc(self.scores, self.labels) == 0.5

    def test_auprc(self):
        np.testing.assert_allclose(auprc(self.scores, self.labels), 5.0 / 6.0, atol=1e-10)

    def test_delta_auprc(self):
        np.testing.assert_allclose(delta_auprc(self.scores, self.labels), 1.0 / 6.0, atol=1e-10)


def label_patterns(max_len):
    for n in range(2, max_len + 1):
        for bits in itertools.product((0, 1), repeat=n):
            if 0 < sum(bits) < n:  # both classes present
                yield list(bits)


class TestAgainstBruteForce:
    def test_exhaustive_short_inputs(self):
        rng = np.random.default_rng(123)
        for labels in label_patterns(6):
            n = len(labels)
            for _ in range(3):
                scores = rng.uniform(size=n)
                assert abs(auroc(scores, labels) - auroc_bruteforce(scores, labels)) < 1e-12
                assert (
                    abs(auprc(scores, labels) - average_precision_bruteforce(scores, labels))
                    < 1e-12
                )

    def test_tied_scores(self):
        rng = np.random.default_rng(7)
        grid = np.array([0.2, 0.5, 0.8])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for labels in label_patterns(5):
                n = len(labels)
                for _ in range(4):
                    scores = grid[rng.integers(0, 3, size=n)]
                    assert abs(auroc(scores, labels) - auroc_bruteforce(scores, labels)) < 1e-12
                    assert (
                        abs(auprc(scores, labels) - average_precision_bruteforce(scores, labels))
                        < 1e-12
                    )

    def test_delta_is_lift_over_base_rate(self):
        rng = np.random.default_rng(5)
        for labels in label_patterns(6):
            scores = rng.uniform(size=len(labels))
            base_rate = sum(labels) / len(labels)
            assert delta_auprc(scores, labels) == auprc(scores, labels) - base_rate

    def test_perfect_and_inverted_rankings(self):
        labels = [0, 0, 1, 1]
        assert auroc([0.1, 0.2, 0.8, 0.9], labels) == 1.0
        assert auroc([0.9, 0.8, 0.2, 0.1], labels) == 0.0
        assert auprc([0.1, 0.2, 0.8, 0.9], labels) == 1.0


class TestValidation:
    def test_tie_across_classes_warns(self):
        with pytest.warns(RuntimeWarning, match="tied scores"):
            auprc([0.5, 0.5], [1, 0])

    def test_tie_within_class_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            auprc([0.5, 0.5, 0.1], [1, 1, 0])

    def test_errors(self):
        with pytest.raises(MetricError, match="length"):
            auroc([0.1, 0.2], [1])
        with pytest.raises(MetricError, match="empty"):
            auroc([], [])
        with pytest.raises(MetricError, match="finite"):
            auroc([0.5, np.nan], [1, 0])
        with pytest.raises(MetricError, match="labels"):
            auroc([0.5, 0.6], [1, 2])
        with pytest.raises(MetricError, match="positive and.*negative"):
            auroc([0.5, 0.6], [1, 1])
        with pytest.raises(MetricError, match="positive"):
            auprc([0.5, 0.6], [0, 0])


class TestAggregate:
    def test_spread_over_repeats(self):
        result = aggregate([0.6, 0.8])
        assert result.mean == pytest.approx(0.7)
        assert result.std == pytest.approx(np.sqrt(0.02), rel=1e-12)
        assert result.stderr == pytest.approx(0.1, rel=1e-12)

    def test_single_run_has_no_spread(self):
        result = aggregate([0.75])
        assert result.mean == 0.75 and result.std is None and result.stderr is None

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            aggregate([])


class TestPca:
    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(0)
        cases = [
            (rng.normal(size=(40, 8)) @ np.diag(rng.uniform(0.5, 4.0, size=8)), 3)
            for _ in range(5)
        ]
        # isotropic noise: closely spaced eigenvalues, which an iterative
        # solver separates slowly
        cases.append((np.random.default_rng(1).normal(size=(300, 60)), 15))
        for x, k in cases:
            proj, ratios = pca_project(x, k)
            want_proj, want_ratios, _ = pca_dense(x, k)
            np.testing.assert_allclose(ratios, want_ratios, rtol=0, atol=1e-12)
            np.testing.assert_allclose(proj, want_proj, rtol=0, atol=1e-12)

    def test_ratios_descend_and_bound(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 6))
        _, ratios = pca_project(x, 6)
        assert (np.diff(ratios) <= 1e-12).all()
        assert ratios.sum() == pytest.approx(1.0, abs=1e-8)

    def test_full_rank_projection_preserves_distances(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(15, 5))
        proj, _ = pca_project(x, 5)
        for i in range(5):
            for j in range(i):
                np.testing.assert_allclose(
                    np.linalg.norm(proj[i] - proj[j]),
                    np.linalg.norm(x[i] - x[j]),
                    rtol=1e-8,
                )

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(25, 4)) * np.array([5.0, 1.0, 0.5, 0.1])
        proj_a, _ = pca_project(x, 2)
        proj_b, _ = pca_project(-x + 10.0, 2)  # mirrored data, shifted
        # the convention pins each component's largest coordinate positive,
        # so mirroring the data flips every projection
        np.testing.assert_allclose(proj_a, -proj_b, atol=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 5))
        a = pca_project(x, 3)
        b = pca_project(x, 3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_constant_data(self):
        x = np.ones((10, 4)) * 3.0
        proj, ratios = pca_project(x, 2)
        np.testing.assert_array_equal(proj, np.zeros((10, 2)))
        np.testing.assert_array_equal(ratios, np.zeros(2))

    def test_rank_deficient_data(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(12, 1))
        x = base @ rng.normal(size=(1, 6))  # rank one
        proj, ratios = pca_project(x, 3)
        assert ratios[0] == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(ratios[1:], 0.0, atol=1e-8)
        np.testing.assert_allclose(proj[:, 1:], 0.0, atol=1e-6)

    def test_k_validation(self):
        x = np.zeros((5, 3))
        with pytest.raises(MetricError, match="k="):
            pca_project(x, 4)
        with pytest.raises(MetricError, match="k="):
            pca_project(x, 0)
        with pytest.raises(MetricError, match="2-d"):
            pca_project(np.zeros(5), 1)
