"""Tests for retrieval metrics, purity, correlation, and the k-means baseline."""

import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plmetric import data, evaluation, manifold, similarity
from plmetric.evaluation import (
    EvalReport,
    evaluate_embeddings,
    group_purity,
    kmeans_baseline,
    neighborhood_purity,
    recall_at_k,
    sample_pairs,
    similarity_correlation,
)
from plmetric.manifold import ManifoldConfig
from plmetric.similarity import SimilarityConfig

from oracles import group_purity_loop, pearson_two_pass, same_bits


class TestRecallAtK:
    def test_separated_clusters_hit_100(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.1, size=(10, 3)) + 5.0
        b = rng.normal(0.0, 0.1, size=(10, 3)) - 5.0
        pts = np.vstack([a, b])
        labels = np.array([0] * 10 + [1] * 10)
        assert recall_at_k(pts, labels, [1])[1] == 100.0

    def test_all_distinct_labels_score_zero(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((8, 3))
        labels = np.arange(8)
        out = recall_at_k(pts, labels, [1, 3])
        assert out[1] == 0.0 and out[3] == 0.0

    def test_matches_brute_force_on_confusable_fixture(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((30, 4))
        labels = rng.integers(0, 3, size=30)
        out = recall_at_k(pts, labels, [1, 2, 4])
        for k in (1, 2, 4):
            hits = 0
            for i in range(30):
                dists = np.linalg.norm(pts - pts[i], axis=1)
                dists[i] = np.inf
                nearest = np.argsort(dists, kind="stable")[:k]
                hits += int(np.any(labels[nearest] == labels[i]))
            assert out[k] == pytest.approx(hits / 30 * 100.0, abs=1e-12)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((40, 5))
        labels = rng.integers(0, 4, size=40)
        out = recall_at_k(pts, labels, [1, 2, 4, 8])
        values = [out[k] for k in sorted(out)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="labels"):
            recall_at_k(np.eye(3), None, [1])
        with pytest.raises(ValueError, match="points"):
            recall_at_k(np.eye(3), np.array([0, 1, 2]), [3])
        with pytest.raises(ValueError, match="neighbors shape"):
            recall_at_k(np.eye(4), np.arange(4), [2], neighbors=np.zeros((4, 1), dtype=np.int64))

    def test_float_k_rejected(self):
        # Once truncated: [1.9, 2.5] reported {1: ..., 2: ...}, K values
        # nobody asked for.
        pts = np.random.default_rng(5).standard_normal((20, 3))
        labels = np.arange(20) % 2
        with pytest.raises(ValueError, match="K values must be integer indices"):
            recall_at_k(pts, labels, [1.9, 2.5])
        with pytest.raises(ValueError, match="K values must be integer indices"):
            evaluate_embeddings(pts, labels, ManifoldConfig(pool_size=5), SimilarityConfig(), (1, 2.0))

    def test_numpy_integer_k_accepted(self):
        pts = np.random.default_rng(5).standard_normal((20, 3))
        labels = np.arange(20) % 2
        got = recall_at_k(pts, labels, [np.int64(1), np.int32(4)])
        assert got == recall_at_k(pts, labels, [1, 4])
        assert all(type(k) is int for k in got)
        assert recall_at_k(pts, labels, np.array([1, 4])) == got

    @pytest.mark.parametrize(
        "row, entry, message",
        [
            (0, 0, "neighbors must not hold the query's own index"),
            (3, -1, r"neighbors must lie in \[0, 10\)"),
            (5, 10, r"neighbors must lie in \[0, 10\)"),
        ],
        ids=["self", "negative", "n"],
    )
    def test_neighbors_with_bad_indices_rejected(self, row, entry, message):
        # Unchecked, -1 entries read the last label and misreported recall,
        # and an index of n raised a bare IndexError.
        pts = np.random.default_rng(5).standard_normal((10, 3))
        neighbors = manifold.neighbor_lists(pts, 3)
        neighbors[row, 0] = entry
        with pytest.raises(ValueError, match=message):
            recall_at_k(pts, np.arange(10) % 2, [1, 2], neighbors=neighbors)

    def test_neighbors_as_a_list(self):
        # Once a bare TypeError from comparing a list with an int.
        pts = np.random.default_rng(5).standard_normal((10, 3))
        neighbors = manifold.neighbor_lists(pts, 3)
        labels = np.arange(10) % 2
        got = recall_at_k(pts, labels, [1, 2], neighbors=neighbors.tolist())
        assert got == recall_at_k(pts, labels, [1, 2], neighbors=neighbors)

    def test_float_neighbors_rejected(self):
        # Once a bare IndexError from indexing the labels with floats.
        pts = np.random.default_rng(5).standard_normal((10, 3))
        neighbors = manifold.neighbor_lists(pts, 3).astype(np.float64)
        with pytest.raises(ValueError, match="neighbors must be integer indices"):
            recall_at_k(pts, np.arange(10) % 2, [1, 2], neighbors=neighbors)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_embeddings_rejected(self, bad):
        pts = np.random.default_rng(4).standard_normal((20, 3))
        pts[7, 1] = bad
        labels = np.arange(20) % 2
        with pytest.raises(ValueError, match="points contain non-finite entries"):
            recall_at_k(pts, labels, [1, 2])
        with pytest.raises(ValueError, match="points contain non-finite entries"):
            evaluate_embeddings(pts, labels, ManifoldConfig(pool_size=5), SimilarityConfig(), (1, 2))


class TestPurity:
    def test_two_to_one_majority(self):
        labels = np.array([0, 0, 1])
        assert group_purity([np.array([0, 1, 2])], labels) == pytest.approx(2.0 / 3.0)

    def test_pure_group_scores_one(self):
        labels = np.array([2, 2, 2, 1])
        assert group_purity([np.array([0, 1, 2])], labels) == 1.0

    def test_singletons_score_one(self):
        labels = np.array([0, 1, 2])
        assert group_purity([np.array([i]) for i in range(3)], labels) == 1.0

    def test_neighborhood_purity_on_planted_classes(self):
        ds = data.generate_synthetic(data.SyntheticSpec(seed=1))
        cfg = ManifoldConfig(dim=3, quality_threshold=90.0, pool_size=10)
        nbhds = manifold.fit_all_neighborhoods(ds.features, cfg)
        assert neighborhood_purity(nbhds, ds.labels) >= 0.95

    def test_missing_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            neighborhood_purity([], None)

    @pytest.mark.parametrize("seed", range(4))
    def test_neighborhood_purity_equals_group_purity_bitwise(self, seed):
        # The stacked majority count against group_purity over the rows'
        # member sets, with labels from a few classes so ties and mixed
        # rows both occur.
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((60, 4))
        cfg = ManifoldConfig(dim=2, quality_threshold=60.0, pool_size=9)
        nbhds = manifold.fit_all_neighborhoods(pts, cfg)
        labels = rng.integers(0, 2 + seed, size=60)
        rows = [nbhds.members[i, :size] for i, size in enumerate(nbhds.sizes)]
        want = group_purity(rows, labels)
        assert neighborhood_purity(nbhds, labels) == want

    def test_neighborhood_purity_rejects_members_past_the_labels(self):
        # A 12-point record with member 40 in row 3 once raised a bare
        # IndexError from indexing the labels.
        rng = np.random.default_rng(3)
        nbhds = manifold.fit_all_neighborhoods(rng.standard_normal((12, 4)), ManifoldConfig(dim=2))
        members = nbhds.members.copy()
        members[3, 1] = 40
        bad = manifold.Neighborhoods(members, nbhds.sizes, nbhds.bases)
        with pytest.raises(ValueError, match=re.escape("members must lie in [0, 12)")):
            neighborhood_purity(bad, np.arange(12) % 3)

    @pytest.mark.parametrize(
        "members, message",
        [
            ([0, 3, -1], re.escape("group members must lie in [0, 12)")),
            ([0.9, 3.5], "group members must be integer indices"),
            ([0, 40], re.escape("group members must lie in [0, 12)")),
        ],
        ids=["negative", "float", "n"],
    )
    def test_group_indices_follow_the_index_rule(self, members, message):
        # Unchecked, -1 read the last label (0.667), the floats were
        # truncated to 0 and 3 (1.0), and 40 raised a bare IndexError.
        with pytest.raises(ValueError, match=message):
            group_purity([np.array(members)], np.arange(12) % 3)

    @pytest.mark.parametrize("groups", [[], [np.arange(3), []], [np.zeros((2, 2), dtype=int)]])
    def test_groups_must_be_non_empty_1d(self, groups):
        with pytest.raises(ValueError, match="need at least one group, each a non-empty 1-d"):
            group_purity(groups, np.arange(12) % 3)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_equals_the_group_loop(self, data):
        # Few distinct labels make ties and mixed groups; single members,
        # repeated members and labels up to 2**32 - 1 are drawn too.
        n = data.draw(st.integers(1, 30), label="n")
        values = data.draw(
            st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4, unique=True), label="values"
        )
        labels = np.array(data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
        if data.draw(st.booleans(), label="uint32"):
            labels = labels.astype(np.uint32)
        groups = data.draw(
            st.lists(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=12).map(np.array),
                min_size=1,
                max_size=8,
            ),
            label="groups",
        )
        assert group_purity(groups, labels) == group_purity_loop(groups, labels)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 2**16), st.integers(1, 4))
    def test_neighborhood_purity_equals_the_group_loop(self, seed, n_labels):
        # Rows of a real record, of mixed sizes, against the loop over them.
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((40, 3))
        cfg = ManifoldConfig(dim=2, quality_threshold=70.0, pool_size=8)
        nbhds = manifold.fit_all_neighborhoods(pts, cfg)
        labels = rng.integers(0, n_labels, size=40) * (2**32 - 1) // max(n_labels - 1, 1)
        rows = [nbhds.members[i, :size] for i, size in enumerate(nbhds.sizes)]
        want = group_purity_loop(rows, labels)
        assert neighborhood_purity(nbhds, labels) == want

    def test_huge_label_allocates_no_label_sized_table(self):
        # A count per label value up to 10**7 would take 80 MB; the sort of
        # (group, label) keys takes a few arrays of the member count.
        labels = np.array([0, 10**7, 10**7, 5] * 3)
        groups = [np.arange(12), np.array([1, 2, 3])]
        tracemalloc.start()
        try:
            got = group_purity(groups, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == group_purity_loop(groups, labels) == 0.5 * (0.5 + 2 / 3)
        assert peak < 64 * 1024


# Label arrays that break the rule at n = 60, and the shape each error names.
_BAD_LABELS = {
    "short": (np.arange(50) % 3, "(50,)"),
    "long": (np.arange(70) % 3, "(70,)"),
    "column": ((np.arange(60) % 3)[:, None], "(60, 1)"),
    "float": (np.arange(60) % 3 * 1.0, "(60,)"),
    "negative": (np.arange(60) % 3 - 1, "(60,)"),
}


class TestLabelChecks:
    # Every labelled entry point applies FeatureDataset's rule: a 1-d
    # integer array of n non-negative labels, else one ValueError naming
    # the shape, where a wrong length must not be read as its first n.
    @staticmethod
    def _calls():
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((60, 4))
        nbhds = manifold.fit_all_neighborhoods(pts, ManifoldConfig(dim=2, pool_size=9))
        groups = [np.arange(0, 30), np.arange(30, 60)]
        return {
            "evaluate": lambda y: evaluate_embeddings(
                pts, y, ManifoldConfig(dim=2, pool_size=9), SimilarityConfig(), (1, 2)
            ),
            "recall": lambda y: recall_at_k(pts, y, [1, 2]),
            "neighborhood_purity": lambda y: neighborhood_purity(nbhds, y),
            "group_purity": lambda y: group_purity(groups, y),
        }

    @pytest.mark.parametrize(
        "entry, bad",
        [
            (entry, bad)
            for entry in ("evaluate", "recall", "neighborhood_purity", "group_purity")
            for bad in _BAD_LABELS
            # group_purity takes no point count, so any length is its own.
            if not (entry == "group_purity" and bad in ("short", "long"))
        ],
    )
    def test_bad_labels_raise_one_error(self, entry, bad):
        labels, shape = _BAD_LABELS[bad]
        with pytest.raises(ValueError, match=rf"non-negative integers, got shape {re.escape(shape)}"):
            self._calls()[entry](labels)

    def test_valid_labels_of_any_integer_type_agree(self):
        labels = np.arange(60) % 3
        for call in self._calls().values():
            want = call(labels)
            assert call(labels.astype(np.int32)) == want
            assert call(labels.astype(np.uint8)) == want
            assert call(labels.tolist()) == want


class TestKMeans:
    def test_one_cluster_per_point_is_pure(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((12, 3))
        result = kmeans_baseline(pts, 12, seed=0)
        assert sorted(result.assignments.tolist()) == list(range(12))
        labels = rng.integers(0, 3, size=12)
        groups = [np.flatnonzero(result.assignments == c) for c in range(12)]
        assert group_purity(groups, labels) == 1.0

    @pytest.mark.parametrize("count", [2.5, True, np.float64(3.0)])
    def test_non_integer_cluster_count_raises(self, count):
        # 2.5 and True once raised a bare TypeError inside the seeding.
        pts = np.random.default_rng(4).standard_normal((12, 3))
        with pytest.raises(ValueError, match="n_clusters must be an integer"):
            kmeans_baseline(pts, count, 0)

    def test_non_finite_points_rejected(self):
        # A NaN point once gave inertia=nan.
        pts = np.random.default_rng(4).standard_normal((12, 3))
        pts[7, 1] = np.nan
        with pytest.raises(ValueError, match="points contain non-finite entries"):
            kmeans_baseline(pts, 3, 0)

    def test_numpy_integer_cluster_count_accepted(self):
        pts = np.random.default_rng(4).standard_normal((12, 3))
        want = kmeans_baseline(pts, 3, 0)
        for count in (np.int64(3), np.int32(3), np.uint8(3)):
            got = kmeans_baseline(pts, count, 0)
            assert same_bits(got.centers, want.centers)
            assert same_bits(got.assignments, want.assignments)

    def test_two_blobs_recovered(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0.0, 0.2, size=(20, 3)) + 4.0
        b = rng.normal(0.0, 0.2, size=(20, 3)) - 4.0
        result = kmeans_baseline(np.vstack([a, b]), 2, seed=1)
        first, second = result.assignments[:20], result.assignments[20:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((100, 6))
        result = kmeans_baseline(pts, 7, seed=2)
        diffs = np.diff(result.inertia_history)
        assert np.all(diffs <= 1e-9)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((50, 4))
        a = kmeans_baseline(pts, 5, seed=3)
        b = kmeans_baseline(pts, 5, seed=3)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_handles_duplicate_points(self):
        pts = np.tile([[1.0, 0.0], [0.0, 1.0]], (5, 1))
        result = kmeans_baseline(pts, 3, seed=0)
        assert result.inertia <= 1e-12 or np.isfinite(result.inertia)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="n_clusters"):
            kmeans_baseline(np.eye(3), 4, seed=0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_no_cluster_empties_on_duplicate_heavy_sets(self, data):
        # Points in {0, 1}: argmin ties leave clusters empty, and a refill
        # that took another cluster's only member averaged an empty slice
        # next (a warning, 100 iterations, NaN centres).
        n = data.draw(st.integers(1, 8))
        d = data.draw(st.integers(1, 2))
        pts = np.array(
            data.draw(st.lists(st.lists(st.sampled_from([0.0, 1.0]), min_size=d, max_size=d), min_size=n, max_size=n))
        )
        k = data.draw(st.integers(1, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = kmeans_baseline(pts, k, seed=data.draw(st.integers(0, 2**16)))
        assert np.bincount(result.assignments, minlength=k).min() >= 1
        assert np.all(np.isfinite(result.centers))
        assert np.all(np.diff(result.inertia_history) <= 1e-9)
        assert result.inertia <= result.inertia_history[0] + 1e-9

    def test_refill_leaves_no_cluster_empty(self):
        pts = np.array([[1.0], [0.0], [0.0], [0.0], [0.0], [0.0], [0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = kmeans_baseline(pts, 5, seed=0)
        assert sorted(np.bincount(result.assignments).tolist()) == [1, 1, 1, 1, 3]
        assert result.inertia == 0.0
        assert result.n_iter < evaluation.KMEANS_MAX_ITER


class TestSamplePairs:
    def test_small_n_gives_all_pairs(self):
        first, second = sample_pairs(10, seed=0)
        assert first.size == 45
        assert np.all(first < second)

    def test_large_n_gives_seeded_sample(self):
        first, second = sample_pairs(5000, seed=1)
        assert first.size == evaluation.PAIR_SAMPLE_SIZE
        assert np.all(first != second)
        f2, s2 = sample_pairs(5000, seed=1)
        np.testing.assert_array_equal(first, f2)
        np.testing.assert_array_equal(second, s2)

    def test_sample_is_uniform_over_ordered_pairs(self, monkeypatch):
        # Above a lowered limit, each of the n(n-1) ordered pairs i != j gets
        # a binomial share of the sample: within 5 sigma of its mean.
        monkeypatch.setattr(evaluation, "ALL_PAIRS_LIMIT", 3)
        n, size = 7, evaluation.PAIR_SAMPLE_SIZE
        first, second = sample_pairs(n, seed=4)
        for side in (first, second):
            assert side.dtype == np.int64 and side.shape == (size,)
            assert side.min() >= 0 and side.max() < n
        assert not np.any(first == second)
        counts = np.bincount(first * n + second, minlength=n * n).reshape(n, n)
        share = 1.0 / (n * (n - 1))
        sigma = np.sqrt(size * share * (1.0 - share))
        assert np.all(np.abs(counts[~np.eye(n, dtype=bool)] - size * share) < 5.0 * sigma)
        for side, again in zip((first, second), sample_pairs(n, seed=4)):
            np.testing.assert_array_equal(side, again)


class TestSimilarityCorrelation:
    def test_perfect_agreement(self):
        ind = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        assert similarity_correlation(ind, ind) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        ind = np.array([1.0, 0.0, 1.0, 0.0])
        assert similarity_correlation(1.0 - ind, ind) == pytest.approx(-1.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0.0, 1.0, size=200)
        indicator = (rng.uniform(size=200) < 0.4).astype(float)
        ours = similarity_correlation(values, indicator)
        assert ours == pytest.approx(pearson_two_pass(values, indicator), abs=1e-12)

    def test_boolean_sides_match_two_pass_oracle(self):
        # The k-means correlation passes two boolean arrays.
        rng = np.random.default_rng(9)
        first = rng.uniform(size=5000) < 0.3
        second = first ^ (rng.uniform(size=5000) < 0.2)
        ours = similarity_correlation(first, second)
        ref = pearson_two_pass(first.astype(float), second.astype(float))
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_hand_computed_fixture(self):
        values = np.array([0.9, 0.8, 0.7, 0.2, 0.1, 0.3])
        indicator = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        assert similarity_correlation(values, indicator) == pytest.approx(
            pearson_two_pass(values, indicator), abs=1e-12
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        # A NaN value once returned nan; an inf warned, then returned nan.
        values = np.array([0.9, 0.8, bad, 0.2, 0.1, 0.3])
        indicator = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="must be finite"):
            similarity_correlation(values, indicator)
        with pytest.raises(ValueError, match="must be finite"):
            similarity_correlation(indicator, values)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            similarity_correlation(np.ones(5), np.array([1.0, 0.0, 1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="zero variance"):
            similarity_correlation(np.arange(5.0), np.ones(5))


class TestEvalReport:
    def test_recall_monotonicity_enforced(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            EvalReport(10, 2, {1: 50.0, 2: 40.0}, 0.9, 0.8, 0.5, 0.4)

    def test_text_rendering(self):
        report = EvalReport(10, 2, {1: 50.0}, 0.9, 0.8, 0.5, 0.4)
        text = report.to_text()
        assert "recall@1=50.0000" in text
        assert "neighborhood_purity=0.900000" in text
        assert "kmeans_purity=0.800000" in text
        assert "similarity_correlation=0.500000" in text
        assert "kmeans_correlation=0.400000" in text


class TestEvaluateEmbeddings:
    def test_full_report_on_separable_data(self):
        ds = data.generate_synthetic(
            data.SyntheticSpec(n_classes=3, ambient_dim=16, points_per_class=30, seed=2)
        )
        report = evaluate_embeddings(
            ds.features,
            ds.labels,
            ManifoldConfig(dim=3, quality_threshold=90.0, pool_size=8),
            SimilarityConfig(),
            recall_ks=(1, 2),
            seed=0,
        )
        assert report.n_samples == 90 and report.n_classes == 3
        assert report.recall_at[1] > 95.0
        assert report.neighborhood_purity > 0.9
        assert -1.0 <= report.similarity_correlation <= 1.0
        assert -1.0 <= report.kmeans_correlation <= 1.0

    def test_sampled_pairs_are_scored_without_the_matrix(self, monkeypatch):
        # Above ALL_PAIRS_LIMIT the sampled pairs are scored a chunk at a
        # time and correlate as the matrix entries they stand for.
        monkeypatch.setattr(evaluation, "ALL_PAIRS_LIMIT", 50)
        monkeypatch.setattr(evaluation, "PAIR_SAMPLE_SIZE", 3000)
        ds = data.generate_synthetic(
            data.SyntheticSpec(n_classes=3, ambient_dim=16, points_per_class=30, seed=2)
        )
        mcfg = ManifoldConfig(dim=3, quality_threshold=90.0, pool_size=8)
        matrix = similarity.pairwise_similarity_matrix

        def refuse(*args):
            raise AssertionError("the n x n matrix was built above ALL_PAIRS_LIMIT")

        monkeypatch.setattr(evaluation, "pairwise_similarity_matrix", refuse)
        for cfg in (SimilarityConfig(), SimilarityConfig(binary=True)):
            report = evaluate_embeddings(ds.features, ds.labels, mcfg, cfg, seed=3)
            first, second = sample_pairs(90, seed=3)
            assert first.size == 3000
            sims = matrix(ds.features, manifold.fit_all_neighborhoods(ds.features, mcfg), cfg)
            same = (ds.labels[first] == ds.labels[second]).astype(np.float64)
            expected = similarity_correlation(sims[first, second], same)
            assert report.similarity_correlation == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("pair_limit", [evaluation.ALL_PAIRS_LIMIT, 50])
    @pytest.mark.parametrize("recall_ks", [(1, 2), (1, 4, 12)])
    def test_one_knn_serves_recall_and_fit(self, monkeypatch, pair_limit, recall_ks):
        # One neighbor_lists call, to the larger of max(K) and the pool
        # size, and one fit whose positional arguments are exactly
        # (embeddings, config), as bench/workloads.py unpacks them. The
        # report equals separate recall and fit calls.
        monkeypatch.setattr(evaluation, "ALL_PAIRS_LIMIT", pair_limit)
        monkeypatch.setattr(evaluation, "PAIR_SAMPLE_SIZE", 3000)
        ds = data.generate_synthetic(
            data.SyntheticSpec(n_classes=3, ambient_dim=16, points_per_class=30, seed=2)
        )
        mcfg, cfg = ManifoldConfig(dim=3, quality_threshold=90.0, pool_size=8), SimilarityConfig()
        recall = recall_at_k(ds.features, ds.labels, recall_ks)
        nbhds = manifold.fit_all_neighborhoods(ds.features, mcfg)
        first, second = sample_pairs(90, seed=3)
        sims = similarity.pairwise_similarity_matrix(ds.features, nbhds, cfg)
        correlation = similarity_correlation(sims[first, second], ds.labels[first] == ds.labels[second])

        calls = {"neighbor_lists": [], "fit_all_neighborhoods": []}
        for name, raw in [(name, getattr(manifold, name)) for name in calls]:

            def counted(*args, _raw=raw, _calls=calls[name], **kwargs):
                _calls.append((args, kwargs))
                return _raw(*args, **kwargs)

            monkeypatch.setattr(manifold, name, counted)
            monkeypatch.setattr(evaluation, name, counted)
        report = evaluate_embeddings(ds.features, ds.labels, mcfg, cfg, recall_ks, seed=3)
        assert len(calls["neighbor_lists"]) == 1
        assert calls["neighbor_lists"][0][0][1] == max(mcfg.pool_size, *recall_ks)
        [(args, kwargs)] = calls["fit_all_neighborhoods"]
        assert len(args) == 2 and np.array_equal(args[0], ds.features) and args[1] == mcfg
        assert set(kwargs) == {"pools"}
        assert report.recall_at == recall
        assert report.neighborhood_purity == neighborhood_purity(nbhds, ds.labels)
        assert report.similarity_correlation == pytest.approx(correlation, abs=1e-12)

    @pytest.mark.parametrize("binary", [False, True])
    def test_report_is_the_same_on_one_or_two_threads(self, monkeypatch, binary):
        # Above ALL_PAIRS_LIMIT, with blocks, shares and chunks small enough
        # that the k-NN, the scan and the pair scoring all split: helpers
        # start, and the report equals the one-thread report exactly.
        monkeypatch.setattr(evaluation, "ALL_PAIRS_LIMIT", 50)
        monkeypatch.setattr(evaluation, "PAIR_SAMPLE_SIZE", 3000)
        monkeypatch.setattr(manifold, "SCAN_SHARE", 20)
        monkeypatch.setattr(manifold, "NEIGHBOR_BLOCK_CELLS", 1000)
        monkeypatch.setattr(manifold, "NEIGHBOR_SPLIT_CELLS", 1000)
        monkeypatch.setattr(similarity, "PAIR_CHUNK", 128)
        ds = data.generate_synthetic(
            data.SyntheticSpec(n_classes=3, ambient_dim=16, points_per_class=30, seed=2)
        )
        args = (ManifoldConfig(dim=3, quality_threshold=90.0, pool_size=8), SimilarityConfig(binary=binary))
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        reports = []
        for workers in (1, 2):
            monkeypatch.setattr(manifold, "WORKERS", workers)
            reports.append(evaluate_embeddings(ds.features, ds.labels, *args, seed=3))
        assert reports[0] == reports[1]
        # One helper each for the k-NN, the scan and the pair scoring, on the
        # second run; k-means and the pair draw stay on the calling thread.
        assert len(started) == 3

    def test_short_sets_raise_the_input_errors(self):
        # Checked before the shared k-NN, with the messages the CLI shows.
        pts = np.random.default_rng(5).standard_normal((9, 3))
        labels = np.arange(9) % 3
        with pytest.raises(ValueError, match=re.escape("pool_size=10 out of range [1, 8] for 9 points")):
            evaluate_embeddings(pts, labels, ManifoldConfig(pool_size=10), SimilarityConfig(), (1,))
        with pytest.raises(ValueError, match=r"need at least max\(K\)\+1 = 10 points, got 9"):
            evaluate_embeddings(pts, labels, ManifoldConfig(pool_size=4), SimilarityConfig(), (9,))

    def test_memory_above_pair_limit_stays_below_one_n_by_n_matrix(self):
        n = 2400
        assert n > evaluation.ALL_PAIRS_LIMIT
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(6), n // 6)
        emb = 3.0 * rng.standard_normal((6, 4))[labels] + rng.standard_normal((n, 4))
        tracemalloc.start()
        try:
            evaluate_embeddings(emb, labels, ManifoldConfig(pool_size=20), SimilarityConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * np.dtype(np.float64).itemsize

    def test_reports_do_not_depend_on_the_blas_thread_count(self):
        # The benchmark's eval-large shape, above the all-pairs limit, so the
        # correlation sums over 1M sampled pairs; each report field's repr
        # must be the same under one BLAS thread and two.
        script = (
            "from dataclasses import asdict\n"
            "from plmetric import data, embedder, evaluate_embeddings, ManifoldConfig, SimilarityConfig\n"
            "ds = data.generate_synthetic(data.SyntheticSpec(n_classes=6, points_per_class=400, seed=0))\n"
            "probe = embedder.MLPParams.initialize((ds.dim, *(64,) * 6, 4), seed=1000, gain=10.0)\n"
            "emb = embedder.forward(probe, ds.features)\n"
            "report = evaluate_embeddings(emb, ds.labels, ManifoldConfig(pool_size=20), SimilarityConfig())\n"
            "for name, value in asdict(report).items():\n"
            "    print(name, repr(value))\n"
        )

        def report(threads):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.splitlines()

        one, two = report(1), report(2)
        assert len(one) == 7 and "None" not in "".join(one)
        assert one == two
