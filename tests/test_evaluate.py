import json
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stemts import (
    ClassifierConfig,
    FeatureVector,
    MinerConfig,
    MtsDataset,
    MtsSample,
    SplitSpec,
    SymbolizerConfig,
    baseline_histogram_eval,
    class_centroids,
    evaluate_pipeline,
    generate_synthetic,
    knn_classify,
    nearest_centroid_classify,
    render_report_table,
    reports_to_json,
    split_dataset,
)
from stemts import evaluate
from stemts.errors import (
    DegenerateTaskError,
    IncompatibleVectorError,
    NoModelError,
    UnlabeledDataError,
)

from conftest import make_sample, run_length_spec


def vec(values, sample_id="v", label=None):
    return FeatureVector(sample_id, label, np.asarray(values, dtype=float))


def labeled_dataset(per_class, labels=("a", "b"), length=4):
    rng = np.random.default_rng(0)
    samples = []
    for label in labels:
        for i in range(per_class):
            samples.append(
                make_sample(rng.normal(size=(1, length)), f"{label}{i}", label)
            )
    return MtsDataset(tuple(samples))


class TestSplit:
    def test_balanced_two_classes(self):
        ds = labeled_dataset(5)
        train, test = split_dataset(ds, SplitSpec(train_fraction=0.8, seed=3))
        assert len(train) == 8 and len(test) == 2
        test_labels = sorted(ds.by_id(i).label for i in test)
        assert test_labels == ["a", "b"]
        assert set(train) | set(test) == {s.id for s in ds.samples}
        assert set(train) & set(test) == set()

    def test_deterministic(self):
        ds = labeled_dataset(5)
        spec = SplitSpec(train_fraction=0.8, seed=42)
        assert split_dataset(ds, spec) == split_dataset(ds, spec)

    def test_extreme_fraction_keeps_one_test(self):
        ds = labeled_dataset(10, labels=("only",))
        train, test = split_dataset(ds, SplitSpec(train_fraction=0.999, seed=0))
        assert len(train) == 9 and len(test) == 1

    def test_single_sample_class_goes_to_train(self):
        ds = MtsDataset(
            (
                make_sample([[1.0, 2.0]], "a0", "a"),
                make_sample([[2.0, 1.0]], "b0", "b"),
                make_sample([[1.0, 3.0]], "b1", "b"),
            )
        )
        with pytest.warns(UserWarning):
            train, test = split_dataset(ds, SplitSpec(train_fraction=0.5, seed=0))
        assert "a0" in train

    def test_unlabeled_rejected(self):
        ds = MtsDataset((make_sample([[1.0, 2.0]], "a0", None),))
        with pytest.raises(UnlabeledDataError):
            split_dataset(ds, SplitSpec(seed=0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=0.0)


class TestKnn:
    def test_zero_distance_neighbor(self):
        train = [vec([0.2, 0.4], "t1", "a"), vec([0.9, 0.1], "t2", "b")]
        assert knn_classify(train, vec([0.9, 0.1]), k=1) == "b"

    def test_two_dim_toy(self):
        train = [vec([1.0, 0.0], "t1", "A"), vec([0.0, 1.0], "t2", "B")]
        assert knn_classify(train, vec([0.9, 0.1]), k=1, metric="euclidean") == "A"

    def test_full_k_tie_uses_mean_distance(self):
        train = [vec([1.0, 0.0], "t1", "A"), vec([0.0, 1.0], "t2", "B")]
        assert knn_classify(train, vec([0.9, 0.1]), k=2) == "A"

    def test_exact_tie_falls_back_to_label_order(self):
        train = [vec([1.0, 0.0], "t1", "B"), vec([0.0, 1.0], "t2", "A")]
        assert knn_classify(train, vec([0.5, 0.5]), k=2) == "A"

    def test_majority_beats_distance(self):
        train = [
            vec([0.0, 0.0], "t1", "far"),
            vec([1.0, 1.0], "t2", "near"),
            vec([1.1, 1.1], "t3", "near"),
        ]
        assert knn_classify(train, vec([1.0, 1.05]), k=3) == "near"

    def test_cosine_metric(self):
        train = [vec([1.0, 0.0], "t1", "x"), vec([0.0, 1.0], "t2", "y")]
        assert knn_classify(train, vec([2.0, 0.1]), k=1, metric="cosine") == "x"

    def test_errors(self):
        with pytest.raises(NoModelError):
            knn_classify([], vec([1.0]), k=1)
        train = [vec([1.0, 0.0], "t1", "a")]
        with pytest.raises(IncompatibleVectorError):
            knn_classify(train, vec([1.0]), k=1)
        with pytest.raises(ValueError):
            knn_classify(train, vec([1.0, 0.0]), k=2)
        with pytest.raises(UnlabeledDataError):
            knn_classify([vec([1.0], "t", None)], vec([1.0]), k=1)


def reference_labels(train, queries, k, metric):
    """The per-query classifier the block kernels replaced, kept as the oracle.

    One full distance row per query, a stable argsort for its k nearest and
    the vote: majority, then mean distance within the k, then smaller label.
    """
    matrix = np.vstack([v.values for v in train])
    labels = [v.label for v in train]
    out = []
    for query in queries:
        x = query.values[None, :]
        if metric == "euclidean":
            q2, t2 = (x * x).sum(axis=1)[:, None], (matrix * matrix).sum(axis=1)[None, :]
            row = np.sqrt(np.maximum(q2 + t2 - 2.0 * x @ matrix.T, 0.0))[0]
        else:
            qn, tn = np.linalg.norm(x, axis=1), np.linalg.norm(matrix, axis=1)
            denom = np.outer(qn, tn)
            sim = np.divide(x @ matrix.T, denom, out=np.zeros_like(denom), where=denom > 0.0)
            dist = 1.0 - sim
            dist[np.outer(qn == 0.0, tn == 0.0)] = 0.0
            row = np.maximum(dist, 0.0)[0]
        order = np.argsort(row, kind="stable")[:k]
        counts = Counter(labels[i] for i in order)
        winners = sorted(l for l, c in counts.items() if c == max(counts.values()))
        means = {l: np.mean([row[i] for i in order if labels[i] == l]) for l in winners}
        out.append(min(winners, key=lambda l: (means[l], l)))
    return out


TIE_VALUES = [0.0, -0.0, 0.5, 0.5, 1.0, 1.0, 2.0, np.inf, -np.inf, np.nan]


class TestKernels:
    @settings(max_examples=300, deadline=None)
    @given(
        distances=arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.integers(1, 12)),
            elements=st.sampled_from(TIE_VALUES),
        ),
        k=st.integers(1, 12),
        cells=st.sampled_from([1, 5, 64, evaluate._BLOCK_CELLS]),
    )
    def test_nearest_is_the_stable_argsort_prefix(self, distances, k, cells):
        k = min(k, distances.shape[1])
        with mock.patch.object(evaluate, "_BLOCK_CELLS", cells):
            nearest = evaluate._nearest(distances, k)
        expected = np.argsort(distances, axis=1, kind="stable")[:, :k]
        assert np.array_equal(nearest, expected)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_train=st.integers(500, 700),
        n_queries=st.integers(270, 400),
        width=st.integers(1, 4),
        k=st.integers(1, 5),
        metric=st.sampled_from(["euclidean", "cosine"]),
        grid=st.sampled_from([[0.0, 0.25, 0.5, 1.0], [0.0, 0.5, 1.0, np.inf, np.nan]]),
    )
    def test_predict_equals_per_query_reference(
        self, seed, n_train, n_queries, width, k, metric, grid
    ):
        # quarter steps make every product exact, so ties are true ties; the
        # queries span at least three row blocks
        assert n_queries > 2 * (evaluate._BLOCK_CELLS // n_train)
        rng = np.random.default_rng(seed)
        grid = np.array(grid)
        train = [
            vec(rng.choice(grid, width), f"t{i}", "abc"[rng.integers(0, 3)])
            for i in range(n_train)
        ]
        queries = [vec(rng.choice(grid, width), f"q{i}") for i in range(n_queries)]
        expected = reference_labels(train, queries, k, metric)
        config = ClassifierConfig("knn", k, metric)
        assert evaluate._predict(train, queries, config) == expected
        for query, label in list(zip(queries, expected))[:20]:
            assert knn_classify(train, query, k, metric) == label

    @pytest.mark.parametrize("metric, k", [("euclidean", 1), ("cosine", 5)])
    def test_memory_is_one_matrix_plus_blocks(self, metric, k):
        rng = np.random.default_rng(0)
        n_queries, n_train = 1000, 4000
        train = [vec(rng.random(8), f"t{i}", "ab"[i % 2]) for i in range(n_train)]
        queries = [vec(rng.random(8), f"q{i}") for i in range(n_queries)]
        tracemalloc.start()
        try:
            evaluate._predict(train, queries, ClassifierConfig("knn", k, metric))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix_bytes = n_queries * n_train * 8
        assert peak < 1.5 * matrix_bytes, f"peak {peak / matrix_bytes:.2f} matrices"


class TestNearestCentroid:
    def test_single_sample_per_class_is_one_nn(self):
        train = [vec([1.0, 0.0], "t1", "A"), vec([0.0, 1.0], "t2", "B")]
        query = vec([0.9, 0.1])
        assert nearest_centroid_classify(train, query) == knn_classify(train, query, k=1)

    def test_equidistant_tie_prefers_smaller_label(self):
        train = [vec([0.0, 0.0], "t1", "b"), vec([1.0, 1.0], "t2", "a")]
        assert nearest_centroid_classify(train, vec([0.5, 0.5])) == "a"

    def test_centroid_is_classwise_mean(self):
        train = [vec([0.0, 0.0], "t1", "X"), vec([1.0, 1.0], "t2", "X")]
        centroids = class_centroids(train)
        assert centroids["X"].tolist() == [0.5, 0.5]


class TestBaseline:
    def test_one_dim_histogram_width(self):
        ds = labeled_dataset(5, length=6)
        report = baseline_histogram_eval(ds, SplitSpec(seed=1))
        assert len(report.vocabulary) == 3
        assert report.method == "baseline"

    def test_constant_data_masses_on_flat_code(self):
        # constant values normalize to zeros, so every event is the flat code
        from stemts import convert_dataset, full_alphabet_vocabulary, vectorize

        ds = MtsDataset(
            (make_sample([[3.0, 3.0, 3.0, 3.0]], "c0", "c"),)
        )
        seq = convert_dataset(ds, SymbolizerConfig(0.05))[0]
        v = vectorize(seq, full_alphabet_vocabulary(1))
        assert v.values.tolist() == [0.0, 1.0, 0.0]

    def test_chance_level_on_identical_distributions(self):
        rng = np.random.default_rng(12)
        samples = []
        for label in ("a", "b"):
            for i in range(100):
                samples.append(
                    make_sample(rng.uniform(size=(1, 30)), f"{label}{i}", label)
                )
        ds = MtsDataset(tuple(samples))
        report = baseline_histogram_eval(ds, SplitSpec(train_fraction=0.8, seed=5))
        assert 0.25 <= report.accuracy <= 0.75


class TestPipeline:
    def test_noiseless_separable_is_perfect(self):
        ds = generate_synthetic(run_length_spec(0.0, samples_per_class=25, length=60))
        report = evaluate_pipeline(
            ds,
            SymbolizerConfig(0.05),
            MinerConfig(min_support=0.05, max_len=5),
            SplitSpec(train_fraction=0.8, seed=0),
            ClassifierConfig("knn", 1, "euclidean"),
        )
        assert report.accuracy == 1.0

    def test_perfect_for_any_feasible_support(self):
        ds = generate_synthetic(run_length_spec(0.0, samples_per_class=25, length=60))
        for support in (1, 5, 20):
            report = evaluate_pipeline(
                ds,
                SymbolizerConfig(0.05),
                MinerConfig(min_support=support, max_len=5),
                SplitSpec(train_fraction=0.8, seed=0),
            )
            assert report.accuracy == 1.0, f"support={support}"

    def test_resubstitution_with_distinct_vectors_is_perfect(self):
        ds = generate_synthetic(run_length_spec(0.4, samples_per_class=10, length=60))
        report = evaluate_pipeline(ds, resubstitution=True)
        assert report.n_train == report.n_test == len(ds)
        assert report.accuracy == 1.0

    def test_accuracy_equals_confusion_trace(self):
        ds = generate_synthetic(run_length_spec(0.4, samples_per_class=15, length=60))
        report = evaluate_pipeline(ds, split=SplitSpec(seed=9))
        c = report.confusion
        assert report.accuracy == np.trace(c) / c.sum()
        assert c.sum() == report.n_test

    def test_degenerate_task_rejected(self):
        ds = labeled_dataset(3, labels=("only",))
        with pytest.raises(DegenerateTaskError):
            evaluate_pipeline(ds)

    def test_unlabeled_rejected(self):
        ds = MtsDataset(
            (
                make_sample([[1.0, 2.0]], "a0", "a"),
                make_sample([[2.0, 1.0]], "u0", None),
            )
        )
        with pytest.raises(UnlabeledDataError):
            evaluate_pipeline(ds)

    def test_determinism_modulo_timings(self):
        ds = generate_synthetic(run_length_spec(0.4, samples_per_class=10, length=40))
        one = evaluate_pipeline(ds, split=SplitSpec(seed=2))
        two = evaluate_pipeline(ds, split=SplitSpec(seed=2))
        assert one.to_dict(include_timings=False) == two.to_dict(include_timings=False)
        assert one.vocabulary.features == two.vocabulary.features

    def test_timings_block(self):
        ds = generate_synthetic(run_length_spec(0.0, samples_per_class=10, length=40))
        report = evaluate_pipeline(ds)
        t = report.timings
        assert set(t) == {"symbolize", "mine", "featurize", "classify", "total"}
        assert all(v >= 0.0 for v in t.values())
        assert t["total"] >= max(v for k, v in t.items() if k != "total")

    def test_mutating_test_sample_leaves_vocabulary_alone(self):
        ds = generate_synthetic(run_length_spec(0.4, samples_per_class=10, length=40))
        split = SplitSpec(train_fraction=0.8, seed=4)
        _, test_ids = split_dataset(ds, split)
        mutated_samples = []
        for s in ds.samples:
            if s.id == test_ids[0]:
                mutated_samples.append(
                    MtsSample(s.id, s.label, s.values + np.sin(s.values) + 3.0)
                )
            else:
                mutated_samples.append(s)
        mutated = MtsDataset(tuple(mutated_samples))
        base = evaluate_pipeline(ds, split=split)
        moved = evaluate_pipeline(mutated, split=split)
        assert base.vocabulary.features == moved.vocabulary.features

    def test_baseline_uses_same_split(self):
        ds = generate_synthetic(run_length_spec(0.4, samples_per_class=10, length=40))
        split = SplitSpec(seed=6)
        stem = evaluate_pipeline(ds, split=split)
        base = baseline_histogram_eval(ds, split=split)
        assert stem.n_test == base.n_test
        assert stem.config["seed"] == base.config["seed"]

    def test_impossible_support_still_reports(self):
        # nothing survives mining, so vectors are empty; the run must not crash
        ds = generate_synthetic(run_length_spec(0.4, samples_per_class=5, length=20))
        with pytest.warns(UserWarning):
            report = evaluate_pipeline(ds, miner=MinerConfig(min_support=1000))
        assert len(report.vocabulary) == 0
        assert 0.0 <= report.accuracy <= 1.0
        assert report.confusion.sum() == report.n_test


class TestReportRendering:
    def make_reports(self):
        ds = generate_synthetic(run_length_spec(0.0, samples_per_class=5, length=30))
        split = SplitSpec(seed=0)
        return [
            evaluate_pipeline(ds, split=split, dataset_name="toy"),
            baseline_histogram_eval(ds, split=split, dataset_name="toy"),
        ]

    def test_json_shape(self):
        reports = self.make_reports()
        payload = json.loads(reports_to_json(reports))
        assert payload["dataset"] == "toy"
        assert set(payload["methods"]) == {"stem", "baseline"}
        stem = payload["methods"]["stem"]
        assert {"accuracy", "confusion", "config", "timings"} <= set(stem)

    def test_table_sections(self):
        text = render_report_table(self.make_reports())
        lines = text.splitlines()
        assert lines[0] == "Average accuracy"
        assert any(line.startswith("stem") for line in lines)
        assert any(line.startswith("baseline") for line in lines)
        assert "CPU time (seconds)" in lines
        # accuracy section comes first so the timing block can be cut off
        assert lines.index("CPU time (seconds)") > lines.index("Average accuracy")
