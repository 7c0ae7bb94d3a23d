import json
import math
import tracemalloc
import types
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stemts import (
    ClassifierConfig,
    EventBatch,
    FeatureVector,
    MinerConfig,
    MtsDataset,
    MtsSample,
    SplitSpec,
    SymbolizerConfig,
    baseline_histogram_eval,
    build_forest,
    build_vocabulary,
    convert_dataset,
    evaluate_pipeline,
    extract_rts_features,
    full_alphabet_vocabulary,
    generate_synthetic,
    load_vocabulary,
    prune_bottom_up,
    render_report_table,
    reports_to_json,
    save_vocabulary,
    split_dataset,
    vectorize_batch,
    vectorize_dataset,
    write_csv,
    write_report_files,
)
import stemts
from stemts import dataset as dataset_module
from stemts import evaluate
from stemts.cli import main
from stemts.errors import ConfigError, DegenerateTaskError, UnlabeledDataError

from conftest import make_sample, run_length_spec


def vec(values, sample_id="v", label=None):
    return FeatureVector(sample_id, label, np.asarray(values, dtype=float))


def predict(train, queries, classifier):
    """``evaluate._predict`` on the matrices of FeatureVector lists, one row per vector."""
    matrix, labels = np.vstack([v.values for v in train]), [v.label for v in train]
    rows, query_rows = np.arange(len(train)), np.arange(len(queries))
    queries = np.vstack([q.values for q in queries])
    return evaluate._predict(matrix, rows, labels, queries, query_rows, classifier)


def knn(train, query, k, metric="euclidean"):
    """One query's kNN label, classified on its own."""
    return predict(train, [query], ClassifierConfig("knn", k, metric))[0]


def centroid(train, query, metric="euclidean"):
    """One query's nearest-centroid label, classified on its own."""
    return predict(train, [query], ClassifierConfig("centroid", 1, metric))[0]


def untimed(report):
    """``report.to_dict()`` without its ``timings`` block, the one part that varies between runs."""
    payload = report.to_dict()
    del payload["timings"]
    return payload


def test_package_keeps_the_evaluate_module():
    # exporting the evaluate function would hide the module of the same name
    assert isinstance(stemts.evaluate, types.ModuleType)
    assert stemts.evaluate is evaluate and "evaluate" not in stemts.__all__
    assert "vectorize_batch" in stemts.__all__
    exported = [getattr(stemts, name) for name in stemts.__all__]
    assert not any(isinstance(value, types.ModuleType) for value in exported)


def labeled_dataset(per_class, labels=("a", "b"), length=4):
    rng = np.random.default_rng(0)
    samples = []
    for label in labels:
        for i in range(per_class):
            samples.append(
                make_sample(rng.normal(size=(1, length)), f"{label}{i}", label)
            )
    return MtsDataset.from_samples(tuple(samples))


def reference_label_codes(labels):
    """The sorted labels but None, and each label's index among them by one dict, -1 for None."""
    names = tuple(sorted({label for label in labels if label is not None}))
    index = {None: -1} | {name: i for i, name in enumerate(names)}
    return names, [index[label] for label in labels]


class TestLabelCodes:
    @settings(max_examples=300, deadline=None)
    @given(
        pool=st.sampled_from([["a", "b", "c", None], [3, 1, 2, None], ["walk", "sit"], [None]]),
        data=st.data(),
    )
    def test_equals_the_dict_reference(self, pool, data):
        # runs of one label, interleaved runs, and the same labels shuffled
        runs = data.draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 5)), max_size=12))
        labels = [label for label, n in runs for _ in range(n)]
        if data.draw(st.booleans()):
            labels = data.draw(st.permutations(labels))
        names, codes = evaluate._label_codes(tuple(labels))
        assert (names, codes.tolist()) == reference_label_codes(labels)
        assert codes.dtype == np.intp

    def test_errors_keep_their_messages(self):
        unlabeled = MtsDataset.from_samples(
            (make_sample([[1.0, 2.0]], "a0", "a"), make_sample([[2.0, 1.0]], "u0", None))
        )
        with pytest.raises(UnlabeledDataError) as info:
            evaluate.evaluate(unlabeled)
        assert str(info.value) == "every sample needs a label for evaluation"
        with pytest.raises(UnlabeledDataError) as info:
            split_dataset(unlabeled, SplitSpec(seed=0))
        assert str(info.value) == "cannot split unlabeled samples: ['u0']"
        with pytest.raises(DegenerateTaskError) as info:
            evaluate.evaluate(labeled_dataset(3, labels=("only",)))
        assert str(info.value) == "classification needs at least 2 classes, got 1"


class TestSplit:
    def test_balanced_two_classes(self):
        ds = labeled_dataset(5)
        train, test = split_dataset(ds, SplitSpec(train_fraction=0.8, seed=3))
        assert len(train) == 8 and len(test) == 2
        test_labels = sorted(ds[ds.ids.index(i)].label for i in test)
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
        ds = MtsDataset.from_samples(
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
        ds = MtsDataset.from_samples((make_sample([[1.0, 2.0]], "a0", None),))
        with pytest.raises(UnlabeledDataError):
            split_dataset(ds, SplitSpec(seed=0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=0.0)
        for seed in (-1, 1.5, 2.0, True, "3"):
            with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
                SplitSpec(seed=seed)
        assert SplitSpec(seed=np.int64(3)).seed == 3
        assert type(SplitSpec(seed=np.int64(3)).seed) is int
        assert type(SplitSpec(train_fraction=np.float32(0.75)).train_fraction) is float


def reference_split_group(ids, train_fraction, rng):
    """The id-based group split ``split_dataset`` was written as, kept as its oracle."""
    n = len(ids)
    if n == 1:
        warnings.warn(f"group with a single sample ({ids[0]!r}) goes to train entirely")
        return list(ids), []
    n_test = max(1, math.floor((1.0 - train_fraction) * n))
    n_test = min(n_test, n - 1)
    perm = rng.permutation(n)
    test_positions = {int(p) for p in perm[:n_test]}
    train = [ids[i] for i in range(n) if i not in test_positions]
    test = [ids[i] for i in range(n) if i in test_positions]
    return train, test


def reference_split_dataset(dataset, spec):
    rng = np.random.default_rng(spec.seed)
    train, test = [], []
    if spec.stratified:
        for label in dataset.label_set:
            ids = [s.id for s in dataset.samples if s.label == label]
            tr, te = reference_split_group(ids, spec.train_fraction, rng)
            train.extend(tr)
            test.extend(te)
    else:
        train, test = reference_split_group(
            [s.id for s in dataset.samples], spec.train_fraction, rng
        )
    position = {s.id: i for i, s in enumerate(dataset.samples)}
    train.sort(key=position.__getitem__)
    test.sort(key=position.__getitem__)
    return train, test


class TestSplitOracle:
    """The split draws the same permutations per label group as the id-based reference."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=40),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(0, 2**32),
        st.booleans(),
    )
    def test_equals_the_id_based_reference(self, labels, train_fraction, seed, stratified):
        ds = MtsDataset.from_samples(
            tuple(make_sample([[0.0, 1.0]], f"s{i}", label) for i, label in enumerate(labels))
        )
        spec = SplitSpec(train_fraction, seed, stratified)
        with warnings.catch_warnings(record=True) as expected:
            warnings.simplefilter("always")
            reference = reference_split_dataset(ds, spec)
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            assert split_dataset(ds, spec) == reference
        assert [str(w.message) for w in got] == [str(w.message) for w in expected]


class TestKnn:
    def test_zero_distance_neighbor(self):
        train = [vec([0.2, 0.4], "t1", "a"), vec([0.9, 0.1], "t2", "b")]
        assert knn(train, vec([0.9, 0.1]), k=1) == "b"

    def test_two_dim_toy(self):
        train = [vec([1.0, 0.0], "t1", "A"), vec([0.0, 1.0], "t2", "B")]
        assert knn(train, vec([0.9, 0.1]), k=1, metric="euclidean") == "A"

    def test_full_k_tie_uses_mean_distance(self):
        train = [vec([1.0, 0.0], "t1", "A"), vec([0.0, 1.0], "t2", "B")]
        assert knn(train, vec([0.9, 0.1]), k=2) == "A"

    def test_exact_tie_falls_back_to_label_order(self):
        train = [vec([1.0, 0.0], "t1", "B"), vec([0.0, 1.0], "t2", "A")]
        assert knn(train, vec([0.5, 0.5]), k=2) == "A"

    def test_majority_beats_distance(self):
        train = [
            vec([0.0, 0.0], "t1", "far"),
            vec([1.0, 1.0], "t2", "near"),
            vec([1.1, 1.1], "t3", "near"),
        ]
        assert knn(train, vec([1.0, 1.05]), k=3) == "near"

    def test_cosine_metric(self):
        train = [vec([1.0, 0.0], "t1", "x"), vec([0.0, 1.0], "t2", "y")]
        assert knn(train, vec([2.0, 0.1]), k=1, metric="cosine") == "x"

    def test_config_validation(self):
        for k in (0, 1.5, 2.0, True, "1"):
            with pytest.raises(ConfigError, match="k must be an integer >= 1"):
                ClassifierConfig("knn", k)
        assert ClassifierConfig("knn", np.int64(3)).k == 3
        assert type(ClassifierConfig("knn", np.int64(3)).k) is int

    def test_errors(self):
        # stemts eval --k 9999 reaches this check
        train = [vec([1.0, 0.0], "t1", "a")]
        with pytest.raises(ConfigError, match=r"k must lie in \[1, 1\], got 2"):
            knn(train, vec([1.0, 0.0]), k=2)


def reference_row(x, matrix, metric):
    """One query's distances to every row of ``matrix``, computed on its own."""
    x = x[None, :]
    if metric == "euclidean":
        q2, t2 = (x * x).sum(axis=1)[:, None], (matrix * matrix).sum(axis=1)[None, :]
        return np.sqrt(np.maximum(q2 + t2 - 2.0 * x @ matrix.T, 0.0))[0]
    qn, tn = np.linalg.norm(x, axis=1), np.linalg.norm(matrix, axis=1)
    denom = np.outer(qn, tn)
    sim = np.divide(x @ matrix.T, denom, out=np.zeros_like(denom), where=denom > 0.0)
    dist = 1.0 - sim
    dist[np.outer(qn == 0.0, tn == 0.0)] = 0.0
    return np.maximum(dist, 0.0)[0]


def reference_labels(train, queries, k, metric):
    """The per-query classifier the block kernels replaced, kept as the oracle.

    One full distance row per query, a stable argsort for its k nearest and
    the vote: majority, then mean distance within the k, then smaller label.
    """
    matrix = np.vstack([v.values for v in train])
    labels = [v.label for v in train]
    out = []
    for query in queries:
        row = reference_row(query.values, matrix, metric)
        order = np.argsort(row, kind="stable")[:k]
        counts = Counter(labels[i] for i in order)
        winners = sorted(l for l, c in counts.items() if c == max(counts.values()))
        means = {l: np.mean([row[i] for i in order if labels[i] == l]) for l in winners}
        out.append(min(winners, key=lambda l: (means[l], l)))
    return out


def reference_centroid_labels(train, queries, metric):
    """Per query, the first of the sorted labels whose class mean is nearest."""
    matrix, labels = np.vstack([v.values for v in train]), np.array([v.label for v in train])
    names = sorted(set(labels.tolist()))
    means = np.vstack([matrix[labels == name].mean(axis=0) for name in names])
    return [names[reference_row(q.values, means, metric).argmin()] for q in queries]


def two_branch_distances(queries, train, metric):
    """The distance matrix as two per-metric formulas, each with its own product.

    ``evaluate._distances`` shares one product and one block loop between the
    metrics; this is the formula it replaced, kept as its bit-for-bit reference.
    """
    if metric == "euclidean":
        q2, t2 = (queries * queries).sum(axis=1), (train * train).sum(axis=1)
        dist = np.maximum(q2[:, None] + t2 - 2.0 * queries @ train.T, 0.0)
        return np.sqrt(dist)
    qn, tn = np.linalg.norm(queries, axis=1), np.linalg.norm(train, axis=1)
    denom = np.outer(qn, tn)
    ok = denom > 0.0
    dist = 1.0 - np.divide(queries @ train.T, denom, out=np.zeros_like(denom), where=ok)
    dist[np.ix_(qn == 0.0, tn == 0.0)] = 0.0
    return np.maximum(dist, 0.0)


TIE_VALUES = [0.0, -0.0, 0.5, 0.5, 1.0, 1.0, 2.0, np.inf, -np.inf, np.nan]


@st.composite
def row_mapped(draw):
    """``_predict``'s inputs: few distinct quarter-step rows, random maps of the samples onto
    them, and labels that put equal vectors in different classes.

    Class sizes are powers of two and entries quarter steps, so the centroids and every
    product are exact and ties are true ties, as the references need.
    """
    width = draw(st.integers(1, 3))
    rows = arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.just(width)),
        elements=st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
    )
    matrix, queries = draw(rows), draw(rows)
    labels = draw(st.permutations(draw(st.sampled_from(["aaaabbcc", "aaaabbbb", "aabbccdd"]))))
    matrix_of = draw(st.lists(st.integers(0, len(matrix) - 1), min_size=8, max_size=8))
    query_of = draw(st.lists(st.integers(0, len(queries) - 1), min_size=1, max_size=8))
    return matrix, np.array(matrix_of), labels, queries, np.array(query_of)


class TestKernels:
    @settings(max_examples=300, deadline=None)
    @given(
        metric=st.sampled_from(evaluate.METRICS),
        shape=st.tuples(st.integers(0, 12), st.integers(1, 12), st.integers(1, 6)),
        cells=st.sampled_from([1, 5, 64, dataset_module._BLOCK_CELLS]),
        data=st.data(),
    )
    def test_distances_equal_the_two_branch_formula(self, metric, shape, cells, data):
        # quarter steps tie exactly; products of values near 1e-161 underflow, where
        # 2 x (q·t) and (2q)·t differ; -0.0, whole zero rows and other floats ride along
        n_queries, n_train, width = shape
        values = st.one_of(
            st.sampled_from([0.0, -0.0, 0.25, 0.5, 0.75, 1.0]),
            st.floats(1e-162, 1e-160),
            st.floats(-1e3, 1e3, allow_subnormal=False),
        )
        queries, train = (
            data.draw(arrays(np.float64, (n, width), elements=values)) for n in (n_queries, n_train)
        )
        queries[data.draw(arrays(bool, n_queries))] = data.draw(st.sampled_from([0.0, -0.0]))
        train[data.draw(arrays(bool, n_train))] = data.draw(st.sampled_from([0.0, -0.0]))
        with mock.patch.object(dataset_module, "_BLOCK_CELLS", cells):
            dist = evaluate._distances(queries, train, metric)
        expected = two_branch_distances(queries, train, metric)
        assert np.array_equal(dist.view(np.uint64), expected.view(np.uint64))

    @settings(max_examples=300, deadline=None)
    @given(
        distances=arrays(
            np.float64,
            st.tuples(st.integers(1, 40), st.integers(1, 12)),
            elements=st.sampled_from(TIE_VALUES),
        ),
        k=st.integers(1, 12),
        cells=st.sampled_from([1, 5, 64, dataset_module._BLOCK_CELLS]),
    )
    def test_nearest_is_the_stable_argsort_prefix(self, distances, k, cells):
        k = min(k, distances.shape[1])
        with mock.patch.object(dataset_module, "_BLOCK_CELLS", cells):
            nearest = evaluate._nearest(distances, k, np.arange(distances.shape[1]))
        expected = np.argsort(distances, axis=1, kind="stable")[:, :k]
        assert np.array_equal(nearest, expected)

    @settings(max_examples=500, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 6)),
        cells=st.sampled_from([1, 5, 64, dataset_module._BLOCK_CELLS]),
        data=st.data(),
    )
    def test_nearest_with_any_column_map(self, shape, cells, data):
        # columns repeat, go unused and meet their first training vector out of column
        # order; TIE_VALUES tie across columns whose vectors interleave, and bring inf and nan
        n_queries, n_columns = shape
        distances = data.draw(
            arrays(np.float64, shape, elements=st.sampled_from(TIE_VALUES))
            | arrays(np.float64, shape, elements=st.sampled_from([0.0, -0.0, 0.5, 1.0]))
        )
        columns = np.array(
            data.draw(st.lists(st.integers(0, n_columns - 1), min_size=1, max_size=30)), np.intp
        )
        k = data.draw(st.integers(1, len(columns)))  # often above the columns in use
        with mock.patch.object(dataset_module, "_BLOCK_CELLS", cells):
            nearest = evaluate._nearest(distances, k, columns)
        expected = np.argsort(distances.take(columns, axis=1), kind="stable")[:, :k]
        assert np.array_equal(nearest, expected)

    @pytest.mark.parametrize(
        "row, columns, k",
        [
            # column 0 is unused, so the columns in use are not 0..m-1
            ([0.0, 1.0, 0.5], [2, 1, 2], 2),
            ([0.0, 1.0, 0.5], [2, 1, 2], 3),
            # equal distances (a 0.0 and a -0.0 vector are two columns) whose first
            # training vectors come in the other order than the columns
            ([0.5, 0.5], [1, 0, 1, 0], 3),
            ([-0.0, 0.0, 1.0], [2, 1, 0, 1, 2, 0], 4),
            # a nearer column's vectors come after a tied pair's, k reaching into the pair
            ([0.5, 0.0, 0.5], [2, 0, 2, 1, 0], 4),
            # an inf: the rounds run out of finite distances and meet masked columns
            ([0.0, np.inf], [0, 0, 1], 3),
            ([np.inf, 0.0], [1, 0, 1], 3),
        ],
    )
    def test_nearest_pinned_column_maps(self, row, columns, k):
        distances, columns = np.array([row]), np.array(columns)
        expected = np.argsort(distances.take(columns, axis=1), kind="stable")[:, :k]
        assert np.array_equal(evaluate._nearest(distances, k, columns), expected)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_train=st.integers(500, 700),
        n_queries=st.integers(270, 400),
        width=st.integers(1, 4),
        k=st.integers(1, 5),
        metric=st.sampled_from(["euclidean", "cosine"]),
        grid=st.sampled_from(
            [[0.0, -0.0, 0.25, 0.5, 1.0], [0.0, -0.0, 0.5, 1.0, np.inf, np.nan]]
        ),
    )
    def test_predict_equals_per_query_reference(
        self, seed, n_train, n_queries, width, k, metric, grid
    ):
        # quarter steps make every product exact, so ties are true ties; every
        # fifth vector is all nan, so both sides repeat vectors
        rng = np.random.default_rng(seed)
        grid = np.array(grid)

        def values(i):
            return np.full(width, np.nan) if i % 5 == 4 else rng.choice(grid, width)

        train = [vec(values(i), f"t{i}", "abc"[rng.integers(0, 3)]) for i in range(n_train)]
        queries = [vec(values(i), f"q{i}") for i in range(n_queries)]
        distinct_queries = len({q.values.tobytes() for q in queries})
        distinct_train = len({t.values.tobytes() for t in train})
        assert distinct_queries >= 3
        # blocks of a third of the distinct queries: the distinct matrix and
        # its gathered rows span at least three row blocks
        cells = distinct_train * max(1, distinct_queries // 3)
        expected = reference_labels(train, queries, k, metric)
        with mock.patch.object(dataset_module, "_BLOCK_CELLS", cells):
            assert predict(train, queries, ClassifierConfig("knn", k, metric)) == expected
        for query, label in list(zip(queries, expected))[:20]:
            assert knn(train, query, k, metric) == label
        # 128/64/64 members per class keep the centroids on a dyadic grid;
        # leaving out the all-nan vectors keeps them off nan on the finite grid
        kept = [t for i, t in enumerate(train) if i % 5 != 4][:256]
        members = [vec(t.values, t.sample_id, "aabc"[i % 4]) for i, t in enumerate(kept)]
        centroid = predict(members, queries, ClassifierConfig("centroid", 1, metric))
        assert centroid == reference_centroid_labels(members, queries, metric)

    @settings(max_examples=300, deadline=None)
    @given(instance=row_mapped(), k=st.integers(1, 5), metric=st.sampled_from(evaluate.METRICS))
    def test_row_maps_equal_one_row_per_sample(self, instance, k, metric):
        # k runs above the number of distinct training vectors (at most 4)
        matrix, matrix_of, labels, queries, query_of = instance
        train = [vec(matrix[i], f"t{n}", label) for n, (i, label) in enumerate(zip(matrix_of, labels))]
        asked = [vec(queries[j], f"q{n}") for n, j in enumerate(query_of)]
        for classifier, expected in [
            (ClassifierConfig("knn", k, metric), reference_labels(train, asked, k, metric)),
            (ClassifierConfig("centroid", k, metric), reference_centroid_labels(train, asked, metric)),
        ]:
            mapped = evaluate._predict(matrix, matrix_of, labels, queries, query_of, classifier)
            assert mapped == predict(train, asked, classifier) == expected

    @pytest.mark.parametrize("metric, k", [("euclidean", 1), ("cosine", 5)])
    def test_memory_is_one_matrix_plus_blocks(self, metric, k):
        rng = np.random.default_rng(0)
        n_queries, n_train = 1000, 4000
        train = [vec(rng.random(8), f"t{i}", "ab"[i % 2]) for i in range(n_train)]
        queries = [vec(rng.random(8), f"q{i}") for i in range(n_queries)]
        tracemalloc.start()
        try:
            predict(train, queries, ClassifierConfig("knn", k, metric))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix_bytes = n_queries * n_train * 8
        assert peak < 1.5 * matrix_bytes, f"peak {peak / matrix_bytes:.2f} matrices"

    @pytest.mark.parametrize("metric, k", [("euclidean", 1), ("cosine", 5)])
    def test_repeated_vectors_need_no_full_matrix(self, metric, k):
        rng = np.random.default_rng(1)
        n_queries, n_train = 1000, 4000
        # quarter steps keep the reference's products exact, so its ties match
        kinds, asked = rng.integers(0, 5, (10, 8)) / 4, rng.integers(0, 5, (5, 8)) / 4
        train = [vec(kinds[i % 10], f"t{i}", "ab"[i % 3 == 0]) for i in range(n_train)]
        queries = [vec(asked[i % 5], f"q{i}") for i in range(n_queries)]
        tracemalloc.start()
        try:
            labels = predict(train, queries, ClassifierConfig("knn", k, metric))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix_bytes = n_queries * n_train * 8
        assert peak < 0.1 * matrix_bytes, f"peak {peak / matrix_bytes:.3f} matrices"
        assert labels == reference_labels(train, queries[:5], k, metric) * (n_queries // 5)


class TestNearestCentroid:
    def test_single_sample_per_class_is_one_nn(self):
        train = [vec([1.0, 0.0], "t1", "A"), vec([0.0, 1.0], "t2", "B")]
        query = vec([0.9, 0.1])
        assert centroid(train, query) == knn(train, query, k=1)

    def test_equidistant_tie_prefers_smaller_label(self):
        train = [vec([0.0, 0.0], "t1", "b"), vec([1.0, 1.0], "t2", "a")]
        assert centroid(train, vec([0.5, 0.5])) == "a"

    @pytest.mark.parametrize("metric", evaluate.METRICS)
    def test_identical_means_go_to_the_smaller_label(self, metric):
        # both means are (0.5, 0.5): one distinct vector, so the tie is the label order's
        train = [vec([0.0, 1.0], "t1", "b"), vec([1.0, 0.0], "t2", "b")]
        train += [vec([1.0, 0.0], "t3", "a"), vec([0.0, 1.0], "t4", "a")]
        assert centroid(train, vec([0.2, 0.9]), metric) == "a"

    def test_centroid_is_classwise_mean(self):
        # X's mean (1, 1) is nearer the query than Y's (1.75, 1.75); X's nearest member is not
        train = [vec([0.0, 0.0], "t1", "X"), vec([2.0, 2.0], "t2", "X"), vec([1.75, 1.75], "t3", "Y")]
        query = vec([1.25, 1.25])
        means = {
            label: np.mean([v.values for v in train if v.label == label], axis=0) for label in "XY"
        }
        assert means["X"].tolist() == [1.0, 1.0]
        nearest = min("XY", key=lambda label: np.linalg.norm(means[label] - query.values))
        assert nearest == "X" == centroid(train, query)
        assert knn(train, query, k=1) == "Y"


class TestBaseline:
    def test_one_dim_histogram_width(self):
        ds = labeled_dataset(5, length=6)
        report = baseline_histogram_eval(ds, SplitSpec(seed=1))
        assert len(report.vocabulary) == 3
        assert report.method == "baseline"

    def test_constant_data_masses_on_flat_code(self):
        # constant values normalize to zeros, so every event is the flat code
        from stemts import full_alphabet_vocabulary

        ds = MtsDataset.from_samples(
            (make_sample([[3.0, 3.0, 3.0, 3.0]], "c0", "c"),)
        )
        batch = convert_dataset(ds, SymbolizerConfig(0.05))
        v = vectorize_batch(batch, full_alphabet_vocabulary(1))[0]
        assert v.tolist() == [0.0, 1.0, 0.0]

    def test_chance_level_on_identical_distributions(self):
        rng = np.random.default_rng(12)
        samples = []
        for label in ("a", "b"):
            for i in range(100):
                samples.append(
                    make_sample(rng.uniform(size=(1, 30)), f"{label}{i}", label)
                )
        ds = MtsDataset.from_samples(tuple(samples))
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
        ds = MtsDataset.from_samples(
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
        assert untimed(one) == untimed(two)
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
        mutated = MtsDataset.from_samples(tuple(mutated_samples))
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


@st.composite
def ragged_tasks(draw):
    """Two classes in shuffled order, lengths 2..12; few distinct values make ties common."""
    dims = draw(st.integers(1, 2))
    samples = []
    for label in ("a", "b"):
        for i in range(draw(st.integers(2, 6))):
            shape = (dims, draw(st.integers(2, 12)))
            values = draw(arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0, 2.0, 5.0])))
            samples.append(make_sample(values, f"{label}{i}", label))
    return MtsDataset.from_samples(tuple(draw(st.permutations(samples))))


class TestBatchPath:
    @settings(max_examples=100, deadline=None)
    @given(ragged_tasks(), st.booleans(), st.integers(1, 4), st.integers(1, 4), st.integers(0, 9))
    def test_equals_the_per_sample_public_chain(self, dataset, pad, support, max_len, seed):
        symbolizer, miner = SymbolizerConfig(0.05), MinerConfig(support, max_len)
        split, classifier = SplitSpec(seed=seed), ClassifierConfig("knn", 1, "euclidean")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty vocabulary warns
            report = evaluate_pipeline(dataset, symbolizer, miner, split, classifier, pad=pad)
        vocab = report.vocabulary

        train_ids, test_ids = split_dataset(dataset, split)
        length = {s.id: s.length for s in dataset.samples}
        pad_to = max(length[i] for i in train_ids) if pad else None
        by_id = {q.sample_id: q for q in convert_dataset(dataset, symbolizer, pad_to)}
        train, test = [by_id[i] for i in train_ids], [by_id[i] for i in test_ids]
        features = extract_rts_features(prune_bottom_up(build_forest(train, miner), miner))
        assert vocab.features == tuple(features)

        batch = convert_dataset(dataset, symbolizer, pad_to)
        row = {sample_id: i for i, sample_id in enumerate(batch.ids)}
        train_matrix = vectorize_batch(batch.take([row[i] for i in train_ids]), vocab)
        test_matrix = vectorize_batch(batch.take([row[i] for i in test_ids]), vocab)
        train_vecs, test_vecs = vectorize_dataset(train, vocab), vectorize_dataset(test, vocab)
        assert np.array_equal(train_matrix, np.vstack([v.values for v in train_vecs]))
        assert np.array_equal(test_matrix, np.vstack([v.values for v in test_vecs]))

        labels = [q.label for q in train]
        predictions = evaluate._predict(
            train_matrix, np.arange(len(train)), labels, test_matrix, np.arange(len(test)), classifier
        )
        confusion = np.zeros((2, 2), dtype=np.int64)
        for truth, predicted in zip([q.label for q in test], predictions):
            confusion["ab".index(truth), "ab".index(predicted)] += 1
        assert np.array_equal(report.confusion, confusion)
        for query, label in zip(test_vecs, predictions):
            # where the nearest vectors tie within rounding and disagree on the
            # label, which one wins may depend on the batch (a known open item)
            distance = np.linalg.norm(train_matrix - query.values, axis=1)
            near = {labels[i] for i in np.flatnonzero(distance <= distance.min() + 1e-9)}
            if len(near) == 1:
                assert knn(train_vecs, query, 1) == label


@st.composite
def repeating_tasks(draw):
    """Two or three classes of 2..6 samples, lengths 2..6, from few values: many samples
    share their code sequence, also across classes and splits."""
    dims = draw(st.integers(1, 2))
    samples = []
    for label in draw(st.sampled_from(["ba", "cab", "ab"])):
        for i in range(draw(st.integers(2, 6))):
            shape = (dims, draw(st.integers(2, 6)))
            values = draw(arrays(np.float64, shape, elements=st.sampled_from([0.0, 1.0, 3.0])))
            samples.append(make_sample(values, f"{label}{i}", label))
    return MtsDataset.from_samples(tuple(draw(st.permutations(samples))))


def reference_evaluate(dataset, symbolizer, miner, split, classifier, pad, resubstitution):
    """Per method, (vocabulary, n_train, confusion, predictions) from full train and test
    batches, each deduplicated on its own with ``batch.take(rows).distinct()``."""
    if resubstitution:
        train_rows = test_rows = np.arange(len(dataset))
    else:
        position = {sample_id: i for i, sample_id in enumerate(dataset.ids)}
        train_ids, test_ids = split_dataset(dataset, split)
        train_rows, test_rows = [position[i] for i in train_ids], [position[i] for i in test_ids]
    pad_to = int(np.diff(dataset.offsets)[train_rows].max()) if pad else None
    batch = convert_dataset(dataset, symbolizer, pad_to)
    train, test = batch.take(train_rows), batch.take(test_rows)
    (train_unique, train_of), (test_unique, test_of) = train.distinct(), test.distinct()
    features = extract_rts_features(prune_bottom_up(build_forest(train, miner), miner))
    labels = dataset.label_set
    out = []
    for vocab in (build_vocabulary(features, dataset.dims), full_alphabet_vocabulary(dataset.dims)):
        predictions = evaluate._predict(
            vectorize_batch(train_unique, vocab), train_of, train.labels,
            vectorize_batch(test_unique, vocab), test_of, classifier,
        )
        confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
        for truth, predicted in zip(test.labels, predictions):
            confusion[labels.index(truth), labels.index(predicted)] += 1
        out.append((vocab, len(train), confusion, predictions))
    return out


def counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class TestOnePass:
    """``evaluate`` splits and symbolizes once for every method it runs."""

    def test_eval_baseline_splits_and_symbolizes_once(self, tmp_path, monkeypatch):
        data = tmp_path / "data.csv"
        write_csv(generate_synthetic(run_length_spec(0.4, samples_per_class=5, length=30)), data)
        calls = Counter()
        monkeypatch.setattr(
            evaluate, "convert_dataset", counted(calls, "convert", evaluate.convert_dataset)
        )
        monkeypatch.setattr(evaluate, "_split_rows", counted(calls, "split", evaluate._split_rows))
        monkeypatch.setattr(EventBatch, "distinct", counted(calls, "distinct", EventBatch.distinct))
        argv = ["-q", "eval", "--in", str(data), "--baseline", "--out", str(tmp_path / "r")]
        assert main(argv) == 0
        assert calls == {"convert": 1, "split": 1, "distinct": 1}

    def test_takes_only_distinct_sequences(self, monkeypatch):
        # 1-d samples of 3 steps have at most 9 distinct code sequences
        rng = np.random.default_rng(0)
        samples = [
            make_sample(rng.choice([0.0, 1.0, 2.0, 5.0], (1, 3)), f"{label}{i}", label)
            for i in range(100)
            for label in "ab"
        ]
        taken, take = [], EventBatch.take

        def counted_take(batch, rows):
            taken.append(len(rows))
            return take(batch, rows)

        monkeypatch.setattr(EventBatch, "take", counted_take)
        dataset = MtsDataset.from_samples(samples)
        report = evaluate.evaluate(dataset, methods=("stem", "baseline"))[0]
        # the whole batch's distinct sequences, then the training split's for mining
        assert len(taken) == 2 and max(taken) <= 9 < report.n_test < report.n_train

    @settings(max_examples=150, deadline=None)
    @given(
        repeating_tasks(),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.sampled_from(["knn", "centroid"]),
        st.integers(1, 2),
        st.sampled_from(evaluate.METRICS),
        st.integers(0, 9),
        st.sampled_from([2, 0.3]),
    )
    def test_equals_a_per_split_reference(
        self, dataset, pad, resubstitution, stratified, kind, k, metric, seed, support
    ):
        symbolizer, miner = SymbolizerConfig(0.05), MinerConfig(support, 3)
        split, classifier = SplitSpec(0.7, seed, stratified), ClassifierConfig(kind, k, metric)
        predicted, original = [], evaluate._predict

        def predict_codes(*args):
            predicted.append(original(*args))
            return predicted[-1]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty vocabulary warns
            with mock.patch.object(evaluate, "_predict", predict_codes):
                reports = evaluate.evaluate(
                    dataset, symbolizer, miner, split, classifier, methods=("stem", "baseline"),
                    pad=pad, resubstitution=resubstitution,
                )
            expected = reference_evaluate(
                dataset, symbolizer, miner, split, classifier, pad, resubstitution
            )
        for report, codes, (vocab, n_train, confusion, predictions) in zip(
            reports, predicted, expected, strict=True
        ):
            assert report.vocabulary.features == vocab.features
            assert report.n_train == n_train
            assert np.array_equal(report.confusion, confusion)
            assert [report.labels[c] for c in codes] == predictions

    @settings(max_examples=100, deadline=None)
    @given(
        ragged_tasks(),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.integers(1, 4),
        st.integers(0, 9),
    )
    def test_equals_the_one_method_calls(
        self, dataset, pad, resubstitution, stratified, support, seed
    ):
        symbolizer, miner = SymbolizerConfig(0.05), MinerConfig(support, 3)
        split, classifier = SplitSpec(0.7, seed, stratified), ClassifierConfig("knn", 1)
        same = {"pad": pad, "resubstitution": resubstitution, "dataset_name": "d"}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty vocabulary warns
            both = evaluate.evaluate(
                dataset, symbolizer, miner, split, classifier, methods=("stem", "baseline"), **same
            )
            stem = evaluate_pipeline(dataset, symbolizer, miner, split, classifier, **same)
            base = baseline_histogram_eval(dataset, split, symbolizer, classifier, **same)
        assert [r.method for r in both] == ["stem", "baseline"]
        for one_pass, alone in zip(both, (stem, base)):
            assert untimed(one_pass) == untimed(alone)
            assert list(one_pass.config) == list(alone.config)
            assert one_pass.dataset == alone.dataset == "d"
            assert one_pass.vocabulary.features == alone.vocabulary.features

    @pytest.mark.parametrize(
        "methods", [(), ("unknown",), ("stem", "histogram"), "stem", ("stem", "stem")]
    )
    def test_empty_unknown_or_repeated_methods_rejected(self, methods):
        with pytest.raises(ConfigError):
            evaluate.evaluate(labeled_dataset(3), methods=methods)

    def test_first_report_keeps_the_stage_sums(self):
        dataset = generate_synthetic(run_length_spec(0.4))
        first, second = evaluate.evaluate(
            dataset,
            SymbolizerConfig(0.05),
            MinerConfig(min_support=0.05, max_len=5),
            SplitSpec(train_fraction=0.8, seed=0),
            ClassifierConfig("knn", 1, "euclidean"),
            methods=("stem", "baseline"),
        )
        stages = {k: v for k, v in first.timings.items() if k != "total"}
        total = first.timings["total"]
        assert all(v > 0.0 for v in stages.values()), stages
        assert total >= max(stages.values())
        assert sum(stages.values()) >= 0.9 * total
        assert sum(stages.values()) <= total + 1e-6
        assert second.timings["symbolize"] == 0.0
        rest = sum(v for k, v in second.timings.items() if k != "total")
        assert rest <= second.timings["total"] + 1e-6

    def test_split_without_test_samples_rejected(self):
        ds = labeled_dataset(1, labels=("a", "b", "c"))
        with pytest.warns(UserWarning), pytest.raises(DegenerateTaskError, match="no test samples"):
            evaluate_pipeline(ds)


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

    def test_numpy_integer_settings_are_written_and_read_back(self, tmp_path):
        ds = generate_synthetic(run_length_spec(0.0, samples_per_class=5, length=30))
        miner = MinerConfig(min_support=np.int64(3), max_len=np.int64(3))
        split, classifier = SplitSpec(seed=np.int64(2)), ClassifierConfig("knn", np.int64(1))
        reports = evaluate.evaluate(
            ds, miner=miner, split=split, classifier=classifier, methods=("stem", "baseline")
        )
        json_path, _ = write_report_files(reports, tmp_path / "report")
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        config = payload["methods"]["stem"]["config"]
        assert (config["min_support"], config["max_len"], config["seed"], config["k"]) == (3, 3, 2, 1)
        save_vocabulary(reports[0].vocabulary, tmp_path / "vocab.json")
        assert load_vocabulary(tmp_path / "vocab.json").miner == MinerConfig(3, 3)

    def test_numpy_float_settings_are_written_and_read_back(self, tmp_path):
        ds = generate_synthetic(run_length_spec(0.0, samples_per_class=5, length=30))
        symbolizer = SymbolizerConfig(np.float32(0.05))
        miner = MinerConfig(min_support=2, max_len=3, gain_gamma=np.float32(0.25))
        split = SplitSpec(train_fraction=np.float32(0.75))
        reports = evaluate.evaluate(ds, symbolizer, miner, split, methods=("stem", "baseline"))
        json_path, _ = write_report_files(reports, tmp_path / "report")
        config = json.loads(json_path.read_text(encoding="utf-8"))["methods"]["stem"]["config"]
        written = config["delta"], config["gain_gamma"], config["train_fraction"]
        assert written == tuple(float(np.float32(x)) for x in (0.05, 0.25, 0.75))
        save_vocabulary(reports[0].vocabulary, tmp_path / "vocab.json")
        vocabulary = load_vocabulary(tmp_path / "vocab.json")
        assert (vocabulary.delta, vocabulary.miner) == (symbolizer.delta, miner)
