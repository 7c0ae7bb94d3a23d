"""Distinct event sequences and distinct rows: each counted once, weighted by its copies.

``dataset._distinct_rows`` groups equal rows by a hash and checks every row
against its group's first; ``EventBatch.distinct`` applies it per length, and
mining, vectorizing and classifying run over the distinct rows only. These
tests hold all of them to references that see every copy, and hold
``dataset._unique``, which finds distinct integers by one sort, to ``np.unique``.
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from stemts import (
    ClassifierConfig,
    EventBatch,
    EventSequence,
    MinerConfig,
    SplitSpec,
    SymbolizerConfig,
    brute_force_mine,
    build_forest,
    build_vocabulary,
    convert_dataset,
    extract_rts_features,
    full_alphabet_vocabulary,
    generate_synthetic,
    prune_bottom_up,
    vectorize_batch,
    write_csv,
)
from stemts import dataset, mining
from stemts.evaluate import evaluate

from conftest import run_length_spec
from test_evaluate import TIE_VALUES
from test_mining import recount

SRC = Path(__file__).resolve().parent.parent / "src"

# every row hashes to 0, so any two distinct rows collide
COLLIDING = mock.patch.object(dataset, "_ROW_HASH", (0, 0))


def reference_distinct(matrix):
    """First appearances and inverse from one dict keyed by each row's bytes."""
    index = {}
    inverse = [index.setdefault(row.tobytes(), len(index)) for row in matrix]
    return [inverse.index(k) for k in range(len(index))], inverse


class TestDistinctRows:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(0, 4)),
            elements=st.sampled_from(TIE_VALUES),
        ),
        picks=st.lists(st.integers(0, 5), max_size=30),
        collide=st.booleans(),
    )
    def test_equals_a_dict_over_row_bytes(self, rows, picks, collide):
        # repeats drawn on purpose; -0.0 and 0.0 stay apart, equal nan rows group
        matrix = rows[[p % len(rows) for p in picks]]
        with COLLIDING if collide else mock.patch.object(dataset, "_BLOCK_CELLS", 3):
            first, inverse = dataset._distinct_rows(matrix)
        expected_first, expected_inverse = reference_distinct(matrix)
        assert first.tolist() == expected_first
        assert inverse.tolist() == expected_inverse

    def test_int64_rows_and_empty_shapes(self):
        matrix = np.array([[3, 1], [1, 3], [3, 1], [-1, 0], [1, 3]])
        expected = [[0, 1, 3], [0, 1, 0, 2, 1]]
        assert [a.tolist() for a in dataset._distinct_rows(matrix)] == expected
        assert [a.tolist() for a in dataset._distinct_rows(np.zeros((3, 0)))] == [[0], [0, 0, 0]]
        assert [a.tolist() for a in dataset._distinct_rows(np.zeros((0, 2)))] == [[], []]

    def test_hashes_group_equal_rows_without_collisions(self):
        # the run-length batch's code rows and its baseline matrix: no fallback needed
        batch = convert_dataset(
            generate_synthetic(run_length_spec(0.4, samples_per_class=50, length=20, seed=3)),
            SymbolizerConfig(0.05),
        )
        for matrix in (
            batch.codes.reshape(len(batch), -1),
            vectorize_batch(batch, full_alphabet_vocabulary(3)),
        ):
            with mock.patch.object(np, "unique", side_effect=AssertionError("fell back")):
                first, inverse = dataset._distinct_rows(matrix)
            assert (first.tolist(), inverse.tolist()) == reference_distinct(matrix)
            assert len(first) < len(matrix)


@st.composite
def integer_arrays(draw):
    """int32 or int64 arrays of 1 or 2 dimensions, maybe empty, all equal or read-only."""
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    info = np.iinfo(dtype)
    elements = st.integers(-3, 3) | st.integers(int(info.min), int(info.max))
    shape = draw(array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=20))
    if draw(st.booleans()):
        values = np.full(shape, draw(elements), dtype=dtype)
    else:
        values = draw(arrays(dtype, shape, elements=elements))
    values.setflags(write=draw(st.booleans()))
    return values


class TestUnique:
    @settings(max_examples=300, deadline=None)
    @given(integer_arrays())
    def test_equals_numpy_unique(self, values):
        before = values.copy()
        unique, expected = dataset._unique(values), np.unique(values)
        assert unique.dtype == expected.dtype and np.array_equal(unique, expected)
        assert np.array_equal(values, before)


@st.composite
def repeated_batches(draw):
    """Samples drawn from a few code sequences, so most repeat under other ids and labels."""
    dims = draw(st.integers(1, 2))
    codes = st.integers(0, 3**dims - 1)
    pool = draw(st.lists(st.lists(codes, min_size=1, max_size=8), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    labels = st.sampled_from([None, "a", "b"])
    sequences = [EventSequence(f"s{i}", draw(labels), dims, pool[p]) for i, p in enumerate(picks)]
    config = MinerConfig(
        min_support=draw(st.integers(1, 4)),
        max_len=draw(st.integers(1, 5)),
        gain_gamma=draw(st.sampled_from([0.0, 0.3, 0.7])),
    )
    return EventBatch.from_sequences(sequences), config


def one_by_one(batch, vocab):
    """Each sample vectorized in a batch of its own."""
    return np.vstack([vectorize_batch(batch.take([i]), vocab) for i in range(len(batch))])


class TestRepeatedSequences:
    @settings(max_examples=300, deadline=None)
    @given(repeated_batches())
    def test_mining_and_vectors_count_every_copy(self, instance):
        batch, config = instance
        forest = build_forest(batch, config)
        assert forest.nodes == recount(list(batch), config.max_len)
        assert forest.n_samples == len(batch)
        with mock.patch.object(mining, "_KEY_CELLS", 0):  # every table sorted, not counted
            assert build_forest(batch, config).nodes == forest.nodes
        features = extract_rts_features(prune_bottom_up(forest, config))
        assert features == brute_force_mine(batch, config)
        vocabs = [full_alphabet_vocabulary(batch.dims)]
        if features:
            vocabs.append(build_vocabulary(features, batch.dims))
        for vocab in vocabs:
            assert np.array_equal(vectorize_batch(batch, vocab), one_by_one(batch, vocab))

    @given(repeated_batches())
    def test_distinct_names_first_appearances(self, instance):
        batch, _ = instance
        unique, inverse = batch.distinct()
        expected = {}
        for i, sequence in enumerate(batch):
            expected.setdefault(sequence.codes, i)
        assert unique.ids == tuple(batch.ids[i] for i in sorted(expected.values()))
        assert [unique[j].codes for j in inverse] == [s.codes for s in batch]

    @settings(max_examples=200, deadline=None)
    @given(
        dims=st.sampled_from([1, 5, 6, 10, 11, 20, 21, 39]),
        collide=st.booleans(),
        data=st.data(),
    )
    def test_distinct_at_every_code_width(self, dims, collide, data):
        # codes are hashed in uint8, uint16, uint32 or uint64, padded to whole words;
        # the largest codes set every bit of their width, 2**8, 2**16 and 2**32 equal 0 in a
        # narrower one, and ragged lengths cross word ends
        top = 3**dims - 1
        wraps = [2**bits for bits in (8, 16, 32) if 2**bits <= top]
        codes = st.sampled_from([0, 1, top // 2, top - 1, top, *wraps])
        pool = data.draw(st.lists(st.lists(codes, min_size=1, max_size=11), min_size=1, max_size=5))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
        batch = EventBatch.from_sequences(
            [EventSequence(f"s{i}", None, dims, pool[p]) for i, p in enumerate(picks)]
        )
        with COLLIDING if collide else mock.patch.object(dataset, "_BLOCK_CELLS", 3):
            unique, inverse = batch.distinct()
        first = {}
        for i, sequence in enumerate(batch):
            first.setdefault(sequence.codes, i)
        assert unique.ids == tuple(batch.ids[i] for i in sorted(first.values()))
        assert [unique[j].codes for j in inverse] == [s.codes for s in batch]

    def test_all_distinct_batch_is_vectorized_without_a_gather(self):
        batch = EventBatch.from_sequences(
            [EventSequence(f"s{i}", None, 1, (i % 3, i // 3)) for i in range(9)]
        )
        vocab = full_alphabet_vocabulary(1)
        with mock.patch.object(EventBatch, "take", side_effect=AssertionError("took")):
            values = vectorize_batch(batch, vocab)
        assert np.array_equal(values, one_by_one(batch, vocab))
        assert not values.flags.writeable

    def test_all_distinct_batch_is_its_own_unique_batch(self):
        batch = EventBatch.from_sequences(
            [EventSequence(f"s{i}", None, 1, (i % 3, i // 3)) for i in range(9)]
        )
        config = MinerConfig(min_support=1, max_len=2)
        with mock.patch.object(EventBatch, "take", side_effect=AssertionError("took")):
            unique, inverse = batch.distinct()
            forest = build_forest(batch, config)
        assert unique is batch and inverse.tolist() == list(range(9))
        assert forest.nodes == recount(list(batch), config.max_len)


class TestHashCollisions:
    """With every row hashing alike, the exact fallback gives the same outputs."""

    @pytest.fixture(scope="class")
    def dataset_and_batch(self):
        data = generate_synthetic(run_length_spec(0.4, samples_per_class=40, length=16, seed=11))
        return data, convert_dataset(data, SymbolizerConfig(0.05))

    def test_forests_and_matrices_unchanged(self, dataset_and_batch):
        _, batch = dataset_and_batch
        config = MinerConfig(min_support=0.05, max_len=4, gain_gamma=0.3)
        forest = build_forest(batch, config)
        vocab = build_vocabulary(extract_rts_features(prune_bottom_up(forest, config)), 3)
        matrix = vectorize_batch(batch, vocab)
        assert len(batch.distinct()[0]) < len(batch)
        with COLLIDING:
            assert build_forest(batch, config).nodes == forest.nodes
            assert np.array_equal(vectorize_batch(batch, vocab), matrix)
            unique, inverse = batch.distinct()
            first = [batch.ids.index(i) for i in unique.ids]
            assert [first, inverse.tolist()] == [
                a.tolist() for a in dataset._distinct_rows(batch.codes.reshape(len(batch), -1))
            ]

    @pytest.mark.parametrize(
        "classifier",
        [
            ClassifierConfig("knn", 5, "cosine"),
            ClassifierConfig("knn", 1),
            ClassifierConfig("centroid"),
        ],
    )
    def test_predictions_unchanged(self, dataset_and_batch, classifier):
        data, _ = dataset_and_batch
        run = dict(
            symbolizer=SymbolizerConfig(0.05),
            miner=MinerConfig(min_support=0.05, max_len=4),
            split=SplitSpec(seed=2),
            classifier=classifier,
            methods=("stem", "baseline"),
        )
        reports = evaluate(data, **run)
        with COLLIDING:
            again = evaluate(data, **run)
        for report, other in zip(reports, again, strict=True):
            assert np.array_equal(report.confusion, other.confusion)
            assert report.vocabulary.features == other.vocabulary.features


def test_importing_the_cli_loads_no_numpy_random():
    # every CLI run pays for its imports; numpy.random is a large one that nothing needs up front
    code = "import sys, stemts.cli; sys.exit('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


EVALUATE_ONCE = """
import sys
from unittest import mock
from stemts import SynthSpec, generate_synthetic, mining
from stemts.evaluate import evaluate
classes = tuple((f"run{{r}}", ((("up", r), ("down", r)),) * 3) for r in (2, 3, 4, 6))
data = generate_synthetic(SynthSpec(classes, 10, 30, noise_amplitude=0.4, seed=3, separable=True))
with mock.patch.object(mining, "_KEY_CELLS", {key_cells}):
    evaluate(data, methods=("stem", "baseline"))
sys.exit("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("key_cells", [mining._KEY_CELLS, 0], ids=["counting", "sorting"])
def test_evaluating_loads_no_numpy_ma(key_cells):
    # numpy 2's flagless np.unique imports numpy.ma (11-14 ms) on its first call in a process
    code = EVALUATE_ONCE.format(key_cells=key_cells)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_cli_eval_loads_no_numpy_ma(tmp_path):
    data = tmp_path / "data.csv"
    write_csv(generate_synthetic(run_length_spec(0.4, samples_per_class=10, length=30)), data)
    argv = [sys.executable, "-X", "importtime", "-m", "stemts.cli", "-q", "eval", "--baseline"]
    argv += ["--in", str(data), "--out", str(tmp_path / "r")]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()}
    assert "numpy" in imported and "numpy.ma" not in imported
