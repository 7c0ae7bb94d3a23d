import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemts import (
    EventSequence,
    FeatureVocabulary,
    MinerConfig,
    build_vocabulary,
    full_alphabet_vocabulary,
    load_vocabulary,
    save_vocabulary,
    vectorize,
    vectorize_dataset,
    write_feature_matrix,
)
from stemts import mining
from stemts.errors import (
    DuplicateFeatureError,
    IncompatibleVocabularyError,
    InvalidCodeError,
    SchemaError,
)
from stemts.events import EventBatch
from stemts.features import vectorize_batch


def seq(codes, sample_id="s", label=None, dims=2):
    return EventSequence(sample_id, label, dims, tuple(codes))


class TestBuildVocabulary:
    def test_length_then_lex_order(self):
        vocab = build_vocabulary([(4, 8), (8,)], dims=2)
        assert vocab.features == ((8,), (4, 8))
        assert vocab.index == {(8,): 0, (4, 8): 1}

    def test_singleton(self):
        vocab = build_vocabulary([(5,)], dims=2)
        assert len(vocab) == 1

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateFeatureError):
            build_vocabulary([(8,), (8,)], dims=2)

    def test_empty_warns(self):
        with pytest.warns(UserWarning):
            vocab = build_vocabulary([], dims=2)
        assert len(vocab) == 0

    def test_code_outside_alphabet(self):
        with pytest.raises(InvalidCodeError):
            build_vocabulary([(9,)], dims=2)

    def test_full_alphabet(self):
        vocab = full_alphabet_vocabulary(1)
        assert vocab.features == ((0,), (1,), (2,))


class TestVectorize:
    def test_counts_normalized_by_positions(self):
        vocab = build_vocabulary([(8,), (4, 8)], dims=2)
        vec = vectorize(seq([4, 8, 4, 8]), vocab)
        assert vec.values[0] == pytest.approx(0.5)
        assert vec.values[1] == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_no_match_gives_zero_vector(self):
        vocab = build_vocabulary([(8,), (4, 8)], dims=2)
        vec = vectorize(seq([0, 1, 0]), vocab)
        assert vec.values.tolist() == [0.0, 0.0]

    def test_feature_longer_than_sequence_scores_zero(self):
        vocab = build_vocabulary([(4, 8, 4)], dims=2)
        vec = vectorize(seq([4, 8]), vocab)
        assert vec.values.tolist() == [0.0]

    def test_overlapping_occurrences_counted(self):
        vocab = build_vocabulary([(7, 7)], dims=2)
        vec = vectorize(seq([7, 7, 7]), vocab)
        assert vec.values.tolist() == [1.0]

    def test_entries_bounded_and_pure(self):
        rng = np.random.default_rng(2)
        vocab = build_vocabulary([(0,), (1,), (0, 1), (2, 2, 2)], dims=1)
        for _ in range(20):
            s = seq(rng.integers(0, 3, size=9), dims=1)
            a = vectorize(s, vocab)
            b = vectorize(s, vocab)
            assert np.array_equal(a.values, b.values)
            assert np.all(a.values >= 0.0) and np.all(a.values <= 1.0)

    def test_codes_no_event_has_never_match(self):
        # FeatureVocabulary itself does not check codes (build_vocabulary and
        # load_vocabulary do), so a directly built one can hold such tuples
        vocab = FeatureVocabulary(features=((-1,), (8, -1, 4), (8,)), dims=2)
        vectors = vectorize_dataset([seq([4, 8], "a"), seq([4, 4], "b")], vocab)
        assert [v.values.tolist() for v in vectors] == [[0.0, 0.0, 0.5], [0.0, 0.0, 0.0]]

    @pytest.mark.parametrize("key_cells", [8, 0])
    def test_codes_outside_either_alphabet(self, monkeypatch, key_cells):
        # the batch holds codes the vocabulary lacks (0, 4, 6) and the
        # vocabulary codes the batch lacks (-1, 5, 7), on the counted lookup
        # path and on the sorted one
        monkeypatch.setattr(mining, "_KEY_CELLS", key_cells)
        vocab = FeatureVocabulary(features=((-1,), (5,), (2, 8), (2, 7), (2, 8, 3)), dims=2)
        codes = [[8, 2, 8], [0, 8], [2, 8, 3, 3], [4, 8, 6]]
        sequences = [seq(c, f"s{i}") for i, c in enumerate(codes)]
        batch = EventBatch.from_sequences(sequences)
        matrix = vectorize_batch(batch, vocab)
        assert matrix.tolist() == [naive_values(s.codes, vocab) for s in sequences]

    def test_dimension_mismatch(self):
        vocab = build_vocabulary([(8,)], dims=2)
        with pytest.raises(IncompatibleVocabularyError):
            vectorize(seq([0, 1], dims=1), vocab)

    def test_carries_identity(self):
        vocab = build_vocabulary([(8,)], dims=2)
        vec = vectorize(seq([8, 8], "walk_01", "walk"), vocab)
        assert (vec.sample_id, vec.label) == ("walk_01", "walk")


class TestVectorizeDataset:
    def test_empty_list(self):
        vocab = build_vocabulary([(8,)], dims=2)
        assert vectorize_dataset([], vocab) == []

    def test_singleton_matches_single_call(self):
        vocab = build_vocabulary([(8,)], dims=2)
        s = seq([8, 4])
        assert np.array_equal(
            vectorize_dataset([s], vocab)[0].values, vectorize(s, vocab).values
        )

    def test_order_preserved(self):
        vocab = build_vocabulary([(8,)], dims=2)
        seqs = [seq([8, 8], "a"), seq([4, 4], "b"), seq([8, 4], "c")]
        ids = [v.sample_id for v in vectorize_dataset(seqs, vocab)]
        assert ids == ["a", "b", "c"]
        ids_perm = [v.sample_id for v in vectorize_dataset(seqs[::-1], vocab)]
        assert ids_perm == ["c", "b", "a"]

    def test_error_names_sample(self):
        vocab = build_vocabulary([(8,)], dims=2)
        with pytest.raises(IncompatibleVocabularyError, match="'bad'"):
            vectorize_dataset([seq([0, 1], "bad", dims=1)], vocab)

    def test_batch_of_other_dims_rejected(self):
        vocab = build_vocabulary([(8,)], dims=2)
        batch = EventBatch.from_sequences([seq([0, 1], "a", dims=1)], 1)
        with pytest.raises(IncompatibleVocabularyError, match="batch has 1 dimensions"):
            vectorize_batch(batch, vocab)


@st.composite
def vectorize_instances(draw):
    """Mixed-length sequences and a vocabulary of mixed-length tuples, some longer than them."""
    dims = draw(st.integers(1, 2))
    codes = st.integers(0, 3**dims - 1)
    tuples = st.lists(codes, min_size=1, max_size=5).map(tuple)
    features = draw(st.lists(tuples, min_size=1, max_size=12, unique=True))
    n_seqs = draw(st.integers(0, 6))
    sequences = [
        seq(draw(st.lists(codes, min_size=1, max_size=10)), f"s{i}", dims=dims)
        for i in range(n_seqs)
    ]
    return sequences, build_vocabulary(features, dims=dims)


def naive_values(codes, vocab):
    """Per tuple, matching windows counted one by one over the window positions."""
    values = []
    for tup in vocab.features:
        positions = len(codes) - len(tup) + 1
        hits = sum(codes[i : i + len(tup)] == tup for i in range(max(positions, 0)))
        values.append(hits / positions if positions > 0 else 0.0)
    return values


class TestVectorizeProperty:
    @settings(max_examples=200)
    @given(vectorize_instances())
    def test_equals_naive_count_over_positions(self, instance):
        sequences, vocab = instance
        vectors = vectorize_dataset(sequences, vocab)
        assert [v.sample_id for v in vectors] == [s.sample_id for s in sequences]
        for s, v in zip(sequences, vectors):
            assert v.values.tolist() == naive_values(s.codes, vocab)


class TestVocabularyFiles:
    def test_round_trip_exact(self, tmp_path):
        miner = MinerConfig(min_support=2, max_len=3, gain_gamma=0.25)
        vocab = build_vocabulary([(4, 8), (8,), (0, 0, 0)], dims=2, delta=0.1, miner=miner)
        path = tmp_path / "vocab.json"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.features == vocab.features
        assert loaded.dims == vocab.dims
        assert loaded.delta == vocab.delta
        assert loaded.miner == miner
        assert loaded.index == vocab.index

    def test_round_trip_without_context(self, tmp_path):
        vocab = build_vocabulary([(1,)], dims=1)
        path = tmp_path / "vocab.json"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded.features == ((1,),)
        assert loaded.delta is None
        assert loaded.miner is None

    def test_fractional_support_survives(self, tmp_path):
        vocab = build_vocabulary([(1,)], dims=1, miner=MinerConfig(min_support=0.05))
        path = tmp_path / "vocab.json"
        save_vocabulary(vocab, path)
        assert load_vocabulary(path).miner.min_support == 0.05

    @pytest.mark.parametrize(
        "features, problem, dims",
        [
            ([[9]], "code 9 outside [0, 9)", 2),
            ([[-1, 4]], "code -1 outside [0, 9)", 2),
            ([[4], []], "must be non-empty", 2),
            ([[1], [1]], "duplicate feature tuples: [(1,)]", 2),
            ([[8], [4]], "not in canonical order", 2),
            ([[4, 8], [8]], "not in canonical order", 2),
            ([[1.9]], "code 1.9 is not an integer", 2),
            ([[1.9], [True]], "code 1.9 is not an integer", 2),
            ([[True]], "code True is not an integer", 2),
            ([[1]], "dims 2.5 is not an integer", 2.5),
            ([[1]], "dims True is not an integer", True),
            ([[1]], "dims '2' is not an integer", "2"),
        ],
        ids=[
            "code-too-large",
            "negative-code",
            "empty-tuple",
            "duplicate",
            "lex-order",
            "length-order",
            "float-code",
            "float-and-bool-codes",
            "bool-code",
            "float-dims",
            "bool-dims",
            "string-dims",
        ],
    )
    def test_rejects_what_build_vocabulary_rejects(self, tmp_path, features, problem, dims):
        path = tmp_path / "vocab.json"
        payload = {"dims": dims, "delta": None, "miner": None, "features": features}
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as info:
            load_vocabulary(path)
        assert str(path) in str(info.value) and problem in str(info.value)


class TestFeatureMatrix:
    def test_csv_layout(self, tmp_path):
        vocab = build_vocabulary([(8,), (4, 8)], dims=2)
        vectors = vectorize_dataset(
            [seq([4, 8, 4, 8], "a", "x"), seq([0, 1], "b", None)], vocab
        )
        path = tmp_path / "matrix.csv"
        write_feature_matrix(vectors, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_id,label,f_0,f_1"
        assert lines[1].startswith("a,x,0.5,")
        assert lines[2] == "b,,0.0,0.0"
