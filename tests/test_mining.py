import math
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemts import (
    EventSequence,
    MinerConfig,
    SymbolizerConfig,
    brute_force_mine,
    build_forest,
    convert_dataset,
    extract_rts_features,
    generate_synthetic,
    load_feature_list,
    prune_bottom_up,
    resolve_min_support,
    write_feature_list,
)
from stemts import mining
from stemts.errors import (
    ConfigError,
    EmptyInputError,
    IncompatibleVocabularyError,
    MalformedDatasetError,
)
from stemts.events import EventBatch
from stemts.mining import window_states

from conftest import run_length_spec


def seq(sample_id, codes, dims=2):
    return EventSequence(sample_id, None, dims, tuple(codes))


def doc_support_by_scan(sequences, tup):
    """Independent recount: how many samples contain the window at all."""
    n = len(tup)
    hits = 0
    for s in sequences:
        if any(s.codes[i : i + n] == tup for i in range(len(s.codes) - n + 1)):
            hits += 1
    return hits


def node_paths(forest):
    paths = set(forest.nodes)
    assert len(paths) == forest.node_count()
    return paths


@st.composite
def mining_instances(draw):
    dims = draw(st.integers(1, 2))
    n_codes = 3**dims
    n_seqs = draw(st.integers(1, 8))
    sequences = [
        seq(
            f"s{i}",
            draw(st.lists(st.integers(0, n_codes - 1), min_size=1, max_size=12)),
            dims,
        )
        for i in range(n_seqs)
    ]
    config = MinerConfig(
        min_support=draw(st.integers(1, 4)),
        max_len=draw(st.integers(1, 5)),
        gain_gamma=draw(st.sampled_from([0.0, 0.3, 0.7])),
    )
    return sequences, config


class TestConfig:
    def test_fraction_resolution(self):
        assert resolve_min_support(0.05, 100) == 5
        assert resolve_min_support(0.05, 101) == 6
        assert resolve_min_support(0.001, 10) == 1
        assert resolve_min_support(3, 10) == 3

    def test_fraction_resolution_is_exact(self):
        # 0.07 * 100 is 7.000000000000001 in floats
        assert resolve_min_support(0.07, 100) == 7
        assert resolve_min_support(0.05, 800) == 40

    @given(st.data())
    def test_decimal_fractions_resolve_exactly(self, data):
        denominator = data.draw(st.sampled_from([10, 100, 1000]))
        numerator = data.draw(st.integers(1, denominator))
        # whole-number products are where float rounding tips ceil() one too high
        n_samples = data.draw(
            st.integers(1, 5000) | st.integers(1, 50).map(lambda m: m * denominator)
        )
        expected = max(1, math.ceil(Fraction(numerator, denominator) * n_samples))
        assert resolve_min_support(numerator / denominator, n_samples) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            MinerConfig(min_support=0)
        with pytest.raises(ValueError):
            MinerConfig(min_support=1.5)
        with pytest.raises(ValueError):
            MinerConfig(max_len=0)
        with pytest.raises(ValueError):
            MinerConfig(gain_gamma=1.5)
        for max_len in (2.5, 3.0, True, "3"):
            with pytest.raises(ConfigError, match="max_len must be an integer >= 1"):
                MinerConfig(max_len=max_len)
        assert MinerConfig(max_len=np.int64(3)).max_len == 3


class TestBuildForest:
    def test_hand_built_supports(self, toy_sequences):
        forest = build_forest(toy_sequences, MinerConfig(min_support=2, max_len=2))
        expected_doc = {(4,): 2, (4, 8): 2, (8,): 2, (8, 4): 1, (8, 0): 1, (0,): 1}
        expected_occ = {(4,): 3, (4, 8): 3, (8,): 3, (8, 4): 1, (8, 0): 1, (0,): 1}
        assert node_paths(forest) == set(expected_doc)
        for path, doc in expected_doc.items():
            assert forest.nodes[path] == (doc, expected_occ[path])

    def test_single_window(self):
        forest = build_forest([seq("a", [7])], MinerConfig(min_support=1, max_len=3))
        assert forest.nodes == {(7,): (1, 1)}

    def test_occurrences_vs_documents(self):
        forest = build_forest([seq("a", [4, 4, 4])], MinerConfig(min_support=1, max_len=1))
        assert forest.nodes[(4,)] == (1, 3)  # (doc_support, occ_count)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            build_forest([], MinerConfig(min_support=1))

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            build_forest([seq("a", [0], dims=1), seq("b", [0], dims=2)], MinerConfig(1))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(MalformedDatasetError):
            build_forest([seq("a", [0]), seq("a", [1])], MinerConfig(1))

    def test_mixed_dims_error_names_the_sample(self):
        with pytest.raises(IncompatibleVocabularyError, match="sample 'b' has 2 dimensions"):
            build_forest([seq("a", [0], dims=1), seq("b", [0], dims=2)], MinerConfig(1))

    @given(mining_instances())
    def test_anti_monotonicity(self, instance):
        sequences, config = instance
        forest = build_forest(sequences, config)
        nodes = forest.nodes
        for tup, (doc, _) in nodes.items():
            assert doc <= (nodes[tup[:-1]][0] if len(tup) > 1 else forest.n_samples)


class TestLayout:
    @given(mining_instances())
    def test_rows_in_walk_order(self, instance):
        sequences, config = instance
        forest = build_forest(sequences, config)
        pruned = prune_bottom_up(forest, config)
        for f in (forest, pruned):
            columns = (f.parent, f.code, f.doc_support, f.occ_count)
            assert all(c.dtype == np.int64 and len(c) == f.node_count() for c in columns)
            assert np.all(np.diff(f.parent) >= 0)
            assert np.all(f.parent < np.arange(f.node_count()))  # each parent before its child
            nodes = f.nodes
            assert list(nodes) == sorted(nodes, key=lambda t: (len(t), t))
            assert f.node_count() == len(nodes)
        assert pruned.nodes.items() <= forest.nodes.items()


class TestPrune:
    def test_support_two_survivors(self, toy_sequences):
        config = MinerConfig(min_support=2, max_len=2)
        pruned = prune_bottom_up(build_forest(toy_sequences, config), config)
        assert node_paths(pruned) == {(4,), (4, 8), (8,)}

    def test_support_one_is_identity(self, toy_sequences):
        config = MinerConfig(min_support=1, max_len=2)
        forest = build_forest(toy_sequences, config)
        pruned = prune_bottom_up(forest, config)
        assert list(pruned.nodes.items()) == list(forest.nodes.items())

    def test_impossible_support_empties_forest(self, toy_sequences):
        config = MinerConfig(min_support=5, max_len=2)
        pruned = prune_bottom_up(build_forest(toy_sequences, config), config)
        assert pruned.node_count() == 0
        assert extract_rts_features(pruned) == []

    def test_input_forest_untouched(self, toy_sequences):
        config = MinerConfig(min_support=2, max_len=2)
        forest = build_forest(toy_sequences, config)
        before = list(forest.nodes.items())
        prune_bottom_up(forest, config)
        assert list(forest.nodes.items()) == before

    @given(mining_instances(), st.integers(0, 3))
    def test_node_set_shrinks_with_support(self, instance, bump):
        sequences, config = instance
        forest = build_forest(sequences, config)
        low = prune_bottom_up(forest, config)
        raised = MinerConfig(
            min_support=resolve_min_support(config.min_support, len(sequences)) + bump,
            max_len=config.max_len,
            gain_gamma=config.gain_gamma,
        )
        high = prune_bottom_up(forest, raised)
        assert node_paths(high) <= node_paths(low)


class TestGainGamma:
    def make(self):
        sequences = [seq(f"c{i}", [1], dims=1) for i in range(7)]
        sequences += [seq(f"x{i}", [1, 2], dims=1) for i in range(3)]
        return sequences

    def test_weak_leaf_removed(self):
        config = MinerConfig(min_support=1, max_len=2, gain_gamma=0.5)
        pruned = prune_bottom_up(build_forest(self.make(), config), config)
        # (1,2) supports 3 of the 10 samples holding (1): below the 0.5 bar
        assert extract_rts_features(pruned) == [(1,), (2,)]

    def test_strong_leaf_kept(self):
        config = MinerConfig(min_support=1, max_len=2, gain_gamma=0.2)
        pruned = prune_bottom_up(build_forest(self.make(), config), config)
        assert extract_rts_features(pruned) == [(2,), (1, 2)]

    def test_support_equal_to_the_bar_is_kept(self):
        sequences = [seq(f"c{i}", [1], dims=1) for i in range(4)]
        sequences += [seq(f"x{i}", [1, 2], dims=1) for i in range(4)]
        config = MinerConfig(min_support=1, max_len=2, gain_gamma=0.5)
        # (1,2) holds 4 of the 8 samples holding (1): exactly on the 0.5 bar
        pruned = prune_bottom_up(build_forest(sequences, config), config)
        assert extract_rts_features(pruned) == [(2,), (1, 2)]
        assert brute_force_mine(sequences, config) == [(2,), (1, 2)]

    def test_cascades_upward(self):
        sequences = [seq(f"a{i}", [5]) for i in range(6)]
        sequences += [seq(f"b{i}", [5, 6]) for i in range(3)]
        sequences += [seq("c0", [5, 6, 7])]
        config = MinerConfig(min_support=1, max_len=3, gain_gamma=0.5)
        pruned = prune_bottom_up(build_forest(sequences, config), config)
        paths = node_paths(pruned)
        # (5,6,7) fails against (5,6); (5,6) then fails against (5)
        assert (5, 6, 7) not in paths
        assert (5, 6) not in paths
        assert (5,) in paths


class TestExtract:
    def test_internal_node_absorbed(self, toy_sequences):
        config = MinerConfig(min_support=2, max_len=2)
        pruned = prune_bottom_up(build_forest(toy_sequences, config), config)
        assert extract_rts_features(pruned) == [(8,), (4, 8)]

    def test_isolated_roots(self):
        sequences = [seq("a", [3]), seq("b", [5])]
        config = MinerConfig(min_support=1, max_len=2)
        pruned = prune_bottom_up(build_forest(sequences, config), config)
        assert extract_rts_features(pruned) == [(3,), (5,)]

    def test_chain_gives_single_feature(self):
        sequences = [seq("a", [1, 2]), seq("b", [1, 2])]
        config = MinerConfig(min_support=2, max_len=2)
        pruned = prune_bottom_up(build_forest(sequences, config), config)
        assert extract_rts_features(pruned) == [(2,), (1, 2)]

    @given(mining_instances())
    def test_prefix_free(self, instance):
        sequences, config = instance
        features = extract_rts_features(
            prune_bottom_up(build_forest(sequences, config), config)
        )
        feature_set = set(features)
        for tup in features:
            for cut in range(1, len(tup)):
                assert tup[:cut] not in feature_set

    @given(mining_instances())
    def test_support_soundness_by_rescan(self, instance):
        sequences, config = instance
        sigma = resolve_min_support(config.min_support, len(sequences))
        features = extract_rts_features(
            prune_bottom_up(build_forest(sequences, config), config)
        )
        for tup in features:
            assert doc_support_by_scan(sequences, tup) >= sigma


class TestBruteForceOracle:
    def test_toy_pair(self, toy_sequences):
        assert brute_force_mine(toy_sequences, MinerConfig(min_support=2, max_len=2)) == [
            (8,),
            (4, 8),
        ]

    def test_single_short_sequence(self):
        got = brute_force_mine([seq("a", [1, 2], dims=1)], MinerConfig(1, max_len=2))
        # (1) extends to the frequent (1,2); (2) has no surviving extension
        assert got == [(2,), (1, 2)]

    def test_empty_after_threshold(self, toy_sequences):
        assert brute_force_mine(toy_sequences, MinerConfig(min_support=9, max_len=2)) == []

    @settings(max_examples=200)
    @given(mining_instances())
    def test_forest_path_equals_oracle(self, instance):
        sequences, config = instance
        mined = extract_rts_features(
            prune_bottom_up(build_forest(sequences, config), config)
        )
        assert mined == brute_force_mine(sequences, config)


class TestWindowStates:
    @settings(max_examples=200)
    @given(mining_instances())
    def test_walk_over_codes_and_offsets_names_every_window(self, instance):
        sequences, config = instance
        tuples = [s.codes for s in sequences]
        codes = np.array([c for t in tuples for c in t])
        offsets = np.cumsum([0] + [len(t) for t in tuples])
        alphabet = np.unique(codes)
        walk = list(window_states(codes, offsets, alphabet, config.max_len))
        batch = EventBatch.from_sequences(sequences, sequences[0].dims)
        again = window_states(batch.codes, batch.offsets, alphabet, config.max_len)
        for (table, rows, owners), other in zip(walk, again, strict=True):
            assert all(np.array_equal(a, b) for a, b in zip((table, rows, owners), other))
        # each level's (owner, tuple) pairs, the tuple read back through the
        # states as build_forest reads it, are the windows of that length
        prefixes = [()]
        for length, (table, rows, owners) in enumerate(walk, 1):
            prefix, last = np.divmod(table, len(alphabet))
            level = [prefixes[p] + (int(alphabet[c]),) for p, c in zip(prefix, last)]
            got = sorted((int(o), level[r]) for o, r in zip(owners, rows))
            expected = sorted(
                (i, t[j : j + length])
                for i, t in enumerate(tuples)
                for j in range(len(t) - length + 1)
            )
            assert got == expected
            prefixes = level


def recount(sequences, max_len):
    """Every window of every sequence counted one by one: samples holding it, windows."""
    holders, windows = defaultdict(set), Counter()
    for i, s in enumerate(sequences):
        for length in range(1, max_len + 1):
            for j in range(len(s.codes) - length + 1):
                holders[s.codes[j : j + length]].add(i)
                windows[s.codes[j : j + length]] += 1
    return {t: (len(holders[t]), windows[t]) for t in windows}


@pytest.fixture(scope="module")
def run_length_batch():
    """200 seeded 3-d run-length samples of 60 steps, as one event batch."""
    dataset = generate_synthetic(run_length_spec(0.4, samples_per_class=50, length=60, seed=5))
    return convert_dataset(dataset, SymbolizerConfig(0.05))


class TestWalkBranches:
    """Every branch of the window walk counts the full forest exactly.

    At this size the walk counts keys densely and counts doc support on a
    bitmap; patching the module's thresholds sends it down the sorting
    branches and through many small sample blocks instead.
    """

    config = MinerConfig(min_support=0.05, max_len=6)

    def features(self, sequences):
        forest = build_forest(sequences, self.config)
        return extract_rts_features(prune_bottom_up(forest, self.config))

    def test_forest_equals_recount(self, run_length_batch):
        forest = build_forest(run_length_batch, self.config)
        assert forest.nodes == recount(list(run_length_batch), self.config.max_len)
        assert self.features(run_length_batch) == brute_force_mine(run_length_batch, self.config)

    def test_walk_narrows_positions_to_int32(self, run_length_batch):
        batch = run_length_batch
        alphabet = np.unique(batch.codes)
        walk = window_states(batch.codes, batch.offsets, alphabet, self.config.max_len)
        for table, rows, owners in walk:
            assert (table.dtype, rows.dtype, owners.dtype) == (np.int64, np.int32, np.int32)

    @pytest.mark.parametrize("constant", ["_KEY_CELLS", "_DOC_CELLS"])
    def test_sorting_branch_counts_the_same(self, run_length_batch, monkeypatch, constant):
        dense = build_forest(run_length_batch, self.config)
        monkeypatch.setattr(mining, constant, 0)
        forest = build_forest(run_length_batch, self.config)
        assert forest.nodes == dense.nodes == recount(list(run_length_batch), self.config.max_len)
        assert self.features(run_length_batch) == brute_force_mine(run_length_batch, self.config)

    @pytest.mark.parametrize("budget", [1, 500, 1250])
    def test_bitmap_in_sample_blocks(self, run_length_batch, monkeypatch, budget):
        # eleven one- and two-code samples in the middle leave whole blocks
        # without a window of length 3 or more
        short = [seq(f"short{i}", [i % 27] * (1 + i % 2), dims=3) for i in range(11)]
        sequences = list(run_length_batch)[:100] + short + list(run_length_batch)[100:]
        monkeypatch.setattr(mining, "_BITMAP_CELLS", budget)
        forest = build_forest(sequences, self.config)
        assert forest.nodes == recount(sequences, self.config.max_len)
        width = sum(len(t) == 4 for t in forest.nodes)
        step = max(1, budget // width)
        starts = range(0, len(sequences), step)
        assert len(starts) >= 3
        assert any(all(len(s) < 4 for s in sequences[i : i + step]) for i in starts)


class TestDeterminism:
    def test_identical_runs_identical_output(self, toy_sequences):
        config = MinerConfig(min_support=2, max_len=2)
        one = build_forest(toy_sequences, config)
        two = build_forest(toy_sequences, config)
        assert list(one.nodes.items()) == list(two.nodes.items())
        assert extract_rts_features(prune_bottom_up(one, config)) == extract_rts_features(
            prune_bottom_up(two, config)
        )


class TestFeatureListFile:
    def test_round_trip_with_descriptions(self, tmp_path, toy_sequences):
        config = MinerConfig(min_support=2, max_len=2)
        pruned = prune_bottom_up(build_forest(toy_sequences, config), config)
        features = extract_rts_features(pruned)
        path = tmp_path / "features.json"
        write_feature_list(path, features, pruned, dims=2, delta=0.05, config=config)
        payload = load_feature_list(path)
        assert payload["dims"] == 2
        assert payload["delta"] == 0.05
        assert payload["n_samples"] == 2
        assert payload["resolved_min_support"] == 2
        records = payload["features"]
        assert [tuple(r["codes"]) for r in records] == [(8,), (4, 8)]
        assert records[0]["doc_support"] == 2
        assert records[0]["occ_count"] == 3
        assert records[0]["description"] == "dim_0: up, dim_1: up"
        assert records[1]["ordinal"] == 1

    def test_feature_missing_from_the_forest(self, tmp_path, toy_sequences):
        config = MinerConfig(min_support=2, max_len=2)
        pruned = prune_bottom_up(build_forest(toy_sequences, config), config)
        path = tmp_path / "features.json"
        # (8, 4) is counted once, below the threshold, so pruning drops it
        with pytest.raises(ValueError, match=r"feature \(8, 4\) is not present in the forest"):
            write_feature_list(path, [(8,), (8, 4)], pruned, dims=2, delta=0.05, config=config)
        assert not path.exists()

    def test_empty_feature_list(self, tmp_path, toy_sequences):
        config = MinerConfig(min_support=9, max_len=2)
        pruned = prune_bottom_up(build_forest(toy_sequences, config), config)
        path = tmp_path / "features.json"
        write_feature_list(path, [], pruned, dims=2, delta=0.05, config=config)
        assert load_feature_list(path)["features"] == []
