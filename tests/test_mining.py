import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stemts import (
    EventSequence,
    MinerConfig,
    brute_force_mine,
    build_forest,
    extract_rts_features,
    load_feature_list,
    prune_bottom_up,
    resolve_min_support,
    write_feature_list,
)
from stemts.errors import EmptyInputError, MalformedDatasetError


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
    paths = set()

    def walk(node, prefix):
        path = prefix + (node.code,)
        paths.add(path)
        for child in node.children.values():
            walk(child, path)

    for root in forest.roots.values():
        walk(root, ())
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
        min_support=draw(st.integers(1, 4)), max_len=draw(st.integers(1, 5))
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


class TestBuildForest:
    def test_hand_built_supports(self, toy_sequences):
        forest = build_forest(toy_sequences, MinerConfig(min_support=2, max_len=2))
        expected_doc = {(4,): 2, (4, 8): 2, (8,): 2, (8, 4): 1, (8, 0): 1, (0,): 1}
        expected_occ = {(4,): 3, (4, 8): 3, (8,): 3, (8, 4): 1, (8, 0): 1, (0,): 1}
        assert node_paths(forest) == set(expected_doc)
        for path, doc in expected_doc.items():
            node = forest.node_for(path)
            assert node.doc_support == doc
            assert node.occ_count == expected_occ[path]

    def test_single_window(self):
        forest = build_forest([seq("a", [7])], MinerConfig(min_support=1, max_len=3))
        root = forest.roots[7]
        assert (root.doc_support, root.occ_count, root.children) == (1, 1, {})

    def test_occurrences_vs_documents(self):
        forest = build_forest([seq("a", [4, 4, 4])], MinerConfig(min_support=1, max_len=1))
        node = forest.roots[4]
        assert (node.occ_count, node.doc_support) == (3, 1)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            build_forest([], MinerConfig(min_support=1))

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            build_forest([seq("a", [0], dims=1), seq("b", [0], dims=2)], MinerConfig(1))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(MalformedDatasetError):
            build_forest([seq("a", [0]), seq("a", [1])], MinerConfig(1))

    @given(mining_instances())
    def test_anti_monotonicity(self, instance):
        sequences, config = instance
        forest = build_forest(sequences, config)

        def check(node):
            for child in node.children.values():
                assert child.doc_support <= node.doc_support
                check(child)

        for root in forest.roots.values():
            assert root.doc_support <= forest.n_samples
            check(root)


class TestPrune:
    def test_support_two_survivors(self, toy_sequences):
        config = MinerConfig(min_support=2, max_len=2)
        pruned = prune_bottom_up(build_forest(toy_sequences, config), config)
        assert node_paths(pruned) == {(4,), (4, 8), (8,)}

    def test_support_one_is_identity(self, toy_sequences):
        config = MinerConfig(min_support=1, max_len=2)
        forest = build_forest(toy_sequences, config)
        pruned = prune_bottom_up(forest, config)
        assert pruned.to_dict() == forest.to_dict()

    def test_impossible_support_empties_forest(self, toy_sequences):
        config = MinerConfig(min_support=5, max_len=2)
        pruned = prune_bottom_up(build_forest(toy_sequences, config), config)
        assert pruned.roots == {}
        assert extract_rts_features(pruned) == []

    def test_input_forest_untouched(self, toy_sequences):
        config = MinerConfig(min_support=2, max_len=2)
        forest = build_forest(toy_sequences, config)
        before = forest.to_dict()
        prune_bottom_up(forest, config)
        assert forest.to_dict() == before

    @given(mining_instances(), st.integers(0, 3))
    def test_node_set_shrinks_with_support(self, instance, bump):
        sequences, config = instance
        forest = build_forest(sequences, config)
        low = prune_bottom_up(forest, config)
        raised = MinerConfig(
            min_support=resolve_min_support(config.min_support, len(sequences)) + bump,
            max_len=config.max_len,
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


class TestDeterminism:
    def test_identical_runs_identical_output(self, toy_sequences):
        config = MinerConfig(min_support=2, max_len=2)
        one = build_forest(toy_sequences, config)
        two = build_forest(toy_sequences, config)
        assert one.to_dict() == two.to_dict()
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

    def test_empty_feature_list(self, tmp_path, toy_sequences):
        config = MinerConfig(min_support=9, max_len=2)
        pruned = prune_bottom_up(build_forest(toy_sequences, config), config)
        path = tmp_path / "features.json"
        write_feature_list(path, [], pruned, dims=2, delta=0.05, config=config)
        assert load_feature_list(path)["features"] == []
