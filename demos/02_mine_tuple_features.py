"""Tuple mining on a pair of tiny event sequences.

The forest counts every contiguous window up to max_len, printed nested by
prefix; pruning keeps tuples seen in at least min_support distinct samples;
the kept tuples that no kept tuple extends (the root-to-leaf paths of the
nesting) are the features. The brute-force miner re-derives the same list by
sheer enumeration, which is the cross-check the test suite leans on.
"""

import json

from stemts import (
    EventSequence,
    MinerConfig,
    brute_force_mine,
    build_forest,
    explain_tuple,
    extract_rts_features,
    prune_bottom_up,
)

sequences = [
    EventSequence("A", None, 2, (4, 8, 4, 8)),
    EventSequence("B", None, 2, (4, 8, 0)),
]
config = MinerConfig(min_support=2, max_len=2)

forest = build_forest(sequences, config)
print("forest with per-node (doc_support, occ_count):")
print(json.dumps(forest.to_dict(), indent=2))

pruned = prune_bottom_up(forest, config)
print("\nafter pruning at min_support=2:")
print(json.dumps(pruned.to_dict(), indent=2))

features = extract_rts_features(pruned)
print("\nroot-to-leaf features:", features)
print("brute force agrees:   ", brute_force_mine(sequences, config))

print("\nwhat the features mean:")
for tup in features:
    node = pruned.nodes[tup]
    print(f"  {tup}: in {node.doc_support} samples, {node.occ_count} windows")
    print(f"    {explain_tuple(tup, 2)}")
