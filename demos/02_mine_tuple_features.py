"""Tuple mining on a pair of tiny event sequences.

The forest counts every contiguous window up to max_len, one row per tuple:
the row of its prefix (-1 for none), its last code and its counts, shortest
tuples first; pruning keeps tuples seen in at least min_support distinct
samples; the kept tuples that no kept tuple extends (the rows no row names as
its parent, the root-to-leaf paths) are the features. The brute-force miner
re-derives the same list by sheer enumeration, which is the cross-check the
test suite leans on.
"""

from stemts import (
    EventSequence,
    MinerConfig,
    brute_force_mine,
    build_forest,
    explain_tuple,
    extract_rts_features,
    prune_bottom_up,
)


def show(forest):
    print("  row  parent  code  doc_support  occ_count  tuple")
    rows = zip(forest.parent, forest.code, forest.doc_support, forest.occ_count, forest.nodes)
    for row, (parent, code, doc, occ, tup) in enumerate(rows):
        print(f"  {row:3}  {parent:6}  {code:4}  {doc:11}  {occ:9}  {tup}")


sequences = [
    EventSequence("A", None, 2, (4, 8, 4, 8)),
    EventSequence("B", None, 2, (4, 8, 0)),
]
config = MinerConfig(min_support=2, max_len=2)

forest = build_forest(sequences, config)
print("forest, one row per counted tuple:")
show(forest)

pruned = prune_bottom_up(forest, config)
print("\nafter pruning at min_support=2:")
show(pruned)

features = extract_rts_features(pruned)
print("\nroot-to-leaf features:", features)
print("brute force agrees:   ", brute_force_mine(sequences, config))

print("\nwhat the features mean:")
nodes = pruned.nodes
for tup in features:
    doc_support, occ_count = nodes[tup]
    print(f"  {tup}: in {doc_support} samples, {occ_count} windows")
    print(f"    {explain_tuple(tup, 2)}")
