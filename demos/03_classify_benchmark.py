"""End-to-end benchmark on a seeded synthetic dataset.

Four classes oscillate with different run lengths (2/3/4/6 steps up, then the
same down) on all three dimensions, so their single-code histograms look
nearly identical while longer tuples tell them apart. That is exactly the
regime where mined variable-length features beat a 1-gram baseline.
"""

from stemts import (
    ClassifierConfig,
    MinerConfig,
    SplitSpec,
    SymbolizerConfig,
    SynthSpec,
    explain_tuple,
    generate_synthetic,
    render_report_table,
)
from stemts.evaluate import evaluate


def motif(run):
    return ((("up", run), ("down", run)),) * 3


spec = SynthSpec(
    classes=(
        ("run2", motif(2)),
        ("run3", motif(3)),
        ("run4", motif(4)),
        ("run6", motif(6)),
    ),
    samples_per_class=100,
    length=100,
    noise_amplitude=0.4,
    seed=7,
    step_size=1.0,
    separable=True,
)
dataset = generate_synthetic(spec)
print(f"dataset: {len(dataset)} samples, {dataset.dims} dims, labels {dataset.label_set}")

symbolizer = SymbolizerConfig(delta=0.05)
miner = MinerConfig(min_support=0.05, max_len=5)
split = SplitSpec(train_fraction=0.8, seed=0)
classifier = ClassifierConfig("knn", k=1, metric="euclidean")

# both methods on one split of one symbolized batch
stem, baseline = evaluate(
    dataset, symbolizer, miner, split, classifier,
    methods=("stem", "baseline"), dataset_name="run-lengths",
)

print()
print(render_report_table([stem, baseline]))

print("confusion (rows true, columns predicted, labels sorted):")
print(stem.labels)
print(stem.confusion)

print(f"\nmined vocabulary: {len(stem.vocabulary)} tuples; the five longest:")
for tup in sorted(stem.vocabulary.features, key=len)[-5:]:
    print(f"  {tup}")
    print(f"    {explain_tuple(tup, dataset.dims)}")
