"""Classification protocol: seeded splits, small classifiers, timed pipeline.

The pipeline enforces one hard rule: mining and vocabulary construction see
only training samples. Test samples are symbolized and vectorized against the
training vocabulary, never the other way around, so removing or mutating a
test sample can never change the mined features.

Timings are process CPU seconds (user+system via ``time.process_time``), not
wall clock, reported per stage: symbolize, mine, featurize, classify, total.

Classifying a test set builds one n_test x n_train distance matrix from a
single product and finishes it in place one row block at a time, so memory is
that matrix plus a fixed block workspace. kNN reads each query's k nearest in
stable order (equal distances keep training order) and votes: majority, then
smaller mean distance within the k, then the smaller label.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dataset import MtsDataset
from .errors import (
    ConfigError,
    DegenerateTaskError,
    IncompatibleVectorError,
    NoModelError,
    UnlabeledDataError,
)
from .events import EventSequence, SymbolizerConfig, convert_dataset
from .features import (
    FeatureVector,
    FeatureVocabulary,
    build_vocabulary,
    full_alphabet_vocabulary,
    vectorize_dataset,
)
from .mining import (
    MinerConfig,
    build_forest,
    extract_rts_features,
    prune_bottom_up,
    resolve_min_support,
)

__all__ = [
    "SplitSpec",
    "ClassifierConfig",
    "EvalReport",
    "split_dataset",
    "class_centroids",
    "knn_classify",
    "nearest_centroid_classify",
    "evaluate_pipeline",
    "baseline_histogram_eval",
    "reports_to_json",
    "render_report_table",
    "write_report_files",
]

METRICS = ("euclidean", "cosine")
CLASSIFIERS = ("knn", "centroid")


@dataclass(frozen=True)
class SplitSpec:
    """Seeded train/test split; stratified keeps per-class proportions."""

    train_fraction: float = 0.8
    seed: int = 0
    stratified: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass(frozen=True)
class ClassifierConfig:
    kind: str = "knn"
    k: int = 1
    metric: str = "euclidean"

    def __post_init__(self) -> None:
        if self.kind not in CLASSIFIERS:
            raise ConfigError(f"classifier must be one of {CLASSIFIERS}, got {self.kind!r}")
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")


def _split_group(ids: list[str], train_fraction: float, rng: np.random.Generator):
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


def split_dataset(dataset: MtsDataset, spec: SplitSpec) -> tuple[list[str], list[str]]:
    """Split into (train ids, test ids), deterministic for a given seed.

    Test size per group is max(1, floor((1 - train_fraction) * n)), capped so
    at least one sample stays in train. Groups are classes when stratified,
    the whole dataset otherwise. Returned ids keep dataset order.
    """
    unlabeled = [s.id for s in dataset.samples if s.label is None]
    if unlabeled:
        raise UnlabeledDataError(f"cannot split unlabeled samples: {unlabeled[:5]}")
    rng = np.random.default_rng(spec.seed)
    train: list[str] = []
    test: list[str] = []
    if spec.stratified:
        for label in dataset.label_set:
            ids = [s.id for s in dataset.samples if s.label == label]
            tr, te = _split_group(ids, spec.train_fraction, rng)
            train.extend(tr)
            test.extend(te)
    else:
        train, test = _split_group([s.id for s in dataset.samples], spec.train_fraction, rng)
    position = {s.id: i for i, s in enumerate(dataset.samples)}
    train.sort(key=position.__getitem__)
    test.sort(key=position.__getitem__)
    return train, test


# ---------------------------------------------------------------------------
# Classifiers
# ---------------------------------------------------------------------------

# Cells of the distance matrix handled per block. Each element-wise step and
# the top-k search touch one row block at a time, so their temporaries stay at
# a few blocks (0.5 MiB of float64 each) however large n_test x n_train grows.
# Of 2**14 to 2**22 cells, this was the fastest on a 1,996 x 8,004 matrix.
_BLOCK_CELLS = 1 << 16


def _row_blocks(n_rows: int, n_cols: int):
    step = max(1, _BLOCK_CELLS // max(n_cols, 1))
    return (slice(start, start + step) for start in range(0, n_rows, step))


def _distances(queries: np.ndarray, train: np.ndarray, metric: str) -> np.ndarray:
    """The n_queries x n_train distance matrix, built in the product's own buffer.

    The product ``queries @ train.T`` is one call, never split, so every entry
    rounds the same whatever the block size. Every later step runs in place,
    one row block at a time: memory is one matrix plus a fixed block workspace.
    """
    if metric == "euclidean":
        q2 = (queries * queries).sum(axis=1)
        t2 = (train * train).sum(axis=1)
        dist = 2.0 * queries @ train.T
        for rows in _row_blocks(*dist.shape):
            block = dist[rows]
            np.subtract(q2[rows, None] + t2, block, out=block)
            np.maximum(block, 0.0, out=block)
            np.sqrt(block, out=block)
        return dist
    if metric == "cosine":
        qn = np.linalg.norm(queries, axis=1)
        tn = np.linalg.norm(train, axis=1)
        dist = queries @ train.T
        for rows in _row_blocks(*dist.shape):
            block = dist[rows]
            denom = np.outer(qn[rows], tn)
            ok = denom > 0.0
            np.divide(block, denom, out=block, where=ok)
            np.copyto(block, 0.0, where=~ok)
            np.subtract(1.0, block, out=block)
            # two zero vectors are identical, a zero against a nonzero is fully apart
            block[np.ix_(qn[rows] == 0.0, tn == 0.0)] = 0.0
            np.maximum(block, 0.0, out=block)
        return dist
    raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")


def _nearest(distances: np.ndarray, k: int) -> np.ndarray:
    """Per row, the columns of the k smallest distances, nearest first.

    Equals ``np.argsort(distances, kind="stable")[:, :k]``: equal distances
    keep training order. Each block takes k rounds of ``argmin`` (the first
    index of the minimum) over a copy, masking each pick with inf. A row with
    a non-finite distance takes the stable argsort, since there an inf mask
    could pick one column twice.
    """
    nearest = np.empty((distances.shape[0], k), dtype=np.intp)
    for rows in _row_blocks(*distances.shape):
        block = distances[rows].copy()
        out = nearest[rows]
        at = np.arange(len(block))
        finite = np.isfinite(block).all(axis=1)
        for j in range(k):
            out[:, j] = block.argmin(axis=1)
            block[at, out[:, j]] = np.inf
        if not finite.all():
            odd = distances[rows][~finite]
            out[~finite] = np.argsort(odd, kind="stable")[:, :k]
    return nearest


def _vote(labels: Sequence[str], distances: Sequence[float]) -> str:
    """Vote of the k nearest neighbours, given nearest first; see :func:`knn_classify`."""
    counts = Counter(labels)
    best = max(counts.values())
    winners = sorted(label for label, c in counts.items() if c == best)
    if len(winners) == 1:
        return winners[0]
    means = {
        label: float(np.mean([d for d, l in zip(distances, labels) if l == label]))
        for label in winners
    }
    return min(winners, key=lambda label: (means[label], label))


def _check_train_vectors(train: Sequence[FeatureVector]) -> tuple[np.ndarray, list[str]]:
    if not train:
        raise NoModelError("no training vectors")
    width = len(train[0])
    for vec in train:
        if len(vec) != width:
            raise IncompatibleVectorError(
                f"vector {vec.sample_id!r} has length {len(vec)}, expected {width}"
            )
        if vec.label is None:
            raise UnlabeledDataError(f"training vector {vec.sample_id!r} has no label")
    matrix = np.vstack([vec.values for vec in train])
    return matrix, [vec.label for vec in train]


def knn_classify(
    train: Sequence[FeatureVector], query: FeatureVector, k: int, metric: str = "euclidean"
) -> str:
    """Majority label among the k nearest training vectors.

    Neighbours at equal distance count in training order. Label ties break on
    smallest mean distance within the k, then on the lexicographically
    smaller label, so predictions are reproducible.
    """
    return _predict(train, [query], ClassifierConfig("knn", k, metric))[0]


def class_centroids(train: Sequence[FeatureVector]) -> dict[str, np.ndarray]:
    """Per-class mean vectors, keyed by label in sorted order."""
    matrix, labels = _check_train_vectors(train)
    out: dict[str, np.ndarray] = {}
    for label in sorted(set(labels)):
        member_rows = [i for i, l in enumerate(labels) if l == label]
        out[label] = matrix[member_rows].mean(axis=0)
    return out


def nearest_centroid_classify(
    train: Sequence[FeatureVector], query: FeatureVector, metric: str = "euclidean"
) -> str:
    """Label of the nearest class centroid; ties go to the smaller label."""
    return _predict(train, [query], ClassifierConfig("centroid", 1, metric))[0]


def _predict(
    train: Sequence[FeatureVector],
    queries: Sequence[FeatureVector],
    classifier: ClassifierConfig,
) -> list[str]:
    """Every query's label from one distance matrix (see ``_distances``)."""
    if not queries:
        return []
    matrix, labels = _check_train_vectors(train)
    query_matrix = np.vstack([vec.values for vec in queries])
    if query_matrix.shape[1] != matrix.shape[1]:
        raise IncompatibleVectorError(
            f"query has length {query_matrix.shape[1]}, "
            f"training vectors have {matrix.shape[1]}"
        )
    if classifier.kind == "centroid":
        centroids = class_centroids(train)
        names = list(centroids)
        distances = _distances(query_matrix, np.vstack(list(centroids.values())), classifier.metric)
        return [names[i] for i in distances.argmin(axis=1).tolist()]
    if classifier.k > len(train):
        raise ConfigError(f"k must lie in [1, {len(train)}], got {classifier.k}")
    distances = _distances(query_matrix, matrix, classifier.metric)
    nearest = _nearest(distances, classifier.k)
    near = np.take_along_axis(distances, nearest, axis=1)
    return [_vote([labels[i] for i in row], d) for row, d in zip(nearest.tolist(), near)]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class EvalReport:
    """Accuracy, confusion, and per-stage CPU time for one method run."""

    method: str
    dataset: str
    labels: tuple[str, ...]
    confusion: np.ndarray
    timings: dict[str, float]
    config: dict
    n_train: int
    n_test: int
    vocabulary: FeatureVocabulary | None = field(default=None, repr=False)

    @property
    def accuracy(self) -> float:
        total = int(self.confusion.sum())
        if total == 0:
            return 0.0
        return float(np.trace(self.confusion)) / total

    @property
    def per_class_accuracy(self) -> dict[str, float]:
        out = {}
        for i, label in enumerate(self.labels):
            row_total = int(self.confusion[i].sum())
            out[label] = float(self.confusion[i, i]) / row_total if row_total else 0.0
        return out

    def to_dict(self, include_timings: bool = True) -> dict:
        payload = {
            "accuracy": self.accuracy,
            "per_class_accuracy": self.per_class_accuracy,
            "labels": list(self.labels),
            "confusion": [[int(x) for x in row] for row in self.confusion],
            "n_train": self.n_train,
            "n_test": self.n_test,
            "config": self.config,
        }
        if include_timings:
            payload["timings"] = {k: float(v) for k, v in self.timings.items()}
        return payload


def _confusion(labels: tuple[str, ...], truth: Sequence[str], predicted: Sequence[str]) -> np.ndarray:
    index = {label: i for i, label in enumerate(labels)}
    matrix = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for t, p in zip(truth, predicted):
        matrix[index[t], index[p]] += 1
    return matrix


def _check_task(dataset: MtsDataset) -> None:
    if any(s.label is None for s in dataset.samples):
        raise UnlabeledDataError("every sample needs a label for evaluation")
    if len(dataset.label_set) < 2:
        raise DegenerateTaskError(
            f"classification needs at least 2 classes, got {len(dataset.label_set)}"
        )


def _split_ids(
    dataset: MtsDataset, split: SplitSpec, resubstitution: bool
) -> tuple[list[str], list[str]]:
    if resubstitution:
        ids = [s.id for s in dataset.samples]
        return ids, list(ids)
    return split_dataset(dataset, split)


def _run_eval(
    dataset: MtsDataset,
    symbolizer: SymbolizerConfig,
    classifier: ClassifierConfig,
    train_ids: list[str],
    test_ids: list[str],
    vocab_builder: Callable[[list[EventSequence]], FeatureVocabulary],
    method: str,
    dataset_name: str,
    pad: bool,
    config: dict,
) -> EvalReport:
    start = time.process_time()

    t0 = time.process_time()
    # padding follows the training samples only, so a test sample's length
    # cannot reach the vocabulary through the padded training sequences
    pad_to = None
    if pad:
        length = {s.id: s.length for s in dataset.samples}
        pad_to = max(length[i] for i in train_ids)
    sequences = convert_dataset(dataset, symbolizer, pad_to)
    seq_by_id = {seq.sample_id: seq for seq in sequences}
    t_symbolize = time.process_time() - t0

    train_seqs = [seq_by_id[i] for i in train_ids]
    test_seqs = [seq_by_id[i] for i in test_ids]

    t0 = time.process_time()
    vocab = vocab_builder(train_seqs)
    t_mine = time.process_time() - t0

    t0 = time.process_time()
    train_vecs = vectorize_dataset(train_seqs, vocab)
    test_vecs = vectorize_dataset(test_seqs, vocab)
    t_featurize = time.process_time() - t0

    t0 = time.process_time()
    predictions = _predict(train_vecs, test_vecs, classifier)
    t_classify = time.process_time() - t0

    labels = dataset.label_set
    truth = [seq.label for seq in test_seqs]
    confusion = _confusion(labels, truth, predictions)
    total = time.process_time() - start
    timings = {
        "symbolize": t_symbolize,
        "mine": t_mine,
        "featurize": t_featurize,
        "classify": t_classify,
        "total": total,
    }
    return EvalReport(
        method=method,
        dataset=dataset_name,
        labels=labels,
        confusion=confusion,
        timings=timings,
        config=config,
        n_train=len(train_ids),
        n_test=len(test_ids),
        vocabulary=vocab,
    )


def evaluate_pipeline(
    dataset: MtsDataset,
    symbolizer: SymbolizerConfig | None = None,
    miner: MinerConfig | None = None,
    split: SplitSpec | None = None,
    classifier: ClassifierConfig | None = None,
    *,
    pad: bool = False,
    resubstitution: bool = False,
    dataset_name: str = "dataset",
) -> EvalReport:
    """Run the full pipeline and report accuracy plus per-stage CPU time.

    Mining and vocabulary construction use training samples only; the test
    set is vectorized against that vocabulary. ``pad=True`` extends every
    sample shorter than the longest training sample to that length, so test
    lengths never shape the vocabulary either. ``resubstitution=True``
    evaluates on the training set itself (a sanity mode, not a benchmark).
    """
    symbolizer = symbolizer or SymbolizerConfig()
    miner = miner or MinerConfig()
    split = split or SplitSpec()
    classifier = classifier or ClassifierConfig()
    _check_task(dataset)
    train_ids, test_ids = _split_ids(dataset, split, resubstitution)

    def vocab_builder(train_seqs: list[EventSequence]) -> FeatureVocabulary:
        forest = build_forest(train_seqs, miner)
        pruned = prune_bottom_up(forest, miner)
        features = extract_rts_features(pruned)
        return build_vocabulary(
            features, dims=dataset.dims, delta=symbolizer.delta, miner=miner
        )

    config = {
        "delta": symbolizer.delta,
        "min_support": miner.min_support,
        "resolved_min_support": resolve_min_support(miner.min_support, len(train_ids)),
        "max_len": miner.max_len,
        "gain_gamma": miner.gain_gamma,
        "classifier": classifier.kind,
        "k": classifier.k,
        "metric": classifier.metric,
        "train_fraction": split.train_fraction,
        "stratified": split.stratified,
        "seed": split.seed,
        "pad": pad,
        "resubstitution": resubstitution,
    }
    return _run_eval(
        dataset,
        symbolizer,
        classifier,
        train_ids,
        test_ids,
        vocab_builder,
        "stem",
        dataset_name,
        pad,
        config,
    )


def baseline_histogram_eval(
    dataset: MtsDataset,
    split: SplitSpec | None = None,
    symbolizer: SymbolizerConfig | None = None,
    classifier: ClassifierConfig | None = None,
    *,
    pad: bool = False,
    resubstitution: bool = False,
    dataset_name: str = "dataset",
) -> EvalReport:
    """Normalized 1-gram event-code histogram features, same protocol.

    The feature space is the full alphabet (3**D single-code tuples), so the
    report is shaped exactly like the main pipeline's and comparable on the
    same split.
    """
    symbolizer = symbolizer or SymbolizerConfig()
    split = split or SplitSpec()
    classifier = classifier or ClassifierConfig()
    _check_task(dataset)
    train_ids, test_ids = _split_ids(dataset, split, resubstitution)

    def vocab_builder(train_seqs: list[EventSequence]) -> FeatureVocabulary:
        return full_alphabet_vocabulary(dataset.dims, symbolizer.delta)

    config = {
        "delta": symbolizer.delta,
        "features": "1-gram histogram",
        "classifier": classifier.kind,
        "k": classifier.k,
        "metric": classifier.metric,
        "train_fraction": split.train_fraction,
        "stratified": split.stratified,
        "seed": split.seed,
        "pad": pad,
        "resubstitution": resubstitution,
    }
    return _run_eval(
        dataset,
        symbolizer,
        classifier,
        train_ids,
        test_ids,
        vocab_builder,
        "baseline",
        dataset_name,
        pad,
        config,
    )


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------


def reports_to_json(reports: Sequence[EvalReport], include_timings: bool = True) -> str:
    """Machine-readable report; method blocks keyed by method name."""
    payload = {
        "dataset": reports[0].dataset,
        "methods": {r.method: r.to_dict(include_timings) for r in reports},
    }
    return json.dumps(payload, indent=2) + "\n"


def render_report_table(reports: Sequence[EvalReport]) -> str:
    """Two aligned text tables: accuracy first, CPU time last.

    The CPU-time section is the only part that varies between identical runs,
    so consumers comparing reports can cut everything from its heading on.
    """
    name = reports[0].dataset
    width = max([len("model")] + [len(r.method) for r in reports]) + 2
    lines = ["Average accuracy", f"{'model':<{width}}{name}"]
    for r in reports:
        lines.append(f"{r.method:<{width}}{r.accuracy:.4f}")
    lines.append("")
    lines.append("CPU time (seconds)")
    lines.append(f"{'model':<{width}}{name}")
    for r in reports:
        lines.append(f"{r.method:<{width}}{r.timings['total']:.3f}")
    return "\n".join(lines) + "\n"


def write_report_files(reports: Sequence[EvalReport], out_prefix: str | Path) -> tuple[Path, Path]:
    """Write ``<prefix>.json`` and ``<prefix>.txt``; returns both paths."""
    json_path = Path(str(out_prefix) + ".json")
    text_path = Path(str(out_prefix) + ".txt")
    json_path.write_text(reports_to_json(reports), encoding="utf-8")
    text_path.write_text(render_report_table(reports), encoding="utf-8")
    return json_path, text_path
