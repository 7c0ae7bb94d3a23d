"""Classification protocol: seeded splits, small classifiers, timed pipeline.

The pipeline enforces one hard rule: mining and vocabulary construction see
only training samples. Test samples are symbolized and vectorized against the
training vocabulary, never the other way around, so removing or mutating a
test sample can never change the mined features.

``evaluate`` is the one entry point. It splits the dataset into train and
test rows, symbolizes it once into one ``events.EventBatch`` and takes the
train and test batches from it. Per method it then mines the training batch,
vectorizes both into matrices with ``features.vectorize_batch`` and
classifies the test matrix against the training matrix in ``_predict``, the
one classify path; no per-sample object is built. ``evaluate_pipeline`` and
``baseline_histogram_eval`` are its one-method calls.

Timings are process CPU seconds (user+system via ``time.process_time``), not
wall clock, reported per stage: symbolize (which includes taking the train
and test batches), mine, featurize, classify, total. The shared symbolize
stage is charged to the first report; a later report's is 0.0.

Classifying builds one distance matrix over the distinct queries and training
vectors (see ``_distances``). kNN reads each query's k nearest in stable
order (equal distances keep training order) and votes once per distinct
query: majority, then smaller mean distance within the k, then the smaller
label. The nearest centroid breaks ties towards the smaller label.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import MtsDataset
from .errors import ConfigError, DegenerateTaskError, UnlabeledDataError
from .events import SymbolizerConfig, convert_dataset
from .features import (
    FeatureVocabulary,
    build_vocabulary,
    full_alphabet_vocabulary,
    vectorize_batch,
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
    "evaluate",
    "evaluate_pipeline",
    "baseline_histogram_eval",
    "reports_to_json",
    "render_report_table",
    "write_report_files",
]

METRICS = ("euclidean", "cosine")
CLASSIFIERS = ("knn", "centroid")
METHODS = ("stem", "baseline")


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


def _split_rows(dataset: MtsDataset, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Split into ascending (train rows, test rows), the sample positions in
    ``dataset``; see :func:`split_dataset`."""
    unlabeled = [sid for sid, label in zip(dataset.ids, dataset.labels) if label is None]
    if unlabeled:
        raise UnlabeledDataError(f"cannot split unlabeled samples: {unlabeled[:5]}")
    rng = np.random.default_rng(spec.seed)
    groups = [np.arange(len(dataset))]
    if spec.stratified:
        labels = np.array(dataset.labels, dtype=object)
        groups = [np.flatnonzero(labels == label) for label in dataset.label_set]
    in_test = np.zeros(len(dataset), dtype=bool)
    for rows in groups:
        n = len(rows)
        if n == 1:
            only = dataset.ids[rows[0]]
            warnings.warn(f"group with a single sample ({only!r}) goes to train entirely")
            continue
        n_test = max(1, math.floor((1.0 - spec.train_fraction) * n))
        n_test = min(n_test, n - 1)
        in_test[rows[rng.permutation(n)[:n_test]]] = True
    return np.flatnonzero(~in_test), np.flatnonzero(in_test)


def split_dataset(dataset: MtsDataset, spec: SplitSpec) -> tuple[list[str], list[str]]:
    """Split into (train ids, test ids), deterministic for a given seed.

    Test size per group is max(1, floor((1 - train_fraction) * n)), capped so
    at least one sample stays in train. Groups are classes when stratified,
    the whole dataset otherwise. Returned ids keep dataset order.
    """
    train, test = _split_rows(dataset, spec)
    ids = dataset.ids
    return [ids[i] for i in train.tolist()], [ids[i] for i in test.tolist()]


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


def _distinct(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``matrix`` in order of first appearance, and each
    row's index into them. Rows are equal when their float64 bytes are, so
    -0.0 and 0.0 stay apart and equal nan rows group. ``matrix`` itself comes
    back when no row repeats."""
    index: dict[bytes, int] = {}
    inverse = np.array([index.setdefault(row.tobytes(), len(index)) for row in matrix], np.intp)
    if len(index) == len(matrix):
        return matrix, inverse
    first = np.unique(inverse, return_index=True)[1]
    return matrix[first], inverse


def _distances(queries: np.ndarray, train: np.ndarray, metric: str) -> np.ndarray:
    """The n_queries x n_train distance matrix, built in the product's own buffer.

    The product ``queries @ train.T`` is one call, never split, so every entry
    rounds the same whatever the block size. Every later step runs in place,
    one row block at a time: memory is one matrix plus a fixed block workspace.
    The classifiers pass distinct queries and distinct training vectors, so
    the matrix is distinct queries x distinct training vectors.
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


def _nearest(distances: np.ndarray, k: int, columns: np.ndarray | None = None) -> np.ndarray:
    """Per row, the k nearest training vectors, nearest first.

    ``columns`` gives each training vector's column in ``distances`` (None:
    column i is vector i). Each row block is gathered to full training width
    through it, so the result equals ``np.argsort(full, kind="stable")[:, :k]``
    on the full-width rows: equal distances keep training order. Each block
    takes k rounds of ``argmin`` (the first index of the minimum), masking
    each pick with inf. A row with a non-finite distance takes the stable
    argsort of its gathered row, since there an inf mask could pick one
    column twice.
    """
    width = distances.shape[1] if columns is None else len(columns)
    nearest = np.empty((distances.shape[0], k), dtype=np.intp)
    for rows in _row_blocks(distances.shape[0], width):
        block = distances[rows].copy() if columns is None else distances[rows].take(columns, axis=1)
        out = nearest[rows]
        at = np.arange(len(block))
        finite = np.isfinite(block).all(axis=1)
        odd = None if finite.all() else block[~finite]
        for j in range(k):
            out[:, j] = block.argmin(axis=1)
            block[at, out[:, j]] = np.inf
        if odd is not None:
            out[~finite] = np.argsort(odd, kind="stable")[:, :k]
    return nearest


def _vote(labels: Sequence[str], distances: Sequence[float]) -> str:
    """Vote of the k nearest neighbours, given nearest first; see the module docstring."""
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


def _centroids(matrix: np.ndarray, labels: Sequence[str]) -> dict[str, np.ndarray]:
    """Per-class mean rows of ``matrix``, keyed by label in sorted order."""
    out: dict[str, np.ndarray] = {}
    for label in sorted(set(labels)):
        member_rows = [i for i, l in enumerate(labels) if l == label]
        out[label] = matrix[member_rows].mean(axis=0)
    return out


def _predict(
    matrix: np.ndarray,
    labels: Sequence[str],
    queries: np.ndarray,
    classifier: ClassifierConfig,
) -> list[str]:
    """The label of every row of ``queries`` against the training rows of
    ``matrix`` and their ``labels``, from one distance matrix over distinct vectors.

    Both matrices come from one vocabulary, so they have the same width.
    Queries with equal vectors get one vote, computed once; see ``_distinct``.
    """
    distinct_queries, query_of = _distinct(queries)
    if classifier.kind == "centroid":
        centroids = _centroids(matrix, labels)
        names = list(centroids)
        distances = _distances(
            distinct_queries, np.vstack(list(centroids.values())), classifier.metric
        )
        votes = [names[i] for i in distances.argmin(axis=1).tolist()]
        return [votes[i] for i in query_of.tolist()]
    if classifier.k > len(matrix):
        raise ConfigError(f"k must lie in [1, {len(matrix)}], got {classifier.k}")
    distinct_train, column_of = _distinct(matrix)
    columns = None if len(distinct_train) == len(matrix) else column_of
    distances = _distances(distinct_queries, distinct_train, classifier.metric)
    nearest = _nearest(distances, classifier.k, columns)
    near = np.take_along_axis(distances, nearest if columns is None else columns[nearest], axis=1)
    votes = [_vote([labels[i] for i in row], d) for row, d in zip(nearest.tolist(), near)]
    return [votes[i] for i in query_of.tolist()]


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


def evaluate(
    dataset: MtsDataset,
    symbolizer: SymbolizerConfig | None = None,
    miner: MinerConfig | None = None,
    split: SplitSpec | None = None,
    classifier: ClassifierConfig | None = None,
    *,
    methods: Sequence[str] = ("stem",),
    pad: bool = False,
    resubstitution: bool = False,
    dataset_name: str = "dataset",
) -> list[EvalReport]:
    """One report per method in ``methods``, all on one split of one symbolized batch.

    ``"stem"`` is the mined-tuple pipeline with ``miner``, ``"baseline"`` the
    1-gram histogram. The dataset is split and symbolized once; only mining,
    vectorizing and classifying run per method. The shared symbolize stage is
    charged to the first report, so a later report's ``symbolize`` is 0.0.
    See :func:`evaluate_pipeline` for ``pad`` and ``resubstitution``.
    """
    if not methods or len(set(methods)) < len(methods) or not set(methods) <= set(METHODS):
        raise ConfigError(f"methods must be distinct choices of {METHODS}, got {methods!r}")
    symbolizer = symbolizer or SymbolizerConfig()
    miner = miner or MinerConfig()
    split = split or SplitSpec()
    classifier = classifier or ClassifierConfig()
    if None in dataset.labels:
        raise UnlabeledDataError("every sample needs a label for evaluation")
    labels = dataset.label_set
    if len(labels) < 2:
        raise DegenerateTaskError(f"classification needs at least 2 classes, got {len(labels)}")
    if resubstitution:
        train_rows = test_rows = np.arange(len(dataset))
    else:
        train_rows, test_rows = _split_rows(dataset, split)
    if not len(test_rows):
        raise DegenerateTaskError("the split left no test samples")
    start = time.process_time()
    # padding follows the training samples only, so a test sample's length
    # cannot reach the vocabulary through the padded training sequences
    pad_to = int(np.diff(dataset.offsets)[train_rows].max()) if pad else None
    batch = convert_dataset(dataset, symbolizer, pad_to)
    train, test = batch.take(train_rows), batch.take(test_rows)
    del batch  # train and test hold every code the later stages read
    t_symbolize = time.process_time() - start

    reports = []
    for method in methods:
        t0 = time.process_time()
        if method == "baseline":
            method_config: dict = {"features": "1-gram histogram"}
            vocab = full_alphabet_vocabulary(dataset.dims, symbolizer.delta)
        else:
            method_config = {
                "min_support": miner.min_support,
                "resolved_min_support": resolve_min_support(miner.min_support, len(train)),
                "max_len": miner.max_len,
                "gain_gamma": miner.gain_gamma,
            }
            features = extract_rts_features(prune_bottom_up(build_forest(train, miner), miner))
            vocab = build_vocabulary(features, dataset.dims, symbolizer.delta, miner)
        t_mine = time.process_time() - t0

        t0 = time.process_time()
        train_matrix = vectorize_batch(train, vocab)
        test_matrix = vectorize_batch(test, vocab)
        t_featurize = time.process_time() - t0

        t0 = time.process_time()
        predictions = _predict(train_matrix, train.labels, test_matrix, classifier)
        t_classify = time.process_time() - t0

        confusion = _confusion(labels, test.labels, predictions)
        timings = {
            "symbolize": t_symbolize,
            "mine": t_mine,
            "featurize": t_featurize,
            "classify": t_classify,
            "total": time.process_time() - start,
        }
        config = {
            "delta": symbolizer.delta,
            **method_config,
            "classifier": classifier.kind,
            "k": classifier.k,
            "metric": classifier.metric,
            "train_fraction": split.train_fraction,
            "stratified": split.stratified,
            "seed": split.seed,
            "pad": pad,
            "resubstitution": resubstitution,
        }
        reports.append(
            EvalReport(
                method=method,
                dataset=dataset_name,
                labels=labels,
                confusion=confusion,
                timings=timings,
                config=config,
                n_train=len(train),
                n_test=len(test),
                vocabulary=vocab,
            )
        )
        start, t_symbolize = time.process_time(), 0.0
    return reports


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
    same = {"pad": pad, "resubstitution": resubstitution, "dataset_name": dataset_name}
    return evaluate(dataset, symbolizer, miner, split, classifier, **same)[0]


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
    same = {"pad": pad, "resubstitution": resubstitution, "dataset_name": dataset_name}
    return evaluate(dataset, symbolizer, None, split, classifier, methods=("baseline",), **same)[0]


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
