"""Classification protocol: seeded splits, small classifiers, timed pipeline.

The pipeline enforces one hard rule: mining and vocabulary construction see
only training samples. Test samples are symbolized and vectorized against the
training vocabulary, never the other way around, so removing or mutating a
test sample can never change the mined features.

``evaluate`` is the one entry point; ``evaluate_pipeline`` and
``baseline_histogram_eval`` are its one-method calls. It codes the labels in one pass
(``_label_codes``) as indices into the sorted labels and splits by them, symbolizes the
dataset into one ``events.EventBatch`` and finds its distinct sequences once
(``EventBatch.distinct``). Each split's distinct sequences, in its order, and
each sample's row among them follow from that without hashing again. Per
method it mines the training split's distinct sequences, each weighted by its
sample count, vectorizes every distinct sequence once and classifies the test
samples in ``_predict``, the one classify path, on the integer label codes; no
per-sample object is built.

Timings are process CPU seconds (``time.process_time``) per stage: symbolize
(with finding the distinct sequences), mine, featurize, classify, total. The
shared symbolize stage is charged to the first report; a later report's is 0.0.

Classifying builds one distance matrix over the distinct queries and training
vectors (``dataset._distinct_rows`` finds them) from one product, whichever the
metric, and finishes it in one loop over row blocks (``_distances``,
``dataset._row_blocks``). kNN finds each query's k nearest distinct vectors, then
their training samples in stable order (``_nearest``). ``_vote`` counts all their labels
in one ``bincount``: majority, then the smaller ``np.mean`` of a tied label's distances in
neighbour order, then the smaller label. The nearest centroid is the 1-NN of the class
means, stacked in sorted-label order into one array: a tie goes to the smaller label.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import MtsDataset, _distinct_rows, _encode, _row_blocks
from .errors import ConfigError, DegenerateTaskError, UnlabeledDataError, check_int
from .events import SymbolizerConfig, convert_dataset
from .features import FeatureVocabulary, _vectorize, build_vocabulary, full_alphabet_vocabulary
from .mining import (
    MinerConfig,
    _count_forest,
    extract_rts_features,
    prune_bottom_up,
    resolve_min_support,
)

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
        object.__setattr__(self, "train_fraction", float(self.train_fraction))
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))


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
        object.__setattr__(self, "k", check_int("k", self.k, 1))


def _label_codes(labels: Sequence) -> tuple[tuple, np.ndarray]:
    """``(names, codes)``: the sorted distinct labels but None, and each label's index in
    ``names``, -1 for None; ``dataset._encode`` looks up only the first label of each run."""
    seen: dict = {}
    codes = _encode(np.fromiter(labels, object, len(labels)), seen)
    names = tuple(sorted(label for label in seen if label is not None))
    index = {None: -1} | {name: i for i, name in enumerate(names)}
    return names, np.array([index[label] for label in seen], np.intp)[codes]


def _split_rows(dataset: MtsDataset, codes: np.ndarray, spec: SplitSpec) -> tuple[np.ndarray, ...]:
    """Split into ascending (train rows, test rows), the sample positions in ``dataset``,
    grouped by the label ``codes`` of ``_label_codes``; see :func:`split_dataset`."""
    unlabeled = [dataset.ids[i] for i in np.flatnonzero(codes < 0)[:5].tolist()]
    if unlabeled:
        raise UnlabeledDataError(f"cannot split unlabeled samples: {unlabeled}")
    rng = np.random.default_rng(spec.seed)
    groups = [np.arange(len(codes))]
    if spec.stratified:
        groups = [np.flatnonzero(codes == code) for code in range(codes.max() + 1)]
    in_test = np.zeros(len(codes), dtype=bool)
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
    train, test = _split_rows(dataset, _label_codes(dataset.labels)[1], spec)
    ids = dataset.ids
    return [ids[i] for i in train.tolist()], [ids[i] for i in test.tolist()]


# ---------------------------------------------------------------------------
# Classifiers
# ---------------------------------------------------------------------------

def _distances(queries: np.ndarray, train: np.ndarray, metric: str) -> np.ndarray:
    """The n_queries x n_train distance matrix, built in the product's own buffer.

    Both metrics (``ClassifierConfig`` checks the name) share one product, one
    call, never split, so every entry rounds the same whatever the block size. One
    loop finishes it in place a row block at a time: memory is one matrix plus a
    fixed block workspace. Euclidean takes ``sqrt(max(|q|² + |t|² - 2 q·t, 0))``;
    the cosine norms are ``np.sqrt`` of the same row sums, as ``np.linalg.norm``
    takes them. The classifiers pass distinct queries and distinct training vectors.
    """
    q, t = (queries * queries).sum(axis=1), (train * train).sum(axis=1)
    if metric == "cosine":
        q, t = np.sqrt(q), np.sqrt(t)
    # 2 q·t from the doubled queries: doubling a product that underflowed is not exact
    dist = (2.0 * queries if metric == "euclidean" else queries) @ train.T
    for rows in _row_blocks(*dist.shape):
        block = dist[rows]
        if metric == "euclidean":
            np.subtract(q[rows, None] + t, block, out=block)
            np.sqrt(np.maximum(block, 0.0, out=block), out=block)
        else:
            denom = np.outer(q[rows], t)
            ok = denom > 0.0
            np.divide(block, denom, out=block, where=ok)
            np.copyto(block, 0.0, where=~ok)
            np.subtract(1.0, block, out=block)
            # two zero vectors are identical, a zero against a nonzero is fully apart
            block[np.ix_(q[rows] == 0.0, t == 0.0)] = 0.0
            np.maximum(block, 0.0, out=block)
    return dist


def _first_appearances(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(distinct, index)``: the distinct non-negative ``ids`` in order of first appearance
    and each id's index in ``distinct``, found with one ``minimum.at``, not by hashing."""
    seen = np.full(ids.max() + 1, len(ids))
    np.minimum.at(seen, ids, np.arange(len(ids)))  # each id's first position
    first = np.sort(seen[seen < len(ids)])
    seen[ids[first]] = np.arange(len(first))  # now each id's index in distinct
    return ids[first], seen[ids]


def _nearest(distances: np.ndarray, k: int, columns: np.ndarray) -> np.ndarray:
    """Per row, the k nearest training vectors, nearest first: equal to
    ``np.argsort(distances.take(columns, axis=1), kind="stable")[:, :k]``.

    ``columns`` gives each training vector's column in ``distances``. k rounds of
    ``argmin`` per row block, masking each pick with inf, find the k nearest columns
    in use, ties to the earlier first training vector. The k nearest vectors are
    among those columns' first k, sorted by one integer key: the pick's run of equal
    distances, then the training index. A row with a non-finite pick (a nan, an inf,
    or a masked column picked again) takes the stable argsort of its whole row.
    """
    n = len(columns)
    used, of = _first_appearances(columns)  # the columns in use, by first training vector
    # training vectors by column, in order within one: narrow keys sort by radix
    by_column = np.argsort(of.astype(np.min_scalar_type(len(used))), kind="stable")
    sizes = np.bincount(of)
    width, rounds = min(k, sizes.max()), min(k, len(used))
    firsts = by_column[np.minimum((np.cumsum(sizes) - sizes)[:, None] + np.arange(width), n - 1)]
    firsts[np.arange(width) >= sizes[:, None]] = k * (n + 1)  # padding, past every key
    picks, last = np.empty((len(distances), rounds), np.intp), np.empty(len(distances))
    for rows in _row_blocks(len(distances), len(used)):
        block, out = distances[rows].take(used, axis=1), picks[rows]
        at = np.arange(len(block))
        for j in range(rounds):
            if j:
                block[at, out[:, j - 1]] = np.inf
            out[:, j] = block.argmin(axis=1)
        last[rows] = block[at, out[:, -1]]  # minima never fall: inf if a round found no finite
    near = np.take_along_axis(distances, used[picks], axis=1)
    nearest = np.empty((len(distances), k), dtype=np.intp)
    for rows in _row_blocks(len(distances), rounds * width):
        # a finite row's picks never get nearer, so its first is not above its last
        group = np.cumsum(near[rows] > np.roll(near[rows], 1, axis=1), axis=1)
        keys = (group[:, :, None] * (n + 1) + firsts[picks[rows]]).reshape(len(group), -1)
        nearest[rows] = np.sort(keys, axis=1)[:, :k] % (n + 1)
    for i in np.flatnonzero(~(np.isfinite(near).all(axis=1) & np.isfinite(last))).tolist():
        nearest[i] = np.argsort(distances[i].take(columns), kind="stable")[:k]
    return nearest


def _vote(ranks: np.ndarray, near: np.ndarray, n_labels: int) -> np.ndarray:
    """Each row's vote of its k nearest label ``ranks`` at distances ``near``, nearest first.
    Only rows whose top count is shared loop: ``np.mean`` sums as the reference does, pairwise."""
    cells = (np.arange(len(ranks))[:, None] * n_labels + ranks).ravel()
    counts = np.bincount(cells, minlength=len(ranks) * n_labels).reshape(-1, n_labels)
    votes, top = counts.argmax(axis=1), counts.max(axis=1, keepdims=True)  # argmax: smallest
    for i in np.flatnonzero((counts == top).sum(axis=1) > 1).tolist():
        tied = np.flatnonzero(counts[i] == top[i]).tolist()
        votes[i] = min((np.mean(near[i][ranks[i] == r]), r) for r in tied)[1]
    return votes


def _predict(
    matrix: np.ndarray,
    matrix_of: np.ndarray,
    labels: Sequence,
    queries: np.ndarray,
    query_of: np.ndarray,
    classifier: ClassifierConfig,
) -> list:
    """The label of test sample j, ``queries[query_of[j]]``, against training sample i,
    ``matrix[matrix_of[i]]`` labelled ``labels[i]``; one vocabulary gives both widths.

    The labels, any sortable values (``evaluate`` passes integer codes), are ranked once,
    and the vote and the class means run on the ranks. The distance matrix is over each
    matrix's distinct rows in first-appearance order. Equal queries get one vote.
    """
    names, ranks = np.unique(np.asarray(labels), return_inverse=True)
    if classifier.kind == "centroid":  # each rank's mean over its training rows in order
        matrix = np.vstack([matrix[matrix_of[ranks == r]].mean(axis=0) for r in range(len(names))])
        ranks = matrix_of = np.arange(len(names))
        classifier = ClassifierConfig("knn", 1, classifier.metric)
    if classifier.k > len(matrix_of):
        raise ConfigError(f"k must lie in [1, {len(matrix_of)}], got {classifier.k}")
    query_rows, query_at = _distinct_rows(queries)
    train_rows, vector_of = _distinct_rows(matrix)
    columns = vector_of[matrix_of]
    distances = _distances(queries[query_rows], matrix[train_rows], classifier.metric)
    nearest = _nearest(distances, classifier.k, columns)
    near = np.take_along_axis(distances, columns[nearest], axis=1)
    votes = _vote(ranks[nearest], near, len(names))
    return names[votes[query_at[query_of]]].tolist()


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
        return float(np.trace(self.confusion)) / total if total else 0.0

    @property
    def per_class_accuracy(self) -> dict[str, float]:
        hits, totals = np.diag(self.confusion).tolist(), self.confusion.sum(axis=1).tolist()
        return {label: h / t if t else 0.0 for label, h, t in zip(self.labels, hits, totals)}

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class_accuracy": self.per_class_accuracy,
            "labels": list(self.labels),
            "confusion": [[int(x) for x in row] for row in self.confusion],
            "n_train": self.n_train,
            "n_test": self.n_test,
            "config": self.config,
            "timings": {k: float(v) for k, v in self.timings.items()},
        }


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
    labels, codes = _label_codes(dataset.labels)
    if codes.min() < 0:
        raise UnlabeledDataError("every sample needs a label for evaluation")
    if len(labels) < 2:
        raise DegenerateTaskError(f"classification needs at least 2 classes, got {len(labels)}")
    if resubstitution:
        train_rows = test_rows = np.arange(len(dataset))
    else:
        train_rows, test_rows = _split_rows(dataset, codes, split)
    if not len(test_rows):
        raise DegenerateTaskError("the split left no test samples")
    start = time.process_time()
    # padding follows the training samples only, so a test sample's length
    # cannot reach the vocabulary through the padded training sequences
    pad_to = int(np.diff(dataset.offsets)[train_rows].max()) if pad else None
    unique, inverse = convert_dataset(dataset, symbolizer, pad_to).distinct()
    # each split's distinct sequences (rows of unique) in its order, and each sample's among them
    (train_seq, train_of), (test_seq, test_of) = (
        _first_appearances(inverse[rows]) for rows in (train_rows, test_rows)
    )
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
                "resolved_min_support": resolve_min_support(miner.min_support, len(train_rows)),
                "max_len": miner.max_len,
                "gain_gamma": miner.gain_gamma,
            }
            train = unique.take(train_seq)  # the codes of batch.take(train_rows).distinct()
            forest = _count_forest(train, np.bincount(train_of), len(train_rows), miner)
            features = extract_rts_features(prune_bottom_up(forest, miner))
            vocab = build_vocabulary(features, dataset.dims, symbolizer.delta, miner)
        t_mine = time.process_time() - t0

        t0 = time.process_time()
        matrix = _vectorize(unique, vocab)  # a row depends on its own sequence alone
        t_featurize = time.process_time() - t0

        t0 = time.process_time()
        predicted = _predict(
            matrix[train_seq], train_of, codes[train_rows], matrix[test_seq], test_of, classifier
        )
        t_classify = time.process_time() - t0

        cells = np.bincount(codes[test_rows] * len(labels) + predicted, minlength=len(labels) ** 2)
        confusion = cells.reshape(len(labels), len(labels))  # rows true, columns predicted
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
                n_train=len(train_rows),
                n_test=len(test_rows),
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


def reports_to_json(reports: Sequence[EvalReport]) -> str:
    """Machine-readable report; method blocks keyed by method name."""
    payload = {
        "dataset": reports[0].dataset,
        "methods": {r.method: r.to_dict() for r in reports},
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
    lines += ["", "CPU time (seconds)", f"{'model':<{width}}{name}"]
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
