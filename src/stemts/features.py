"""Feature vocabularies and tuple-frequency vectors.

A vocabulary freezes mined tuples in a canonical order (shortest first, then
lexicographic by codes) together with the context that produced them. A
sequence maps to a dense vector with one entry per tuple: overlapping
occurrence count divided by the number of window positions of that length,
which keeps every entry in [0, 1] and removes sequence-length bias. Tuples
longer than the sequence contribute 0. Codes not covered by any vocabulary
tuple are simply ignored.

``vectorize_batch`` vectorizes an ``events.EventBatch`` into one read-only
``(n, K)`` matrix, row i for sample i, in one mining walk
(``mining.window_states``) over each distinct code sequence followed by the
vocabulary's own tuples: a window counts for the tuple whose whole window got
the same state, and a code no tuple holds is a stop. ``vectorize_dataset`` is
its per-sample view: it vectorizes a batch (a list of ``EventSequence`` is
joined into one first) and hands out one ``FeatureVector`` per matrix row.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import _read_only, _unique
from .errors import (
    DuplicateFeatureError,
    IncompatibleVocabularyError,
    InvalidCodeError,
    SchemaError,
)
from .events import EventBatch, EventSequence, alphabet_size
from .mining import EventTuple, MinerConfig, window_states


@dataclass(frozen=True, eq=False)
class FeatureVocabulary:
    """Ordered mined tuples plus the configuration that produced them."""

    features: tuple[EventTuple, ...]
    dims: int
    delta: float | None = None
    miner: MinerConfig | None = None

    def __len__(self) -> int:
        return len(self.features)


def _canonical(features: Sequence[EventTuple], dims: int) -> list[EventTuple]:
    """Checked features in canonical order: length ascending, then by codes."""
    canon = [tuple(int(c) for c in tup) for tup in features]
    if len(set(canon)) != len(canon):
        dupes = sorted(t for t, c in Counter(canon).items() if c > 1)
        raise DuplicateFeatureError(f"duplicate feature tuples: {dupes}")
    n = alphabet_size(dims)
    for tup in canon:
        if not tup:
            raise ValueError("feature tuples must be non-empty")
        for code in tup:
            if not 0 <= code < n:
                raise InvalidCodeError(f"feature {tup}: code {code} outside [0, {n})")
    canon.sort(key=lambda t: (len(t), t))
    return canon


def build_vocabulary(
    features: Sequence[EventTuple],
    dims: int,
    delta: float | None = None,
    miner: MinerConfig | None = None,
) -> FeatureVocabulary:
    """Canonicalize a feature list into a vocabulary.

    Ordering is length ascending then lexicographic by codes, regardless of
    input order. Duplicates are an error; an empty list is allowed but warns,
    since every vector over it is empty.
    """
    canon = _canonical(features, dims)
    if not canon:
        warnings.warn("building an empty vocabulary; all vectors will have length 0")
    return FeatureVocabulary(features=tuple(canon), dims=dims, delta=delta, miner=miner)


def full_alphabet_vocabulary(dims: int, delta: float | None = None) -> FeatureVocabulary:
    """All 3**dims single-code tuples; the 1-gram histogram feature space."""
    return build_vocabulary(
        [(code,) for code in range(alphabet_size(dims))], dims=dims, delta=delta
    )


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Normalized occurrence frequencies for one sample, in vocabulary order; read-only."""

    sample_id: str
    label: str | None
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _read_only(self.values, np.float64))

    def __len__(self) -> int:
        return len(self.values)


def vectorize_batch(batch: EventBatch, vocab: FeatureVocabulary) -> np.ndarray:
    """The batch's read-only ``(n, K)`` matrix of normalized occurrence counts.

    Entry (i, j) is the count of tuple j in sample i over
    ``len(codes_i) - len(tuple_j) + 1``, and 0 for a tuple longer than the
    sample. Only the distinct code sequences are vectorized (``_vectorize``),
    their rows copied to the samples that repeat them.
    """
    if batch.dims != vocab.dims:
        raise IncompatibleVocabularyError(
            f"batch has {batch.dims} dimensions, vocabulary expects {vocab.dims}"
        )
    unique, inverse = batch.distinct()
    values = _vectorize(unique, vocab)
    if unique is not batch:  # a batch without repeats is not gathered
        values = values[inverse]
    values.setflags(write=False)
    return values


def _vectorize(unique: EventBatch, vocab: FeatureVocabulary) -> np.ndarray:
    """The matrix rows of ``unique``'s ``n`` sequences, which should not repeat. The
    vocabulary's tuples go after them, tuple j as owner ``n + j``, and one
    ``window_states`` walk over both, on the vocabulary's codes as alphabet,
    numbers every window: a sequence's window holds tuple j when it shares the
    row of tuple j's whole window. One ``bincount`` counts the hits."""
    n, width = len(unique), len(vocab)
    lengths = np.array([len(t) for t in vocab.features], dtype=np.int64)
    hits = [np.empty(0, dtype=np.int64)]
    if n and width:
        tuples = np.fromiter(chain.from_iterable(vocab.features), dtype=np.int64)
        codes = np.concatenate([unique.codes, tuples])
        offsets = np.concatenate([unique.offsets, unique.offsets[-1] + np.cumsum(lengths)])
        walk = window_states(codes, offsets, _unique(tuples), lengths.max())
        for level, (table, rows, owners) in enumerate(walk, 1):
            split = np.searchsorted(owners, n)  # owners ascend: the tuples' windows come last
            whole = lengths[owners[split:] - n] == level
            target = np.full(len(table), -1)
            target[rows[split:][whole]] = owners[split:][whole] - n
            feature = target[rows[:split]]  # int64 products: int32 owners x width could wrap
            hits.append(owners[:split][feature >= 0] * np.int64(width) + feature[feature >= 0])
    counts = np.bincount(np.concatenate(hits), minlength=n * width).reshape(n, width)
    positions = np.subtract.outer(np.diff(unique.offsets), lengths) + 1
    return np.divide(counts, positions, out=np.zeros((n, width)), where=positions > 0)


def vectorize_dataset(
    sequences: Sequence[EventSequence] | EventBatch, vocab: FeatureVocabulary
) -> list[FeatureVector]:
    """Per-sample view of :func:`vectorize_batch`: one vector per sequence, in input order.

    A list of sequences is joined into one batch first; a sequence of other
    dimensions than the vocabulary's is named in the error. The vectors share
    the batch matrix's rows: small per-row copies fragment the heap.
    """
    batch = EventBatch.from_sequences(sequences, vocab.dims)
    values = vectorize_batch(batch, vocab)
    return [FeatureVector(*sample) for sample in zip(batch.ids, batch.labels, values)]


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def save_vocabulary(vocab: FeatureVocabulary, path: str | Path) -> None:
    """Write a vocabulary with its context; load_vocabulary inverts exactly."""
    payload = {
        "dims": vocab.dims,
        "delta": vocab.delta,
        "miner": None if vocab.miner is None else asdict(vocab.miner),
        "features": [list(t) for t in vocab.features],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_vocabulary(path: str | Path) -> FeatureVocabulary:
    """Read a file written by :func:`save_vocabulary`.

    The features must pass :func:`build_vocabulary`'s checks (non-empty
    tuples, codes inside the alphabet, no duplicates), hold only integer
    codes and already be in its canonical order, and ``dims`` must be an
    integer; anything else is a ``SchemaError`` naming the file.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    try:
        miner = payload["miner"]
        if miner is not None:
            miner = MinerConfig(miner["min_support"], miner["max_len"], miner["gain_gamma"])
        features, dims = [tuple(t) for t in payload["features"]], payload["dims"]
        for name, value in [("dims", dims)] + [("code", c) for t in features for c in t]:
            if type(value) is not int:  # JSON floats, booleans and strings are not integers
                raise ValueError(f"{name} {value!r} is not an integer")
        canon = _canonical(features, dims)
        delta = payload["delta"]
        delta = None if delta is None else float(delta)
    except (KeyError, TypeError, ValueError, DuplicateFeatureError, InvalidCodeError) as exc:
        raise SchemaError(f"{path}: bad vocabulary file: {exc}") from None
    if canon != features:
        raise SchemaError(
            f"{path}: bad vocabulary file: features are not in canonical order "
            "(length ascending, then by codes)"
        )
    return FeatureVocabulary(features=tuple(canon), dims=dims, delta=delta, miner=miner)

