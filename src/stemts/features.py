"""Feature vocabularies and per-sample occurrence vectors.

A vocabulary freezes mined tuples in a canonical order (shortest first, then
lexicographic by codes) together with the context that produced them. A
sequence maps to a dense vector with one entry per tuple: overlapping
occurrence count divided by the number of window positions of that length,
which keeps every entry in [0, 1] and removes sequence-length bias. Tuples
longer than the sequence contribute 0. Codes not covered by any vocabulary
tuple are simply ignored.
"""

from __future__ import annotations

import json
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DuplicateFeatureError,
    IncompatibleVocabularyError,
    InvalidCodeError,
    SchemaError,
)
from .events import EventSequence, alphabet_size
from .mining import EventTuple, MinerConfig, window_states

__all__ = [
    "FeatureVocabulary",
    "FeatureVector",
    "build_vocabulary",
    "full_alphabet_vocabulary",
    "vectorize",
    "vectorize_dataset",
    "save_vocabulary",
    "load_vocabulary",
    "write_feature_matrix",
]


@dataclass(frozen=True, eq=False)
class FeatureVocabulary:
    """Ordered mined tuples plus the configuration that produced them."""

    features: tuple[EventTuple, ...]
    dims: int
    delta: float | None = None
    miner: MinerConfig | None = None
    index: dict[EventTuple, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", {tup: i for i, tup in enumerate(self.features)})

    def __len__(self) -> int:
        return len(self.features)


def _canonical(features: Sequence[EventTuple], dims: int) -> list[EventTuple]:
    """Checked features in canonical order: length ascending, then by codes."""
    canon = [tuple(int(c) for c in tup) for tup in features]
    if len(set(canon)) != len(canon):
        counts = Counter(canon)
        dupes = sorted(t for t, c in counts.items() if c > 1)
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
        arr = np.asarray(self.values, dtype=np.float64)
        if arr is self.values and arr.flags.writeable:
            arr = arr.copy()  # the caller could still write to it
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)


def vectorize(seq: EventSequence, vocab: FeatureVocabulary) -> FeatureVector:
    """One sequence's vector; see :func:`vectorize_dataset`."""
    return vectorize_dataset([seq], vocab)[0]


def _lookup_tables(vocab: FeatureVocabulary) -> tuple[np.ndarray, list, list]:
    """The vocabulary's alphabet and window tables, and which tuple each table row is.

    The tables come from walking the vocabulary's own tuples; ``targets[l - 1]``
    maps a row to the index of the tuple it equals, or -1.
    """
    alphabet = np.unique([c for t in vocab.features for c in t])
    lengths = np.array([len(t) for t in vocab.features])
    tables, targets = [], []
    walk = window_states(vocab.features, alphabet, lengths.max())
    for level, (table, rows, owners) in enumerate(walk, 1):
        whole = lengths[owners] == level
        targets.append(np.full(len(table), -1))
        targets[-1][rows[whole]] = owners[whole]
        tables.append(table)
    return alphabet, tables, targets


def vectorize_dataset(
    sequences: Sequence[EventSequence], vocab: FeatureVocabulary
) -> list[FeatureVector]:
    """Count overlapping occurrences of each vocabulary tuple, normalized.

    Entry j of a sequence's vector is count / (len(codes) - len(tuple_j) + 1),
    and 0 for a tuple longer than the sequence. One ``window_states`` walk
    looks every window of the batch up in the vocabulary's tables and one
    ``bincount`` counts the hits per (sequence, tuple), in input order.
    """
    for seq in sequences:
        if seq.dims != vocab.dims:
            raise IncompatibleVocabularyError(
                f"sample {seq.sample_id!r}: sequence has {seq.dims} dimensions, "
                f"vocabulary expects {vocab.dims}"
            )
    n, width = len(sequences), len(vocab)
    hits = [np.empty(0, dtype=np.int64)]
    if n and width:
        alphabet, tables, targets = _lookup_tables(vocab)
        walk = window_states([s.codes for s in sequences], alphabet, len(tables), tables)
        for (_, rows, owners), target in zip(walk, targets):
            feature = target[rows]
            hits.append(owners[feature >= 0] * width + feature[feature >= 0])
    counts = np.bincount(np.concatenate(hits), minlength=n * width).reshape(n, width)
    lengths = [len(s) for s in sequences], [len(t) for t in vocab.features]
    positions = np.subtract.outer(*lengths) + 1
    values = np.divide(counts, positions, out=np.zeros((n, width)), where=positions > 0)
    values.setflags(write=False)  # share rows: small per-row copies fragment the heap
    return [FeatureVector(s.sample_id, s.label, row) for s, row in zip(sequences, values)]


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def save_vocabulary(vocab: FeatureVocabulary, path: str | Path) -> None:
    """Write a vocabulary with its context; load_vocabulary inverts exactly."""
    miner = None
    if vocab.miner is not None:
        miner = {
            "min_support": vocab.miner.min_support,
            "max_len": vocab.miner.max_len,
            "gain_gamma": vocab.miner.gain_gamma,
        }
    payload = {
        "dims": vocab.dims,
        "delta": vocab.delta,
        "miner": miner,
        "features": [list(t) for t in vocab.features],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_vocabulary(path: str | Path) -> FeatureVocabulary:
    """Read a file written by :func:`save_vocabulary`.

    The features must pass :func:`build_vocabulary`'s checks (non-empty
    tuples, codes inside the alphabet, no duplicates) and already be in its
    canonical order; anything else is a ``SchemaError`` naming the file.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    try:
        miner = None
        if payload["miner"] is not None:
            miner = MinerConfig(
                min_support=payload["miner"]["min_support"],
                max_len=payload["miner"]["max_len"],
                gain_gamma=payload["miner"]["gain_gamma"],
            )
        features = [tuple(int(c) for c in t) for t in payload["features"]]
        dims = int(payload["dims"])
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


def write_feature_matrix(vectors: Sequence[FeatureVector], path: str | Path) -> None:
    """Write vectors as CSV: sample_id,label,f_0,...,f_{K-1}."""
    import csv

    path = Path(path)
    width = len(vectors[0]) if vectors else 0
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "label"] + [f"f_{j}" for j in range(width)])
        for vec in vectors:
            label = vec.label if vec.label is not None else ""
            writer.writerow([vec.sample_id, label] + [repr(float(v)) for v in vec.values])
