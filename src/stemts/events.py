"""Spatial-change events: turn normalized samples into 1-d code sequences.

Each step of each dimension gets a motion symbol: +1 when the value rises by
more than ``delta``, -1 when it falls by more than ``delta``, 0 inside the
dead zone (|difference| <= delta). The D per-dimension symbols at one step
combine into a single event code via base-3 positional encoding with
dimension 0 least significant, so the alphabet has exactly 3**D codes and
encoding is a bijection.

The pipeline keeps a dataset's codes in one ``EventBatch``: every sample's
codes joined into one int64 array, with ``offsets`` marking where each sample
starts (the CSR ``indptr`` layout), validated once per batch.
``symbolize_dataset`` writes each group of equal-length samples straight into
it. ``EventSequence`` is the per-sample view that ``convert_dataset``,
``symbolize_sample`` and the event files hand out.

Event sequences are stored as a CSV (``sample_id,label,t,event_code``) plus a
companion ``<path>.meta.json`` holding the dimension count and delta, which
makes decoding self-contained.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import (
    MtsDataset,
    MtsSample,
    csv_prefix,
    iter_long_form,
    min_max_normalize,
    open_long_form,
    read_header,
)
from .errors import (
    ConfigError,
    InvalidCodeError,
    MalformedDatasetError,
    SchemaError,
    TooShortError,
)

__all__ = [
    "SymbolizerConfig",
    "EventSequence",
    "EventBatch",
    "alphabet_size",
    "event_codes",
    "symbolize_dimension",
    "encode_event",
    "decode_event",
    "symbolize_sample",
    "symbolize_dataset",
    "convert_dataset",
    "explain_event",
    "explain_tuple",
    "write_events",
    "load_events",
]

_SYMBOL_WORDS = {1: "up", 0: "flat", -1: "down"}


@dataclass(frozen=True)
class SymbolizerConfig:
    """Flatness threshold on normalized step differences."""

    delta: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < 1.0:
            raise ConfigError(f"delta must lie in [0, 1), got {self.delta}")


@dataclass(frozen=True)
class EventSequence:
    """Event codes for one sample; always one code per step, so T-1 of them."""

    sample_id: str
    label: str | None
    dims: int
    codes: tuple[int, ...]

    def __post_init__(self) -> None:
        n = alphabet_size(self.dims)
        codes = tuple(map(int, self.codes))
        object.__setattr__(self, "codes", codes)
        if not codes:
            raise TooShortError(f"sequence {self.sample_id!r} has no events")
        if min(codes) < 0 or max(codes) >= n:
            bad = next(c for c in codes if not 0 <= c < n)
            raise InvalidCodeError(f"sequence {self.sample_id!r}: code {bad} outside [0, {n})")

    def __len__(self) -> int:
        return len(self.codes)


def _offsets(sizes) -> np.ndarray:
    """Start of each of the ragged rows of these sizes, then their total: n + 1 int64s."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


@dataclass(frozen=True, eq=False)
class EventBatch:
    """Event codes of many samples in one int64 array (the CSR layout).

    Sample i's codes are ``codes[offsets[i]:offsets[i + 1]]``. The batch is
    checked once, failing like ``EventSequence`` on the first bad sample.
    """

    codes: np.ndarray
    offsets: np.ndarray
    ids: tuple[str, ...]
    labels: tuple[str | None, ...]
    dims: int

    def __post_init__(self) -> None:
        offsets, n = self.offsets, alphabet_size(self.dims)
        if self.codes.dtype != np.int64:  # a cast would truncate float codes silently
            raise TypeError(f"codes must be int64, got {self.codes.dtype}")
        if not len(offsets) - 1 == len(self.ids) == len(self.labels):
            raise ValueError("need one label per id and one offset more than ids")
        if offsets[0] != 0 or offsets[-1] != len(self.codes):
            raise ValueError("offsets must run from 0 to the number of codes")
        empty = np.flatnonzero(np.diff(offsets) < 1)
        if len(empty):
            raise TooShortError(f"sequence {self.ids[empty[0]]!r} has no events")
        bad = np.flatnonzero((self.codes < 0) | (self.codes >= n))
        if len(bad):
            sample = np.searchsorted(offsets, bad[0], side="right") - 1
            raise InvalidCodeError(
                f"sequence {self.ids[sample]!r}: code {self.codes[bad[0]]} outside [0, {n})"
            )

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_sequences(cls, sequences: Sequence[EventSequence], dims: int) -> EventBatch:
        """The batch of per-sample sequences, in order; each must have ``dims`` dimensions."""
        offsets = _offsets([len(s) for s in sequences])
        codes = np.fromiter(chain.from_iterable(s.codes for s in sequences), np.int64, offsets[-1])
        ids, labels = (s.sample_id for s in sequences), (s.label for s in sequences)
        return cls(codes, offsets, tuple(ids), tuple(labels), dims)

    def take(self, rows: Sequence[int]) -> EventBatch:
        """The batch of samples ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        sizes = np.diff(self.offsets)[rows]
        offsets = _offsets(sizes)
        at = np.arange(offsets[-1]) + np.repeat(self.offsets[rows] - offsets[:-1], sizes)
        ids, labels = [self.ids[r] for r in rows.tolist()], [self.labels[r] for r in rows.tolist()]
        return EventBatch(self.codes[at], offsets, tuple(ids), tuple(labels), self.dims)

    def sequences(self) -> list[EventSequence]:
        """One ``EventSequence`` per sample, in order."""
        flat, ends = self.codes.tolist(), self.offsets.tolist()
        return [
            EventSequence(sid, label, self.dims, flat[a:b])
            for sid, label, a, b in zip(self.ids, self.labels, ends, ends[1:])
        ]


def alphabet_size(dims: int) -> int:
    """Number of distinct event codes for ``dims`` dimensions (3**dims), at most 39.

    Codes are int64, and 3**40 - 1 does not fit in one.
    """
    if not 1 <= dims <= 39:
        raise ConfigError(f"dims must lie in [1, 39] (event codes are int64), got {dims}")
    return 3**dims


def event_codes(normalized: np.ndarray, delta: float) -> np.ndarray:
    """Event codes of normalized values: ``(..., D, T)`` in, ``(..., T-1)`` int64 out.

    The one implementation of the threshold rule: a step difference above
    ``delta`` is up (+1), below ``-delta`` down (-1), otherwise flat (0), and
    the D symbols of a step combine in base 3, dimension 0 least significant.
    A single sample and a stacked block of equal-length samples go through
    the same arithmetic, so batching never changes a code.
    """
    alphabet_size(normalized.shape[-2])  # rejects dimension counts whose codes overflow
    diffs = np.diff(normalized, axis=-1)
    digits = (diffs > delta).view(np.int8) - (diffs < -delta).view(np.int8) + 1
    weights = 3 ** np.arange(normalized.shape[-2], dtype=np.int64)
    return np.einsum("d,...dt->...t", weights, digits)


def symbolize_dimension(x: Sequence[float] | np.ndarray, delta: float) -> list[int]:
    """Motion symbols for one normalized coordinate sequence.

    Needs at least two points; values must already lie in [0, 1]. A step
    difference of exactly ``delta`` counts as flat.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise TooShortError(f"need at least 2 points in one dimension, got shape {arr.shape}")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("values must be normalized to [0, 1] before symbolization")
    SymbolizerConfig(delta)
    # with one dimension the event code is the symbol plus one
    return (event_codes(arr[None, :], delta) - 1).tolist()


def encode_event(symbols: Sequence[int]) -> int:
    """Base-3 code of one D-tuple of motion symbols (dimension 0 least significant)."""
    code = 0
    weight = 1
    for s in symbols:
        if s not in (-1, 0, 1):
            raise ValueError(f"motion symbols must be -1, 0, or 1, got {s}")
        code += (s + 1) * weight
        weight *= 3
    if weight == 1:
        raise ValueError("need at least one motion symbol")
    return code


def decode_event(code: int, dims: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_event`; raises on codes outside the alphabet."""
    n = alphabet_size(dims)
    if not 0 <= code < n:
        raise InvalidCodeError(f"code {code} outside [0, {n}) for {dims} dimensions")
    symbols = []
    for _ in range(dims):
        symbols.append(code % 3 - 1)
        code //= 3
    return tuple(symbols)


def symbolize_sample(sample: MtsSample, config: SymbolizerConfig) -> EventSequence:
    """Convert one normalized sample into its event-code sequence."""
    v = sample.values
    if v.min() < 0.0 or v.max() > 1.0:
        raise ValueError(
            f"sample {sample.id!r}: values must be normalized to [0, 1] before symbolization"
        )
    return EventSequence(
        sample_id=sample.id,
        label=sample.label,
        dims=sample.dims,
        codes=tuple(event_codes(v, config.delta).tolist()),
    )


def symbolize_dataset(
    dataset: MtsDataset, config: SymbolizerConfig, pad_to: int | None = None
) -> EventBatch:
    """Normalize and symbolize every sample into one batch, in dataset order.

    With ``pad_to``, a sample shorter than that length is first extended to
    it by repeating its final values (as ``pad_to_length`` does); longer
    samples are left as they are. Samples of one length are stacked into one
    ``(n, D, T)`` block, padded, normalized and symbolized in one numpy pass
    and written straight into the batch's codes, so the cost is a few array
    operations per distinct length, not per sample.
    """
    samples = dataset.samples
    observed = np.array([s.length for s in samples])
    offsets = _offsets(np.maximum(observed, pad_to or 0) - 1)
    codes = np.empty(offsets[-1], dtype=np.int64)
    for length in np.unique(observed).tolist():
        members = np.flatnonzero(observed == length)
        block = np.stack([samples[i].values for i in members.tolist()])
        padding = max(length, pad_to or 0) - length
        if padding:
            block = np.pad(block, [(0, 0), (0, 0), (0, padding)], mode="edge")
        block = min_max_normalize(block)  # rebinding frees the raw values early
        group = event_codes(block, config.delta)
        del block  # before the scatter's index array is made
        codes[offsets[members, None] + np.arange(group.shape[1])] = group
    ids, labels = (s.id for s in samples), (s.label for s in samples)
    return EventBatch(codes, offsets, tuple(ids), tuple(labels), dataset.dims)


def convert_dataset(
    dataset: MtsDataset, config: SymbolizerConfig, pad_to: int | None = None
) -> list[EventSequence]:
    """Per-sample view of :func:`symbolize_dataset`; output order matches dataset order."""
    return symbolize_dataset(dataset, config, pad_to).sequences()


def explain_event(code: int, dims: int, dim_names: Sequence[str] | None = None) -> str:
    """Human-readable reading of one event code, e.g. ``dim_0: up, dim_1: flat``."""
    symbols = decode_event(code, dims)  # checks dims before names are made for them
    if dim_names is None:
        dim_names = [f"dim_{d}" for d in range(dims)]
    elif len(dim_names) != dims:
        raise ValueError(f"expected {dims} dimension names, got {len(dim_names)}")
    return ", ".join(f"{name}: {_SYMBOL_WORDS[s]}" for name, s in zip(dim_names, symbols))


def explain_tuple(
    codes: Sequence[int], dims: int, dim_names: Sequence[str] | None = None
) -> str:
    """Stepwise reading of a code tuple, steps joined by `` -> ``."""
    return " -> ".join(explain_event(c, dims, dim_names) for c in codes)


# ---------------------------------------------------------------------------
# Event sequence files
# ---------------------------------------------------------------------------


def _meta_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def write_events(
    sequences: Sequence[EventSequence], config: SymbolizerConfig, path: str | Path
) -> None:
    """Write event sequences as CSV plus a ``.meta.json`` companion."""
    path = Path(path)
    if not sequences:
        raise MalformedDatasetError("no event sequences to write")
    dims = sequences[0].dims
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("sample_id,label,t,event_code\n")
        for seq in sequences:
            prefix = csv_prefix(seq.sample_id, seq.label)
            fh.writelines(f"{prefix},{t},{code}\n" for t, code in enumerate(seq.codes))
    meta = {"dims": dims, "delta": config.delta}
    _meta_path(path).write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def load_events(path: str | Path) -> tuple[list[EventSequence], SymbolizerConfig, int]:
    """Load event sequences; returns (sequences, symbolizer config, dims).

    Rows are read like dataset rows (``dataset.iter_long_form``): one numpy
    pass, with the row-by-row parser naming the first bad row when numpy
    rejects the file.
    """
    path = Path(path)
    meta_file = _meta_path(path)
    if not meta_file.exists():
        raise SchemaError(f"{meta_file}: companion metadata file is missing")
    try:
        meta = json.loads(meta_file.read_text(encoding="utf-8"))
        dims = meta["dims"]
        if type(dims) is not int:  # JSON floats, booleans and strings are not counts
            raise ValueError(f"dims {dims!r} is not an integer")
        config = SymbolizerConfig(float(meta["delta"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{meta_file}: bad metadata: {exc}") from None

    with open_long_form(path) as fh:
        if read_header(fh) != ["sample_id", "label", "t", "event_code"]:
            raise SchemaError(f"{path}: header must be sample_id,label,t,event_code")
        sequences = [
            EventSequence(sid, label, dims, tuple(rows[:, 0].tolist()))
            for sid, label, rows in iter_long_form(path, fh, 4, int)
        ]
    if not sequences:
        raise MalformedDatasetError(f"{path}: no event rows after the header")
    return sequences, config, dims
