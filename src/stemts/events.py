"""Spatial-change events: turn normalized samples into 1-d code sequences.

Each step of each dimension gets a motion symbol: +1 when the value rises by
more than ``delta``, -1 when it falls by more than ``delta``, 0 inside the
dead zone (|difference| <= delta). The D per-dimension symbols at one step
combine into a single event code via base-3 positional encoding with
dimension 0 least significant, so the alphabet has exactly 3**D codes and
encoding is a bijection.

A dataset's codes live in one ``EventBatch``: every sample's codes joined
into one int64 array, with ``offsets`` marking where each sample starts (the
CSR ``indptr`` layout), validated once per batch and read-only from then
on. ``convert_dataset`` symbolizes equal-length samples in cache-sized
time-major ``(T, D, c)`` chunks, coded in the narrowest integer type, and
writes each chunk's codes into it; the event files are read into and written from it.
``EventSequence`` is one sample's codes: what indexing or iterating a batch
hands out, built on access, and what ``symbolize_sample`` returns.

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

from . import dataset as _dataset
from .dataset import (
    MtsDataset,
    MtsSample,
    _distinct_rows,
    _offsets,
    _read_only,
    _row_blocks,
    _unique,
    csv_prefix,
    min_max_normalize,
    open_long_form,
    read_header,
    read_long_form,
)
from .errors import (
    ConfigError,
    EmptyInputError,
    IncompatibleVocabularyError,
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
    "convert_dataset",
    "explain_event",
    "explain_tuple",
    "write_events",
    "load_events",
]

_SYMBOL_WORDS = {1: "up", 0: "flat", -1: "down"}
# numpy's axis-0 min and max pay ~22 ns a row, so a chunk spans at least this many lanes (D * c):
# at 600k cells, 3 lanes cost 7.4 ns a cell, 48 lanes 0.72 and 3,000 lanes 0.29
_MIN_LANES = 64


@dataclass(frozen=True)
class SymbolizerConfig:
    """Flatness threshold on normalized step differences."""

    delta: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < 1.0:
            raise ConfigError(f"delta must lie in [0, 1), got {self.delta}")
        # -0.0 is stored, and written, as 0.0, a numpy float as a Python one
        object.__setattr__(self, "delta", abs(float(self.delta)))


@dataclass(frozen=True)
class EventSequence:
    """Event codes for one sample; always one code per step, so T-1 of them.

    Codes are Python or numpy integers; floats and booleans are rejected, not truncated.
    """

    sample_id: str
    label: str | None
    dims: int
    codes: tuple[int, ...]

    def __post_init__(self) -> None:
        n = alphabet_size(self.dims)
        codes = tuple(self.codes.tolist() if isinstance(self.codes, np.ndarray) else self.codes)
        if not set(map(type, codes)) <= {int}:
            odd = [c for c in codes if isinstance(c, bool) or not isinstance(c, (int, np.integer))]
            if odd:
                raise InvalidCodeError(f"sequence {self.sample_id!r}: non-integer code {odd[0]!r}")
            codes = tuple(map(int, codes))
        object.__setattr__(self, "codes", codes)
        if not codes:
            raise TooShortError(f"sequence {self.sample_id!r} has no events")
        if min(codes) < 0 or max(codes) >= n:
            bad = next(c for c in codes if not 0 <= c < n)
            raise InvalidCodeError(f"sequence {self.sample_id!r}: code {bad} outside [0, {n})")

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True, eq=False)
class EventBatch:
    """Event codes of many samples in one int64 array (the CSR layout).

    Sample i's codes are ``codes[offsets[i]:offsets[i + 1]]``; both arrays are
    read-only. The batch is checked once, failing like ``EventSequence`` on the
    first bad sample. ``batch[i]`` (negative ``i`` counts from the end) and
    iteration hand out one ``EventSequence`` per sample, built on access.
    """

    codes: np.ndarray
    offsets: np.ndarray
    ids: tuple[str, ...]
    labels: tuple[str | None, ...]
    dims: int

    def __post_init__(self) -> None:
        n = alphabet_size(self.dims)
        codes, offsets = _read_only(self.codes), _read_only(self.offsets)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "offsets", offsets)
        if not len(offsets) - 1 == len(self.ids) == len(self.labels):
            raise ValueError("need one label per id and one offset more than ids")
        if offsets[0] != 0 or offsets[-1] != len(codes):
            raise ValueError("offsets must run from 0 to the number of codes")
        # before the dtype check, so codes too large for int64 are named too
        if np.diff(offsets).min(initial=1) < 1 or ((codes < 0) | (codes >= n)).any():
            for i in range(len(self)):
                self[i]  # the first bad sample fails as EventSequence does
        if codes.dtype != np.int64:  # a cast would truncate float codes silently
            raise TypeError(f"codes must be int64, got {codes.dtype}")

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> EventSequence:
        """Sample ``i``'s sequence; negative ``i`` counts from the end."""
        i = range(len(self))[i]  # an IndexError past either end
        codes = self.codes[self.offsets[i] : self.offsets[i + 1]].tolist()
        return EventSequence(self.ids[i], self.labels[i], self.dims, codes)

    @classmethod
    def from_sequences(
        cls, sequences: Sequence[EventSequence] | EventBatch, dims: int | None = None
    ) -> EventBatch:
        """The batch of these sequences, in order, each of ``dims`` dimensions (by
        default the first one's); a batch is returned as it is."""
        if isinstance(sequences, EventBatch):
            return sequences
        if dims is None and not len(sequences):
            raise EmptyInputError("no event sequences to join, and no dimension count given")
        dims = sequences[0].dims if dims is None else dims
        other = next((s for s in sequences if s.dims != dims), None)
        if other is not None:
            raise IncompatibleVocabularyError(
                f"sample {other.sample_id!r} has {other.dims} dimensions, expected {dims}"
            )
        offsets = _offsets([len(s) for s in sequences])
        codes = np.fromiter(chain.from_iterable(s.codes for s in sequences), np.int64, offsets[-1])
        codes.setflags(write=False)
        ids, labels = (s.sample_id for s in sequences), (s.label for s in sequences)
        return cls(codes, offsets, tuple(ids), tuple(labels), dims)

    def take(self, rows: Sequence[int]) -> EventBatch:
        """The batch of samples ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        sizes = np.diff(self.offsets)[rows]
        offsets = _offsets(sizes)
        at = np.arange(offsets[-1]) + np.repeat(self.offsets[rows] - offsets[:-1], sizes)
        codes = self.codes[at]
        codes.setflags(write=False)
        ids, labels = [self.ids[r] for r in rows.tolist()], [self.labels[r] for r in rows.tolist()]
        return EventBatch(codes, offsets, tuple(ids), tuple(labels), self.dims)

    def distinct(self) -> tuple[EventBatch, np.ndarray]:
        """``(unique, inverse)``: the first sample of each distinct code sequence in order of
        first appearance (this batch itself, nothing taken, when none repeats) and each
        sample's row in ``unique``; the samples of each length are compared as one block."""
        sizes, code_type = np.diff(self.offsets), np.min_scalar_type(alphabet_size(self.dims) - 1)
        same = np.arange(len(self))  # each sample's first sample with equal codes
        for size in _unique(sizes).tolist():
            members = np.flatnonzero(sizes == size)
            words = -(-size * code_type.itemsize // 8)  # narrow codes: 3 words, not 19, at D = 3
            block = np.zeros((len(members), words), np.uint64)  # zero-padded to whole words
            if len(members) == len(self):  # a view: no gather
                codes = self.codes.reshape(len(self), size)
            else:
                codes = self.codes[self.offsets[members, None] + np.arange(size)]
            block.view(code_type)[:, :size] = codes
            first, inverse = _distinct_rows(block)
            same[members] = members[first[inverse]]
        is_first = same == np.arange(len(self))
        unique = self if is_first.all() else self.take(np.flatnonzero(is_first))
        return unique, (np.cumsum(is_first) - 1)[same]


def alphabet_size(dims: int) -> int:
    """Number of distinct event codes for ``dims`` dimensions (3**dims), at most 39.

    Codes are int64, and 3**40 - 1 does not fit in one.
    """
    if not 1 <= dims <= 39:
        raise ConfigError(f"dims must lie in [1, 39] (event codes are int64), got {dims}")
    return 3**dims


def event_codes(normalized: np.ndarray, delta: float) -> np.ndarray:
    """Event codes of time-major normalized values: ``(T, D, ...)`` in, ``(T-1, ...)`` out.

    The one implementation of the threshold rule: a step difference above
    ``delta`` is up (+1), below ``-delta`` down (-1), otherwise flat (0), and
    the D symbols of a step combine in base 3, dimension 0 least significant.
    A single ``(T, D)`` sample and a ``(T, D, n)`` block of equal-length samples
    go through the same arithmetic, so batching never changes a code. Codes come
    in the narrowest unsigned type that holds ``3**D - 1``: uint8 up to D = 5.
    """
    dims = normalized.shape[1]
    code_type = np.min_scalar_type(alphabet_size(dims) - 1)  # rejects dims whose codes overflow
    codes = np.zeros((len(normalized) - 1, *normalized.shape[2:]), dtype=code_type)
    for rows in _row_blocks(len(codes), normalized[0].size):  # temporaries stay one block small
        diffs = normalized[1:][rows] - normalized[:-1][rows]
        # unsigned like the codes: an in-place add refuses int8 digits into uint8 codes
        digits = 1 + (diffs > delta).view(np.uint8) - (diffs < -delta).view(np.uint8)
        step = codes[rows]  # a view: Horner's rule builds the base-3 sum in place, dimension 0 last
        for d in range(dims - 1, -1, -1):
            step *= 3
            step += digits[:, d]
    return codes


def symbolize_dimension(x: Sequence[float] | np.ndarray, delta: float) -> list[int]:
    """Motion symbols for one normalized coordinate sequence.

    Needs at least two points; values must already lie in [0, 1]. A step
    difference of exactly ``delta`` counts as flat.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise TooShortError(f"need at least 2 points in one dimension, got shape {arr.shape}")
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):  # nan fails both comparisons
        raise ValueError("values must be normalized to [0, 1] before symbolization")
    SymbolizerConfig(delta)
    # with one dimension the event code is the symbol plus one
    return [code - 1 for code in event_codes(arr[:, None], delta).tolist()]


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
    return tuple(code // 3**d % 3 - 1 for d in range(dims))


def symbolize_sample(sample: MtsSample, config: SymbolizerConfig) -> EventSequence:
    """Convert one normalized sample into its event-code sequence."""
    v = sample.values
    if v.min() < 0.0 or v.max() > 1.0:
        raise ValueError(
            f"sample {sample.id!r}: values must be normalized to [0, 1] before symbolization"
        )
    return EventSequence(sample.id, sample.label, sample.dims, event_codes(v.T, config.delta))


def convert_dataset(
    dataset: MtsDataset, config: SymbolizerConfig, pad_to: int | None = None
) -> EventBatch:
    """Normalize and symbolize every sample into one batch, in dataset order.

    With ``pad_to``, a sample shorter than that length is first extended to
    it by repeating its final values (as ``pad_to_length`` does); longer
    samples are left as they are. The samples of one length are taken from
    the dataset's value block in chunks of about ``dataset._BLOCK_CELLS``
    cells, and at least ``_MIN_LANES`` lanes: each chunk is one time-major
    ``(T, D, c)`` block, whose reductions and step differences run over rows
    of D * c cells, and its codes are written straight into the batch.
    """
    lengths = np.diff(dataset.offsets)
    offsets = _offsets(np.maximum(lengths, pad_to or 0) - 1)
    codes = np.empty(offsets[-1], dtype=np.int64)
    for length in _unique(lengths).tolist():
        members = np.flatnonzero(lengths == length)
        uniform, steps = len(members) == len(dataset), max(length, pad_to or 0)
        size = max(_dataset._BLOCK_CELLS // (steps * dataset.dims), -(-_MIN_LANES // dataset.dims))
        for first in range(0, len(members), size):
            rows = members[first : first + size]
            if uniform:  # a plain view of the read-only value block
                block = dataset.values[first * length : (first + len(rows)) * length]
            else:
                block = dataset.values[(dataset.offsets[rows, None] + np.arange(length)).ravel()]
            # (T, D, c): min_max_normalize copies it in this order and never writes the dataset
            block = block.reshape(len(rows), length, -1).transpose(1, 2, 0)
            if steps > length:
                block = np.pad(block, [(0, steps - length), (0, 0), (0, 0)], mode="edge")
            chunk = event_codes(min_max_normalize(block), config.delta).T  # (c, T - 1)
            if uniform:
                codes.reshape(len(dataset), steps - 1)[first : first + len(rows)] = chunk
            else:
                codes[offsets[rows, None] + np.arange(steps - 1)] = chunk
    codes.setflags(write=False)
    return EventBatch(codes, offsets, dataset.ids, dataset.labels, dataset.dims)


def explain_event(code: int, dims: int) -> str:
    """Human-readable reading of one event code, e.g. ``dim_0: up, dim_1: flat``."""
    symbols = decode_event(code, dims)
    return ", ".join(f"dim_{d}: {_SYMBOL_WORDS[s]}" for d, s in enumerate(symbols))


def explain_tuple(codes: Sequence[int], dims: int) -> str:
    """Stepwise reading of a code tuple, steps joined by `` -> ``."""
    return " -> ".join(explain_event(c, dims) for c in codes)


# ---------------------------------------------------------------------------
# Event sequence files
# ---------------------------------------------------------------------------


def _meta_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def write_events(batch: EventBatch, config: SymbolizerConfig, path: str | Path) -> None:
    """Write a batch as CSV plus a ``.meta.json``."""
    path = Path(path)
    if not len(batch):
        raise MalformedDatasetError("no event sequences to write")
    flat, ends = batch.codes.tolist(), batch.offsets.tolist()
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write("sample_id,label,t,event_code\n")
        for sid, label, a, b in zip(batch.ids, batch.labels, ends, ends[1:]):
            prefix = csv_prefix(sid, label)
            fh.writelines(f"{prefix},{t},{code}\n" for t, code in enumerate(flat[a:b]))
    meta = {"dims": batch.dims, "delta": config.delta}
    _meta_path(path).write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


def load_events(path: str | Path) -> tuple[EventBatch, SymbolizerConfig]:
    """Load an events file into one batch; returns (batch, symbolizer config).

    Rows are read like dataset rows (``dataset.read_long_form``); the batch is
    built from the file's columns and checked once.
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
        ids, labels, offsets, values = read_long_form(path, fh, 4, int)
    if not ids:
        raise MalformedDatasetError(f"{path}: no event rows after the header")
    return EventBatch(values[:, 0], offsets, ids, labels, dims), config
