"""Spatial-change events: turn normalized samples into 1-d code sequences.

Each step of each dimension gets a motion symbol: +1 when the value rises by
more than ``delta``, -1 when it falls by more than ``delta``, 0 inside the
dead zone (|difference| <= delta). The D per-dimension symbols at one step
combine into a single event code via base-3 positional encoding with
dimension 0 least significant, so the alphabet has exactly 3**D codes and
encoding is a bijection.

Event sequences are stored as a CSV (``sample_id,label,t,event_code``) plus a
companion ``<path>.meta.json`` holding the dimension count and delta, which
makes decoding self-contained.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import (
    MtsDataset,
    MtsSample,
    iter_long_form,
    min_max_normalize,
    open_long_form,
    pad_to_length,
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
        if self.dims < 1:
            raise ConfigError("dims must be >= 1")
        codes = tuple(map(int, self.codes))
        object.__setattr__(self, "codes", codes)
        if not codes:
            raise TooShortError(f"sequence {self.sample_id!r} has no events")
        n = alphabet_size(self.dims)
        if min(codes) < 0 or max(codes) >= n:
            bad = next(c for c in codes if not 0 <= c < n)
            raise InvalidCodeError(f"sequence {self.sample_id!r}: code {bad} outside [0, {n})")

    def __len__(self) -> int:
        return len(self.codes)


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


def convert_dataset(
    dataset: MtsDataset, config: SymbolizerConfig, pad_to: int | None = None
) -> list[EventSequence]:
    """Normalize and symbolize every sample; output order matches dataset order.

    With ``pad_to``, a sample shorter than that length is first extended to
    it by repeating its final values (``pad_to_length``); longer samples are
    left as they are. Samples of one length are stacked into one
    ``(n, D, T)`` block and normalized and symbolized in one numpy pass, so
    the cost is a few array operations per distinct length, not per sample.
    """
    samples = dataset.samples
    lengths = [max(s.length, pad_to or 0) for s in samples]
    sequences = [None] * len(samples)
    for length in sorted(set(lengths)):
        members = [i for i, n in enumerate(lengths) if n == length]
        block = np.stack([pad_to_length(samples[i], length).values for i in members])
        rows = event_codes(min_max_normalize(block), config.delta).tolist()
        del block
        for i, codes in zip(members, rows):
            s = samples[i]
            sequences[i] = EventSequence(s.id, s.label, dataset.dims, codes)
    return sequences


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
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "label", "t", "event_code"])
        for seq in sequences:
            label = seq.label if seq.label is not None else ""
            for t, code in enumerate(seq.codes):
                writer.writerow([seq.sample_id, label, t, code])
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
        dims = int(meta["dims"])
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
