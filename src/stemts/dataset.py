"""Raw multidimensional time series: data model, CSV interchange, synthesis.

A dataset is one ``MtsDataset``: every sample's time steps in one read-only
``(ΣT, D)`` value block with CSR ``offsets`` and id and label columns, which
``load_csv`` and ``generate_synthetic`` fill and ``events.convert_dataset``
symbolizes time-major, as ``(T, D, n)`` blocks; an ``MtsSample`` is one sample's
``(D, T)`` view of it. The row-block budget (``_row_blocks``) serves the row hash
here, ``events.event_codes`` and the classifier's distance matrix in ``evaluate``.

The on-disk interchange format is a long-form CSV (UTF-8, LF line endings):

    sample_id,label,t,dim_0,...,dim_{D-1}

- ``label`` may be empty for unlabeled samples,
- ``t`` is a 0-based integer that must cover 0..T_i-1 for every sample,
- floats are serialized via ``repr`` (shortest round-trip form, at most 17
  significant digits), so load -> write -> load is a fixed point.

Synthetic datasets are described by a small YAML spec (see ``load_synth_spec``)
and realized as piecewise-linear per-dimension trends plus uniform noise.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields
from numbers import Real
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import (
    EmptyDatasetError,
    EmptySpecError,
    InvalidTargetError,
    MalformedDatasetError,
    ParseError,
    SchemaError,
    is_int,
)

__all__ = [
    "MtsSample",
    "MtsDataset",
    "SynthSpec",
    "load_csv",
    "write_csv",
    "min_max_normalize",
    "normalize_sample",
    "pad_to_length",
    "generate_synthetic",
    "noiseless_trend",
    "load_synth_spec",
]

DIRECTIONS = {"up": 1, "flat": 0, "down": -1}


def _read_only(array, dtype=None) -> np.ndarray:
    """``array`` as a read-only ndarray. It is copied first unless numpy made it afresh or
    its ``base`` chain is all read-only ndarrays down to one that owns its data: the caller
    could still write through any other buffer (a bytearray, a memoryview, a writeable array)."""
    out = base = np.asarray(array, dtype=dtype)
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if base is not None and (out is array or out.base is not None):
        out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class MtsSample:
    """One multidimensional sample: a dimension-major (D, T) matrix of reals.

    All values must be finite, every dimension must have the same length,
    and at least two time points are required (a single point has no motion).
    """

    id: str
    label: str | None
    values: np.ndarray

    def __post_init__(self) -> None:
        try:
            arr = _read_only(self.values, np.float64)
        except (ValueError, TypeError) as exc:
            raise MalformedDatasetError(
                f"sample {self.id!r}: values are not a rectangular numeric matrix: {exc}"
            ) from None
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise MalformedDatasetError(
                f"sample {self.id!r}: values must be a dimension-major 2-d matrix"
            )
        if arr.shape[1] < 2:
            raise MalformedDatasetError(
                f"sample {self.id!r}: needs at least 2 time points, got {arr.shape[1]}"
            )
        if not np.isfinite(arr).all():
            raise MalformedDatasetError(f"sample {self.id!r}: values must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def dims(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


def _offsets(sizes) -> np.ndarray:
    """Start of each ragged row of these sizes, then their total: n + 1 read-only int64s."""
    offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
    offsets.setflags(write=False)
    return offsets


# Eight-byte cells handled per row block. Hashing and checking rows, each step of the
# distance matrix and the top-k search touch one row block at a time, so their temporaries
# stay at a few blocks (0.5 MiB each) however large the matrix grows. Of 2**14 to 2**22
# cells, this was the fastest on a 1,996 x 8,004 distance matrix.
_BLOCK_CELLS = 1 << 16
_ROW_HASH = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F)  # odd 64-bit multipliers, as literals


def _unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by one sort: numpy 2's imports ``numpy.ma`` on its first call."""
    ordered = np.sort(values, axis=None)
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    return ordered[new]


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Consecutive slices of ``n_rows`` rows, each of at most ``_BLOCK_CELLS`` cells or one row."""
    step = max(1, _BLOCK_CELLS // max(n_cols, 1))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _distinct_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` for a 2-d array of 8-byte items: where each distinct row first
    appears, ascending, and each row's index into ``first``. Rows are equal when their bytes
    are (-0.0 and 0.0 differ, equal nan rows group): grouped by a 64-bit polynomial hash of
    their mixed words, each is checked word for word against its group's first row, and
    after any collision they are grouped by their bytes instead."""
    words = matrix.view(np.uint64)
    mix, base = (np.uint64(m) for m in _ROW_HASH)
    powers = np.cumprod(np.full(words.shape[1], base))  # mod 2**64, like every step here
    blocks = _row_blocks(*words.shape)
    hashes = np.empty(len(words), dtype=np.uint64)
    for rows in blocks:
        mixed = words[rows] * mix
        hashes[rows] = (mixed ^ (mixed >> np.uint64(29))) @ powers
    order = np.argsort(hashes)
    ordered, new = hashes[order], np.ones(len(order), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    same = np.empty_like(order)  # each row's first row of equal hash, then of equal bytes
    same[order] = np.minimum.reduceat(order, np.flatnonzero(new))[np.cumsum(new) - 1]
    if not all(np.array_equal(words[rows], words[same[rows]]) for rows in blocks):
        row_bytes = np.ascontiguousarray(words).view(np.dtype((np.void, 8 * words.shape[1])))
        first, inverse = np.unique(row_bytes[:, 0], return_index=True, return_inverse=True)[1:]
        same = first[inverse]
    is_first = same == np.arange(len(same))
    return np.flatnonzero(is_first), (np.cumsum(is_first) - 1)[same]


@dataclass(frozen=True, eq=False)
class MtsDataset:
    """Samples of one dimension count in one read-only ``(ΣT, D)`` float64 block.

    Sample i's steps are the rows ``values[offsets[i]:offsets[i + 1]]`` (``offsets``
    is read-only too), checked once, failing like ``MtsSample`` on the first bad
    sample. ``dataset[i]`` (negative ``i`` counts from the end), iteration and
    ``samples`` hand out read-only ``MtsSample`` views, built on each access.
    """

    values: np.ndarray
    offsets: np.ndarray
    ids: tuple[str, ...]
    labels: tuple[str | None, ...]

    def __post_init__(self) -> None:
        ids = self.ids
        values, offsets = _read_only(self.values, np.float64), _read_only(self.offsets)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "offsets", offsets)
        if not ids:
            raise EmptyDatasetError("dataset contains no samples")
        if values.ndim != 2 or not len(offsets) - 1 == len(ids) == len(self.labels):
            raise ValueError("need a (steps, dims) block and one offset more than ids and labels")
        if offsets[0] != 0 or offsets[-1] != len(values):
            raise ValueError("offsets must run from 0 to the number of rows")
        if not values.shape[1] or np.diff(offsets).min() < 2 or not np.isfinite(values).all():
            for i in range(len(ids)):
                self[i]  # the first bad sample fails as MtsSample does
        if len(set(ids)) != len(ids):
            dupes = sorted(i for i, c in Counter(ids).items() if c > 1)
            raise MalformedDatasetError(f"duplicate sample ids: {dupes}")

    @classmethod
    def from_samples(cls, samples: Iterable[MtsSample]) -> MtsDataset:
        """The dataset of these samples, in order, each of the first one's dimension count."""
        samples = tuple(samples)
        if not samples:
            raise EmptyDatasetError("dataset contains no samples")
        dims = samples[0].dims
        other = next((s for s in samples if s.dims != dims), None)
        if other is not None:
            raise SchemaError(f"sample {other.id!r} has {other.dims} dimensions, expected {dims}")
        values = np.concatenate([s.values.T for s in samples])
        values.setflags(write=False)
        ids, labels = (s.id for s in samples), (s.label for s in samples)
        return cls(values, _offsets([s.length for s in samples]), tuple(ids), tuple(labels))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, i: int) -> MtsSample:
        """Sample ``i``'s view; negative ``i`` counts from the end."""
        i = range(len(self))[i]  # an IndexError past either end
        rows = self.values[self.offsets[i] : self.offsets[i + 1]]
        return MtsSample(self.ids[i], self.labels[i], rows.T)

    @property
    def samples(self) -> tuple[MtsSample, ...]:
        """Every sample's view, in order, built on each access."""
        return tuple(self)

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    @property
    def t_max(self) -> int:
        return int(np.diff(self.offsets).max())

    @property
    def label_set(self) -> tuple[str, ...]:
        return tuple(sorted({label for label in self.labels if label is not None}))


def min_max_normalize(values: np.ndarray) -> np.ndarray:
    """Min-max scale every series along axis 0 (time) to [0, 1], into a new C-order array.

    Works on one time-major (T, D) sample or a (T, D, n) block alike: ``values``,
    say a transposed view, is copied once and never written. A constant series
    maps to all zeros so downstream symbolization sees a motionless coordinate
    instead of NaNs.
    """
    x = np.array(values, dtype=np.float64, order="C")  # a copy even of a C-order view
    lo, hi = x.min(axis=0), x.max(axis=0)  # elementwise passes over rows of D * n cells
    with np.errstate(over="ignore"):
        wide = np.isinf(hi - lo)  # the range of a finite series can overflow float64
    if wide.any():  # halve those series, exactly at their magnitudes; others stay as they are
        scale = np.where(wide, 0.5, 1.0)
        x, lo, hi = x * scale, lo * scale, hi * scale
    x -= lo  # a constant series is all zeros already
    span = hi - lo  # a masked divide is slower: mask only when some span is 0
    return np.divide(x, span, out=x, where=True if (span > 0.0).all() else span > 0.0)


def normalize_sample(sample: MtsSample) -> MtsSample:
    """Min-max scale each dimension independently to [0, 1] (see ``min_max_normalize``)."""
    values = min_max_normalize(sample.values.T)
    values.setflags(write=False)  # so the sample keeps the transposed view, not a copy
    return MtsSample(sample.id, sample.label, values.T)


def pad_to_length(sample: MtsSample, length: int) -> MtsSample:
    """Extend every dimension to ``length`` by repeating its final value."""
    if length < sample.length:
        raise InvalidTargetError(
            f"sample {sample.id!r}: target length {length} < observed length {sample.length}"
        )
    if length == sample.length:
        return sample
    padded = np.pad(sample.values, [(0, 0), (0, length - sample.length)], mode="edge")
    return MtsSample(sample.id, sample.label, padded)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def _expected_header(dims: int) -> list[str]:
    return ["sample_id", "label", "t"] + [f"dim_{d}" for d in range(dims)]


@contextmanager
def open_long_form(path: Path) -> Iterator[TextIO]:
    """Open a long-form CSV for reading; text that is not UTF-8 raises ``ParseError``."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None


def read_header(fh) -> list[str] | None:
    """The header record of a long-form CSV opened with ``newline=""``; None when empty."""
    line = fh.readline()
    return next(csv.reader([line])) if line else None


def read_long_form(path: Path, fh, width: int, value_type: type):
    """The rows of a long-form CSV grouped by sample, reading ``fh`` from after the header.

    Rows are ``sample_id,label,t,<width - 3 value columns>`` parsed as
    ``value_type`` (``float`` or ``int``). Returns ``(ids, labels, offsets,
    values)``: sample ids and labels (None when empty) in the order each
    sample's first row appears, and the read-only value block sorted by sample,
    then by ``t``, sample i's rows being ``values[offsets[i]:offsets[i + 1]]``. Raises
    when labels conflict within a sample, or, naming the first such sample in
    file order, when a sample's ``t`` values do not cover 0..T-1.

    The body is parsed by ``np.loadtxt`` in chunks (``_numpy_columns``); when numpy
    rejects any, a row-by-row ``csv`` parser reads it instead and names the bad row.
    Both read every cell the same way as Python's ``int``/``float`` and
    ``csv.reader``; numpy only ever rejects more.
    """
    body_start = fh.tell()
    columns = _numpy_columns(fh, width, value_type)
    if columns is None:
        fh.seek(body_start)
        columns = _row_columns(path, fh, width, value_type)
    ids, labels, sample, label, t, values = columns
    step = np.diff(sample)  # the tools write rows by sample, then by t: no sort, no gathers
    ordered = (step >= 0).all() and (np.diff(t)[step == 0] >= 0).all()
    order = np.arange(len(t)) if ordered else np.lexsort((t, sample))
    offsets = _offsets(np.bincount(sample))
    first_row = np.minimum.reduceat(order, offsets[:-1])  # each sample's first row in the file
    conflict = label != label[first_row][sample]
    if conflict.any():
        sid = ids[sample[np.argmax(conflict)]]
        raise MalformedDatasetError(f"{path}: sample {sid!r} carries conflicting labels")

    if not ordered:
        t, values = t[order], values[order]
    gaps = np.flatnonzero(t != np.arange(len(t)) - np.repeat(offsets[:-1], np.diff(offsets)))
    if len(gaps):
        k = sample[order[gaps[0]]]  # rows are sorted by sample: this is the first gapped one
        ts = [int(x) for x in t[offsets[k] : offsets[k + 1]]]
        raise MalformedDatasetError(
            f"{path}: sample {ids[k]!r}: t values must cover 0..{len(ts) - 1} "
            f"without gaps or duplicates, got {ts}"
        )
    sample_labels = tuple(labels[c] or None for c in label[first_row].tolist())
    values.setflags(write=False)
    return tuple(ids), sample_labels, offsets, values


def _encode(cells: np.ndarray, codes: dict[str, int]) -> np.ndarray:
    """Each cell's code in ``codes``, which gives each new cell the next code in order of
    first appearance; only the first cell of each run of equal cells is looked up."""
    new = np.ones(len(cells), dtype=bool)
    new[1:] = cells[1:] != cells[:-1]
    starts = np.flatnonzero(new)
    runs = [codes.setdefault(cell, len(codes)) for cell in cells[starts].tolist()]
    return np.repeat(np.array(runs, dtype=np.intp), np.diff(np.append(starts, len(cells))))


def _numpy_columns(fh, width: int, value_type: type):
    """``(ids, labels, sample, label, t, values)``, or None if numpy rejects a chunk or none
    holds a row: each distinct id and label in order of first appearance, then each row's
    codes among them, ``t`` and values. A chunk of ``8 * _BLOCK_CELLS`` characters runs on
    to a line end, which ends a record before the first ``"``; the chunk holding one takes
    the rest, as a quoted field may hold a line break. Text cells are ``object`` (a
    fixed-width dtype would size each for the longest) and go with their chunk."""
    dtype = np.dtype(
        [("id", object), ("label", object), ("t", np.int64), ("v", value_type, (width - 3,))]
    )
    ids, labels, parts = {}, {}, [[], [], [], []]
    while chunk := fh.read(8 * _BLOCK_CELLS):  # after a chunk with a quote, nothing is left
        chunk += fh.readline()
        if '"' in chunk:
            chunk += fh.read()
        if not chunk.lstrip("\r\n"):
            continue  # blank lines only: loadtxt would warn about an empty input
        try:
            rows = np.loadtxt(
                io.StringIO(chunk, newline=""),
                dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1,
            )
        except ValueError:
            return None
        codes = _encode(rows["id"], ids), _encode(rows["label"], labels)
        # copies: as views, t and v would keep the chunk's strings alive
        for part, column in zip(parts, (*codes, rows["t"].copy(), rows["v"].copy())):
            part.append(column)
        del rows
    if not parts[0]:
        return None
    for k, part in enumerate(parts):
        parts[k] = np.concatenate(part)  # each column's chunks go as it is joined
    return list(ids), list(labels), *parts


def _row_columns(path: Path, fh, width: int, value_type: type):
    """The same columns as ``_numpy_columns``, parsed row by row to name the first bad row."""
    kind = "numeric" if value_type is float else "integer"
    ids: list[str] = []
    labels: list[str] = []
    ts: list[int] = []
    values: list[list] = []
    first_label: dict[str, str] = {}
    for row_num, row in enumerate(csv.reader(fh), start=2):
        if not row:
            continue
        if len(row) != width:
            raise SchemaError(f"{path}: row {row_num}: expected {width} fields, got {len(row)}")
        try:
            t = int(row[2])
        except ValueError:
            raise ParseError(
                f"{path}: row {row_num}: t value {row[2]!r} is not an integer"
            ) from None
        try:
            cells = [value_type(c) for c in row[3:]]
        except ValueError:
            raise ParseError(
                f"{path}: row {row_num}: non-{kind} value in {row[3:]!r}"
            ) from None
        if first_label.setdefault(row[0], row[1]) != row[1]:
            raise MalformedDatasetError(f"{path}: sample {row[0]!r} carries conflicting labels")
        ids.append(row[0])
        labels.append(row[1])
        ts.append(t)
        values.append(cells)
    # as numpy types them, except that ints int64 cannot hold stay Python ints
    values = np.array(values, dtype=object).reshape(len(values), width - 3)
    with suppress(OverflowError):
        values = values.astype(value_type)
    id_codes, label_codes = {}, {}
    sample = _encode(np.array(ids, dtype=object), id_codes)
    label = _encode(np.array(labels, dtype=object), label_codes)
    return list(id_codes), list(label_codes), sample, label, np.array(ts, dtype=object), values


def load_csv(path: str | Path) -> MtsDataset:
    """Load a long-form dataset CSV.

    Samples appear in the order their first row appears; rows within a sample
    are sorted by ``t`` and must cover 0..T_i-1 with no gaps or duplicates.
    The body is parsed by numpy in chunks; only a file numpy rejects goes
    through the row-by-row parser, which names the first bad row.
    """
    path = Path(path)
    with open_long_form(path) as fh:
        header = read_header(fh)
        if header is None:
            raise SchemaError(f"{path}: file is empty, expected a header row")
        if len(header) < 4 or header[:3] != ["sample_id", "label", "t"]:
            raise SchemaError(f"{path}: header must start with sample_id,label,t,dim_0,...")
        dims = len(header) - 3
        if header != _expected_header(dims):
            raise SchemaError(
                f"{path}: dimension columns must be named dim_0..dim_{dims - 1} in order"
            )
        ids, labels, offsets, values = read_long_form(path, fh, len(header), float)
    if not ids:
        raise EmptyDatasetError(f"{path}: no data rows after the header")
    return MtsDataset(values, offsets, ids, labels)


def csv_prefix(sample_id: str, label: str | None) -> str:
    """The ``sample_id,label`` fields of a long-form row, quoted as
    ``csv.writer`` quotes them; a missing label is an empty field."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([sample_id, "" if label is None else label])
    return buf.getvalue()[:-1]


def write_csv(dataset: MtsDataset, path: str | Path) -> None:
    """Write a dataset in the long-form CSV interchange format.

    Values are written with ``repr``, so ``load_csv`` reads them back exactly.
    """
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_expected_header(dataset.dims)) + "\n")
        ends = dataset.offsets.tolist()
        for sid, label, a, b in zip(dataset.ids, dataset.labels, ends, ends[1:]):
            prefix = csv_prefix(sid, label)
            fh.writelines(
                f"{prefix},{t},{','.join(map(repr, row))}\n"
                for t, row in enumerate(dataset.values[a:b].tolist())
            )


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

Segment = tuple[str, int]
Motif = tuple[tuple[Segment, ...], ...]


def _typed(name: str, value, kind: type):
    """``value`` as ``kind``, int, float or bool, or a ``SchemaError``: a bool is no number."""
    real = isinstance(value, Real) and not isinstance(value, bool)
    if not {int: is_int(value), float: real, bool: isinstance(value, (bool, np.bool_))}[kind]:
        words = {int: "an integer", float: "a real number", bool: "true or false"}[kind]
        hint = ""  # YAML 1.1 reads a float only with a dot and a signed exponent: 1e-3 is text
        number = re.fullmatch(r"([-+]?)(\d*)\.?(\d*)(?:e([-+]?)(\d+))?", str(value).strip().lower())
        if kind is float and isinstance(value, str) and number and (number[2] or number[3]):
            sign, whole, part, esign, power = number.groups()
            spelt = f"{sign}{whole or 0}.{part or 0}" + (f"e{esign or '+'}{power}" if power else "")
            hint = "" if spelt == number[0] else f", which YAML reads as text: write it as {spelt}"
        raise SchemaError(f"{name} must be {words}, got {value!r}{hint}")
    try:
        return kind(value)
    except OverflowError:  # an int past float64: the range checks reject inf
        return np.inf if value > 0 else -np.inf


def _coerce_motif(motif) -> Motif:
    try:
        coerced = tuple(tuple((str(d), n) for d, n in segments) for segments in motif)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"motif is not a list of [direction, length] segments: {exc}") from None
    if not coerced or any(not dim for dim in coerced):
        raise SchemaError("motif must list at least one segment per dimension")
    for dim_segments in coerced:
        for direction, seg_len in dim_segments:
            if direction not in DIRECTIONS:
                raise SchemaError(f"unknown trend direction {direction!r}")
            if _typed("segment length", seg_len, int) < 1:
                raise SchemaError(f"segment length must be >= 1, got {seg_len}")
    return tuple(tuple((d, int(n)) for d, n in segments) for segments in coerced)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a seeded synthetic dataset.

    Each class is a (label, motif) pair; a motif lists, per dimension, trend
    segments of the form (direction, length) with direction one of
    ``up``/``flat``/``down``. Segments are tiled cyclically over the T-1 steps
    of every sample, each step moving by ``step_size`` in the trend direction,
    and i.i.d. uniform noise in [-noise_amplitude, +noise_amplitude] is added
    per observation.

    With ``separable=True`` the spec additionally guarantees symbol-level
    class separability: noise must stay below half a step, and the tiled
    direction sequences of distinct classes must differ somewhere.
    """

    classes: tuple[tuple[str, Motif], ...]
    samples_per_class: int
    length: int
    noise_amplitude: float
    seed: int
    step_size: float = 1.0
    separable: bool = False

    def __post_init__(self) -> None:
        # the one type check: a YAML spec's values arrive here unconverted
        kinds = {"samples_per_class": int, "length": int, "seed": int}
        kinds |= {"noise_amplitude": float, "step_size": float, "separable": bool}
        for name, kind in kinds.items():
            object.__setattr__(self, name, _typed(name, getattr(self, name), kind))
        classes = tuple((str(label), _coerce_motif(motif)) for label, motif in self.classes)
        object.__setattr__(self, "classes", classes)
        if not classes or self.samples_per_class < 1:
            raise EmptySpecError("need at least one class and one sample per class")
        if self.length < 2:
            raise SchemaError(f"length must be >= 2, got {self.length}")
        if not 0 <= 2 * self.noise_amplitude < np.inf:  # NaN fails too
            raise SchemaError(
                f"noise_amplitude must be >= 0 with a finite range 2 x noise_amplitude, "
                f"got {self.noise_amplitude}"
            )
        if self.seed < 0:
            raise SchemaError(f"seed must be >= 0, got {self.seed}")
        trend = self.step_size * (self.length - 1) + self.noise_amplitude  # bounds every |value|
        if not (self.step_size > 0 and trend < np.inf):  # NaN fails too
            raise SchemaError(f"step_size must be > 0 with a finite trend, got {self.step_size}")
        labels = [label for label, _ in classes]
        if len(set(labels)) != len(labels):
            raise SchemaError("class labels must be distinct")
        motifs = [motif for _, motif in classes]
        if len(set(motifs)) != len(motifs):
            raise SchemaError("motifs of distinct classes must be distinct")
        dims = len(motifs[0])
        if any(len(m) != dims for m in motifs):
            raise SchemaError("every class motif must cover the same dimensions")
        if self.separable:
            if not self.noise_amplitude < self.step_size / 2.0:
                raise SchemaError("separable mode requires noise_amplitude < step_size / 2")
            tiled = [self._tiled_steps(motif) for motif in motifs]
            for i in range(len(tiled)):
                for j in range(i + 1, len(tiled)):
                    if tiled[i] == tiled[j]:
                        raise SchemaError(
                            f"separable mode: classes {labels[i]!r} and {labels[j]!r} "
                            "tile to identical direction sequences"
                        )

    @property
    def dims(self) -> int:
        return len(self.classes[0][1])

    def _tiled_steps(self, motif: Motif) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(_tile_directions(dim_segments, self.length - 1))
            for dim_segments in motif
        )


def _tile_directions(dim_segments: tuple[Segment, ...], n_steps: int) -> list[int]:
    pattern = [DIRECTIONS[d] for d, seg_len in dim_segments for _ in range(seg_len)]
    return [pattern[t % len(pattern)] for t in range(n_steps)]


def noiseless_trend(motif, length: int, step_size: float = 1.0) -> np.ndarray:
    """Realize a motif as a (D, T) piecewise-linear trend starting at zero."""
    motif = _coerce_motif(motif)
    trend = np.zeros((len(motif), length), dtype=np.float64)
    for d, dim_segments in enumerate(motif):
        steps = _tile_directions(dim_segments, length - 1)
        trend[d, 1:] = np.cumsum(np.asarray(steps, dtype=np.float64) * step_size)
    return trend


def generate_synthetic(spec: SynthSpec) -> MtsDataset:
    """Generate a dataset from a spec; identical specs yield identical data."""
    rng = np.random.default_rng(spec.seed)
    k, amplitude = spec.samples_per_class, spec.noise_amplitude
    block = np.empty((len(spec.classes), k, spec.length, spec.dims))
    for c, (_, motif) in enumerate(spec.classes):
        # one draw per class gives the same stream as one (D, T) draw per sample
        noise = rng.uniform(-amplitude, amplitude, size=(k, spec.dims, spec.length))
        noise += noiseless_trend(motif, spec.length, spec.step_size)
        block[c] = noise.transpose(0, 2, 1)
    block.setflags(write=False)  # before the view: a view of a writeable block is copied
    values = block.reshape(-1, spec.dims)
    ids = tuple(f"{label}_{i:03d}" for label, _ in spec.classes for i in range(k))
    labels = tuple(label for label, _ in spec.classes for _ in range(k))
    return MtsDataset(values, _offsets(np.full(len(ids), spec.length)), ids, labels)


_SPEC_KEYS = {f.name for f in fields(SynthSpec)}


def load_synth_spec(path: str | Path) -> SynthSpec:
    """Read a synthetic spec from a YAML (or JSON) file.

    Expected shape::

        classes:
          - label: short-run
            motif:
              - [[up, 2], [down, 2]]   # dimension 0 segments
              - [[up, 4], [down, 4]]   # dimension 1 segments
        samples_per_class: 100
        length: 100
        noise_amplitude: 0.4
        seed: 7
        step_size: 1.0      # optional, default 1.0
        separable: true     # optional, default false

    Values reach ``SynthSpec``, which checks their types, as YAML types them: ``"2"`` or
    ``1e-3`` is text, not a number (PyYAML reads a float only with a dot, as ``1.0e-3``).
    """
    import yaml  # only this reader needs it, and it is slow to import

    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except yaml.YAMLError as exc:
        # one line: PyYAML's own message quotes the offending source lines
        mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
        if mark is not None and problem:
            where = f"{problem} at line {mark.line + 1}, column {mark.column + 1}"
        else:
            where = " ".join(str(exc).split())
        raise ParseError(f"{path}: not valid YAML: {where}") from None
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top level must be a mapping")
    unknown = set(raw) - _SPEC_KEYS
    if unknown:
        raise SchemaError(f"{path}: unknown keys {sorted(unknown, key=str)}")  # YAML keys: any type
    missing = {"classes", "samples_per_class", "length", "noise_amplitude", "seed"} - set(raw)
    if missing:
        raise SchemaError(f"{path}: missing keys {sorted(missing)}")
    if not isinstance(raw["classes"], list):
        raise SchemaError(f"{path}: 'classes' must be a list")
    classes = []
    for entry in raw["classes"]:
        if not isinstance(entry, dict) or set(entry) != {"label", "motif"}:
            raise SchemaError(
                f"{path}: each class must be a mapping with exactly 'label' and 'motif'"
            )
        classes.append((entry["label"], entry["motif"]))
    return SynthSpec(**raw | {"classes": tuple(classes)})
