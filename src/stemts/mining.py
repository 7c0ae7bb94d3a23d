"""Variable-length tuple mining over event sequences.

Tuples are contiguous windows of event codes (lengths 1..max_len). One
kernel, ``window_states``, shared with ``features.vectorize_batch``, walks
every window of an ``events.EventBatch`` (joined codes plus offsets) one
length at a time, as Apriori and PrefixSpan do: a window's state follows from
its prefix's state and its last code, and a code outside the walk's alphabet
is a stop. Each length's keys lie in a small dense space, so one rule,
``_table``, finds the distinct keys by marking a boolean table, not by a sort,
and a dense key -> row array numbers every window; each comes out with its
state and its owner, owners ascending. ``build_forest`` keeps each distinct
window as a row (its prefix's row, its last code) with its ``doc_support``
(distinct samples: ``_table`` over (sample, row) pair keys) and
``occ_count`` (windows in all samples), walking each distinct code sequence
once, weighted by its number of samples, as FP-growth counts identical
transactions. Pruning drops rows below the minimum document support (and,
optionally, longest first, those adding little support over their prefix);
the kept rows no kept row names as its parent are the features, prefix-free.

``brute_force_mine`` re-derives the same feature list by exhaustive, slow
window enumeration; tests hold the array path to it exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Real
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .dataset import _unique
from .errors import ConfigError, EmptyInputError, MalformedDatasetError, SchemaError, check_int
from .events import EventBatch, EventSequence, alphabet_size, explain_tuple

EventTuple = tuple[int, ...]


@dataclass(frozen=True)
class MinerConfig:
    """Mining thresholds.

    ``min_support`` is either an absolute sample count (int >= 1) or a
    fraction of the dataset (float in (0, 1]), resolved to
    ``max(1, ceil(fraction * n_samples))`` at mine time, in exact arithmetic. ``gain_gamma`` of 0
    disables the gain test; a positive value also drops tuples with no kept
    extension whose document support is below gamma times their prefix's.
    """

    min_support: int | float = 0.05
    max_len: int = 5
    gain_gamma: float = 0.0

    def __post_init__(self) -> None:
        ms = self.min_support
        if isinstance(ms, bool) or not isinstance(ms, Real):
            raise ConfigError(f"min_support must be an int count or float fraction, got {ms!r}")
        if isinstance(ms, Integral):
            if ms < 1:
                raise ConfigError(f"absolute min_support must be >= 1, got {ms}")
        elif not 0.0 < ms <= 1.0:
            raise ConfigError(f"fractional min_support must lie in (0, 1], got {ms}")
        object.__setattr__(self, "min_support", int(ms) if isinstance(ms, Integral) else float(ms))
        object.__setattr__(self, "max_len", check_int("max_len", self.max_len, 1))
        if not 0.0 <= self.gain_gamma <= 1.0:
            raise ConfigError(f"gain_gamma must lie in [0, 1], got {self.gain_gamma}")
        object.__setattr__(self, "gain_gamma", float(self.gain_gamma))


def resolve_min_support(min_support: int | float, n_samples: int) -> int:
    """Turn a count-or-fraction threshold into an absolute sample count.

    A fraction is read as the decimal it prints as and multiplied exactly,
    so 0.07 of 100 samples is 7, not the 8 that float rounding would give.
    """
    if isinstance(min_support, Integral) and not isinstance(min_support, bool):
        return int(min_support)
    return max(1, math.ceil(Fraction(repr(float(min_support))) * n_samples))


@dataclass(eq=False)
class PrefixForest:
    """Counted tuples, closed under taking prefixes: four int64 arrays, one row per tuple.

    Row i's tuple is row ``parent[i]``'s (none for -1) plus ``code[i]``. Rows are
    in walk order, by length, then by codes, so ``parent`` never decreases.
    """

    parent: np.ndarray
    code: np.ndarray
    doc_support: np.ndarray
    occ_count: np.ndarray
    n_samples: int

    def node_count(self) -> int:
        return len(self.parent)

    @property
    def nodes(self) -> dict[EventTuple, tuple[int, int]]:
        """``{tuple: (doc_support, occ_count)}`` in row order, built on each access."""
        tuples: list[EventTuple] = []
        for p, c in zip(self.parent.tolist(), self.code.tolist()):
            tuples.append((tuples[p] if p >= 0 else ()) + (c,))
        return dict(zip(tuples, zip(self.doc_support.tolist(), self.occ_count.tolist())))


def _check_sequences(sequences: Sequence[EventSequence] | EventBatch) -> EventBatch:
    """The batch to count; the sequences of a list must share one dimension count."""
    if not len(sequences):
        raise EmptyInputError("no event sequences to mine")
    batch = EventBatch.from_sequences(sequences)
    if len(set(batch.ids)) != len(batch.ids):
        raise MalformedDatasetError("sample ids must be unique for support counting")
    return batch


_KEY_CELLS = 8  # key spaces up to this many cells per key are counted, not sorted


def _table(keys: np.ndarray, space: int) -> np.ndarray:
    """The sorted distinct ``keys`` in [0, space): marked on a boolean table up to
    ``_KEY_CELLS`` cells per key, else sorted."""
    if space > _KEY_CELLS * len(keys):
        return _unique(keys)
    seen = np.zeros(space, dtype=bool)
    seen[keys] = True
    return np.flatnonzero(seen)


def _rows(keys: np.ndarray, space: int, index: type, table=None) -> tuple[np.ndarray, np.ndarray]:
    """``table`` (by default ``_table(keys, space)``) and each key's row in it or -1: a
    dense key -> row array up to ``_KEY_CELLS`` cells per key, else a binary search.
    ``window_states`` passes a ``table`` only to rank codes in its alphabet."""
    table = _table(keys, space) if table is None else table
    if space > _KEY_CELLS * len(keys):
        rows = np.searchsorted(table, keys).astype(index)
        rows[table[np.minimum(rows, len(table) - 1)] != keys] = -1
        return table, rows
    remap = np.full(space, -1, dtype=index)
    remap[table] = np.arange(len(table), dtype=index)
    return table, remap[keys]


def window_states(
    codes: np.ndarray, offsets: np.ndarray, alphabet: np.ndarray, max_len: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(table, rows, owners)`` for window lengths l = 1..max_len.

    The walk stops after the first length with no window.

    Tuple i of the batch is ``codes[offsets[i]:offsets[i + 1]]``. A stop code
    goes after each tuple, so no window spans two, and a code outside
    ``alphabet`` is a stop too. A length-l window's int64 key is its
    length-(l-1) prefix's state x len(alphabet) + its last code's rank in the
    sorted ``alphabet`` (the empty prefix has state 0), so keys lie below the
    previous table's size x len(alphabet). ``table`` holds the level's sorted
    distinct keys, counted (or sorted, see ``_rows``). For each window,
    ``rows`` holds its state (the key's row in ``table``, so two windows share
    a row exactly when they hold the same codes) and ``owners`` the batch
    index of its tuple, ascending; both are int32 below 2**31 positions.
    """
    index = np.int32 if len(codes) + len(offsets) < 2**31 else np.int64
    owner = np.repeat(np.arange(len(offsets) - 1, dtype=index), np.diff(offsets) + 1)
    lo = min(codes.min(initial=0), alphabet.min(initial=0))  # codes may be any int
    space = int(max(codes.max(initial=0), alphabet.max(initial=0)) - lo) + 1
    rank = np.insert(_rows(codes - lo, space, index, alphabet - lo)[1], offsets[1:], -1)  # stops
    states, width = np.zeros(len(rank), dtype=index), 1  # the empty prefix: one state
    for level in range(max_len):
        last = rank[level:]
        valid = (states[: len(last)] >= 0) & (last >= 0)
        keys = states[: len(last)][valid] * np.int64(len(alphabet)) + last[valid]
        table, rows = _rows(keys, width * len(alphabet), index)
        states = np.full(len(last), -1, dtype=index)
        states[valid] = rows
        width = len(table)
        yield table, rows, owner[: len(last)][valid]
        if not valid.any():
            return  # no window of this length, so none longer: max_len may be huge


def build_forest(
    sequences: Sequence[EventSequence] | EventBatch, config: MinerConfig
) -> PrefixForest:
    """Count every window of length 1..max_len of every sequence.

    ``occ_count`` counts a tuple's windows and ``doc_support`` its distinct
    samples, so a tuple occurring many times in one sample counts it once.
    """
    batch = _check_sequences(sequences)
    unique, inverse = batch.distinct()
    return _count_forest(unique, np.bincount(inverse), len(batch), config)


def _count_forest(unique: EventBatch, weights, n_samples: int, config: MinerConfig) -> PrefixForest:
    """The forest of ``n_samples`` samples whose distinct code sequences ``unique`` repeat
    ``weights`` times each: each one is walked once, weighted by its count."""
    alphabet = _table(unique.codes, alphabet_size(unique.dims))
    levels, start, end = [], -1, 0  # row -1 is the empty prefix
    walk = window_states(unique.codes, unique.offsets, alphabet, config.max_len)
    for table, rows, owners in walk:
        occs = np.zeros(len(table), dtype=np.int64)
        np.add.at(occs, rows, weights[owners])
        prefix, last = np.divmod(table, len(alphabet))
        width = len(table)  # doc support: the weights of each row's distinct owners
        pairs = _table(owners.astype(np.int64) * width + rows, len(weights) * width)
        docs = np.zeros(width, dtype=np.int64)
        np.add.at(docs, pairs % width, weights[pairs // width])
        levels.append((prefix + start, alphabet[last], docs, occs))
        start, end = end, end + len(table)
    return PrefixForest(*map(np.concatenate, zip(*levels)), n_samples=n_samples)


def prune_bottom_up(forest: PrefixForest, config: MinerConfig) -> PrefixForest:
    """A new forest of the tuples at or above the support threshold.

    Support never grows with length, so the survivors stay prefix-closed.
    With ``gain_gamma`` > 0, going longest first, a tuple of two or more
    codes left with no kept extension is dropped when its document support
    is below gamma times its prefix's, which can leave the prefix bare too.
    """
    sigma = resolve_min_support(config.min_support, forest.n_samples)
    parent, docs = forest.parent, forest.doc_support
    keep = docs >= sigma
    strong = (parent < 0) | (docs >= config.gain_gamma * docs[parent])
    ends = [0]  # level l + 1 ends where the parents reach the end of level l
    while ends[-1] < len(parent):
        ends.append(int(np.searchsorted(parent, ends[-1])))
    extended = np.zeros(len(parent) + 1, dtype=bool)  # the spare last cell takes parent -1
    for lo, hi in reversed(list(zip(ends, ends[1:]))):
        keep[lo:hi] &= extended[lo:hi] | strong[lo:hi]
        extended[parent[lo:hi][keep[lo:hi]]] = True
    row = np.append(np.cumsum(keep) - 1, -1)  # kept rows renumbered; the spare cell keeps -1
    kept = (forest.code[keep], docs[keep], forest.occ_count[keep])
    return PrefixForest(row[parent[keep]], *kept, n_samples=forest.n_samples)


def extract_rts_features(forest: PrefixForest) -> list[EventTuple]:
    """Tuples no other tuple in the forest extends: prefix-free, shortest first, then by codes."""
    extended = np.zeros(forest.node_count() + 1, dtype=bool)  # the spare last cell takes -1
    extended[forest.parent] = True
    return [t for t, leaf in zip(forest.nodes, ~extended[:-1]) if leaf]


def brute_force_mine(
    sequences: Sequence[EventSequence] | EventBatch, config: MinerConfig
) -> list[EventTuple]:
    """Reference miner: exhaustive window enumeration, no trees.

    Keeps every tuple meeting the support threshold that has no one-code
    extension also kept. With ``gain_gamma`` > 0, going longest first, a
    tuple of two or more codes with no kept extension is dropped when its
    support is below gamma times its prefix's. Intended for small inputs;
    quadratic-ish and proud of it.
    """
    _check_sequences(sequences)
    sigma = resolve_min_support(config.min_support, len(sequences))
    supporters: dict[EventTuple, set[str]] = {}
    for seq in sequences:
        codes = seq.codes
        for length in range(1, config.max_len + 1):
            for start in range(len(codes) - length + 1):
                window = codes[start : start + length]
                supporters.setdefault(window, set()).add(seq.sample_id)
    support = {t: len(ids) for t, ids in supporters.items() if len(ids) >= sigma}
    extended: set[EventTuple] = set()
    kept = []
    for t in sorted(support, key=len, reverse=True):
        weak = len(t) > 1 and support[t] < config.gain_gamma * support[t[:-1]]
        if t in extended or not weak:
            kept.append(t)
            extended.add(t[:-1])
    return sorted((t for t in kept if t not in extended), key=lambda t: (len(t), t))


# ---------------------------------------------------------------------------
# Feature list files
# ---------------------------------------------------------------------------


_RECORD_KEYS = {"ordinal", "length", "codes", "doc_support", "occ_count", "description"}


def write_feature_list(
    path: str | Path,
    features: Sequence[EventTuple],
    forest: PrefixForest,
    dims: int,
    delta: float | None,
    config: MinerConfig,
) -> None:
    """Write mined features with supports and decoded step descriptions."""
    records, nodes = [], forest.nodes
    for ordinal, tup in enumerate(features):
        node = nodes.get(tuple(tup))
        if node is None:
            raise ValueError(f"feature {tup} is not present in the forest")
        records.append(
            {
                "ordinal": ordinal,
                "length": len(tup),
                "codes": list(tup),
                "doc_support": node[0],
                "occ_count": node[1],
                "description": explain_tuple(tup, dims),
            }
        )
    payload = {
        "dims": dims,
        "delta": delta,
        "n_samples": forest.n_samples,
        "min_support": config.min_support,
        "resolved_min_support": resolve_min_support(config.min_support, forest.n_samples),
        "max_len": config.max_len,
        "gain_gamma": config.gain_gamma,
        "features": records,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_feature_list(path: str | Path) -> dict:
    """Read a feature list file back as a dict; validates the rough shape."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "features" not in payload or "dims" not in payload:
        raise SchemaError(f"{path}: expected a feature list with 'dims' and 'features'")
    records = payload["features"]
    if not isinstance(records, list) or not all(
        isinstance(r, dict) and _RECORD_KEYS <= r.keys() and isinstance(r["codes"], list)
        for r in records
    ):
        raise SchemaError(
            f"{path}: each feature must be a record with {sorted(_RECORD_KEYS)} "
            "and a list of codes"
        )
    return payload
