"""Variable-length tuple mining over event sequences.

Tuples are contiguous windows of event codes (lengths 1..max_len). Every
window of every sequence is inserted into a forest of prefix trees, one tree
per leading code, with two counts per node:

- ``doc_support``: number of distinct samples containing the tuple,
- ``occ_count``: total number of (overlapping) windows across all samples.

Bottom-up pruning removes nodes below the minimum document support (and,
optionally, leaves that add little support over their parent). The surviving
root-to-leaf paths are the mined features: prefix-free by construction, so no
feature is a shorter copy of another.

``brute_force_mine`` re-derives the same feature list by exhaustive window
enumeration. It is deliberately simple and slow; tests hold the forest path
to it exactly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from .errors import ConfigError, EmptyInputError, MalformedDatasetError, SchemaError
from .events import EventSequence, explain_tuple

__all__ = [
    "EventTuple",
    "MinerConfig",
    "PrefixNode",
    "PrefixForest",
    "resolve_min_support",
    "build_forest",
    "prune_bottom_up",
    "extract_rts_features",
    "brute_force_mine",
    "write_feature_list",
    "load_feature_list",
]

EventTuple = tuple[int, ...]


@dataclass(frozen=True)
class MinerConfig:
    """Mining thresholds.

    ``min_support`` is either an absolute sample count (int >= 1) or a
    fraction of the dataset (float in (0, 1]), resolved to
    ``max(1, ceil(fraction * n_samples))`` at mine time, in exact arithmetic. ``gain_gamma`` of 0
    disables the leaf gain test; a positive value additionally drops leaves
    whose document support is below gamma times their parent's.
    """

    min_support: int | float = 0.05
    max_len: int = 5
    gain_gamma: float = 0.0

    def __post_init__(self) -> None:
        ms = self.min_support
        if isinstance(ms, bool) or not isinstance(ms, (int, float)):
            raise ConfigError(f"min_support must be an int count or float fraction, got {ms!r}")
        if isinstance(ms, int):
            if ms < 1:
                raise ConfigError(f"absolute min_support must be >= 1, got {ms}")
        elif not 0.0 < ms <= 1.0:
            raise ConfigError(f"fractional min_support must lie in (0, 1], got {ms}")
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")
        if not 0.0 <= self.gain_gamma <= 1.0:
            raise ConfigError(f"gain_gamma must lie in [0, 1], got {self.gain_gamma}")


def resolve_min_support(min_support: int | float, n_samples: int) -> int:
    """Turn a count-or-fraction threshold into an absolute sample count.

    A fraction is read as the decimal it prints as and multiplied exactly,
    so 0.07 of 100 samples is 7, not the 8 that float rounding would give.
    """
    if isinstance(min_support, int) and not isinstance(min_support, bool):
        return min_support
    return max(1, math.ceil(Fraction(repr(float(min_support))) * n_samples))


class PrefixNode:
    """One tuple in the forest; the path from its root spells the codes."""

    __slots__ = ("code", "children", "doc_support", "occ_count", "_last_seen")

    def __init__(self, code: int) -> None:
        self.code = code
        self.children: dict[int, PrefixNode] = {}
        self.doc_support = 0
        self.occ_count = 0
        self._last_seen = -1

    def sorted_children(self) -> Iterator[PrefixNode]:
        for code in sorted(self.children):
            yield self.children[code]


@dataclass
class PrefixForest:
    """One prefix tree per leading event code, plus dataset bookkeeping."""

    roots: dict[int, PrefixNode]
    max_len: int
    n_samples: int

    def sorted_roots(self) -> Iterator[PrefixNode]:
        for code in sorted(self.roots):
            yield self.roots[code]

    def node_for(self, codes: Sequence[int]) -> PrefixNode | None:
        """Walk a tuple down the forest; None if it was never inserted."""
        if not codes:
            return None
        node = self.roots.get(codes[0])
        for code in codes[1:]:
            if node is None:
                return None
            node = node.children.get(code)
        return node

    def node_count(self) -> int:
        count = 0
        stack = list(self.roots.values())
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children.values())
        return count

    def to_dict(self) -> list[dict]:
        """Canonical nested form, children sorted by code; used for comparisons."""

        def as_dict(node: PrefixNode) -> dict:
            return {
                "code": node.code,
                "doc_support": node.doc_support,
                "occ_count": node.occ_count,
                "children": [as_dict(c) for c in node.sorted_children()],
            }

        return [as_dict(r) for r in self.sorted_roots()]


def _check_sequences(sequences: Sequence[EventSequence]) -> None:
    if not sequences:
        raise EmptyInputError("no event sequences to mine")
    dims = sequences[0].dims
    if any(s.dims != dims for s in sequences):
        raise ValueError("all sequences must share one dimension count")
    ids = [s.sample_id for s in sequences]
    if len(set(ids)) != len(ids):
        raise MalformedDatasetError("sample ids must be unique for support counting")


def build_forest(sequences: Sequence[EventSequence], config: MinerConfig) -> PrefixForest:
    """Insert every window of length 1..max_len of every sequence.

    Document support is deduplicated per sample with a last-seen marker, so a
    tuple occurring many times in one sample still counts that sample once.
    """
    _check_sequences(sequences)
    roots: dict[int, PrefixNode] = {}
    for sample_index, seq in enumerate(sequences):
        codes = seq.codes
        n = len(codes)
        for start in range(n):
            stop = min(start + config.max_len, n)
            level = roots
            for pos in range(start, stop):
                node = level.get(codes[pos])
                if node is None:
                    node = PrefixNode(codes[pos])
                    level[codes[pos]] = node
                node.occ_count += 1
                if node._last_seen != sample_index:
                    node._last_seen = sample_index
                    node.doc_support += 1
                level = node.children
    return PrefixForest(roots=roots, max_len=config.max_len, n_samples=len(sequences))


def prune_bottom_up(forest: PrefixForest, config: MinerConfig) -> PrefixForest:
    """Copy the forest keeping only nodes at or above the support threshold.

    Children are pruned before their parent, so a node whose whole subtree
    fails the threshold disappears with it, and the survivor set stays
    prefix-closed. With ``gain_gamma`` > 0, a node that ends up a leaf is also
    dropped when its document support falls below gamma times its parent's.
    """
    sigma = resolve_min_support(config.min_support, forest.n_samples)
    gamma = config.gain_gamma

    def copy_pruned(node: PrefixNode, parent_doc: int | None) -> PrefixNode | None:
        if node.doc_support < sigma:
            return None
        kept = PrefixNode(node.code)
        kept.doc_support = node.doc_support
        kept.occ_count = node.occ_count
        for child in node.sorted_children():
            kept_child = copy_pruned(child, node.doc_support)
            if kept_child is not None:
                kept.children[kept_child.code] = kept_child
        if (
            gamma > 0.0
            and parent_doc is not None
            and not kept.children
            and kept.doc_support < gamma * parent_doc
        ):
            return None
        return kept

    roots: dict[int, PrefixNode] = {}
    for root in forest.sorted_roots():
        kept = copy_pruned(root, None)
        if kept is not None:
            roots[kept.code] = kept
    return PrefixForest(roots=roots, max_len=forest.max_len, n_samples=forest.n_samples)


def extract_rts_features(forest: PrefixForest) -> list[EventTuple]:
    """Root-to-leaf paths of a pruned forest, shortest first, then lexicographic.

    Internal nodes are absorbed by their extensions, which is what makes the
    result prefix-free.
    """
    features: list[EventTuple] = []

    def walk(node: PrefixNode, path: list[int]) -> None:
        path.append(node.code)
        if not node.children:
            features.append(tuple(path))
        else:
            for child in node.sorted_children():
                walk(child, path)
        path.pop()

    for root in forest.sorted_roots():
        walk(root, [])
    features.sort(key=lambda t: (len(t), t))
    return features


def brute_force_mine(
    sequences: Sequence[EventSequence], config: MinerConfig
) -> list[EventTuple]:
    """Reference miner: exhaustive window enumeration, no trees.

    Keeps every tuple meeting the support threshold that has no one-code
    extension also meeting it (tuples at max_len are kept outright). Intended
    for small inputs; quadratic-ish and proud of it.
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
    frequent = {t for t, ids in supporters.items() if len(ids) >= sigma}
    extended = {t[:-1] for t in frequent if len(t) >= 2}
    kept = [t for t in frequent if len(t) == config.max_len or t not in extended]
    kept.sort(key=lambda t: (len(t), t))
    return kept


# ---------------------------------------------------------------------------
# Feature list files
# ---------------------------------------------------------------------------


def write_feature_list(
    path: str | Path,
    features: Sequence[EventTuple],
    forest: PrefixForest,
    dims: int,
    delta: float | None,
    config: MinerConfig,
) -> None:
    """Write mined features with supports and decoded step descriptions."""
    records = []
    for ordinal, tup in enumerate(features):
        node = forest.node_for(tup)
        if node is None:
            raise ValueError(f"feature {tup} is not present in the forest")
        records.append(
            {
                "ordinal": ordinal,
                "length": len(tup),
                "codes": list(tup),
                "doc_support": node.doc_support,
                "occ_count": node.occ_count,
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
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "features" not in payload or "dims" not in payload:
        raise SchemaError(f"{path}: expected a feature list with 'dims' and 'features'")
    return payload
