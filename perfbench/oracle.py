"""Independent reference for the mined features.

Symbolizes and mines with plain numpy over a (samples, dims, steps) array and
shares no code with ``stemts.events`` or ``stemts.mining``. A faster reader,
symbolizer or miner that changes which tuples are mined fails the benchmark
on every seed, not only on the seeds whose fingerprints are recorded.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

EventTuple = tuple[int, ...]


def symbolize(values: np.ndarray, delta: float) -> np.ndarray:
    """(n, D, T) raw values -> (n, T-1) event codes.

    Each dimension of each sample is min-max scaled to [0, 1] (a constant one
    to zeros), each step is up/flat/down against ``delta``, and the D symbols
    fuse into one base-3 code with dimension 0 least significant.
    """
    lo = values.min(axis=2, keepdims=True)
    span = values.max(axis=2, keepdims=True) - lo
    norm = np.zeros_like(values)
    np.divide(values - lo, span, out=norm, where=np.broadcast_to(span > 0.0, values.shape))
    diffs = np.diff(norm, axis=2)
    symbols = np.where(diffs > delta, 1, np.where(diffs < -delta, -1, 0)) + 1
    weights = 3 ** np.arange(values.shape[1], dtype=np.int64)
    return np.einsum("ndt,d->nt", symbols.astype(np.int64), weights)


def support_threshold(min_support: int | float, n_samples: int) -> int:
    """Absolute count for an int, ``max(1, ceil(f * n))`` computed exactly for a float."""
    if isinstance(min_support, int):
        return min_support
    return max(1, math.ceil(Fraction(repr(min_support)) * n_samples))


def doc_supports(codes: np.ndarray, alphabet: int, max_len: int) -> dict[EventTuple, int]:
    """Every window tuple of length 1..max_len -> number of samples containing it."""
    n, steps = codes.shape
    out: dict[EventTuple, int] = {}
    for length in range(1, min(max_len, steps) + 1):
        positions = steps - length + 1
        keys = np.zeros((n, positions), dtype=np.int64)
        for j in range(length):
            keys = keys * alphabet + codes[:, j : j + positions]
        per_sample = np.unique(np.arange(n, dtype=np.int64)[:, None] * alphabet**length + keys)
        tuples, counts = np.unique(per_sample % alphabet**length, return_counts=True)
        for key, count in zip(tuples.tolist(), counts.tolist()):
            digits = []
            for _ in range(length):
                key, d = divmod(key, alphabet)
                digits.append(d)
            out[tuple(reversed(digits))] = count
    return out


def mine(
    codes: np.ndarray, alphabet: int, min_support: int | float, max_len: int, gain_gamma: float
) -> list[tuple[EventTuple, int]]:
    """Mined features with their document support, shortest first, then by codes.

    A feature is a tuple meeting the support threshold with no one-code
    extension kept. With ``gain_gamma`` > 0 a tuple longer than one code that
    is left with no kept extension is dropped when its support is below gamma
    times its prefix's, which can leave the prefix without kept extensions.
    """
    sigma = support_threshold(min_support, codes.shape[0])
    support = {t: c for t, c in doc_supports(codes, alphabet, max_len).items() if c >= sigma}
    has_kept_child: set[EventTuple] = set()
    kept = []
    for t in sorted(support, key=len, reverse=True):
        gain_drop = (
            gain_gamma > 0.0
            and len(t) > 1
            and t not in has_kept_child
            and support[t] < gain_gamma * support[t[:-1]]
        )
        if not gain_drop:
            kept.append(t)
            has_kept_child.add(t[:-1])
    features = sorted((t for t in kept if t not in has_kept_child), key=lambda t: (len(t), t))
    return [(t, support[t]) for t in features]
