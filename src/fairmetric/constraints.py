"""Derive pair and triplet constraint sets from rating labels.

Triplets follow the sigma-thresholded rule: the literal variant keeps ordered
distinct (a, b, c) with S_a <= S_b + sigma < S_c; the symmetric variant keeps
(a, b, c) with |S_a - S_b| + sigma < |S_a - S_c|. The canonical order of a set
is lexicographic (a, b, c), so subsampling is reproducible.

`build_triplets` enumerates the whole set, which takes memory in proportion to
its size (O(n^3)); `dump-triplets` and the tests use it. The experiment never
builds it: `sample_triplets` draws the training triplets by rank in the
canonical order, with the same draws as `subsample_triplets`, and decodes only
the drawn ranks; `describe_triplets` gives a test fold's set as its rule and
size, and its per-anchor masks let a scorer count violations. Both need
O(n^2) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, PairSets, TripletSet
from .errors import ConfigurationError

TRIPLET_VARIANTS = ("literal", "symmetric")
DECODE_BLOCK = 1024  # sampled ranks decoded at once, bounding the (block, n) masks


def build_pairs(dataset: LabeledDataset) -> PairSets:
    """All unordered pairs, split into equal-rating (similar) and unequal-rating."""
    labels = dataset.labels
    i, j = np.triu_indices(dataset.n, k=1)
    eq = labels[i] == labels[j]
    similar = np.stack([i[eq], j[eq]], axis=1)
    dissimilar = np.stack([i[~eq], j[~eq]], axis=1)
    return PairSets(similar=similar, dissimilar=dissimilar)


def _literal_triplets(labels: np.ndarray, sigma: float) -> np.ndarray:
    # The predicate factors through b: a ranges over {S_a <= S_b + sigma},
    # c over {S_c > S_b + sigma}; those sets are automatically disjoint.
    n = labels.shape[0]
    blocks = []
    for b in range(n):
        thr = labels[b] + sigma
        a_idx = np.flatnonzero(labels <= thr)
        a_idx = a_idx[a_idx != b]
        c_idx = np.flatnonzero(labels > thr)
        if a_idx.size == 0 or c_idx.size == 0:
            continue
        block = np.empty((a_idx.size * c_idx.size, 3), dtype=np.int64)
        block[:, 0] = np.repeat(a_idx, c_idx.size)
        block[:, 1] = b
        block[:, 2] = np.tile(c_idx, a_idx.size)
        blocks.append(block)
    if not blocks:
        return np.empty((0, 3), dtype=np.int64)
    return np.concatenate(blocks, axis=0)


def _symmetric_triplets(labels: np.ndarray, sigma: float) -> np.ndarray:
    n = labels.shape[0]
    blocks = []
    for a in range(n):
        gaps = np.abs(labels - labels[a])
        ok = gaps[:, None] + sigma < gaps[None, :]
        ok[a, :] = False  # b = a would not be a distinct triple
        b_idx, c_idx = np.nonzero(ok)
        if b_idx.size == 0:
            continue
        block = np.empty((b_idx.size, 3), dtype=np.int64)
        block[:, 0] = a
        block[:, 1] = b_idx
        block[:, 2] = c_idx
        blocks.append(block)
    if not blocks:
        return np.empty((0, 3), dtype=np.int64)
    return np.concatenate(blocks, axis=0)


def _triplet_labels(dataset: LabeledDataset, sigma: float, variant: str) -> np.ndarray:
    if dataset.n < 3:
        raise ConfigurationError(f"triplet construction needs n >= 3, got n={dataset.n}")
    if sigma < 0:
        raise ConfigurationError(f"sigma must be nonnegative, got {sigma}")
    if variant not in TRIPLET_VARIANTS:
        raise ConfigurationError(f"unknown triplet variant {variant!r}")
    return dataset.labels.astype(float)


def build_triplets(dataset: LabeledDataset, sigma: float, variant: str = "literal") -> TripletSet:
    """Enumerate every triplet satisfying the variant's predicate; may be empty."""
    labels = _triplet_labels(dataset, sigma, variant)
    if variant == "literal":
        idx = _literal_triplets(labels, sigma)
    else:
        idx = _symmetric_triplets(labels, sigma)
    if idx.shape[0]:
        order = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0]))
        idx = idx[order]
    return TripletSet(indices=idx, sigma=sigma)


def subsample_triplets(triplets: TripletSet, m: int, seed) -> TripletSet:
    """Uniform sample of min(m, |set|) triplets without replacement; order canonical."""
    if m < 1:
        raise ConfigurationError(f"subsample size must be >= 1, got {m}")
    total = len(triplets)
    if m >= total:
        return TripletSet(indices=triplets.indices.copy(), sigma=triplets.sigma)
    rng = np.random.default_rng(seed)
    pick = rng.choice(total, size=m, replace=False)
    pick.sort()
    return TripletSet(indices=triplets.indices[pick], sigma=triplets.sigma)


def _valid_c_counts(labels: np.ndarray, sigma: float, variant: str) -> np.ndarray:
    """(n, n) number of valid c for each (a, b); row-major, it indexes the canonical order."""
    n = labels.shape[0]
    if variant == "literal":
        thr = labels + sigma
        n_c = np.count_nonzero(thr[:, None] < labels[None, :], axis=1)  # S_b + sigma < S_c
        counts = (labels[:, None] <= thr[None, :]) * n_c[None, :]  # S_a <= S_b + sigma
    else:
        gaps = np.abs(labels[None, :] - labels[:, None])  # gaps[a, b] = |S_b - S_a|
        ranked = np.sort(gaps, axis=1)
        counts = np.empty((n, n), dtype=np.int64)
        for a in range(n):  # c with gap_b + sigma < gap_c, by binary search
            counts[a] = n - np.searchsorted(ranked[a], gaps[a] + sigma, side="right")
    np.fill_diagonal(counts, 0)  # b = a would not be a distinct triple
    return counts


def _nth_valid_c(labels, sigma, variant, a, b, nth) -> np.ndarray:
    """For each drawn (a, b), the nth (0-based) smallest c completing a valid triplet."""
    if variant == "literal":
        valid = (labels[b] + sigma)[:, None] < labels[None, :]
    else:
        gaps = np.abs(labels[None, :] - labels[a][:, None])
        valid = (np.abs(labels[b] - labels[a]) + sigma)[:, None] < gaps
    seen = np.cumsum(valid, axis=1, dtype=np.int32)
    return np.argmax(seen > nth[:, None], axis=1)


def sample_triplets(
    dataset: LabeledDataset, sigma: float, m: int, seed, variant: str = "literal"
) -> TripletSet:
    """`subsample_triplets(build_triplets(dataset, sigma, variant), m, seed)` without the full set.

    Draws the same ranks into the canonical order, then decodes each rank to
    (a, b, c) through the cumulative valid-c counts and the c offset within
    that (a, b)'s valid c.
    """
    labels = _triplet_labels(dataset, sigma, variant)
    if m < 1:
        raise ConfigurationError(f"subsample size must be >= 1, got {m}")
    counts = _valid_c_counts(labels, sigma, variant).ravel()
    total = int(counts.sum())
    if m >= total:
        ranks = np.arange(total)
    else:
        ranks = np.random.default_rng(seed).choice(total, size=m, replace=False)
        ranks.sort()
    ends = np.cumsum(counts)
    pair = np.searchsorted(ends, ranks, side="right")
    a, b = np.divmod(pair, dataset.n)
    nth = ranks - (ends[pair] - counts[pair])
    c = np.empty_like(ranks)
    for lo in range(0, ranks.size, DECODE_BLOCK):
        part = slice(lo, lo + DECODE_BLOCK)
        c[part] = _nth_valid_c(labels, sigma, variant, a[part], b[part], nth[part])
    return TripletSet(indices=np.stack([a, b, c], axis=1), sigma=sigma)


@dataclass(frozen=True)
class TripletRule:
    """A triplet set given by its rule and size, not enumerated."""

    labels: np.ndarray
    sigma: float
    variant: str
    total: int

    def anchor_masks(self):
        """Yield, for each anchor a in turn, the (n, n) mask of its valid (b, c)."""
        labels, sigma = self.labels, self.sigma
        n = labels.shape[0]
        if self.variant == "literal":
            thr = labels + sigma
            above = thr[:, None] < labels[None, :]  # [b, c]: S_b + sigma < S_c
            for a in range(n):
                rows = labels[a] <= thr  # S_a <= S_b + sigma
                rows[a] = False
                yield rows[:, None] & above
        else:
            for a in range(n):
                gaps = np.abs(labels - labels[a])
                ok = gaps[:, None] + sigma < gaps[None, :]
                ok[a, :] = False
                yield ok


def describe_triplets(dataset: LabeledDataset, sigma: float, variant: str = "literal") -> TripletRule:
    """The set `build_triplets` would enumerate, as its rule and size; O(n^2) memory."""
    labels = _triplet_labels(dataset, sigma, variant)
    total = int(_valid_c_counts(labels, sigma, variant).sum())
    return TripletRule(labels=labels, sigma=float(sigma), variant=variant, total=total)
