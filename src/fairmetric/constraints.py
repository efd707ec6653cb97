"""Derive pair and triplet constraint sets from rating labels.

Triplets follow the sigma-thresholded rule: the literal variant keeps ordered
distinct (a, b, c) with S_a <= S_b + sigma < S_c; the symmetric variant keeps
(a, b, c) with |S_a - S_b| + sigma < |S_a - S_c|. `_valid_c` states the rule
once, and enumeration, sampling and scoring all read it. The canonical order
of a set is lexicographic (a, b, c), so subsampling is reproducible.

`triplet_blocks` enumerates the set anchor by anchor, in canonical order;
`build_triplets` joins the blocks in O(n^3) memory, and `dump-triplets`
streams them. The experiment never builds the set: `sample_triplets` draws the
training triplets by rank, with the same draws as `subsample_triplets`, and
decodes only the drawn ranks; `describe_triplets` gives a test fold's set as
its rule and size, with per-label masks for counting violations. Both need
O(n^2) memory and the closed-form count of valid c per (a, b)
(`_valid_c_counts`), which the tests pin to the rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TRIPLET_VARIANTS, LabeledDataset, PairSets, TripletSet, require_finite
from .errors import ConfigurationError

DECODE_BLOCK = 1024  # sampled ranks decoded at once, bounding the (block, n) masks


def build_pairs(dataset: LabeledDataset) -> PairSets:
    """All unordered pairs, split into equal-rating (similar) and unequal-rating."""
    labels = dataset.labels
    i, j = np.triu_indices(dataset.n, k=1)
    eq = labels[i] == labels[j]
    similar = np.stack([i[eq], j[eq]], axis=1)
    dissimilar = np.stack([i[~eq], j[~eq]], axis=1)
    return PairSets(similar=similar, dissimilar=dissimilar)


def _valid_c(labels: np.ndarray, sigma: float, variant: str, a, b) -> np.ndarray:
    """[..., c] mask of the c that make (a, b, c) a triplet, for broadcasting index arrays a, b.

    The rule itself rules out c = a and c = b; b = a is left to the caller.
    """
    if variant == "literal":  # S_a <= S_b + sigma < S_c
        thr = labels[b] + sigma
        return (labels[a] <= thr)[..., None] & (thr[..., None] < labels)
    # symmetric: |S_a - S_b| + sigma < |S_a - S_c|
    gap_c = np.abs(labels - labels[a][..., None])
    return (np.abs(labels[b] - labels[a]) + sigma)[..., None] < gap_c


def _triplet_labels(dataset: LabeledDataset, sigma: float, variant: str) -> np.ndarray:
    if dataset.n < 3:
        raise ConfigurationError(f"triplet construction needs n >= 3, got n={dataset.n}")
    require_finite("sigma", sigma)
    if sigma < 0:
        raise ConfigurationError(f"sigma must be nonnegative, got {sigma}")
    if variant not in TRIPLET_VARIANTS:
        raise ConfigurationError(f"unknown triplet variant {variant!r}")
    return dataset.labels.astype(float)


def triplet_blocks(dataset: LabeledDataset, sigma: float, variant: str = "literal"):
    """Yield each anchor's (m_a, 3) block of triplets; in turn they give the canonical order."""
    labels = _triplet_labels(dataset, sigma, variant)
    rows = np.arange(dataset.n)
    for a in rows:
        valid = _valid_c(labels, sigma, variant, a, rows)
        valid[a] = False  # b = a would not be a distinct triple
        b, c = np.nonzero(valid)  # row-major, so (b, c) come out sorted
        yield np.stack([np.full_like(b, a), b, c], axis=1)


def build_triplets(dataset: LabeledDataset, sigma: float, variant: str = "literal") -> TripletSet:
    """Enumerate every triplet satisfying the variant's predicate; may be empty."""
    blocks = list(triplet_blocks(dataset, sigma, variant))
    return TripletSet(indices=np.concatenate(blocks), sigma=sigma)


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
    """(n, n) number of valid c for each (a, b); row-major, it indexes the canonical order.

    The closed form of `_valid_c` summed over c, with b = a zeroed; summing
    the masks anchor by anchor took 13 (symmetric) to 190 (literal) times as
    long at 420 rows.
    """
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
        seen = np.cumsum(_valid_c(labels, sigma, variant, a[part], b[part]), axis=1, dtype=np.int32)
        c[part] = np.argmax(seen > nth[part, None], axis=1)  # the nth (0-based) valid c
    return TripletSet(indices=np.stack([a, b, c], axis=1), sigma=sigma)


@dataclass(frozen=True)
class TripletRule:
    """A triplet set given by its rule and size, not enumerated."""

    labels: np.ndarray
    sigma: float
    variant: str
    total: int

    def label_masks(self):
        """Yield, for each distinct label, its anchors and the (n, n) mask of their valid (b, c).

        The anchors of a label share the mask, so it keeps the row b = a that
        the set leaves out. A violation count may ignore that row: no d(a, c)
        lies below d(a, a) = 0.
        """
        rows = np.arange(self.labels.shape[0])
        for label in np.unique(self.labels):
            anchors = np.flatnonzero(self.labels == label)
            yield anchors, _valid_c(self.labels, self.sigma, self.variant, anchors[0], rows)


def describe_triplets(dataset: LabeledDataset, sigma: float, variant: str = "literal") -> TripletRule:
    """The set `build_triplets` would enumerate, as its rule and size; O(n^2) memory."""
    labels = _triplet_labels(dataset, sigma, variant)
    total = int(_valid_c_counts(labels, sigma, variant).sum())
    return TripletRule(labels=labels, sigma=float(sigma), variant=variant, total=total)
