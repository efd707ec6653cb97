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

    The valid c of (a, b) depend only on S_a and S_b, so one table holds
    `_valid_c` summed over c for each pair of distinct label values; each
    (a, b) gathers its entry, with b = a zeroed.
    """
    values, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    steps = np.arange(values.size)
    table = np.stack([_valid_c(values, sigma, variant, u, steps) @ counts for u in steps])
    out = table.take(inverse, axis=0).take(inverse, axis=1)
    np.fill_diagonal(out, 0)  # b = a would not be a distinct triple
    return out


def sample_triplets(
    dataset: LabeledDataset, sigma: float, m: int, seed, variant: str = "literal"
) -> TripletSet:
    """`subsample_triplets(build_triplets(dataset, sigma, variant), m, seed)` without the full set.

    Draws the same ranks into the canonical order, then decodes each rank to
    (a, b) through the cumulative valid-c counts and to c as the nth valid c
    of that (a, b). The valid c depend only on (S_a, S_b), so they are listed
    once per label pair among the draws.
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
    _, value = np.unique(labels, return_inverse=True)
    code = value[a] * labels.size + value[b]  # one code per (S_a, S_b)
    order = np.argsort(code)
    starts = np.flatnonzero(np.diff(code[order], prepend=-1))
    c = np.empty_like(ranks)
    for lo, hi in zip(starts, np.append(starts[1:], order.size)):
        group = order[lo:hi]
        first = group[0]
        c[group] = np.flatnonzero(_valid_c(labels, sigma, variant, a[first], b[first]))[nth[group]]
    return TripletSet(indices=np.stack([a, b, c], axis=1), sigma=sigma)


@dataclass(frozen=True)
class TripletRule:
    """A triplet set given by its rule and size, not enumerated.

    `label_masks` holds, for each distinct label, its anchors and the (n, n)
    mask of their valid (b, c), built once for every metric scored against
    the rule. The anchors of a label share the mask, so it keeps the row
    b = a that the set leaves out. A violation count may ignore that row: no
    d(a, c) lies below d(a, a) = 0.
    """

    sigma: float
    total: int
    label_masks: tuple[tuple[np.ndarray, np.ndarray], ...]


def describe_triplets(dataset: LabeledDataset, sigma: float, variant: str = "literal") -> TripletRule:
    """The set `build_triplets` would enumerate, as its rule and size; O(n^2) memory."""
    labels = _triplet_labels(dataset, sigma, variant)
    total = int(_valid_c_counts(labels, sigma, variant).sum())
    rows = np.arange(dataset.n)
    masks = []
    for label in np.unique(labels):
        anchors = np.flatnonzero(labels == label)
        masks.append((anchors, _valid_c(labels, sigma, variant, anchors[0], rows)))
    return TripletRule(sigma=float(sigma), total=total, label_masks=tuple(masks))
