"""Derive triplet constraint sets from rating labels.

Triplets follow the sigma-thresholded rule: the literal variant keeps ordered
distinct (a, b, c) with S_a <= S_b + sigma < S_c; the symmetric variant keeps
(a, b, c) with |S_a - S_b| + sigma < |S_a - S_c|. `_valid_c` states the rule
once, and enumeration, sampling and scoring all read it. The canonical order
of a set is lexicographic (a, b, c), so subsampling is reproducible.

`triplet_blocks` enumerates the set anchor by anchor, in canonical order, and
`dump-triplets` streams them. The experiment never builds the set:
`sample_triplets` draws the training triplets by rank and decodes only the
drawn ranks, in O(n^2) memory; `describe_triplets` gives a test fold's set as
its rule and size: the rule evaluated on the fold's L distinct labels, an
(L, L, L) table, which a violation count reads. Both count the valid c per
pair of labels (`_label_table`); the sampler spreads that count over every
(a, b) (`_valid_c_counts`), which the tests pin to the rule.
`reference.build_triplets` joins the blocks in O(n^3) memory, and
`reference.subsample_triplets` draws from the whole set as `sample_triplets`
does without it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TRIPLET_VARIANTS, LabeledDataset, TripletSet, require_finite
from .errors import ConfigurationError


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


def _label_table(labels: np.ndarray, sigma: float, variant: str):
    """(table, codes, counts): the rule on the L distinct labels, each row's label index, rows per label.

    table[u_a, u_b, u_c] is `_valid_c` for label values u_a, u_b, u_c, so
    distinct rows (a, b, c) form a triplet iff
    table[codes[a], codes[b], codes[c]]. The rule is False whenever u_c is
    u_a or u_b.
    """
    values, codes, counts = np.unique(labels, return_inverse=True, return_counts=True)
    steps = np.arange(values.size)
    return _valid_c(values, sigma, variant, steps[:, None], steps), codes, counts


def _valid_c_counts(labels: np.ndarray, sigma: float, variant: str) -> np.ndarray:
    """(n, n) number of valid c for each (a, b); row-major, it indexes the canonical order.

    The valid c of (a, b) depend only on S_a and S_b, so `_label_table`
    summed over c holds the count for each pair of distinct label values;
    each (a, b) gathers its entry, with b = a zeroed.
    """
    table, codes, counts = _label_table(labels, sigma, variant)
    out = (table @ counts).take(codes, axis=0).take(codes, axis=1)
    np.fill_diagonal(out, 0)  # b = a would not be a distinct triple
    return out


def sample_triplets(
    dataset: LabeledDataset, sigma: float, m: int, seed, variant: str = "literal"
) -> TripletSet:
    """The draws `reference.subsample_triplets` makes from the whole set, without building it.

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
    return TripletSet(indices=np.stack([a, b, c], axis=1))


@dataclass(frozen=True)
class TripletRule:
    """A test fold's triplet set given by its rule and size, not enumerated.

    `table` is the rule on the fold's L distinct labels, (L, L, L) as
    `_label_table` gives it, and `codes` each row's index into those labels:
    distinct rows (a, b, c) are in the set iff table[codes[a], codes[b],
    codes[c]]. The table also admits b = a, which the set leaves out; a
    violation count may ignore it, since no d(a, c) lies below d(a, a) = 0.
    """

    sigma: float
    total: int
    table: np.ndarray
    codes: np.ndarray


def describe_triplets(dataset: LabeledDataset, sigma: float, variant: str = "literal") -> TripletRule:
    """The set `reference.build_triplets` would enumerate, as its rule and size; O(n + L^3) memory."""
    labels = _triplet_labels(dataset, sigma, variant)
    table, codes, counts = _label_table(labels, sigma, variant)
    pairs = np.outer(counts, counts) - np.diag(counts)  # (a, b) per label pair, b = a left out
    total = int(((table @ counts) * pairs).sum())
    return TripletRule(sigma=float(sigma), total=total, table=table, codes=codes)
