"""Brute-force references for the pipeline's fast kernels; the pipeline never calls them.

Each computes plainly what a pipeline function computes another way:
- `build_pairs` lists as `PairSets` the pairs that MMC's masks
  (`learners._mmc_pairs`) hold as (n, n) arrays;
- `build_triplets` enumerates the set, and `subsample_triplets` draws from it
  what `constraints.sample_triplets` draws without it;
- `triplet_violation_loss`, with `_pair_distances`, scores triplet by triplet
  what `evaluation.counted_violation_loss` counts per anchor;
- `cross_distances` gives the distances that `evaluation.fold_distances`
  mirrors and `evaluation.knn_predictions` screens;
- `squared_distance` and `distance` give one pair's d_M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import triplet_blocks
from .core import LabeledDataset, MahalanobisMetric, TripletSet
from .errors import ConfigurationError, EvaluationError, InvariantError
from .numerics import quad_forms

NEGATIVE_FORM_TOL = -1e-8  # quadratic-form values above this are clamped to 0


def squared_distance(metric: MahalanobisMetric, x, y) -> float:
    """(x-y)^T M (x-y), clamped at 0; tiny negatives are floating-point PSD slack."""
    xa = np.asarray(x, dtype=float).ravel()
    ya = np.asarray(y, dtype=float).ravel()
    if xa.shape != ya.shape or xa.shape[0] != metric.d:
        raise ConfigurationError(
            f"dimension mismatch: metric d={metric.d}, x has {xa.shape[0]}, y has {ya.shape[0]}"
        )
    diff = xa - ya
    q = float(diff @ metric.matrix @ diff)
    if q < NEGATIVE_FORM_TOL * max(1.0, float(diff @ diff)):
        raise InvariantError(f"quadratic form {q:.3e} too negative for float slack")
    return max(q, 0.0)


def distance(metric: MahalanobisMetric, x, y) -> float:
    """Mahalanobis distance d_M(x, y)."""
    return math.sqrt(squared_distance(metric, x, y))


@dataclass(frozen=True)
class PairSets:
    """Unordered index pairs (i, j), i < j, as `build_pairs` lists them: equal vs unequal rating."""

    similar: np.ndarray
    dissimilar: np.ndarray

    @property
    def n_similar(self) -> int:
        return self.similar.shape[0]

    @property
    def n_dissimilar(self) -> int:
        return self.dissimilar.shape[0]


def build_pairs(dataset: LabeledDataset) -> PairSets:
    """All unordered pairs, split into equal-rating (similar) and unequal-rating."""
    labels = dataset.labels
    i, j = np.triu_indices(dataset.n, k=1)
    eq = labels[i] == labels[j]
    similar = np.stack([i[eq], j[eq]], axis=1)
    dissimilar = np.stack([i[~eq], j[~eq]], axis=1)
    return PairSets(similar=similar, dissimilar=dissimilar)


def build_triplets(dataset: LabeledDataset, sigma: float, variant: str = "literal") -> TripletSet:
    """Enumerate every triplet satisfying the variant's predicate; may be empty."""
    return TripletSet(indices=np.concatenate(list(triplet_blocks(dataset, sigma, variant))))


def subsample_triplets(triplets: TripletSet, m: int, seed) -> TripletSet:
    """Uniform sample of min(m, |set|) triplets without replacement; order canonical."""
    if m < 1:
        raise ConfigurationError(f"subsample size must be >= 1, got {m}")
    total = len(triplets)
    if m >= total:
        return triplets
    rng = np.random.default_rng(seed)
    pick = rng.choice(total, size=m, replace=False)
    pick.sort()
    return TripletSet(indices=triplets.indices[pick])


def _pair_distances(metric: MahalanobisMetric, x: np.ndarray, rows_a, rows_b) -> np.ndarray:
    diff = x[rows_a] - x[rows_b]
    return np.sqrt(np.maximum(quad_forms(diff, metric.matrix), 0.0))


def triplet_violation_loss(
    metric: MahalanobisMetric, test: LabeledDataset, triplets: TripletSet
) -> float:
    """Fraction of triplets with d_M(a,b) strictly greater than d_M(a,c)."""
    if len(triplets) == 0:
        raise EvaluationError("cannot score an empty triplet set")
    idx = triplets.indices
    if idx.max() >= test.n:
        raise ConfigurationError("triplet indices exceed test set size")
    d_ab = _pair_distances(metric, test.features, idx[:, 0], idx[:, 1])
    d_ac = _pair_distances(metric, test.features, idx[:, 0], idx[:, 2])
    return float(np.mean(d_ab > d_ac))


def cross_distances(metric: MahalanobisMetric, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """(len(xa), len(xb)) d_M between the rows of xa and xb, as `triplet_violation_loss` computes it.

    Swapping xa and xb negates each difference, which leaves its quadratic form exact.
    """
    diff = (xa[:, None, :] - xb[None, :, :]).reshape(-1, xa.shape[1])
    quad = quad_forms(diff, metric.matrix).reshape(xa.shape[0], xb.shape[0])
    return np.sqrt(np.maximum(quad, 0.0))
