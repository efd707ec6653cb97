"""Brute-force references for the pipeline's fast kernels; the pipeline never calls them.

Each computes plainly what a pipeline function computes another way:
- `build_pairs` lists as `PairSets` the pairs that MMC takes from the
  ratings: its cap matrix (`learners._mmc_pairs`) from the similar ones, and
  its rating blocks (`learners._dissimilar_blocks`) from the dissimilar ones;
- `build_triplets` enumerates the set, and `subsample_triplets` draws from it
  what `constraints.sample_triplets` draws without it;
- `triplet_violation_loss`, with `_pair_distances`, scores triplet by triplet
  what `evaluation.counted_violation_losses` sums from one label-triple census;
- `cross_distances` gives the distances that `evaluation.fold_distances`
  mirrors and `evaluation.knn_predictions` screens; the tests also read one
  pair's d_M from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import triplet_blocks
from .core import LabeledDataset, MahalanobisMetric, TripletSet
from .errors import ConfigurationError, EvaluationError
from .numerics import quad_forms


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
