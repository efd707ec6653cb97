import math
import os
from pathlib import Path

import numpy as np
import pytest

from fairmetric.core import LabeledDataset, RatingScale
from fairmetric.reference import cross_distances


def random_spd(rng, d, jitter=0.3):
    a = rng.normal(size=(d, d))
    return a @ a.T + jitter * np.eye(d)


def make_dataset(rng, n, d, scale=(1, 5), tag="test"):
    labels = rng.integers(scale[0], scale[1] + 1, size=n)
    return LabeledDataset(
        features=rng.normal(size=(n, d)),
        labels=labels,
        scale=RatingScale(*scale),
        feature_names=tuple(f"f{i}" for i in range(d)),
        source_tag=tag,
    )


def toy(features, labels, scale=(1, 10)):
    features = np.asarray(features, dtype=float)
    return LabeledDataset(
        features=features,
        labels=np.asarray(labels),
        scale=RatingScale(*scale),
        feature_names=tuple(f"f{i}" for i in range(features.shape[1])),
    )


# Plain oracles, one per quantity, that the tests hold the fast code to.


def pair_distance(metric, x, y) -> float:
    """d_M(x, y) for one pair, read from `reference.cross_distances`."""
    xa, ya = (np.asarray(v, dtype=float)[None, :] for v in (x, y))
    return float(cross_distances(metric, xa, ya)[0, 0])


def brute_pairs(labels):
    """(similar, dissimilar) sets of pairs i < j: equal vs unequal label."""
    similar, dissimilar = set(), set()
    n = len(labels)
    for i in range(n):
        for j in range(i + 1, n):
            (similar if labels[i] == labels[j] else dissimilar).add((i, j))
    return similar, dissimilar


def brute_triplets(labels, sigma, variant):
    """Every triplet (a, b, c) of distinct rows that the variant's sigma rule admits."""
    out = set()
    n = len(labels)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if len({a, b, c}) != 3:
                    continue
                if variant == "literal":
                    ok = labels[a] <= labels[b] + sigma and labels[b] + sigma < labels[c]
                else:
                    ok = abs(labels[a] - labels[b]) + sigma < abs(labels[a] - labels[c])
                if ok:
                    out.add((a, b, c))
    return out


def brute_triplet_loss(matrix, features, triplet_indices):
    """Share of triplets (a, b, c) with d(a, b) > d(a, c), recounted with plain Python loops."""
    violated = 0
    for a, b, c in triplet_indices:
        def dist(i, j):
            diff = features[i] - features[j]
            total = 0.0
            for p in range(diff.shape[0]):
                for q in range(diff.shape[0]):
                    total += diff[p] * matrix[p, q] * diff[q]
            return math.sqrt(max(total, 0.0))

        if dist(a, b) > dist(a, c):
            violated += 1
    return violated / len(triplet_indices)


def loop_violation_count(distances, labels, sigma, variant):
    """Triplets of the sigma rule with d(a, b) > d(a, c), counted anchor by anchor over every (b, c).

    Each anchor's (b, c) mask is the rule for its label; the row b = a stays
    in it and counts nothing while d(a, a) = 0 lies below every distance.
    """
    s = np.asarray(labels, dtype=float)
    violations = 0
    for a, d in enumerate(np.asarray(distances)):
        if variant == "literal":
            valid = (s[a] <= s + sigma)[:, None] & (s[:, None] + sigma < s[None, :])
        else:
            valid = (np.abs(s - s[a]) + sigma)[:, None] < np.abs(s - s[a])[None, :]
        violations += int(np.count_nonzero(valid & (d[:, None] > d[None, :])))
    return violations


def row_by_row_knn(metric, train, queries, k):
    """kNN predictions from a full stable sort of `cross_distances`, weighted one row at a time.

    A row with a neighbor under 1e-12 takes its exact neighbors' mean; any
    other row takes `(inv / inv.sum()) @ labels`, the 1-D dot product.
    """
    dists = cross_distances(metric, np.asarray(queries, dtype=float), train.features)
    nearest = np.argsort(dists, axis=1, kind="stable")[:, :k]
    preds = []
    for labels, near_d in zip(train.labels[nearest].astype(float), np.take_along_axis(dists, nearest, axis=1)):
        exact = near_d < 1e-12
        if np.any(exact):
            preds.append(labels[exact].mean())
        else:
            inv = 1.0 / near_d
            preds.append((inv / inv.sum()) @ labels)
    return preds


def brute_knn(metric, train, x, k):
    """Distance-weighted kNN prediction of the rating at x, with plain Python loops."""
    m = metric.matrix
    dists = []
    for i in range(train.n):
        diff = train.features[i] - np.asarray(x, dtype=float)
        dists.append((math.sqrt(max(float(diff @ m @ diff), 0.0)), i))
    dists.sort()  # ties break on the lower index via the tuple
    chosen = dists[:k]
    zero = [(d, i) for d, i in chosen if d < 1e-12]
    if zero:
        return sum(train.labels[i] for _, i in zero) / len(zero)
    weights = [1.0 / d for d, _ in chosen]
    total = sum(weights)
    return sum(w / total * train.labels[i] for w, (_, i) in zip(weights, chosen))


def sym_dirs(d):
    """Orthonormal-ish basis of symmetric directions for finite differencing."""
    dirs = []
    for i in range(d):
        for j in range(i, d):
            e = np.zeros((d, d))
            if i == j:
                e[i, i] = 1.0
            else:
                e[i, j] = e[j, i] = 0.5
            dirs.append(e)
    return dirs


def max_grad_error(fun, grad_fun, m, h=1e-6):
    """Largest relative gap between `grad_fun` and central differences of `fun` at m."""
    g = grad_fun(m)
    worst = 0.0
    for e in sym_dirs(m.shape[0]):
        num = (fun(m + h * e) - fun(m - h * e)) / (2 * h)
        ana = float((g * e).sum())
        worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1e-8))
    return worst


def _data_dir() -> Path | None:
    env = os.environ.get("FAIRMETRIC_DATA")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for cand in candidates:
        if cand.is_dir():
            return cand
    return None


@pytest.fixture(scope="session")
def published_survey():
    root = _data_dir()
    if root is None or not (root / "survey.csv").exists():
        pytest.skip("published survey data not supplied (set FAIRMETRIC_DATA or ./data)")
    return root / "survey.csv"


@pytest.fixture(scope="session")
def published_defendants():
    root = _data_dir()
    if root is None or not (root / "defendants.csv").exists():
        pytest.skip("published defendant data not supplied (set FAIRMETRIC_DATA or ./data)")
    return root / "defendants.csv", (root / "schema.txt" if (root / "schema.txt").exists() else None)
