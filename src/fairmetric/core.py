"""Domain types shared across the toolkit: datasets, metrics, constraint sets, config.

All types are immutable after construction (arrays are marked read-only), so they
can be shared freely across concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InvariantError
from .numerics import SYMMETRY_TOL

PSD_TOL = 1e-8  # |lambda_min| slack tolerated as float noise
NEGATIVE_FORM_TOL = -1e-8  # quadratic-form values above this are clamped to 0
TRIPLET_VARIANTS = ("literal", "symmetric")
MMC_FORMS = ("full", "diagonal")


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RatingScale:
    """Closed integer rating range, e.g. 1..5 for the survey, 1..10 for COMPAS."""

    min: int
    max: int

    def __post_init__(self):
        if self.min >= self.max:
            raise ConfigurationError(f"rating scale needs min < max, got [{self.min}, {self.max}]")

    def contains(self, value: int) -> bool:
        return self.min <= value <= self.max


SURVEY_SCALE = RatingScale(1, 5)
COMPAS_SCALE = RatingScale(1, 10)


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix plus per-row integer ratings.

    `ids` is optional row identity used to join survey records onto defendants;
    purely numerical pipelines can leave it unset.
    """

    features: np.ndarray  # (n, d) float
    labels: np.ndarray  # (n,) int
    scale: RatingScale
    feature_names: tuple[str, ...]
    source_tag: str = ""
    ids: tuple[str, ...] | None = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labs = np.asarray(self.labels)
        if feats.ndim != 2:
            raise ConfigurationError(f"features must be 2-D, got shape {feats.shape}")
        n, d = feats.shape
        if n < 2 or d < 1:
            raise ConfigurationError(f"dataset needs n >= 2 and d >= 1, got n={n}, d={d}")
        if not np.all(np.isfinite(feats)):
            raise ConfigurationError("features contain NaN or inf")
        if labs.shape != (n,):
            raise ConfigurationError(f"labels must have shape ({n},), got {labs.shape}")
        if not np.issubdtype(labs.dtype, np.integer):
            rounded = np.rint(labs)
            if not np.all(rounded == labs):
                raise ConfigurationError("labels must be integers")
            labs = rounded.astype(np.int64)
        else:
            labs = labs.astype(np.int64)
        if labs.min() < self.scale.min or labs.max() > self.scale.max:
            bad = int(np.flatnonzero((labs < self.scale.min) | (labs > self.scale.max))[0])
            raise ConfigurationError(
                f"label {labs[bad]} at row {bad} outside scale [{self.scale.min}, {self.scale.max}]"
            )
        if len(self.feature_names) != d:
            raise ConfigurationError(
                f"feature_names has {len(self.feature_names)} entries for d={d}"
            )
        if self.ids is not None and len(self.ids) != n:
            raise ConfigurationError(f"ids has {len(self.ids)} entries for n={n}")
        object.__setattr__(self, "features", _readonly(feats))
        object.__setattr__(self, "labels", _readonly(labs))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if self.ids is not None:
            object.__setattr__(self, "ids", tuple(self.ids))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            features=self.features[idx],
            labels=self.labels[idx],
            scale=self.scale,
            feature_names=self.feature_names,
            source_tag=self.source_tag,
            ids=None if self.ids is None else tuple(self.ids[i] for i in idx),
        )


@dataclass(frozen=True)
class MahalanobisMetric:
    """Symmetric PSD matrix M defining d_M(x, y) = sqrt((x-y)^T M (x-y))."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigurationError(f"metric matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvariantError("metric matrix contains NaN or inf")
        asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
        if asym > SYMMETRY_TOL:
            raise InvariantError(f"metric matrix asymmetric: max |M - M^T| = {asym:.3e}")
        lam_min = float(np.linalg.eigvalsh(m)[0])
        if lam_min < -PSD_TOL:
            raise InvariantError(f"metric matrix not PSD: lambda_min = {lam_min:.3e}")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, d: int) -> "MahalanobisMetric":
        if d < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {d}")
        return cls(np.eye(d))

    @classmethod
    def from_diagonal(cls, weights) -> "MahalanobisMetric":
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1:
            raise ConfigurationError("diagonal weights must be a vector")
        return cls(np.diag(w))


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
class TripletSet:
    """Triplets stored as an (m, 3) index array, plus the sigma used to build them."""

    indices: np.ndarray
    sigma: float

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.size == 0:
            idx = idx.reshape(0, 3)
        if idx.ndim != 2 or idx.shape[1] != 3:
            raise ConfigurationError(f"triplet indices must be (m, 3), got {idx.shape}")
        if idx.size and idx.min() < 0:
            raise ConfigurationError("triplet indices must be nonnegative")
        if idx.size and (
            np.any(idx[:, 0] == idx[:, 1])
            or np.any(idx[:, 0] == idx[:, 2])
            or np.any(idx[:, 1] == idx[:, 2])
        ):
            raise ConfigurationError("triplet rows must have pairwise distinct indices")
        if self.sigma < 0:
            raise ConfigurationError(f"sigma must be nonnegative, got {self.sigma}")
        object.__setattr__(self, "indices", _readonly(idx))
        object.__setattr__(self, "sigma", float(self.sigma))

    def __len__(self) -> int:
        return self.indices.shape[0]


@dataclass(frozen=True)
class PairSets:
    """Unordered index pairs (stored with i < j): equal-rating vs unequal-rating."""

    similar: np.ndarray
    dissimilar: np.ndarray

    def __post_init__(self):
        for name in ("similar", "dissimilar"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            if arr.size == 0:
                arr = arr.reshape(0, 2)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ConfigurationError(f"{name} pairs must be (m, 2), got {arr.shape}")
            if arr.size and not np.all(arr[:, 0] < arr[:, 1]):
                raise ConfigurationError(f"{name} pairs must be canonical (i < j, no self-pairs)")
            object.__setattr__(self, name, _readonly(arr))

    @property
    def n_similar(self) -> int:
        return self.similar.shape[0]

    @property
    def n_dissimilar(self) -> int:
        return self.dissimilar.shape[0]


@dataclass(frozen=True)
class CellStats:
    """Mean and sample standard deviation of one loss across repeated splits."""

    mean: float
    std: float
    n_repeats: int


LOSS_TRIPLET = "triplet_violation"
LOSS_KNN_L1 = "knn_l1"
LOSS_KNN_L2 = "knn_l2"
LOSS_NAMES = (LOSS_TRIPLET, LOSS_KNN_L1, LOSS_KNN_L2)


@dataclass(frozen=True)
class EvalReport:
    """Per (metric, loss) aggregate over repeats. Missing cells mean the learner failed."""

    cells: dict[tuple[str, str], CellStats]
    metric_names: tuple[str, ...]
    loss_names: tuple[str, ...] = LOSS_NAMES
    provenance: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for (metric, loss), cell in self.cells.items():
            if loss == LOSS_TRIPLET and not (0.0 <= cell.mean <= 1.0):
                raise InvariantError(
                    f"triplet loss mean {cell.mean} for {metric!r} outside [0, 1]"
                )
            if loss in (LOSS_KNN_L1, LOSS_KNN_L2) and cell.mean < 0:
                raise InvariantError(f"kNN loss mean {cell.mean} for {metric!r} negative")

    def cell(self, metric: str, loss: str) -> CellStats | None:
        return self.cells.get((metric, loss))


def require_finite(name: str, value: float) -> None:
    """Reject nan and inf, which pass every range check: comparisons with nan are false."""
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of the split/repeat protocol and the learners.

    Defaults follow the experimental protocol: 140/60 split, 10 repeats,
    5 neighbors, alpha = 0.01.
    """

    train_size: int = 140
    test_size: int = 60
    n_repeats: int = 10
    k_neighbors: int = 5
    sigma_train: float = 0.0
    sigma_test: float = 0.0
    alpha: float = 0.01
    triplet_subsample: int = 5000
    rng_seed: int = 0
    triplet_variant: str = "literal"
    mmc_form: str = "full"
    lmnn_k_targets: int = 3
    lmnn_mu: float = 0.5
    lsml_max_iter: int = 1000
    lsml_tol: float = 1e-6
    lmnn_max_iter: int = 300
    lmnn_tol: float = 1e-6
    mmc_max_iter: int = 300
    mmc_tol: float = 1e-6

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float):
                require_finite(name, value)
        positive = {
            "train_size": self.train_size,
            "test_size": self.test_size,
            "n_repeats": self.n_repeats,
            "k_neighbors": self.k_neighbors,
            "triplet_subsample": self.triplet_subsample,
            "lmnn_k_targets": self.lmnn_k_targets,
            "lsml_max_iter": self.lsml_max_iter,
            "lmnn_max_iter": self.lmnn_max_iter,
            "mmc_max_iter": self.mmc_max_iter,
        }
        for name, value in positive.items():
            if value < 1:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        for name in ("lsml_tol", "lmnn_tol", "mmc_tol"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.k_neighbors > self.train_size:
            raise ConfigurationError(
                f"k_neighbors = {self.k_neighbors} exceeds train_size = {self.train_size}"
            )
        if self.alpha <= 0:
            raise ConfigurationError(f"alpha must be > 0, got {self.alpha}")
        if self.sigma_train < 0 or self.sigma_test < 0:
            raise ConfigurationError("sigma_train and sigma_test must be nonnegative")
        if self.triplet_variant not in TRIPLET_VARIANTS:
            raise ConfigurationError(f"unknown triplet variant {self.triplet_variant!r}")
        if self.mmc_form not in MMC_FORMS:
            raise ConfigurationError(f"unknown MMC form {self.mmc_form!r}")
        if not 0.0 < self.lmnn_mu < 1.0:
            raise ConfigurationError(f"lmnn_mu must lie in (0, 1), got {self.lmnn_mu}")


def subseed(root_seed: int, repeat: int, stream: int) -> np.random.Generator:
    """Counter-based seed derivation: one independent generator per (repeat, stream)."""
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=(repeat, stream)))
