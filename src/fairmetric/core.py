"""Domain types shared across the toolkit: datasets, metrics, constraint sets, config.

All types are immutable after construction (arrays are marked read-only), so they
can be shared freely across concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from .errors import ConfigurationError, InvariantError
from .numerics import check_symmetric

PSD_TOL = 1e-8  # |lambda_min| slack tolerated as float noise
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
    purely numerical pipelines can leave it unset. Derived datasets are
    `dataclasses.replace` copies: they name only the fields they change, and
    `__post_init__` checks the result.
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
        """The rows at `indices`, in that order, with their labels and ids."""
        idx = np.asarray(indices, dtype=np.int64)
        ids = None if self.ids is None else tuple(self.ids[i] for i in idx)
        return replace(self, features=self.features[idx], labels=self.labels[idx], ids=ids)


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
        check_symmetric(m)
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


@dataclass(frozen=True)
class TripletSet:
    """Triplets stored as an (m, 3) index array."""

    indices: np.ndarray

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
        object.__setattr__(self, "indices", _readonly(idx))

    def __len__(self) -> int:
        return self.indices.shape[0]


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
    """Grid of per-cell aggregates over repeats, plus one `evaluation.RepeatOutcome` per repeat.

    figure1: menu entries x losses. Sweep: test sigmas x menu entries, each cell
    the loss `provenance["loss"]`. A cell is None where no repeat scored it.
    """

    cells: dict[tuple, CellStats | None]
    rows: tuple
    columns: tuple
    provenance: dict[str, str] = field(default_factory=dict)
    outcomes: list = field(default_factory=list)

    def __post_init__(self):
        for (row, column), cell in self.cells.items():
            if cell is None:
                continue
            loss = column if column in LOSS_NAMES else self.provenance.get("loss")
            if loss == LOSS_TRIPLET and not (0.0 <= cell.mean <= 1.0):
                raise InvariantError(
                    f"triplet loss mean {cell.mean} at ({row!r}, {column!r}) outside [0, 1]"
                )
            if loss in (LOSS_KNN_L1, LOSS_KNN_L2) and cell.mean < 0:
                raise InvariantError(f"kNN loss mean {cell.mean} at ({row!r}, {column!r}) negative")

    def cell(self, row, column) -> CellStats | None:
        return self.cells.get((row, column))


def require_finite(name: str, value: float) -> None:
    """Reject nan and inf, which pass every range check: comparisons with nan are false."""
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")


_SIGNS = {"positive": lambda v: v > 0, "nonnegative": lambda v: v >= 0}


def config_field(section: str, default=MISSING, *, key=None, sign=None, choices=()):
    """A key of the experiment config file, declared once as a dataclass field.

    The field states its [section], its key (the field name unless `key` is
    given), its default (none: the config must set it) and the checks that
    `check_config_fields` runs on its value, or on each item of a comma list.
    """
    meta = {"section": section, "key": key, "sign": sign, "choices": choices}
    return field(default=default, metadata=meta)


def config_key(spec) -> str:
    """The config-file key of a field declared by `config_field`."""
    return spec.metadata["key"] or spec.name


def check_config_fields(obj) -> None:
    """Run the declared checks of every `config_field` of a dataclass instance.

    A number must be finite and of its sign, a string one of its choices, and a
    comma list nonempty, without repeats. An unset optional value (None) passes.
    """
    for spec in fields(obj):
        value = getattr(obj, spec.name)
        if "section" not in spec.metadata or value is None:
            continue
        name, sign, choices = config_key(spec), spec.metadata["sign"], spec.metadata["choices"]
        items = value if isinstance(value, tuple) else (value,)
        if not items:
            raise ConfigurationError(f"{name}: empty list")
        for item in items:
            if isinstance(item, float):
                require_finite(name, item)
            if sign and not _SIGNS[sign](item):
                raise ConfigurationError(f"{name} must be {sign}, got {item}")
            if choices and item not in choices:
                raise ConfigurationError(f"{name}: unknown {item!r} (known: {', '.join(choices)})")
            if items.count(item) > 1:
                raise ConfigurationError(f"{name}: {item!r} repeated")


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of the split/repeat protocol and the learners.

    Defaults follow the experimental protocol: 140/60 split, 10 repeats,
    5 neighbors, alpha = 0.01.
    """

    train_size: int = config_field("experiment", 140, sign="positive")
    test_size: int = config_field("experiment", 60, sign="positive")
    n_repeats: int = config_field("experiment", 10, sign="positive")
    k_neighbors: int = config_field("experiment", 5, sign="positive")
    sigma_train: float = config_field("experiment", 0.0, sign="nonnegative")
    sigma_test: float = config_field("experiment", 0.0, sign="nonnegative")
    alpha: float = config_field("learners", 0.01, sign="positive")
    triplet_subsample: int = config_field("experiment", 5000, sign="positive")
    rng_seed: int = config_field("experiment", 0, key="seed", sign="nonnegative")
    triplet_variant: str = config_field("experiment", "literal", choices=TRIPLET_VARIANTS)
    mmc_form: str = config_field("learners", "full", choices=MMC_FORMS)
    lmnn_k_targets: int = config_field("learners", 3, sign="positive")
    lmnn_mu: float = config_field("learners", 0.5)
    lsml_max_iter: int = config_field("learners", 1000, sign="positive")
    lsml_tol: float = config_field("learners", 1e-6, sign="nonnegative")
    lmnn_max_iter: int = config_field("learners", 300, sign="positive")
    lmnn_tol: float = config_field("learners", 1e-6, sign="nonnegative")
    mmc_max_iter: int = config_field("learners", 300, sign="positive")
    mmc_tol: float = config_field("learners", 1e-6, sign="nonnegative")

    def __post_init__(self):
        check_config_fields(self)
        if self.k_neighbors > self.train_size:
            raise ConfigurationError(
                f"k_neighbors = {self.k_neighbors} exceeds train_size = {self.train_size}"
            )
        if not 0.0 < self.lmnn_mu < 1.0:
            raise ConfigurationError(f"lmnn_mu must lie in (0, 1), got {self.lmnn_mu}")


def subseed(root_seed: int, repeat: int, stream: int) -> np.random.Generator:
    """Counter-based seed derivation: one independent generator per (repeat, stream)."""
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=(repeat, stream)))
