"""Evaluation losses and the split/repeat experiment protocol.

The protocol per repeat: draw a disjoint train/test split, z-score with
train-fold statistics, build constraints on each fold with its own sigma, fit
every learner on the train fold, and score each learned metric on the test fold
with the triplet-violation loss and the two kNN losses. Repeats share splits
across learners (paired comparison) and aggregate to mean and sample standard
deviation. The sigma sweep runs the same repeat body, with one LSML menu entry
per training sigma and one test-fold rule per test sigma, and scores only the
triplet-violation loss. `run_experiment` and `sigma_sweep` both return one
`EvalReport`: the grid of cells, its provenance, and per repeat each fit's
metric, optimizer trace and failure reason.

No triplet set is enumerated: training triplets are sampled by rank, the test
set is kept as its rule and size, and the violation loss is counted per anchor
from one test x test distance matrix per metric, so a fold needs O(n^2) memory.
The tests hold these kernels to the brute-force references in `reference`:
the enumerated set scored triplet by triplet, and every pair's distance.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .constraints import TripletRule, describe_triplets, sample_triplets
from .core import (
    LOSS_KNN_L1,
    LOSS_KNN_L2,
    LOSS_NAMES,
    LOSS_TRIPLET,
    CellStats,
    EvalReport,
    ExperimentConfig,
    LabeledDataset,
    MahalanobisMetric,
    subseed,
)
from .errors import ConfigurationError, EvaluationError, FairmetricError
from .ingest import standardize
from .numerics import quad_forms
from .learners import (
    OptimizerTrace,
    euclidean_baseline,
    fit_lmnn,
    fit_lsml,
    fit_mmc,
    precision_baseline,
)
# unused here: the benchmark's tracer wraps these by name in this module (until ROADMAP item 1)
from .reference import build_pairs, build_triplets, subsample_triplets, triplet_violation_loss  # noqa: F401

ZERO_NEIGHBOR_DISTANCE = 1e-12


def fold_distances(metric: MahalanobisMetric, fold: LabeledDataset) -> np.ndarray:
    """(n, n) d_M between the rows of a fold; its diagonal is exactly 0.

    Each pair i < j is computed once and mirrored. A negated difference has the
    same quadratic form, so the result equals `reference.cross_distances(fold, fold)`.
    """
    x = fold.features
    i, j = np.triu_indices(x.shape[0], 1)
    out = np.zeros((x.shape[0], x.shape[0]))
    out[i, j] = out[j, i] = np.sqrt(np.maximum(quad_forms(x[i] - x[j], metric.matrix), 0.0))
    return out


def counted_violation_loss(distances: np.ndarray, rule: TripletRule) -> float:
    """`reference.triplet_violation_loss` over the rule's triplet set, counted per anchor.

    `distances` is the fold's `fold_distances`, whose zero diagonal the per-label masks rely on.
    """
    if rule.total == 0:
        raise EvaluationError("cannot score an empty triplet set")
    violations = 0
    for anchors, valid in rule.label_masks:
        for d in distances[anchors]:
            violations += int(np.count_nonzero(valid & (d[:, None] > d[None, :])))
    return violations / rule.total


def _screen_margin(m: np.ndarray, q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """delta_i = (4d + 12) eps |M|_F (|q_i|^2 + max_j |x_j|^2), the kNN screen's margin per query row.

    Let g' and e' be the Gram and difference forms of the squared distance,
    clamped at 0, and C = (|q_i| + |x_j|)^T |M| (|q_i| + |x_j|). Each form
    takes two d-term dot products, plus two sums (Gram) or the difference
    q_i - x_j, so each lies within gamma_(2d+3) C of the exact squared
    distance (gamma_n = n u / (1 - n u), u = eps / 2; Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3), whatever order BLAS sums in;
    clamping only moves a form toward it. As C <= 2 |M|_F (|q_i|^2 +
    |x_j|^2), |g' - e'| <= (4d + 6)(1 + O(eps)) eps |M|_F (|q_i|^2 + |x_j|^2).
    Two squares whose square roots round alike differ by at most 2 eps of
    themselves, and e' <= 2 (1 + O(eps)) |M|_F (...), so delta_i also covers
    that gap, with room for the rounding of the screen's own sums.

    Hence every row keeps each neighbor the stable sort of rounded
    distances can pick: the k candidates with the smallest g' have e' <=
    g'_(k) + delta_i, so the k-th smallest e' does too, and any j the sort
    can rank among the first k has g'_j <= g'_(k) + 2 delta_i.
    """
    widest = float(np.einsum("ij,ij->i", x, x).max())
    scale = (4 * m.shape[0] + 12) * np.finfo(float).eps * float(np.linalg.norm(m))
    return scale * (np.einsum("ij,ij->i", q, q) + widest)


def knn_predictions(metric: MahalanobisMetric, train: LabeledDataset, queries, k: int) -> np.ndarray:
    """Inverse-distance weighted rating of the k nearest training points, per query row.

    Ties at the k-boundary break toward the lower training index; neighbors at
    (numerically) zero distance short-circuit to the plain mean of their labels.
    The neighbors and their distances are exactly those of a stable sort of
    `reference.cross_distances`, but only a few candidates per row get that
    exact difference form. A Gram form g_ij = s_i + t_j - 2 q_i M x_j^T (s, t
    the quad forms of the rows) screens them: each row keeps every j with
    max(g_ij, 0) within 2 delta_i of the k-th smallest (see
    `_screen_margin`), and recomputes those.
    """
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    if k > train.n:
        raise ConfigurationError(f"k={k} exceeds training size {train.n}")
    q = np.asarray(queries, dtype=float)
    if q.ndim != 2 or not np.all(np.isfinite(q)):
        raise ConfigurationError(f"queries must be a 2-D array of finite values, got shape {q.shape}")
    if q.shape[1] != train.d:
        raise ConfigurationError(f"query has dimension {q.shape[1]}, train has {train.d}")
    m, x = metric.matrix, train.features
    gram = quad_forms(q, m)[:, None] + quad_forms(x, m)[None, :] - 2.0 * ((q @ m) @ x.T)
    np.maximum(gram, 0.0, out=gram)
    limit = np.partition(gram, k - 1, axis=1)[:, k - 1] + 2.0 * _screen_margin(m, q, x)
    # "not above" rather than "at most": an entry or limit that overflowed to NaN keeps its candidates
    rows, cols = np.nonzero(~(gram > limit[:, None]))
    dists = np.sqrt(np.maximum(quad_forms(q[rows] - x[cols], m), 0.0))
    # by (row, distance, training index): the candidates come row-major, and lexsort is stable
    order = np.lexsort((dists, rows))
    per_row = np.bincount(rows, minlength=q.shape[0])
    nearest = order[(np.cumsum(per_row) - per_row)[:, None] + np.arange(k)]
    near_labels = train.labels[cols[nearest]].astype(float)
    near_dists = dists[nearest]
    preds = np.empty(q.shape[0])
    # row by row: a batched weighted sum would not round like the 1-D dot product
    for i, (labels, near_d) in enumerate(zip(near_labels, near_dists)):
        exact = near_d < ZERO_NEIGHBOR_DISTANCE
        if np.any(exact):
            preds[i] = labels[exact].mean()
        else:
            inv = 1.0 / near_d
            preds[i] = (inv / inv.sum()) @ labels
    return preds


def knn_predict(metric: MahalanobisMetric, train: LabeledDataset, x, k: int) -> float:
    """`knn_predictions` for a single query point."""
    return float(knn_predictions(metric, train, np.asarray(x, dtype=float).reshape(1, -1), k)[0])


def _knn_errors(metric, train: LabeledDataset, test: LabeledDataset, k: int) -> np.ndarray:
    return knn_predictions(metric, train, test.features, k) - test.labels


def knn_l1(metric: MahalanobisMetric, train: LabeledDataset, test: LabeledDataset, k: int) -> float:
    """Mean absolute gap between the weighted-neighbor rating and the true rating."""
    return float(np.mean(np.abs(_knn_errors(metric, train, test, k))))


def knn_l2(metric: MahalanobisMetric, train: LabeledDataset, test: LabeledDataset, k: int) -> float:
    """Mean squared gap between the weighted-neighbor rating and the true rating."""
    return float(np.mean(np.square(_knn_errors(metric, train, test, k))))


# ---------------------------------------------------------------------------
# Experiment runner


@dataclass(frozen=True)
class RepeatData:
    """One repeat's folds (features already standardized) and the test fold's triplet rules.

    `test_rules` holds one rule per test sigma, or None where the test fold
    has no triplet at that sigma (or n < 3).
    """

    repeat: int
    train: LabeledDataset
    test: LabeledDataset
    test_rules: tuple[TripletRule | None, ...]


@dataclass
class RepeatOutcome:
    repeat: int
    # entry name -> {loss name (figure1) or test sigma (sweep): loss}
    losses: dict[str, dict] = field(default_factory=dict)
    metrics: dict[str, MahalanobisMetric] = field(default_factory=dict)
    traces: dict[str, OptimizerTrace | None] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)


def split_indices(n: int, config: ExperimentConfig, repeat: int) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint train/test row indices for one repeat, derived from the root seed."""
    if config.train_size + config.test_size > n:
        raise ConfigurationError(
            f"train+test = {config.train_size + config.test_size} exceeds n = {n}"
        )
    rng = subseed(config.rng_seed, repeat, 0)
    chosen = rng.choice(n, size=config.train_size + config.test_size, replace=False)
    return chosen[: config.train_size], chosen[config.train_size :]


def prepare_repeat(
    dataset: LabeledDataset, config: ExperimentConfig, repeat: int, sigma_tests
) -> RepeatData:
    """Split, z-score both folds with train statistics, and describe the test triplets per sigma."""
    train_idx, test_idx = split_indices(dataset.n, config, repeat)
    train, stats = standardize(dataset.subset(train_idx))
    test, _ = standardize(dataset.subset(test_idx), stats)
    rules = []
    for sigma in sigma_tests:
        rule = describe_triplets(test, sigma, config.triplet_variant) if test.n >= 3 else None
        rules.append(rule if rule is not None and rule.total else None)
    return RepeatData(repeat=repeat, train=train, test=test, test_rules=tuple(rules))


def _lsml_entry(config: ExperimentConfig, sigma: float):
    """LSML on training triplets drawn at `sigma`; the draw's seed depends only on the repeat."""

    def fit(data: RepeatData):
        triplets = sample_triplets(
            data.train,
            sigma,
            config.triplet_subsample,
            subseed(config.rng_seed, data.repeat, 1),
            config.triplet_variant,
        )
        return fit_lsml(data.train, triplets, config)

    return fit


def _learner_entry(name: str, config: ExperimentConfig):
    if name == "euclidean":
        return lambda data: (euclidean_baseline(data.train.d), None)
    if name == "precision":
        return lambda data: (precision_baseline(data.train), None)
    if name == "lmnn":
        return lambda data: fit_lmnn(data.train, config)
    if name == "mmc":
        return lambda data: fit_mmc(data.train, config)
    if name == "lsml":
        return _lsml_entry(config, config.sigma_train)
    raise ConfigurationError(f"unknown learner {name!r}")


DEFAULT_MENU = ("euclidean", "precision", "lmnn", "mmc", "lsml")  # every learner, report order


def build_learner_menu(names, config: ExperimentConfig):
    return {name: _learner_entry(name, config) for name in names}


def violation_losses(metric: MahalanobisMetric, data: RepeatData) -> dict[float, float]:
    """Triplet-violation loss on the test fold at each test sigma that has a rule.

    The fold's distance matrix is computed once and counted against every rule.
    """
    rules = [rule for rule in data.test_rules if rule is not None]
    if not rules:
        return {}
    distances = fold_distances(metric, data.test)
    return {rule.sigma: counted_violation_loss(distances, rule) for rule in rules}


def score_metric(
    metric: MahalanobisMetric, data: RepeatData, k: int
) -> dict[str, float]:
    # figure1 describes one test sigma, so there is at most one violation loss
    losses = {LOSS_TRIPLET: loss for loss in violation_losses(metric, data).values()}
    errors = _knn_errors(metric, data.train, data.test, k)
    losses[LOSS_KNN_L1] = float(np.mean(np.abs(errors)))
    losses[LOSS_KNN_L2] = float(np.mean(np.square(errors)))
    return losses


def _run_one_repeat(dataset, config, menu, sigma_tests, score, repeat) -> RepeatOutcome:
    """Fit and score every menu entry on one repeat; a FairmetricError is that entry's failure."""
    data = prepare_repeat(dataset, config, repeat, sigma_tests)
    outcome = RepeatOutcome(repeat=repeat)
    for name, fit in menu.items():
        try:
            metric, trace = fit(data)
            outcome.metrics[name] = metric
            outcome.traces[name] = trace
            outcome.losses[name] = score(metric, data)
        except FairmetricError as exc:
            outcome.failures[name] = str(exc)
    return outcome


def _cell_stats(values) -> CellStats | None:
    """Mean and sample standard deviation of per-repeat losses; None when there are none."""
    if not values:
        return None
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return CellStats(float(arr.mean()), std, arr.size)


def aggregate_cells(outcomes: list[RepeatOutcome], entries, keys) -> dict[tuple, CellStats | None]:
    """(entry, key) -> `_cell_stats` of `losses[entry][key]` over the repeats that scored it."""
    return {
        (entry, key): _cell_stats(
            [o.losses[entry][key] for o in outcomes if key in o.losses.get(entry, {})]
        )
        for entry in entries
        for key in keys
    }


def _map_repeats(fn, n_repeats: int, threads: int) -> list:
    """[fn(0), ..., fn(n_repeats - 1)], on `threads` worker threads when threads > 1."""
    if threads > 1:
        # looked up at call time: the benchmark's tracer swaps in its own executor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(n_repeats)))
    return [fn(r) for r in range(n_repeats)]


def _provenance(config: ExperimentConfig, dataset: LabeledDataset, **own: str) -> dict[str, str]:
    """The provenance keys both report modes write, plus the mode's `own`."""
    return {
        "label_source": dataset.source_tag,
        "triplet_variant": config.triplet_variant,
        "seed": repr(config.rng_seed),
        "dispersion": "sample standard deviation",
        **own,
    }


def run_experiment(
    config: ExperimentConfig,
    dataset: LabeledDataset,
    learner_menu=None,
    threads: int = 1,
) -> EvalReport:
    """Run the split/repeat protocol into a report of menu entries x losses.

    `learner_menu` (default: every learner) maps each name to a function of a
    `RepeatData` that returns `(metric, OptimizerTrace or None)`.
    """
    menu = learner_menu if learner_menu is not None else build_learner_menu(DEFAULT_MENU, config)
    score = partial(score_metric, k=config.k_neighbors)
    outcomes = _map_repeats(
        lambda r: _run_one_repeat(dataset, config, menu, (config.sigma_test,), score, r),
        config.n_repeats,
        threads,
    )
    return EvalReport(
        cells=aggregate_cells(outcomes, tuple(menu), LOSS_NAMES),
        rows=tuple(menu),
        columns=LOSS_NAMES,
        provenance=_provenance(
            config,
            dataset,
            sigma_train=repr(config.sigma_train),
            sigma_test=repr(config.sigma_test),
        ),
        outcomes=outcomes,
    )


run_experiment_detailed = run_experiment  # the name the CLI calls, which the benchmark traces


# ---------------------------------------------------------------------------
# Sigma sweep (train-threshold columns vs test-threshold rows)


def lsml_column_name(sigma: float) -> str:
    return f"lsml(sigma={sigma:g})"


def require_distinct_sigmas(name: str, sigmas) -> None:
    """Reject sigmas that repeat, or read alike in the `:g` names of sweep rows and columns."""
    labels = [f"{s:g}" for s in sigmas]
    if len(set(labels)) < len(labels) or len(set(sigmas)) < len(labels):
        raise ConfigurationError(f"{name}: entries must differ in 6 significant digits: {sigmas}")


def sigma_sweep(
    config: ExperimentConfig,
    dataset: LabeledDataset,
    sigma_train_list,
    sigma_test_list,
    threads: int = 1,
) -> EvalReport:
    """Triplet-violation loss of Euclidean vs LSML(sigma) across test thresholds.

    Rows are test sigmas, columns `euclidean` and one LSML entry per training
    sigma. All cells of one repeat share the same split, so columns are paired;
    the Euclidean column varies only through the test-side triplet sets.
    """
    sigma_train_list = [float(s) for s in sigma_train_list]
    sigma_test_list = [float(s) for s in sigma_test_list]
    if not sigma_train_list or not sigma_test_list:
        raise ConfigurationError("sigma sweep needs nonempty train and test sigma lists")
    require_distinct_sigmas("sigma_train_list", sigma_train_list)
    require_distinct_sigmas("sigma_test_list", sigma_test_list)
    columns = ("euclidean",) + tuple(lsml_column_name(s) for s in sigma_train_list)
    menu = build_learner_menu(("euclidean",), config)
    menu.update({lsml_column_name(s): _lsml_entry(config, s) for s in sigma_train_list})
    outcomes = _map_repeats(
        lambda r: _run_one_repeat(dataset, config, menu, sigma_test_list, violation_losses, r),
        config.n_repeats,
        threads,
    )
    cells = aggregate_cells(outcomes, columns, sigma_test_list)
    return EvalReport(
        cells={(t, name): cell for (name, t), cell in cells.items()},
        rows=tuple(sigma_test_list),
        columns=columns,
        provenance=_provenance(config, dataset, loss=LOSS_TRIPLET),
        outcomes=outcomes,
    )
