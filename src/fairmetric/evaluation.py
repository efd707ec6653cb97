"""Evaluation losses and the split/repeat experiment protocol.

The protocol per repeat: draw a disjoint train/test split, z-score with
train-fold statistics, build constraints on each fold with its own sigma, fit
every learner on the train fold, and score each learned metric on the test fold
with the triplet-violation loss and the two kNN losses. Repeats share splits
across learners (paired comparison) and aggregate to mean and sample standard
deviation. The sigma sweep runs the same repeat body, with one LSML menu entry
per training sigma and one test-fold rule per test sigma, and scores only the
triplet-violation loss. `run_experiment` and `sigma_sweep` both return one
`EvalReport`: the grid of cells, its provenance, and one `FitRecord` per
(repeat, menu entry) with that fit's metric, optimizer trace, losses and failure.

No triplet set is enumerated: training triplets are sampled by rank and the
test set is kept as its rule and size. Per metric, one test x test distance
matrix gives one label-triple census, the number of (a, b, c) with
d(a, c) < d(a, b) per triple of label indices, in O(n^2 L) time and O(n^2)
memory, and every test rule's violation count is a sum over it.
The tests hold these kernels to the brute-force references in `reference`:
the enumerated set scored triplet by triplet, and every pair's distance.
"""

from __future__ import annotations

import itertools
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
FOLD_PAIR_BLOCK = 1024  # pairs per `quad_forms` call in `fold_distances`: 80 KB temporaries at d = 10


def fold_distances(metric: MahalanobisMetric, fold: LabeledDataset) -> np.ndarray:
    """(n, n) d_M between the rows of a fold; its diagonal is exactly 0.

    Each pair i < j is computed once and mirrored. A negated difference has the
    same quadratic form, so the result equals `reference.cross_distances(fold, fold)`.
    The pairs go in blocks of `FOLD_PAIR_BLOCK`, so the difference rows are
    temporaries below glibc's mmap threshold (128 KB) that the heap reuses,
    rather than arrays mapped and faulted in afresh on every call. A product of
    one row takes BLAS's matrix-vector path, which rounds differently, so a
    lone last pair joins the block before it, and the one pair of a two-row
    fold goes beside its mirror.
    """
    x = fold.features
    i, j = np.triu_indices(x.shape[0], 1)
    if i.size == 1:
        i, j = np.append(i, j), np.append(j, i)
    out = np.zeros((x.shape[0], x.shape[0]))
    bounds = [*range(0, max(i.size - 1, 1), FOLD_PAIR_BLOCK), i.size]
    for start, stop in zip(bounds, bounds[1:]):
        a, b = i[start:stop], j[start:stop]
        diff = np.take(x, a, axis=0) - np.take(x, b, axis=0)
        out[a, b] = out[b, a] = np.sqrt(np.maximum(quad_forms(diff, metric.matrix), 0.0))
    return out


def _label_triple_census(distances: np.ndarray, codes: np.ndarray, c_labels) -> np.ndarray:
    """(L, L, L) N[u_a, u_b, u_c]: the number of (a, b, c) with those label indices and d(a, c) < d(a, b).

    `codes` holds each row's label index. Only the u_c in `c_labels` are
    counted; the other planes stay 0. Each row a of `distances` is sorted
    once. The left rank of an entry is the number of entries in its row
    strictly below it: the position where its run of equal values starts. A
    nan gets left rank 0, as it compares false with everything; it sorts
    last, so it never lies below another entry either. For each counted u_c,
    one cumulative sum of (label == u_c) along the sorted rows, read at the
    left ranks, gives each (a, b) its number of c, and one `bincount` sums
    those per (u_a, u_b). The sums run in float and are exact while every
    count stays below 2^53.
    """
    n, size = codes.size, int(codes.max()) + 1
    order = np.argsort(distances, axis=1)
    ranked = np.take_along_axis(distances, order, axis=1)
    starts = np.ones((n, n), dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=starts[:, 1:])
    left = np.where(starts, np.arange(n), 0)
    np.maximum.accumulate(left, axis=1, out=left)
    left[np.isnan(ranked)] = 0
    flat_left = (left + np.arange(0, n * (n + 1), n + 1)[:, None]).ravel()  # into (n, n + 1) rows
    sorted_codes = codes[order]
    pair_key = (codes[:, None] * size + sorted_codes).ravel()  # u_a * L + u_b per sorted entry
    census = np.zeros((size, size, size))
    seen = np.zeros((n, n + 1))  # seen[a, r]: rows labelled u_c among the first r of row a's sort
    for u_c in c_labels:
        np.cumsum(sorted_codes == u_c, axis=1, out=seen[:, 1:])
        below = np.bincount(pair_key, weights=seen.ravel()[flat_left], minlength=size * size)
        census[:, :, u_c] = below.reshape(size, size)
    return census


def counted_violation_losses(distances: np.ndarray, rules) -> dict[float, float]:
    """`reference.triplet_violation_loss` over each rule's set, keyed by its sigma.

    `distances` is the fold's `fold_distances` and `rules` are rules of that
    fold. The violation count depends on the labels only through the triple
    (S_a, S_b, S_c), so one `_label_triple_census` of the fold serves every
    rule: a rule's count is the census summed over its table. The census
    counts every row as c, c = a included, but no table admits u_c = u_a.
    A table admits b = a, which counts nothing on the zero diagonal.
    """
    if any(rule.total == 0 for rule in rules):
        raise EvaluationError("cannot score an empty triplet set")
    admitted = np.any([rule.table for rule in rules], axis=(0, 1, 2))
    census = _label_triple_census(distances, rules[0].codes, np.flatnonzero(admitted))
    return {rule.sigma: int(census[rule.table].sum()) / rule.total for rule in rules}


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
    dists = np.sqrt(np.maximum(quad_forms(np.take(q, rows, axis=0) - np.take(x, cols, axis=0), m), 0.0))
    # by (row, distance, training index): the candidates come row-major, and lexsort is stable
    order = np.lexsort((dists, rows))
    per_row = np.bincount(rows, minlength=q.shape[0])
    nearest = order[(np.cumsum(per_row) - per_row)[:, None] + np.arange(k)]
    near_labels = train.labels[cols[nearest]].astype(float)
    near_dists = dists[nearest]
    exact = near_dists < ZERO_NEIGHBOR_DISTANCE
    flagged = exact.any(axis=1)
    inv = 1.0 / np.where(flagged[:, None], 1.0, near_dists)
    weights = inv / inv.sum(axis=1, keepdims=True)
    # a stacked matmul takes each row's 1-D dot product; einsum would round differently
    preds = np.matmul(weights[:, None, :], near_labels[:, :, None])[:, 0, 0]
    # integer labels sum exactly, so each flagged row gets its exact neighbors' mean bit for bit
    exact_sums = np.where(exact, near_labels, 0.0).sum(axis=1)
    preds[flagged] = exact_sums[flagged] / exact.sum(axis=1)[flagged]
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

    `test_rules` holds the rule of each test sigma, in order, at which the test
    fold has a triplet; each rule carries its sigma.
    """

    repeat: int
    train: LabeledDataset
    test: LabeledDataset
    test_rules: tuple[TripletRule, ...]


@dataclass(frozen=True)
class FitRecord:
    """One fit: a menu entry on one repeat.

    `metric` and `trace` are None when the fit raised; `trace` is None for the
    two baselines too. `losses` maps each loss name (figure1) or test sigma
    (sweep) to its loss; it is empty when the fit or its scoring raised, and
    `failure` then holds the error text. A fit whose scoring raised keeps its metric.
    """

    repeat: int
    entry: str
    metric: MahalanobisMetric | None = None
    trace: OptimizerTrace | None = None
    losses: dict = field(default_factory=dict)
    failure: str | None = None


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
    sigmas = sigma_tests if test.n >= 3 else ()  # a triplet needs three rows
    rules = (describe_triplets(test, sigma, config.triplet_variant) for sigma in sigmas)
    test_rules = tuple(rule for rule in rules if rule.total)
    return RepeatData(repeat=repeat, train=train, test=test, test_rules=test_rules)


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

    The fold's distance matrix and its label-triple census are computed once for every rule.
    """
    if not data.test_rules:
        return {}
    return counted_violation_losses(fold_distances(metric, data.test), data.test_rules)


def score_metric(
    metric: MahalanobisMetric, data: RepeatData, k: int
) -> dict[str, float]:
    # figure1 describes one test sigma, so there is at most one violation loss
    losses = {LOSS_TRIPLET: loss for loss in violation_losses(metric, data).values()}
    errors = _knn_errors(metric, data.train, data.test, k)
    losses[LOSS_KNN_L1] = float(np.mean(np.abs(errors)))
    losses[LOSS_KNN_L2] = float(np.mean(np.square(errors)))
    return losses


def _fit_repeats(dataset, config, menu, sigma_tests, score, threads: int) -> tuple[FitRecord, ...]:
    """Fit and score every menu entry on every repeat, on `threads` worker threads when threads > 1.

    The records come repeat by repeat, in menu order. A FairmetricError is that fit's failure.
    """

    def fit_repeat(repeat: int) -> list[FitRecord]:
        data = prepare_repeat(dataset, config, repeat, sigma_tests)
        records = []
        for name, fit in menu.items():
            metric = trace = None
            try:
                metric, trace = fit(data)
                records.append(FitRecord(repeat, name, metric, trace, score(metric, data)))
            except FairmetricError as exc:
                records.append(FitRecord(repeat, name, metric, trace, failure=str(exc)))
        return records

    if threads > 1:
        # looked up at call time: the benchmark's tracer swaps in its own executor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_repeat = list(pool.map(fit_repeat, range(config.n_repeats)))
    else:
        per_repeat = [fit_repeat(r) for r in range(config.n_repeats)]
    return tuple(itertools.chain.from_iterable(per_repeat))


def _cell_stats(values) -> CellStats | None:
    """Mean and sample standard deviation of per-repeat losses; None when there are none."""
    if not values:
        return None
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return CellStats(float(arr.mean()), std, arr.size)


def aggregate_cells(fits, entries, keys) -> dict[tuple, CellStats | None]:
    """(entry, key) -> `_cell_stats` of `losses[key]` over the entry's fits that scored it."""
    return {
        (entry, key): _cell_stats([f.losses[key] for f in fits if f.entry == entry and key in f.losses])
        for entry in entries
        for key in keys
    }


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
    fits = _fit_repeats(dataset, config, menu, (config.sigma_test,), score, threads)
    return EvalReport(
        cells=aggregate_cells(fits, tuple(menu), LOSS_NAMES),
        rows=tuple(menu),
        columns=LOSS_NAMES,
        provenance=_provenance(
            config,
            dataset,
            sigma_train=repr(config.sigma_train),
            sigma_test=repr(config.sigma_test),
        ),
        fits=fits,
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
    menu = build_learner_menu(("euclidean",), config)
    menu.update({lsml_column_name(s): _lsml_entry(config, s) for s in sigma_train_list})
    columns = tuple(menu)
    fits = _fit_repeats(dataset, config, menu, sigma_test_list, violation_losses, threads)
    cells = aggregate_cells(fits, columns, sigma_test_list)
    return EvalReport(
        cells={(t, name): cell for (name, t), cell in cells.items()},
        rows=tuple(sigma_test_list),
        columns=columns,
        provenance=_provenance(config, dataset, loss=LOSS_TRIPLET),
        fits=fits,
    )
