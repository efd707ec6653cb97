import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fairmetric.constraints import describe_triplets, sample_triplets
from fairmetric.core import (
    LOSS_KNN_L1,
    LOSS_KNN_L2,
    LOSS_TRIPLET,
    ExperimentConfig,
    MahalanobisMetric,
    TripletSet,
    subseed,
)
from fairmetric.errors import ConfigurationError, EvaluationError
from fairmetric.evaluation import (
    build_learner_menu,
    counted_violation_loss,
    fold_distances,
    knn_l1,
    knn_l2,
    knn_predict,
    knn_predictions,
    prepare_repeat,
    run_experiment,
    run_experiment_detailed,
    sigma_sweep,
    split_indices,
)
from fairmetric.ingest import standardize
from fairmetric.learners import euclidean_baseline
from fairmetric.numerics import quad_forms
from fairmetric.reference import build_triplets, cross_distances, triplet_violation_loss

from conftest import make_dataset, random_spd, toy


def brute_triplet_loss(metric, test, triplets):
    """Independent recount with plain Python loops."""
    m = metric.matrix
    violated = 0
    for a, b, c in triplets.indices:
        def dist(i, j):
            diff = test.features[i] - test.features[j]
            total = 0.0
            for p in range(len(diff)):
                for q in range(len(diff)):
                    total += diff[p] * m[p, q] * diff[q]
            return math.sqrt(max(total, 0.0))

        if dist(a, b) > dist(a, c):
            violated += 1
    return violated / len(triplets)


def brute_knn(metric, train, x, k):
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


def test_triplet_loss_basic_examples():
    test = toy(np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]]), [1, 2, 3])
    metric = euclidean_baseline(2)
    sat = TripletSet(np.array([[0, 1, 2]]))
    assert triplet_violation_loss(metric, test, sat) == 0.0
    vio = TripletSet(np.array([[0, 2, 1]]))
    assert triplet_violation_loss(metric, test, vio) == 1.0


def test_triplet_loss_ties_are_satisfied():
    test = toy(np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]), [1, 2, 3])
    ts = TripletSet(np.array([[0, 1, 2]]))
    assert triplet_violation_loss(euclidean_baseline(2), test, ts) == 0.0


def test_triplet_loss_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(5):
        ds = make_dataset(rng, 20, 3)
        ts = build_triplets(ds, 0.0)
        metric = MahalanobisMetric(random_spd(rng, 3))
        assert triplet_violation_loss(metric, ds, ts) == pytest.approx(
            brute_triplet_loss(metric, ds, ts), abs=1e-12
        )


def test_triplet_loss_rejects_empty_set():
    ds = make_dataset(np.random.default_rng(1), 10, 2)
    with pytest.raises(EvaluationError):
        triplet_violation_loss(euclidean_baseline(2), ds, TripletSet(np.empty((0, 3), int)))
    flat = toy(ds.features, np.full(ds.n, 3))
    with pytest.raises(EvaluationError):
        counted_violation_loss(np.zeros((ds.n, ds.n)), describe_triplets(flat, 0.0))


def test_counted_violation_loss_equals_enumerated_loss():
    rng = np.random.default_rng(14)
    for trial in range(6):
        ds = make_dataset(rng, 25, 3)
        features = ds.features.copy()
        features[10:16] = features[0:6]  # duplicated rows give exact distance ties
        ds = toy(features, ds.labels, scale=(1, 5))
        metric = MahalanobisMetric(random_spd(rng, 3)) if trial % 2 else euclidean_baseline(3)
        distances = fold_distances(metric, ds)
        for variant in ("literal", "symmetric"):
            for sigma in (0.0, 0.5, 1.0, 2.0):
                full = build_triplets(ds, sigma, variant)
                rule = describe_triplets(ds, sigma, variant)
                assert rule.total == len(full)
                if len(full):
                    expected = triplet_violation_loss(metric, ds, full)
                    assert counted_violation_loss(distances, rule) == expected


def test_triplet_cell_absent_without_test_triplets():
    rng = np.random.default_rng(15)
    ds = make_dataset(rng, 60, 3)
    menu = ("euclidean",)
    tiny = small_config(test_size=2)  # n < 3: no triplets can be formed
    report = run_experiment(tiny, ds, build_learner_menu(menu, tiny))
    assert report.cell("euclidean", LOSS_TRIPLET) is None
    assert report.cell("euclidean", LOSS_KNN_L1) is not None
    flat = toy(ds.features, np.full(ds.n, 3), scale=(1, 5))  # one label: an empty set
    cfg = small_config()
    assert prepare_repeat(flat, cfg, 0, (cfg.sigma_test,)).test_rules == (None,)
    report = run_experiment(cfg, flat, build_learner_menu(menu, cfg))
    assert report.cell("euclidean", LOSS_TRIPLET) is None
    assert report.cell("euclidean", LOSS_KNN_L2) is not None


def test_prepare_repeat_memory_stays_quadratic():
    # 420 training rows with labels 1-5 hold about 12M literal triplets (~600 MB
    # if enumerated); the test-fold description and LSML's draw need a few MB.
    ds = make_dataset(np.random.default_rng(16), 600, 10)
    cfg = ExperimentConfig(train_size=420, test_size=180)
    tracemalloc.start()
    try:
        data = prepare_repeat(ds, cfg, 0, (cfg.sigma_test,))
        seed = subseed(cfg.rng_seed, data.repeat, 1)  # the LSML menu entry's draw
        triplets = sample_triplets(data.train, cfg.sigma_train, cfg.triplet_subsample, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.test_rules[0].total > 0
    assert len(triplets) == cfg.triplet_subsample
    assert peak < 64 * 2**20


def test_knn_predict_constant_labels():
    train = toy(np.array([[0.0], [1.0], [2.0], [9.0]]), [3, 3, 3, 8])
    assert knn_predict(euclidean_baseline(1), train, [0.4], 3) == 3.0


def test_knn_predict_hand_weighted():
    # neighbors at distances 1 and 3 with labels 2 and 4: weights .75/.25
    train = toy(np.array([[1.0], [3.0], [50.0]]), [2, 4, 9])
    assert knn_predict(euclidean_baseline(1), train, [0.0], 2) == pytest.approx(2.5)


def test_knn_predict_zero_distance_short_circuit():
    train = toy(np.array([[1.0, 2.0], [3.0, 4.0], [9.9, 0.1]]), [5, 1, 2])
    assert knn_predict(euclidean_baseline(2), train, [1.0, 2.0], 2) == 5.0


def test_knn_predict_tie_breaks_to_lower_index():
    train = toy(np.array([[1.0], [-1.0], [1.0]]), [2, 4, 8])
    # all three tie at distance 1 from the origin; k=1 must pick index 0
    assert knn_predict(euclidean_baseline(1), train, [0.0], 1) == 2.0


def test_knn_predict_validates_k():
    train = toy(np.array([[1.0], [2.0]]), [1, 2])
    with pytest.raises(ConfigurationError):
        knn_predict(euclidean_baseline(1), train, [0.0], 3)
    with pytest.raises(ConfigurationError):
        knn_predict(euclidean_baseline(1), train, [0.0], 0)


@pytest.mark.parametrize("queries", [[0.5], [[0.5], [np.nan]], [[np.inf]], [[[0.5]]]])
def test_knn_predictions_reject_a_query_that_is_not_a_finite_matrix(queries):
    train = toy(np.array([[1.0], [2.0]]), [1, 2])
    with pytest.raises(ConfigurationError):
        knn_predictions(euclidean_baseline(1), train, queries, 1)


def sorted_knn(metric, train, queries, k):
    """The full stable sort of `cross_distances` that the screened kNN must reproduce exactly."""
    dists = cross_distances(metric, queries, train.features)
    nearest = np.argsort(dists, axis=1, kind="stable")[:, :k]
    preds = []
    for labels, near_d in zip(train.labels[nearest].astype(float), np.take_along_axis(dists, nearest, axis=1)):
        exact = near_d < 1e-12
        inv = 1.0 / np.where(exact, 1.0, near_d)
        preds.append(labels[exact].mean() if np.any(exact) else (inv / inv.sum()) @ labels)
    return preds


def _near_tie_folds(rng, d=4):
    """(name, train, queries): neighbors tied in exact arithmetic, then pulled far from the origin.

    Integer coordinates keep every difference exact, so the difference form
    ties the rows q +- e_i exactly, while the Gram form of the far copies
    (|x|^2 about 2^42) rounds each of them differently.
    """
    base = rng.integers(-3, 4, size=(5, d)).astype(float)
    center = rng.integers(-3, 4, size=(3, d)).astype(float)
    axes = np.vstack([np.eye(d), -np.eye(d)])
    star = (center[:, None, :] + axes[None, :, :]).reshape(-1, d)
    plain = {
        "duplicated": (np.vstack([base, base, base[:3]]), np.vstack([base, center])),
        "equidistant": (rng.permutation(np.vstack([star, base])), np.vstack([center, base[:2]])),
    }
    offset = np.full(d, 2.0**20)
    for name, (train, queries) in plain.items():
        yield name, train, queries
        yield f"{name}, far", train + offset, queries + offset


@pytest.mark.parametrize("k", [1, 5, "n"])
def test_screened_knn_equals_the_full_sort_on_near_ties(k):
    rng = np.random.default_rng(19)
    d = 4
    low_rank = rng.normal(size=(d, 1))
    metrics = [euclidean_baseline(d), MahalanobisMetric(random_spd(rng, d)), MahalanobisMetric(low_rank @ low_rank.T)]
    for name, features, queries in _near_tie_folds(rng, d):
        # distinct labels, so another neighbor set changes the prediction
        train = toy(features, np.arange(len(features)) % 10 + 1)
        kk = train.n if k == "n" else k
        for metric in metrics:
            got = knn_predictions(metric, train, queries, kk).tolist()
            assert got == sorted_knn(metric, train, queries, kk), (name, kk)


def test_knn_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(5, 21))
        train = make_dataset(rng, n, 3)
        metric = MahalanobisMetric(random_spd(rng, 3))
        x = rng.normal(size=3)
        k = int(rng.integers(1, n + 1))
        assert knn_predict(metric, train, x, k) == pytest.approx(
            brute_knn(metric, train, x, k), rel=1e-10
        )


def test_knn_predictions_match_row_by_row():
    rng = np.random.default_rng(17)
    train = toy(np.vstack([rng.normal(size=(12, 2)), [[1.0, 0.0], [-1.0, 0.0]]]), np.arange(14) % 10 + 1)
    queries = np.vstack([rng.normal(size=(6, 2)), train.features[3], [[0.0, 0.0]]])
    metric = MahalanobisMetric(random_spd(rng, 2))
    for k in (1, 3, 14):
        batched = knn_predictions(metric, train, queries, k)
        assert batched.tolist() == [knn_predict(metric, train, row, k) for row in queries]


def test_cross_distances_is_exact_both_ways_round():
    rng = np.random.default_rng(18)
    for trial in range(6):
        d = int(rng.integers(1, 6))
        train = rng.normal(size=(int(rng.integers(1, 40)), d))
        q = rng.normal(size=(int(rng.integers(1, 40)), d))
        shared = min(len(train), len(q)) // 2
        q[:shared] = train[:shared]  # zero distances
        metric = MahalanobisMetric(random_spd(rng, d)) if trial % 2 else euclidean_baseline(d)
        got = cross_distances(metric, q, train)
        assert np.array_equal(got, cross_distances(metric, train, q).T)
        diff = (train[None, :, :] - q[:, None, :]).reshape(-1, d)
        reference = np.sqrt(np.maximum(quad_forms(diff, metric.matrix), 0.0))
        assert np.array_equal(got, reference.reshape(len(q), len(train)))


@pytest.mark.parametrize("n", [2, 3, 37, 180])
def test_fold_distances_mirror_is_cross_distances(n):
    # the upper triangle, mirrored, gives the bits of every pair computed both ways
    rng = np.random.default_rng(n)
    for trial in range(4):
        d = int(rng.integers(1, 11))
        features = rng.normal(size=(n, d))
        features[n // 2 :: 5] = features[0]  # duplicated rows: zero distances off the diagonal
        fold = toy(features, rng.integers(1, 6, n), scale=(1, 5))
        metric = MahalanobisMetric(random_spd(rng, d)) if trial % 2 else euclidean_baseline(d)
        assert np.array_equal(fold_distances(metric, fold), cross_distances(metric, features, features))


def test_knn_losses_perfect_predictor():
    rng = np.random.default_rng(3)
    train = make_dataset(rng, 10, 2)
    assert knn_l1(euclidean_baseline(2), train, train, 1) == 0.0
    assert knn_l2(euclidean_baseline(2), train, train, 1) == 0.0


def test_knn_losses_hand_computed():
    train = toy(np.array([[1.0], [3.0], [50.0]]), [2, 4, 9])
    # both test rows predict 2.5 with true label 4: |e| = 1.5, e^2 = 2.25
    test = toy(np.array([[0.0], [0.0]]), [4, 4])
    assert knn_l1(euclidean_baseline(1), train, test, 2) == pytest.approx(1.5)
    assert knn_l2(euclidean_baseline(1), train, test, 2) == pytest.approx(2.25)


def test_losses_invariant_under_metric_scaling():
    rng = np.random.default_rng(4)
    ds = make_dataset(rng, 30, 3)
    train, test = ds.subset(range(20)), ds.subset(range(20, 30))
    ts = build_triplets(test, 0.0)
    m = MahalanobisMetric(random_spd(rng, 3))
    m7 = MahalanobisMetric(7.0 * m.matrix)
    assert triplet_violation_loss(m, test, ts) == triplet_violation_loss(m7, test, ts)
    assert knn_l1(m, train, test, 3) == pytest.approx(knn_l1(m7, train, test, 3), abs=1e-9)
    assert knn_l2(m, train, test, 3) == pytest.approx(knn_l2(m7, train, test, 3), abs=1e-9)


# ---------------------------------------------------------------------------
# Experiment runner


def small_config(**kw):
    base = dict(
        train_size=25,
        test_size=12,
        n_repeats=3,
        k_neighbors=3,
        sigma_train=0.0,
        sigma_test=0.0,
        triplet_subsample=400,
        rng_seed=11,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_split_indices_disjoint_and_deterministic():
    cfg = small_config()
    a_train, a_test = split_indices(60, cfg, 0)
    b_train, b_test = split_indices(60, cfg, 0)
    assert np.array_equal(a_train, b_train) and np.array_equal(a_test, b_test)
    assert set(a_train.tolist()).isdisjoint(a_test.tolist())
    c_train, _ = split_indices(60, cfg, 1)
    assert not np.array_equal(a_train, c_train)
    with pytest.raises(ConfigurationError):
        split_indices(30, cfg, 0)


def test_euclidean_only_experiment_matches_plain_l2_oracle():
    rng = np.random.default_rng(5)
    ds = make_dataset(rng, 60, 3)
    cfg = small_config()
    menu = build_learner_menu(("euclidean",), cfg)
    report = run_experiment(cfg, ds, menu)

    l1_runs, l2_runs = [], []
    for repeat in range(cfg.n_repeats):
        tr_idx, te_idx = split_indices(ds.n, cfg, repeat)
        train, stats = standardize(ds.subset(tr_idx))
        test, _ = standardize(ds.subset(te_idx), stats)
        preds = [brute_knn(euclidean_baseline(3), train, row, 3) for row in test.features]
        errs = np.asarray(preds) - test.labels
        l1_runs.append(np.mean(np.abs(errs)))
        l2_runs.append(np.mean(errs**2))
    assert report.cell("euclidean", LOSS_KNN_L1).mean == pytest.approx(np.mean(l1_runs), abs=1e-12)
    assert report.cell("euclidean", LOSS_KNN_L2).mean == pytest.approx(np.mean(l2_runs), abs=1e-12)
    assert report.cell("euclidean", LOSS_KNN_L1).std == pytest.approx(
        np.std(l1_runs, ddof=1), abs=1e-12
    )


def test_experiment_is_deterministic():
    rng = np.random.default_rng(6)
    ds = make_dataset(rng, 60, 3)
    cfg = small_config()
    menu_names = ("euclidean", "lsml")
    r1 = run_experiment(cfg, ds, build_learner_menu(menu_names, cfg))
    r2 = run_experiment(cfg, ds, build_learner_menu(menu_names, cfg))
    assert r1.cells.keys() == r2.cells.keys()
    for key in r1.cells:
        assert r1.cells[key] == r2.cells[key]


def test_threaded_experiment_matches_sequential():
    rng = np.random.default_rng(7)
    ds = make_dataset(rng, 60, 3)
    cfg = small_config()
    menu_names = ("euclidean", "precision")
    seq = run_experiment_detailed(cfg, ds, build_learner_menu(menu_names, cfg), threads=1)
    par = run_experiment_detailed(cfg, ds, build_learner_menu(menu_names, cfg), threads=3)
    assert seq.cells == par.cells
    seq = sigma_sweep(cfg, ds, [0.0, 2.0], [0.0, 2.0], threads=1)
    par = sigma_sweep(cfg, ds, [0.0, 2.0], [0.0, 2.0], threads=3)
    assert seq.cells == par.cells
    assert any(cell is not None for cell in seq.cells.values())


def test_paired_splits_across_learners():
    rng = np.random.default_rng(8)
    ds = make_dataset(rng, 60, 3)
    cfg = small_config()
    detailed = run_experiment_detailed(cfg, ds, build_learner_menu(("euclidean", "lmnn"), cfg))
    # the split is a function of (seed, repeat) only, so a rerun with a different
    # menu sees identical folds
    again = run_experiment_detailed(cfg, ds, build_learner_menu(("precision",), cfg))
    assert detailed.cell("euclidean", LOSS_TRIPLET) is not None
    for repeat in range(cfg.n_repeats):
        a, b = split_indices(ds.n, cfg, repeat), split_indices(ds.n, cfg, repeat)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert again.cell("precision", LOSS_KNN_L1) is not None


def test_experiment_records_learner_failures_per_cell():
    rng = np.random.default_rng(9)
    ds = make_dataset(rng, 60, 3)
    cfg = small_config()

    def broken(data):
        raise EvaluationError("boom")

    menu = dict(build_learner_menu(("euclidean",), cfg))
    menu["broken"] = broken
    detailed = run_experiment_detailed(cfg, ds, menu)
    assert detailed.cell("broken", LOSS_KNN_L1) is None
    assert detailed.cell("euclidean", LOSS_KNN_L1) is not None
    assert all(o.failures.get("broken") == "boom" for o in detailed.outcomes)


def test_report_cells_respect_loss_ranges():
    rng = np.random.default_rng(10)
    ds = make_dataset(rng, 60, 3)
    report = run_experiment(small_config(), ds, build_learner_menu(("euclidean",), small_config()))
    for (metric, loss), cell in report.cells.items():
        if loss == LOSS_TRIPLET:
            assert 0.0 <= cell.mean <= 1.0
        else:
            assert cell.mean >= 0.0
        assert cell.n_repeats == 3


# ---------------------------------------------------------------------------
# Sigma sweep


def test_sigma_sweep_grid_shape_and_columns():
    rng = np.random.default_rng(11)
    ds = make_dataset(rng, 70, 3, scale=(1, 10))
    cfg = small_config(n_repeats=2, triplet_subsample=300)
    sweep = sigma_sweep(cfg, ds, [0.0, 2.0], [0.0, 2.0, 4.0, 6.0])
    assert sweep.columns == ("euclidean", "lsml(sigma=0)", "lsml(sigma=2)")
    assert sweep.rows == (0.0, 2.0, 4.0, 6.0)
    assert len(sweep.cells) == 12
    filled = [c for c in sweep.cells.values() if c is not None]
    assert filled, "at least some cells should have data"


def test_sigma_sweep_euclidean_column_ignores_train_sigmas():
    rng = np.random.default_rng(12)
    ds = make_dataset(rng, 70, 3, scale=(1, 10))
    cfg = small_config(n_repeats=2, triplet_subsample=300)
    a = sigma_sweep(cfg, ds, [0.0], [0.0, 2.0])
    b = sigma_sweep(cfg, ds, [0.0, 2.0], [0.0, 2.0])
    for sigma_t in (0.0, 2.0):
        assert a.cells[(sigma_t, "euclidean")] == b.cells[(sigma_t, "euclidean")]


def test_sigma_sweep_marks_unreachable_rows_missing():
    rng = np.random.default_rng(13)
    ds = make_dataset(rng, 70, 2, scale=(1, 5))
    cfg = small_config(n_repeats=2, triplet_subsample=100)
    sweep = sigma_sweep(cfg, ds, [0.0], [50.0])
    assert sweep.cells[(50.0, "euclidean")] is None


@pytest.mark.parametrize(
    "train, test",
    [([0.0, 0.0], [0.0]), ([1.0000001, 1.0000002], [0.0]), ([0.0], [2.0, 2.0]), ([0.0], [0.0, -0.0])],
)
def test_sigma_sweep_rejects_sigmas_that_name_one_row_or_column(train, test):
    ds = make_dataset(np.random.default_rng(13), 70, 2, scale=(1, 5))
    with pytest.raises(ConfigurationError, match="must differ in 6 significant digits"):
        sigma_sweep(small_config(), ds, train, test)


def test_sigma_sweep_cells_equal_figure1_cells():
    # each sweep column is figure1's learner trained at its sigma, scored at sigma_t
    rng = np.random.default_rng(11)
    ds = make_dataset(rng, 70, 3, scale=(1, 10))
    cfg = small_config(n_repeats=2, triplet_subsample=300)
    sweep = sigma_sweep(cfg, ds, [0.0, 2.0], [0.0, 2.0])
    for sigma in (0.0, 2.0):
        for sigma_t in (0.0, 2.0):
            one = replace(cfg, sigma_train=sigma, sigma_test=sigma_t)
            report = run_experiment(one, ds, build_learner_menu(("euclidean", "lsml"), one))
            lsml = sweep.cells[(sigma_t, f"lsml(sigma={sigma:g})")]
            assert lsml is not None and lsml == report.cell("lsml", LOSS_TRIPLET)
            assert sweep.cells[(sigma_t, "euclidean")] == report.cell("euclidean", LOSS_TRIPLET)
