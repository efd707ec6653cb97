import tracemalloc
import weakref

import numpy as np
import pytest

from fairmetric import learners
from fairmetric.constraints import sample_triplets
from fairmetric.core import (
    ExperimentConfig,
    LabeledDataset,
    MahalanobisMetric,
    RatingScale,
    TripletSet,
)
from fairmetric.errors import ConditionWarning, ConfigurationError, ConstraintError, SmallClassWarning
from fairmetric.learners import (
    euclidean_baseline,
    fit_lmnn,
    fit_lsml,
    fit_mmc,
    lmnn_gradient,
    lmnn_objective,
    lmnn_problem,
    load_metric,
    lsml_gradient,
    lsml_objective,
    precision_baseline,
    project_psd_cap,
    save_metric,
)
from fairmetric.numerics import quad_forms
from fairmetric.reference import build_pairs, build_triplets

from conftest import make_dataset, max_grad_error, pair_distance, random_spd, toy


# ---------------------------------------------------------------------------
# Baselines


def test_euclidean_baseline_is_identity():
    m = euclidean_baseline(3)
    assert np.array_equal(m.matrix, np.eye(3))


def test_euclidean_distances_match_l2():
    rng = np.random.default_rng(0)
    m = euclidean_baseline(4)
    for _ in range(10):
        x, y = rng.normal(size=4), rng.normal(size=4)
        assert pair_distance(m, x, y) == pytest.approx(float(np.linalg.norm(x - y)), rel=1e-12)


def test_precision_baseline_identity_for_exactly_white_data():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 3))
    cov = np.cov(x, rowvar=False)
    w, v = np.linalg.eigh(cov)
    x = (x - x.mean(0)) @ v / np.sqrt(w)  # empirical covariance exactly identity
    ds = LabeledDataset(x, rng.integers(1, 6, 200), RatingScale(1, 5), ("a", "b", "c"))
    m = precision_baseline(ds)
    assert np.allclose(m.matrix, np.eye(3), atol=1e-8)


def test_precision_baseline_hand_computed_2x2():
    # +/- pairs of the scaled Cholesky columns give sample covariance [[1,.5],[.5,1]]
    chol_cols = np.array([[1.0, 0.5], [0.0, np.sqrt(0.75)]])
    x = np.vstack([chol_cols, -chol_cols]) * np.sqrt(1.5)
    ds = toy(x, [1, 2, 3, 4])
    cov = np.cov(x, rowvar=False)
    assert np.allclose(cov, [[1.0, 0.5], [0.5, 1.0]])
    m = precision_baseline(ds)
    expected = np.array([[4.0 / 3.0, -2.0 / 3.0], [-2.0 / 3.0, 4.0 / 3.0]])
    assert np.allclose(m.matrix, expected, atol=1e-9)


def test_precision_baseline_warns_on_singular_covariance():
    rng = np.random.default_rng(2)
    col = rng.normal(size=(20, 1))
    ds = toy(np.hstack([col, col]), rng.integers(1, 11, 20))  # duplicated column
    with pytest.warns(ConditionWarning):
        m = precision_baseline(ds)
    assert np.all(np.isfinite(m.matrix))


# ---------------------------------------------------------------------------
# MMC


@pytest.mark.parametrize("form", ["diagonal", "full"])
def test_mmc_1d_analytic_weight(form):
    # labels [1, 1, 2]: (0, 1) is similar, and (0, 2) and (1, 2) are dissimilar at
    # 10 and 9.9, so the dissimilar-sum normalization pins sqrt(w) * 19.9 = 1
    ds = toy(np.array([[0.0], [0.1], [10.0]]), [1, 1, 2])
    metric, trace = fit_mmc(ds, ExperimentConfig(mmc_form=form))
    assert metric.matrix[0, 0] == pytest.approx(1.0 / 19.9**2, abs=1e-9)
    assert trace.iterations == len(trace.objective_values)


def test_mmc_diagonal_kills_noise_axis():
    rng = np.random.default_rng(3)
    n, half = 30, 15
    x = np.zeros((n, 2))
    x[:half, 0] = rng.normal(0.0, 0.4, half)
    x[half:, 0] = rng.normal(6.0, 0.4, half)
    x[:, 1] = rng.normal(0.0, 1.0, n)  # same noise for both classes
    ds = toy(x, [1] * half + [2] * half)
    metric, _ = fit_mmc(ds, ExperimentConfig(mmc_form="diagonal"))
    w = np.diag(metric.matrix)
    assert w[1] <= 0.05 * w[0]

    # grid-search oracle: along the similar-sum cap, the dissimilar sum is
    # largest where all the weight is on axis 0
    pairs = build_pairs(ds)
    vs = x[pairs.similar[:, 0]] - x[pairs.similar[:, 1]]
    vd = x[pairs.dissimilar[:, 0]] - x[pairs.dissimilar[:, 1]]
    sim_col = (vs**2).sum(axis=0)
    dis_sq = vd**2

    def total(share):  # the weights put `share` of the cap on axis 0 and the rest on axis 1
        return float(np.sqrt(dis_sq @ (np.array([share, 1.0 - share]) / sim_col)).sum())

    _, best_share = max((total(share), share) for share in np.linspace(0.0, 1.0, 201))
    assert best_share == 1.0


@pytest.mark.parametrize("form", ["diagonal", "full"])
def test_mmc_raises_when_every_similar_pair_coincides(form):
    # tr(xs) = 0: the similar-sum cap bounds no metric, so the dissimilar sum has no maximum
    ds = toy([[0.0, 0.0], [0.0, 0.0], [1.0, 2.0], [1.0, 2.0], [3.0, 1.0]], [1, 1, 2, 2, 3])
    with pytest.raises(ConstraintError, match="similar pair whose features differ"):
        fit_mmc(ds, ExperimentConfig(mmc_form=form))


def test_mmc_single_class_raises():
    ds = toy(np.random.default_rng(4).normal(size=(6, 2)), [2] * 6)
    with pytest.raises(ConstraintError):
        fit_mmc(ds, ExperimentConfig(mmc_form="full"))
    with pytest.raises(ConstraintError):
        fit_mmc(ds, ExperimentConfig(mmc_form="diagonal"))


def test_mmc_distinct_labels_raise():
    # every rating differs, so there is no similar pair
    ds = toy(np.random.default_rng(4).normal(size=(5, 2)), [1, 2, 3, 4, 5])
    with pytest.raises(ConstraintError):
        fit_mmc(ds, ExperimentConfig(mmc_form="full"))
    with pytest.raises(ConstraintError):
        fit_mmc(ds, ExperimentConfig(mmc_form="diagonal"))


def _engine_objective(monkeypatch, fit):
    """The objective and gradient that the fit run by fit() hands to the optimizer."""
    engine, captured = learners._spg, []

    def capture(x0, evaluate, gradient, project, max_iter, tol):
        captured.append((evaluate, gradient))
        return engine(x0, evaluate, gradient, project, max_iter, tol)

    monkeypatch.setattr(learners, "_spg", capture)
    fit()
    evaluate, gradient = captured[0]
    return (lambda x: evaluate(x)[0]), (lambda x: gradient(evaluate(x)[1]))


def _mmc_pair_oracle(ds, form):
    """The same objective and gradient, summed over build_pairs' pair differences.

    Both forms descend minus the dissimilar-distance sum; the diagonal form's
    gradient keeps only its diagonal.
    """
    pairs = build_pairs(ds)
    x = ds.features
    vd = x[pairs.dissimilar[:, 0]] - x[pairs.dissimilar[:, 1]]
    keep = np.eye(ds.d) if form == "diagonal" else 1.0

    def dissimilar(m):  # the distance sum and its gradient in M
        dist = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", vd, m, vd), 0.0))
        inv2d = np.where(dist > 0.0, 0.5 / np.where(dist > 0.0, dist, 1.0), 0.0)
        return float(dist.sum()), (vd * inv2d[:, None]).T @ vd

    return (lambda m: -dissimilar(m)[0]), (lambda m: -keep * dissimilar(m)[1])


def _duplicated_fold(rng):
    # 260 rows that repeat 5 feature rows under random ratings: most dissimilar
    # pairs have equal features. At this size the Gram form leaves some of them
    # a distance near 1e-8 instead of 0 (full form, OpenBLAS), which the
    # duplicate mask must drop for the oracle to match.
    base = rng.normal(size=(5, 4))
    return toy(base[np.arange(260) % 5], rng.integers(1, 6, 260), scale=(1, 5))


@pytest.mark.parametrize("fold", ["random", "duplicated", "ten_ratings", "single_members"])
@pytest.mark.parametrize("form", ["diagonal", "full"])
def test_mmc_gram_kernel_matches_pair_oracle(monkeypatch, form, fold):
    rng = np.random.default_rng(0)
    folds = {
        "random": lambda: [make_dataset(rng, n, 4) for n in (60, 140)],
        "duplicated": lambda: [_duplicated_fold(rng)],
        # ratings 1-10 all present: nine rating blocks
        "ten_ratings": lambda: [make_dataset(rng, 140, 4, scale=(1, 10))],
        # ratings 1 and 5 have one member: a one-row block, and a last block one column wide
        "single_members": lambda: [toy(rng.normal(size=(40, 4)), [1] + [2] * 13 + [3] * 13 + [4] * 12 + [5])],
    }[fold]()
    for ds in folds:
        if fold == "ten_ratings":
            assert np.unique(ds.labels).size == 10
        config = ExperimentConfig(mmc_form=form, mmc_max_iter=2)
        fun, grad = _engine_objective(monkeypatch, lambda: fit_mmc(ds, config))
        oracle_fun, oracle_grad = _mmc_pair_oracle(ds, form)
        for _ in range(3):
            point = random_spd(rng, 4) if form == "full" else np.diag(rng.uniform(0.1, 2.0, 4))
            want = oracle_fun(point)
            assert abs(fun(point) - want) <= 1e-12 * abs(want)
            want = oracle_grad(point)
            assert np.abs(grad(point) - want).max() <= 1e-12 * np.abs(want).max()


def _dissimilar_sum(metric, ds, pairs):
    vd = ds.features[pairs.dissimilar[:, 0]] - ds.features[pairs.dissimilar[:, 1]]
    q = np.einsum("ij,jk,ik->i", vd, metric.matrix, vd)
    return float(np.sqrt(np.maximum(q, 0.0)).sum())


@pytest.mark.parametrize("form", ["diagonal", "full"])
def test_mmc_dissimilar_constraint_active(form):
    rng = np.random.default_rng(5)
    ds = make_dataset(rng, 40, 3)
    metric, _ = fit_mmc(ds, ExperimentConfig(mmc_form=form))
    assert _dissimilar_sum(metric, ds, build_pairs(ds)) == pytest.approx(1.0, abs=1e-3)
    if form == "diagonal":
        assert np.all(np.diag(metric.matrix) >= 0.0)


def _clip(a):
    w, v = np.linalg.eigh(a)
    return (v * np.maximum(w, 0.0)) @ v.T


def _cap_case(seed, scale, overshoot):
    """A symmetric indefinite `a` whose clip has cap value `overshoot` against the
    similar-pair matrix of a make_dataset fold with features times `scale`."""
    rng = np.random.default_rng(seed)
    ds = make_dataset(rng, 50, 4)
    x = ds.features * scale
    sim = build_pairs(ds).similar
    vs = x[sim[:, 0]] - x[sim[:, 1]]
    xs = vs.T @ vs
    b = rng.normal(size=(4, 4))
    a = b + b.T
    return a * (overshoot / float((_clip(a) * xs).sum())), xs


@pytest.mark.parametrize("scale", [1.0, 100.0])  # x100: ||xs||^2 is about 1e14
@pytest.mark.parametrize("overshoot", [0.5, 1.0 + 1e-6, 3.0, 1e4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_project_psd_cap_is_the_exact_projection(seed, scale, overshoot):
    a, xs = _cap_case(seed, scale, overshoot)
    m, altered = project_psd_cap(a, xs)
    assert altered
    assert float(np.linalg.eigvalsh(m)[0]) >= -1e-12 * float(np.abs(m).max())
    cap = float((m * xs).sum())
    assert cap <= 1.0 + 1e-12
    dist = np.linalg.norm(m - a)
    clipped = _clip(a)
    if overshoot <= 1.0:
        assert np.allclose(m, clipped, rtol=0.0, atol=1e-12 * np.abs(a).max())
        return
    assert cap >= 1.0 - 1e-9  # the cap is active when the bare clip breaks it
    assert dist <= np.linalg.norm(clipped / overshoot - a)  # clip, then rescale
    # M(lam) = clip(a - lam * xs) on a dense grid up to the first feasible power of two
    lam_hi = (overshoot - 1.0) / float((xs * xs).sum())
    while float((_clip(a - lam_hi * xs) * xs).sum()) > 1.0:
        lam_hi *= 2.0
    grid = [_clip(a - lam * xs) for lam in np.linspace(0.0, lam_hi, 2001)]
    feasible = [g for g in grid if float((g * xs).sum()) <= 1.0]
    assert dist <= (1.0 + 1e-9) * min(np.linalg.norm(g - a) for g in feasible)


def test_project_psd_cap_without_clip_is_one_scalar_step(monkeypatch):
    # a = b + lam * xs with b PSD on the cap: the no-clip guess
    # lam = (<a, xs> - 1) / ||xs||^2 is exact, so one eigh follows the bare clip
    rng = np.random.default_rng(3)
    xs = random_spd(rng, 4)
    b = random_spd(rng, 4)
    b = b / float((b * xs).sum())
    a = b + (0.5 / float((xs * xs).sum())) * xs
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(1) or eigh(m))
    m, altered = project_psd_cap(a, xs)
    assert altered and len(calls) == 2
    assert np.allclose(m, b, rtol=0.0, atol=1e-9 * float(np.abs(b).max()))


def test_mmc_full_trace_is_nondecreasing():
    rng = np.random.default_rng(6)
    ds = make_dataset(rng, 30, 3)
    metric, trace = fit_mmc(ds, ExperimentConfig(mmc_form="full"))
    diffs = np.diff(np.asarray(trace.objective_values))
    assert np.all(diffs >= -1e-9)


def test_mmc_diagonal_trace_is_nondecreasing():
    rng = np.random.default_rng(7)
    ds = make_dataset(rng, 30, 3)
    _, trace = fit_mmc(ds, ExperimentConfig(mmc_form="diagonal"))
    diffs = np.diff(np.asarray(trace.objective_values))
    assert np.all(diffs >= -1e-9)


@pytest.mark.parametrize("seed", [20, 24])
def test_mmc_diagonal_converges_well_before_max_iter(seed):
    ds = make_dataset(np.random.default_rng(seed), 50, 4)
    _, trace = fit_mmc(ds, ExperimentConfig(mmc_form="diagonal"))
    assert trace.converged
    assert trace.iterations < 100


@pytest.mark.parametrize("seed", [20, 24])
def test_mmc_forms_start_at_identity_scaled_onto_the_cap(seed):
    # both forms start at I / max(1, tr xs), tr xs the similar-pair sum of squared
    # distances. When that rounds above the cap, each form's projection moves it
    # into [1 - CAP_TOL, 1] (seed 20), and the dissimilar sum by at most CAP_TOL
    # relative, so the two forms' first values agree to that tolerance
    ds = make_dataset(np.random.default_rng(seed), 50, 4)
    pairs = build_pairs(ds)
    vs = ds.features[pairs.similar[:, 0]] - ds.features[pairs.similar[:, 1]]
    want = -_mmc_pair_oracle(ds, "full")[0](np.eye(4) / max(1.0, float((vs**2).sum())))
    for form in ("full", "diagonal"):
        first = fit_mmc(ds, ExperimentConfig(mmc_form=form))[1].objective_values[0]
        assert abs(first - want) <= learners.CAP_TOL * want, form


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mmc_diagonal_fit_is_exactly_diagonal(seed):
    rng = np.random.default_rng(seed)
    for ds in (make_dataset(rng, 60, 10), _duplicated_fold(rng)):
        m = fit_mmc(ds, ExperimentConfig(mmc_form="diagonal"))[0].matrix
        assert np.array_equal(m, np.diag(np.diag(m)))


# ---------------------------------------------------------------------------
# LSML


def test_lsml_satisfied_triplets_return_identity():
    # clusters ordered so every triplet is satisfied under plain l2 already
    x = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [0.0, 1.0], [1.0, 1.0], [5.0, 1.0]])
    ds = toy(x, [1, 2, 5, 1, 2, 5])
    triplets = build_triplets(ds, 0.0)
    metric, trace = fit_lsml(ds, triplets, ExperimentConfig(alpha=0.01))
    assert trace.objective_values[0] == 0.0
    assert np.array_equal(metric.matrix, np.eye(2))


def test_lsml_shrinks_axis_for_violated_triplet_small_alpha():
    # 1-D: d(a,b) = 2 sqrt(w), d(a,c) = sqrt(w); J(w) = alpha*(w - ln w - 1) + w
    # with minimizer w* = alpha / (1 + alpha)
    alpha = 1e-3
    ds = toy(np.array([[0.0], [2.0], [1.0]]), [1, 1, 1])
    triplets = TripletSet(np.array([[0, 1, 2]]))
    metric, _ = fit_lsml(ds, triplets, ExperimentConfig(alpha=alpha))
    w_fit = metric.matrix[0, 0]
    assert w_fit < 0.01  # axis weight shrinks toward zero
    assert w_fit == pytest.approx(alpha / (1 + alpha), rel=0.05)

    grid = np.logspace(-6, 1, 2000)
    vals = [lsml_objective(np.array([[w]]), ds, triplets, alpha) for w in grid]
    w_star = grid[int(np.argmin(vals))]
    assert w_fit == pytest.approx(w_star, rel=0.05)


def test_lsml_huge_alpha_returns_identity():
    rng = np.random.default_rng(8)
    ds = make_dataset(rng, 30, 4)
    triplets = build_triplets(ds, 0.0)
    metric, _ = fit_lsml(ds, triplets, ExperimentConfig(alpha=1e6))
    assert np.linalg.norm(metric.matrix - np.eye(4), "fro") < 1e-2


def test_lsml_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    ds = make_dataset(rng, 12, 3)
    triplets = build_triplets(ds, 0.0)
    for _ in range(3):
        m = random_spd(rng, 3)
        err = max_grad_error(
            lambda mm: lsml_objective(mm, ds, triplets, 0.01),
            lambda mm: lsml_gradient(mm, ds, triplets, 0.01),
            m,
        )
        assert err < 1e-4


def test_lsml_trace_is_nonincreasing_and_empty_set_rejected():
    rng = np.random.default_rng(10)
    ds = make_dataset(rng, 25, 3)
    triplets = build_triplets(ds, 0.0)
    _, trace = fit_lsml(ds, triplets, ExperimentConfig(alpha=0.01))
    diffs = np.diff(np.asarray(trace.objective_values))
    assert np.all(diffs <= 1e-9)
    with pytest.raises(ConstraintError):
        fit_lsml(ds, TripletSet(np.empty((0, 3), dtype=int)), ExperimentConfig(alpha=0.01))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lsml_metric_is_off_the_eigenvalue_floor(seed):
    # the minimizer is well conditioned; a fit that stalls on the floored cone's
    # boundary ends with lambda_min / lambda_max at RELATIVE_EIG_FLOOR
    ds = make_dataset(np.random.default_rng(seed), 30, 3)
    metric, trace = fit_lsml(ds, build_triplets(ds, 0.0), ExperimentConfig(alpha=0.01))
    w = np.linalg.eigvalsh(metric.matrix)
    assert trace.converged
    assert w[0] / w[-1] > 1e-3


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lsml_starts_at_the_ray_minimizer(seed):
    # J(cI) = alpha d (c - log c - 1) + c J(I) is least at c* = alpha d / (alpha d + J(I)),
    # which is about the optimum's scale: from I the fit takes 36-40 iterations here
    ds = make_dataset(np.random.default_rng(seed), 30, 3)
    triplets = build_triplets(ds, 0.0)
    alpha = 0.01
    start = alpha * 3 / (alpha * 3 + lsml_objective(np.eye(3), ds, triplets, alpha))
    _, trace = fit_lsml(ds, triplets, ExperimentConfig(alpha=alpha))
    first = trace.objective_values[0]
    assert first == lsml_objective(start * np.eye(3), ds, triplets, alpha)
    for c in (0.5, 0.9, 1.1, 2.0):
        assert first <= lsml_objective(c * start * np.eye(3), ds, triplets, alpha)
    assert trace.converged
    assert trace.iterations < 25


def _lsml_fold(fold):
    """(fold, triplets) on which fit_lsml takes its Gram kernel, n^2 <= m d."""
    rng = np.random.default_rng(0)
    ds, m = {
        "train140": lambda: (make_dataset(rng, 140, 10), 5000),  # the paper's training fold
        "small": lambda: (make_dataset(rng, 30, 4), 300),
        "duplicated": lambda: (_duplicated_fold(rng), 20000),  # 1 in 5 pairs have equal features
    }[fold]()
    triplets = sample_triplets(ds, 0.0, m, 0)
    assert len(triplets) == m and ds.n**2 <= m * ds.d
    return ds, triplets


@pytest.mark.parametrize("fold", ["train140", "small", "duplicated"])
def test_lsml_gram_kernel_matches_difference_row_oracle(monkeypatch, fold):
    # on the duplicated fold the Gram form leaves pairs of equal rows a d^2
    # near 1e-16 |x|^2 unless they are zeroed, which moves value and gradient
    # by about 2e-10
    ds, triplets = _lsml_fold(fold)
    alpha = ExperimentConfig().alpha
    config = ExperimentConfig(lsml_max_iter=2)
    fun, grad = _engine_objective(monkeypatch, lambda: fit_lsml(ds, triplets, config))
    rng = np.random.default_rng(1)
    for _ in range(3):
        point = random_spd(rng, ds.d)
        want = lsml_objective(point, ds, triplets, alpha)
        assert abs(fun(point) - want) <= 1e-12 * abs(want)
        want = lsml_gradient(point, ds, triplets, alpha)
        assert np.abs(grad(point) - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize(
    "n, m, gram", [(140, 5000, True), (420, 5000, False), (100, 1000, True), (100, 999, False)]
)
def test_lsml_takes_the_gram_kernel_when_n_squared_is_at_most_m_d(monkeypatch, n, m, gram):
    # d = 10: n^2 = m d exactly at (100, 1000), one triplet short at (100, 999)
    ds = make_dataset(np.random.default_rng(n), n, 10)
    triplets = sample_triplets(ds, 0.0, m, 0)
    assert len(triplets) == m
    calls = []  # the rows of each quad_forms call

    def counting(diffs, matrix):
        calls.append(diffs.shape[0])
        return quad_forms(diffs, matrix)

    monkeypatch.setattr(learners, "quad_forms", counting)
    _, trace = fit_lsml(ds, triplets)
    if gram:
        assert calls == []
    else:
        assert len(calls) >= trace.evaluations and set(calls) == {m}


@pytest.mark.parametrize("m", [1, 40])
def test_lsml_rejects_a_triplet_index_past_the_fold_on_either_kernel(m):
    # 10 rows, d = 3: one triplet takes the difference rows, 40 the Gram kernel
    ds = make_dataset(np.random.default_rng(0), 10, 3)
    idx = np.tile([0, 1, 2], (m, 1))
    idx[-1] = (0, 1, 10)
    with pytest.raises(ConfigurationError, match="exceed dataset size"):
        fit_lsml(ds, TripletSet(idx))


# ---------------------------------------------------------------------------
# LMNN


def test_lmnn_separated_clusters_have_no_active_hinge():
    rng = np.random.default_rng(11)
    n, half = 20, 10
    x = np.vstack([rng.normal(0.0, 0.3, (half, 2)), rng.normal(10.0, 0.3, (half, 2))])
    ds = toy(x, [1] * half + [5] * half, scale=(1, 5))
    metric, _ = fit_lmnn(ds, ExperimentConfig(lmnn_k_targets=1))
    problem = lmnn_problem(ds, 1)
    g = x @ metric.matrix @ x.T
    s = np.diag(g)
    d2 = s[:, None] + s[None, :] - 2 * g
    labels = ds.labels
    for i, j in problem.target_pairs:
        impostors = labels != labels[i]
        z = 1.0 + d2[i, j] - d2[i, impostors]
        assert impostors.any() and np.all(z <= 1e-8)


def test_lmnn_single_class_collapses_to_trace_guard():
    rng = np.random.default_rng(12)
    ds = toy(rng.normal(size=(12, 3)), [2] * 12, scale=(1, 5))
    metric, _ = fit_lmnn(ds, ExperimentConfig(lmnn_k_targets=2))
    assert np.trace(metric.matrix) == pytest.approx(3.0)


def test_lmnn_singleton_class_lenient_vs_strict():
    # the strict mode is gone: the lenient one, warn and skip, is the only one
    rng = np.random.default_rng(13)
    x = rng.normal(size=(8, 2))
    ds = toy(x, [1, 1, 1, 2, 2, 2, 4, 5], scale=(1, 5))
    with pytest.warns(SmallClassWarning) as caught:
        metric, _ = fit_lmnn(ds, ExperimentConfig(lmnn_k_targets=2))
    assert metric.d == 2
    # one warning per singleton class, and neither anchors nor targets a pair
    assert sorted(str(w.message) for w in caught) == [
        f"rating class {label} has a single member; skipped" for label in (4, 5)
    ]
    with pytest.warns(SmallClassWarning):
        pairs = lmnn_problem(ds, 2).target_pairs
    assert not np.isin(pairs, [6, 7]).any()


def _lmnn_oracle(x, labels, k, m, mu):
    """LMNN by its definition, looping over anchor i, target j and impostor l.

    Targets are the k nearest same-rating points under the Euclidean metric,
    lower index first on ties. Returns the target pairs, the objective, the
    push term, the gradient and the loop's (n, n) count matrix c: c[i, j]
    counts the active impostors of target pair (i, j), and c[i, l] is minus
    the number of i's target pairs that l is an active impostor for. The
    gradient is (1 - mu) * sum v_ij v_ij^T + mu * x^T (diag(row sums of s) - s) x,
    s = c + c^T.
    """
    n = len(labels)
    pairs = []
    for i in range(n):
        same = [j for j in range(n) if j != i and labels[j] == labels[i]]
        same.sort(key=lambda j: (float((x[j] - x[i]) @ (x[j] - x[i])), j))
        pairs += [(i, j) for j in same[:k]]

    def d2(a, b):
        return float((x[a] - x[b]) @ m @ (x[a] - x[b]))

    pull = push = 0.0
    c = np.zeros((n, n))
    for i, j in pairs:
        pull += d2(i, j)
        for l in range(n):
            z = 1.0 + d2(i, j) - d2(i, l)
            if labels[l] != labels[i] and z > 0.0:
                push += z
                c[i, j] += 1.0
                c[i, l] -= 1.0
    vp = np.array([x[i] - x[j] for i, j in pairs])
    s = c + c.T
    push_grad = x.T @ (np.diag(s.sum(axis=1)) - s) @ x
    grad = (1.0 - mu) * (vp.T @ vp) + mu * 0.5 * (push_grad + push_grad.T)
    return np.array(pairs), (1.0 - mu) * pull + mu * push, push, 0.5 * (grad + grad.T), c


def _assert_lmnn_matches_oracle(x, labels, problem, m, mu):
    """The kernel against _lmnn_oracle at m: the value, the integer counts exactly, the gradient to 1e-12.

    The kernel's counts are its weights: one per target pair, and one per
    block entry, the pair (i, l) of unequal ratings, which counts the active
    hinges of both anchors, -(c[i, l] + c[l, i]) in the oracle's terms.
    Returns the oracle's push term and c.
    """
    pairs, objective, push, gradient, c = _lmnn_oracle(x, labels, 3, m, mu)
    assert np.array_equal(problem.target_pairs, pairs)
    assert lmnn_objective(m, problem, mu) == pytest.approx(objective, rel=1e-12)
    kernel = learners._LmnnKernel(problem, mu)
    counts = kernel.weights(kernel.value(m)[1])
    assert np.array_equal(counts, c[pairs[:, 0], pairs[:, 1]])
    entry = np.zeros_like(c)
    rows, cols = kernel.blocks.order[kernel.ends]  # each entry's two rows, in the fold's order
    entry[rows, cols] = entry[cols, rows] = kernel.entries
    assert np.array_equal(entry, np.where(np.not_equal.outer(labels, labels), -(c + c.T), 0.0))
    got = lmnn_gradient(m, problem, mu)
    assert np.abs(got - gradient).max() <= 1e-12 * np.abs(gradient).max()
    return push, c


@pytest.mark.parametrize(
    "case", ["small_classes", "single_class", "random", "ratings_1_10", "singleton_impostor", "equal_features"]
)
@pytest.mark.parametrize("mu", [0.5, 0.2])
def test_lmnn_kernels_match_triple_loop_oracle(case, mu):
    labels = {
        # a singleton class (its row is skipped) and classes with 2 and 3 members,
        # fewer than k + 1
        "small_classes": [1] * 8 + [2] * 6 + [3] * 2 + [4] + [5] * 3,
        "single_class": [2] * 8,  # one class: no block, so no impostors
        "random": list(np.random.default_rng(20).integers(1, 6, 40)),
        "ratings_1_10": list(range(1, 11)) * 4,  # nine blocks
        # rating 3's one row sits among rating 1's: an impostor that anchors nothing
        "singleton_impostor": [1] * 10 + [2] * 10 + [3],
        "equal_features": [1, 2, 3, 4, 5] * 6,
    }[case]
    rng = np.random.default_rng(len(labels))
    x = rng.normal(size=(len(labels), 3))
    if case == "singleton_impostor":
        x[20] = x[:10].mean(axis=0)
    elif case == "equal_features":
        x[1], x[7], x[13] = x[0], x[0], x[4]  # rows rated 1 and 2, 3 and 1, 4 and 5
    ds = toy(x, labels)
    if min(np.unique(labels, return_counts=True)[1]) == 1:
        with pytest.warns(SmallClassWarning):
            problem = lmnn_problem(ds, 3)
    else:
        problem = lmnn_problem(ds, 3)
    assert len(learners._RatingBlocks(x, ds.labels).spans) == len(set(labels)) - 1
    for _ in range(3):
        m = random_spd(rng, 3) / 3.0
        push, c = _assert_lmnn_matches_oracle(x, labels, problem, m, mu)
        assert (push > 0.0) == (len(set(labels)) > 1)
        if case == "single_class":
            # push 0, and the gradient is the pull term's, bit for bit
            pull = (1.0 - mu) * problem.pull_gram
            assert np.array_equal(lmnn_gradient(m, problem, mu), 0.5 * (pull + pull.T))
        elif case == "singleton_impostor":
            assert (c[:, 20] < 0.0).any() and not c[20].any()


@pytest.mark.parametrize("k_targets", [1, 3, 5])
@pytest.mark.parametrize("n, top", [(140, 5), (140, 10)])
def test_lmnn_counts_all_ranks_in_one_pass_as_per_rank(k_targets, n, top):
    # the one count keyed by rank * n + anchor against one bincount per target rank
    rng = np.random.default_rng(k_targets)
    ds = make_dataset(rng, n, 4, scale=(1, top))
    problem = lmnn_problem(ds, k_targets)
    kernel = learners._LmnnKernel(problem, 0.5)
    state = kernel.value(random_spd(rng, 4) / 4.0)[1]
    _, anchor, hinge = state
    active = hinge > 0.0
    per_rank = np.stack([np.bincount(anchor.ravel(), weights=r.ravel(), minlength=n) for r in active])
    assert active.any()
    want = per_rank[problem.target_ranks, kernel._anchors]
    assert np.array_equal(kernel.weights(state), want)


@pytest.mark.parametrize("case", ["every_impostor", "no_impostor", "short_anchor"])
@pytest.mark.parametrize("mu", [0.5, 0.2])
def test_lmnn_screen_edge_cases_match_triple_loop_oracle(case, mu):
    # the value sums its hinges over the entries the screen lists, and the
    # gradient counts them from those entries only
    rng = np.random.default_rng(21)
    if case == "every_impostor":
        # M = 1e-8 I: every d2 is near 0, so every impostor lies inside every margin
        labels = [1, 2, 3, 4, 5] * 6
        x = rng.normal(size=(30, 3))
        m = 1e-8 * np.eye(3)
    elif case == "no_impostor":
        # two classes about 17 apart: every impostor lies far outside every margin
        labels = [1] * 10 + [5] * 10
        x = np.vstack([rng.normal(-5.0, 0.3, (10, 3)), rng.normal(5.0, 0.3, (10, 3))])
        m = np.eye(3)
    else:
        # rating 4 has two members: each has one target, so ranks 1 and 2 of its thr are -inf
        labels = [1] * 10 + [2] * 10 + [4] * 2
        x = rng.normal(size=(22, 3))
        m = random_spd(rng, 3) / 3.0
    problem = lmnn_problem(toy(x, labels, scale=(1, 5)), 3)
    kernel = learners._LmnnKernel(problem, mu)
    _, (flat, anchor, hinge) = kernel.value(m)
    listed = kernel.blocks.order[anchor]  # the two rows of each listed entry, in the fold's order
    push, _ = _assert_lmnn_matches_oracle(x, labels, problem, m, mu)
    if case == "every_impostor":
        # every pair of unequal ratings, once
        want = [(i, l) for i in range(30) for l in range(i + 1, 30) if labels[i] != labels[l]]
        assert sorted(map(tuple, np.sort(listed, axis=0).T.tolist())) == want
    elif case == "no_impostor":
        assert flat.size == 0 and push == 0.0
        pull = (1.0 - mu) * problem.pull_gram
        assert np.array_equal(lmnn_gradient(m, problem, mu), 0.5 * (pull + pull.T))
    else:
        short = np.isin(listed, [20, 21])
        assert np.isin([20, 21], listed).all()  # their rank-0 hinges stay screened
        assert not hinge[1:, short].any()  # and they have no hinge of rank 1 or 2


def _lmnn_ray_oracle(x, labels, pairs, mu):
    """argmin over c > 0 of eps(cI), walking every breakpoint of its slope in order.

    With b = d2(i, l) - d2(i, j) at I per hinge, eps(cI) = (1 - mu) c P + mu
    sum [1 - c b]_+. Its slope near c = 0 is (1 - mu) P - mu sum b, and the
    hinge of a b > 0 leaves it, adding mu b, at c = 1 / b. Returns 1.0 when the
    slope never gets past 0.
    """

    def d2(a, b):
        return float((x[a] - x[b]) @ (x[a] - x[b]))

    falls = [d2(i, l) - d2(i, j) for i, j in pairs for l in range(len(labels)) if labels[l] != labels[i]]
    slope = (1.0 - mu) * sum(d2(i, j) for i, j in pairs) - mu * sum(falls)
    for b in sorted((b for b in falls if b > 0.0), reverse=True):
        slope += mu * b
        if slope >= 0.0:
            return 1.0 / b
    return 1.0


def _lmnn_start(monkeypatch, ds, config=ExperimentConfig()):
    """The point fit_lmnn hands the engine, and its trace."""
    starts = []
    engine = learners._spg

    def recording(x0, *args):
        starts.append(np.array(x0))
        return engine(x0, *args)

    monkeypatch.setattr(learners, "_spg", recording)
    _, trace = fit_lmnn(ds, config)
    return starts[0], trace


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lmnn_starts_at_the_ray_minimizer(monkeypatch, seed):
    ds = make_dataset(np.random.default_rng(seed), 40, 3)
    problem = lmnn_problem(ds, 3)
    start, trace = _lmnn_start(monkeypatch, ds)
    c = start[0, 0]
    assert np.array_equal(start, c * np.eye(3))
    assert c == pytest.approx(_lmnn_ray_oracle(ds.features, ds.labels, problem.target_pairs, 0.5), rel=1e-12)
    first = trace.objective_values[0]
    assert first == lmnn_objective(c * np.eye(3), problem, 0.5)
    for scale in (0.5, 0.9, 1.1, 2.0):
        assert first <= lmnn_objective(scale * c * np.eye(3), problem, 0.5)
    # one rating class: no impostor, so eps(cI) = (1 - mu) c P falls to c = 0; the fit keeps I
    single = toy(np.random.default_rng(seed).normal(size=(12, 3)), [2] * 12, scale=(1, 5))
    assert np.array_equal(_lmnn_start(monkeypatch, single, ExperimentConfig(lmnn_k_targets=2))[0], np.eye(3))


def test_lmnn_gradient_matches_finite_differences():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(10, 3))
    ds = toy(x, [1, 1, 1, 2, 2, 2, 3, 3, 3, 3], scale=(1, 5))
    problem = lmnn_problem(ds, 2)
    for _ in range(3):
        m = random_spd(rng, 3)
        err = max_grad_error(
            lambda mm: lmnn_objective(mm, problem, 0.5),
            lambda mm: lmnn_gradient(mm, problem, 0.5),
            m,
        )
        assert err < 1e-4


def test_lmnn_trace_is_nonincreasing():
    rng = np.random.default_rng(15)
    ds = make_dataset(rng, 30, 3)
    _, trace = fit_lmnn(ds, ExperimentConfig(lmnn_k_targets=2))
    diffs = np.diff(np.asarray(trace.objective_values))
    assert np.all(diffs <= 1e-9)


# ---------------------------------------------------------------------------
# Shared learner invariants


def _fit_all(ds):
    fits = {
        "euclidean": euclidean_baseline(ds.d),
        "precision": precision_baseline(ds),
        "lmnn": fit_lmnn(ds, ExperimentConfig(lmnn_k_targets=2))[0],
        "mmc_full": fit_mmc(ds, ExperimentConfig(mmc_form="full"))[0],
        "mmc_diag": fit_mmc(ds, ExperimentConfig(mmc_form="diagonal"))[0],
        "lsml": fit_lsml(ds, build_triplets(ds, 0.0), ExperimentConfig(alpha=0.01))[0],
    }
    return fits


def test_every_learner_returns_valid_metric():
    rng = np.random.default_rng(16)
    for _ in range(3):
        ds = make_dataset(rng, 30, 4)
        for name, metric in _fit_all(ds).items():
            m = metric.matrix
            assert float(np.max(np.abs(m - m.T))) <= 1e-9, name
            assert float(np.linalg.eigvalsh(m)[0]) >= -1e-8, name


def test_learners_are_deterministic():
    rng = np.random.default_rng(17)
    ds = make_dataset(rng, 25, 3)
    triplets = build_triplets(ds, 1.0)
    for fit in (
        lambda: fit_lsml(ds, triplets, ExperimentConfig(alpha=0.01))[0].matrix,
        lambda: fit_lmnn(ds, ExperimentConfig(lmnn_k_targets=2))[0].matrix,
        lambda: fit_mmc(ds, ExperimentConfig(mmc_form="full"))[0].matrix,
        lambda: fit_mmc(ds, ExperimentConfig(mmc_form="diagonal"))[0].matrix,
    ):
        assert np.array_equal(fit(), fit())


def test_trace_length_matches_iterations():
    rng = np.random.default_rng(18)
    ds = make_dataset(rng, 20, 3)
    _, trace = fit_lsml(ds, build_triplets(ds, 0.0), ExperimentConfig(alpha=0.01, lsml_max_iter=5))
    assert trace.iterations == len(trace.objective_values)
    assert trace.iterations <= 5


def test_projection_count_is_at_most_one_per_iteration():
    # seed 22 makes every learner project at least once; the MMC full form's
    # projection clips several times per call (its search over lam) but counts once
    ds = make_dataset(np.random.default_rng(22), 50, 4)
    for name, fit in (
        ("lsml", lambda: fit_lsml(ds, build_triplets(ds, 0.0), ExperimentConfig(alpha=0.01))),
        ("lmnn", lambda: fit_lmnn(ds, ExperimentConfig(lmnn_k_targets=3))),
        ("mmc_full", lambda: fit_mmc(ds, ExperimentConfig(mmc_form="full"))),
        ("mmc_diag", lambda: fit_mmc(ds, ExperimentConfig(mmc_form="diagonal"))),
    ):
        trace = fit()[1]
        assert 0 < trace.projection_count <= trace.iterations, name


def _engine_cases(ds):
    """Per iterative learner: its fit, its objective from scratch and the sign of its trace."""
    triplets = build_triplets(ds, 0.0)
    problem = lmnn_problem(ds, 3)
    lsml, lmnn = ExperimentConfig(alpha=0.01), ExperimentConfig(lmnn_k_targets=3, lmnn_mu=0.5)
    full, diagonal = ExperimentConfig(mmc_form="full"), ExperimentConfig(mmc_form="diagonal")
    return {
        "lsml": (lambda: fit_lsml(ds, triplets, lsml), lambda m: lsml_objective(m, ds, triplets, 0.01), 1.0),
        "lmnn": (lambda: fit_lmnn(ds, lmnn), lambda m: lmnn_objective(m, problem, 0.5), 1.0),
        # MMC traces the ascent of the dissimilar sum
        "mmc_full": (lambda: fit_mmc(ds, full), _mmc_pair_oracle(ds, "full")[0], -1.0),
        "mmc_diagonal": (lambda: fit_mmc(ds, diagonal), _mmc_pair_oracle(ds, "diagonal")[0], -1.0),
    }


def _record_engine(monkeypatch):
    """Log each fit's calls into its evaluate and gradient, and its line searches.

    Each fit appends a log: `points` and `values` of its evaluate calls, in
    order; `gradients`, per gradient call, the number of evaluate calls made
    before it and the gradient; `searches`, per `_armijo` call, (x, d, f,
    slope, index of its first evaluate call).
    """
    engine, search = learners._spg, learners._armijo
    logs = []

    def recording_spg(x0, evaluate, gradient, project, max_iter, tol):
        log = {"points": [], "values": [], "gradients": [], "searches": []}
        logs.append(log)

        def logged_evaluate(x):
            f, state = evaluate(x)
            log["points"].append(x.copy())
            log["values"].append(f)
            return f, state

        def logged_gradient(state):
            g = gradient(state)
            log["gradients"].append((len(log["values"]), g.copy()))
            return g

        return engine(x0, logged_evaluate, logged_gradient, project, max_iter, tol)

    def recording_armijo(evaluate, x, d, f, slope):
        logs[-1]["searches"].append((x.copy(), d.copy(), f, slope, len(logs[-1]["values"])))
        return search(evaluate, x, d, f, slope)

    monkeypatch.setattr(learners, "_spg", recording_spg)
    monkeypatch.setattr(learners, "_armijo", recording_armijo)
    return logs


def _search_trials(log):
    """Per line search, its x, d, f, slope and the indices of its evaluate calls."""
    ends = [first for *_, first in log["searches"][1:]] + [len(log["values"])]
    return [(x, d, f, slope, range(first, end)) for (x, d, f, slope, first), end in zip(log["searches"], ends)]


def test_trace_counts_every_objective_and_gradient_call(monkeypatch):
    logs = _record_engine(monkeypatch)
    ds = make_dataset(np.random.default_rng(22), 50, 4)
    for name, (fit, _, sign) in _engine_cases(ds).items():
        trace = fit()[1]
        log = logs[-1]
        # the iterates are the points the engine takes gradients at: the start
        # and each accepted trial, evaluated once each
        iterates = [(log["values"][seen - 1], g) for seen, g in log["gradients"]]
        trials = len(log["values"]) - 1
        # each iterate costs one evaluation and one gradient, each trial one
        # evaluation; `iterations` counts the iterates, so the gradients too
        assert trace.evaluations == len(iterates) + trials, name
        assert trace.objective_values == tuple(sign * f for f, _ in iterates), name
        assert trace.iterations == len(iterates), name
        assert np.all(np.diff([f for f, _ in iterates]) < 0.0), name
        # the last trial from each iterate but the final one is the accepted
        # step, and it meets the Armijo rule; every earlier trial fails it
        searches = _search_trials(log)
        assert len(searches) in (len(iterates) - 1, len(iterates)), name
        for k, (x, d, f, slope, calls) in enumerate(searches):
            assert (f, slope) == (iterates[k][0], float(np.vdot(iterates[k][1], d))), name
            steps = [float(np.vdot(log["points"][c] - x, d) / np.vdot(d, d)) for c in calls]
            accepted = k + 1 < len(iterates)
            for c, t in zip(calls, steps):
                meets = log["values"][c] <= f + learners.ARMIJO * t * slope
                assert meets == (accepted and c == calls[-1]), name


def test_spg_holds_one_evaluation_state_at_a_time():
    # Rosenbrock's valley in a box: spectral steps overshoot it, so the line
    # searches reject trials as well as accept them
    class State:
        def __init__(self, x):
            self.x = x

    earlier, calls = [], {"evaluate": 0, "gradient": 0}

    def evaluate(x):
        assert all(ref() is None for ref in earlier), "a state returned earlier is still alive"
        calls["evaluate"] += 1
        state = State(x.copy())
        earlier.append(weakref.ref(state))
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2), state

    def gradient(state):
        calls["gradient"] += 1
        x = state.x
        return np.array([-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]), 200.0 * (x[1] - x[0] ** 2)])

    def project(x):
        p = np.clip(x, -2.0, 2.0)
        return p, int(not np.array_equal(p, x))

    _, trace = learners._spg(np.array([-1.2, 1.0]), evaluate, gradient, project, 200, 1e-12)
    assert calls["gradient"] == trace.iterations > 3
    assert calls["evaluate"] > calls["gradient"] + 1  # some trials were rejected


def _count_trials(patch):
    """Patch learners._armijo to log the trials of each line search; returns the log."""
    search, trials = learners._armijo, []

    def counting(*args):
        out = search(*args)
        trials.append(out[2])
        return out

    patch.setattr(learners, "_armijo", counting)
    return trials


def _spg_path(monkeypatch, x0, target):
    """_spg on f(X) = |X - target|_F^2 / 2 over the PSD cone, at tol 0 and at most 10 iterates.

    Returns the trials of each line search, the points evaluated and the trace.
    """
    points = []

    def evaluate(x):
        points.append(x)
        return 0.5 * float(np.sum(np.square(x - target))), x

    with monkeypatch.context() as patch:
        trials = _count_trials(patch)
        _, trace = learners._spg(x0, evaluate, lambda x: x - target, learners._clip_to_cone, 10, 0.0)
    return trials, points, trace


@pytest.mark.parametrize("k", [-20, 20])
def test_spg_path_scales_with_the_problem(monkeypatch, k):
    # scaling the start and the objective's minimizer by 2^k scales the
    # gradient and the projection alike; the first step, relative to the
    # start's size, then takes the same trials, and each iterate is 2^k times
    # the unscaled one
    rng = np.random.default_rng(31)
    a = rng.normal(size=(5, 5))
    target = a + a.T
    w = np.linalg.eigvalsh(target)
    assert w[0] < 0.0 < w[-1]  # indefinite, so the projection acts
    x0 = random_spd(rng, 5)
    trials, points, trace = _spg_path(monkeypatch, x0, target)
    scaled_trials, scaled_points, scaled_trace = _spg_path(monkeypatch, 2.0**k * x0, 2.0**k * target)
    assert trace.iterations > 3
    assert scaled_trials == trials
    assert (scaled_trace.iterations, scaled_trace.evaluations) == (trace.iterations, trace.evaluations)
    assert len(scaled_points) == len(points)
    for p, q in zip(points, scaled_points):
        np.testing.assert_allclose(q, 2.0**k * p, rtol=1e-12, atol=0.0)


def test_lsml_first_line_search_takes_few_trials(monkeypatch):
    # LSML starts at c* I with c* far below 1 here; a first step of unit size
    # against that start backtracks about 9 times before one is accepted
    ds, triplets = _lsml_fold("train140")
    trials = _count_trials(monkeypatch)
    fit_lsml(ds, triplets)
    assert trials[0] <= 3


@pytest.mark.parametrize("name", ["lsml", "lmnn", "mmc_full", "mmc_diagonal"])
def test_line_search_evaluates_each_trial_once_and_keeps_the_accepted_one(monkeypatch, name):
    ds = make_dataset(np.random.default_rng(23), 120, 5)
    fit, objective, sign = _engine_cases(ds)[name]
    logs = _record_engine(monkeypatch)
    trace = fit()[1]
    log = logs[-1]
    # evaluate runs at the start and at every trial, gradient at every iterate
    assert len(log["values"]) == 1 + trace.evaluations - trace.iterations
    assert len(log["gradients"]) == trace.iterations
    for k, (x, d, f, slope, calls) in enumerate(_search_trials(log)):
        # replay the backtracking: every trial is evaluate(x + t d), from t = 1
        t = 1.0
        for c in calls:
            point, value = log["points"][c], log["values"][c]
            assert np.array_equal(point, x + t * d)
            want = objective(point)
            assert abs(value - want) <= 1e-12 * abs(want)
            if value <= f + learners.ARMIJO * t * slope:
                # accepted: the next iterate, with its gradient taken before any other evaluation
                assert c == calls[-1]
                assert sign * value == trace.objective_values[k + 1]
                assert log["gradients"][k + 1][0] == c + 1
                break
            quadratic = -0.5 * t * t * slope / (value - f - t * slope)
            t = quadratic if 0.1 * t <= quadratic <= 0.9 * t else 0.5 * t
        else:
            assert k == trace.iterations - 1  # only the final search may fail


@pytest.mark.parametrize("name", ["lsml", "lmnn", "mmc_full", "mmc_diagonal"])
def test_last_point_memo_changes_no_fit(monkeypatch, name):
    # the engine keeps the last point it evaluated, the accepted trial, and
    # reuses its value and state at the next iterate; evaluating that point
    # again gives the same metric and trace
    ds = make_dataset(np.random.default_rng(23), 120, 5)
    fit = _engine_cases(ds)[name][0]
    metric, trace = fit()
    search = learners._armijo

    def reevaluating(evaluate, x, d, f, slope):
        point, accepted, trials = search(evaluate, x, d, f, slope)
        return point, (None if point is None else evaluate(point)), trials

    monkeypatch.setattr(learners, "_armijo", reevaluating)
    again, again_trace = fit()
    assert np.array_equal(metric.matrix, again.matrix)
    assert trace == again_trace


@pytest.mark.parametrize(
    "options",
    [
        {"max_iter": 0},
        {"max_iter": -3},
        {"tol": -1.0},
        {"tol": float("nan")},
        {"tol": float("inf")},
    ],
)
def test_optimizer_options_reject_no_iterations_and_bad_tolerances(options):
    # each learner's stop keys are checked once, by the config
    for learner in ("lsml", "lmnn", "mmc"):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**{f"{learner}_{key}": value for key, value in options.items()})
        # the least values a config may set
        ExperimentConfig(**{f"{learner}_max_iter": 1, f"{learner}_tol": 0.0})


def test_each_learner_reads_only_its_own_keys():
    # a config that sets every key of one learner, its cap at 3 iterations
    # among them, leaves the other learners' fits as they are by default
    ds = make_dataset(np.random.default_rng(18), 30, 3)
    triplets = build_triplets(ds, 0.0)
    fits = {
        "lsml": lambda config: fit_lsml(ds, triplets, config),
        "lmnn": lambda config: fit_lmnn(ds, config),
        "mmc": lambda config: fit_mmc(ds, config),
    }
    own_keys = {
        "lsml": {"alpha": 0.1, "lsml_max_iter": 3, "lsml_tol": 1e-9},
        "lmnn": {"lmnn_k_targets": 2, "lmnn_mu": 0.3, "lmnn_max_iter": 3, "lmnn_tol": 1e-9},
        "mmc": {"mmc_form": "diagonal", "mmc_max_iter": 3, "mmc_tol": 1e-9},
    }
    defaults = {name: fit(ExperimentConfig()) for name, fit in fits.items()}
    for capped, keys in own_keys.items():
        config = ExperimentConfig(**keys)
        for name, fit in fits.items():
            metric, trace = fit(config)
            if name == capped:
                assert trace.iterations == 3 and not trace.converged, name
            else:
                assert np.array_equal(metric.matrix, defaults[name][0].matrix), (capped, name)
                assert trace == defaults[name][1], (capped, name)


def test_lmnn_fit_peak_memory_is_its_workspace():
    # 420 rows: the kernel keeps the rating blocks' entries, 0.4 n^2 of them,
    # in flat buffers, with no same-label mask and no (n, n) workspace: their
    # two anchors (intp, 1.08 MiB), their d2 (0.54 MiB), the screen mask and
    # the layout's (n, d) arrays, 1.97 MiB in all. The fit peaks at 3.4 MiB,
    # in the screened hinges of the ray start and the early evaluations. The
    # bound leaves 0.6 MiB over that, so one more (n, n) float array alive
    # (1.35 MiB) breaks it.
    ds = make_dataset(np.random.default_rng(1), 420, 10)
    tracemalloc.start()
    try:
        fit_lmnn(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * 2**20


@pytest.mark.parametrize("form", ["full", "diagonal"])
def test_mmc_fit_peak_memory_holds_no_second_square_array(form):
    # 420 rows: an (n, n) float array is 1.35 MiB. The fit peaks in
    # _mmc_pairs, at the float similar mask that xs is made from plus its
    # bool masks, 1.56 MiB; the rating blocks' distance and weight buffers
    # hold 2 x 0.4 n^2 floats, 1.08 MiB, after that. Two (n, n) float arrays
    # alive at once, 2.7 MiB, break the 2.5 MiB bound, as does a Gram
    # workspace with a float pair mask (4.28 MiB).
    ds = make_dataset(np.random.default_rng(1), 420, 10)
    tracemalloc.start()
    try:
        fit_mmc(ds, ExperimentConfig(mmc_form=form))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20


# ---------------------------------------------------------------------------
# Serialization


def test_metric_save_load_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(19)
    metric = MahalanobisMetric(random_spd(rng, 5))
    path = tmp_path / "metric.txt"
    save_metric(metric, path)
    loaded = load_metric(path)
    assert np.array_equal(loaded.matrix, metric.matrix)
    first = path.read_text().splitlines()[0]
    assert first == "5"


def test_load_metric_names_the_file_and_row_of_a_non_numeric_value(tmp_path):
    path = tmp_path / "metric.txt"
    path.write_text("2\n1.0 abc\n0 1\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match=r"metric\.txt: matrix row 1: .*'abc'"):
        load_metric(path)
