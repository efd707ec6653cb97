import numpy as np
import pytest

from fairmetric import learners
from fairmetric.constraints import build_pairs, build_triplets
from fairmetric.core import (
    LabeledDataset,
    MahalanobisMetric,
    RatingScale,
    TripletSet,
)
from fairmetric.errors import ConditionWarning, ConstraintError, SmallClassWarning
from fairmetric.learners import (
    OptimizerOptions,
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

from conftest import make_dataset, random_spd, toy


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
    g = grad_fun(m)
    worst = 0.0
    for e in sym_dirs(m.shape[0]):
        num = (fun(m + h * e) - fun(m - h * e)) / (2 * h)
        ana = float((g * e).sum())
        worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1e-8))
    return worst


# ---------------------------------------------------------------------------
# Baselines


def test_euclidean_baseline_is_identity():
    m = euclidean_baseline(3)
    assert np.array_equal(m.matrix, np.eye(3))


def test_euclidean_distances_match_l2():
    rng = np.random.default_rng(0)
    m = euclidean_baseline(4)
    from fairmetric.core import distance

    for _ in range(10):
        x, y = rng.normal(size=4), rng.normal(size=4)
        assert distance(m, x, y) == pytest.approx(float(np.linalg.norm(x - y)), rel=1e-12)


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
    metric, trace = fit_mmc(ds, form=form)
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
    metric, _ = fit_mmc(ds, form="diagonal")
    w = np.diag(metric.matrix)
    assert w[1] <= 0.05 * w[0]

    # grid-search oracle on the diagonal objective agrees the optimum has w1 = 0
    pairs = build_pairs(ds)
    vs = x[pairs.similar[:, 0]] - x[pairs.similar[:, 1]]
    vd = x[pairs.dissimilar[:, 0]] - x[pairs.dissimilar[:, 1]]
    sim_col = (vs**2).sum(axis=0)
    dis_sq = vd**2

    def g(wvec):
        total = np.sqrt(dis_sq @ wvec).sum()
        return float(sim_col @ wvec) - float(np.log(total))

    grid0 = np.logspace(-4, 2, 30)
    grid1 = np.concatenate([[0.0], np.logspace(-6, 1, 25)])
    _, _, best_w1 = min((g(np.array([a, b])), a, b) for a in grid0 for b in grid1)
    assert best_w1 == 0.0


def test_mmc_single_class_raises():
    ds = toy(np.random.default_rng(4).normal(size=(6, 2)), [2] * 6)
    with pytest.raises(ConstraintError):
        fit_mmc(ds, form="full")
    with pytest.raises(ConstraintError):
        fit_mmc(ds, form="diagonal")


def test_mmc_distinct_labels_raise():
    # every rating differs, so there is no similar pair
    ds = toy(np.random.default_rng(4).normal(size=(5, 2)), [1, 2, 3, 4, 5])
    with pytest.raises(ConstraintError):
        fit_mmc(ds, form="full")
    with pytest.raises(ConstraintError):
        fit_mmc(ds, form="diagonal")


def _mmc_objective(monkeypatch, ds, form):
    """The objective and gradient that fit_mmc hands to the optimizer."""
    engine, captured = learners._spg, []

    def capture(x0, local, project, opts):
        captured.append(local)
        return engine(x0, local, project, opts)

    monkeypatch.setattr(learners, "_spg", capture)
    fit_mmc(ds, form, OptimizerOptions(max_iter=2))
    local = captured[0]
    return (lambda x: local(x)[0]), (lambda x: local(x)[1])


def _mmc_pair_oracle(ds, form):
    """The same objective and gradient, summed over build_pairs' pair differences."""
    pairs = build_pairs(ds)
    x = ds.features
    vs = x[pairs.similar[:, 0]] - x[pairs.similar[:, 1]]
    vd = x[pairs.dissimilar[:, 0]] - x[pairs.dissimilar[:, 1]]

    def dissimilar(m):  # the distance sum and its gradient in M
        dist = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", vd, m, vd), 0.0))
        inv2d = np.where(dist > 0.0, 0.5 / np.where(dist > 0.0, dist, 1.0), 0.0)
        return float(dist.sum()), (vd * inv2d[:, None]).T @ vd

    if form == "full":
        return (lambda m: -dissimilar(m)[0]), (lambda m: -dissimilar(m)[1])
    sim_col = (vs**2).sum(axis=0)

    def grad(w):
        total, g = dissimilar(np.diag(w))
        return sim_col - np.diag(g) / total

    return (lambda w: float(sim_col @ w) - np.log(dissimilar(np.diag(w))[0])), grad


def _duplicated_fold(rng):
    # 260 rows that repeat 5 feature rows under random ratings: most dissimilar
    # pairs have equal features. At this size the Gram form leaves some of them
    # a distance near 1e-8 instead of 0 (full form, OpenBLAS), which the
    # duplicate mask must drop for the oracle to match.
    base = rng.normal(size=(5, 4))
    return toy(base[np.arange(260) % 5], rng.integers(1, 6, 260), scale=(1, 5))


@pytest.mark.parametrize("fold", ["random", "duplicated"])
@pytest.mark.parametrize("form", ["diagonal", "full"])
def test_mmc_gram_kernel_matches_pair_oracle(monkeypatch, form, fold):
    rng = np.random.default_rng(0)
    folds = [make_dataset(rng, n, 4) for n in (60, 140)] if fold == "random" else [_duplicated_fold(rng)]
    for ds in folds:
        fun, grad = _mmc_objective(monkeypatch, ds, form)
        oracle_fun, oracle_grad = _mmc_pair_oracle(ds, form)
        for _ in range(3):
            point = random_spd(rng, 4) if form == "full" else rng.uniform(0.1, 2.0, 4)
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
    metric, _ = fit_mmc(ds, form=form)
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
    metric, trace = fit_mmc(ds, form="full")
    diffs = np.diff(np.asarray(trace.objective_values))
    assert np.all(diffs >= -1e-9)


def test_mmc_diagonal_trace_is_nonincreasing():
    rng = np.random.default_rng(7)
    ds = make_dataset(rng, 30, 3)
    _, trace = fit_mmc(ds, form="diagonal")
    diffs = np.diff(np.asarray(trace.objective_values))
    assert np.all(diffs <= 1e-9)


@pytest.mark.parametrize("seed", [20, 24])
def test_mmc_diagonal_converges_well_before_max_iter(seed):
    _, trace = fit_mmc(make_dataset(np.random.default_rng(seed), 50, 4), "diagonal")
    assert trace.converged
    assert trace.iterations < 100


@pytest.mark.parametrize("seed", [20, 24])
def test_mmc_diagonal_starts_at_the_ray_minimizer(seed):
    # g(c 1) = c tr(xs) - log(c) / 2 - log sum_dis d_1 is least at c = 1 / (2 tr(xs))
    ds = make_dataset(np.random.default_rng(seed), 50, 4)
    g = _mmc_pair_oracle(ds, "diagonal")[0]
    pairs = build_pairs(ds)
    vs = ds.features[pairs.similar[:, 0]] - ds.features[pairs.similar[:, 1]]
    start = np.full(4, 0.5 / float((vs**2).sum()))
    _, trace = fit_mmc(ds, "diagonal")
    first = trace.objective_values[0]
    assert abs(first - g(start)) <= 1e-12 * abs(first)
    for c in (0.5, 0.9, 1.1, 2.0):
        assert first <= g(c * start)


def test_mmc_diagonal_starts_at_ones_when_similar_pairs_coincide():
    # every similar pair has equal features: tr(xs) = 0 and g has no minimum on the ray
    ds = toy([[0.0, 0.0], [0.0, 0.0], [1.0, 2.0], [1.0, 2.0], [3.0, 1.0]], [1, 1, 2, 2, 3])
    _, trace = fit_mmc(ds, "diagonal", OptimizerOptions(max_iter=2))
    want = _mmc_pair_oracle(ds, "diagonal")[0](np.ones(2))
    assert abs(trace.objective_values[0] - want) <= 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# LSML


def test_lsml_satisfied_triplets_return_identity():
    # clusters ordered so every triplet is satisfied under plain l2 already
    x = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [0.0, 1.0], [1.0, 1.0], [5.0, 1.0]])
    ds = toy(x, [1, 2, 5, 1, 2, 5])
    triplets = build_triplets(ds, 0.0)
    metric, trace = fit_lsml(ds, triplets, alpha=0.01)
    assert trace.objective_values[0] == 0.0
    assert np.array_equal(metric.matrix, np.eye(2))


def test_lsml_shrinks_axis_for_violated_triplet_small_alpha():
    # 1-D: d(a,b) = 2 sqrt(w), d(a,c) = sqrt(w); J(w) = alpha*(w - ln w - 1) + w
    # with minimizer w* = alpha / (1 + alpha)
    alpha = 1e-3
    ds = toy(np.array([[0.0], [2.0], [1.0]]), [1, 1, 1])
    triplets = TripletSet(np.array([[0, 1, 2]]), sigma=0.0)
    metric, _ = fit_lsml(ds, triplets, alpha=alpha)
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
    metric, _ = fit_lsml(ds, triplets, alpha=1e6)
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
    _, trace = fit_lsml(ds, triplets, alpha=0.01)
    diffs = np.diff(np.asarray(trace.objective_values))
    assert np.all(diffs <= 1e-9)
    with pytest.raises(ConstraintError):
        fit_lsml(ds, TripletSet(np.empty((0, 3), dtype=int), 0.0), alpha=0.01)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lsml_metric_is_off_the_eigenvalue_floor(seed):
    # the minimizer is well conditioned; a fit that stalls on the floored cone's
    # boundary ends with lambda_min / lambda_max at RELATIVE_EIG_FLOOR
    ds = make_dataset(np.random.default_rng(seed), 30, 3)
    metric, trace = fit_lsml(ds, build_triplets(ds, 0.0), alpha=0.01)
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
    _, trace = fit_lsml(ds, triplets, alpha=alpha)
    first = trace.objective_values[0]
    assert first == lsml_objective(start * np.eye(3), ds, triplets, alpha)
    for c in (0.5, 0.9, 1.1, 2.0):
        assert first <= lsml_objective(c * start * np.eye(3), ds, triplets, alpha)
    assert trace.converged
    assert trace.iterations < 25


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lsml_segment_matches_objective(seed):
    # phi(t) on the segment m + t d, d = P(m - lam g) - m, against a direct
    # evaluation at m + t d; the largest lam puts the segment's end on the floor
    rng = np.random.default_rng(seed)
    ds = make_dataset(rng, 30, 4)
    triplets = build_triplets(ds, 0.0)
    vab, vac = learners._triplet_diffs(ds, triplets)
    alpha, eps = 0.01, np.finfo(float).eps
    for scale in (1e-3, 1e-1, 10.0):
        m = random_spd(rng, 4)
        _, g, along = learners._lsml_local(m, vab, vac, alpha)
        end, floored = learners._clip_to_floored_cone(m - scale / np.abs(g).max() * g)
        d = end - m
        phi = along(d)
        w = np.linalg.eigvalsh(end)
        if scale == 10.0:
            assert floored and w[0] / w[-1] < 1.01 * learners.RELATIVE_EIG_FLOOR
            assert phi(2.0) == np.inf  # past the floor: logdet is undefined
        for t in (1e-8, 0.5, 1.0 - 1e-9, 1.0):
            point = m + t * d
            want = lsml_objective(point, ds, triplets, alpha)
            # the smallest eigenvalue of m + t d, and with it logdet, is resolved
            # only to about eps * cond(m) * cond(m + t d): at the floor, ~1e-6
            resolution = alpha * 4 * eps * np.linalg.cond(m) * np.linalg.cond(point)
            assert abs(phi(t) - want) <= 1e-12 * abs(want) + resolution


# ---------------------------------------------------------------------------
# LMNN


def test_lmnn_separated_clusters_have_no_active_hinge():
    rng = np.random.default_rng(11)
    n, half = 20, 10
    x = np.vstack([rng.normal(0.0, 0.3, (half, 2)), rng.normal(10.0, 0.3, (half, 2))])
    ds = toy(x, [1] * half + [5] * half, scale=(1, 5))
    metric, _ = fit_lmnn(ds, k_targets=1)
    problem = lmnn_problem(ds, 1)
    g = x @ metric.matrix @ x.T
    s = np.diag(g)
    d2 = s[:, None] + s[None, :] - 2 * g
    for (i, j), impostors in zip(problem.target_pairs, problem.impostor_mask):
        z = 1.0 + d2[i, j] - d2[i, impostors]
        assert impostors.any() and np.all(z <= 1e-8)


def test_lmnn_single_class_collapses_to_trace_guard():
    rng = np.random.default_rng(12)
    ds = toy(rng.normal(size=(12, 3)), [2] * 12, scale=(1, 5))
    metric, _ = fit_lmnn(ds, k_targets=2)
    assert np.trace(metric.matrix) == pytest.approx(3.0)


def test_lmnn_singleton_class_lenient_vs_strict():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(7, 2))
    ds = toy(x, [1, 1, 1, 2, 2, 2, 5], scale=(1, 5))
    with pytest.warns(SmallClassWarning):
        metric, _ = fit_lmnn(ds, k_targets=2)
    assert metric.d == 2
    with pytest.raises(ConstraintError):
        fit_lmnn(ds, k_targets=2, strict=True)


def _lmnn_oracle(x, labels, k, m, mu):
    """LMNN by its definition, looping over anchor i, target j and impostor l.

    Targets are the k nearest same-rating points under the Euclidean metric,
    lower index first on ties. Returns the target pairs, the objective, and the
    gradient assembled from the loop's count matrix c as
    (1 - mu) * sum v_ij v_ij^T + mu * x^T (diag(row sums of s) - s) x, s = c + c^T.
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
    return np.array(pairs), (1.0 - mu) * pull + mu * push, push, 0.5 * (grad + grad.T)


@pytest.mark.parametrize(
    "labels",
    [
        # a singleton class (its row is skipped) and classes with 2 and 3 members,
        # fewer than k + 1
        [1] * 8 + [2] * 6 + [3] * 2 + [4] + [5] * 3,
        [2] * 8,  # one class: no impostors
        list(np.random.default_rng(20).integers(1, 6, 40)),
    ],
    ids=["small_classes", "single_class", "random"],
)
@pytest.mark.parametrize("mu", [0.5, 0.2])
def test_lmnn_kernels_match_triple_loop_oracle(labels, mu):
    rng = np.random.default_rng(len(labels))
    x = rng.normal(size=(len(labels), 3))
    ds = toy(x, labels, scale=(1, 5))
    if min(np.unique(labels, return_counts=True)[1]) == 1:
        with pytest.warns(SmallClassWarning):
            problem = lmnn_problem(ds, 3)
    else:
        problem = lmnn_problem(ds, 3)
    for _ in range(3):
        m = random_spd(rng, 3) / 3.0
        pairs, objective, push, gradient = _lmnn_oracle(x, labels, 3, m, mu)
        assert (push > 0.0) == (len(set(labels)) > 1)
        assert np.array_equal(problem.target_pairs, pairs)
        assert lmnn_objective(m, problem, mu) == pytest.approx(objective, rel=1e-12)
        assert np.array_equal(lmnn_gradient(m, problem, mu), gradient)


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
    _, trace = fit_lmnn(ds, k_targets=2)
    diffs = np.diff(np.asarray(trace.objective_values))
    assert np.all(diffs <= 1e-9)


# ---------------------------------------------------------------------------
# Shared learner invariants


def _fit_all(ds):
    fits = {
        "euclidean": euclidean_baseline(ds.d),
        "precision": precision_baseline(ds),
        "lmnn": fit_lmnn(ds, k_targets=2)[0],
        "mmc_full": fit_mmc(ds, "full")[0],
        "mmc_diag": fit_mmc(ds, "diagonal")[0],
        "lsml": fit_lsml(ds, build_triplets(ds, 0.0), 0.01)[0],
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
        lambda: fit_lsml(ds, triplets, 0.01)[0].matrix,
        lambda: fit_lmnn(ds, 2)[0].matrix,
        lambda: fit_mmc(ds, "full")[0].matrix,
        lambda: fit_mmc(ds, "diagonal")[0].matrix,
    ):
        assert np.array_equal(fit(), fit())


def test_trace_length_matches_iterations():
    rng = np.random.default_rng(18)
    ds = make_dataset(rng, 20, 3)
    _, trace = fit_lsml(ds, build_triplets(ds, 0.0), 0.01, OptimizerOptions(max_iter=5))
    assert trace.iterations == len(trace.objective_values)
    assert trace.iterations <= 5


def test_projection_count_is_at_most_one_per_iteration():
    # seed 22 makes every learner project at least once; the MMC full form's
    # projection clips several times per call (its search over lam) but counts once
    ds = make_dataset(np.random.default_rng(22), 50, 4)
    for name, fit in (
        ("lsml", lambda: fit_lsml(ds, build_triplets(ds, 0.0), 0.01)),
        ("lmnn", lambda: fit_lmnn(ds, 3)),
        ("mmc_full", lambda: fit_mmc(ds, "full")),
        ("mmc_diag", lambda: fit_mmc(ds, "diagonal")),
    ):
        trace = fit()[1]
        assert 0 < trace.projection_count <= trace.iterations, name


def test_trace_counts_every_objective_and_gradient_call(monkeypatch):
    engine = learners._spg
    logs = []

    def counting(x0, local, project, opts):
        # iterates: the value at each iterate; trials: (index of the iterate
        # searched from, its value, <g, d>, t, phi(t)) for each trial
        log = {"iterates": [], "trials": []}

        def counted_local(x):
            f, g, along = local(x)
            log["iterates"].append(f)

            def counted_along(d):
                phi = along(d)
                slope = float(np.vdot(g, d))

                def counted_phi(t):
                    log["trials"].append((len(log["iterates"]) - 1, f, slope, t, phi(t)))
                    return log["trials"][-1][-1]

                return counted_phi

            return f, g, counted_along

        logs.append(log)
        return engine(x0, counted_local, project, opts)

    monkeypatch.setattr(learners, "_spg", counting)
    ds = make_dataset(np.random.default_rng(22), 50, 4)
    for name, fit, sign in (
        ("lsml", lambda: fit_lsml(ds, build_triplets(ds, 0.0), 0.01), 1.0),
        ("lmnn", lambda: fit_lmnn(ds, 3), 1.0),
        ("mmc_full", lambda: fit_mmc(ds, "full"), -1.0),  # traces the ascent
        ("mmc_diag", lambda: fit_mmc(ds, "diagonal"), 1.0),
    ):
        trace = fit()[1]
        log = logs[-1]
        # each iterate costs one evaluation and one gradient, each trial one
        # evaluation; `iterations` counts the iterates, so the gradients too
        assert trace.evaluations == len(log["iterates"]) + len(log["trials"]), name
        assert trace.objective_values == tuple(sign * v for v in log["iterates"]), name
        assert trace.iterations == len(log["iterates"]), name
        assert np.all(np.diff(log["iterates"]) < 0.0), name
        # the last trial from each iterate but the final one is the accepted
        # step, and it meets the Armijo rule; every earlier trial fails it
        for k in range(len(log["iterates"]) - 1):
            trials = [trial for trial in log["trials"] if trial[0] == k]
            *rejected, (_, f, slope, t, value) = trials
            assert value <= f + learners.ARMIJO * t * slope, name
            for _, f, slope, t, value in rejected:
                assert not value <= f + learners.ARMIJO * t * slope, name


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
