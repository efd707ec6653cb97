"""Metric learners: LMNN, MMC, LSML, plus the Euclidean and precision baselines.

All iterative learners share one backtracking projected-gradient engine and are
deterministic: same data, constraints, and options give the same metric. Each
fit returns the learned metric together with an OptimizerTrace of accepted
objective values.

Objectives (X is the training matrix, d_M the Mahalanobis distance):

  LSML   J(M) = alpha * (tr(M) - logdet(M) - d)
               + sum over triplets (a,b,c) of max(0, d_M(a,b) - d_M(a,c))^2,
         minimized from M = I; the logdet anchors M at the identity prior.

  LMNN   eps(M) = (1-mu) * sum over target pairs of d^2_M(i,j)
                + mu * sum over (i,j,l), y_l != y_i, of
                       [1 + d^2_M(i,j) - d^2_M(i,l)]_+,
         with target neighbors fixed under the Euclidean metric up front.

  MMC    equal ratings make a similar pair (indicator S), unequal ones a
         dissimilar pair; no pair set is stored. With the Laplacian
         L(W) = diag(W 1) - W, X^T L(W) X sums W_ij (x_i - x_j)(x_i - x_j)^T
         over pairs i<j. MMC minimizes <M, X^T L(S) X> subject to sum over
         dissimilar pairs of d_M >= 1 and M PSD; that sum has gradient
         X^T L(W) X with W_ij = 1 / (2 d_M(i,j)) on the dissimilar pairs. The
         full form runs gradient ascent on it against the linear similar-sum
         cap, projecting each step exactly onto the PSD cone cut by that cap
         (project_psd_cap); the diagonal form minimizes
             g(w) = <diag(w), X^T L(S) X> - log(sum_dis d_w)
         over nonnegative axis weights. Either way the returned matrix is
         rescaled so the dissimilar-distance sum equals 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import MMC_FORMS, LabeledDataset, MahalanobisMetric, TripletSet
from .errors import (
    ConfigurationError,
    ConditionWarning,
    ConstraintError,
    NumericalError,
    SmallClassWarning,
)
from .numerics import (
    ABSOLUTE_EIG_FLOOR,
    RELATIVE_EIG_FLOOR,
    covariance,
    eigen_clip,
    psd_project,
    quad_forms,
    safe_inverse,
)

DEGENERATE_TRACE = 1e-8
ZERO_DISTANCE = 1e-15
INIT_STEP = 1.0  # first (and every reset) line-search step of projected descent
MIN_STEP = 1e-14  # a line search that halves below this gives up
CAP_TOL = 1e-9  # MMC full form: an active similar-sum cap ends in [1 - CAP_TOL, 1]


@dataclass(frozen=True)
class OptimizerTrace:
    """Accepted objective values per iteration (index 0 is the starting point).

    projection_count counts iterations where the feasibility projection actually
    altered the iterate; evaluations and gradients count every call of the
    objective (line-search trials included) and of its gradient.
    """

    iterations: int
    objective_values: tuple[float, ...]
    converged: bool
    projection_count: int
    evaluations: int
    gradients: int

    def __post_init__(self):
        if len(self.objective_values) != self.iterations:
            raise ConfigurationError("trace length must equal iteration count")


@dataclass(frozen=True)
class OptimizerOptions:
    max_iter: int = 1000
    tol: float = 1e-6


def _projected_descent(x0, fun, grad, project, opts: OptimizerOptions):
    """Backtracking projected gradient descent; accepts only strictly improving steps.

    Convergence needs two consecutive sub-tolerance improvements, the second
    from a fresh full-size step, so a collapsed step memory cannot end the run
    while a good descent direction is still available. Returns the final
    iterate and its OptimizerTrace.
    """
    evaluations = 1  # the starting point's

    def line_search(x, f, g, start):
        nonlocal evaluations
        t = start
        while t >= MIN_STEP:
            cand, n_proj = project(x - t * g)
            if cand is None:  # projection refused the point: treat as infeasible
                t *= 0.5
                continue
            fc = fun(cand)
            evaluations += 1
            if fc < f:
                return cand, fc, t, n_proj
            t *= 0.5
        return None, f, 0.0, 0

    x, n_proj = project(np.array(x0, dtype=float))
    if x is None:
        raise ConfigurationError("infeasible starting point for projected descent")
    f = fun(x)
    values = [f]
    projection_count = n_proj
    step = INIT_STEP
    small_streak = 0
    converged = False
    gradients = 0
    for _ in range(opts.max_iter - 1):
        g = grad(x)
        gradients += 1
        cand, fc, t, n_proj = line_search(x, f, g, step)
        if cand is None and step < INIT_STEP:
            cand, fc, t, n_proj = line_search(x, f, g, INIT_STEP)
        if cand is None:
            converged = True  # stationary within float resolution
            break
        rel_change = (f - fc) / max(abs(f), 1.0)
        x, f = cand, fc
        values.append(f)
        projection_count += n_proj
        if rel_change <= opts.tol:
            small_streak += 1
            if small_streak >= 2:
                converged = True
                break
            step = INIT_STEP
        else:
            small_streak = 0
            step = t * 2.0
    trace = OptimizerTrace(
        len(values), tuple(values), converged, projection_count, evaluations, gradients
    )
    return x, trace


def _finalize_metric(m: np.ndarray) -> MahalanobisMetric:
    m = psd_project(0.5 * (m + m.T))
    tr = float(np.trace(m))
    d = m.shape[0]
    if tr < DEGENERATE_TRACE:
        # a collapsed metric breaks kNN tie handling; losses are scale-invariant
        m = np.eye(d) if tr <= 0.0 else m * (d / tr)
    return MahalanobisMetric(m)


# ---------------------------------------------------------------------------
# Baselines


def euclidean_baseline(d: int) -> MahalanobisMetric:
    """Identity metric: plain l2 distance in feature space."""
    return MahalanobisMetric.identity(d)


def precision_baseline(train: LabeledDataset) -> MahalanobisMetric:
    """Inverse covariance of the training features (decorrelating baseline)."""
    cov = covariance(train.features)
    inv, floored = safe_inverse(cov)
    if floored:
        warnings.warn(
            "training covariance is ill-conditioned; eigenvalue flooring applied",
            ConditionWarning,
            stacklevel=2,
        )
    return MahalanobisMetric(psd_project(inv))


# ---------------------------------------------------------------------------
# LSML


def _triplet_diffs(train: LabeledDataset, triplets: TripletSet):
    idx = triplets.indices
    if idx.size and idx.max() >= train.n:
        raise ConfigurationError("triplet indices exceed dataset size")
    x = train.features
    vab = x[idx[:, 0]] - x[idx[:, 1]]
    vac = x[idx[:, 0]] - x[idx[:, 2]]
    return vab, vac


def _hinge_residuals(m: np.ndarray, vab: np.ndarray, vac: np.ndarray):
    dab = np.sqrt(np.maximum(quad_forms(vab, m), 0.0))
    dac = np.sqrt(np.maximum(quad_forms(vac, m), 0.0))
    return dab, dac, dab - dac


def _floored_log_eigvals(m: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(0.5 * (m + m.T))
    floor = max(RELATIVE_EIG_FLOOR * float(w[-1]), ABSOLUTE_EIG_FLOOR)
    return np.log(np.maximum(w, floor))


def lsml_objective(m: np.ndarray, train: LabeledDataset, triplets: TripletSet, alpha: float) -> float:
    vab, vac = _triplet_diffs(train, triplets)
    return _lsml_value(np.asarray(m, dtype=float), vab, vac, alpha)


def lsml_gradient(m: np.ndarray, train: LabeledDataset, triplets: TripletSet, alpha: float) -> np.ndarray:
    vab, vac = _triplet_diffs(train, triplets)
    return _lsml_grad(np.asarray(m, dtype=float), vab, vac, alpha)


def _lsml_value(m, vab, vac, alpha):
    _, _, resid = _hinge_residuals(m, vab, vac)
    hinge = float(np.sum(np.square(np.maximum(resid, 0.0))))
    logdet_floored = float(np.sum(_floored_log_eigvals(m)))
    d_ld = float(np.trace(m)) - logdet_floored - m.shape[0]
    return alpha * d_ld + hinge


def _lsml_grad(m, vab, vac, alpha):
    d = m.shape[0]
    dab, dac, resid = _hinge_residuals(m, vab, vac)
    inv, _ = safe_inverse(0.5 * (m + m.T))
    grad = alpha * (np.eye(d) - inv)
    active = resid > 0
    if np.any(active):
        wab = np.where(active & (dab > ZERO_DISTANCE), resid / np.maximum(dab, ZERO_DISTANCE), 0.0)
        wac = np.where(active & (dac > ZERO_DISTANCE), resid / np.maximum(dac, ZERO_DISTANCE), 0.0)
        grad = grad + (vab * wab[:, None]).T @ vab - (vac * wac[:, None]).T @ vac
    return 0.5 * (grad + grad.T)


def _clip_to_floored_cone(m: np.ndarray):
    """Eigenvalue clip with the relative floor that keeps the logdet term finite.

    A candidate whose whole spectrum is nonpositive is a grossly overshot step;
    flooring it would produce an isotropic near-zero matrix whose capped logdet
    looks spuriously attractive, so such points are rejected instead (None).
    """
    m = 0.5 * (m + m.T)
    w, v = np.linalg.eigh(m)
    if w[-1] <= 0.0:
        return None, 0
    floor = RELATIVE_EIG_FLOOR * float(w[-1])
    if w[0] >= floor:
        return m, 0
    out = (v * np.maximum(w, floor)) @ v.T
    return 0.5 * (out + out.T), 1


def fit_lsml(
    train: LabeledDataset,
    triplets: TripletSet,
    alpha: float = 0.01,
    opts: OptimizerOptions | None = None,
) -> tuple[MahalanobisMetric, OptimizerTrace]:
    """Least squared-residual metric learning from triplet relative comparisons."""
    if len(triplets) == 0:
        raise ConstraintError("LSML needs a nonempty triplet set")
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be > 0, got {alpha}")
    opts = opts or OptimizerOptions()
    vab, vac = _triplet_diffs(train, triplets)

    def fun(m):
        return _lsml_value(m, vab, vac, alpha)

    def grad(m):
        return _lsml_grad(m, vab, vac, alpha)

    m, trace = _projected_descent(np.eye(train.d), fun, grad, _clip_to_floored_cone, opts)
    return _finalize_metric(m), trace


# ---------------------------------------------------------------------------
# LMNN


@dataclass(frozen=True)
class LmnnProblem:
    """Fixed target-neighbor structure LMNN optimizes over."""

    features: np.ndarray
    target_pairs: np.ndarray  # (p, 2) rows (i, target j), same rating, i nondecreasing
    impostor_mask: np.ndarray  # (p, n) bool: row r marks every l with y_l != y_i of pair r
    pull_gram: np.ndarray  # sum over target pairs of (x_i - x_j)(x_i - x_j)^T


def lmnn_problem(train: LabeledDataset, k_targets: int, strict: bool = False) -> LmnnProblem:
    if k_targets < 1:
        raise ConfigurationError(f"k_targets must be >= 1, got {k_targets}")
    x = train.features
    labels = train.labels
    pairs: list[tuple[int, int]] = []
    warned: set[int] = set()
    for i in range(train.n):
        same = np.flatnonzero(labels == labels[i])
        same = same[same != i]
        if same.size == 0:
            if strict:
                raise ConstraintError(
                    f"rating class {int(labels[i])} has a single member (strict mode)"
                )
            if int(labels[i]) not in warned:
                warned.add(int(labels[i]))
                warnings.warn(
                    f"rating class {int(labels[i])} has a single member; skipped",
                    SmallClassWarning,
                    stacklevel=2,
                )
            continue
        if same.size < k_targets and strict:
            raise ConstraintError(
                f"rating class {int(labels[i])} has only {same.size + 1} members "
                f"for k_targets={k_targets} (strict mode)"
            )
        diffs = x[same] - x[i]
        order = np.argsort(np.einsum("ij,ij->i", diffs, diffs), kind="stable")
        targets = same[order[: min(k_targets, same.size)]]
        pairs.extend((i, int(j)) for j in targets)
    if not pairs:
        raise ConstraintError("no rating class has two members; LMNN cannot build target pairs")
    tp = np.asarray(pairs, dtype=np.int64)
    vp = x[tp[:, 0]] - x[tp[:, 1]]
    return LmnnProblem(
        features=x,
        target_pairs=tp,
        impostor_mask=labels[tp[:, 0], None] != labels[None, :],
        pull_gram=vp.T @ vp,
    )


def _pairwise_sq(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared distances (s_i + s_j) - 2 g_ij from the Gram matrix g = x M x^T, s = diag(g)."""
    g = x @ m @ x.T
    s = np.diag(g).copy()
    g *= 2.0
    return np.subtract(np.add.outer(s, s), g, out=g)


def _laplacian_form(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x^T (diag(w 1) - w) x, unsymmetrized; see the module docstring."""
    lap = np.diag(w.sum(axis=1))
    lap -= w
    return x.T @ lap @ x


def _hinge_margins(m: np.ndarray, problem: LmnnProblem):
    """Squared distances d2 and z[r, l] = 1 + d2[i, j] - d2[i, l] for target pair r = (i, j)."""
    d2 = _pairwise_sq(np.asarray(m, dtype=float), problem.features)
    i, j = problem.target_pairs.T
    z = d2[i]
    np.subtract((1.0 + d2[i, j])[:, None], z, out=z)  # in place: no second (p, n) temporary
    return d2, z


def lmnn_objective(m: np.ndarray, problem: LmnnProblem, mu: float) -> float:
    d2, z = _hinge_margins(m, problem)
    tp = problem.target_pairs
    pull = float(d2[tp[:, 0], tp[:, 1]].sum())
    push = float(z[problem.impostor_mask & (z > 0)].sum())
    return (1.0 - mu) * pull + mu * push


def lmnn_gradient(m: np.ndarray, problem: LmnnProblem, mu: float) -> np.ndarray:
    x = problem.features
    n = x.shape[0]
    _, z = _hinge_margins(m, problem)
    active = problem.impostor_mask & (z > 0)
    i, j = problem.target_pairs.T
    # c[i, j] counts the active impostors of pair (i, j), and c[i, l] is minus
    # the number of i's pairs that l is active for. Pairs are grouped by anchor,
    # so the second count loops over target ranks, not pairs (a grouped
    # reduceat measured 3x slower at 420 rows). Targets are never impostors and
    # the counts are integers, so every entry is exact.
    anchors, starts, sizes = np.unique(i, return_index=True, return_counts=True)
    c = np.zeros((n, n))
    c[i, j] = active.sum(axis=1)
    for rank in range(sizes.max()):
        has = sizes > rank
        c[anchors[has]] -= active[starts[has] + rank]
    push = _laplacian_form(x, c + c.T)
    grad = (1.0 - mu) * problem.pull_gram + mu * 0.5 * (push + push.T)
    return 0.5 * (grad + grad.T)


def _clip_to_cone(m: np.ndarray):
    out, w, _ = eigen_clip(m)
    return out, int(w[0] < 0.0)


def fit_lmnn(
    train: LabeledDataset,
    k_targets: int = 3,
    mu: float = 0.5,
    opts: OptimizerOptions | None = None,
    strict: bool = False,
) -> tuple[MahalanobisMetric, OptimizerTrace]:
    """Large-margin nearest neighbor with rating values as classes."""
    if not 0.0 < mu < 1.0:
        raise ConfigurationError(f"mu must lie in (0, 1), got {mu}")
    opts = opts or OptimizerOptions(max_iter=300)
    problem = lmnn_problem(train, k_targets, strict=strict)

    def fun(m):
        return lmnn_objective(m, problem, mu)

    def grad(m):
        return lmnn_gradient(m, problem, mu)

    m, trace = _projected_descent(np.eye(train.d), fun, grad, _clip_to_cone, opts)
    return _finalize_metric(m), trace


# ---------------------------------------------------------------------------
# MMC


def _mmc_pairs(train: LabeledDataset):
    """xs = X^T L(same rating) X and the (n, n) 0/1 mask of unequal ratings.

    Rows with equal features are left out of the mask: the Gram form can leave
    them a d^2 near 1e-16 * |x|^2 for 0, and 0.5 / d would swamp the gradient.
    """
    x, labels = train.features, train.labels
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    if not same.any():
        raise ConstraintError("MMC needs at least one similar pair")
    dissimilar = labels[:, None] != labels[None, :]
    if not dissimilar.any():
        raise ConstraintError("MMC needs at least one dissimilar pair")
    _, row = np.unique(x, axis=0, return_inverse=True)
    dissimilar &= row[:, None] != row[None, :]
    xs = _laplacian_form(x, same.astype(float))
    return 0.5 * (xs + xs.T), dissimilar.astype(float)


def _dissimilar_sum(m: np.ndarray, x: np.ndarray, dissimilar: np.ndarray):
    """Sum of d_M over the dissimilar pairs, and the (n, n) matrix of d_M."""
    dist = _pairwise_sq(m, x)
    np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
    return 0.5 * float(dist.ravel() @ dissimilar.ravel()), dist  # the mask holds each pair twice


def _dissimilar_ascent(dist: np.ndarray, x: np.ndarray, dissimilar: np.ndarray) -> np.ndarray:
    """Gradient in M of the dissimilar-distance sum: Laplacian weights 1 / (2 d_M) per pair."""
    w = 0.5 / np.maximum(dist, ZERO_DISTANCE)
    w *= dissimilar
    w *= dist > ZERO_DISTANCE
    return _laplacian_form(x, w)


def _fit_mmc_diagonal(x, xs, dissimilar, opts: OptimizerOptions):
    sim_col = np.diag(xs)  # similar-pair squared-distance sum per axis

    def fun(w):
        total, _ = _dissimilar_sum(np.diag(w), x, dissimilar)
        return float(sim_col @ w) - math.log(total) if total > 0.0 else math.inf

    def grad(w):
        total, dist = _dissimilar_sum(np.diag(w), x, dissimilar)
        return sim_col - np.diag(_dissimilar_ascent(dist, x, dissimilar)) / max(total, ZERO_DISTANCE)

    def project(w):
        return np.maximum(w, 0.0), int(bool(np.any(w < 0.0)))

    w, trace = _projected_descent(np.ones(x.shape[1]), fun, grad, project, opts)
    return np.diag(np.maximum(w, 0.0)), trace


def project_psd_cap(a: np.ndarray, xs: np.ndarray):
    """Euclidean projection of symmetric `a` onto {M PSD : <M, xs> <= 1}, xs PSD.

    The projection is M(lam) = clip(a - lam * xs), the eigenvalue clip, at the
    smallest lam >= 0 with <M(lam), xs> <= 1, and <M(lam), xs> does not
    increase with lam (Xing et al., NIPS 2002, for the feasible set). When the
    clip alone breaks the cap, a bracketed Newton search on lam, using the
    clip's exact derivative and bisecting whenever a Newton step leaves the
    bracket or fails to halve, returns the first M(lam) whose cap value lies in
    [1 - CAP_TOL, 1]. If lam runs out of float resolution first, it returns
    the feasible end of the bracket.

    Returns the projection and 1 if it differs from `a`, else 0.
    """
    m, w, v = eigen_clip(a)
    cap = float((m * xs).sum())
    if cap <= 1.0:
        return m, int(w[0] < 0.0)
    target = 1.0 - 0.5 * CAP_TOL
    lo, hi, feasible = 0.0, math.inf, None
    # the clip is 1-Lipschitz, so this step never passes the target, and it
    # meets it when the clip is a no-op
    lam = (cap - target) / float((xs * xs).sum())
    step = math.inf
    resolution = 4.0 * np.finfo(float).eps
    while True:
        m, w, v = eigen_clip(a - lam * xs)
        gap = float((m * xs).sum()) - target
        # d<M(lam), xs>/dlam = -<gamma o (V^T xs V), V^T xs V>, where gamma holds
        # the divided differences of max(w, 0) over the eigenvalues of a - lam*xs
        pos = w > 0.0
        wp = np.maximum(w, 0.0)
        gamma = np.outer(pos, pos).astype(float)
        mixed = pos[:, None] != pos[None, :]
        np.divide(wp[:, None] + wp[None, :], np.abs(w[:, None] - w[None, :]), out=gamma, where=mixed)
        c = v.T @ xs @ v
        slope = -float((gamma * c * c).sum())
        newton = -gap / slope if slope < 0.0 else math.inf
        # feasible, and on the cap or as close as the float resolution of lam allows
        if gap <= 0.5 * CAP_TOL and (gap >= -0.5 * CAP_TOL or abs(newton) <= resolution * lam):
            return m, 1
        if gap > 0.0:
            lo = lam
        else:
            hi, feasible = lam, m
        if feasible is not None and hi - lo <= resolution * hi:
            return feasible, 1
        if abs(newton) <= resolution * lam:
            step = 2.0 * resolution * lam  # infeasible within float resolution: step past the root
        elif lo < lam + newton < hi and abs(newton) <= 0.5 * abs(step):
            step = newton
        elif feasible is None:
            step = min(2.0 * newton, lam)  # Newton from below tends to stay below: overshoot
        else:
            step = 0.5 * (lo + hi) - lam
        lam += step


def _fit_mmc_full(x, xs, dissimilar, opts: OptimizerOptions):
    def fun(m):
        return -_dissimilar_sum(m, x, dissimilar)[0]

    def grad(m):
        g = _dissimilar_ascent(_dissimilar_sum(m, x, dissimilar)[1], x, dissimilar)
        return -0.5 * (g + g.T)

    m0 = np.eye(x.shape[1])
    init_val = float((m0 * xs).sum())
    if init_val > 1.0:
        m0 = m0 / init_val
    m, trace = _projected_descent(m0, fun, grad, lambda m: project_psd_cap(m, xs), opts)
    # ascent trace of the dissimilar sum
    trace = replace(trace, objective_values=tuple(-v for v in trace.objective_values))
    # projection first: rescaling by a positive scalar preserves the cone, so the
    # dissimilar constraint ends up active with equality to float precision
    return psd_project(0.5 * (m + m.T)), trace


def fit_mmc(
    train: LabeledDataset,
    form: str = "full",
    opts: OptimizerOptions | None = None,
) -> tuple[MahalanobisMetric, OptimizerTrace]:
    """Mahalanobis metric for clustering from the pairs the ratings define."""
    if form not in MMC_FORMS:
        raise ConfigurationError(f"unknown MMC form {form!r}")
    opts = opts or OptimizerOptions(max_iter=300)
    xs, dissimilar = _mmc_pairs(train)
    fit = _fit_mmc_diagonal if form == "diagonal" else _fit_mmc_full
    m, trace = fit(train.features, xs, dissimilar, opts)
    total, _ = _dissimilar_sum(m, train.features, dissimilar)
    if total <= 0.0:
        raise NumericalError("dissimilar-distance sum collapsed to zero in MMC")
    return MahalanobisMetric(m / total**2), trace  # the dissimilar sum is now 1


# ---------------------------------------------------------------------------
# Metric serialization: first line d, then d rows of d decimals (repr round-trips)


def save_metric(metric: MahalanobisMetric, path) -> None:
    lines = [str(metric.d)]
    for row in metric.matrix:
        lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_metric(path) -> MahalanobisMetric:
    raw = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not raw:
        raise ConfigurationError(f"{path}: empty metric file")
    try:
        d = int(raw[0])
    except ValueError:
        raise ConfigurationError(f"{path}: first line must be the dimension") from None
    if len(raw) != d + 1:
        raise ConfigurationError(f"{path}: expected {d} matrix rows, got {len(raw) - 1}")
    rows = []
    for line in raw[1:]:
        values = [float(tok) for tok in line.split()]
        if len(values) != d:
            raise ConfigurationError(f"{path}: expected {d} values per row")
        rows.append(values)
    return MahalanobisMetric(np.asarray(rows))
