"""Metric learners: LMNN, MMC, LSML, plus the Euclidean and precision baselines.

All iterative learners share one engine, monotone spectral projected gradient
(SPG; Birgin, Martinez & Raydan, SIAM J. Optim. 2000), and are deterministic:
same data, constraints, and options give the same metric. Each iteration
projects once at the Barzilai-Borwein step lam, d = P(x - lam g) - x, halving
lam while d is no descent direction, then backtracks along the segment
x + t d, t <= 1, to the Armijo rule f(x + t d) <= f(x) + 1e-4 t <g, d>. Every
feasible set here is convex, so the segment needs no projection. A fit stops,
converged, after two consecutive relative decreases (f - f_new) / max(|f|, 1)
of at most `tol`, or when no step reaches the Armijo rule before it rounds to
x. Each fit returns the learned metric together with an OptimizerTrace of the
objective values at its iterates.

LSML's trials cost O(m + d) for m triplets: along a segment the triplet quad
forms are affine in t, and one eigendecomposition per iterate gives
logdet(M + tD) for every t (see _lsml_local). The other objectives are
evaluated afresh at each trial.

Objectives (X is the training matrix, d_M the Mahalanobis distance):

  LSML   J(M) = alpha * (tr(M) - logdet(M) - d)
               + sum over triplets (a,b,c) of max(0, d_M(a,b) - d_M(a,c))^2,
         where the logdet anchors M at the identity prior. Along the ray cI the
         triplet distances scale by sqrt(c) and the prior is 0 at I, so
         J(cI) = alpha d (c - log c - 1) + c J(I), least at
             c* = alpha d / (alpha d + J(I)),
         which lies in (0, 1] and is 1 when I violates no triplet. The
         minimization starts at c* I, near the optimum's scale, not at I.

  LMNN   eps(M) = (1-mu) * sum over target pairs of d^2_M(i,j)
                + mu * sum over (i,j,l), y_l != y_i, of
                       [1 + d^2_M(i,j) - d^2_M(i,l)]_+,
         with target neighbors fixed under the Euclidean metric up front,
         minimized from M = I.

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
         over nonnegative axis weights. The full form starts at I, scaled
         down onto the cap when I breaks it; the diagonal form at the
         minimizer of g on the ray c 1, c = 1 / (2 tr(X^T L(S) X)), or at 1
         when that trace is 0. Either way the returned matrix is rescaled so the
         dissimilar-distance sum equals 1.
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
STEP_RANGE = (1e-30, 1e30)  # Barzilai-Borwein step clip [lambda_min, lambda_max]
ARMIJO = 1e-4  # sufficient decrease, as a fraction of the directional derivative t <g, d>
CAP_TOL = 1e-9  # MMC full form: an active similar-sum cap ends in [1 - CAP_TOL, 1]


@dataclass(frozen=True)
class OptimizerTrace:
    """Objective values at the iterates (index 0 is the starting point).

    projection_count counts the starting point and the iterations whose
    projection actually altered the projected point. evaluations counts every
    objective value computed: one per iterate and one per line-search trial
    phi(t). Each iterate also yields one gradient, so `iterations` counts the
    gradients too.
    """

    objective_values: tuple[float, ...]
    converged: bool
    projection_count: int
    evaluations: int

    @property
    def iterations(self) -> int:
        return len(self.objective_values)


@dataclass(frozen=True)
class OptimizerOptions:
    max_iter: int = 1000
    tol: float = 1e-6


def _clip_step(lam: float) -> float:
    return min(max(lam, STEP_RANGE[0]), STEP_RANGE[1])


def _descent_direction(x, g, lam, project):
    """d = P(x - lam g) - x, halving lam until <g, d> < 0.

    A step that does not descend is too long for the projection's kinks or
    lost in its float noise, not a sign of stationarity. Returns d, <g, d>
    and the projection's flag, or None once x - lam g rounds to x: then x is
    stationary within float resolution.
    """
    while True:
        trial = x - lam * g
        if np.array_equal(trial, x):
            return None
        p, changed = project(trial)
        d = p - x
        slope = float(np.vdot(g, d))
        if slope < 0.0:
            return d, slope, changed
        lam *= 0.5


def _armijo(phi, x, d, f, slope):
    """Backtrack from t = 1 to the first t with phi(t) <= f + ARMIJO * t * slope.

    A rejected t gives way to the minimizer of the quadratic through f, slope
    and phi(t) when that lies in [0.1 t, 0.9 t], else to t / 2 (Birgin,
    Martinez & Raydan). Returns t and the trials made; t is None once x + t d
    rounds to x.
    """
    t, trials = 1.0, 0
    while True:
        trials += 1
        value = phi(t)
        if value <= f + ARMIJO * t * slope:
            return t, trials
        quadratic = -0.5 * t * t * slope / (value - f - t * slope)  # 0 when value is inf
        t = quadratic if 0.1 * t <= quadratic <= 0.9 * t else 0.5 * t
        if np.array_equal(x + t * d, x):
            return None, trials


def _spg(x0, local, project, opts: OptimizerOptions):
    """Monotone spectral projected gradient, as the module docstring describes.

    local(x) returns (f, g, along) at a feasible x, where along(d) returns
    phi(t) = f(x + t d). project(x) returns the projection of x onto the
    (convex) feasible set and 1 if it altered x, else 0. Returns the final
    iterate and its OptimizerTrace.
    """
    x, projection_count = project(np.array(x0, dtype=float))
    f, g, along = local(x)
    values, evaluations = [f], 1
    # the first step is 1 / |P(x - g) - x|_inf, as in Birgin, Martinez & Raydan
    scale = float(np.abs(project(x - g)[0] - x).max())
    lam = _clip_step(1.0 / scale) if scale > 0.0 else STEP_RANGE[1]
    small_streak = 0
    converged = False
    for _ in range(opts.max_iter - 1):
        direction = _descent_direction(x, g, lam, project)
        if direction is None:
            converged = True
            break
        d, slope, changed = direction
        t, trials = _armijo(along(d), x, d, f, slope)
        evaluations += trials
        if t is None:
            converged = True  # no sufficient decrease within float resolution
            break
        x_new = x + t * d
        f_new, g_new, along = local(x_new)
        evaluations += 1
        s, y = x_new - x, g_new - g
        sy = float(np.vdot(s, y))
        lam = _clip_step(float(np.vdot(s, s)) / sy) if sy > 0.0 else STEP_RANGE[1]
        rel_change = (f - f_new) / max(abs(f), 1.0)
        x, f, g = x_new, f_new, g_new
        values.append(f)
        projection_count += changed
        if rel_change <= opts.tol:
            small_streak += 1
            if small_streak >= 2:
                converged = True
                break
        else:
            small_streak = 0
    return x, OptimizerTrace(tuple(values), converged, projection_count, evaluations)


def _along_line(fun, x):
    """along(d) -> phi(t) = fun(x + t d), for an objective with no cheaper form on a segment."""
    return lambda d: lambda t: fun(x + t * d)


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


def lsml_objective(m: np.ndarray, train: LabeledDataset, triplets: TripletSet, alpha: float) -> float:
    vab, vac = _triplet_diffs(train, triplets)
    return _lsml_local(np.asarray(m, dtype=float), vab, vac, alpha)[0]


def lsml_gradient(m: np.ndarray, train: LabeledDataset, triplets: TripletSet, alpha: float) -> np.ndarray:
    vab, vac = _triplet_diffs(train, triplets)
    return _lsml_local(np.asarray(m, dtype=float), vab, vac, alpha)[1]


def _lsml_value(qab, qac, trace, logdet, alpha, d):
    """LSML's objective from the triplet quad forms, tr(M) and logdet(M)."""
    resid = np.sqrt(np.maximum(qab, 0.0)) - np.sqrt(np.maximum(qac, 0.0))
    return alpha * (trace - logdet - d) + float(np.sum(np.square(np.maximum(resid, 0.0))))


def _lsml_local(m, vab, vac, alpha):
    """LSML's value and gradient at m, and along(D) for the segment m + tD.

    One eigh of m = V W V^T, with W floored at RELATIVE_EIG_FLOOR * w_max
    (and at least ABSOLUTE_EIG_FLOOR), gives logdet(m) and the gradient's
    m^-1. On the segment the quad forms are affine, q(m + tD) = q(m) +
    t q(D), and logdet(m + tD) = logdet(m) + sum log1p(t mu), with mu the
    eigenvalues of W^-1/2 V^T D V W^-1/2. So along costs two quad forms and
    one eigvalsh, and each trial phi(t) then O(m + d). A trial where 1 + t mu
    is not positive beyond the rounding of mu is off the domain of logdet,
    and phi returns inf there.
    """
    d = m.shape[0]
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    w = np.maximum(w, max(RELATIVE_EIG_FLOOR * float(w[-1]), ABSOLUTE_EIG_FLOOR))
    logdet = float(np.log(w).sum())
    trace = float(np.trace(m))
    qab, qac = quad_forms(vab, m), quad_forms(vac, m)

    dab, dac = np.sqrt(np.maximum(qab, 0.0)), np.sqrt(np.maximum(qac, 0.0))
    resid = dab - dac
    grad = alpha * (np.eye(d) - (v / w) @ v.T)
    active = resid > 0
    if np.any(active):
        wab = np.where(active & (dab > ZERO_DISTANCE), resid / np.maximum(dab, ZERO_DISTANCE), 0.0)
        wac = np.where(active & (dac > ZERO_DISTANCE), resid / np.maximum(dac, ZERO_DISTANCE), 0.0)
        grad = grad + (vab * wab[:, None]).T @ vab - (vac * wac[:, None]).T @ vac

    def along(step):
        sab, sac = quad_forms(vab, step), quad_forms(vac, step)
        scaled = v / np.sqrt(w)
        mu = np.linalg.eigvalsh(scaled.T @ step @ scaled)
        step_trace = float(np.trace(step))
        resolution = d * np.finfo(float).eps

        def phi(t):
            if 1.0 + t * mu[0] <= resolution * (1.0 + t * max(-mu[0], mu[-1])):
                return math.inf
            return _lsml_value(
                qab + t * sab,
                qac + t * sac,
                trace + t * step_trace,
                logdet + float(np.log1p(t * mu).sum()),
                alpha,
                d,
            )

        return phi

    return _lsml_value(qab, qac, trace, logdet, alpha, d), 0.5 * (grad + grad.T), along


def _clip_to_floored_cone(m: np.ndarray):
    """Eigenvalue clip onto LSML's cone {M : lambda_min(M) >= RELATIVE_EIG_FLOOR * lambda_max(M)}.

    The cone is convex, as lambda_min is concave and lambda_max convex. A
    matrix with no positive eigenvalue maps to ABSOLUTE_EIG_FLOOR * I, a point
    of the cone where logdet stays finite.
    """
    m = 0.5 * (m + m.T)
    w, v = np.linalg.eigh(m)
    if w[-1] <= 0.0:
        return ABSOLUTE_EIG_FLOOR * np.eye(m.shape[0]), 1
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

    def local(m):
        return _lsml_local(m, vab, vac, alpha)

    # start at c* I, the minimizer of J on the ray cI (see the module docstring)
    prior_weight = alpha * train.d
    start = prior_weight / (prior_weight + local(np.eye(train.d))[0])
    m, trace = _spg(start * np.eye(train.d), local, _clip_to_floored_cone, opts)
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
    return _lmnn_value(*_hinge_margins(m, problem), problem, mu)


def lmnn_gradient(m: np.ndarray, problem: LmnnProblem, mu: float) -> np.ndarray:
    return _lmnn_grad(_hinge_margins(m, problem)[1], problem, mu)


def _lmnn_value(d2, z, problem: LmnnProblem, mu: float) -> float:
    tp = problem.target_pairs
    pull = float(d2[tp[:, 0], tp[:, 1]].sum())
    push = float(z[problem.impostor_mask & (z > 0)].sum())
    return (1.0 - mu) * pull + mu * push


def _lmnn_grad(z, problem: LmnnProblem, mu: float) -> np.ndarray:
    x = problem.features
    n = x.shape[0]
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

    def local(m):
        d2, z = _hinge_margins(m, problem)
        along = _along_line(lambda p: lmnn_objective(p, problem, mu), m)
        return _lmnn_value(d2, z, problem, mu), _lmnn_grad(z, problem, mu), along

    m, trace = _spg(np.eye(train.d), local, _clip_to_cone, opts)
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

    def value(w, total):
        return float(sim_col @ w) - math.log(total) if total > 0.0 else math.inf

    def local(w):
        total, dist = _dissimilar_sum(np.diag(w), x, dissimilar)
        grad = sim_col - np.diag(_dissimilar_ascent(dist, x, dissimilar)) / max(total, ZERO_DISTANCE)
        along = _along_line(lambda p: value(p, _dissimilar_sum(np.diag(p), x, dissimilar)[0]), w)
        return value(w, total), grad, along

    def project(w):
        return np.maximum(w, 0.0), int(bool(np.any(w < 0.0)))

    # g(c 1) = c tr(xs) - log(c) / 2 - log(sum_dis d_1) is least at c = 1 / (2 tr(xs)); at
    # tr(xs) = 0 every similar pair has equal features and g has no minimum on the ray
    similar_trace = float(sim_col.sum())
    start = 0.5 / similar_trace if similar_trace > 0.0 else 1.0
    w, trace = _spg(np.full(x.shape[1], start), local, project, opts)
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
    def local(m):
        total, dist = _dissimilar_sum(m, x, dissimilar)
        g = _dissimilar_ascent(dist, x, dissimilar)
        along = _along_line(lambda p: -_dissimilar_sum(p, x, dissimilar)[0], m)
        return -total, -0.5 * (g + g.T), along

    m0 = np.eye(x.shape[1])
    init_val = float((m0 * xs).sum())
    if init_val > 1.0:
        m0 = m0 / init_val
    m, trace = _spg(m0, local, lambda m: project_psd_cap(m, xs), opts)
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
