"""Metric learners: LMNN, MMC, LSML, plus the Euclidean and precision baselines.

All iterative learners share one engine, monotone spectral projected gradient
(SPG; Birgin, Martinez & Raydan, SIAM J. Optim. 2000), and are deterministic:
same data, constraints and config give the same metric. Each iteration
projects once at the Barzilai-Borwein step lam, d = P(x - lam g) - x, halving
lam while d is no descent direction, then backtracks along the segment
x + t d, t <= 1, to the Armijo rule f(x + t d) <= f(x) + 1e-4 t <g, d>. Every
feasible set here is convex, so the segment needs no projection. The first lam
is |x0|_inf / |P(x0 - g) - x0|_inf (1 in place of |x0|_inf at x0 = 0), so the
first trial moves x0 by about its own size. LSML starts at c* I, with c*
about 4e-5 on the benchmark's folds (3e-5 to 5e-5); there a first trial of
size 1, Birgin et al.'s lam = 1 / |P(x0 - g) - x0|_inf, is some 25,000 times
too long and takes about 9 evaluations to backtrack. A fit stops,
converged, after two consecutive relative decreases (f - f_new) / max(|f|, 1)
of at most `tol`, or when no step reaches the Armijo rule before it rounds to
x. Each fit returns the learned metric together with an OptimizerTrace of the
objective values at its iterates.

Each learner hands the engine evaluate(x) -> (f, state) and
gradient(state) -> g. The line search calls evaluate at every trial x + t d,
and the accepted trial, with its value and state, is the next iterate: no point
is evaluated twice, and the engine asks for a gradient only from the state of
the point it evaluated last. So LSML's Gram kernel can keep two (n, n)
buffers made once per fit call, for its squared distances and Laplacian
weights, and LMNN and MMC keep the entries of their rating blocks
(below) in flat buffers, also made once per fit. Each evaluation overwrites
them, by the same operations in the same order as on fresh arrays, so the
results are the same bits and the fit does not page in new memory at every
evaluation.

Objectives (X is the training matrix, d_M the Mahalanobis distance):

  LSML   J(M) = alpha * (tr(M) - logdet(M) - d)
               + sum over triplets (a,b,c) of max(0, d_M(a,b) - d_M(a,c))^2,
         where the logdet anchors M at the identity prior. Along the ray cI the
         triplet distances scale by sqrt(c) and the prior is 0 at I, so
         J(cI) = alpha d (c - log c - 1) + c J(I), least at
             c* = alpha d / (alpha d + J(I)),
         which lies in (0, 1] and is 1 when I violates no triplet. The
         minimization starts at c* I, near the optimum's scale, not at I.
         Each fit picks one of two kernels for d_M and the triplet term of
         the gradient, from its n training rows, m triplets and d features.
         When n^2 <= m d, the Gram kernel takes one (n, n) slab of d^2 per
         evaluation (_pairwise_sq) and gathers the triplets' d^2 at the flat
         indices a n + b and a n + c. Its gradient sums +w_ab at (a, b) and
         -w_ac at (a, c) into an (n, n) W with one bincount, and takes
         X^T L(W + W^T) X, which is sum_ij W_ij (x_i - x_j)(x_i - x_j)^T.
         A pair of rows with equal features gets d = 0 exactly, as in MMC:
         the Gram form's cancellation would leave it a d^2 near 1e-16 |x|^2,
         past ZERO_DISTANCE, and resid / d would swamp the gradient.
         Otherwise the difference-row kernel takes quad_forms over the (m, d)
         rows x_a - x_b and x_a - x_c, and two (m, d) outer-product sums; at
         n = 420 and m = 5000 it is about 4x faster. lsml_objective and
         lsml_gradient always use the difference rows.

  Blocks LMNN's impostor pairs and MMC's dissimilar pairs are the pairs
         i < j of unequal ratings. With the rows sorted by rating once per
         fit, they are one block per rating but the highest, its rows R
         against the rows C of every higher rating: (1 - sum_u p_u^2) / 2 of
         n^2 entries for rating shares p_u, 0.4 n^2 for five equal shares.
         Each evaluation takes a block's d^2 = s_i + s_j - 2 (x_i M) . x_j,
         s_i = x_i M x_i, from one product of [-2 X_R M, s_R, 1] with
         [X_C, 1, s_C]. A gradient sum of W_ij (x_i - x_j)(x_i - x_j)^T over
         the entries is, per block, X_R^T diag(W 1) X_R + X_C^T diag(W^T 1)
         X_C - X_R^T W X_C and its transpose (_RatingBlocks.assemble); no
         (n, n) array is formed.

  LMNN   eps(M) = (1-mu) * sum over target pairs of d^2_M(i,j)
                + mu * sum over (i,j,l), y_l != y_i, of
                       [1 + d^2_M(i,j) - d^2_M(i,l)]_+,
         with target neighbors fixed under the Euclidean metric up front.
         Each block entry (i, l) serves two anchors: i with impostor l and
         l with impostor i. Each evaluation takes the entries' d^2 from the
         blocks and the target pairs' d^2 from their own difference rows,
         and lists once the entries below the larger of their two anchors'
         largest thresholds 1 + d^2(i, j) over the anchor's targets: every
         other entry has all its hinges at 0 for both anchors, so the screen
         is exact. The hinges of each target rank are summed over the listed
         entries only. The gradient's integer counts come from them: a
         target pair's active impostors, and an entry's active hinges for
         both its anchors, which the blocks' assembly takes as weights. Along
         the ray cI, with b = d^2(i,l) - d^2(i,j) at I per hinge and
         P = tr(sum of the target pairs' outer products),
             eps(cI) = (1-mu) c P + mu * sum [1 - c b]_+,
         convex and piecewise linear in c. Its slope rises by mu b where the
         hinge of a b > 0 vanishes, at c = 1/b, so it is least at
             c* = 1 / b_(k),
         where b_(1) <= b_(2) <= ... are the positive b and b_(k) is the
         first whose running sum exceeds ((1-mu) P + mu sum_{b<=0} (-b)) / mu.
         The minimization starts at c* I (c* may exceed 1), or at I when no
         b_(k) exists: then eps(cI) falls all the way to c = 0, as when there
         is no impostor.

  MMC    equal ratings make a similar pair (indicator S), unequal ones a
         dissimilar pair; no pair set is stored. With the Laplacian
         L(W) = diag(W 1) - W, X^T L(W) X sums W_ij (x_i - x_j)(x_i - x_j)^T
         over pairs i<j. MMC minimizes <M, X^T L(S) X> subject to sum over
         dissimilar pairs of d_M >= 1 and M PSD; that sum has gradient
         X^T L(W) X with W_ij = 1 / (2 d_M(i,j)) on the dissimilar pairs,
         which the blocks assemble. The fit runs gradient ascent on the sum
         against the linear similar-sum cap <M, X^T L(S) X> <= 1, from I
         scaled down onto the cap when I breaks it, projecting each step
         exactly onto the PSD cone cut by the cap (project_psd_cap). The
         diagonal form is the same fit restricted to diagonal M: it
         multiplies the cap matrix, the gradient and the point it projects by
         the mask `keep` = I (the full form's mask is 1). The projection stays
         exact: with the cap matrix xs diagonal, the clip of a diagonal
         a - lam * xs is diagonal, and a matrix splits orthogonally into its
         diagonal part plus the rest, so its projection onto the diagonal
         matrices of the capped cone is the capped-cone projection of its
         diagonal part. Either way the returned matrix is rescaled so the
         dissimilar-distance sum equals 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import ExperimentConfig, LabeledDataset, MahalanobisMetric, TripletSet
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
CAP_TOL = 1e-9  # MMC: an active similar-sum cap ends in [1 - CAP_TOL, 1]
_DEFAULTS = ExperimentConfig()  # the learners' defaults are the config's


@dataclass(frozen=True)
class OptimizerTrace:
    """Objective values at the iterates (index 0 is the starting point).

    projection_count counts the starting point and the iterations whose
    projection actually altered the projected point. evaluations counts the
    objective values the engine asks for: one per iterate and one per
    line-search trial. Each iterate also yields one gradient, so `iterations`
    counts the gradients too. An accepted trial is the next iterate, which is
    not evaluated again (see the module docstring), so every learner computes
    1 + evaluations - iterations values.
    """

    objective_values: tuple[float, ...]
    converged: bool
    projection_count: int
    evaluations: int

    @property
    def iterations(self) -> int:
        return len(self.objective_values)


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


def _armijo(evaluate, x, d, f, slope):
    """Backtrack from t = 1 to the first t with f(x + t d) <= f + ARMIJO * t * slope.

    A rejected t gives way to the minimizer of the quadratic through f, slope
    and f(x + t d) when that lies in [0.1 t, 0.9 t], else to t / 2 (Birgin,
    Martinez & Raydan). Returns the accepted point x + t d, its evaluate
    result (value, state) and the trials made; the point is None once x + t d
    rounds to x.
    """
    t, trials = 1.0, 0
    while True:
        trials += 1
        point = x + t * d
        value, state = evaluate(point)
        if value <= f + ARMIJO * t * slope:
            return point, (value, state), trials
        del state  # a rejected trial's state is dead before the next evaluation
        quadratic = -0.5 * t * t * slope / (value - f - t * slope)  # 0 when value is inf
        t = quadratic if 0.1 * t <= quadratic <= 0.9 * t else 0.5 * t
        if np.array_equal(x + t * d, x):
            return None, None, trials


def _spg(x0, evaluate, gradient, project, max_iter: int, tol: float):
    """Monotone spectral projected gradient, as the module docstring describes.

    evaluate(x) returns (f, state) at a feasible x, and gradient(state) the
    gradient there. The engine calls gradient only with the state of the
    point evaluate saw last, before evaluating another, so a state may be a
    view of arrays the next evaluation overwrites; nor does it hold a state
    once used, so one state at a time is alive. project(x) returns the
    projection of x onto the (convex) feasible set and 1 if it altered x,
    else 0. max_iter caps the iterates, the start included, and tol is the
    relative-decrease stop. Returns the final iterate and its OptimizerTrace.

    The first step is relative to the start's size, |x0|_inf / |P(x0 - g) -
    x0|_inf, not Birgin, Martinez & Raydan's 1 / |P(x0 - g) - x0|_inf. So
    for a quadratic f on a cone, scaling the problem by s > 0 (x0 -> s x0,
    f(x) -> s^2 f(x / s)) scales every iterate by s and leaves each line
    search's trials as they were (the tol stop, relative to max(|f|, 1),
    aside), where a fixed first step is far too long for a start as small as
    LSML's c* I (see the module docstring) and backtracks for several
    evaluations.
    """
    x, projection_count = project(np.array(x0, dtype=float))
    f, state = evaluate(x)
    g = gradient(state)
    del state  # no state stays alive while the line search evaluates
    values, evaluations = [f], 1
    # the first step is |x|_inf / |P(x - g) - x|_inf, relative to the start's size; 1 stands in for it at x = 0
    reach = float(np.abs(project(x - g)[0] - x).max())
    size = float(np.abs(x).max()) or 1.0
    lam = _clip_step(size / reach) if reach > 0.0 else STEP_RANGE[1]
    small_streak = 0
    converged = False
    for _ in range(max_iter - 1):
        direction = _descent_direction(x, g, lam, project)
        if direction is None:
            converged = True
            break
        d, slope, changed = direction
        x_new, accepted, trials = _armijo(evaluate, x, d, f, slope)
        evaluations += trials
        if x_new is None:
            converged = True  # no sufficient decrease within float resolution
            break
        f_new, state = accepted
        g_new = gradient(state)
        del accepted, state
        evaluations += 1  # the iterate counts apart from its accepted trial (see OptimizerTrace)
        s, y = x_new - x, g_new - g
        sy = float(np.vdot(s, y))
        lam = _clip_step(float(np.vdot(s, s)) / sy) if sy > 0.0 else STEP_RANGE[1]
        rel_change = (f - f_new) / max(abs(f), 1.0)
        x, f, g = x_new, f_new, g_new
        values.append(f)
        projection_count += changed
        if rel_change <= tol:
            small_streak += 1
            if small_streak >= 2:
                converged = True
                break
        else:
            small_streak = 0
    return x, OptimizerTrace(tuple(values), converged, projection_count, evaluations)


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
# The (n, n) Gram form of LSML's Gram kernel


def _pairwise_sq(m: np.ndarray, x: np.ndarray, gram: np.ndarray, lap: np.ndarray) -> np.ndarray:
    """Squared distances (s_i + s_j) - 2 g_ij from the Gram matrix g = x M x^T, s = diag(g), in `gram`.

    `gram` and `lap` are (n, n) buffers that the call overwrites; `lap` ends as the outer sum s_i + s_j.
    """
    g = np.matmul(x @ m, x.T, out=gram)
    s = np.diag(g).copy()
    g *= 2.0
    return np.subtract(np.add.outer(s, s, out=lap), g, out=g)


def _laplacian_form(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x^T (diag(w 1) - w) x, unsymmetrized; see the module docstring. Overwrites w.

    Negation is exact and addition commutes, so -w_ii + rowsum_i is exactly
    rowsum_i - w_ii and w ends as diag(w 1) - w.
    """
    rowsum = w.sum(axis=1)
    np.negative(w, out=w)
    diag = np.arange(w.shape[0])
    w[diag, diag] += rowsum
    return x.T @ w @ x


def _row_ids(x: np.ndarray) -> np.ndarray:
    """One id per row of x, equal exactly when two rows have equal features."""
    return np.unique(x, axis=0, return_inverse=True)[1]


# ---------------------------------------------------------------------------
# LSML


def _checked_indices(train: LabeledDataset, triplets: TripletSet) -> np.ndarray:
    idx = triplets.indices
    if idx.size and idx.max() >= train.n:
        raise ConfigurationError("triplet indices exceed dataset size")
    return idx


def _row_kernel(train: LabeledDataset, triplets: TripletSet):
    """LSML's difference-row kernel, on the (m, d) rows x_a - x_b and x_a - x_c; see the module docstring."""
    idx = _checked_indices(train, triplets)
    x = train.features
    vab = x[idx[:, 0]] - x[idx[:, 1]]
    vac = x[idx[:, 0]] - x[idx[:, 2]]

    def squared(m):
        return quad_forms(vab, m), quad_forms(vac, m)

    def add_data_term(grad, wab, wac):
        return grad + (vab * wab[:, None]).T @ vab - (vac * wac[:, None]).T @ vac

    return squared, add_data_term


def _gram_kernel(train: LabeledDataset, triplets: TripletSet):
    """LSML's Gram kernel, one (n, n) slab of d^2 per evaluation; see the module docstring."""
    idx = _checked_indices(train, triplets)  # before any flat index is formed
    x, n, m = train.features, train.n, len(triplets)
    flat = np.concatenate([idx[:, 0] * n + idx[:, 1], idx[:, 0] * n + idx[:, 2]])
    row = _row_ids(x)
    equal = np.flatnonzero(row[flat // n] == row[flat % n])
    gram, lap = np.empty((n, n)), np.empty((n, n))  # overwritten at every evaluation of this fit

    def squared(metric):
        d2 = _pairwise_sq(metric, x, gram, lap).take(flat)
        d2[equal] = 0.0
        return d2[:m], d2[m:]

    def add_data_term(grad, wab, wac):
        w = np.bincount(flat, weights=np.concatenate([wab, -wac]), minlength=n * n).reshape(n, n)
        return grad + _laplacian_form(x, np.add(w, w.T, out=gram))  # d^2 was gathered already

    return squared, add_data_term


def lsml_objective(m: np.ndarray, train: LabeledDataset, triplets: TripletSet, alpha: float) -> float:
    squared, _ = _row_kernel(train, triplets)
    m = np.asarray(m, dtype=float)
    return _lsml_value(m, *squared(m), alpha)[0]


def lsml_gradient(m: np.ndarray, train: LabeledDataset, triplets: TripletSet, alpha: float) -> np.ndarray:
    squared, add_data_term = _row_kernel(train, triplets)
    m = np.asarray(m, dtype=float)
    return _lsml_grad(_lsml_value(m, *squared(m), alpha)[1], add_data_term, alpha)


def _lsml_value(m, dab2, dac2, alpha):
    """LSML's value at m from the triplets' squared distances, and the parts its gradient reuses.

    The parts are (w, v, dab, dac, resid). One eigh of m = V W V^T, with W
    floored at RELATIVE_EIG_FLOOR * w_max (and at least ABSOLUTE_EIG_FLOOR),
    gives logdet(m) and the gradient's m^-1; dab and dac are the triplet
    distances, the roots of dab2 and dac2, and resid = dab - dac.
    """
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    w = np.maximum(w, max(RELATIVE_EIG_FLOOR * float(w[-1]), ABSOLUTE_EIG_FLOOR))
    logdet = float(np.log(w).sum())
    trace = float(np.trace(m))
    dab = np.sqrt(np.maximum(dab2, 0.0))
    dac = np.sqrt(np.maximum(dac2, 0.0))
    resid = dab - dac
    value = alpha * (trace - logdet - m.shape[0]) + float(np.sum(np.square(np.maximum(resid, 0.0))))
    return value, (w, v, dab, dac, resid)


def _lsml_grad(parts, add_data_term, alpha):
    """LSML's gradient from the parts _lsml_value returns; a kernel adds the triplets' term."""
    w, v, dab, dac, resid = parts
    grad = alpha * (np.eye(w.shape[0]) - (v / w) @ v.T)
    active = resid > 0
    if np.any(active):
        wab = np.where(active & (dab > ZERO_DISTANCE), resid / np.maximum(dab, ZERO_DISTANCE), 0.0)
        wac = np.where(active & (dac > ZERO_DISTANCE), resid / np.maximum(dac, ZERO_DISTANCE), 0.0)
        grad = add_data_term(grad, wab, wac)
    return 0.5 * (grad + grad.T)


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
    train: LabeledDataset, triplets: TripletSet, config: ExperimentConfig = _DEFAULTS
) -> tuple[MahalanobisMetric, OptimizerTrace]:
    """Least squared-residual metric learning from triplet relative comparisons.

    Reads `alpha`, `lsml_max_iter` and `lsml_tol` from the config.
    """
    if len(triplets) == 0:
        raise ConstraintError("LSML needs a nonempty triplet set")
    alpha = config.alpha
    # the Gram kernel costs O(n^2) per evaluation, the difference rows O(m d)
    kernel = _gram_kernel if train.n**2 <= len(triplets) * train.d else _row_kernel
    squared, add_data_term = kernel(train, triplets)

    def evaluate(m):
        return _lsml_value(m, *squared(m), alpha)

    def gradient(parts):
        return _lsml_grad(parts, add_data_term, alpha)

    # start at c* I, the minimizer of J on the ray cI (see the module docstring)
    prior_weight = alpha * train.d
    start = prior_weight / (prior_weight + evaluate(np.eye(train.d))[0])
    m, trace = _spg(
        start * np.eye(train.d),
        evaluate,
        gradient,
        _clip_to_floored_cone,
        config.lsml_max_iter,
        config.lsml_tol,
    )
    return _finalize_metric(m), trace


# ---------------------------------------------------------------------------
# The rating blocks, shared by LMNN and MMC


class _RatingBlocks:
    """Each pair of rows with unequal ratings once, in one block per rating; see the module docstring.

    The rows are sorted by rating once (stably), so a rating's block is its
    contiguous run of rows R = [a, b) against all the rows C = [b, n) after
    it, and the blocks hold each pair i < j of unequal ratings once. A
    caller keeps the entries in flat buffers it makes once per fit
    (`buffer`) and reads through `views`; indices of rows are positions in
    the sorted rows `x`. The layout's own arrays are made once too, and each
    call overwrites them.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        self.order = np.argsort(labels, kind="stable")
        x = self.x = features[self.order]
        n, d = x.shape
        ends = np.cumsum(np.unique(labels, return_counts=True)[1])[:-1]
        self.spans = list(zip(np.concatenate([[0], ends[:-1]]), ends))  # every rating but the highest
        self.offsets = np.cumsum([0] + [(b - a) * (n - b) for a, b in self.spans])
        self._x1 = np.hstack([x, np.ones((n, 1))])
        self._scaled = np.zeros((n, d + 1))  # on each block's rows, [W X_C, W 1]
        self._left = np.ones((n, d + 2))  # [-2 y, s, 1]
        self._right = np.hstack([self._x1, np.zeros((n, 1))])  # [x, 1, s]

    def buffer(self, dtype=float) -> np.ndarray:
        """An uninitialized flat buffer of the entries."""
        return np.empty(self.offsets[-1], dtype=dtype)

    def views(self, buffer: np.ndarray) -> list[np.ndarray]:
        """Each block's (b - a, n - b) view of a flat buffer."""
        n = len(self.x)
        return [buffer[lo:hi].reshape(b - a, n - b) for (a, b), lo, hi in zip(self.spans, self.offsets, self.offsets[1:])]

    def entry_rows(self) -> np.ndarray:
        """(2, entries): the block row i, then the block column j, of each entry (i, j)."""
        out = np.empty((2, self.offsets[-1]), dtype=np.intp)
        for (a, b), rows, cols in zip(self.spans, self.views(out[0]), self.views(out[1])):
            rows[...] = np.arange(a, b)[:, None]
            cols[...] = np.arange(b, len(self.x))
        return out

    def squared(self, m: np.ndarray, blocks: list[np.ndarray]) -> None:
        """Each entry's d^2 = s_i + s_j - 2 (x_i M) . x_j, s_i = x_i M x_i, into `blocks` (the `views`)."""
        x, d = self.x, self.x.shape[1]
        y = x @ m
        s = np.einsum("ij,ij->i", y, x)
        np.multiply(y, -2.0, out=self._left[:, :d])
        self._left[:, d] = s
        self._right[:, d + 1] = s
        for (a, b), d2 in zip(self.spans, blocks):
            np.matmul(self._left[a:b], self._right[b:].T, out=d2)

    def assemble(self, blocks: list[np.ndarray]) -> np.ndarray:
        """sum over entries of W_ij (x_i - x_j)(x_i - x_j)^T = X^T diag(r) X - K - K^T, W in `blocks`.

        r adds up each row's weights over the blocks, W 1 as a block row and
        W^T 1 as a block column, and K sums X_R^T W X_C.
        """
        x, (n, d) = self.x, self.x.shape
        r = np.zeros(n)
        for (a, b), w in zip(self.spans, blocks):
            np.matmul(w, self._x1[b:], out=self._scaled[a:b])
            r[b:] += w.sum(axis=0)
        r += self._scaled[:, d]
        cross = x.T @ self._scaled[:, :d]
        return (x * r[:, None]).T @ x - cross - cross.T


# ---------------------------------------------------------------------------
# LMNN


@dataclass(frozen=True)
class LmnnProblem:
    """Fixed target-neighbor structure LMNN optimizes over."""

    features: np.ndarray
    labels: np.ndarray
    target_pairs: np.ndarray  # (p, 2) rows (i, target j), same rating, i nondecreasing, then j nearest first
    target_ranks: np.ndarray  # (p,) rank of j among i's targets, 0 for the nearest
    pull_gram: np.ndarray  # sum over target pairs of (x_i - x_j)(x_i - x_j)^T


_TARGET_BLOCK = 1 << 15  # difference rows per block of lmnn_problem's per-class distances


def lmnn_problem(train: LabeledDataset, k_targets: int) -> LmnnProblem:
    """Each row's k_targets nearest same-rating rows under the Euclidean metric, lower index first on ties."""
    if k_targets < 1:
        raise ConfigurationError(f"k_targets must be >= 1, got {k_targets}")
    x, labels = train.features, train.labels
    _, first, sizes = np.unique(labels, return_index=True, return_counts=True)
    for row in np.sort(first[sizes == 1]):
        warnings.warn(
            f"rating class {int(labels[row])} has a single member; skipped",
            SmallClassWarning,
            stacklevel=2,
        )
    targets = np.full((train.n, k_targets), -1, dtype=np.int64)
    by_class = np.argsort(labels, kind="stable")  # each class's rows, ascending
    for members in np.split(by_class, np.cumsum(sizes)[:-1]):
        if members.size < 2:
            continue
        ranks = min(k_targets, members.size - 1)
        xc = x[members]
        step = max(1, _TARGET_BLOCK // members.size)
        for lo in range(0, members.size, step):
            block = np.arange(lo, min(lo + step, members.size))
            diffs = (xc[None, :, :] - xc[block][:, None, :]).reshape(-1, train.d)
            d2 = np.einsum("ij,ij->i", diffs, diffs).reshape(block.size, members.size)
            d2[np.arange(block.size), block] = np.inf  # not its own target
            targets[members[block], :ranks] = members[np.argsort(d2, axis=1, kind="stable")[:, :ranks]]
    anchor, rank = np.nonzero(targets >= 0)
    if anchor.size == 0:
        raise ConstraintError("no rating class has two members; LMNN cannot build target pairs")
    tp = np.stack([anchor, targets[anchor, rank]], axis=1)
    vp = x[tp[:, 0]] - x[tp[:, 1]]
    return LmnnProblem(features=x, labels=labels, target_pairs=tp, target_ranks=rank, pull_gram=vp.T @ vp)


class _LmnnKernel:
    """LMNN's value, gradient and ray start on the rating blocks, for one problem and mu; see the module docstring.

    Each block entry (i, l) serves two anchors: i with impostor l, and l
    with impostor i; `ends` holds (i, l) for each entry. thr[r, i] = 1 +
    d2(i, j) for i's target j of rank r, -inf where i has none, so the hinge
    of (i, j, l) is [thr[r, i] - d2(i, l)]_+. It is positive only where
    d2(i, l) < thr[r, i] <= top[i] = max_r thr[r, i], so the entries below
    the larger top of their two anchors, listed once, hold every positive
    hinge of every rank for both: the screen is exact. The entries' d2 live
    in one flat buffer, `entries`, made per kernel and overwritten at every
    evaluation; the gradient writes the entries' weights over them.
    """

    def __init__(self, problem: LmnnProblem, mu: float):
        self.problem, self.mu = problem, mu
        self.blocks = _RatingBlocks(problem.features, problem.labels)
        self.entries = self.blocks.buffer()
        self._entry_blocks = self.blocks.views(self.entries)
        self.ends = self.blocks.entry_rows()
        self._listed = self.blocks.buffer(bool)
        self._screens = list(zip(self.blocks.spans, self._entry_blocks, self.blocks.views(self._listed)))
        n = len(self.blocks.x)
        position = np.empty(n, dtype=np.intp)
        position[self.blocks.order] = np.arange(n)
        i, j = problem.target_pairs.T
        self._anchors = position[i]
        self._diffs = problem.features[i] - problem.features[j]

    def _by_rank(self, values: np.ndarray) -> np.ndarray:
        """(ranks, n): each target pair's value at [its rank, its anchor], -inf where an anchor has no target of that rank."""
        ranks = self.problem.target_ranks
        out = np.full((int(ranks.max()) + 1, len(self.blocks.x)), -np.inf)
        out[ranks, self._anchors] = values
        return out

    def _screened(self, thr: np.ndarray, top: np.ndarray):
        """The entries whose d2 lies below the larger `top` of their anchors, listed once.

        Returns their positions, their (2, listed) anchors and the
        (ranks, 2, listed) thr[r, anchor] - d2.
        """
        for (a, b), d2, screen in self._screens:
            np.less(d2, np.maximum(top[a:b, None], top[b:]), out=screen)
        flat = np.flatnonzero(self._listed)
        anchor = self.ends.take(flat, axis=1)
        z = thr.take(anchor, axis=1)
        z -= self.entries.take(flat)
        return flat, anchor, z

    def value(self, m: np.ndarray):
        """eps(m), and the state the gradient reads: the screen's positions and anchors, and the hinges."""
        m = np.asarray(m, dtype=float)
        self.blocks.squared(m, self._entry_blocks)
        target_d2 = quad_forms(self._diffs, m)
        thr = self._by_rank(1.0 + target_d2)
        flat, anchor, hinge = self._screened(thr, thr.max(axis=0))
        push = float(np.maximum(hinge, 0.0, out=hinge).sum())
        return (1.0 - self.mu) * float(target_d2.sum()) + self.mu * push, (flat, anchor, hinge)

    def weights(self, state) -> np.ndarray:
        """Each target pair's count of active impostors; each entry's count of active hinges goes to `entries`.

        The hinge of rank r is active when z = thr[r, i] - d2(i, l) > 0 (the
        sign of a float difference is exact), and then adds v_ij v_ij^T -
        v_il v_il^T to the push term's gradient. The counts are integers, so
        each one is exact. Overwrites the state's hinges.
        """
        flat, anchor, hinge = state
        active = np.greater(hinge, 0.0, out=hinge)  # 1 per active hinge
        n, ranks = len(self.blocks.x), len(active)
        # one count for every rank; sums of 0.0 and 1.0, so exact
        key = anchor + (n * np.arange(ranks))[:, None, None]
        counts = np.bincount(key.ravel(), weights=active.ravel(), minlength=ranks * n).reshape(ranks, n)
        self.entries.fill(0.0)  # their d2 was read into the hinges
        self.entries[flat] = active.sum(axis=(0, 1))
        return counts[self.problem.target_ranks, self._anchors]

    def gradient(self, state) -> np.ndarray:
        counts = self.weights(state)
        push = (self._diffs * counts[:, None]).T @ self._diffs - self.blocks.assemble(self._entry_blocks)
        grad = (1.0 - self.mu) * self.problem.pull_gram + self.mu * push
        return 0.5 * (grad + grad.T)

    def ray_start(self) -> float:
        """c*, the minimizer of eps(cI) over c > 0 (see the module docstring); 1 when eps(cI) has none.

        The running sum over the ascending positive b passes its bound long
        before the large b, whose hinges vanish first along the ray. So only
        the b below a cutoff are sorted, and the cutoff widens when their
        sum stays within the bound. At I, -b = base[r, i] - d2(i, l), and
        every hinge with b < cutoff has d2(i, l) below max_r base[r, i] +
        cutoff, so the screen at that top lists them all.
        """
        self.blocks.squared(np.eye(self.problem.features.shape[1]), self._entry_blocks)
        base = self._by_rank(np.einsum("ij,ij->i", self._diffs, self._diffs))
        pull = (1.0 - self.mu) / self.mu * float(np.trace(self.problem.pull_gram))
        for cutoff in (4.0, 64.0, np.inf):
            top = base.max(axis=0)
            top[np.isfinite(top)] += cutoff  # an anchor without targets keeps -inf
            neg_b = self._screened(base, top)[2]
            # hinges with b <= 0 never vanish: each adds -b to the slope
            need = pull + float(np.maximum(neg_b, 0.0).sum())
            b = np.sort(-neg_b[(neg_b < 0.0) & (neg_b > -cutoff)])
            running = np.cumsum(b)
            if running.size and running[-1] > need:
                return 1.0 / float(b[np.searchsorted(running, need, side="right")])
        return 1.0


def lmnn_objective(m: np.ndarray, problem: LmnnProblem, mu: float) -> float:
    return _LmnnKernel(problem, mu).value(m)[0]


def lmnn_gradient(m: np.ndarray, problem: LmnnProblem, mu: float) -> np.ndarray:
    kernel = _LmnnKernel(problem, mu)
    return kernel.gradient(kernel.value(m)[1])


def _clip_to_cone(m: np.ndarray):
    out, w, _ = eigen_clip(m)
    return out, int(w[0] < 0.0)


def fit_lmnn(
    train: LabeledDataset, config: ExperimentConfig = _DEFAULTS
) -> tuple[MahalanobisMetric, OptimizerTrace]:
    """Large-margin nearest neighbor with rating values as classes.

    Reads `lmnn_k_targets`, `lmnn_mu`, `lmnn_max_iter` and `lmnn_tol` from the config.
    """
    kernel = _LmnnKernel(lmnn_problem(train, config.lmnn_k_targets), config.lmnn_mu)
    m, trace = _spg(
        kernel.ray_start() * np.eye(train.d),
        kernel.value,
        kernel.gradient,
        _clip_to_cone,
        config.lmnn_max_iter,
        config.lmnn_tol,
    )
    return _finalize_metric(m), trace


# ---------------------------------------------------------------------------
# MMC


def _mmc_pairs(train: LabeledDataset, row: np.ndarray) -> np.ndarray:
    """xs = X^T L(same rating) X, after checking that MMC has pairs to fit; `row` holds _row_ids.

    When every similar pair has equal features, tr(xs) = 0: the cap bounds no
    M and the dissimilar sum has no maximum.
    """
    x, labels = train.features, train.labels
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    if not same.any():
        raise ConstraintError("MMC needs at least one similar pair")
    if not (same & (row[:, None] != row[None, :])).any():
        raise ConstraintError("MMC needs a similar pair whose features differ")
    if labels.min() == labels.max():
        raise ConstraintError("MMC needs at least one dissimilar pair")
    xs = _laplacian_form(x, same.astype(float))
    return 0.5 * (xs + xs.T)


def _dissimilar_blocks(train: LabeledDataset, row: np.ndarray):
    """MMC's dissimilar-distance sum and its gradient, on the rating blocks; see the module docstring.

    The entries' d_M and weights live in two flat buffers made per fit,
    overwritten at every evaluation. Entries whose rows have equal features
    (equal `row`, the fold's _row_ids) are listed once and read d = 0, so
    weight 0: the Gram form can leave them a d^2 near 1e-16 * |x|^2, and
    0.5 / d would swamp the gradient.
    """
    blocks = _RatingBlocks(train.features, train.labels)
    dist, weight = blocks.buffer(), blocks.buffer()
    dist_blocks, weight_blocks = blocks.views(dist), blocks.views(weight)
    row = row[blocks.order]
    equal = np.concatenate(
        [lo + np.flatnonzero(row[a:b, None] == row[b:]) for (a, b), lo in zip(blocks.spans, blocks.offsets)]
    )

    def total(m: np.ndarray) -> float:
        """Sum of d_M over the dissimilar pairs; each pair's d_M stays in `dist`."""
        blocks.squared(m, dist_blocks)
        np.sqrt(np.maximum(dist, 0.0, out=dist), out=dist)
        dist[equal] = 0.0
        return float(dist.sum())

    def ascent() -> np.ndarray:
        """Gradient in M of the sum `total` took last: the assembly of W = 1 / (2 d_M) per block."""
        weight.fill(0.0)
        np.divide(0.5, dist, out=weight, where=dist > ZERO_DISTANCE)
        return blocks.assemble(weight_blocks)

    return total, ascent


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


def fit_mmc(
    train: LabeledDataset, config: ExperimentConfig = _DEFAULTS
) -> tuple[MahalanobisMetric, OptimizerTrace]:
    """Mahalanobis metric for clustering from the pairs the ratings define.

    Reads `mmc_form`, `mmc_max_iter` and `mmc_tol` from the config. The fit is
    the capped ascent of the dissimilar sum, and `keep` masks the form (see
    the module docstring).
    """
    keep = np.eye(train.d) if config.mmc_form == "diagonal" else 1.0
    row = _row_ids(train.features)
    xs = keep * _mmc_pairs(train, row)
    total, ascent = _dissimilar_blocks(train, row)

    def evaluate(m):
        return -total(m), None  # the state is the block buffers

    def gradient(_):
        g = ascent()
        return -0.5 * keep * (g + g.T)

    m0 = np.eye(train.d)
    init_val = float((m0 * xs).sum())
    if init_val > 1.0:
        m0 = m0 / init_val
    m, trace = _spg(
        m0,
        evaluate,
        gradient,
        lambda m: project_psd_cap(keep * m, xs),
        config.mmc_max_iter,
        config.mmc_tol,
    )
    # ascent trace of the dissimilar sum
    trace = replace(trace, objective_values=tuple(-v for v in trace.objective_values))
    # projection first: rescaling by a positive scalar preserves the cone, so the
    # dissimilar constraint ends up active with equality to float precision
    m = psd_project(0.5 * (m + m.T))
    dissimilar_sum = total(m)
    if dissimilar_sum <= 0.0:
        raise NumericalError("dissimilar-distance sum collapsed to zero in MMC")
    return MahalanobisMetric(m / dissimilar_sum**2), trace  # the dissimilar sum is now 1


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
    for row, line in enumerate(raw[1:], start=1):
        try:
            values = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise ConfigurationError(f"{path}: matrix row {row}: {exc}") from None
        if len(values) != d:
            raise ConfigurationError(f"{path}: expected {d} values per row")
        rows.append(values)
    return MahalanobisMetric(np.asarray(rows))
