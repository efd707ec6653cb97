"""In-memory span tracing of fairmetric's module boundaries, installed from outside.

`Tracer.installed(TARGETS)` replaces each public function a fairmetric module
imports from another module (and the evaluation functions the benchmark
reports on) with a wrapper in the importing module's namespace, so calls made
through that name record a span: id, parent id, name, start and end. Nothing
under `src/` changes; leaving the context restores the originals.

Span names are `<layer>.<function>`, where the layer is the fairmetric module
that defines the function; numpy's eigensolvers count under `numerics`.
`derive_metrics` turns one traced invocation's spans into the per-layer metrics
in `PER_LAYER`.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import math
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

LAYERS = ("cli", "ingest", "constraints", "learners", "numerics", "evaluation")
ITERATIVE = ("lsml", "lmnn", "mmc")
EIGEN_SPANS = ("numerics.eigh", "numerics.eigvalsh")


def _rows(args, kwargs, result):
    return args[0].shape[0]


def _size(args, kwargs, result):
    return len(result)


def _subsample(args, kwargs, result):
    return len(args[0]), len(result)


def _pairs(args, kwargs, result):
    return result.n_similar + result.n_dissimilar


def _scored(args, kwargs, result):
    return len(args[2])


def _fit_trace(args, kwargs, result):
    trace = result[1]
    return trace.iterations, trace.converged, trace.projection_count, trace.objective_values[-1]


# (importing module, attribute, what to record about each call besides its span)
FIT_TARGETS = (
    ("fairmetric.evaluation", "fit_lsml", _fit_trace),
    ("fairmetric.evaluation", "fit_lmnn", _fit_trace),
    ("fairmetric.evaluation", "fit_mmc", _fit_trace),
)
TARGETS = FIT_TARGETS + (
    ("fairmetric.cli", "cmd_experiment", None),
    ("fairmetric.cli", "load_encoded_defendants", None),
    ("fairmetric.cli", "load_survey", None),
    ("fairmetric.cli", "attach_labels", None),
    ("fairmetric.cli", "build_learner_menu", None),
    ("fairmetric.cli", "run_experiment_detailed", None),
    ("fairmetric.cli", "sigma_sweep", None),
    ("fairmetric.cli", "save_metric", None),
    ("fairmetric.evaluation", "prepare_repeat", None),
    ("fairmetric.evaluation", "standardize", None),
    ("fairmetric.evaluation", "build_triplets", _size),
    ("fairmetric.evaluation", "subsample_triplets", _subsample),
    ("fairmetric.evaluation", "build_pairs", _pairs),
    ("fairmetric.evaluation", "euclidean_baseline", None),
    ("fairmetric.evaluation", "precision_baseline", None),
    ("fairmetric.evaluation", "score_metric", None),
    ("fairmetric.evaluation", "triplet_violation_loss", _scored),
    ("fairmetric.evaluation", "knn_l1", None),
    ("fairmetric.evaluation", "knn_l2", None),
    ("fairmetric.evaluation", "knn_predict", None),
    ("fairmetric.evaluation", "quad_forms", _rows),
    ("fairmetric.learners", "quad_forms", _rows),
    ("fairmetric.learners", "psd_project", None),
    ("fairmetric.learners", "safe_inverse", None),
    ("fairmetric.learners", "covariance", None),
    ("numpy.linalg", "eigh", None),
    ("numpy.linalg", "eigvalsh", None),
)


def span_name(fn) -> str:
    module = fn.__module__
    layer = module.rsplit(".", 1)[-1] if module.startswith("fairmetric.") else "numerics"
    return f"{layer}.{fn.__name__}"


class Tracer:
    """Keeps every span in memory: (id, parent id or 0, name, start ns, end ns)."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.info: dict[int, object] = {}  # span id -> what the call did
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, describe=None):
        name = span_name(fn)

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if describe is not None:
                self.info[sid] = describe(args, kwargs, result)
            return result

        return traced

    def _adopt(self, parent, fn, *args, **kwargs):
        """Run fn in a worker thread with the submitting thread's span as parent."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def _executor(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else 0
                return super().submit(tracer._adopt, parent, fn, *args, **kwargs)

        return TracedExecutor

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Wrap the targets (and evaluation's thread pool) for the duration of the block."""
        saved = []
        try:
            for module_name, attr, describe in targets:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(getattr(module, attr), describe))
            evaluation = importlib.import_module("fairmetric.evaluation")
            saved.append((evaluation, "ThreadPoolExecutor", evaluation.ThreadPoolExecutor))
            evaluation.ThreadPoolExecutor = self._executor()
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans) -> dict[int, int]:
    """Span duration minus the part of its interval that its children cover (ns)."""
    children = defaultdict(list)
    for sid, parent, _, start, end in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
            cursor = max(cursor, c_end)
        out[sid] = (end - start) - covered
    return out


def nesting_errors(spans) -> list[str]:
    """Children that start before or end after their parent span."""
    by_id = {s[0]: s for s in spans}
    errors = []
    for sid, parent, name, start, end in spans:
        if parent == 0:
            continue
        p = by_id.get(parent)
        if p is None:
            errors.append(f"{name} #{sid}: parent #{parent} never closed")
        elif start < p[3] or end > p[4]:
            errors.append(f"{name} #{sid} is not inside {p[2]} #{parent}")
    return errors


def _units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({"cli.load_s": "s", "cli.save_metric_s": "s"})
    units.update({"ingest.standardize_s": "s", "ingest.attach_labels_s": "s"})
    units.update(
        {
            "constraints.build_triplets_s": "s",
            "constraints.triplets_built": "count",
            "constraints.triplets_used_frac": "ratio",
            "constraints.subsample_triplets_s": "s",
            "constraints.build_pairs_s": "s",
            "constraints.pairs_built": "count",
        }
    )
    for learner in ITERATIVE:
        for suffix, unit in (
            ("fit_s", "s"),
            ("fit_s_max", "s"),
            ("iterations", "count"),
            ("converged_frac", "ratio"),
            ("projections", "count"),
            ("final_objective", "objective"),
            ("eigh_calls", "count"),
            ("eigh_per_iter", "ratio"),
        ):
            units[f"learners.{learner}.{suffix}"] = unit
    units["learners.precision.fit_s"] = "s"
    units["learners.mmc.tv"] = "loss"
    units["learners.lmnn.knn_l1"] = "loss"
    units.update(
        {
            "evaluation.prepare_repeat_self_s": "s",
            "evaluation.score_metric_s": "s",
            "evaluation.triplet_violation_loss_s": "s",
            "evaluation.test_triplets_scored": "count",
            "evaluation.knn_l1_s": "s",
            "evaluation.knn_l2_s": "s",
            "evaluation.knn_predict_calls": "count",
            "evaluation.sigma_sweep_self_s": "s",
        }
    )
    units.update(
        {
            "numerics.quad_forms_calls": "count",
            "numerics.quad_forms_rows": "count",
            "numerics.psd_project_calls": "count",
            "numerics.safe_inverse_calls": "count",
            "numerics.eigh_calls": "count",
        }
    )
    units.update(
        {
            "trace.run_s": "s",
            "trace.self_sum_s": "s",
            "trace.overhead_s": "s",
            "trace.spans": "count",
        }
    )
    return units


# Per-layer metric name -> unit. Ratios whose base is empty (a learner the
# workload does not run) read 0, as do the times and counts of that work.
PER_LAYER = _units()


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def derive_metrics(spans, info, run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced invocation from its spans.

    Learner fits are the spans `learners.fit_<name>`; a fit that raised has no
    recorded trace and counts as unconverged. The caller adds what spans do not
    give: `trace.overhead_s` and the report losses `learners.mmc.tv` and
    `learners.lmnn.knn_l1`.
    """
    ns = 1e-9
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def total_s(*names):
        return sum(s[4] - s[3] for name in names for s in by_name[name]) * ns

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(own[s[0]] for s in by_name[name]) * ns

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for sid, _, name, _, _ in spans:
        out[f"{name.split('.', 1)[0]}.self_s"] += own[sid] * ns

    out["cli.load_s"] = total_s("cli.load_encoded_defendants", "ingest.load_survey")
    out["cli.save_metric_s"] = total_s("learners.save_metric")
    out["ingest.standardize_s"] = total_s("ingest.standardize")
    out["ingest.attach_labels_s"] = total_s("ingest.attach_labels")

    subsampled = [info[s[0]] for s in by_name["constraints.subsample_triplets"] if s[0] in info]
    out["constraints.build_triplets_s"] = total_s("constraints.build_triplets")
    out["constraints.triplets_built"] = sum(
        info.get(s[0], 0) for s in by_name["constraints.build_triplets"]
    )
    out["constraints.triplets_used_frac"] = _ratio(
        sum(kept for _, kept in subsampled), sum(total for total, _ in subsampled)
    )
    out["constraints.subsample_triplets_s"] = total_s("constraints.subsample_triplets")
    out["constraints.build_pairs_s"] = total_s("constraints.build_pairs")
    out["constraints.pairs_built"] = sum(info.get(s[0], 0) for s in by_name["constraints.build_pairs"])

    # eigensolver calls made inside each fit span, found through the parent chain
    fit_of: dict[int, int] = {}
    fit_names = {f"learners.fit_{learner}" for learner in ITERATIVE}
    eigen_in_fit = defaultdict(int)
    for sid, parent, name, _, _ in sorted(spans):
        fit_of[sid] = sid if name in fit_names else fit_of.get(parent, 0)
        if name in EIGEN_SPANS and fit_of[sid]:
            eigen_in_fit[fit_of[sid]] += 1

    for learner in ITERATIVE:
        fits = by_name[f"learners.fit_{learner}"]
        traces = [info[s[0]] for s in fits if s[0] in info]
        iterations = sum(t[0] for t in traces)
        eigen = sum(eigen_in_fit[s[0]] for s in fits)
        key = f"learners.{learner}"
        out[f"{key}.fit_s"] = total_s(f"learners.fit_{learner}")
        out[f"{key}.fit_s_max"] = max((s[4] - s[3] for s in fits), default=0) * ns
        out[f"{key}.iterations"] = iterations
        out[f"{key}.converged_frac"] = _ratio(sum(1 for t in traces if t[1]), len(fits))
        out[f"{key}.projections"] = sum(t[2] for t in traces)
        # fsum: fits finish in thread order, and a plain sum would depend on it
        out[f"{key}.final_objective"] = _ratio(math.fsum(t[3] for t in traces), len(traces))
        out[f"{key}.eigh_calls"] = eigen
        out[f"{key}.eigh_per_iter"] = _ratio(eigen, iterations)
    out["learners.precision.fit_s"] = total_s("learners.precision_baseline")

    out["evaluation.prepare_repeat_self_s"] = self_s("evaluation.prepare_repeat")
    out["evaluation.score_metric_s"] = total_s("evaluation.score_metric")
    out["evaluation.triplet_violation_loss_s"] = total_s("evaluation.triplet_violation_loss")
    out["evaluation.test_triplets_scored"] = sum(
        info.get(s[0], 0) for s in by_name["evaluation.triplet_violation_loss"]
    )
    out["evaluation.knn_l1_s"] = total_s("evaluation.knn_l1")
    out["evaluation.knn_l2_s"] = total_s("evaluation.knn_l2")
    out["evaluation.knn_predict_calls"] = calls("evaluation.knn_predict")
    out["evaluation.sigma_sweep_self_s"] = self_s("evaluation.sigma_sweep")

    out["numerics.quad_forms_calls"] = calls("numerics.quad_forms")
    out["numerics.quad_forms_rows"] = sum(info.get(s[0], 0) for s in by_name["numerics.quad_forms"])
    out["numerics.psd_project_calls"] = calls("numerics.psd_project")
    out["numerics.safe_inverse_calls"] = calls("numerics.safe_inverse")
    out["numerics.eigh_calls"] = calls("numerics.eigh") + calls("numerics.eigvalsh")

    out["trace.run_s"] = run_s
    out["trace.self_sum_s"] = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.spans"] = len(spans)
    return out
