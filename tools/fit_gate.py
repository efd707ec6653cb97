"""Compare every iterative learner's fits between two fairmetric source trees.

    python3 tools/fit_gate.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a `fairmetric` package, such as
the `src/` of two checkouts. The folds are `make_dataset(default_rng(seed), n,
10, scale)` of `tests/conftest.py` (labels drawn before features), for seeds
1-12, in three kinds: n = 140 and n = 420 rated 1-5, and n = 140 rated 1-10,
the COMPAS decile scale, where MMC's dissimilar pairs form nine rating blocks
instead of four. On each fold, each tree fits LSML, LMNN, MMC full and MMC
diagonal through the menu entry of `evaluation.build_learner_menu`, under a
default `ExperimentConfig` with `rng_seed` = seed (and `mmc_form` set), on a
repeat 0 whose train and test folds are the fold. So LSML fits the triplets
its entry draws, `sample_triplets(fold, 0.0, 5000, subseed(seed, 0, 1),
"literal")`, and its fit time includes that draw. Each tree runs in its own
subprocess with one BLAS thread; the trees run one after the other.

Prints one row per learner and fold kind: the worst and best relative
objective change (new - old) / |old| over the folds, + = worse; the
unconverged fits; and the summed iterations, objective evaluations and fit
time, old -> new. LSML and LMNN are scored by their objectives at the
returned metric, and both MMC forms by the scale-invariant sum over similar
pairs of d^2 over the squared sum over dissimilar pairs of d; all three are
minimized. Exits 1 if any fit raises, a tree's run fails, or a row has more
unconverged fits in NEW_SRC than in OLD_SRC, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = range(1, 13)
FOLDS = {"140": (140, 5), "420": (420, 5), "140 1-10": (140, 10)}  # kind: (n, highest rating)
DIM = 10
LEARNERS = ("lsml", "lmnn", "mmc_full", "mmc_diagonal")


def _fold(seed: int, n: int, top: int):
    from fairmetric.core import LabeledDataset, RatingScale

    rng = np.random.default_rng(seed)
    labels = rng.integers(1, top + 1, size=n)  # the order of tests/conftest.py's make_dataset
    return LabeledDataset(
        features=rng.normal(size=(n, DIM)),
        labels=labels,
        scale=RatingScale(1, top),
        feature_names=tuple(f"f{i}" for i in range(DIM)),
        source_tag="test",
    )


def _mmc_ratio(m: np.ndarray, ds) -> float:
    """Similar-pair sum of d^2 over the squared dissimilar-pair sum of d: MMC's objective, free of scale."""
    x = ds.features
    g = x @ m @ x.T
    s = np.diag(g)
    d2 = np.maximum(s[:, None] + s[None, :] - 2.0 * g, 0.0)
    same = ds.labels[:, None] == ds.labels[None, :]
    upper = np.triu(np.ones_like(same), 1)
    return float(d2[same & upper].sum()) / float(np.sqrt(d2[~same & upper]).sum()) ** 2


def _fit(learner: str, ds, seed: int):
    """Fit `learner` on `ds`; return its score at the returned metric, its trace and the fit time."""
    from fairmetric import learners
    from fairmetric.constraints import sample_triplets
    from fairmetric.core import ExperimentConfig, subseed
    from fairmetric.evaluation import RepeatData, build_learner_menu

    name, _, form = learner.partition("_")
    config = ExperimentConfig(rng_seed=seed, mmc_form=form or "full")
    fit = build_learner_menu((name,), config)[name]
    start = time.perf_counter()
    metric, trace = fit(RepeatData(0, ds, ds, ()))
    elapsed = time.perf_counter() - start
    m = metric.matrix
    if learner == "lsml":
        # the triplets the LSML entry drew
        triplets = sample_triplets(
            ds, config.sigma_train, config.triplet_subsample, subseed(seed, 0, 1), config.triplet_variant
        )
        return learners.lsml_objective(m, ds, triplets, config.alpha), trace, elapsed
    if learner == "lmnn":
        problem = learners.lmnn_problem(ds, config.lmnn_k_targets)
        return learners.lmnn_objective(m, problem, config.lmnn_mu), trace, elapsed
    return _mmc_ratio(m, ds), trace, elapsed


def worker() -> None:
    """Fit every (learner, fold kind, seed) with the fairmetric on sys.path; print one JSON record per fit."""
    for learner in LEARNERS:
        for kind, (n, top) in FOLDS.items():
            for seed in SEEDS:
                record = {"learner": learner, "fold": kind, "seed": seed}
                try:
                    objective, trace, elapsed = _fit(learner, _fold(seed, n, top), seed)
                except Exception as exc:  # reported, and the gate fails
                    traceback.print_exc()
                    record["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    record.update(
                        objective=objective,
                        converged=trace.converged,
                        iterations=trace.iterations,
                        evaluations=trace.evaluations,
                        fit_s=elapsed,
                    )
                print(json.dumps(record), flush=True)


def run_tree(src: Path) -> dict[tuple, dict] | None:
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in BLAS_THREADS})
    done = subprocess.run([sys.executable, __file__, "--worker"], env=env, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        return None
    records = [json.loads(line) for line in done.stdout.splitlines()]
    return {(r["learner"], r["fold"], r["seed"]): r for r in records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)
    trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    for side, src in trees.items():
        if not (src / "fairmetric" / "__init__.py").is_file():
            parser.error(f"{side} source tree {src} holds no fairmetric package")
    results = {}
    for side, src in trees.items():
        results[side] = run_tree(src)
        if results[side] is None:
            print(f"fit_gate: the {side} tree's run failed", file=sys.stderr)
            return 1
    old, new = results["old"], results["new"]
    failed = [(side, key, r["error"]) for side, rs in results.items() for key, r in rs.items() if "error" in r]
    for side, (learner, kind, seed), error in failed:
        print(f"fit_gate: {side} {learner} fold {kind} seed={seed} raised {error}", file=sys.stderr)

    worse = []  # rows with more unconverged fits in the new tree
    print(f"{len(SEEDS)} seeds per row; objective change (new - old) / |old|, + = worse")
    header = ("learner", "fold", "worst", "best", "unconverged", "iterations", "evaluations", "fit_s")
    print("  ".join(f"{h:>13}" for h in header))
    for learner in LEARNERS:
        for kind in FOLDS:
            keys = [(learner, kind, seed) for seed in SEEDS]
            if any("error" in old[k] or "error" in new[k] for k in keys):
                print(f"{learner:>13}  {kind:>13}  (a fit raised)")
                continue
            change = [(new[k]["objective"] - old[k]["objective"]) / abs(old[k]["objective"]) for k in keys]

            def total(side, field):
                return sum(side[k][field] for k in keys)

            was, now = (sum(not side[k]["converged"] for k in keys) for side in (old, new))
            if now > was:
                worse.append(
                    f"fit_gate: {learner} fold {kind} has {now} unconverged fits in the new tree, against {was}"
                )

            cells = (
                learner,
                kind,
                f"{max(change):+.2e}",
                f"{min(change):+.2e}",
                f"{was} -> {now}",
                f"{total(old, 'iterations')} -> {total(new, 'iterations')}",
                f"{total(old, 'evaluations')} -> {total(new, 'evaluations')}",
                f"{total(old, 'fit_s'):.2f} -> {total(new, 'fit_s'):.2f}",
            )
            print("  ".join(f"{c:>13}" for c in cells))
    for message in worse:
        print(message, file=sys.stderr)
    return 1 if failed or worse else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker()
    else:
        sys.exit(main())
