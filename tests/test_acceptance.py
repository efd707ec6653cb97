"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-4 need the published dataset (survey + defendant CSVs in the
documented interchange format); point FAIRMETRIC_DATA at the directory or put
the files under ./data. They skip when the data is absent. Criteria 5-10 are
dataset-independent and always run.

Run with `pytest tests/test_acceptance.py -v -s` to see the status lines.
"""

import math

import numpy as np
import pytest

from fairmetric.cli import main, write_encoded_defendants
from fairmetric.core import (
    LOSS_KNN_L1,
    LOSS_KNN_L2,
    LOSS_TRIPLET,
    ExperimentConfig,
    LabeledDataset,
    MahalanobisMetric,
    RatingScale,
    subseed,
)
from fairmetric.evaluation import (
    build_learner_menu,
    knn_l1,
    knn_l2,
    run_experiment,
    sigma_sweep,
)
from fairmetric.ingest import attach_labels, default_schema, load_defendants, load_survey, standardize
from fairmetric.learners import (
    euclidean_baseline,
    fit_lmnn,
    fit_lsml,
    fit_mmc,
    lmnn_gradient,
    lmnn_objective,
    lmnn_problem,
    lsml_gradient,
    lsml_objective,
    precision_baseline,
)
from fairmetric.reference import (
    build_pairs,
    build_triplets,
    subsample_triplets,
    triplet_violation_loss,
)
from fairmetric.survey import bail_rate_table, confidence_accuracy_table

from conftest import make_dataset, random_spd


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def load_published(published_defendants):
    path, schema_path = published_defendants
    schema = parse_schema(schema_path)
    return load_defendants(path, schema)


def parse_schema(schema_path):
    if schema_path is None:
        return default_schema()
    from fairmetric.ingest import parse_schema_manifest

    return parse_schema_manifest(schema_path)


# ---------------------------------------------------------------------------
# Criterion 1: bail-rate table reproduction


def test_criterion_1_bail_rate_table(published_survey):
    records = load_survey(published_survey)
    table = bail_rate_table(records)
    expected_mean = (99.6, 96.6, 84.7, 43.1, 18.9)
    rounded = [round(100.0 * v, 1) for v in table.mean]
    mean_ok = all(abs(r - e) <= 0.1 + 1e-9 for r, e in zip(rounded, expected_mean))
    max_ok = round(100.0 * table.max[4], 1) == 76.5
    min_ok = table.min[3] == 0.0 and table.min[4] == 0.0
    report(
        "C1",
        mean_ok and max_ok and min_ok,
        f"mean row {rounded} vs {expected_mean}; max@5 {round(100 * table.max[4], 1)}; "
        f"min@4/5 {table.min[3]}, {table.min[4]}",
    )


# ---------------------------------------------------------------------------
# Criterion 2: confidence-accuracy table reproduction


def test_criterion_2_confidence_accuracy(published_survey):
    records = load_survey(published_survey)
    overall = confidence_accuracy_table(records, 4).overall.mean
    overall_ok = abs(overall - 0.624) <= 0.001
    direction_ok = False
    chosen = None
    for thr in (3, 4, 5):
        table = confidence_accuracy_table(records, thr)
        hi, lo = table.high_confidence.mean, table.low_confidence.mean
        if hi is not None and lo is not None and hi >= lo:
            direction_ok = True
            chosen = (thr, round(hi, 3), round(lo, 3))
            break
    report(
        "C2",
        overall_ok and direction_ok,
        f"overall {overall:.4f} (target 0.624 +/- 0.001); high>=low at threshold {chosen}",
    )


# ---------------------------------------------------------------------------
# Criterion 3: sigma sweep on COMPAS labels


def test_criterion_3_table3_sweep(published_defendants):
    dataset = load_published(published_defendants)
    config = ExperimentConfig(rng_seed=0)
    sweep = sigma_sweep(config, dataset, [0.0, 2.0], [0.0, 2.0, 4.0, 6.0])
    eucl0 = sweep.cells[(0.0, "euclidean")]
    eucl_ok = eucl0.mean is not None and abs(eucl0.mean - 0.40) <= 0.08

    lsml_beats = True
    for sigma_t in sweep.rows:
        e = sweep.cells[(sigma_t, "euclidean")]
        l2 = sweep.cells[(sigma_t, "lsml(sigma=2)")]
        if e.mean is None or l2.mean is None or l2.mean > e.mean:
            lsml_beats = False

    monotone_ok = True
    for name in sweep.columns:
        means = [sweep.cells[(st, name)] for st in sweep.rows]
        for prev, nxt in zip(means, means[1:]):
            if prev.mean is None or nxt.mean is None:
                monotone_ok = False
                continue
            pooled = math.sqrt((prev.std**2 + nxt.std**2) / 2.0)
            if nxt.mean > prev.mean + pooled:
                monotone_ok = False
    report(
        "C3",
        eucl_ok and lsml_beats and monotone_ok,
        f"euclidean@sigma_t=0 {None if eucl0.mean is None else round(eucl0.mean, 3)} "
        f"(target 0.40 +/- 0.08); lsml(2)<=euclidean everywhere: {lsml_beats}; "
        f"monotone within pooled std: {monotone_ok}",
    )


# ---------------------------------------------------------------------------
# Criterion 4: learned metrics beat both baselines on survey labels


def test_criterion_4_learned_beat_baselines(published_defendants, published_survey):
    defendants = load_published(published_defendants)
    survey = load_survey(published_survey)
    dataset = attach_labels(defendants, survey, "pooled_median")
    config = ExperimentConfig(rng_seed=0, sigma_train=1.0, sigma_test=1.0)
    report_obj = run_experiment(config, dataset)
    means = {}
    for name in report_obj.rows:
        cell = report_obj.cell(name, LOSS_TRIPLET)
        means[name] = None if cell is None else cell.mean
    baseline = min(means["euclidean"], means["precision"])
    ok = all(
        means[name] is not None and means[name] < baseline for name in ("lmnn", "mmc", "lsml")
    )
    report(
        "C4",
        ok,
        "triplet means " + ", ".join(f"{k}={v if v is None else round(v, 3)}" for k, v in means.items()),
    )


# ---------------------------------------------------------------------------
# Criterion 5: synthetic metric recovery


TRUE_WEIGHTS = np.array([4.0, 1.0, 1.0, 0.0, 0.0, 0.0])


def synthetic_recovery_dataset(seed, n=200):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 6))
    dist = np.sqrt((x**2 * TRUE_WEIGHTS).sum(axis=1))  # distance from the origin anchor
    bins = np.quantile(dist, [0.2, 0.4, 0.6, 0.8])
    labels = 1 + np.searchsorted(bins, dist)
    return LabeledDataset(
        x, labels, RatingScale(1, 5), tuple(f"f{i}" for i in range(6)), source_tag="synthetic"
    )


def brute_triplet_scorer(matrix, features, triplet_indices):
    violated = 0
    for a, b, c in triplet_indices:
        def dist(i, j):
            diff = features[i] - features[j]
            total = 0.0
            for p in range(diff.shape[0]):
                for q in range(diff.shape[0]):
                    total += diff[p] * matrix[p, q] * diff[q]
            return math.sqrt(max(total, 0.0))

        if dist(a, b) > dist(a, c):
            violated += 1
    return violated / len(triplet_indices)


def test_criterion_5_synthetic_recovery():
    gains = []
    for seed in range(10):
        ds = synthetic_recovery_dataset(seed)
        chosen = subseed(seed, 0, 0).choice(ds.n, size=200, replace=False)
        train, stats = standardize(ds.subset(chosen[:140]))
        test, _ = standardize(ds.subset(chosen[140:]), stats)
        train_triplets = subsample_triplets(
            build_triplets(train, 1.0), 5000, subseed(seed, 0, 1)
        )
        test_triplets = build_triplets(test, 1.0)
        metric, _ = fit_lsml(train, train_triplets, ExperimentConfig(alpha=0.01))
        base = triplet_violation_loss(euclidean_baseline(6), test, test_triplets)
        learned = triplet_violation_loss(metric, test, test_triplets)
        if seed < 2:  # independent brute-force recount of both losses
            assert brute_triplet_scorer(np.eye(6), test.features, test_triplets.indices) == (
                pytest.approx(base, abs=1e-12)
            )
            assert brute_triplet_scorer(metric.matrix, test.features, test_triplets.indices) == (
                pytest.approx(learned, abs=1e-12)
            )
        gains.append((base - learned) / base)
    mean_gain = float(np.mean(gains))
    report(
        "C5",
        mean_gain >= 0.30,
        f"mean relative triplet-loss reduction {mean_gain:.1%} over 10 seeds (need >= 30%)",
    )


# ---------------------------------------------------------------------------
# Criterion 6: analytic gradients vs central finite differences


def _sym_dirs(d):
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


def _max_grad_err(fun, grad_fun, m, h=1e-6):
    g = grad_fun(m)
    worst = 0.0
    for e in _sym_dirs(m.shape[0]):
        num = (fun(m + h * e) - fun(m - h * e)) / (2 * h)
        ana = float((g * e).sum())
        worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1e-8))
    return worst


def test_criterion_6_gradient_checks():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(4):
        ds = make_dataset(rng, 12, 3)
        triplets = build_triplets(ds, 0.0)
        m = random_spd(rng, 3)
        worst = max(
            worst,
            _max_grad_err(
                lambda mm: lsml_objective(mm, ds, triplets, 0.01),
                lambda mm: lsml_gradient(mm, ds, triplets, 0.01),
                m,
            ),
        )
        labels = np.repeat([1, 2, 3], 4)
        ds2 = LabeledDataset(
            rng.normal(size=(12, 3)), labels, RatingScale(1, 5), ("a", "b", "c")
        )
        problem = lmnn_problem(ds2, 2)
        worst = max(
            worst,
            _max_grad_err(
                lambda mm: lmnn_objective(mm, problem, 0.5),
                lambda mm: lmnn_gradient(mm, problem, 0.5),
                m,
            ),
        )
    report("C6", worst < 1e-4, f"max relative gradient error {worst:.2e} (need < 1e-4)")


# ---------------------------------------------------------------------------
# Criterion 7: brute-force oracle equivalence


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(5, 21))
        ds = make_dataset(rng, n, 3)
        labels = ds.labels.tolist()
        sigma = float(rng.choice([0.0, 1.0, 2.0]))

        for variant in ("literal", "symmetric"):
            got = {tuple(t) for t in build_triplets(ds, sigma, variant).indices}
            want = set()
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if len({a, b, c}) != 3:
                            continue
                        if variant == "literal":
                            ok = labels[a] <= labels[b] + sigma < labels[c]
                        else:
                            ok = abs(labels[a] - labels[b]) + sigma < abs(labels[a] - labels[c])
                        if ok:
                            want.add((a, b, c))
            assert got == want, f"triplet mismatch ({variant}, sigma={sigma})"

        pairs = build_pairs(ds)
        sim = {(i, j) for i in range(n) for j in range(i + 1, n) if labels[i] == labels[j]}
        dis = {(i, j) for i in range(n) for j in range(i + 1, n) if labels[i] != labels[j]}
        assert {tuple(p) for p in pairs.similar} == sim
        assert {tuple(p) for p in pairs.dissimilar} == dis

        metric = MahalanobisMetric(random_spd(rng, 3))
        x = rng.normal(size=3)
        k = int(rng.integers(1, n + 1))
        from fairmetric.evaluation import knn_predict

        dists = []
        for i in range(n):
            diff = ds.features[i] - x
            dists.append((math.sqrt(max(float(diff @ metric.matrix @ diff), 0.0)), i))
        dists.sort()
        top = dists[:k]
        zero = [i for d, i in top if d < 1e-12]
        if zero:
            want_pred = sum(ds.labels[i] for i in zero) / len(zero)
        else:
            inv = [1.0 / d for d, _ in top]
            want_pred = sum(w / sum(inv) * ds.labels[i] for w, (_, i) in zip(inv, top))
        assert knn_predict(metric, ds, x, k) == pytest.approx(want_pred, rel=1e-10)
        checked += 1
    report("C7", checked == 50, f"{checked}/50 random instances matched all three oracles")


# ---------------------------------------------------------------------------
# Criteria 8 and 9: metric validity, scale invariance, MMC feasibility


def _fit_everything(rng):
    fits = []
    for _ in range(3):
        ds = make_dataset(rng, 32, 4)
        pairs = build_pairs(ds)
        triplets = build_triplets(ds, 0.0)
        fits.append((ds, "euclidean", euclidean_baseline(ds.d), pairs))
        fits.append((ds, "precision", precision_baseline(ds), pairs))
        fits.append((ds, "lmnn", fit_lmnn(ds, ExperimentConfig(lmnn_k_targets=2))[0], pairs))
        fits.append((ds, "mmc_full", fit_mmc(ds, ExperimentConfig(mmc_form="full"))[0], pairs))
        fits.append((ds, "mmc_diag", fit_mmc(ds, ExperimentConfig(mmc_form="diagonal"))[0], pairs))
        fits.append((ds, "lsml", fit_lsml(ds, triplets, ExperimentConfig(alpha=0.01))[0], pairs))
    return fits


def test_criterion_8_metric_validity_and_scale_invariance():
    rng = np.random.default_rng(2)
    fits = _fit_everything(rng)
    worst_asym, worst_eig = 0.0, 0.0
    invariant_ok = True
    for ds, name, metric, _ in fits:
        m = metric.matrix
        worst_asym = max(worst_asym, float(np.max(np.abs(m - m.T))))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(m)[0]))
        scaled = MahalanobisMetric(7.0 * m)
        test = ds.subset(range(16, 32))
        train = ds.subset(range(16))
        triplets = build_triplets(test, 0.0)
        if len(triplets):
            a = triplet_violation_loss(metric, test, triplets)
            b = triplet_violation_loss(scaled, test, triplets)
            invariant_ok &= abs(a - b) <= 1e-9
        invariant_ok &= abs(knn_l1(metric, train, test, 3) - knn_l1(scaled, train, test, 3)) <= 1e-9
        invariant_ok &= abs(knn_l2(metric, train, test, 3) - knn_l2(scaled, train, test, 3)) <= 1e-9
    ok = worst_asym <= 1e-9 and worst_eig >= -1e-8 and invariant_ok
    report(
        "C8",
        ok,
        f"max asymmetry {worst_asym:.2e} (<=1e-9); min eigenvalue {worst_eig:.2e} (>=-1e-8); "
        f"losses invariant under 7M: {invariant_ok}",
    )


def test_criterion_9_mmc_feasibility():
    rng = np.random.default_rng(3)
    worst_gap = 0.0
    weights_ok = True
    for _ in range(5):
        ds = make_dataset(rng, 30, 3)
        pairs = build_pairs(ds)
        full_metric, _ = fit_mmc(ds, ExperimentConfig(mmc_form="full"))
        vd = ds.features[pairs.dissimilar[:, 0]] - ds.features[pairs.dissimilar[:, 1]]
        q = np.einsum("ij,jk,ik->i", vd, full_metric.matrix, vd)
        total = float(np.sqrt(np.maximum(q, 0.0)).sum())
        worst_gap = max(worst_gap, abs(total - 1.0))
        diag_metric, _ = fit_mmc(ds, ExperimentConfig(mmc_form="diagonal"))
        weights_ok &= bool(np.all(np.diag(diag_metric.matrix) >= 0.0))
    report(
        "C9",
        worst_gap <= 1e-3 and weights_ok,
        f"max |dissimilar sum - 1| = {worst_gap:.2e} (<= 1e-3); diagonal weights nonneg: {weights_ok}",
    )


# ---------------------------------------------------------------------------
# Criterion 10: byte-identical experiment reruns


def test_criterion_10_determinism(tmp_path):
    rng = np.random.default_rng(4)
    ds = make_dataset(rng, 60, 3, scale=(1, 10), tag="synthetic")
    data_path = tmp_path / "encoded.csv"
    write_encoded_defendants(ds, data_path)
    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        f"""
[data]
defendants = {data_path}
label_source = compas

[experiment]
mode = figure1
train_size = 25
test_size = 10
n_repeats = 2
k_neighbors = 3
seed = 3
triplet_subsample = 300
menu = euclidean, lsml

[learners]
lsml_max_iter = 150
""",
        encoding="utf-8",
    )
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "r1")]) == 0
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "r2")]) == 0
    same_csv = (tmp_path / "r1" / "report.csv").read_bytes() == (
        tmp_path / "r2" / "report.csv"
    ).read_bytes()
    same_metric = (tmp_path / "r1" / "metrics" / "repeat_01" / "lsml.txt").read_bytes() == (
        tmp_path / "r2" / "metrics" / "repeat_01" / "lsml.txt"
    ).read_bytes()
    report("C10", same_csv and same_metric, f"report bytes equal: {same_csv}; metric bytes equal: {same_metric}")
