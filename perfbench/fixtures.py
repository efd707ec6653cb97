"""Seeded input generator for the benchmark workloads.

Writes everything `fairmetric experiment` reads for a workload: the encoded
defendants CSV (through `fairmetric.cli.write_encoded_defendants`), the survey
CSV when the workload takes its labels from a survey, and the INI config. The
same workload and seed always give byte-identical files.

    python3 perfbench/fixtures.py --workload figure1_survey --seed 1 --out DIR

A workload has a fixed number of datasets per seed; dataset j lands in
DIR/d<j>, and its data and the experiment's split seed both derive from
(seed, j).

Features are standard normal in d = 10 (the width of the default schema's
encoding). Labels are a rounded, noisy linear score of the features, so there
is structure for the learners to find.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from fairmetric.cli import write_encoded_defendants  # noqa: E402
from fairmetric.core import COMPAS_SCALE, LabeledDataset  # noqa: E402

D = 10
SCORE_NOISE = 1.0  # sd of the noise added to the unit-variance linear signal
N_RESPONDENTS = 20
RESPONDENT_BIAS = 0.3
RESPONDENT_NOISE = 0.7
CONFIG_NAME = "experiment.ini"
DEFENDANTS_NAME = "defendants.csv"
SURVEY_NAME = "survey.csv"
SWEEP_SIGMA_TRAIN = ("0", "2")
SWEEP_SIGMA_TEST = ("0", "2", "4", "6")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: input shape plus the experiment it runs."""

    name: str
    n: int
    labels: str  # "survey" (pooled 1-5 survey ratings), "compas" (1-10 deciles) or "five" (1-5)
    mode: str  # figure1 | sweep
    n_repeats: int
    datasets: int  # per seed; sized so one pass over them fits a run on the parent commit
    threads: int = 1
    experiment: tuple[tuple[str, str], ...] = ()  # [experiment] keys beyond the defaults
    learners: tuple[tuple[str, str], ...] = ()  # [learners] keys beyond the defaults


SMOKE_EXPERIMENT = (("train_size", "30"), ("test_size", "20"), ("triplet_subsample", "300"))
SMOKE_LEARNERS = (("lsml_max_iter", "100"), ("lmnn_max_iter", "50"), ("mmc_max_iter", "50"))

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's Figure 1 protocol with default settings; labels are the
        # pooled median of a 20-respondent survey, so ingest.attach_labels runs.
        Workload("figure1_survey", n=200, labels="survey", mode="figure1", n_repeats=1, datasets=10),
        # LSML-only sigma sweep on COMPAS-like deciles: the bypass workload for
        # LMNN, MMC and kNN changes. One worker thread: with two on a 2-vCPU
        # host, run_s measured the host's spare CPU rather than the code.
        Workload("sweep_compas", n=200, labels="compas", mode="sweep", n_repeats=2, datasets=12),
        # 420/180 split: triplet enumeration and test-triplet scoring dominate
        # time and peak memory, the learners are minor.
        Workload(
            "figure1_large", n=600, labels="five", mode="figure1", n_repeats=1, datasets=3,
            experiment=(("train_size", "420"), ("test_size", "180")),
        ),
        # Tiny configs for perfbench's own tests and a quick check that the
        # benchmark runs; BENCHMARK.json does not list them.
        Workload(
            "smoke_figure1", n=60, labels="survey", mode="figure1", n_repeats=2, datasets=2,
            experiment=SMOKE_EXPERIMENT, learners=SMOKE_LEARNERS,
        ),
        Workload(
            "smoke_sweep", n=60, labels="compas", mode="sweep", n_repeats=2, datasets=2, threads=2,
            experiment=SMOKE_EXPERIMENT, learners=SMOKE_LEARNERS,
        ),
    )
}


def _score(rng, x):
    """Standardized noisy linear score; the weight profile is fixed, its order and signs seeded."""
    weights = np.geomspace(1.0, 0.1, D)[rng.permutation(D)] * rng.choice((-1.0, 1.0), size=D)
    signal = x @ weights / np.linalg.norm(weights)
    score = signal + SCORE_NOISE * rng.normal(size=x.shape[0])
    return (score - score.mean()) / score.std()


def _deciles(score):
    ranks = np.argsort(np.argsort(score, kind="stable"), kind="stable")
    return 1 + (10 * ranks) // score.shape[0]


def _five_point(values):
    return np.clip(np.rint(3.0 + 1.1 * values), 1, 5).astype(np.int64)


def write_fixtures(workload: Workload, seed: int, out_dir) -> list[Path]:
    """Write the workload's datasets into out_dir/d<j>; return their config paths."""
    out_dir = Path(out_dir)
    return [write_fixture(workload, seed, j, out_dir / f"d{j}") for j in range(workload.datasets)]


def write_fixture(workload: Workload, seed: int, index: int, out_dir) -> Path:
    """Write dataset `index` of the seed's sequence into out_dir and return its config path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seq = np.random.SeedSequence(seed, spawn_key=(index,))
    rng = np.random.default_rng(seq)
    x = rng.normal(size=(workload.n, D))
    score = _score(rng, x)
    labels = _five_point(score) if workload.labels == "five" else _deciles(score)
    ids = tuple(f"d{i:04d}" for i in range(workload.n))
    dataset = LabeledDataset(
        features=x,
        labels=labels,
        scale=COMPAS_SCALE,
        feature_names=tuple(f"f{i}" for i in range(D)),
        ids=ids,
    )
    write_encoded_defendants(dataset, out_dir / DEFENDANTS_NAME)

    data = [f"defendants = {DEFENDANTS_NAME}"]
    if workload.labels == "survey":
        _write_survey(rng, score, ids, out_dir / SURVEY_NAME)
        data += [f"survey = {SURVEY_NAME}", "label_source = survey", "label_mode = pooled_median"]
    else:
        data.append("label_source = compas")
    experiment = {"mode": workload.mode, "n_repeats": str(workload.n_repeats)}
    experiment["seed"] = str(int(seq.generate_state(1)[0]))
    experiment.update(workload.experiment)
    lines = ["[data]", *data, "", "[experiment]"]
    lines += [f"{key} = {value}" for key, value in experiment.items()]
    if workload.learners:
        lines += ["", "[learners]"] + [f"{key} = {value}" for key, value in workload.learners]
    if workload.mode == "sweep":
        lines += [
            "",
            "[sweep]",
            f"sigma_train_list = {', '.join(SWEEP_SIGMA_TRAIN)}",
            f"sigma_test_list = {', '.join(SWEEP_SIGMA_TEST)}",
        ]
    config = out_dir / CONFIG_NAME
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config


def _write_survey(rng, score, ids, path: Path) -> None:
    """Each respondent rates every defendant: the shared score plus a personal bias and noise."""
    n = score.shape[0]
    rows = ["respondent_id,defendant_id,q1_recidivism,q2_bail,q3_confidence,two_year_recid"]
    recid = rng.random(n) < 1.0 / (1.0 + np.exp(-score))
    for r in range(N_RESPONDENTS):
        bias = RESPONDENT_BIAS * rng.normal()
        q1 = _five_point(score + bias + RESPONDENT_NOISE * rng.normal(size=n))
        q3 = rng.integers(1, 6, size=n)
        for i in range(n):
            bail = "yes" if q1[i] <= 3 else "no"
            rows.append(f"{r + 1},{ids[i]},{q1[i]},{bail},{q3[i]},{int(recid[i])}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    write_fixtures(WORKLOADS[args.workload], args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
