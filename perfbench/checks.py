"""Correctness checks on one `fairmetric experiment` output directory.

A figure1 run writes report.csv (metric, loss, mean, std, n_repeats) and one
metric file per successful fit; a sweep run writes sweep.csv (sigma_test,
metric, ...) and one metric file per LSML fit. The checks:

- every report cell is present unless its fit failed: all cells of a learner
  carry the same repeat count, and a learner's count is the fits that succeeded;
- triplet_violation lies in [0, 1], the kNN losses and every std are >= 0;
- every file under metrics/ loads through `fairmetric.learners.load_metric`
  and saves back to the same bytes.

Byte identity of two runs on the same inputs is checked by the caller, which
holds both reports.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import fixtures
from fairmetric.core import LOSS_KNN_L1, LOSS_KNN_L2, LOSS_NAMES, LOSS_TRIPLET
from fairmetric.evaluation import DEFAULT_MENU, lsml_column_name
from fairmetric.errors import FairmetricError
from fairmetric.learners import load_metric, save_metric

FIGURE1_HEADER = ["metric", "loss", "mean", "std", "n_repeats"]
SWEEP_HEADER = ["sigma_test", "metric", "mean", "std", "n_repeats"]


@dataclass
class Checked:
    """What one output directory showed: its problems, fit counts, report bytes and losses."""

    report: bytes = b""
    problems: list[str] = field(default_factory=list)
    fits_ok: int = 0
    fits_attempted: int = 0
    losses: dict[str, float] = field(default_factory=dict)  # tv_lsml, and tv_mmc / knn_l1_lmnn on figure1


def check_output(out_dir, workload: fixtures.Workload) -> Checked:
    out_dir = Path(out_dir)
    name = "sweep.csv" if workload.mode == "sweep" else "report.csv"
    path = out_dir / name
    if not path.exists():
        return Checked(problems=[f"{name} was not written"])
    checked = Checked(report=path.read_bytes())
    rows = list(csv.reader(io.StringIO(checked.report.decode("utf-8"))))
    if workload.mode == "sweep":
        cells = _sweep_cells(rows, workload, checked)
    else:
        cells = _figure1_cells(rows, workload, checked)
    for (row, loss), (mean, std, _) in cells.items():
        if mean is None:
            continue
        if not (math.isfinite(mean) and math.isfinite(std) and std >= 0.0):
            checked.problems.append(f"{row}/{loss}: mean {mean!r}, std {std!r}")
        elif loss == LOSS_TRIPLET and not 0.0 <= mean <= 1.0:
            checked.problems.append(f"{row}/{loss}: {mean!r} outside [0, 1]")
        elif loss in (LOSS_KNN_L1, LOSS_KNN_L2) and mean < 0.0:
            checked.problems.append(f"{row}/{loss}: {mean!r} negative")
    _check_metric_files(out_dir, checked)
    return checked


def _parse(rows, header, key, checked: Checked) -> dict:
    """Cells keyed by key(row) -> (mean or None, std or None, n_repeats)."""
    if not rows or rows[0] != header:
        checked.problems.append(f"unexpected header {rows[:1]}")
        return {}
    cells = {}
    for row in rows[1:]:
        if len(row) != len(header):
            checked.problems.append(f"malformed row {row}")
            continue
        try:
            n = int(row[4])
            mean, std = (None, None) if n == 0 else (float(row[2]), float(row[3]))
        except ValueError:
            checked.problems.append(f"unparseable row {row}")
            continue
        cells[key(row)] = (mean, std, n)
    return cells


def _figure1_cells(rows, workload, checked: Checked) -> dict:
    cells = _parse(rows, FIGURE1_HEADER, lambda r: (r[0], r[1]), checked)
    for learner in DEFAULT_MENU:
        counts = {loss: cells.get((learner, loss), (None, None, -1))[2] for loss in LOSS_NAMES}
        ok = max(counts.values())
        if ok > workload.n_repeats or any(n != ok for n in counts.values()):
            checked.problems.append(f"{learner}: cell repeat counts {counts}, {workload.n_repeats} run")
        checked.fits_ok += max(ok, 0)
        checked.fits_attempted += workload.n_repeats

    def mean(learner, loss):
        return cells.get((learner, loss), (None,))[0]

    for key, learner, loss in (
        ("tv_lsml", "lsml", LOSS_TRIPLET),
        ("tv_mmc", "mmc", LOSS_TRIPLET),
        ("knn_l1_lmnn", "lmnn", LOSS_KNN_L1),
    ):
        if mean(learner, loss) is not None:
            checked.losses[key] = mean(learner, loss)
    return cells


def _sweep_cells(rows, workload, checked: Checked) -> dict:
    cells = _parse(rows, SWEEP_HEADER, lambda r: (f"sigma_test={r[0]}", r[1]), checked)
    lsml = [lsml_column_name(float(s)) for s in fixtures.SWEEP_SIGMA_TRAIN]
    expected = [
        (f"sigma_test={t}", column)
        for t in fixtures.SWEEP_SIGMA_TEST
        for column in ["euclidean", *lsml]
    ]
    # a sweep has no per-fit failure path: a failed fit fails the whole run
    missing = [key for key in expected if cells.get(key, (None, None, 0))[2] != workload.n_repeats]
    if missing or len(cells) != len(expected):
        checked.problems.append(f"sweep cells missing or short: {missing}")
    checked.fits_attempted = workload.n_repeats * len(lsml)
    checked.fits_ok = checked.fits_attempted if not missing else 0
    tv = [mean for (_, column), (mean, _, _) in cells.items() if column in lsml and mean is not None]
    if tv:
        checked.losses["tv_lsml"] = sum(tv) / len(tv)
    return {(f"{row}/{column}", LOSS_TRIPLET): cell for (row, column), cell in cells.items()}


def _check_metric_files(out_dir: Path, checked: Checked) -> None:
    files = sorted((out_dir / "metrics").glob("repeat_*/*.txt"))
    if len(files) != checked.fits_ok:
        checked.problems.append(f"{len(files)} metric files for {checked.fits_ok} successful fits")
    resaved = out_dir / "roundtrip.tmp"
    for path in files:
        try:
            save_metric(load_metric(path), resaved)
        except (FairmetricError, ValueError) as exc:
            checked.problems.append(f"{path.relative_to(out_dir)}: {exc}")
            continue
        if resaved.read_bytes() != path.read_bytes():
            checked.problems.append(f"{path.relative_to(out_dir)} does not round-trip")
    resaved.unlink(missing_ok=True)
