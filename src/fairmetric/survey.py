"""Descriptive analyses of the survey judgments: bail rates by predicted risk,
and decision accuracy by confidence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .ingest import SurveyRecord

PREDICTION_LEVELS = (1, 2, 3, 4, 5)
PREDICTION_NAMES = ("Extremely Unlikely", "Unlikely", "Neither", "Likely", "Extremely Likely")


def _by_respondent(records: list[SurveyRecord]) -> dict[str, list[SurveyRecord]]:
    """Each respondent's records, in record order; respondents in numeric-then-text id order."""
    ids = {r.respondent_id for r in records}
    order = sorted(ids, key=lambda s: (0, int(s)) if s.isdecimal() else (1, s))
    by_resp: dict[str, list[SurveyRecord]] = {rid: [] for rid in order}
    for rec in records:
        by_resp[rec.respondent_id].append(rec)
    return by_resp


@dataclass(frozen=True)
class BailRateTable:
    """Per prediction level: bail-grant rate summarized across respondents.

    Rates are fractions in [0, 1]; a level nobody answered has None cells.
    """

    levels: tuple[int, ...]
    level_names: tuple[str, ...]
    mean: tuple[float | None, ...]
    max: tuple[float | None, ...]
    min: tuple[float | None, ...]
    n_respondents: tuple[int, ...]


def bail_rate_table(records: list[SurveyRecord]) -> BailRateTable:
    """Bail rate per recidivism-prediction level: mean / max / min across respondents.

    A respondent with no records at a level is excluded from that level's rows.
    """
    if not records:
        raise ConfigurationError("no survey records")
    by_resp = _by_respondent(records)
    mean_row: list[float | None] = []
    max_row: list[float | None] = []
    min_row: list[float | None] = []
    counts: list[int] = []
    for level in PREDICTION_LEVELS:
        rates = []
        for mine in by_resp.values():
            granted = [r.bail_granted for r in mine if r.recidivism_prediction == level]
            if granted:
                rates.append(sum(granted) / len(granted))
        counts.append(len(rates))
        if rates:
            mean_row.append(float(np.mean(rates)))
            max_row.append(float(np.max(rates)))
            min_row.append(float(np.min(rates)))
        else:
            mean_row.append(None)
            max_row.append(None)
            min_row.append(None)
    return BailRateTable(
        levels=PREDICTION_LEVELS,
        level_names=PREDICTION_NAMES,
        mean=tuple(mean_row),
        max=tuple(max_row),
        min=tuple(min_row),
        n_respondents=tuple(counts),
    )


def decision_correct(record: SurveyRecord) -> bool:
    """A bail decision is correct when it matches the two-year recidivism outcome."""
    return record.bail_granted != record.ground_truth_recidivated


@dataclass(frozen=True)
class StratumRow:
    mean: float | None
    std: float | None  # sample standard deviation across respondents
    n_respondents: int
    per_respondent: tuple[float | None, ...]


@dataclass(frozen=True)
class ConfidenceAccuracyTable:
    threshold: int  # records with confidence >= threshold count as high confidence
    respondent_ids: tuple[str, ...]
    overall: StratumRow
    high_confidence: StratumRow
    low_confidence: StratumRow


def _stratum(records_by_resp: dict[str, list[SurveyRecord]], keep) -> StratumRow:
    per: list[float | None] = []
    for records in records_by_resp.values():
        mine = [r for r in records if keep(r)]
        per.append(sum(decision_correct(r) for r in mine) / len(mine) if mine else None)
    present = [v for v in per if v is not None]
    if present:
        mean = float(np.mean(present))
        std = float(np.std(present, ddof=1)) if len(present) > 1 else 0.0
    else:
        mean = None
        std = None
    return StratumRow(mean=mean, std=std, n_respondents=len(present), per_respondent=tuple(per))


def confidence_accuracy_table(
    records: list[SurveyRecord], high_confidence_threshold: int = 4
) -> ConfidenceAccuracyTable:
    """Decision accuracy overall and split by confidence, per respondent and averaged."""
    if not records:
        raise ConfigurationError("no survey records")
    if not 1 <= high_confidence_threshold <= 5:
        raise ConfigurationError(
            f"confidence threshold must lie in 1..5, got {high_confidence_threshold}"
        )
    by_resp = _by_respondent(records)
    thr = high_confidence_threshold
    return ConfidenceAccuracyTable(
        threshold=thr,
        respondent_ids=tuple(by_resp),
        overall=_stratum(by_resp, lambda r: True),
        high_confidence=_stratum(by_resp, lambda r: r.confidence >= thr),
        low_confidence=_stratum(by_resp, lambda r: r.confidence < thr),
    )


# ---------------------------------------------------------------------------
# Rendering


def _pct(value: float | None) -> str:
    return "N/A" if value is None else f"{100.0 * value:.1f}%"


def render_bail_rate_text(table: BailRateTable) -> str:
    width = max(len(name) for name in table.level_names) + 2
    header = "Bail Rate".ljust(12) + "".join(name.rjust(width) for name in table.level_names)
    lines = [header]
    for row_name, row in (("Mean", table.mean), ("Max", table.max), ("Min", table.min)):
        lines.append(row_name.ljust(12) + "".join(_pct(v).rjust(width) for v in row))
    return "\n".join(lines) + "\n"


def bail_rate_csv_rows(table: BailRateTable) -> list[list[str]]:
    rows = [["level", "label", "mean", "max", "min", "n_respondents"]]
    for i, level in enumerate(table.levels):
        rows.append(
            [
                str(level),
                table.level_names[i],
                _csv_num(table.mean[i]),
                _csv_num(table.max[i]),
                _csv_num(table.min[i]),
                str(table.n_respondents[i]),
            ]
        )
    return rows


def _csv_num(value: float | None) -> str:
    return "" if value is None else repr(value)


def _acc(value: float | None) -> str:
    return "N/A" if value is None else f"{value:.3f}"


def render_confidence_accuracy_text(table: ConfidenceAccuracyTable) -> str:
    lines = [
        f"Accuracy vs confidence (high = Q3 >= {table.threshold}; "
        "dispersion = sample standard deviation across respondents)",
        "Stratum".ljust(18) + "Mean".rjust(8) + "Std".rjust(8),
    ]
    for name, row in (
        ("Overall", table.overall),
        ("High confidence", table.high_confidence),
        ("Low confidence", table.low_confidence),
    ):
        lines.append(name.ljust(18) + _acc(row.mean).rjust(8) + _acc(row.std).rjust(8))
    lines.append("")
    lines.append("Per respondent:")
    header = "Respondent".ljust(12) + "Overall".rjust(10) + "High".rjust(10) + "Low".rjust(10)
    lines.append(header)
    for i, rid in enumerate(table.respondent_ids):
        lines.append(
            rid.ljust(12)
            + _acc(table.overall.per_respondent[i]).rjust(10)
            + _acc(table.high_confidence.per_respondent[i]).rjust(10)
            + _acc(table.low_confidence.per_respondent[i]).rjust(10)
        )
    return "\n".join(lines) + "\n"


def confidence_accuracy_csv_rows(table: ConfidenceAccuracyTable) -> list[list[str]]:
    header = ["stratum", "mean", "std", "n_respondents"] + [
        f"r_{rid}" for rid in table.respondent_ids
    ]
    rows = [header]
    for name, row in (
        ("overall", table.overall),
        ("high_confidence", table.high_confidence),
        ("low_confidence", table.low_confidence),
    ):
        rows.append(
            [name, _csv_num(row.mean), _csv_num(row.std), str(row.n_respondents)]
            + [_csv_num(v) for v in row.per_respondent]
        )
    return rows
