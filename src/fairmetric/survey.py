"""Descriptive analyses of the survey judgments: bail rates by predicted risk,
and decision accuracy by confidence."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

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


def _shares(by_resp: dict[str, list[SurveyRecord]], keep, hit) -> list[float | None]:
    """Per respondent, the share of their records passing `keep` that also pass `hit`;
    None for a respondent with no record passing `keep`."""
    shares: list[float | None] = []
    for records in by_resp.values():
        hits = [hit(r) for r in records if keep(r)]
        shares.append(sum(hits) / len(hits) if hits else None)
    return shares


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
    rates = []  # per level: the bail rate of each respondent with records at that level
    for level in PREDICTION_LEVELS:
        at_level = _shares(
            by_resp, lambda r: r.recidivism_prediction == level, attrgetter("bail_granted")
        )
        rates.append([rate for rate in at_level if rate is not None])
    return BailRateTable(
        levels=PREDICTION_LEVELS,
        level_names=PREDICTION_NAMES,
        mean=tuple(float(np.mean(r)) if r else None for r in rates),
        max=tuple(float(np.max(r)) if r else None for r in rates),
        min=tuple(float(np.min(r)) if r else None for r in rates),
        n_respondents=tuple(len(r) for r in rates),
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


def _stratum(by_resp: dict[str, list[SurveyRecord]], keep) -> StratumRow:
    per = _shares(by_resp, keep, decision_correct)
    present = [v for v in per if v is not None]
    if present:
        mean = float(np.mean(present))
        std = float(np.std(present, ddof=1)) if len(present) > 1 else 0.0
    else:
        mean = std = None
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


# each stratum of a ConfidenceAccuracyTable: its field (the CSV's name), its text
# label, and its column head in the text's per-respondent table
_STRATA = (
    ("overall", "Overall", "Overall"),
    ("high_confidence", "High confidence", "High"),
    ("low_confidence", "Low confidence", "Low"),
)


def render_confidence_accuracy_text(table: ConfidenceAccuracyTable) -> str:
    lines = [
        f"Accuracy vs confidence (high = Q3 >= {table.threshold}; "
        "dispersion = sample standard deviation across respondents)",
        "Stratum".ljust(18) + "Mean".rjust(8) + "Std".rjust(8),
    ]
    rows = [getattr(table, name) for name, _, _ in _STRATA]
    for (_, label, _), row in zip(_STRATA, rows):
        lines.append(label.ljust(18) + _acc(row.mean).rjust(8) + _acc(row.std).rjust(8))
    lines.append("")
    lines.append("Per respondent:")
    lines.append("Respondent".ljust(12) + "".join(head.rjust(10) for _, _, head in _STRATA))
    for i, rid in enumerate(table.respondent_ids):
        lines.append(rid.ljust(12) + "".join(_acc(r.per_respondent[i]).rjust(10) for r in rows))
    return "\n".join(lines) + "\n"


def confidence_accuracy_csv_rows(table: ConfidenceAccuracyTable) -> list[list[str]]:
    header = ["stratum", "mean", "std", "n_respondents"] + [
        f"r_{rid}" for rid in table.respondent_ids
    ]
    rows = [header]
    for name, _, _ in _STRATA:
        row = getattr(table, name)
        rows.append(
            [name, _csv_num(row.mean), _csv_num(row.std), str(row.n_respondents)]
            + [_csv_num(v) for v in row.per_respondent]
        )
    return rows
