"""Descriptive analyses of the survey judgments: bail rates by predicted risk,
and decision accuracy by confidence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SURVEY_SCALE
from .errors import ConfigurationError
from .ingest import SurveyTable

PREDICTION_LEVELS = tuple(range(SURVEY_SCALE.min, SURVEY_SCALE.max + 1))
PREDICTION_NAMES = ("Extremely Unlikely", "Unlikely", "Neither", "Likely", "Extremely Likely")


def _by_respondent(survey: SurveyTable) -> tuple[tuple[str, ...], np.ndarray]:
    """Respondents in numeric-then-text id order, and each row's respondent as its
    position in that order. Ids of equal value ("7", "07") sort as text, so the order
    does not depend on the set's hash order."""
    ids = set(survey.respondent_ids)
    order = tuple(sorted(ids, key=lambda s: (0, int(s), s) if s.isdecimal() else (1, 0, s)))
    position = {rid: at for at, rid in enumerate(order)}
    return order, np.fromiter(map(position.__getitem__, survey.respondent_ids), np.intp, len(survey))


def _shares(codes: np.ndarray, count: int, keep: np.ndarray, hit: np.ndarray) -> list[float | None]:
    """Per respondent (`codes` from `_by_respondent`, `count` of them), the share of their
    rows in `keep` that are also in `hit`; None for a respondent with no row in `keep`.

    The counts are ints, so each share is the correctly rounded quotient that
    summing the row hits and dividing by the row count gives.
    """
    kept = np.bincount(codes[keep], minlength=count).tolist()
    hits = np.bincount(codes[keep & hit], minlength=count).tolist()
    return [h / k if k else None for h, k in zip(hits, kept)]


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


def bail_rate_table(survey: SurveyTable) -> BailRateTable:
    """Bail rate per recidivism-prediction level: mean / max / min across respondents.

    A respondent with no rows at a level is excluded from that level's rows.
    """
    if not len(survey):
        raise ConfigurationError("no survey records")
    order, codes = _by_respondent(survey)
    rates = []  # per level: the bail rate of each respondent with rows at that level, in order
    for level in PREDICTION_LEVELS:
        at_level = _shares(codes, len(order), survey.predictions == level, survey.bail_granted)
        rates.append([rate for rate in at_level if rate is not None])
    return BailRateTable(
        levels=PREDICTION_LEVELS,
        level_names=PREDICTION_NAMES,
        mean=tuple(float(np.mean(r)) if r else None for r in rates),
        max=tuple(float(np.max(r)) if r else None for r in rates),
        min=tuple(float(np.min(r)) if r else None for r in rates),
        n_respondents=tuple(len(r) for r in rates),
    )


def decision_correct(survey: SurveyTable) -> np.ndarray:
    """Per row: a bail decision is correct when it matches the two-year recidivism outcome."""
    return survey.bail_granted != survey.recidivated


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


def _stratum(codes: np.ndarray, count: int, keep: np.ndarray, correct: np.ndarray) -> StratumRow:
    per = _shares(codes, count, keep, correct)
    present = [v for v in per if v is not None]
    if present:
        mean = float(np.mean(present))
        std = float(np.std(present, ddof=1)) if len(present) > 1 else 0.0
    else:
        mean = std = None
    return StratumRow(mean=mean, std=std, n_respondents=len(present), per_respondent=tuple(per))


def confidence_accuracy_table(
    survey: SurveyTable, high_confidence_threshold: int = 4
) -> ConfidenceAccuracyTable:
    """Decision accuracy overall and split by confidence, per respondent and averaged."""
    if not len(survey):
        raise ConfigurationError("no survey records")
    if not SURVEY_SCALE.contains(high_confidence_threshold):
        raise ConfigurationError(
            f"confidence threshold must lie in {SURVEY_SCALE.min}..{SURVEY_SCALE.max}, "
            f"got {high_confidence_threshold}"
        )
    order, codes = _by_respondent(survey)
    correct = decision_correct(survey)
    high = survey.confidence >= high_confidence_threshold
    return ConfidenceAccuracyTable(
        threshold=high_confidence_threshold,
        respondent_ids=order,
        overall=_stratum(codes, len(order), np.ones(len(survey), dtype=bool), correct),
        high_confidence=_stratum(codes, len(order), high, correct),
        low_confidence=_stratum(codes, len(order), ~high, correct),
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
