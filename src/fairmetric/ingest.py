"""CSV ingestion: defendant feature tables, survey judgment files, label attachment.

File contracts (UTF-8, comma-delimited, first row is the header):

  defendants CSV   id column + one column per schema entry + the COMPAS decile
                   label column.
  survey CSV       respondent_id, defendant_id, q1_recidivism (1-5),
                   q2_bail (yes/no), q3_confidence (1-5), two_year_recid (0/1).
  schema manifest  plain-text key-value lines:
                       id_column <name>
                       label_column <name>
                       column <name> numeric
                       column <name> binary <zero_value>,<one_value>
                       column <name> categorical <cat1>,<cat2>,...
                   '#' starts a comment; blank lines are ignored.

Categorical columns one-hot encode to one indicator per listed category, in the
listed order; unseen categories are an error.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import COMPAS_SCALE, SURVEY_SCALE, LabeledDataset
from .errors import ConfigurationError, IngestionError

COLUMN_KINDS = ("numeric", "categorical", "binary")


@dataclass(frozen=True)
class ColumnSpec:
    """One raw column: numeric passes through, binary maps to {0,1}, categorical one-hots."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise ConfigurationError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.kind == "binary" and len(self.categories) != 2:
            raise ConfigurationError(f"binary column {self.name!r} needs exactly 2 values")
        if self.kind == "categorical" and len(self.categories) < 2:
            raise ConfigurationError(f"categorical column {self.name!r} needs >= 2 categories")
        if len(set(self.categories)) != len(self.categories):
            raise ConfigurationError(f"duplicate categories in column {self.name!r}")

    @property
    def encoded_names(self) -> tuple[str, ...]:
        if self.kind == "categorical":
            return tuple(f"{self.name}={cat}" for cat in self.categories)
        return (self.name,)

    @property
    def encoded_width(self) -> int:
        return len(self.categories) if self.kind == "categorical" else 1


@dataclass(frozen=True)
class FeatureSchema:
    columns: tuple[ColumnSpec, ...]
    id_column: str = "id"
    label_column: str = "compas_decile"

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate column names in schema")
        if not names:
            raise ConfigurationError("schema declares no feature columns")

    @property
    def encoded_names(self) -> tuple[str, ...]:
        out: list[str] = []
        for col in self.columns:
            out.extend(col.encoded_names)
        return tuple(out)

    @property
    def encoded_dim(self) -> int:
        return sum(c.encoded_width for c in self.columns)


# Best-effort reconstruction of the seven demographic / criminal-history
# attributes shown to respondents. Race is excluded by default; pass
# include_race=True for ablations.
def default_schema(include_race: bool = False) -> FeatureSchema:
    columns = [
        ColumnSpec("age", "numeric"),
        ColumnSpec("sex", "binary", ("Male", "Female")),
        ColumnSpec("juv_fel_count", "numeric"),
        ColumnSpec("juv_misd_count", "numeric"),
        ColumnSpec("priors_count", "numeric"),
        ColumnSpec("charge_degree", "binary", ("F", "M")),
        ColumnSpec("charge_category", "categorical", ("violent", "property", "drug", "other")),
    ]
    if include_race:
        columns.append(
            ColumnSpec(
                "race",
                "categorical",
                ("African-American", "Asian", "Caucasian", "Hispanic", "Native American", "Other"),
            )
        )
    return FeatureSchema(columns=tuple(columns))


def parse_schema_manifest(path) -> FeatureSchema:
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"schema manifest not found: {path}")
    columns: list[ColumnSpec] = []
    id_column = "id"
    label_column = "compas_decile"
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 3)
        key = parts[0]
        if key == "id_column" and len(parts) == 2:
            id_column = parts[1]
        elif key == "label_column" and len(parts) == 2:
            label_column = parts[1]
        elif key == "column" and len(parts) >= 3:
            name, kind = parts[1], parts[2]
            values = tuple(v.strip() for v in parts[3].split(",")) if len(parts) == 4 else ()
            try:
                columns.append(ColumnSpec(name, kind, values))
            except ConfigurationError as exc:
                raise IngestionError(f"{path}:{lineno}: {exc}") from exc
        else:
            raise IngestionError(f"{path}:{lineno}: cannot parse manifest line {raw!r}")
    if not columns:
        raise IngestionError(f"{path}: manifest declares no columns")
    return FeatureSchema(columns=tuple(columns), id_column=id_column, label_column=label_column)


@dataclass(frozen=True)
class SurveyRecord:
    """One respondent's three answers for one defendant, plus the ground truth."""

    respondent_id: str
    defendant_id: str
    recidivism_prediction: int  # Q1, 1-5
    bail_granted: bool  # Q2
    confidence: int  # Q3, 1-5
    ground_truth_recidivated: bool

    def __post_init__(self):
        if not SURVEY_SCALE.contains(self.recidivism_prediction):
            raise ConfigurationError(
                f"recidivism prediction {self.recidivism_prediction} outside 1-5"
            )
        if not SURVEY_SCALE.contains(self.confidence):
            raise ConfigurationError(f"confidence {self.confidence} outside 1-5")


def _open_rows(path: Path, required: list[str], what: str):
    if not path.exists():
        raise IngestionError(f"{what} file not found: {path}")
    handle = path.open(newline="", encoding="utf-8")
    reader = csv.DictReader(handle)
    if reader.fieldnames is None:
        handle.close()
        raise IngestionError(f"{path}: empty file (no header)")
    missing = [c for c in required if c not in reader.fieldnames]
    if missing:
        handle.close()
        raise IngestionError(f"{path}: missing column(s) {', '.join(missing)}")
    return handle, reader


def _cell(row: dict, column: str, path: Path, lineno: int) -> str:
    value = row.get(column)
    if value is None or value == "":
        raise IngestionError(f"{path}: row {lineno}, column {column!r}: empty cell")
    return value.strip()


def _int_cell(row: dict, column: str, path: Path, lineno: int) -> int:
    raw = _cell(row, column, path, lineno)
    try:
        return int(raw)
    except ValueError:
        raise IngestionError(
            f"{path}: row {lineno}, column {column!r}: cannot parse {raw!r} as integer"
        ) from None


def load_defendants(path, schema: FeatureSchema) -> LabeledDataset:
    """Load and encode the defendant table; labels are COMPAS decile scores."""
    path = Path(path)
    required = [schema.id_column] + [c.name for c in schema.columns] + [schema.label_column]
    handle, reader = _open_rows(path, required, "defendants")
    rows: list[np.ndarray] = []
    labels: list[int] = []
    ids: list[str] = []
    seen: set[str] = set()
    try:
        for row in reader:
            lineno = reader.line_num
            rid = _cell(row, schema.id_column, path, lineno)
            if rid in seen:
                raise IngestionError(f"{path}: row {lineno}: duplicate id {rid!r}")
            seen.add(rid)
            encoded = np.zeros(schema.encoded_dim, dtype=float)
            pos = 0
            for col in schema.columns:
                raw = _cell(row, col.name, path, lineno)
                if col.kind == "numeric":
                    try:
                        encoded[pos] = float(raw)
                    except ValueError:
                        raise IngestionError(
                            f"{path}: row {lineno}, column {col.name!r}: "
                            f"cannot parse {raw!r} as number"
                        ) from None
                    pos += 1
                elif col.kind == "binary":
                    if raw not in col.categories:
                        raise IngestionError(
                            f"{path}: row {lineno}, column {col.name!r}: value {raw!r} "
                            f"not one of {col.categories}"
                        )
                    encoded[pos] = float(col.categories.index(raw))
                    pos += 1
                else:
                    if raw not in col.categories:
                        raise IngestionError(
                            f"{path}: row {lineno}, column {col.name!r}: unseen category {raw!r}"
                        )
                    encoded[pos + col.categories.index(raw)] = 1.0
                    pos += len(col.categories)
            label = _int_cell(row, schema.label_column, path, lineno)
            if not COMPAS_SCALE.contains(label):
                raise IngestionError(
                    f"{path}: row {lineno}, column {schema.label_column!r}: "
                    f"label {label} outside 1-10"
                )
            rows.append(encoded)
            labels.append(label)
            ids.append(rid)
    finally:
        handle.close()
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    if len(rows) < 2:
        raise IngestionError(f"{path}: need at least 2 rows, got {len(rows)}")
    return LabeledDataset(
        features=np.vstack(rows),
        labels=np.asarray(labels),
        scale=COMPAS_SCALE,
        feature_names=schema.encoded_names,
        source_tag=f"defendants:{path.name}",
        ids=tuple(ids),
    )


_BOOL_WORDS = {"yes": True, "no": False}


def load_survey(path) -> list[SurveyRecord]:
    """Load survey judgments; exactly one record per (respondent, defendant) pair."""
    path = Path(path)
    required = [
        "respondent_id",
        "defendant_id",
        "q1_recidivism",
        "q2_bail",
        "q3_confidence",
        "two_year_recid",
    ]
    handle, reader = _open_rows(path, required, "survey")
    records: list[SurveyRecord] = []
    seen: set[tuple[str, str]] = set()
    try:
        for row in reader:
            lineno = reader.line_num
            resp = _cell(row, "respondent_id", path, lineno)
            defend = _cell(row, "defendant_id", path, lineno)
            if (resp, defend) in seen:
                raise IngestionError(
                    f"{path}: row {lineno}: duplicate (respondent, defendant) pair "
                    f"({resp!r}, {defend!r})"
                )
            seen.add((resp, defend))
            q1 = _int_cell(row, "q1_recidivism", path, lineno)
            bail_raw = _cell(row, "q2_bail", path, lineno).lower()
            if bail_raw not in _BOOL_WORDS:
                raise IngestionError(
                    f"{path}: row {lineno}, column 'q2_bail': expected yes/no, got {bail_raw!r}"
                )
            q3 = _int_cell(row, "q3_confidence", path, lineno)
            recid = _int_cell(row, "two_year_recid", path, lineno)
            if recid not in (0, 1):
                raise IngestionError(
                    f"{path}: row {lineno}, column 'two_year_recid': expected 0/1, got {recid}"
                )
            try:
                records.append(
                    SurveyRecord(
                        respondent_id=resp,
                        defendant_id=defend,
                        recidivism_prediction=q1,
                        bail_granted=_BOOL_WORDS[bail_raw],
                        confidence=q3,
                        ground_truth_recidivated=bool(recid),
                    )
                )
            except ConfigurationError as exc:
                raise IngestionError(f"{path}: row {lineno}: {exc}") from exc
    finally:
        handle.close()
    if not records:
        raise IngestionError(f"{path}: no data rows")
    return records


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def parse_label_mode(mode: str) -> tuple[str, str | None]:
    """Split 'per_respondent:<id>' / 'pooled_median' / 'pooled_rounded_mean'."""
    if mode.startswith("per_respondent:"):
        respondent = mode.split(":", 1)[1]
        if not respondent:
            raise ConfigurationError("per_respondent label mode needs an id, e.g. per_respondent:3")
        return "per_respondent", respondent
    if mode in ("pooled_median", "pooled_rounded_mean"):
        return mode, None
    raise ConfigurationError(f"unknown label mode {mode!r}")


def attach_labels(
    defendants: LabeledDataset, survey: list[SurveyRecord], mode: str
) -> LabeledDataset:
    """Restrict the defendant table to surveyed defendants and relabel with Q1 ratings.

    mode is 'per_respondent:<id>', 'pooled_median', or 'pooled_rounded_mean'.
    Pooled medians over an even respondent count can be half-integral; these
    round half-up, like the pooled mean.
    """
    kind, respondent = parse_label_mode(mode)
    if defendants.ids is None:
        raise ConfigurationError("defendant dataset has no row ids; cannot join survey records")
    ratings: dict[str, dict[str, int]] = {}
    for rec in survey:
        ratings.setdefault(rec.defendant_id, {})[rec.respondent_id] = rec.recidivism_prediction
    known = set(defendants.ids)
    missing = sorted(set(ratings) - known)
    if missing:
        raise IngestionError(
            f"surveyed defendant(s) not in defendant table: {', '.join(missing[:5])}"
            + (" ..." if len(missing) > 5 else "")
        )
    if kind == "per_respondent":
        respondents = {rec.respondent_id for rec in survey}
        if respondent not in respondents:
            raise ConfigurationError(f"unknown respondent id {respondent!r}")
    keep: list[int] = []
    labels: list[int] = []
    for row, rid in enumerate(defendants.ids):
        per_resp = ratings.get(rid)
        if per_resp is None:
            continue
        if kind == "per_respondent":
            if respondent not in per_resp:
                raise IngestionError(
                    f"respondent {respondent!r} has no rating for defendant {rid!r}"
                )
            label = per_resp[respondent]
        elif kind == "pooled_median":
            label = _round_half_up(float(statistics.median(per_resp.values())))
        else:
            label = _round_half_up(statistics.mean(per_resp.values()))
        keep.append(row)
        labels.append(label)
    idx = np.asarray(keep, dtype=np.int64)
    return LabeledDataset(
        features=defendants.features[idx],
        labels=np.asarray(labels),
        scale=SURVEY_SCALE,
        feature_names=defendants.feature_names,
        source_tag=f"{defendants.source_tag}|labels:{mode}",
        ids=tuple(defendants.ids[i] for i in keep),
    )


@dataclass(frozen=True)
class StandardizeStats:
    mean: np.ndarray
    scale: np.ndarray


ZERO_VARIANCE_TOL = 1e-12


def standardize(
    dataset: LabeledDataset, stats: StandardizeStats | None = None
) -> tuple[LabeledDataset, StandardizeStats]:
    """Z-score each column; zero-variance columns are centered with scale 1.

    Pass the stats returned for a training fold to transform its test fold with
    the same parameters.
    """
    x = dataset.features
    if stats is None:
        mean = x.mean(axis=0)
        std = x.std(axis=0, ddof=1)
        scale = np.where(std <= ZERO_VARIANCE_TOL, 1.0, std)
        stats = StandardizeStats(mean=mean, scale=scale)
    elif stats.mean.shape[0] != dataset.d:
        raise ConfigurationError(
            f"standardization stats for d={stats.mean.shape[0]} applied to d={dataset.d}"
        )
    transformed = (x - stats.mean) / stats.scale
    out = LabeledDataset(
        features=transformed,
        labels=dataset.labels,
        scale=dataset.scale,
        feature_names=dataset.feature_names,
        source_tag=dataset.source_tag,
        ids=dataset.ids,
    )
    return out, stats
