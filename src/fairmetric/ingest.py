"""CSV ingestion: defendant feature tables, survey judgment files, label attachment.

File contracts (UTF-8, comma-delimited, first row is the header). `read_csv`
reads every table under one set of row rules (see its docstring), and the
`CsvRow` parsers name the file, the row and the column of a faulty cell.

  defendants CSV   id column + one column per schema entry + the COMPAS decile
                   label column.
  encoded CSV      what `ingest` writes: id, compas_decile, then every encoded
                   feature as a numeric column.
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
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import COMPAS_SCALE, SURVEY_SCALE, LabeledDataset, RatingScale
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


# Best-effort reconstruction of the seven demographic / criminal-history
# attributes shown to respondents. Race is excluded; for an ablation, a schema
# manifest can add it as a categorical column.
def default_schema() -> FeatureSchema:
    columns = [
        ColumnSpec("age", "numeric"),
        ColumnSpec("sex", "binary", ("Male", "Female")),
        ColumnSpec("juv_fel_count", "numeric"),
        ColumnSpec("juv_misd_count", "numeric"),
        ColumnSpec("priors_count", "numeric"),
        ColumnSpec("charge_degree", "binary", ("F", "M")),
        ColumnSpec("charge_category", "categorical", ("violent", "property", "drug", "other")),
    ]
    return FeatureSchema(columns=tuple(columns))


def parse_schema_manifest(path) -> FeatureSchema:
    columns: list[ColumnSpec] = []
    id_column = "id"
    label_column = "compas_decile"
    with _text_lines(path, "schema manifest") as (path, lines):
        lines = list(lines)
    for lineno, raw in enumerate(lines, start=1):
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
            raise IngestionError(f"{path}:{lineno}: cannot parse manifest line {raw.rstrip()!r}")
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


# ---------------------------------------------------------------------------
# Reading: one CSV reader and one set of cell parsers for every input table


@dataclass(slots=True)
class CsvRow:
    """One data row; each parser names the file, the 1-based row and the column on error."""

    path: Path
    columns: dict[str, int]  # header name -> cell position
    line: int
    cells: list[str]

    def error(self, message: str, column: str | None = None) -> IngestionError:
        where = f"row {self.line}" if column is None else f"row {self.line}, column {column!r}"
        return IngestionError(f"{self.path}: {where}: {message}")

    def text(self, column: str) -> str:
        value = self.cells[self.columns[column]]
        if not value:
            raise self.error("empty cell", column)
        return value

    def number(self, column: str) -> float:
        raw = self.text(column)
        try:
            value = float(raw)
        except ValueError:
            raise self.error(f"cannot parse {raw!r} as number", column) from None
        if not math.isfinite(value):
            raise self.error(f"{raw!r} is not a finite number", column)
        return value

    def integer(self, column: str, what: str, scale: RatingScale) -> int:
        raw = self.text(column)
        try:
            value = int(raw)
        except ValueError:
            raise self.error(f"cannot parse {raw!r} as integer", column) from None
        if not scale.contains(value):
            raise self.error(f"{what} {value} outside {scale.min}-{scale.max}", column)
        return value

    def choice(self, column: str, choices: tuple[str, ...], fold_case: bool = False) -> int:
        """The cell's position in `choices`, matched in lower case when `fold_case` is set."""
        raw = self.text(column)
        try:
            return choices.index(raw.lower() if fold_case else raw)
        except ValueError:
            raise self.error(
                f"unseen category {raw!r}; expected {'/'.join(choices)}", column
            ) from None


@dataclass(frozen=True)
class CsvTable:
    path: Path
    columns: dict[str, int]
    rows: Iterator[CsvRow]

    def require(self, names) -> None:
        missing = [name for name in names if name not in self.columns]
        if missing:
            raise IngestionError(f"{self.path}: missing column(s) {', '.join(missing)}")


@contextmanager
def _text_lines(path, what: str) -> Iterator[tuple[Path, Iterator[str]]]:
    """Open an input file as UTF-8 text; yield its path and its lines, endings kept.

    A missing file, one that cannot be opened (a directory, say) or text that
    is not UTF-8, met while the caller reads the lines, is an IngestionError
    naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"{what} file not found: {path}")
    try:
        fh = path.open(newline="", encoding="utf-8")
    except OSError as exc:  # a directory, say
        raise IngestionError(f"{what} file {path}: cannot open: {exc.strerror}") from None
    with fh:
        try:
            yield path, fh
        except UnicodeDecodeError:
            raise IngestionError(f"{path}: not UTF-8 text") from None


@contextmanager
def read_csv(path, what: str) -> Iterator[CsvTable]:
    """Open a CSV file under the row rules every input table shares.

    Blank lines are skipped and every cell is stripped. The first row is the
    header; its names must be distinct. `rows` yields each data row as it is
    read (holding the whole table would only feed the garbage collector); each
    must have the header's cell count, and there must be one.
    """
    with _text_lines(path, what) as (path, text):
        reader = csv.reader(text)
        lines = ([cell.strip() for cell in cells] for cells in reader if cells)
        header = next(lines, None)
        if header is None:
            raise IngestionError(f"{path}: empty file (no header)")
        columns = {name: at for at, name in enumerate(header)}
        if len(columns) != len(header):
            raise IngestionError(f"{path}: row {reader.line_num}: repeated column name in header")

        def rows() -> Iterator[CsvRow]:
            row = None
            for cells in lines:
                if len(cells) != len(header):
                    raise IngestionError(
                        f"{path}: row {reader.line_num}: {len(cells)} cells, "
                        f"the header has {len(header)}"
                    )
                row = CsvRow(path, columns, reader.line_num, cells)
                yield row
            if row is None:
                raise IngestionError(f"{path}: no data rows")

        yield CsvTable(path, columns, rows())


def write_csv(path, rows) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def defendants_from_table(table: CsvTable, schema: FeatureSchema, kind: str) -> LabeledDataset:
    """Encode a defendant table under `schema`; labels are COMPAS decile scores.

    `kind` names the format in the dataset's source tag: `<kind>:<file name>`.
    """
    table.require([schema.id_column] + [c.name for c in schema.columns] + [schema.label_column])
    ids: dict[str, None] = {}  # insertion-ordered, with O(1) membership
    features: list[list[float]] = []
    labels: list[int] = []
    for row in table.rows:
        rid = row.text(schema.id_column)
        if rid in ids:
            raise row.error(f"duplicate id {rid!r}", schema.id_column)
        ids[rid] = None
        encoded: list[float] = []
        for col in schema.columns:
            if col.kind == "numeric":
                encoded.append(row.number(col.name))
            elif col.kind == "binary":
                encoded.append(float(row.choice(col.name, col.categories)))
            else:
                at = row.choice(col.name, col.categories)
                encoded.extend(float(i == at) for i in range(len(col.categories)))
        features.append(encoded)
        labels.append(row.integer(schema.label_column, "label", COMPAS_SCALE))
    if len(labels) < 2:
        raise IngestionError(f"{table.path}: need at least 2 rows, got {len(labels)}")
    return LabeledDataset(
        features=np.asarray(features),
        labels=np.asarray(labels),
        scale=COMPAS_SCALE,
        feature_names=schema.encoded_names,
        source_tag=f"{kind}:{table.path.name}",
        ids=tuple(ids),
    )


def load_defendants(path, schema: FeatureSchema) -> LabeledDataset:
    """Load and encode the raw defendant table; labels are COMPAS decile scores."""
    with read_csv(path, "defendants") as table:
        return defendants_from_table(table, schema, "defendants")


ENCODED_ID = "id"
ENCODED_LABEL = "compas_decile"


def encoded_schema(table: CsvTable) -> FeatureSchema:
    """The schema of the encoded file `ingest` writes: id, compas_decile, then every other
    header column as numeric."""
    names = list(table.columns)
    if names[:2] != [ENCODED_ID, ENCODED_LABEL] or len(names) < 3:
        raise IngestionError(
            f"{table.path}: not a canonical encoded file (expected columns {ENCODED_ID!r}, "
            f"{ENCODED_LABEL!r}, then the features; run the ingest command first)"
        )
    columns = tuple(ColumnSpec(name, "numeric") for name in names[2:])
    return FeatureSchema(columns, id_column=ENCODED_ID, label_column=ENCODED_LABEL)


def write_encoded_defendants(dataset: LabeledDataset, path) -> None:
    rows = [[ENCODED_ID, ENCODED_LABEL, *dataset.feature_names]]
    ids = dataset.ids or tuple(str(i) for i in range(dataset.n))
    for i in range(dataset.n):
        rows.append(
            [ids[i], str(int(dataset.labels[i]))] + [repr(float(v)) for v in dataset.features[i]]
        )
    write_csv(path, rows)


SURVEY_COLUMNS = (
    "respondent_id", "defendant_id", "q1_recidivism", "q2_bail", "q3_confidence", "two_year_recid"
)
_BAIL_WORDS = ("yes", "no")  # q2_bail: bail granted, bail refused
_OUTCOME = RatingScale(0, 1)  # two_year_recid


def load_survey(path) -> list[SurveyRecord]:
    """Load survey judgments; exactly one record per (respondent, defendant) pair."""
    records: list[SurveyRecord] = []
    seen: set[tuple[str, str]] = set()
    with read_csv(path, "survey") as table:
        table.require(SURVEY_COLUMNS)
        for row in table.rows:
            pair = (row.text("respondent_id"), row.text("defendant_id"))
            if pair in seen:
                raise row.error(f"duplicate (respondent, defendant) pair {pair!r}")
            seen.add(pair)
            records.append(
                SurveyRecord(
                    *pair,
                    row.integer("q1_recidivism", "recidivism prediction", SURVEY_SCALE),
                    row.choice("q2_bail", _BAIL_WORDS, fold_case=True) == 0,
                    row.integer("q3_confidence", "confidence", SURVEY_SCALE),
                    row.integer("two_year_recid", "outcome", _OUTCOME) == 1,
                )
            )
    return records


def write_survey(records: list[SurveyRecord], path) -> None:
    rows: list = [SURVEY_COLUMNS]
    for rec in records:
        rows.append(
            [
                rec.respondent_id,
                rec.defendant_id,
                str(rec.recidivism_prediction),
                _BAIL_WORDS[0 if rec.bail_granted else 1],
                str(rec.confidence),
                str(int(rec.ground_truth_recidivated)),
            ]
        )
    write_csv(path, rows)


def require_known_defendants(surveyed, ids) -> None:
    """Raise unless every surveyed defendant id is one of the defendant table's `ids`."""
    missing = sorted(set(surveyed).difference(ids))
    if missing:
        raise IngestionError(
            f"surveyed defendant(s) not in defendant table: {', '.join(missing[:5])}"
            + (" ..." if len(missing) > 5 else "")
        )


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
    require_known_defendants(ratings, defendants.ids)
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
    return replace(
        defendants.subset(keep),
        labels=np.asarray(labels),
        scale=SURVEY_SCALE,
        source_tag=f"{defendants.source_tag}|labels:{mode}",
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
    return replace(dataset, features=(x - stats.mean) / stats.scale), stats
