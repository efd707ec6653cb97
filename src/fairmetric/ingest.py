"""CSV ingestion: defendant feature tables, survey judgment files, label attachment.

File contracts (UTF-8, a leading byte-order mark allowed; comma-delimited; first
row is the header). `read_csv` reads every table by column under one set of row
rules (see its docstring). Numeric columns are parsed as they are read, and the
other `CsvTable` parsers parse each distinct cell of a column once. A faulty file
gets the error a row-by-row read would give: the earliest faulty row's, naming
the file, the row and the column.

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
import itertools
import math
import statistics
from collections import defaultdict
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import COMPAS_SCALE, SURVEY_SCALE, LabeledDataset, RatingScale, _readonly
from .errors import ConfigurationError, IngestionError

COLUMN_KINDS = ("numeric", "categorical", "binary")
ENCODED_ID = "id"
ENCODED_LABEL = "compas_decile"


@dataclass(frozen=True)
class ColumnSpec:
    """One raw column: numeric passes through, binary maps to {0,1}, categorical one-hots."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise ConfigurationError(f"unknown column kind {self.kind!r} for {self.name!r}")
        if self.kind == "numeric" and self.categories:
            raise ConfigurationError(f"numeric column {self.name!r} takes no values")
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
    id_column: str = ENCODED_ID
    label_column: str = ENCODED_LABEL

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate column names in schema")
        if not names:
            raise ConfigurationError("schema declares no feature columns")
        if self.id_column == self.label_column:
            raise ConfigurationError(f"column {self.id_column!r} is both the id and the label column")
        for role, name in (("id", self.id_column), ("label", self.label_column)):
            if name in names:
                raise ConfigurationError(f"column {name!r} is both a feature and the {role} column")

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
    names: dict[str, str] = {}  # id_column / label_column, where the manifest sets them
    with _text_lines(path, "schema manifest") as (path, lines):
        lines = list(lines)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 3)
        key = parts[0]
        if key in ("id_column", "label_column") and len(parts) == 2:
            names[key] = parts[1]
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
    try:
        return FeatureSchema(columns=tuple(columns), **names)
    except ConfigurationError as exc:
        raise IngestionError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class SurveyTable:
    """Survey judgments by column: row i is one respondent's three answers for one
    defendant, plus that defendant's two-year outcome."""

    respondent_ids: tuple[str, ...]
    defendant_ids: tuple[str, ...]
    predictions: np.ndarray  # Q1, int, 1-5
    bail_granted: np.ndarray  # Q2, bool
    confidence: np.ndarray  # Q3, int, 1-5
    recidivated: np.ndarray  # two-year outcome, bool

    def __post_init__(self):
        columns = {
            "respondent_ids": tuple(self.respondent_ids),
            "defendant_ids": tuple(self.defendant_ids),
            "predictions": _readonly(np.asarray(self.predictions, dtype=np.int64)),
            "bail_granted": _readonly(np.asarray(self.bail_granted, dtype=bool)),
            "confidence": _readonly(np.asarray(self.confidence, dtype=np.int64)),
            "recidivated": _readonly(np.asarray(self.recidivated, dtype=bool)),
        }
        lengths = {name: len(values) for name, values in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ConfigurationError(f"survey columns differ in length: {lengths}")
        for what, values in (("recidivism prediction", columns["predictions"]),
                             ("confidence", columns["confidence"])):
            outside = (values < SURVEY_SCALE.min) | (values > SURVEY_SCALE.max)
            if outside.any():
                raise ConfigurationError(
                    f"{what} {values[np.argmax(outside)]} outside {SURVEY_SCALE.min}-{SURVEY_SCALE.max}"
                )
        for name, values in columns.items():
            object.__setattr__(self, name, values)

    def __len__(self) -> int:
        return len(self.respondent_ids)


# ---------------------------------------------------------------------------
# Reading: one CSV reader and one set of column parsers for every input table

_CHUNK_CELLS = 512  # cells read before each transpose onto the columns: a chunk's text is small


class _BadCell(Exception):
    """A cell's fault; its text is the message that names it."""


def _present(raw: str) -> str:
    if not raw:
        raise _BadCell("empty cell")
    return raw


def _number(raw: str) -> float:
    try:
        value = float(_present(raw))
    except ValueError:
        raise _BadCell(f"cannot parse {raw!r} as number") from None
    if not math.isfinite(value):
        raise _BadCell(f"{raw!r} is not a finite number")
    return value


def _integer(raw: str, what: str, scale: RatingScale) -> int:
    try:
        value = int(_present(raw))
    except ValueError:
        raise _BadCell(f"cannot parse {raw!r} as integer") from None
    if not scale.contains(value):
        raise _BadCell(f"{what} {value} outside {scale.min}-{scale.max}")
    return value


def _choice(raw: str, choices: tuple[str, ...], fold_case: bool) -> int:
    _present(raw)
    try:
        return choices.index(raw.lower() if fold_case else raw)
    except ValueError:
        raise _BadCell(f"unseen category {raw!r}; expected {'/'.join(choices)}") from None


class _Floats:
    """A numeric column, parsed a chunk at a time as it is read: its values and its
    first faulty cell, (row, message), if any. Its cells are mostly distinct, so its
    text would cost the most memory of any column; it is never held whole."""

    def __init__(self):
        self.chunks: list[np.ndarray] = []
        self.fault: tuple[int, str] | None = None

    def extend(self, cells, first_row: int) -> None:
        """Append one chunk's cells, the first of them data row `first_row`."""
        cells = list(map(str.strip, cells))
        try:
            values = np.fromiter(map(float, cells), float, len(cells))
            clean = bool(np.isfinite(values).all())
        except ValueError:  # an empty or unparsable cell
            values, clean = np.zeros(len(cells)), False
        if not clean and self.fault is None:
            for row, raw in enumerate(cells):
                try:
                    _number(raw)
                except _BadCell as exc:
                    self.fault = (first_row + row, str(exc))
                    break
        self.chunks.append(values)


class CsvTable:
    """A CSV file read by column, and the fault a row-by-row read of it would report.

    Numeric columns were parsed as they were read; every other parser takes a
    whole column of text and parses each distinct cell once. A faulty cell does
    not raise there: the parser notes the column's first one and reads it as 0.
    `raise_first_fault`
    then raises the fault of the earliest faulty row, and within that row the
    one noted first, so callers call the parsers in the order a row's cells are
    checked. The fault that ended the read early, if any (`stop`), comes after
    every cell fault in the rows read before it. Each fault names the file, the
    row (its 1-based line) and the column.
    """

    def __init__(self, path: Path, columns: dict[str, list[str] | _Floats], lines: list[int], stop):
        self.path = path
        self.columns = columns  # header name -> its stripped cells, or its _Floats if numeric
        self.lines = lines  # each data row's line in the file
        self.stop: IngestionError | None = stop
        self._faults: list[tuple[int, str | None, str]] = []  # (row, column, message)

    def require(self, names) -> None:
        missing = [name for name in names if name not in self.columns]
        if missing:
            raise IngestionError(f"{self.path}: missing column(s) {', '.join(missing)}")

    def raise_first_fault(self) -> None:
        if self._faults:
            row, column, message = min(self._faults, key=lambda fault: fault[0])
            where = f"row {self.lines[row]}" + ("" if column is None else f", column {column!r}")
            raise IngestionError(f"{self.path}: {where}: {message}")
        if self.stop is not None:
            raise self.stop
        if not self.lines:
            raise IngestionError(f"{self.path}: no data rows")

    def _parsed(self, column: str, parse) -> list:
        """`parse` of each cell, run once per distinct cell."""
        cells = self.columns[column]
        values, faults = {}, {}
        for raw in set(cells):
            try:
                values[raw] = parse(raw)
            except _BadCell as exc:
                values[raw], faults[raw] = 0, str(exc)
        if faults:
            row = next(row for row, raw in enumerate(cells) if raw in faults)
            self._faults.append((row, column, faults[cells[row]]))
        return list(map(values.__getitem__, cells))

    def text(self, column: str) -> list[str]:
        cells = self.columns[column]
        if not all(cells):
            self._faults.append((cells.index(""), column, "empty cell"))
        return cells

    def unique(self, keys: list, column: str | None, describe) -> None:
        """Note the first key that repeats an earlier one, as `describe(key)`."""
        if len(set(keys)) == len(keys):
            return
        seen = set()
        for row, key in enumerate(keys):
            if key in seen:
                self._faults.append((row, column, describe(key)))
                return
            seen.add(key)

    def numbers(self, column: str) -> np.ndarray:
        """A column read as numeric, as finite floats; `float` parsed each cell."""
        floats = self.columns[column]
        if floats.fault is not None:
            row, message = floats.fault
            self._faults.append((row, column, message))
        return np.concatenate(floats.chunks) if floats.chunks else np.zeros(0)

    def integers(self, column: str, what: str, scale: RatingScale) -> np.ndarray:
        parsed = self._parsed(column, lambda raw: _integer(raw, what, scale))
        return np.asarray(parsed, dtype=np.int64)

    def choices(self, column: str, choices: tuple[str, ...], fold_case: bool = False) -> np.ndarray:
        """Each cell's position in `choices`, matched in lower case when `fold_case` is set."""
        parsed = self._parsed(column, lambda raw: _choice(raw, choices, fold_case))
        return np.asarray(parsed, dtype=np.int64)


@contextmanager
def _text_lines(path, what: str) -> Iterator[tuple[Path, Iterator[str]]]:
    """Open an input file as UTF-8 text; yield its path and its lines, endings kept.

    A leading byte-order mark, which spreadsheets write, is dropped. A missing
    file, one that cannot be opened (a directory, say) or text that is not
    UTF-8, met while the caller reads the lines, is an IngestionError naming
    the file.
    """
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"{what} file not found: {path}")
    try:
        fh = path.open(newline="", encoding="utf-8-sig")
    except OSError as exc:  # a directory, say
        raise IngestionError(f"{what} file {path}: cannot open: {exc.strerror}") from None
    with fh:
        try:
            yield path, fh
        except UnicodeDecodeError:
            raise IngestionError(f"{path}: not UTF-8 text") from None


def read_csv(path, what: str, numeric=lambda name: False) -> CsvTable:
    """Read a CSV file by column, under the row rules every input table shares.

    Blank lines are skipped and every cell is stripped. The first row is the
    header; its names must be distinct. Each data row must have the header's
    cell count, and there must be one. Rows are read a chunk at a time and each
    chunk is transposed onto the columns, so no row outlives its chunk. The
    columns whose names `numeric` accepts are parsed as floats chunk by chunk,
    so a wide numeric table is never held as text. A row with another cell
    count, or text that is not UTF-8, ends the read; the table keeps the rows
    before it and reports that fault after theirs.
    """
    with _text_lines(path, what) as (path, text):
        reader = csv.reader(text)
        header = next((cells for cells in reader if cells), None)
        if header is None:
            raise IngestionError(f"{path}: empty file (no header)")
        header = [name.strip() for name in header]
        if len(set(header)) != len(header):
            raise IngestionError(f"{path}: row {reader.line_num}: repeated column name in header")
        columns = [_Floats() if numeric(name) else [] for name in header]
        lines: list[int] = []
        stop = None

        def data_rows() -> Iterator[list[str]]:
            nonlocal stop
            try:
                for cells in reader:
                    if not cells:
                        continue
                    if len(cells) != len(header):
                        stop = IngestionError(
                            f"{path}: row {reader.line_num}: {len(cells)} cells, "
                            f"the header has {len(header)}"
                        )
                        return
                    lines.append(reader.line_num)
                    yield cells
            except UnicodeDecodeError:
                stop = IngestionError(f"{path}: not UTF-8 text")

        rows = data_rows()
        while chunk := list(itertools.islice(rows, max(1, _CHUNK_CELLS // len(header)))):
            for column, cells in zip(columns, zip(*chunk)):
                if isinstance(column, _Floats):
                    column.extend(cells, len(lines) - len(chunk))
                else:
                    column.extend(map(str.strip, cells))
    return CsvTable(path, dict(zip(header, columns)), lines, stop)


def write_csv(path, rows) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def defendants_from_table(table: CsvTable, schema: FeatureSchema, kind: str) -> LabeledDataset:
    """Encode a defendant table under `schema`; labels are COMPAS decile scores.

    `kind` names the format in the dataset's source tag: `<kind>:<file name>`.
    """
    table.require([schema.id_column] + [c.name for c in schema.columns] + [schema.label_column])
    ids = table.text(schema.id_column)
    table.unique(ids, schema.id_column, lambda rid: f"duplicate id {rid!r}")
    encoded: list[np.ndarray] = []  # each schema column's (n, width) block
    for col in schema.columns:
        if col.kind == "numeric":
            encoded.append(table.numbers(col.name)[:, None])
        elif col.kind == "binary":
            encoded.append(table.choices(col.name, col.categories)[:, None].astype(float))
        else:
            at = table.choices(col.name, col.categories)[:, None]
            encoded.append((at == np.arange(len(col.categories))).astype(float))
    labels = table.integers(schema.label_column, "label", COMPAS_SCALE)
    table.raise_first_fault()
    if len(labels) < 2:
        raise IngestionError(f"{table.path}: need at least 2 rows, got {len(labels)}")
    return LabeledDataset(
        features=np.hstack(encoded),
        labels=labels,
        scale=COMPAS_SCALE,
        feature_names=schema.encoded_names,
        source_tag=f"{kind}:{table.path.name}",
        ids=tuple(ids),
    )


def load_defendants(path, schema: FeatureSchema) -> LabeledDataset:
    """Load and encode the raw defendant table; labels are COMPAS decile scores."""
    numeric = {col.name for col in schema.columns if col.kind == "numeric"}
    return defendants_from_table(read_csv(path, "defendants", numeric.__contains__), schema, "defendants")


def encoded_feature(name: str) -> bool:
    """Whether a column of the encoded file is a feature: all but the id and the label are."""
    return name not in (ENCODED_ID, ENCODED_LABEL)


def encoded_schema(table: CsvTable) -> FeatureSchema:
    """The schema of the encoded file `ingest` writes: id, compas_decile, then every other
    header column as numeric."""
    names = list(table.columns)
    if names[:2] != [ENCODED_ID, ENCODED_LABEL] or len(names) < 3:
        raise IngestionError(
            f"{table.path}: not a canonical encoded file (expected columns {ENCODED_ID!r}, "
            f"{ENCODED_LABEL!r}, then the features; run the ingest command first)"
        )
    columns = tuple(ColumnSpec(name, "numeric") for name in names if encoded_feature(name))
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


def load_survey(path) -> SurveyTable:
    """Load survey judgments; exactly one row per (respondent, defendant) pair."""
    table = read_csv(path, "survey")
    table.require(SURVEY_COLUMNS)
    respondents = table.text("respondent_id")
    defendants = table.text("defendant_id")
    table.unique(
        list(zip(respondents, defendants)),
        None,
        lambda pair: f"duplicate (respondent, defendant) pair {pair!r}",
    )
    predictions = table.integers("q1_recidivism", "recidivism prediction", SURVEY_SCALE)
    bail_granted = table.choices("q2_bail", _BAIL_WORDS, fold_case=True) == 0
    confidence = table.integers("q3_confidence", "confidence", SURVEY_SCALE)
    recidivated = table.integers("two_year_recid", "outcome", _OUTCOME) == 1
    table.raise_first_fault()
    return SurveyTable(respondents, defendants, predictions, bail_granted, confidence, recidivated)


def write_survey(survey: SurveyTable, path) -> None:
    columns = (
        survey.respondent_ids,
        survey.defendant_ids,
        map(str, survey.predictions.tolist()),
        [_BAIL_WORDS[0 if granted else 1] for granted in survey.bail_granted.tolist()],
        map(str, survey.confidence.tolist()),
        map(str, survey.recidivated.astype(int).tolist()),
    )
    write_csv(path, [SURVEY_COLUMNS, *zip(*columns)])


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


def attach_labels(defendants: LabeledDataset, survey: SurveyTable, mode: str) -> LabeledDataset:
    """Restrict the defendant table to surveyed defendants and relabel with Q1 ratings.

    mode is 'per_respondent:<id>', 'pooled_median', or 'pooled_rounded_mean'.
    Pooled medians over an even respondent count can be half-integral; these
    round half-up, like the pooled mean.
    """
    kind, respondent = parse_label_mode(mode)
    if defendants.ids is None:
        raise ConfigurationError("defendant dataset has no row ids; cannot join survey records")
    ratings: dict[str, dict[str, int]] = defaultdict(dict)  # defendant -> respondent -> Q1
    for did, rid, rating in zip(survey.defendant_ids, survey.respondent_ids, survey.predictions.tolist()):
        ratings[did][rid] = rating
    require_known_defendants(ratings, defendants.ids)
    if kind == "per_respondent":
        if respondent not in set(survey.respondent_ids):
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
