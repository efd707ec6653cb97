import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from fairmetric.core import COMPAS_SCALE, SURVEY_SCALE, LabeledDataset, RatingScale
from fairmetric.errors import IngestionError
from fairmetric.ingest import SURVEY_COLUMNS, SurveyTable, _text_lines
from fairmetric.reference import cross_distances
from fairmetric.survey import (
    PREDICTION_LEVELS,
    PREDICTION_NAMES,
    BailRateTable,
    ConfidenceAccuracyTable,
    StratumRow,
)


def random_spd(rng, d, jitter=0.3):
    a = rng.normal(size=(d, d))
    return a @ a.T + jitter * np.eye(d)


def make_dataset(rng, n, d, scale=(1, 5), tag="test"):
    labels = rng.integers(scale[0], scale[1] + 1, size=n)
    return LabeledDataset(
        features=rng.normal(size=(n, d)),
        labels=labels,
        scale=RatingScale(*scale),
        feature_names=tuple(f"f{i}" for i in range(d)),
        source_tag=tag,
    )


def toy(features, labels, scale=(1, 10)):
    features = np.asarray(features, dtype=float)
    return LabeledDataset(
        features=features,
        labels=np.asarray(labels),
        scale=RatingScale(*scale),
        feature_names=tuple(f"f{i}" for i in range(features.shape[1])),
    )


# Plain oracles, one per quantity, that the tests hold the fast code to.


def pair_distance(metric, x, y) -> float:
    """d_M(x, y) for one pair, read from `reference.cross_distances`."""
    xa, ya = (np.asarray(v, dtype=float)[None, :] for v in (x, y))
    return float(cross_distances(metric, xa, ya)[0, 0])


def brute_pairs(labels):
    """(similar, dissimilar) sets of pairs i < j: equal vs unequal label."""
    similar, dissimilar = set(), set()
    n = len(labels)
    for i in range(n):
        for j in range(i + 1, n):
            (similar if labels[i] == labels[j] else dissimilar).add((i, j))
    return similar, dissimilar


def brute_triplets(labels, sigma, variant):
    """Every triplet (a, b, c) of distinct rows that the variant's sigma rule admits."""
    out = set()
    n = len(labels)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if len({a, b, c}) != 3:
                    continue
                if variant == "literal":
                    ok = labels[a] <= labels[b] + sigma and labels[b] + sigma < labels[c]
                else:
                    ok = abs(labels[a] - labels[b]) + sigma < abs(labels[a] - labels[c])
                if ok:
                    out.add((a, b, c))
    return out


def brute_triplet_loss(matrix, features, triplet_indices):
    """Share of triplets (a, b, c) with d(a, b) > d(a, c), recounted with plain Python loops."""
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


def loop_violation_count(distances, labels, sigma, variant):
    """Triplets of the sigma rule with d(a, b) > d(a, c), counted anchor by anchor over every (b, c).

    Each anchor's (b, c) mask is the rule for its label; the row b = a stays
    in it and counts nothing while d(a, a) = 0 lies below every distance.
    """
    s = np.asarray(labels, dtype=float)
    violations = 0
    for a, d in enumerate(np.asarray(distances)):
        if variant == "literal":
            valid = (s[a] <= s + sigma)[:, None] & (s[:, None] + sigma < s[None, :])
        else:
            valid = (np.abs(s - s[a]) + sigma)[:, None] < np.abs(s - s[a])[None, :]
        violations += int(np.count_nonzero(valid & (d[:, None] > d[None, :])))
    return violations


def row_by_row_knn(metric, train, queries, k):
    """kNN predictions from a full stable sort of `cross_distances`, weighted one row at a time.

    A row with a neighbor under 1e-12 takes its exact neighbors' mean; any
    other row takes `(inv / inv.sum()) @ labels`, the 1-D dot product.
    """
    dists = cross_distances(metric, np.asarray(queries, dtype=float), train.features)
    nearest = np.argsort(dists, axis=1, kind="stable")[:, :k]
    preds = []
    for labels, near_d in zip(train.labels[nearest].astype(float), np.take_along_axis(dists, nearest, axis=1)):
        exact = near_d < 1e-12
        if np.any(exact):
            preds.append(labels[exact].mean())
        else:
            inv = 1.0 / near_d
            preds.append((inv / inv.sum()) @ labels)
    return preds


def brute_knn(metric, train, x, k):
    """Distance-weighted kNN prediction of the rating at x, with plain Python loops."""
    m = metric.matrix
    dists = []
    for i in range(train.n):
        diff = train.features[i] - np.asarray(x, dtype=float)
        dists.append((math.sqrt(max(float(diff @ m @ diff), 0.0)), i))
    dists.sort()  # ties break on the lower index via the tuple
    chosen = dists[:k]
    zero = [(d, i) for d, i in chosen if d < 1e-12]
    if zero:
        return sum(train.labels[i] for _, i in zero) / len(zero)
    weights = [1.0 / d for d, _ in chosen]
    total = sum(weights)
    return sum(w / total * train.labels[i] for w, (_, i) in zip(weights, chosen))


# Survey rows one record at a time, and the loops that read them.


class SurveyRow(NamedTuple):
    """One respondent's three answers for one defendant, plus the ground truth."""

    respondent_id: str
    defendant_id: str
    recidivism_prediction: int  # Q1, 1-5
    bail_granted: bool  # Q2
    confidence: int  # Q3, 1-5
    ground_truth_recidivated: bool


def survey_table(rows) -> SurveyTable:
    """The `SurveyTable` holding `rows` (SurveyRow fields, in order), one table row each."""
    rows = list(rows)
    return SurveyTable(*(list(column) for column in zip(*rows))) if rows else SurveyTable((), (), [], [], [], [])


def survey_rows(table: SurveyTable) -> list[SurveyRow]:
    columns = (table.predictions, table.bail_granted, table.confidence, table.recidivated)
    return [SurveyRow(*row) for row in zip(table.respondent_ids, table.defendant_ids, *(c.tolist() for c in columns))]


def _record_order(rows):
    """Each respondent's rows, in row order; respondents in numeric-then-text id order."""
    ids = {r.respondent_id for r in rows}
    order = sorted(ids, key=lambda s: (0, int(s), s) if s.isdecimal() else (1, 0, s))
    by_resp = {rid: [] for rid in order}
    for row in rows:
        by_resp[row.respondent_id].append(row)
    return by_resp


def _record_shares(by_resp, keep, hit):
    shares = []
    for rows in by_resp.values():
        hits = [hit(r) for r in rows if keep(r)]
        shares.append(sum(hits) / len(hits) if hits else None)
    return shares


def record_bail_rate_table(rows) -> BailRateTable:
    """`survey.bail_rate_table`, one record at a time."""
    by_resp = _record_order(rows)
    rates = []
    for level in PREDICTION_LEVELS:
        at_level = _record_shares(by_resp, lambda r: r.recidivism_prediction == level, lambda r: r.bail_granted)
        rates.append([rate for rate in at_level if rate is not None])
    return BailRateTable(
        levels=PREDICTION_LEVELS,
        level_names=PREDICTION_NAMES,
        mean=tuple(float(np.mean(r)) if r else None for r in rates),
        max=tuple(float(np.max(r)) if r else None for r in rates),
        min=tuple(float(np.min(r)) if r else None for r in rates),
        n_respondents=tuple(len(r) for r in rates),
    )


def record_confidence_accuracy_table(rows, threshold) -> ConfidenceAccuracyTable:
    """`survey.confidence_accuracy_table`, one record at a time."""
    by_resp = _record_order(rows)

    def stratum(keep):
        per = _record_shares(by_resp, keep, lambda r: r.bail_granted != r.ground_truth_recidivated)
        present = [v for v in per if v is not None]
        mean = float(np.mean(present)) if present else None
        std = (float(np.std(present, ddof=1)) if len(present) > 1 else 0.0) if present else None
        return StratumRow(mean=mean, std=std, n_respondents=len(present), per_respondent=tuple(per))

    return ConfidenceAccuracyTable(
        threshold=threshold,
        respondent_ids=tuple(by_resp),
        overall=stratum(lambda r: True),
        high_confidence=stratum(lambda r: r.confidence >= threshold),
        low_confidence=stratum(lambda r: r.confidence < threshold),
    )


# The row-by-row CSV reader: each row's cells parsed in check order, the first
# fault raised as it is met. The columnar reader must load what it loads and
# raise what it raises.


@dataclass
class CsvRow:
    """One data row; each parser names the file, the 1-based row and the column on error."""

    path: Path
    columns: dict  # header name -> cell position
    line: int
    cells: list

    def error(self, message, column=None):
        where = f"row {self.line}" if column is None else f"row {self.line}, column {column!r}"
        return IngestionError(f"{self.path}: {where}: {message}")

    def text(self, column):
        value = self.cells[self.columns[column]]
        if not value:
            raise self.error("empty cell", column)
        return value

    def number(self, column):
        raw = self.text(column)
        try:
            value = float(raw)
        except ValueError:
            raise self.error(f"cannot parse {raw!r} as number", column) from None
        if not math.isfinite(value):
            raise self.error(f"{raw!r} is not a finite number", column)
        return value

    def integer(self, column, what, scale):
        raw = self.text(column)
        try:
            value = int(raw)
        except ValueError:
            raise self.error(f"cannot parse {raw!r} as integer", column) from None
        if not scale.contains(value):
            raise self.error(f"{what} {value} outside {scale.min}-{scale.max}", column)
        return value

    def choice(self, column, choices, fold_case=False):
        raw = self.text(column)
        try:
            return choices.index(raw.lower() if fold_case else raw)
        except ValueError:
            raise self.error(f"unseen category {raw!r}; expected {'/'.join(choices)}", column) from None


@contextmanager
def row_wise_csv(path, what):
    """Yield (path, header columns, iterator of CsvRow), each row read as it is asked for."""
    with _text_lines(path, what) as (path, text):
        reader = csv.reader(text)
        lines = ([cell.strip() for cell in cells] for cells in reader if cells)
        header = next(lines, None)
        if header is None:
            raise IngestionError(f"{path}: empty file (no header)")
        columns = {name: at for at, name in enumerate(header)}
        if len(columns) != len(header):
            raise IngestionError(f"{path}: row {reader.line_num}: repeated column name in header")

        def rows():
            row = None
            for cells in lines:
                if len(cells) != len(header):
                    raise IngestionError(
                        f"{path}: row {reader.line_num}: {len(cells)} cells, the header has {len(header)}"
                    )
                row = CsvRow(path, columns, reader.line_num, cells)
                yield row
            if row is None:
                raise IngestionError(f"{path}: no data rows")

        yield path, columns, rows()


def _require(path, columns, names):
    missing = [name for name in names if name not in columns]
    if missing:
        raise IngestionError(f"{path}: missing column(s) {', '.join(missing)}")


def row_wise_defendants(path, schema, kind="defendants"):
    """The defendant table under `schema`, row by row; `kind` is "defendants" or "encoded"."""
    with row_wise_csv(path, "defendants" if kind == "defendants" else "encoded defendants") as (
        path, columns, rows
    ):
        _require(path, columns, [schema.id_column] + [c.name for c in schema.columns] + [schema.label_column])
        ids, features, labels = {}, [], []
        for row in rows:
            rid = row.text(schema.id_column)
            if rid in ids:
                raise row.error(f"duplicate id {rid!r}", schema.id_column)
            ids[rid] = None
            encoded = []
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
        raise IngestionError(f"{path}: need at least 2 rows, got {len(labels)}")
    return LabeledDataset(
        np.asarray(features),
        np.asarray(labels),
        COMPAS_SCALE,
        schema.encoded_names,
        source_tag=f"{kind}:{path.name}",
        ids=tuple(ids),
    )


def row_wise_survey(path):
    """The survey's rows as SurveyRow records, row by row."""
    outcome = RatingScale(0, 1)
    records, seen = [], set()
    with row_wise_csv(path, "survey") as (path, columns, rows):
        _require(path, columns, SURVEY_COLUMNS)
        for row in rows:
            pair = (row.text("respondent_id"), row.text("defendant_id"))
            if pair in seen:
                raise row.error(f"duplicate (respondent, defendant) pair {pair!r}")
            seen.add(pair)
            records.append(
                SurveyRow(
                    *pair,
                    row.integer("q1_recidivism", "recidivism prediction", SURVEY_SCALE),
                    row.choice("q2_bail", ("yes", "no"), fold_case=True) == 0,
                    row.integer("q3_confidence", "confidence", SURVEY_SCALE),
                    row.integer("two_year_recid", "outcome", outcome) == 1,
                )
            )
    return records


def sym_dirs(d):
    """Orthonormal-ish basis of symmetric directions for finite differencing."""
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


def max_grad_error(fun, grad_fun, m, h=1e-6):
    """Largest relative gap between `grad_fun` and central differences of `fun` at m."""
    g = grad_fun(m)
    worst = 0.0
    for e in sym_dirs(m.shape[0]):
        num = (fun(m + h * e) - fun(m - h * e)) / (2 * h)
        ana = float((g * e).sum())
        worst = max(worst, abs(num - ana) / max(abs(num), abs(ana), 1e-8))
    return worst


def _data_dir() -> Path | None:
    env = os.environ.get("FAIRMETRIC_DATA")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for cand in candidates:
        if cand.is_dir():
            return cand
    return None


@pytest.fixture(scope="session")
def published_survey():
    root = _data_dir()
    if root is None or not (root / "survey.csv").exists():
        pytest.skip("published survey data not supplied (set FAIRMETRIC_DATA or ./data)")
    return root / "survey.csv"


@pytest.fixture(scope="session")
def published_defendants():
    root = _data_dir()
    if root is None or not (root / "defendants.csv").exists():
        pytest.skip("published defendant data not supplied (set FAIRMETRIC_DATA or ./data)")
    return root / "defendants.csv", (root / "schema.txt" if (root / "schema.txt").exists() else None)
