import numpy as np
import pytest

from fairmetric.cli import load_encoded_defendants
from fairmetric.core import LabeledDataset, RatingScale
from fairmetric.errors import ConfigurationError, IngestionError
from fairmetric.ingest import (
    ColumnSpec,
    FeatureSchema,
    SurveyRecord,
    attach_labels,
    default_schema,
    load_defendants,
    load_survey,
    parse_label_mode,
    parse_schema_manifest,
    standardize,
)

SMALL_SCHEMA = FeatureSchema(
    columns=(
        ColumnSpec("color", "categorical", ("red", "green", "blue")),
        ColumnSpec("age", "numeric"),
        ColumnSpec("weight", "numeric"),
    ),
    id_column="id",
    label_column="compas_decile",
)


def write_defendants(path, rows, header="id,color,age,weight,compas_decile"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def test_load_defendants_one_hot_dimensions(tmp_path):
    p = write_defendants(
        tmp_path / "d.csv",
        ["a,red,20,60,1", "b,green,30,70,5", "c,blue,40,80,10"],
    )
    ds = load_defendants(p, SMALL_SCHEMA)
    # 3 categories one-hot + 2 numerics = 5 encoded columns
    assert ds.d == 5
    assert ds.n == 3
    assert ds.feature_names == ("color=red", "color=green", "color=blue", "age", "weight")
    assert ds.features[0].tolist() == [1.0, 0.0, 0.0, 20.0, 60.0]
    assert ds.labels.tolist() == [1, 5, 10]
    assert ds.ids == ("a", "b", "c")


def test_one_hot_rows_sum_to_one(tmp_path):
    p = write_defendants(
        tmp_path / "d.csv",
        [f"r{i},{c},1,2,4" for i, c in enumerate(["red", "blue", "green", "red"])],
    )
    ds = load_defendants(p, SMALL_SCHEMA)
    assert np.allclose(ds.features[:, :3].sum(axis=1), 1.0)


def test_load_defendants_empty_file_errors(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(IngestionError):
        load_defendants(p, SMALL_SCHEMA)
    write_defendants(p, [])
    with pytest.raises(IngestionError, match="no data rows"):
        load_defendants(p, SMALL_SCHEMA)


def test_load_defendants_names_row_and_column_on_errors(tmp_path):
    p = write_defendants(tmp_path / "d.csv", ["a,red,20,60,1", "b,red,x,70,5"])
    with pytest.raises(IngestionError, match=r"row 3.*'age'"):
        load_defendants(p, SMALL_SCHEMA)
    p2 = write_defendants(tmp_path / "d2.csv", ["a,red,20,60,1", "b,red,30,70,11"])
    with pytest.raises(IngestionError, match="outside 1-10"):
        load_defendants(p2, SMALL_SCHEMA)
    p3 = write_defendants(tmp_path / "d3.csv", ["a,red,20,60,1", "b,purple,30,70,5"])
    with pytest.raises(IngestionError, match="unseen category 'purple'"):
        load_defendants(p3, SMALL_SCHEMA)


def test_load_defendants_missing_column(tmp_path):
    p = (tmp_path / "d.csv")
    p.write_text("id,color,age,compas_decile\na,red,20,1\nb,red,30,2\n", encoding="utf-8")
    with pytest.raises(IngestionError, match="missing column.*weight"):
        load_defendants(p, SMALL_SCHEMA)


def test_load_defendants_duplicate_id(tmp_path):
    p = write_defendants(tmp_path / "d.csv", ["a,red,20,60,1", "a,red,30,70,5"])
    with pytest.raises(IngestionError, match="duplicate id"):
        load_defendants(p, SMALL_SCHEMA)


def test_ingestion_is_deterministic(tmp_path):
    p = write_defendants(
        tmp_path / "d.csv",
        ["a,red,20,60,1", "b,green,30,70,5", "c,blue,40,80,10"],
    )
    d1 = load_defendants(p, SMALL_SCHEMA)
    d2 = load_defendants(p, SMALL_SCHEMA)
    assert np.array_equal(d1.features, d2.features)
    assert np.array_equal(d1.labels, d2.labels)
    assert d1.ids == d2.ids


def test_schema_manifest_round_trip(tmp_path):
    manifest = tmp_path / "schema.txt"
    manifest.write_text(
        "# demo schema\n"
        "id_column pid\n"
        "label_column compas_decile\n"
        "column age numeric\n"
        "column sex binary Male,Female\n"
        "column cat categorical a,b,c\n",
        encoding="utf-8",
    )
    schema = parse_schema_manifest(manifest)
    assert schema.id_column == "pid"
    assert len(schema.encoded_names) == 5
    assert schema.columns[1].categories == ("Male", "Female")


def test_schema_manifest_rejects_garbage(tmp_path):
    manifest = tmp_path / "schema.txt"
    manifest.write_text("column age numericish\n", encoding="utf-8")
    with pytest.raises(IngestionError):
        parse_schema_manifest(manifest)


def test_schema_manifest_that_is_a_directory_exits_2(tmp_path):
    with pytest.raises(IngestionError, match="cannot open") as info:
        parse_schema_manifest(tmp_path)
    assert info.value.exit_code == 2
    assert str(tmp_path) in str(info.value)


def test_schema_manifest_that_is_not_utf8_exits_2(tmp_path):
    manifest = tmp_path / "schema.txt"
    manifest.write_bytes("column \xe2ge numeric\n".encode("latin-1"))
    with pytest.raises(IngestionError, match="not UTF-8 text") as info:
        parse_schema_manifest(manifest)
    assert info.value.exit_code == 2
    assert str(info.value).startswith(f"{manifest}: ")


def test_default_schema_dimensions(tmp_path):
    assert len(default_schema().encoded_names) == 10
    # a race ablation is a manifest: the seven default columns plus a race categorical
    lines = [f"column {c.name} {c.kind} {','.join(c.categories)}" for c in default_schema().columns]
    lines.append("column race categorical African-American,Asian,Caucasian,Hispanic,"
                 "Native American,Other")
    manifest = tmp_path / "schema.txt"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert len(parse_schema_manifest(manifest).encoded_names) == 16


SURVEY_HEADER = "respondent_id,defendant_id,q1_recidivism,q2_bail,q3_confidence,two_year_recid"


def write_survey(path, rows):
    path.write_text("\n".join([SURVEY_HEADER] + rows) + "\n", encoding="utf-8")
    return path


def test_load_survey_basic(tmp_path):
    p = write_survey(
        tmp_path / "s.csv",
        ["1,a,4,yes,5,1", "1,b,2,no,3,0", "2,a,5,No,1,1"],
    )
    recs = load_survey(p)
    assert len(recs) == 3
    assert recs[0] == SurveyRecord("1", "a", 4, True, 5, True)
    assert recs[2].bail_granted is False


def test_load_survey_duplicate_pair(tmp_path):
    p = write_survey(tmp_path / "s.csv", ["1,a,4,yes,5,1", "1,a,2,no,3,0"])
    with pytest.raises(IngestionError, match="duplicate"):
        load_survey(p)


def test_load_survey_out_of_range_prediction(tmp_path):
    p = write_survey(tmp_path / "s.csv", ["1,a,7,yes,5,1"])
    with pytest.raises(IngestionError, match="outside 1-5"):
        load_survey(p)


def test_load_survey_bad_bail_word(tmp_path):
    p = write_survey(tmp_path / "s.csv", ["1,a,3,maybe,5,1"])
    with pytest.raises(IngestionError, match="yes/no"):
        load_survey(p)


# The three input tables, each as (loader, header, two good data rows).
TABLES = {
    "raw": (
        lambda p: load_defendants(p, SMALL_SCHEMA),
        "id,color,age,weight,compas_decile",
        ["a,red,20,60,1", "b,green,30,70,5"],
    ),
    "encoded": (load_encoded_defendants, "id,compas_decile,age,weight", ["a,1,20,60", "b,5,30,70"]),
    "survey": (load_survey, SURVEY_HEADER, ["1,a,4,yes,5,1", "1,b,2,no,3,0"]),
}


def _load(path, kind, lines):
    path.parent.mkdir(exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return TABLES[kind][0](path)


def _same(a, b):
    if isinstance(a, list):
        return a == b
    return (
        np.array_equal(a.features, b.features)
        and np.array_equal(a.labels, b.labels)
        and (a.ids, a.feature_names, a.source_tag) == (b.ids, b.feature_names, b.source_tag)
    )


@pytest.mark.parametrize("kind", TABLES)
def test_every_table_skips_blank_lines(tmp_path, kind):
    _, header, rows = TABLES[kind]
    plain = _load(tmp_path / "plain" / "t.csv", kind, [header, *rows])
    spaced = _load(tmp_path / "spaced" / "t.csv", kind, ["", header, "", rows[0], "", "", rows[1], ""])
    assert _same(spaced, plain)


@pytest.mark.parametrize("kind", TABLES)
def test_every_table_strips_every_cell(tmp_path, kind):
    _, header, rows = TABLES[kind]
    plain = _load(tmp_path / "plain" / "t.csv", kind, [header, *rows])
    padded = [", ".join(f" {cell}\t" for cell in line.split(",")) for line in [header, *rows]]
    assert _same(_load(tmp_path / "padded" / "t.csv", kind, padded), plain)


@pytest.mark.parametrize("kind", TABLES)
@pytest.mark.parametrize("edit", ["extra", "missing"])
def test_every_table_rejects_a_row_with_another_cell_count(tmp_path, kind, edit):
    _, header, rows = TABLES[kind]
    width = header.count(",") + 1
    bad = rows[1] + ",9" if edit == "extra" else rows[1].rsplit(",", 1)[0]
    cells = width + 1 if edit == "extra" else width - 1
    with pytest.raises(IngestionError, match=rf"row 3: {cells} cells, the header has {width}"):
        _load(tmp_path / "bad.csv", kind, [header, rows[0], bad])


@pytest.mark.parametrize(
    "kind, row, fragment",
    [
        ("raw", "b,green,x,70,5", "column 'age': cannot parse 'x' as number"),
        ("raw", "b,green,30,70,x", "column 'compas_decile': cannot parse 'x' as integer"),
        ("raw", "b,Green,30,70,5", "column 'color': unseen category 'Green'"),
        ("raw", "a,green,30,70,5", "column 'id': duplicate id 'a'"),
        ("raw", "b,green,,70,5", "column 'age': empty cell"),
        ("encoded", "b,5,x,70", "column 'age': cannot parse 'x' as number"),
        ("encoded", "b,0,30,70", "column 'compas_decile': label 0 outside 1-10"),
        ("encoded", "b,5,30, ", "column 'weight': empty cell"),
        ("survey", "1,b,6,no,3,0", "column 'q1_recidivism': recidivism prediction 6 outside 1-5"),
        ("survey", "1,b,2,no,x,0", "column 'q3_confidence': cannot parse 'x' as integer"),
        ("survey", "1,b,2,maybe,3,0", "column 'q2_bail': unseen category 'maybe'; expected yes/no"),
        ("survey", "1,b,2,no,3,2", "column 'two_year_recid': outcome 2 outside 0-1"),
        ("survey", "1,a,2,no,3,0", "duplicate (respondent, defendant) pair ('1', 'a')"),
    ],
)
def test_a_faulty_row_names_the_file_row_and_column(tmp_path, kind, row, fragment):
    _, header, rows = TABLES[kind]
    path = tmp_path / "bad.csv"
    with pytest.raises(IngestionError) as info:
        _load(path, kind, [header, rows[0], row])
    assert info.value.exit_code == 2
    assert str(info.value).startswith(f"{path}: row 3")
    assert fragment in str(info.value)


@pytest.mark.parametrize("kind", TABLES)
def test_every_table_rejects_a_directory_with_exit_2(tmp_path, kind):
    with pytest.raises(IngestionError, match="cannot open") as info:
        TABLES[kind][0](tmp_path)
    assert info.value.exit_code == 2
    assert str(tmp_path) in str(info.value)


@pytest.mark.parametrize("kind", TABLES)
def test_every_table_rejects_a_file_that_is_not_utf8_with_exit_2(tmp_path, kind):
    _, header, rows = TABLES[kind]
    path = tmp_path / "latin1.csv"
    # blank lines push the undecodable byte past the first block the reader decodes,
    # so it is met while the caller iterates over the rows
    text = "\n".join([header, rows[0], "\n" * 10_000, rows[1].replace("b", "\xe9", 1)]) + "\n"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(IngestionError, match="not UTF-8 text") as info:
        TABLES[kind][0](path)
    assert info.value.exit_code == 2
    assert str(info.value).startswith(f"{path}: ")


def test_every_table_rejects_a_repeated_column_name(tmp_path):
    for kind, (_, header, rows) in TABLES.items():
        repeated = header.rsplit(",", 1)[0] + "," + header.split(",")[0]
        with pytest.raises(IngestionError, match="repeated column name"):
            _load(tmp_path / f"{kind}.csv", kind, [repeated, *rows])


def _defendants(n=6):
    rng = np.random.default_rng(0)
    return LabeledDataset(
        rng.normal(size=(n, 2)),
        rng.integers(1, 11, n),
        RatingScale(1, 10),
        ("u", "v"),
        ids=tuple(f"d{i}" for i in range(n)),
    )


def _survey_for(ratings_by_defendant):
    recs = []
    for did, ratings in ratings_by_defendant.items():
        for rid, rating in enumerate(ratings):
            recs.append(SurveyRecord(str(rid), did, rating, True, 3, False))
    return recs


def test_attach_labels_per_respondent():
    ds = _defendants()
    survey = _survey_for({"d1": [4, 2], "d3": [1, 5]})
    out = attach_labels(ds, survey, "per_respondent:0")
    assert out.ids == ("d1", "d3")  # defendant order of the input table
    assert out.labels.tolist() == [4, 1]
    assert out.scale.max == 5
    out1 = attach_labels(ds, survey, "per_respondent:1")
    assert out1.labels.tolist() == [2, 5]


def test_attach_labels_pooled_median():
    ds = _defendants()
    survey = _survey_for({"d0": [1, 1, 2, 5, 5], "d4": [1]})
    out = attach_labels(ds, survey, "pooled_median")
    assert out.labels.tolist() == [2, 1]
    # even count with half-integral median rounds half-up
    survey2 = _survey_for({"d0": [2, 3], "d4": [1]})
    assert attach_labels(ds, survey2, "pooled_median").labels.tolist() == [3, 1]


def test_attach_labels_pooled_rounded_mean():
    ds = _defendants()
    survey = _survey_for({"d0": [2, 3], "d4": [4, 4]})
    out = attach_labels(ds, survey, "pooled_rounded_mean")
    assert out.labels.tolist() == [3, 4]  # mean 2.5 rounds half-up


def test_attach_labels_unknown_respondent_and_missing_defendant():
    ds = _defendants()
    survey = _survey_for({"d0": [3], "d1": [2]})
    with pytest.raises(ConfigurationError, match="unknown respondent"):
        attach_labels(ds, survey, "per_respondent:9")
    bad = _survey_for({"nope": [3]})
    with pytest.raises(IngestionError, match="not in defendant table"):
        attach_labels(ds, bad, "pooled_median")


def test_parse_label_mode():
    assert parse_label_mode("per_respondent:17") == ("per_respondent", "17")
    assert parse_label_mode("pooled_median") == ("pooled_median", None)
    with pytest.raises(ConfigurationError):
        parse_label_mode("weird")


def test_standardize_columns():
    rng = np.random.default_rng(1)
    feats = rng.normal(3.0, 2.5, size=(40, 3))
    feats[:, 2] = 7.0  # constant column
    ds = LabeledDataset(feats, rng.integers(1, 6, 40), RatingScale(1, 5), ("a", "b", "c"))
    out, stats = standardize(ds)
    assert np.allclose(out.features[:, :2].mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(out.features[:, :2].std(axis=0, ddof=1), 1.0, atol=1e-9)
    assert np.allclose(out.features[:, 2], 0.0)  # centered, scale 1
    assert stats.scale[2] == 1.0


def test_standardize_with_train_stats_on_test():
    rng = np.random.default_rng(2)
    train = LabeledDataset(
        rng.normal(size=(30, 2)), rng.integers(1, 6, 30), RatingScale(1, 5), ("a", "b")
    )
    test = LabeledDataset(
        rng.normal(1.0, 2.0, size=(20, 2)), rng.integers(1, 6, 20), RatingScale(1, 5), ("a", "b")
    )
    _, stats = standardize(train)
    out, _ = standardize(test, stats)
    assert abs(out.features[:, 0].mean()) > 1e-6  # held-out fold is not re-centered
    wider = LabeledDataset(
        rng.normal(size=(5, 3)), rng.integers(1, 6, 5), RatingScale(1, 5), ("a", "b", "c")
    )
    with pytest.raises(ConfigurationError):
        standardize(wider, stats)
