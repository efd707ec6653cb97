import numpy as np
import pytest

from conftest import (
    SurveyRow,
    record_bail_rate_table,
    record_confidence_accuracy_table,
    survey_table,
)
from fairmetric.errors import ConfigurationError
from fairmetric.ingest import SurveyTable
from fairmetric.survey import (
    bail_rate_csv_rows,
    bail_rate_table,
    confidence_accuracy_csv_rows,
    confidence_accuracy_table,
    decision_correct,
    render_bail_rate_text,
    render_confidence_accuracy_text,
)


def rec(resp, defend, q1=3, bail=True, q3=3, recid=False):
    return SurveyRow(str(resp), str(defend), q1, bail, q3, recid)


def test_bail_rate_all_yes_is_100_percent():
    records = [rec(r, d, q1=lvl, bail=True) for r in range(3) for lvl, d in enumerate([1, 2, 3], 1)]
    table = bail_rate_table(survey_table(records))
    for lvl in range(3):
        assert table.mean[lvl] == 1.0
        assert table.max[lvl] == 1.0
        assert table.min[lvl] == 1.0
    assert table.mean[3] is None  # nobody answered level 4


def test_bail_rate_respondents_without_level_records_excluded():
    records = [
        rec(1, "a", q1=5, bail=True),
        rec(1, "b", q1=5, bail=False),
        rec(2, "c", q1=5, bail=False),
        rec(3, "d", q1=2, bail=True),  # respondent 3 has no level-5 records
    ]
    table = bail_rate_table(survey_table(records))
    assert table.n_respondents[4] == 2
    assert table.mean[4] == pytest.approx((0.5 + 0.0) / 2)
    assert table.max[4] == 0.5
    assert table.min[4] == 0.0


def test_bail_rate_mean_between_min_and_max():
    rng = np.random.default_rng(0)
    records = [
        rec(r, f"{r}-{i}", q1=int(rng.integers(1, 6)), bail=bool(rng.integers(2)))
        for r in range(6)
        for i in range(40)
    ]
    table = bail_rate_table(survey_table(records))
    for lvl in range(5):
        if table.mean[lvl] is None:
            continue
        assert table.min[lvl] - 1e-12 <= table.mean[lvl] <= table.max[lvl] + 1e-12
        assert 0.0 <= table.mean[lvl] <= 1.0


def test_bail_rate_table_equals_a_scan_per_level_and_respondent():
    rng = np.random.default_rng(3)
    respondents = ["10", "2", "b", "1", "a"]
    records = [
        rec(respondents[int(rng.integers(5))], i, q1=int(rng.integers(1, 6)), bail=bool(rng.integers(2)))
        for i in range(300)
    ]
    ordered = ["1", "2", "10", "a", "b"]
    expected = {"mean": [], "max": [], "min": [], "n": []}
    for level in range(1, 6):
        rates = []
        for rid in ordered:
            mine = [r for r in records if r.respondent_id == rid and r.recidivism_prediction == level]
            if mine:
                rates.append(sum(r.bail_granted for r in mine) / len(mine))
        expected["mean"].append(float(np.mean(rates)))
        expected["max"].append(float(np.max(rates)))
        expected["min"].append(float(np.min(rates)))
        expected["n"].append(len(rates))
    table = bail_rate_table(survey_table(records))
    assert list(table.mean) == expected["mean"]  # exact: same rates in the same order
    assert list(table.max) == expected["max"]
    assert list(table.min) == expected["min"]
    assert list(table.n_respondents) == expected["n"]


def test_confidence_accuracy_table_equals_a_scan_per_stratum_and_respondent():
    rng = np.random.default_rng(4)
    respondents = ["10", "2", "b", "1", "a"]
    records = [
        rec(
            respondents[int(rng.integers(5))],
            i,
            bail=bool(rng.integers(2)),
            q3=int(rng.integers(1, 6)),
            recid=bool(rng.integers(2)),
        )
        for i in range(300)
    ]
    # respondent c answers with low confidence only, so has no high-confidence share
    records += [rec("c", f"c{i}", bail=i % 2 == 0, q3=1 + i % 3) for i in range(7)]
    ordered = ["1", "2", "10", "a", "b", "c"]
    table = confidence_accuracy_table(survey_table(records), high_confidence_threshold=4)
    assert table.respondent_ids == tuple(ordered)
    strata = [
        (table.overall, lambda r: True),
        (table.high_confidence, lambda r: r.confidence >= 4),
        (table.low_confidence, lambda r: r.confidence < 4),
    ]
    for row, keep in strata:
        shares = []
        for rid in ordered:
            mine = [r for r in records if r.respondent_id == rid and keep(r)]
            correct = [r.bail_granted != r.ground_truth_recidivated for r in mine]
            shares.append(sum(correct) / len(correct) if correct else None)
        present = [share for share in shares if share is not None]
        assert list(row.per_respondent) == shares  # exact: same counts in the same order
        assert row.mean == float(np.mean(present))
        assert row.std == float(np.std(present, ddof=1))
        assert row.n_respondents == len(present)
    assert table.high_confidence.per_respondent[-1] is None


def test_decision_correctness_rule():
    records = [
        rec(1, "a", bail=True, recid=False),
        rec(1, "b", bail=False, recid=True),
        rec(1, "c", bail=True, recid=True),
        rec(1, "d", bail=False, recid=False),
    ]
    assert decision_correct(survey_table(records)).tolist() == [True, True, False, False]


def test_confidence_accuracy_all_correct():
    records = [rec(r, d, bail=True, recid=False, q3=(d % 5) + 1) for r in range(3) for d in range(10)]
    table = confidence_accuracy_table(survey_table(records))
    assert table.overall.mean == 1.0
    assert table.high_confidence.mean == 1.0
    assert table.low_confidence.mean == 1.0


def test_confidence_accuracy_hand_computed():
    # single respondent: 4 high-confidence records, 2 correct -> 0.5
    records = [
        rec(1, "a", q3=4, bail=True, recid=False),   # correct
        rec(1, "b", q3=5, bail=False, recid=True),   # correct
        rec(1, "c", q3=4, bail=True, recid=True),    # wrong
        rec(1, "d", q3=5, bail=False, recid=False),  # wrong
        rec(1, "e", q3=1, bail=True, recid=False),   # correct, low confidence
    ]
    table = confidence_accuracy_table(survey_table(records), high_confidence_threshold=4)
    assert table.high_confidence.per_respondent[0] == pytest.approx(0.5)
    assert table.low_confidence.per_respondent[0] == pytest.approx(1.0)
    assert table.overall.per_respondent[0] == pytest.approx(3 / 5)


def test_overall_is_count_weighted_combination_of_strata():
    rng = np.random.default_rng(1)
    records = []
    for r in range(5):
        for i in range(30):
            records.append(
                rec(
                    r,
                    f"{r}-{i}",
                    q3=int(rng.integers(1, 6)),
                    bail=bool(rng.integers(2)),
                    recid=bool(rng.integers(2)),
                )
            )
    table = confidence_accuracy_table(survey_table(records), high_confidence_threshold=4)
    by_resp = {rid: [x for x in records if x.respondent_id == rid] for rid in table.respondent_ids}
    for i, rid in enumerate(table.respondent_ids):
        mine = by_resp[rid]
        hi = [x for x in mine if x.confidence >= 4]
        lo = [x for x in mine if x.confidence < 4]
        combo = 0.0
        if hi:
            combo += len(hi) * table.high_confidence.per_respondent[i]
        if lo:
            combo += len(lo) * table.low_confidence.per_respondent[i]
        assert table.overall.per_respondent[i] == pytest.approx(combo / len(mine))


def test_stratum_without_records_is_na():
    records = [rec(1, "a", q3=5), rec(1, "b", q3=4), rec(2, "c", q3=1), rec(2, "d", q3=2)]
    table = confidence_accuracy_table(survey_table(records), high_confidence_threshold=4)
    assert table.high_confidence.per_respondent[1] is None
    assert table.low_confidence.per_respondent[0] is None
    assert table.high_confidence.n_respondents == 1


def test_respondent_ids_sorted_naturally():
    records = [rec(r, d) for r in (10, 2, 1, 18) for d in ("a", "b")]
    table = confidence_accuracy_table(survey_table(records))
    assert table.respondent_ids == ("1", "2", "10", "18")


def test_respondent_ids_that_int_cannot_parse_sort_as_text():
    # "²".isdigit() is true, but int("²") raises; such ids sort after the numeric ones
    records = [rec(r, d) for r in ("²", "10", "b", "2") for d in ("a", "b")]
    assert confidence_accuracy_table(survey_table(records)).respondent_ids == ("2", "10", "b", "²")
    assert bail_rate_table(survey_table(records)).n_respondents[2] == 4


def test_respondent_ids_of_equal_value_sort_as_text():
    # ordered by the set's hash order, "7" and "07" swapped places between processes
    records = [rec(r, "a") for r in ("07", "7", "b", "1", "01")]
    assert confidence_accuracy_table(survey_table(records)).respondent_ids == ("01", "1", "07", "7", "b")


def test_threshold_and_empty_validation():
    with pytest.raises(ConfigurationError):
        confidence_accuracy_table(survey_table([]), 4)
    message = r"^confidence threshold must lie in 1\.\.5, got 9$"
    with pytest.raises(ConfigurationError, match=message):
        confidence_accuracy_table(survey_table([rec(1, "a")]), 9)
    with pytest.raises(ConfigurationError):
        bail_rate_table(survey_table([]))


@pytest.mark.parametrize(
    "q1, q3, message",
    [(0, 3, "recidivism prediction 0 outside 1-5"), (3, 6, "confidence 6 outside 1-5")],
)
def test_survey_record_names_the_answer_outside_the_scale(q1, q3, message):
    with pytest.raises(ConfigurationError) as info:
        survey_table([rec(1, "a"), rec(2, "a", q1=q1, q3=q3)])
    assert str(info.value) == message


def test_survey_table_rejects_columns_of_unequal_length():
    with pytest.raises(ConfigurationError, match="survey columns differ in length"):
        SurveyTable(("1", "2"), ("a", "b"), [3, 3], [True], [3, 3], [False, False])


@pytest.mark.parametrize("threshold", [1, 3, 4, 5])
def test_survey_tables_equal_the_record_loop_bit_for_bit(threshold):
    # bail is noisy (not a function of q1), so the per-respondent shares take many
    # values; some respondents never use some levels, and some ids are not decimal
    rng = np.random.default_rng(11)
    respondents = [str(r) for r in range(1, 12)] + ["b", "a10", "²", "07"]
    records = []
    for at, rid in enumerate(respondents):
        levels = rng.choice(np.arange(1, 6), size=int(rng.integers(1, 6)), replace=False)
        for i in range(int(rng.integers(5, 40))):
            records.append(
                rec(
                    rid,
                    f"d{at}-{i}",
                    q1=int(rng.choice(levels)),
                    bail=bool(rng.random() < 0.6),
                    q3=int(rng.integers(1, 6)),
                    recid=bool(rng.random() < 0.4),
                )
            )
    order = rng.permutation(len(records))
    records = [records[i] for i in order]
    table = survey_table(records)
    bail, expected_bail = bail_rate_table(table), record_bail_rate_table(records)
    acc = confidence_accuracy_table(table, threshold)
    expected_acc = record_confidence_accuracy_table(records, threshold)
    assert bail == expected_bail  # every float compared with ==
    assert acc == expected_acc
    assert min(bail.n_respondents) < len(respondents)  # some respondent skips each level
    assert render_bail_rate_text(bail) == render_bail_rate_text(expected_bail)
    assert bail_rate_csv_rows(bail) == bail_rate_csv_rows(expected_bail)
    assert render_confidence_accuracy_text(acc) == render_confidence_accuracy_text(expected_acc)
    assert confidence_accuracy_csv_rows(acc) == confidence_accuracy_csv_rows(expected_acc)


def test_rendering_uses_one_decimal_percent():
    records = [
        rec(1, "a", q1=5, bail=True),
        rec(1, "b", q1=5, bail=False),
        rec(1, "c", q1=5, bail=False),
    ]
    text = render_bail_rate_text(bail_rate_table(survey_table(records)))
    assert "33.3%" in text
    acc_text = render_confidence_accuracy_text(confidence_accuracy_table(survey_table(records)))
    assert "Overall" in acc_text and "N/A" not in acc_text.splitlines()[2]
