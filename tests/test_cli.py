import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from fairmetric import cli
from fairmetric.cli import (
    _ALLOWED_KEYS,
    LAYOUTS,
    RunSpec,
    cmd_ingest,
    load_encoded_defendants,
    main,
    read_run_spec,
    render_report_text,
    report_csv_rows,
    write_encoded_defendants,
)
from fairmetric.core import (
    COMPAS_SCALE,
    LOSS_TRIPLET,
    CellStats,
    EvalReport,
    ExperimentConfig,
    LabeledDataset,
)
from fairmetric.errors import ConfigurationError, NumericalError
from fairmetric.evaluation import DEFAULT_MENU
from fairmetric.ingest import write_csv
from fairmetric.reference import build_triplets

CHARGES = ("violent", "property", "drug", "other")


def write_raw_defendants(path, n, seed=0):
    rng = np.random.default_rng(seed)
    header = "id,age,sex,juv_fel_count,juv_misd_count,priors_count,charge_degree,charge_category,compas_decile"
    rows = [header]
    for i in range(n):
        rows.append(
            ",".join(
                [
                    f"d{i:03d}",
                    str(int(rng.integers(18, 70))),
                    "Male" if rng.integers(2) else "Female",
                    str(int(rng.integers(0, 3))),
                    str(int(rng.integers(0, 4))),
                    str(int(rng.integers(0, 15))),
                    "F" if rng.integers(2) else "M",
                    CHARGES[int(rng.integers(len(CHARGES)))],
                    str(int(rng.integers(1, 11))),
                ]
            )
        )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def write_raw_survey(path, n_defendants, n_respondents=3, seed=1):
    rng = np.random.default_rng(seed)
    rows = ["respondent_id,defendant_id,q1_recidivism,q2_bail,q3_confidence,two_year_recid"]
    for r in range(n_respondents):
        for i in range(n_defendants):
            rows.append(
                ",".join(
                    [
                        str(r + 1),
                        f"d{i:03d}",
                        str(int(rng.integers(1, 6))),
                        "yes" if rng.integers(2) else "no",
                        str(int(rng.integers(1, 6))),
                        str(int(rng.integers(2))),
                    ]
                )
            )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def ingested(tmp_path):
    raw_d = write_raw_defendants(tmp_path / "defendants.csv", 60)
    raw_s = write_raw_survey(tmp_path / "survey.csv", 40)
    out = tmp_path / "ingested"
    summary = cmd_ingest(raw_d, raw_s, None, out)
    return tmp_path, out, summary


def test_ingest_summary_and_canonical_files(ingested):
    _, out, summary = ingested
    assert summary == {
        "defendants": 60,
        "encoded_dimension": 10,
        "survey_records": 120,
        "respondents": 3,
        "defendants_surveyed": 40,
    }
    encoded = load_encoded_defendants(out / "defendants_encoded.csv")
    assert encoded.n == 60 and encoded.d == 10
    assert encoded.scale == COMPAS_SCALE
    assert (out / "survey_canonical.csv").exists()
    assert "defendants = 60" in (out / "ingest_summary.txt").read_text()


def test_ingest_is_idempotent(ingested):
    tmp_path, out, _ = ingested
    before = (out / "defendants_encoded.csv").read_bytes()
    cmd_ingest(tmp_path / "defendants.csv", tmp_path / "survey.csv", None, out)
    assert (out / "defendants_encoded.csv").read_bytes() == before


def test_ingest_missing_file_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "nope"
    code = main(
        [
            "ingest",
            "--defendants",
            str(tmp_path / "absent.csv"),
            "--survey",
            str(tmp_path / "absent2.csv"),
            "--out-dir",
            str(out),
        ]
    )
    assert code == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_ingest_unseen_category_named_in_error(tmp_path):
    raw_d = tmp_path / "defendants.csv"
    write_raw_defendants(raw_d, 5)
    bad = raw_d.read_text().replace("drug", "arson", 1)
    if "arson" not in bad:  # ensure at least one bad category row
        lines = bad.splitlines()
        parts = lines[1].split(",")
        parts[7] = "arson"
        lines[1] = ",".join(parts)
        bad = "\n".join(lines) + "\n"
    raw_d.write_text(bad, encoding="utf-8")
    raw_s = write_raw_survey(tmp_path / "survey.csv", 5)
    with pytest.raises(Exception, match="arson"):
        cmd_ingest(raw_d, raw_s, None, tmp_path / "out")


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
def test_ingest_rejects_a_raw_feature_that_is_not_finite(tmp_path, capsys, value):
    raw_d = write_raw_defendants(tmp_path / "defendants.csv", 5)
    lines = raw_d.read_text().splitlines()
    row = lines[2].split(",")
    row[1] = value  # the age of line 3
    lines[2] = ",".join(row)
    raw_d.write_text("\n".join(lines) + "\n", encoding="utf-8")
    raw_s = write_raw_survey(tmp_path / "survey.csv", 5)
    out = tmp_path / "out"
    argv = ["ingest", "--defendants", str(raw_d), "--survey", str(raw_s), "--out-dir", str(out)]
    assert main(argv) == 2
    assert f"{raw_d}: row 3, column 'age': {value!r} is not a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_survey_referencing_unknown_defendant(tmp_path, capsys):
    raw_d = write_raw_defendants(tmp_path / "defendants.csv", 5)
    raw_s = write_raw_survey(tmp_path / "survey.csv", 8)  # d005..d007 unknown
    code = main(
        [
            "ingest",
            "--defendants",
            str(raw_d),
            "--survey",
            str(raw_s),
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "surveyed defendant(s) not in defendant table: d005, d006, d007" in capsys.readouterr().err


def write_config(path, out_dir, mode="figure1", label_source="compas", extra=""):
    path.write_text(
        f"""
[data]
defendants = {out_dir}/defendants_encoded.csv
survey = {out_dir}/survey_canonical.csv
label_source = {label_source}
label_mode = pooled_median

[experiment]
mode = {mode}
train_size = 25
test_size = 10
n_repeats = 2
k_neighbors = 3
seed = 5
sigma_train = 0
sigma_test = 0
triplet_subsample = 300
menu = euclidean, lsml

[sweep]
sigma_train_list = 0
sigma_test_list = 0, 2

[learners]
alpha = 0.01
lsml_max_iter = 150
{extra}
""",
        encoding="utf-8",
    )
    return path


def test_experiment_figure1_outputs_and_determinism(ingested, capsys):
    tmp_path, out, _ = ingested
    cfg = write_config(tmp_path / "exp.ini", out)
    code1 = main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "run1")])
    code2 = main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "run2")])
    assert code1 == 0 and code2 == 0
    r1 = (tmp_path / "run1" / "report.csv").read_bytes()
    r2 = (tmp_path / "run2" / "report.csv").read_bytes()
    assert r1 == r2
    t1 = (tmp_path / "run1" / "report.txt").read_text()
    assert "euclidean" in t1 and "lsml" in t1
    m1 = tmp_path / "run1" / "metrics" / "repeat_00" / "lsml.txt"
    m2 = tmp_path / "run2" / "metrics" / "repeat_00" / "lsml.txt"
    assert m1.read_bytes() == m2.read_bytes()
    header = (tmp_path / "run1" / "report.csv").read_text().splitlines()[0]
    assert header == "metric,loss,mean,std,n_repeats"


def test_experiment_seed_override_changes_report(ingested):
    tmp_path, out, _ = ingested
    cfg = write_config(tmp_path / "exp.ini", out)
    main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "a")])
    main(["experiment", "--config", str(cfg), "--seed", "99", "--out-dir", str(tmp_path / "b")])
    assert (tmp_path / "a" / "report.csv").read_bytes() != (
        tmp_path / "b" / "report.csv"
    ).read_bytes()


def test_experiment_survey_labels_mode(ingested):
    tmp_path, out, _ = ingested
    cfg = write_config(tmp_path / "exp.ini", out, label_source="survey")
    code = main(
        [
            "experiment",
            "--config",
            str(cfg),
            "--label-mode",
            "per_respondent:1",
            "--out-dir",
            str(tmp_path / "survey_run"),
        ]
    )
    assert code == 0
    text = (tmp_path / "survey_run" / "report.txt").read_text()
    assert "labels:per_respondent:1" in text


def test_experiment_sweep_mode(ingested):
    tmp_path, out, _ = ingested
    cfg = write_config(tmp_path / "exp.ini", out, mode="sweep")
    code = main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "sw")])
    assert code == 0
    body = (tmp_path / "sw" / "sweep.csv").read_text()
    assert body.splitlines()[0] == "sigma_test,metric,mean,std,n_repeats"
    assert "lsml(sigma=0)" in body
    assert (tmp_path / "sw" / "metrics" / "repeat_00" / "lsml_sigma_0.txt").exists()


def test_experiment_threads_flag_is_deterministic(ingested):
    tmp_path, out, _ = ingested
    cfg = write_config(tmp_path / "exp.ini", out)
    main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "st")])
    main(["experiment", "--config", str(cfg), "--threads", "2", "--out-dir", str(tmp_path / "mt")])
    assert (tmp_path / "st" / "report.csv").read_bytes() == (
        tmp_path / "mt" / "report.csv"
    ).read_bytes()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_experiment_rejects_threads_below_1(ingested, capsys, threads):
    tmp_path, out, _ = ingested
    cfg = write_config(tmp_path / "exp.ini", out)
    argv = ["experiment", "--config", str(cfg), "--threads", threads, "--out-dir", str(tmp_path / "run")]
    assert main(argv) == 1
    assert "usage: argument --threads" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _sweep_rows(run_dir):
    lines = (run_dir / "sweep.csv").read_text().splitlines()
    return {tuple(line.split(",")[:2]): line for line in lines[1:]}


def test_experiment_sweep_records_a_failed_column_as_na(ingested):
    # deciles run 1-10, so no training triplet has S_b + 9 < S_c: LSML(sigma=9) cannot fit
    tmp_path, out, _ = ingested
    cfg = write_config(tmp_path / "exp.ini", out, mode="sweep")
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "one")]) == 0
    text = cfg.read_text().replace("sigma_train_list = 0\n", "sigma_train_list = 0, 9\n")
    cfg.write_text(text, encoding="utf-8")
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "two")]) == 0
    one, two = _sweep_rows(tmp_path / "one"), _sweep_rows(tmp_path / "two")
    for sigma_t in ("0", "2"):
        assert two[(sigma_t, "lsml(sigma=9)")] == f"{sigma_t},lsml(sigma=9),,,0"
    assert {key: row for key, row in two.items() if key[1] != "lsml(sigma=9)"} == one
    assert "N/A" in (tmp_path / "two" / "sweep.txt").read_text()
    for repeat_dir in ("repeat_00", "repeat_01"):
        files = sorted(p.name for p in (tmp_path / "two" / "metrics" / repeat_dir).iterdir())
        assert files == ["lsml_sigma_0.txt"]
        name = f"metrics/{repeat_dir}/lsml_sigma_0.txt"
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


PINNED_REPORT = EvalReport(
    cells={
        (0.5, "euclidean"): CellStats(0.25, 0.125, 2),
        (0.5, "lsml(sigma=0)"): None,
        (2.0, "euclidean"): CellStats(0.5, 0.0, 1),
        (2.0, "lsml(sigma=0)"): CellStats(0.1, 0.05, 3),
    },
    rows=(0.5, 2.0),
    columns=("euclidean", "lsml(sigma=0)"),
    provenance={"seed": "7", "loss": LOSS_TRIPLET},
)
PINNED_FILES = {
    "figure1": (
        "per-loss mean ± sample standard deviation over repeats\n"
        "\n"
        "metric                     euclidean           lsml(sigma=0)\n"
        "0.5                  0.2500 ± 0.1250                     N/A\n"
        "2.0                  0.5000 ± 0.0000         0.1000 ± 0.0500\n"
        "\n"
        "loss: triplet_violation\n"
        "seed: 7\n",
        "metric,loss,mean,std,n_repeats\n"
        "0.5,euclidean,0.25,0.125,2\n"
        "0.5,lsml(sigma=0),,,0\n"
        "2.0,euclidean,0.5,0.0,1\n"
        "2.0,lsml(sigma=0),0.1,0.05,3\n",
    ),
    "sweep": (
        "triplet-violation loss, mean ± sample standard deviation over repeats\n"
        "\n"
        "sigma_t                euclidean         lsml(sigma=0)\n"
        "0.5              0.2500 ± 0.1250                   N/A\n"
        "2                0.5000 ± 0.0000       0.1000 ± 0.0500\n"
        "\n"
        "loss: triplet_violation\n"
        "seed: 7\n",
        "sigma_test,metric,mean,std,n_repeats\n"
        "0.5,euclidean,0.25,0.125,2\n"
        "0.5,lsml(sigma=0),,,0\n"
        "2,euclidean,0.5,0.0,1\n"
        "2,lsml(sigma=0),0.1,0.05,3\n",
    ),
}


@pytest.mark.parametrize("mode", sorted(PINNED_FILES))
def test_one_renderer_writes_each_layout(tmp_path, mode):
    text, csv_text = PINNED_FILES[mode]
    layout = LAYOUTS[mode]
    (tmp_path / "out.txt").write_text(render_report_text(PINNED_REPORT, layout), encoding="utf-8")
    write_csv(tmp_path / "out.csv", report_csv_rows(PINNED_REPORT, layout))
    assert (tmp_path / "out.txt").read_bytes() == text.encode("utf-8")
    assert (tmp_path / "out.csv").read_bytes() == csv_text.encode("utf-8")


def test_experiment_missing_config_exits_1(tmp_path, capsys):
    assert main(["experiment", "--config", str(tmp_path / "none.ini")]) == 1


@pytest.mark.parametrize("config", ["directory", "latin-1"])
def test_experiment_with_an_unreadable_config_exits_1(tmp_path, capsys, config):
    cfg = tmp_path / "exp.ini"
    if config == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes("[data]\ndefendants = d\xe9.csv\n".encode("latin-1"))
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 1
    assert f"cannot parse config {cfg}" in capsys.readouterr().err


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[experiment]\nmystery = 1\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="unknown key"):
        read_run_spec(cfg)


def write_config_sections(path, sections):
    lines = []
    for section, entries in sections.items():
        lines += [f"[{section}]"] + [f"{key} = {value}" for key, value in entries.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_minimal_config(path, defendants="defendants_encoded.csv", **sections):
    """[data] with only `defendants`, plus the given {section: {key: value}} entries."""
    return write_config_sections(path, {"data": {"defendants": defendants}, **sections})


def test_config_with_only_data_section_takes_every_default(tmp_path):
    spec = read_run_spec(write_minimal_config(tmp_path / "exp.ini"))
    assert spec.config == ExperimentConfig()
    assert spec.menu == DEFAULT_MENU


NON_DEFAULT_STRINGS = {"literal": "symmetric", "full": "diagonal"}


@pytest.mark.parametrize("field", fields(ExperimentConfig), ids=lambda f: f.name)
def test_every_config_field_is_read_from_its_key(tmp_path, field):
    key = "seed" if field.name == "rng_seed" else field.name
    (section,) = [s for s, keys in _ALLOWED_KEYS.items() if key in keys]
    default = field.default
    if isinstance(default, str):
        value = NON_DEFAULT_STRINGS[default]
    elif isinstance(default, int):
        value = default + 1
    else:
        value = default / 2 if default else 0.5
    cfg = write_minimal_config(tmp_path / "exp.ini", **{section: {key: value}})
    config = read_run_spec(cfg).config
    assert getattr(config, field.name) == value
    assert replace(config, **{field.name: default}) == ExperimentConfig()


# (section, non-default text, the value it reads as) of every key RunSpec holds itself
RUN_SPEC_KEYS = {
    "mode": ("experiment", "sweep", "sweep"),
    "label_source": ("data", "survey", "survey"),
    "label_mode": ("data", "pooled_rounded_mean", "pooled_rounded_mean"),
    "menu": ("experiment", "lsml, euclidean", ("lsml", "euclidean")),
    "sigma_train_list": ("sweep", "1, 3", (1.0, 3.0)),
    "sigma_test_list": ("sweep", "5", (5.0,)),
}


@pytest.mark.parametrize("key", sorted(RUN_SPEC_KEYS))
def test_every_run_spec_key_is_read_from_its_key(tmp_path, key):
    section, text, value = RUN_SPEC_KEYS[key]
    data = {"defendants": "d.csv", "survey": "s.csv"}
    base = read_run_spec(write_config_sections(tmp_path / "base.ini", {"data": data}))
    sections = {"data": dict(data)}
    sections.setdefault(section, {})[key] = text
    spec = read_run_spec(write_config_sections(tmp_path / "exp.ini", sections))
    assert getattr(spec, key) == value != getattr(base, key)
    assert replace(spec, **{key: getattr(base, key)}) == base
    assert (base.defendants, base.survey) == (tmp_path / "d.csv", tmp_path / "s.csv")


def test_allowed_keys_hold_each_declared_key_once():
    declared = {"seed" if f.name == "rng_seed" else f.name for f in fields(ExperimentConfig)}
    declared |= {f.name for f in fields(RunSpec) if f.name != "config"}
    listed = [key for keys in _ALLOWED_KEYS.values() for key in keys]
    assert len(listed) == len(declared) == 27
    assert set(listed) == declared
    assert set(_ALLOWED_KEYS) == {"data", "experiment", "sweep", "learners"}


def test_config_rejects_a_default_section(tmp_path, capsys):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[DEFAULT]\nn_repeats = 1\n[data]\ndefendants = d.csv\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match=r"unknown section \[DEFAULT\]"):
        read_run_spec(cfg)
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 1
    assert "[DEFAULT]" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["defendants", "survey"])
def test_config_rejects_an_empty_path(tmp_path, capsys, key):
    data = {"defendants": "d.csv", key: ""}
    cfg = write_config_sections(tmp_path / "exp.ini", {"data": data})
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 1
    assert f"[data] {key}: cannot parse ''" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("experiment", "k_neighbors", "30"),  # train_size 25
        ("learners", "lmnn_k_targets", "0"),
        ("learners", "lsml_max_iter", "0"),
        ("learners", "mmc_tol", "-1e-6"),
        ("experiment", "menu", ","),
        ("experiment", "menu", "euclidean, euclidean"),
        ("experiment", "menu", "euclidean, lsmll"),
        ("learners", "alpha", "nan"),
        ("learners", "alpha", "inf"),
        ("experiment", "sigma_train", "nan"),
        ("experiment", "sigma_test", "inf"),
        ("learners", "lsml_tol", "nan"),
        ("learners", "mmc_tol", "inf"),
        ("sweep", "sigma_train_list", "0, nan"),
        ("sweep", "sigma_test_list", "-inf, 2"),
        ("sweep", "sigma_train_list", "-1, 2"),
        ("sweep", "sigma_test_list", "-1, 2"),
        ("sweep", "sigma_train_list", "0, 0"),
        ("sweep", "sigma_train_list", "1.0000001, 1.0000002"),  # both name lsml(sigma=1)
        ("sweep", "sigma_test_list", "2, 2"),
        ("experiment", "seed", "-1"),
    ],
)
def test_experiment_rejects_bad_config_values_with_exit_1(ingested, capsys, section, key, value):
    tmp_path, out, _ = ingested
    entries = {"experiment": {"train_size": 25, "test_size": 10, "n_repeats": 1}}
    entries.setdefault(section, {})[key] = value
    cfg = write_minimal_config(tmp_path / "exp.ini", out / "defendants_encoded.csv", **entries)
    with pytest.raises(ConfigurationError):
        read_run_spec(cfg)
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "flag, value, key",
    [
        ("--seed", "-1", "seed"),
        ("--seed", "1.5", "seed"),
        ("--triplet-variant", "nope", "triplet_variant"),
        ("--label-mode", "nope", "label mode"),
    ],
)
def test_experiment_rejects_bad_override_flags_with_exit_1(tmp_path, capsys, flag, value, key):
    # the defendants file does not exist: the flag is rejected before any data is read
    cfg = write_minimal_config(tmp_path / "exp.ini", tmp_path / "absent.csv")
    argv = ["experiment", "--config", str(cfg), flag, value, "--out-dir", str(tmp_path / "run")]
    assert main(argv) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "entries",
    [
        # deciles run 1-10, so no training triplet has S_b + 9 < S_c: LSML fails on every repeat
        {"experiment": {"menu": "lsml", "sigma_train": 9}},
        # no test triplet at sigma 50: every sweep cell is empty
        {"experiment": {"mode": "sweep"}, "sweep": {"sigma_train_list": 0, "sigma_test_list": 50}},
    ],
    ids=["figure1", "sweep"],
)
def test_experiment_with_every_cell_empty_exits_3(ingested, capsys, entries):
    tmp_path, out, _ = ingested
    sections = {
        "experiment": {"train_size": 25, "test_size": 10, "n_repeats": 2, "triplet_subsample": 300},
        "learners": {"lsml_max_iter": 50},
    }
    for section, keys in entries.items():
        sections.setdefault(section, {}).update(keys)
    cfg = write_minimal_config(tmp_path / "exp.ini", out / "defendants_encoded.csv", **sections)
    assert main(["experiment", "--config", str(cfg), "--out-dir", str(tmp_path / "run")]) == 3
    assert "every report cell is empty" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_usage_error_exit_code(capsys):
    assert main(["experiment"]) == 1  # --config is required
    assert main(["not-a-command"]) == 1


def test_report_survey_outputs(ingested, capsys):
    tmp_path, out, _ = ingested
    dest = tmp_path / "tables"
    code = main(
        [
            "report-survey",
            "--survey",
            str(out / "survey_canonical.csv"),
            "--confidence-threshold",
            "4",
            "--out-dir",
            str(dest),
        ]
    )
    assert code == 0
    for name in (
        "table1_bail_rates.txt",
        "table1_bail_rates.csv",
        "table2_confidence.txt",
        "table2_confidence.csv",
    ):
        assert (dest / name).exists()
    table2 = (dest / "table2_confidence.csv").read_text().splitlines()
    assert table2[0].startswith("stratum,mean,std,n_respondents,r_1")


def test_dump_triplets(ingested, tmp_path):
    _, out, _ = ingested
    dest = tmp_path / "triplets.csv"
    code = main(
        [
            "dump-triplets",
            "--data",
            str(out / "defendants_encoded.csv"),
            "--sigma",
            "2",
            "--out",
            str(dest),
        ]
    )
    assert code == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert len(lines) > 1


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_dump_triplets_rejects_a_sigma_that_is_not_finite(ingested, tmp_path, capsys, sigma):
    _, out, _ = ingested
    dest = tmp_path / "triplets.csv"
    argv = ["dump-triplets", "--data", str(out / "defendants_encoded.csv"), "--sigma", sigma]
    assert main(argv + ["--out", str(dest)]) == 1
    assert "sigma must be finite" in capsys.readouterr().err
    assert not dest.exists()


def _no_input_may_be_read(*args, **kwargs):
    raise AssertionError("the config was read before the out dir was checked")


@pytest.mark.parametrize("command", ["ingest", "experiment", "report-survey", "dump-triplets"])
def test_an_output_path_that_cannot_be_written_exits_1(ingested, capsys, monkeypatch, command):
    tmp_path, out, _ = ingested
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where a directory is needed\n", encoding="utf-8")
    cfg = write_config(tmp_path / "exp.ini", out)
    argv, named = {
        "ingest": (
            ["ingest", "--defendants", str(tmp_path / "defendants.csv"),
             "--survey", str(tmp_path / "survey.csv"), "--out-dir", str(blocker)],
            blocker,
        ),
        "experiment": (
            ["experiment", "--config", str(cfg), "--out-dir", str(blocker / "run")],
            blocker / "run",
        ),
        "report-survey": (
            ["report-survey", "--survey", str(out / "survey_canonical.csv"),
             "--out-dir", str(blocker)],
            blocker,
        ),
        # --out names an existing directory
        "dump-triplets": (
            ["dump-triplets", "--data", str(out / "defendants_encoded.csv"),
             "--sigma", "2", "--out", str(out)],
            out,
        ),
    }[command]
    # experiment rejects its out dir before it reads any input, so no fit runs
    monkeypatch.setattr("fairmetric.cli.read_run_spec", _no_input_may_be_read)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("fairmetric: error: ") and err.count("\n") == 1
    assert str(named) in err
    assert blocker.read_text(encoding="utf-8") == "a file where a directory is needed\n"


def _tree(root):
    """Every entry under root: a file's bytes, or None for a directory."""
    return {
        str(path.relative_to(root)): None if path.is_dir() else path.read_bytes()
        for path in sorted(root.rglob("*"))
    }


def _experiment(cfg, run_dir, *flags):
    return main(["experiment", "--config", str(cfg), "--out-dir", str(run_dir), *flags])


@pytest.mark.parametrize("command", ["ingest", "report-survey", "dump-triplets"])
def test_an_out_dir_through_a_file_is_rejected_before_any_input_is_read(
    ingested, capsys, monkeypatch, command
):
    tmp_path, out, _ = ingested
    blocker = tmp_path / "blocker"
    blocker.write_text("a file\n", encoding="utf-8")
    argv = {
        "ingest": ["ingest", "--defendants", str(tmp_path / "defendants.csv"),
                   "--survey", str(tmp_path / "survey.csv"), "--out-dir", str(blocker / "sub")],
        "report-survey": ["report-survey", "--survey", str(out / "survey_canonical.csv"),
                          "--out-dir", str(blocker / "sub")],
        "dump-triplets": ["dump-triplets", "--data", str(out / "defendants_encoded.csv"),
                          "--sigma", "2", "--out", str(blocker / "sub" / "triplets.csv")],
    }[command]
    for name in ("load_defendants", "load_survey", "load_encoded_defendants"):
        monkeypatch.setattr(f"fairmetric.cli.{name}", _no_input_may_be_read)
    before = _tree(tmp_path)
    assert main(argv) == 1
    assert str(blocker / "sub") in capsys.readouterr().err
    assert _tree(tmp_path) == before


def test_a_failed_landing_changes_nothing(ingested, capsys):
    tmp_path, out, _ = ingested
    cfg = write_config(tmp_path / "exp.ini", out)
    run = tmp_path / "run"
    (run / "report.txt").mkdir(parents=True)
    (run / "report.txt" / "kept.txt").write_text("kept\n", encoding="utf-8")
    before = _tree(run)
    assert _experiment(cfg, run) == 1
    assert f"cannot write {run / 'report.txt'}: Is a directory" in capsys.readouterr().err
    assert _tree(run) == before  # no report.csv beside it, no metrics/, no stage
    (run / "report.txt" / "kept.txt").unlink()
    (run / "report.txt").rmdir()
    (run / "metrics").write_text("a file where metrics/ lands\n", encoding="utf-8")
    before = _tree(run)
    assert _experiment(cfg, run) == 1
    assert f"cannot write {run / 'metrics'}: Not a directory" in capsys.readouterr().err
    assert _tree(run) == before


def test_a_rerun_replaces_metrics_as_a_whole(ingested):
    tmp_path, out, _ = ingested
    cfg = write_config(tmp_path / "exp.ini", out)
    assert _experiment(cfg, tmp_path / "run") == 0
    assert (tmp_path / "run" / "metrics" / "repeat_01" / "lsml.txt").exists()
    cfg.write_text(cfg.read_text().replace("n_repeats = 2", "n_repeats = 1"))
    assert _experiment(cfg, tmp_path / "run") == 0
    assert sorted(_tree(tmp_path / "run")) == [
        "metrics", "metrics/repeat_00", "metrics/repeat_00/euclidean.txt",
        "metrics/repeat_00/lsml.txt", "report.csv", "report.txt",
    ]


def test_entries_a_command_does_not_write_stay(ingested):
    tmp_path, out, _ = ingested
    cfg = write_config(tmp_path / "exp.ini", out)
    before = _tree(out)
    assert _experiment(cfg, out) == 0
    after = _tree(out)
    assert {name: after[name] for name in before} == before
    assert {"report.csv", "report.txt", "metrics"} <= after.keys()
    assert not list(out.glob(".partial-*"))


def test_a_failure_part_way_through_the_metric_files_changes_nothing(ingested, capsys, monkeypatch):
    tmp_path, out, _ = ingested
    cfg = write_config(tmp_path / "exp.ini", out)
    run = tmp_path / "run"
    assert _experiment(cfg, run) == 0
    before = _tree(run)
    save_metric = cli.save_metric
    calls = []

    def third_save_fails(metric, path):
        calls.append(path)
        if len(calls) == 3:  # of four: 2 repeats x (euclidean, lsml)
            raise OSError(28, "No space left on device", str(path))
        save_metric(metric, path)

    monkeypatch.setattr("fairmetric.cli.save_metric", third_save_fails)
    assert _experiment(cfg, run, "--seed", "99") == 1  # another seed: other bytes, had it landed
    assert "No space left on device" in capsys.readouterr().err
    assert _tree(run) == before
    fresh = tmp_path / "fresh"
    calls.clear()
    assert _experiment(cfg, fresh / "run") == 1
    assert not fresh.exists()


def test_dump_triplets_that_fails_part_way_leaves_no_file(ingested, capsys, monkeypatch):
    tmp_path, out, _ = ingested
    triplet_blocks = cli.triplet_blocks

    def first_block_then_fail(*args):
        yield next(iter(triplet_blocks(*args)))
        raise NumericalError("failed after the first block")

    monkeypatch.setattr("fairmetric.cli.triplet_blocks", first_block_then_fail)
    before = _tree(tmp_path)
    dest = tmp_path / "triplets.csv"
    argv = ["dump-triplets", "--data", str(out / "defendants_encoded.csv"), "--sigma", "0"]
    assert main(argv + ["--out", str(dest)]) == 3
    assert "failed after the first block" in capsys.readouterr().err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command", ["ingest", "experiment", "report-survey", "dump-triplets"])
def test_an_empty_output_path_is_a_usage_error(ingested, capsys, monkeypatch, command):
    tmp_path, out, _ = ingested
    cfg = write_config(tmp_path / "exp.ini", out)
    argv = {
        "ingest": ["ingest", "--defendants", str(tmp_path / "defendants.csv"),
                   "--survey", str(tmp_path / "survey.csv"), "--out-dir", ""],
        "experiment": ["experiment", "--config", str(cfg), "--out-dir", ""],
        "report-survey": ["report-survey", "--survey", str(out / "survey_canonical.csv"),
                          "--out-dir", ""],
        "dump-triplets": ["dump-triplets", "--data", str(out / "defendants_encoded.csv"),
                          "--sigma", "2", "--out", ""],
    }[command]
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(argv) == 1
    assert "must not be empty" in capsys.readouterr().err
    assert not list(cwd.iterdir())


@pytest.mark.parametrize("dest", [".", "..", "ingested/.."])
def test_dump_triplets_out_that_names_no_file_is_a_usage_error(ingested, capsys, monkeypatch, dest):
    tmp_path, out, _ = ingested
    monkeypatch.chdir(tmp_path)
    before = _tree(tmp_path)
    argv = ["dump-triplets", "--data", str(out / "defendants_encoded.csv"), "--sigma", "2"]
    assert main(argv + ["--out", dest]) == 1
    assert "usage: argument --out: " in capsys.readouterr().err
    assert _tree(tmp_path) == before


@pytest.mark.parametrize(
    "line, cell, value, message",
    [
        (2, 1, "11", "label 11 outside 1-10"),
        (3, 4, "nan", "not a finite number"),
        (4, 0, "d000", "duplicate id 'd000'"),  # the id of line 2
    ],
    ids=["label", "feature", "id"],
)
def test_encoded_file_with_a_bad_row_exits_2(ingested, tmp_path, capsys, line, cell, value, message):
    _, out, _ = ingested
    lines = (out / "defendants_encoded.csv").read_text().splitlines()
    row = lines[line - 1].split(",")
    row[cell] = value
    lines[line - 1] = ",".join(row)
    data = tmp_path / "edited.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    dest = tmp_path / "triplets.csv"
    assert main(["dump-triplets", "--data", str(data), "--sigma", "0", "--out", str(dest)]) == 2
    err = capsys.readouterr().err
    assert f"{data}: row {line}" in err and message in err
    assert not dest.exists()


def test_dump_triplets_streams_the_canonical_set(tmp_path):
    # 80 rows of deciles hold about 81k literal triplets at sigma 0; as one
    # array plus one list of strings they took 21 MB, one anchor at a time < 1 MB
    rng = np.random.default_rng(20)
    data = tmp_path / "defendants_encoded.csv"
    write_encoded_defendants(
        LabeledDataset(
            features=rng.normal(size=(80, 2)),
            labels=rng.integers(1, 11, size=80),
            scale=COMPAS_SCALE,
            feature_names=("f0", "f1"),
        ),
        data,
    )
    dest = tmp_path / "triplets.csv"
    tracemalloc.start()
    try:
        code = main(["dump-triplets", "--data", str(data), "--sigma", "0", "--out", str(dest)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    expected = build_triplets(load_encoded_defendants(data), 0.0).indices
    assert len(expected) > 50_000
    lines = dest.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1:] == [f"{a},{b},{c}" for a, b, c in expected.tolist()]
    assert peak < 4 * 2**20
