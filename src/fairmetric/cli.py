"""Batch command-line entry point.

Subcommands:
  ingest         validate raw CSVs, write canonical encoded copies + a summary
  experiment     run the figure-style learner comparison or the sigma sweep
  report-survey  reproduce the bail-rate and confidence-accuracy tables
  dump-triplets  write a triplet constraint set as CSV (columns a,b,c)

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical failure.
All randomness derives from one root seed, so reruns with the same config are
byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import itertools
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .constraints import describe_triplets, triplet_blocks
from .core import (
    COMPAS_SCALE,
    TRIPLET_VARIANTS,
    CellStats,
    EvalReport,
    ExperimentConfig,
    LabeledDataset,
    require_finite,
)
from .errors import ConfigurationError, FairmetricError, IngestionError, NumericalError
from .evaluation import (
    DEFAULT_MENU,
    SweepResult,
    build_learner_menu,
    run_experiment_detailed,
    sigma_sweep,
)
from .ingest import (
    FeatureSchema,
    attach_labels,
    default_schema,
    load_defendants,
    load_survey,
    parse_label_mode,
    parse_schema_manifest,
)
from .learners import save_metric
from .survey import (
    bail_rate_csv_rows,
    bail_rate_table,
    confidence_accuracy_csv_rows,
    confidence_accuracy_table,
    render_bail_rate_text,
    render_confidence_accuracy_text,
)

ENCODED_ID = "id"
ENCODED_LABEL = "compas_decile"


# ---------------------------------------------------------------------------
# Canonical encoded defendants file: id, compas_decile, then feature columns.


def write_encoded_defendants(dataset: LabeledDataset, path: Path) -> None:
    rows = [[ENCODED_ID, ENCODED_LABEL, *dataset.feature_names]]
    ids = dataset.ids or tuple(str(i) for i in range(dataset.n))
    for i in range(dataset.n):
        rows.append(
            [ids[i], str(int(dataset.labels[i]))] + [repr(float(v)) for v in dataset.features[i]]
        )
    _write_csv(path, rows)


def load_encoded_defendants(path) -> LabeledDataset:
    path = Path(path)
    if not path.exists():
        raise IngestionError(f"encoded defendants file not found: {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        if header[:2] != [ENCODED_ID, ENCODED_LABEL]:
            raise IngestionError(
                f"{path}: not a canonical encoded file (expected leading columns "
                f"{ENCODED_ID!r}, {ENCODED_LABEL!r}; run the ingest command first)"
            )
        names = header[2:]
        ids: list[str] = []
        labels: list[int] = []
        feats: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise IngestionError(f"{path}: row {lineno}: expected {len(header)} cells")
            ids.append(row[0])
            try:
                labels.append(int(row[1]))
                feats.append([float(v) for v in row[2:]])
            except ValueError:
                raise IngestionError(f"{path}: row {lineno}: unparseable numeric cell") from None
    if len(feats) < 2:
        raise IngestionError(f"{path}: need at least 2 rows")
    return LabeledDataset(
        features=np.asarray(feats),
        labels=np.asarray(labels),
        scale=COMPAS_SCALE,
        feature_names=tuple(names),
        source_tag=f"encoded:{path.name}",
        ids=tuple(ids),
    )


def _write_csv(path: Path, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Experiment config file (INI-style key-value sections)

_ALLOWED_KEYS = {
    "data": {"defendants", "survey", "label_source", "label_mode"},
    "experiment": {
        "mode",
        "train_size",
        "test_size",
        "n_repeats",
        "k_neighbors",
        "seed",
        "sigma_train",
        "sigma_test",
        "triplet_subsample",
        "triplet_variant",
        "menu",
    },
    "sweep": {"sigma_train_list", "sigma_test_list"},
    "learners": {
        "alpha",
        "mmc_form",
        "lmnn_k_targets",
        "lmnn_mu",
        "lsml_max_iter",
        "lsml_tol",
        "lmnn_max_iter",
        "lmnn_tol",
        "mmc_max_iter",
        "mmc_tol",
    },
}


_CONFIG_KEY_ALIASES = {"rng_seed": "seed"}  # ExperimentConfig field -> config key


@dataclass(frozen=True)
class RunSpec:
    mode: str
    defendants: Path
    survey: Path | None
    label_source: str
    label_mode: str
    menu: tuple[str, ...]
    config: ExperimentConfig
    sigma_train_list: tuple[float, ...]
    sigma_test_list: tuple[float, ...]


def _typed(section: str, key: str, raw: str, cast):
    try:
        return cast(raw)
    except ValueError:
        raise ConfigurationError(f"config [{section}] {key}: cannot parse {raw!r}") from None


def _float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    items = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not items:
        raise ConfigurationError(f"config [{section}] {key}: empty list")
    values = tuple(_typed(section, key, tok, float) for tok in items)
    for value in values:
        require_finite(f"config [{section}] {key}", value)
        if value < 0:
            raise ConfigurationError(f"config [{section}] {key}: must be nonnegative, got {value}")
    return values


def _learner_names(raw: str) -> tuple[str, ...]:
    menu = tuple(tok.strip() for tok in raw.split(",") if tok.strip())
    if not menu:
        raise ConfigurationError("config [experiment] menu: empty list")
    for name in menu:
        if name not in DEFAULT_MENU:
            raise ConfigurationError(
                f"config [experiment] menu: unknown learner {name!r} "
                f"(known: {', '.join(DEFAULT_MENU)})"
            )
        if menu.count(name) > 1:
            raise ConfigurationError(f"config [experiment] menu: learner {name!r} repeated")
    return menu


def _experiment_config(parser: configparser.ConfigParser, overrides: dict) -> ExperimentConfig:
    """Each field from its command-line override, else its config key, else its default."""
    values = {}
    for spec in fields(ExperimentConfig):
        key = _CONFIG_KEY_ALIASES.get(spec.name, spec.name)
        section = next(s for s, keys in _ALLOWED_KEYS.items() if key in keys)
        if overrides.get(key) is not None:
            values[spec.name] = overrides[key]
        elif parser.has_option(section, key):
            raw = parser.get(section, key)
            values[spec.name] = _typed(section, key, raw, type(spec.default))
    return ExperimentConfig(**values)


def read_run_spec(config_path, overrides: dict | None = None) -> RunSpec:
    config_path = Path(config_path)
    if not config_path.exists():
        raise ConfigurationError(f"config file not found: {config_path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(config_path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse config {config_path}: {exc}") from exc
    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigurationError(f"config: unknown section [{section}]")
        for key in parser[section]:
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigurationError(f"config [{section}]: unknown key {key!r}")
    overrides = overrides or {}
    base = config_path.parent

    def get(section, key, default=None):
        if parser.has_option(section, key):
            return parser.get(section, key)
        return default

    defendants_raw = get("data", "defendants")
    if defendants_raw is None:
        raise ConfigurationError("config [data] must set 'defendants'")
    defendants = (base / defendants_raw).resolve()
    survey_raw = get("data", "survey")
    survey = (base / survey_raw).resolve() if survey_raw else None
    label_source = get("data", "label_source", "compas")
    if label_source not in ("compas", "survey"):
        raise ConfigurationError(f"config [data] label_source must be compas|survey, got {label_source!r}")
    label_mode = overrides.get("label_mode") or get("data", "label_mode", "pooled_median")
    parse_label_mode(label_mode)
    if label_source == "survey" and survey is None:
        raise ConfigurationError("config [data] label_source=survey requires 'survey'")

    mode = get("experiment", "mode", "figure1")
    if mode not in ("figure1", "sweep"):
        raise ConfigurationError(f"config [experiment] mode must be figure1|sweep, got {mode!r}")
    menu = _learner_names(get("experiment", "menu", ", ".join(DEFAULT_MENU)))
    config = _experiment_config(parser, overrides)
    sweep_train = get("sweep", "sigma_train_list", "0, 2")
    sweep_test = get("sweep", "sigma_test_list", "0, 2, 4, 6")
    return RunSpec(
        mode=mode,
        defendants=defendants,
        survey=survey,
        label_source=label_source,
        label_mode=label_mode,
        menu=menu,
        config=config,
        sigma_train_list=_float_list("sweep", "sigma_train_list", sweep_train),
        sigma_test_list=_float_list("sweep", "sigma_test_list", sweep_test),
    )


def _load_run_dataset(spec: RunSpec) -> LabeledDataset:
    defendants = load_encoded_defendants(spec.defendants)
    if spec.label_source == "compas":
        return defendants
    survey = load_survey(spec.survey)
    return attach_labels(defendants, survey, spec.label_mode)


# ---------------------------------------------------------------------------
# Report rendering


def _fmt_cell(cell: CellStats | None) -> str:
    if cell is None:
        return "N/A"
    return f"{cell.mean:.4f} ± {cell.std:.4f}"


def _stat_fields(cell: CellStats | None) -> list[str]:
    """The mean, std and n_repeats fields of a report or sweep CSV row."""
    if cell is None:
        return ["", "", "0"]
    return [repr(cell.mean), repr(cell.std), str(cell.n_repeats)]


def render_report_text(report: EvalReport) -> str:
    width = 24
    lines = ["per-loss mean ± sample standard deviation over repeats", ""]
    lines.append("metric".ljust(12) + "".join(name.rjust(width) for name in report.loss_names))
    for metric in report.metric_names:
        cells = [_fmt_cell(report.cell(metric, loss)) for loss in report.loss_names]
        lines.append(metric.ljust(12) + "".join(c.rjust(width) for c in cells))
    lines.append("")
    for key in sorted(report.provenance):
        lines.append(f"{key}: {report.provenance[key]}")
    return "\n".join(lines) + "\n"


def report_csv_rows(report: EvalReport) -> list[list[str]]:
    rows = [["metric", "loss", "mean", "std", "n_repeats"]]
    for metric in report.metric_names:
        for loss in report.loss_names:
            rows.append([metric, loss, *_stat_fields(report.cell(metric, loss))])
    return rows


def render_sweep_text(result: SweepResult) -> str:
    width = 22
    lines = ["triplet-violation loss, mean ± sample standard deviation over repeats", ""]
    lines.append("sigma_t".ljust(10) + "".join(c.rjust(width) for c in result.columns))
    for sigma_t in result.sigma_test_values:
        cells = [_fmt_cell(result.cells[(sigma_t, name)]) for name in result.columns]
        lines.append(f"{sigma_t:g}".ljust(10) + "".join(c.rjust(width) for c in cells))
    lines.append("")
    for key in sorted(result.provenance):
        lines.append(f"{key}: {result.provenance[key]}")
    return "\n".join(lines) + "\n"


def sweep_csv_rows(result: SweepResult) -> list[list[str]]:
    rows = [["sigma_test", "metric", "mean", "std", "n_repeats"]]
    for sigma_t in result.sigma_test_values:
        for name in result.columns:
            rows.append([f"{sigma_t:g}", name, *_stat_fields(result.cells[(sigma_t, name)])])
    return rows


def _file_safe(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")


def _write_fitted_metrics(out_dir: Path, outcomes, names) -> None:
    """Save each repeat's metric of every named menu entry whose fit succeeded."""
    for outcome in outcomes:
        repeat_dir = out_dir / "metrics" / f"repeat_{outcome.repeat:02d}"
        for name in names:
            if name in outcome.metrics:
                repeat_dir.mkdir(parents=True, exist_ok=True)
                save_metric(outcome.metrics[name], repeat_dir / f"{_file_safe(name)}.txt")


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest(defendants_path, survey_path, schema_path, out_dir) -> dict:
    schema: FeatureSchema = (
        parse_schema_manifest(schema_path) if schema_path else default_schema()
    )
    defendants = load_defendants(defendants_path, schema)
    survey = load_survey(survey_path)
    surveyed = {rec.defendant_id for rec in survey}
    known = set(defendants.ids or ())
    missing = sorted(surveyed - known)
    if missing:
        raise IngestionError(
            "survey references defendants missing from the table: "
            + ", ".join(missing[:5])
            + (" ..." if len(missing) > 5 else "")
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_encoded_defendants(defendants, out_dir / "defendants_encoded.csv")
    rows = [
        ["respondent_id", "defendant_id", "q1_recidivism", "q2_bail", "q3_confidence", "two_year_recid"]
    ]
    for rec in survey:
        rows.append(
            [
                rec.respondent_id,
                rec.defendant_id,
                str(rec.recidivism_prediction),
                "yes" if rec.bail_granted else "no",
                str(rec.confidence),
                "1" if rec.ground_truth_recidivated else "0",
            ]
        )
    _write_csv(out_dir / "survey_canonical.csv", rows)
    summary = {
        "defendants": defendants.n,
        "encoded_dimension": defendants.d,
        "survey_records": len(survey),
        "respondents": len({r.respondent_id for r in survey}),
        "defendants_surveyed": len(surveyed),
    }
    text = "".join(f"{key} = {value}\n" for key, value in summary.items())
    _write_text(out_dir / "ingest_summary.txt", text)
    print(text, end="")
    return summary


def cmd_experiment(config_path, out_dir="out", overrides=None, threads=1) -> int:
    spec = read_run_spec(config_path, overrides)
    dataset = _load_run_dataset(spec)
    out_dir = Path(out_dir)
    if spec.mode == "sweep":
        result = sigma_sweep(
            spec.config, dataset, spec.sigma_train_list, spec.sigma_test_list, threads=threads
        )
        if all(cell is None for cell in result.cells.values()):
            raise NumericalError("every sweep cell is empty; no report produced")
        _write_csv(out_dir / "sweep.csv", sweep_csv_rows(result))
        _write_text(out_dir / "sweep.txt", render_sweep_text(result))
        # the Euclidean column is no fit, so the sweep saves only the LSML metrics
        _write_fitted_metrics(out_dir, result.outcomes, result.columns[1:])
        print(render_sweep_text(result), end="")
        return 0
    menu = build_learner_menu(spec.menu, spec.config)
    result = run_experiment_detailed(spec.config, dataset, menu, threads=threads)
    if not result.report.cells:
        raise NumericalError("every learner failed on every repeat; no report produced")
    _write_csv(out_dir / "report.csv", report_csv_rows(result.report))
    _write_text(out_dir / "report.txt", render_report_text(result.report))
    _write_fitted_metrics(out_dir, result.outcomes, result.report.metric_names)
    print(render_report_text(result.report), end="")
    return 0


def cmd_report_survey(survey_path, out_dir="out", confidence_threshold=4) -> int:
    records = load_survey(survey_path)
    table1 = bail_rate_table(records)
    table2 = confidence_accuracy_table(records, confidence_threshold)
    out_dir = Path(out_dir)
    _write_text(out_dir / "table1_bail_rates.txt", render_bail_rate_text(table1))
    _write_csv(out_dir / "table1_bail_rates.csv", bail_rate_csv_rows(table1))
    _write_text(out_dir / "table2_confidence.txt", render_confidence_accuracy_text(table2))
    _write_csv(out_dir / "table2_confidence.csv", confidence_accuracy_csv_rows(table2))
    print(render_bail_rate_text(table1))
    print(render_confidence_accuracy_text(table2), end="")
    return 0


def cmd_dump_triplets(data_path, sigma, variant, out_path) -> int:
    dataset = load_encoded_defendants(data_path)
    total = describe_triplets(dataset, sigma, variant).total  # checks the arguments up front
    # the set grows as n^3, so rows are written one anchor's block at a time
    blocks = triplet_blocks(dataset, sigma, variant)
    rows = itertools.chain.from_iterable(block.tolist() for block in blocks)
    _write_csv(Path(out_path), itertools.chain([["a", "b", "c"]], rows))
    print(f"wrote {total} triplets to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are exit 1
        raise ConfigurationError(f"usage: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="fairmetric", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="validate raw CSVs and write canonical copies")
    p_ingest.add_argument("--defendants", required=True)
    p_ingest.add_argument("--survey", required=True)
    p_ingest.add_argument("--schema", default=None, help="schema manifest (default: built-in)")
    p_ingest.add_argument("--out-dir", default="out")

    p_exp = sub.add_parser("experiment", help="run the learner comparison or sigma sweep")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--threads", type=int, default=1)
    p_exp.add_argument("--out-dir", default="out")
    p_exp.add_argument("--label-mode", default=None,
                       help="per_respondent:<id> | pooled_median | pooled_rounded_mean")
    p_exp.add_argument("--triplet-variant", choices=TRIPLET_VARIANTS, default=None)

    p_rep = sub.add_parser("report-survey", help="reproduce the survey analysis tables")
    p_rep.add_argument("--survey", required=True)
    p_rep.add_argument("--confidence-threshold", type=int, default=4)
    p_rep.add_argument("--out-dir", default="out")

    p_dump = sub.add_parser("dump-triplets", help="write a triplet constraint set as CSV")
    p_dump.add_argument("--data", required=True, help="canonical encoded defendants CSV")
    p_dump.add_argument("--sigma", type=float, required=True)
    p_dump.add_argument("--triplet-variant", choices=TRIPLET_VARIANTS, default="literal")
    p_dump.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "ingest":
            cmd_ingest(args.defendants, args.survey, args.schema, args.out_dir)
            return 0
        if args.command == "experiment":
            if args.threads < 1:
                parser.error(f"argument --threads: must be at least 1, got {args.threads}")
            overrides = {
                "seed": args.seed,
                "label_mode": args.label_mode,
                "triplet_variant": args.triplet_variant,
            }
            overrides = {k: v for k, v in overrides.items() if v is not None}
            return cmd_experiment(args.config, args.out_dir, overrides, threads=args.threads)
        if args.command == "report-survey":
            return cmd_report_survey(args.survey, args.out_dir, args.confidence_threshold)
        if args.command == "dump-triplets":
            return cmd_dump_triplets(args.data, args.sigma, args.triplet_variant, args.out)
        raise ConfigurationError(f"unknown command {args.command!r}")
    except FairmetricError as exc:
        print(f"fairmetric: error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
