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
import itertools
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .constraints import describe_triplets, triplet_blocks
from .core import (
    TRIPLET_VARIANTS,
    EvalReport,
    ExperimentConfig,
    LabeledDataset,
    require_finite,
)
from .errors import ConfigurationError, FairmetricError, NumericalError
from .evaluation import (
    DEFAULT_MENU,
    build_learner_menu,
    require_distinct_sigmas,
    run_experiment_detailed,
    sigma_sweep,
)
from .ingest import (
    attach_labels,
    default_schema,
    defendants_from_table,
    encoded_schema,
    load_defendants,
    load_survey,
    parse_label_mode,
    parse_schema_manifest,
    read_csv,
    require_known_defendants,
    write_csv,
    write_encoded_defendants,
    write_survey,
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


# ---------------------------------------------------------------------------
# Canonical encoded defendants file: the raw format under the schema its header declares.


def load_encoded_defendants(path) -> LabeledDataset:
    """Load the canonical encoded defendants file that `ingest` writes."""
    with read_csv(path, "encoded defendants") as table:
        return defendants_from_table(table, encoded_schema(table), "encoded")


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
    require_distinct_sigmas(f"config [{section}] {key}", values)
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


@dataclass(frozen=True)
class ReportLayout:
    """How one mode's `EvalReport` reads in its <stem>.txt and <stem>.csv files."""

    stem: str
    title: str
    corner: str  # the text table's row-label header
    label_width: int
    cell_width: int
    row_format: str  # str.format pattern of a row label, in both files
    csv_header: tuple[str, ...]
    unsaved: tuple[str, ...] = ()  # menu entries that get no metric file


LAYOUTS = {
    "figure1": ReportLayout(
        "report", "per-loss mean ± sample standard deviation over repeats", "metric", 12, 24,
        "{}", ("metric", "loss", "mean", "std", "n_repeats"),
    ),
    "sweep": ReportLayout(
        "sweep", "triplet-violation loss, mean ± sample standard deviation over repeats",
        "sigma_t", 10, 22, "{:g}", ("sigma_test", "metric", "mean", "std", "n_repeats"),
        unsaved=("euclidean",),  # the reference column is no fit
    ),
}


def render_report_text(report: EvalReport, layout: ReportLayout) -> str:
    lines = [layout.title, ""]
    header = [c.rjust(layout.cell_width) for c in report.columns]
    lines.append(layout.corner.ljust(layout.label_width) + "".join(header))
    for row in report.rows:
        cells = [report.cell(row, col) for col in report.columns]
        text = ["N/A" if c is None else f"{c.mean:.4f} ± {c.std:.4f}" for c in cells]
        label = layout.row_format.format(row).ljust(layout.label_width)
        lines.append(label + "".join(t.rjust(layout.cell_width) for t in text))
    lines.append("")
    for key in sorted(report.provenance):
        lines.append(f"{key}: {report.provenance[key]}")
    return "\n".join(lines) + "\n"


def report_csv_rows(report: EvalReport, layout: ReportLayout) -> list[list[str]]:
    rows = [list(layout.csv_header)]
    for row in report.rows:
        label = layout.row_format.format(row)
        for col in report.columns:
            c = report.cell(row, col)
            stats = ["", "", "0"] if c is None else [repr(c.mean), repr(c.std), str(c.n_repeats)]
            rows.append([label, col, *stats])
    return rows


def _file_safe(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name).strip("_")


def _write_fitted_metrics(out_dir: Path, outcomes, unsaved) -> None:
    """Save each repeat's metric of every menu entry whose fit succeeded, except those `unsaved`."""
    for outcome in outcomes:
        repeat_dir = out_dir / "metrics" / f"repeat_{outcome.repeat:02d}"
        for name, metric in outcome.metrics.items():
            if name not in unsaved:
                repeat_dir.mkdir(parents=True, exist_ok=True)
                save_metric(metric, repeat_dir / f"{_file_safe(name)}.txt")


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest(defendants_path, survey_path, schema_path, out_dir) -> dict:
    schema = parse_schema_manifest(schema_path) if schema_path else default_schema()
    defendants = load_defendants(defendants_path, schema)
    survey = load_survey(survey_path)
    surveyed = {rec.defendant_id for rec in survey}
    require_known_defendants(surveyed, defendants.ids)
    out_dir = Path(out_dir)
    write_encoded_defendants(defendants, out_dir / "defendants_encoded.csv")
    write_survey(survey, out_dir / "survey_canonical.csv")
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
    if spec.mode == "sweep":
        report = sigma_sweep(
            spec.config, dataset, spec.sigma_train_list, spec.sigma_test_list, threads=threads
        )
    else:
        menu = build_learner_menu(spec.menu, spec.config)
        report = run_experiment_detailed(spec.config, dataset, menu, threads=threads)
    if all(cell is None for cell in report.cells.values()):
        raise NumericalError("every report cell is empty; no report produced")
    layout = LAYOUTS[spec.mode]
    out_dir = Path(out_dir)
    text = render_report_text(report, layout)
    write_csv(out_dir / f"{layout.stem}.csv", report_csv_rows(report, layout))
    _write_text(out_dir / f"{layout.stem}.txt", text)
    _write_fitted_metrics(out_dir, report.outcomes, layout.unsaved)
    print(text, end="")
    return 0


def cmd_report_survey(survey_path, out_dir="out", confidence_threshold=4) -> int:
    records = load_survey(survey_path)
    table1 = bail_rate_table(records)
    table2 = confidence_accuracy_table(records, confidence_threshold)
    out_dir = Path(out_dir)
    _write_text(out_dir / "table1_bail_rates.txt", render_bail_rate_text(table1))
    write_csv(out_dir / "table1_bail_rates.csv", bail_rate_csv_rows(table1))
    _write_text(out_dir / "table2_confidence.txt", render_confidence_accuracy_text(table2))
    write_csv(out_dir / "table2_confidence.csv", confidence_accuracy_csv_rows(table2))
    print(render_bail_rate_text(table1))
    print(render_confidence_accuracy_text(table2), end="")
    return 0


def cmd_dump_triplets(data_path, sigma, variant, out_path) -> int:
    dataset = load_encoded_defendants(data_path)
    total = describe_triplets(dataset, sigma, variant).total  # checks the arguments up front
    # the set grows as n^3, so rows are written one anchor's block at a time
    blocks = triplet_blocks(dataset, sigma, variant)
    rows = itertools.chain.from_iterable(block.tolist() for block in blocks)
    write_csv(Path(out_path), itertools.chain([["a", "b", "c"]], rows))
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
