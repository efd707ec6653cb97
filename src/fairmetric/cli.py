"""Batch command-line entry point.

Subcommands:
  ingest         validate raw CSVs, write canonical encoded copies + a summary
  experiment     run the figure-style learner comparison or the sigma sweep
  report-survey  reproduce the bail-rate and confidence-accuracy tables
  dump-triplets  write a triplet constraint set as CSV (columns a,b,c)

Each command writes its files into a fresh `.partial-*` stage in its out dir, made
before any input is read; on success each top-level entry replaces the out dir's
entry of that name (`metrics/` as a whole) and other entries stay; a failure moves
nothing. A killed run can leave a `.partial-*` directory that no run reads or removes.

Exit codes: 0 success, 1 usage/config error or an output path that cannot be
written, 2 data error, 3 numerical failure.
All randomness derives from one root seed, so reruns with the same config are
byte-identical at a fixed BLAS thread count: the fits' matrix products sum in
an order that depends on it, so an MMC cell can differ between one and two
OpenBLAS threads. CI, the benchmark and the tools/ gates pin one
(OPENBLAS_NUM_THREADS=1).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import errno
import itertools
import os
import re
import sys
import tempfile
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .constraints import describe_triplets, triplet_blocks
from .core import (
    TRIPLET_VARIANTS,
    EvalReport,
    ExperimentConfig,
    LabeledDataset,
    check_config_fields,
    config_field,
    config_key,
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
    encoded_feature,
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
    table = read_csv(path, "encoded defendants", encoded_feature)
    return defendants_from_table(table, encoded_schema(table), "encoded")


# ---------------------------------------------------------------------------
# Experiment config file (INI-style key-value sections)


@dataclass(frozen=True)
class RunSpec:
    """One `experiment` run: its config file's [data] and [sweep] keys, its mode
    and menu, and the `ExperimentConfig` that holds every other key."""

    defendants: Path = config_field("data")
    survey: Path | None = config_field("data", None)
    label_source: str = config_field("data", "compas", choices=("compas", "survey"))
    label_mode: str = config_field("data", "pooled_median")
    mode: str = config_field("experiment", "figure1", choices=("figure1", "sweep"))
    menu: tuple[str, ...] = config_field("experiment", DEFAULT_MENU, choices=DEFAULT_MENU)
    sigma_train_list: tuple[float, ...] = config_field("sweep", (0.0, 2.0), sign="nonnegative")
    sigma_test_list: tuple[float, ...] = config_field(
        "sweep", (0.0, 2.0, 4.0, 6.0), sign="nonnegative"
    )
    config: ExperimentConfig = field(default_factory=ExperimentConfig)

    def __post_init__(self):
        check_config_fields(self)
        parse_label_mode(self.label_mode)
        if self.label_source == "survey" and self.survey is None:
            raise ConfigurationError("config [data] label_source=survey requires 'survey'")
        require_distinct_sigmas("sigma_train_list", self.sigma_train_list)
        require_distinct_sigmas("sigma_test_list", self.sigma_test_list)


# config key -> (section, the dataclass it sets, its field, the field's type)
_CONFIG_KEYS = {
    config_key(spec): (spec.metadata["section"], owner, spec, hints[spec.name])
    for owner in (RunSpec, ExperimentConfig)
    for hints in [get_type_hints(owner)]
    for spec in fields(owner)
    if "section" in spec.metadata
}
_ALLOWED_KEYS = {
    section: {key for key, (at, *_) in _CONFIG_KEYS.items() if at == section}
    for section, *_ in _CONFIG_KEYS.values()
}


def _parse(kind, raw: str, base: Path):
    """One config value by its field's type: a number or string, a path relative to
    the config file, or a comma list of either."""
    if get_origin(kind) is tuple:  # tuple[str, ...] or tuple[float, ...]
        item = get_args(kind)[0]
        return tuple(item(tok.strip()) for tok in raw.split(",") if tok.strip())
    if Path in (kind, *get_args(kind)):  # Path or Path | None
        if not raw:
            raise ValueError("empty path")
        return (base / raw).resolve()
    return kind(raw)


def read_run_spec(config_path, overrides: dict | None = None) -> RunSpec:
    """Read a config file; `overrides` maps config keys to values that replace the file's."""
    config_path = Path(config_path)
    if not config_path.exists():
        raise ConfigurationError(f"config file not found: {config_path}")
    # no header can name the section "", so [DEFAULT] reads as an ordinary, unknown section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    try:
        with config_path.open(encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigurationError(f"cannot parse config {config_path}: {exc}") from exc
    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigurationError(f"config: unknown section [{section}]")
        for key in parser[section]:
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigurationError(f"config [{section}]: unknown key {key!r}")
    overrides = overrides or {}
    values = {RunSpec: {}, ExperimentConfig: {}}
    for key, (section, owner, spec, kind) in _CONFIG_KEYS.items():
        raw = overrides.get(key)
        if raw is None:
            raw = parser.get(section, key, fallback=None)
        if raw is None:
            if spec.default is MISSING:
                raise ConfigurationError(f"config [{section}] must set {key!r}")
            continue
        try:
            values[owner][spec.name] = _parse(kind, str(raw), config_path.parent)
        except ValueError:
            raise ConfigurationError(f"config [{section}] {key}: cannot parse {raw!r}") from None
    return RunSpec(config=ExperimentConfig(**values[ExperimentConfig]), **values[RunSpec])


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


def _write_fitted_metrics(out_dir: Path, fits, unsaved) -> None:
    """Save the metric of every fit that returned one, except the fits of the entries `unsaved`."""
    for fit in fits:
        if fit.metric is not None and fit.entry not in unsaved:
            repeat_dir = out_dir / "metrics" / f"repeat_{fit.repeat:02d}"
            repeat_dir.mkdir(parents=True, exist_ok=True)
            save_metric(fit.metric, repeat_dir / f"{_file_safe(fit.entry)}.txt")


# ---------------------------------------------------------------------------
# Commands


@contextlib.contextmanager
def _publishing(out_dir):
    """Yield a fresh stage in `out_dir`; when the block returns, move each top-level entry
    onto `out_dir` (a directory as a whole tree). If the block raises or an entry would land
    on one of the other kind, nothing moves; the stage and any directory made are removed."""
    out_dir = Path(out_dir)
    made = list(itertools.takewhile(lambda p: not p.exists(), (out_dir, *out_dir.parents)))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix=".partial-", dir=out_dir) as stage:
            stage = Path(stage)
            yield stage
            moves = [(entry, out_dir / entry.name) for entry in sorted(stage.iterdir())]
            for entry, dest in moves:  # every check before the first move
                if dest.exists() and dest.is_dir() != entry.is_dir():
                    code = errno.EISDIR if dest.is_dir() else errno.ENOTDIR
                    raise OSError(code, os.strerror(code), str(dest))
            for entry, dest in moves:
                if dest.is_dir():  # the old tree leaves with the stage, after the new lands
                    dest.rename(stage / f".replaced-{entry.name}")
                entry.replace(dest)
    except BaseException:
        for path in made:  # deepest first
            with contextlib.suppress(OSError):
                path.rmdir()
        raise


def cmd_ingest(defendants_path, survey_path, schema_path, out_dir) -> dict:
    with _publishing(out_dir) as stage:
        schema = parse_schema_manifest(schema_path) if schema_path else default_schema()
        defendants = load_defendants(defendants_path, schema)
        survey = load_survey(survey_path)
        surveyed = set(survey.defendant_ids)
        require_known_defendants(surveyed, defendants.ids)
        write_encoded_defendants(defendants, stage / "defendants_encoded.csv")
        write_survey(survey, stage / "survey_canonical.csv")
        summary = {
            "defendants": defendants.n,
            "encoded_dimension": defendants.d,
            "survey_records": len(survey),
            "respondents": len(set(survey.respondent_ids)),
            "defendants_surveyed": len(surveyed),
        }
        text = "".join(f"{key} = {value}\n" for key, value in summary.items())
        (stage / "ingest_summary.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return summary


def cmd_experiment(config_path, out_dir, overrides, threads) -> int:
    with _publishing(out_dir) as stage:  # before any input is read, not after every fit
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
        text = render_report_text(report, layout)
        write_csv(stage / f"{layout.stem}.csv", report_csv_rows(report, layout))
        (stage / f"{layout.stem}.txt").write_text(text, encoding="utf-8")
        _write_fitted_metrics(stage, report.fits, layout.unsaved)
    print(text, end="")
    return 0


def cmd_report_survey(survey_path, out_dir, confidence_threshold) -> int:
    with _publishing(out_dir) as stage:
        survey = load_survey(survey_path)
        table1 = bail_rate_table(survey)
        table2 = confidence_accuracy_table(survey, confidence_threshold)
        text1, text2 = render_bail_rate_text(table1), render_confidence_accuracy_text(table2)
        (stage / "table1_bail_rates.txt").write_text(text1, encoding="utf-8")
        write_csv(stage / "table1_bail_rates.csv", bail_rate_csv_rows(table1))
        (stage / "table2_confidence.txt").write_text(text2, encoding="utf-8")
        write_csv(stage / "table2_confidence.csv", confidence_accuracy_csv_rows(table2))
    print(text1)
    print(text2, end="")
    return 0


def cmd_dump_triplets(data_path, sigma, variant, out_path) -> int:
    with _publishing(Path(out_path).parent) as stage:
        dataset = load_encoded_defendants(data_path)
        total = describe_triplets(dataset, sigma, variant).total  # checks the arguments up front
        # the set grows as n^3, so rows are written one anchor's block at a time
        blocks = triplet_blocks(dataset, sigma, variant)
        rows = itertools.chain.from_iterable(block.tolist() for block in blocks)
        write_csv(stage / Path(out_path).name, itertools.chain([["a", "b", "c"]], rows))
    print(f"wrote {total} triplets to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are exit 1
        raise ConfigurationError(f"usage: {message}")


def _output_path(value: str) -> str:
    if not value:  # else it would silently mean the working directory
        raise argparse.ArgumentTypeError("must not be empty")
    return value


def _output_file(value: str) -> str:
    if Path(_output_path(value)).name in ("", ".."):  # ".", "..", "/" or "<dir>/.."
        raise argparse.ArgumentTypeError(f"names a directory, not a file: {value!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="fairmetric", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="validate raw CSVs and write canonical copies")
    p_ingest.add_argument("--defendants", required=True)
    p_ingest.add_argument("--survey", required=True)
    p_ingest.add_argument("--schema", default=None, help="schema manifest (default: built-in)")
    p_ingest.add_argument("--out-dir", type=_output_path, default="out")

    p_exp = sub.add_parser("experiment", help="run the learner comparison or sigma sweep")
    p_exp.add_argument("--config", required=True)
    # --seed, --label-mode and --triplet-variant replace their config keys' values
    p_exp.add_argument("--seed", default=None, help="nonnegative integer")
    p_exp.add_argument("--threads", type=int, default=1)
    p_exp.add_argument("--out-dir", type=_output_path, default="out")
    p_exp.add_argument("--label-mode", default=None,
                       help="per_respondent:<id> | pooled_median | pooled_rounded_mean")
    p_exp.add_argument("--triplet-variant", default=None, help=" | ".join(TRIPLET_VARIANTS))

    p_rep = sub.add_parser("report-survey", help="reproduce the survey analysis tables")
    p_rep.add_argument("--survey", required=True)
    p_rep.add_argument("--confidence-threshold", type=int, default=4)
    p_rep.add_argument("--out-dir", type=_output_path, default="out")

    p_dump = sub.add_parser("dump-triplets", help="write a triplet constraint set as CSV")
    p_dump.add_argument("--data", required=True, help="canonical encoded defendants CSV")
    p_dump.add_argument("--sigma", type=float, required=True)
    p_dump.add_argument("--triplet-variant", choices=TRIPLET_VARIANTS, default="literal")
    p_dump.add_argument("--out", type=_output_file, required=True)
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
            return cmd_experiment(args.config, args.out_dir, overrides, args.threads)
        if args.command == "report-survey":
            return cmd_report_survey(args.survey, args.out_dir, args.confidence_threshold)
        return cmd_dump_triplets(args.data, args.sigma, args.triplet_variant, args.out)
    except FairmetricError as exc:
        print(f"fairmetric: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # every input is read through checks that raise FairmetricError
        where = f" {exc.filename}" if exc.filename else ""
        print(f"fairmetric: error: cannot write{where}: {exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
