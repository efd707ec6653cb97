"""Check that two fairmetric source trees write byte-identical outputs on the benchmark's inputs.

    python3 tools/same_outputs.py OLD_SRC NEW_SRC [--seeds 1 2]

OLD_SRC and NEW_SRC are directories holding a `fairmetric` package, such as
the `src/` of two checkouts. For each seed and each workload of
`perfbench/fixtures.py`, the inputs are written once, by this checkout's
fixtures. Then `fairmetric experiment` runs on every dataset from each tree,
in a subprocess with one BLAS thread and the workload's `--threads`. Every
output file, the exit status and stdout must match. `dump-triplets` runs
too, once per variant, on the first `smoke_figure1` dataset of each seed.
On the first dataset of each workload that takes its labels from a survey,
`report-survey` runs on its survey CSV, and `ingest` on its defendants and
survey CSVs under a schema manifest written to the temporary directory, which
declares `id`, `compas_decile` and every feature column as numeric.
No workload leaves a report cell empty, so four configs derived from the first
`smoke_figure1` and `smoke_sweep` datasets run as well: one with N/A cells and
one where every cell is empty (exit 3) per mode. Two more runs check how the
config is read, both on the first `smoke_figure1` dataset: one passes
`--seed`, `--label-mode` and `--triplet-variant`, and one reads a config that
states every key, each the dataset config leaves unset at its default. No
workload fits MMC's diagonal form, so one more run on that dataset sets
`mmc_form = diagonal`. Only `smoke_sweep` fits on more than one thread, so
one last run on that dataset passes `--threads 2`, and figure1's metric files
are checked from a threaded run too.

Prints each difference and exits 1 on any difference, any run that exits
with another status than expected or any run that leaves a `.partial-*`
entry (a stage the CLI did not remove), 0 when everything matches. A differing
metric file (`metrics/.../*.txt`) is shown as its largest entry difference,
relative to its largest entry; any other file as the lines that differ,
old -> new. After the differences comes one line per workload, over all
seeds and all of its runs: the number of files that differ, and the largest
metric-file move, relative to that file's largest entry. Reads `perfbench/`
and writes nothing under it; all files (derived configs included) go to a
temporary directory that is removed at the end.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # importing the fixtures must leave no cache under perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))

import fixtures  # noqa: E402

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_CLI = "import sys; from fairmetric.cli import main; sys.exit(main(sys.argv[1:]))"
STATUS = "<exit status and stdout>"  # compared along with the files; no file has this name
DUMPS = (("literal", "0"), ("symmetric", "1"))  # (variant, sigma) for dump-triplets
DUMP_WORKLOAD = "smoke_figure1"
MAX_LINES = 10  # differing lines shown per file


class Derived(NamedTuple):
    """A run on a workload's first dataset, under a config derived from its own."""

    name: str
    edits: dict = {}  # {section: {key: value}} set over the dataset's config
    defaults: dict = {}  # the same, set only where the dataset's config leaves a key unset
    flags: tuple = ()  # more `experiment` arguments
    status: int = 0  # the exit status expected


# Every config key at its default, bar `defendants` and `survey`, which have none
# to state: the dataset's config sets them.
EVERY_KEY = {
    "data": {"label_source": "compas", "label_mode": "pooled_median"},
    "experiment": {
        "mode": "figure1", "train_size": "140", "test_size": "60", "n_repeats": "10",
        "k_neighbors": "5", "seed": "0", "sigma_train": "0", "sigma_test": "0",
        "triplet_subsample": "5000", "triplet_variant": "literal",
        "menu": "euclidean, precision, lmnn, mmc, lsml",
    },
    "sweep": {"sigma_train_list": "0, 2", "sigma_test_list": "0, 2, 4, 6"},
    "learners": {
        "alpha": "0.01", "mmc_form": "full", "lmnn_k_targets": "3", "lmnn_mu": "0.5",
        "lsml_max_iter": "1000", "lsml_tol": "1e-6", "lmnn_max_iter": "300",
        "lmnn_tol": "1e-6", "mmc_max_iter": "300", "mmc_tol": "1e-6",
    },
}
FLAGS = ("--seed", "7", "--label-mode", "pooled_rounded_mean", "--triplet-variant", "symmetric")
DERIVED = {
    "smoke_figure1": (
        Derived("na_triplet_cells", edits={"experiment": {"sigma_test": "50"}}),
        Derived("every_fit_fails", edits={"experiment": {"menu": "lsml", "sigma_train": "9"}}, status=3),
        Derived("flag_overrides", flags=FLAGS),
        Derived("every_key", defaults=EVERY_KEY),
        Derived("mmc_diagonal", edits={"learners": {"mmc_form": "diagonal"}}),
        Derived("two_threads", flags=("--threads", "2")),
    ),
    "smoke_sweep": (
        Derived("na_column", edits={"sweep": {"sigma_train_list": "0, 9"}}),
        Derived("every_cell_empty", edits={"sweep": {"sigma_test_list": "50"}}, status=3),
    ),
}


def run_cli(src: Path, args: list[str], out_dir: Path) -> tuple[dict[str, bytes], bytes]:
    """Run the CLI from `src` inside out_dir; return its status line, stdout and every file
    written, and its stderr."""
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in BLAS_THREADS})
    done = subprocess.run(
        [sys.executable, "-c", RUN_CLI, *args], cwd=out_dir, env=env, capture_output=True
    )
    outputs = {STATUS: b"exit %d\n" % done.returncode + done.stdout}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            outputs[str(path.relative_to(out_dir))] = path.read_bytes()
    return outputs, done.stderr


def write_manifest(defendants: Path) -> Path:
    """Write a schema manifest beside `defendants` that reads its feature columns as numeric."""
    header = defendants.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
    lines = ["id_column id", "label_column compas_decile"]
    lines += [f"column {name} numeric" for name in header if name not in ("id", "compas_decile")]
    manifest = defendants.with_name("schema.txt")
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def derive_config(config: Path, derived: Derived) -> Path:
    """Write a copy of `config` beside it as <name>.ini, with the keys of `derived` set."""
    parser = configparser.ConfigParser()
    parser.read_dict(derived.defaults)
    parser.read(config, encoding="utf-8")
    parser.read_dict(derived.edits)
    path = config.with_name(f"{derived.name}.ini")
    with path.open("w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


def describe(name: str, old: bytes, new: bytes) -> tuple[list[str], float]:
    """How `new` differs from `old`, and the move of a metric file.

    For a metric file the lines give its largest entry difference, relative
    to its largest entry, and the move is that ratio (inf when the entry
    count changed). For any other file they give the differing lines (CSV
    rows), old -> new, and the move is 0.
    """
    old_lines = old.decode(errors="replace").splitlines()
    new_lines = new.decode(errors="replace").splitlines()
    if name.startswith("metrics") and name.endswith(".txt"):
        a = np.array([float(v) for line in old_lines[1:] for v in line.split()])
        b = np.array([float(v) for line in new_lines[1:] for v in line.split()])
        if a.shape != b.shape:
            return [f"{a.size} entries -> {b.size} entries"], math.inf
        # relative to the largest entry: entries near zero carry only rounding noise
        at = int(np.argmax(np.abs(a - b)))
        rel = abs(a[at] - b[at]) / max(float(np.abs(a).max()), np.finfo(float).tiny)
        return [f"largest entry difference {rel:.3e}, relative to the largest entry "
                f"(entry {at}: {float(a[at])!r} -> {float(b[at])!r})"], rel
    width = max(len(old_lines), len(new_lines))
    old_lines += ["<none>"] * (width - len(old_lines))
    new_lines += ["<none>"] * (width - len(new_lines))
    moved = [(i, a, b) for i, (a, b) in enumerate(zip(old_lines, new_lines)) if a != b]
    shown = [f"line {i + 1}: {a} -> {b}" for i, a, b in moved[:MAX_LINES]]
    if len(moved) > MAX_LINES:
        shown.append(f"... and {len(moved) - MAX_LINES} more differing lines")
    return shown, 0.0


class Comparison(NamedTuple):
    files: int  # files compared
    problems: list[str]
    differing: int  # files that differ or that one tree alone wrote, not counting STATUS
    largest_move: float  # the largest move describe() gave, 0 when none


def compare(
    label: str, args: list[str], trees: dict[str, Path], work: Path, status: int = 0
) -> Comparison:
    """Run `args` from both trees and compare their outputs."""
    out_dirs = {side: work / side / label for side in trees}
    runs = [run_cli(src, args, out_dirs[side]) for side, src in trees.items()]
    (old, _), (new, _) = runs
    problems, differing, largest = [], 0, 0.0
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) == new.get(name):
            continue
        if name not in old or name not in new:
            problems.append(f"{label}: {name} written by one tree only")
        else:
            lines, move = describe(name, old[name], new[name])
            details = "".join(f"\n    {line}" for line in lines)
            problems.append(f"{label}: {name} differs{details}")
            largest = max(largest, move)
        differing += name != STATUS
    for side, (outputs, stderr) in zip(trees, runs):
        if not outputs[STATUS].startswith(b"exit %d\n" % status):
            sys.stderr.write(stderr.decode(errors="replace"))
            problems.append(f"{label}: the {side} tree's run did not exit {status}")
        for stage in sorted(out_dirs[side].rglob(".partial-*")):
            problems.append(f"{label}: the {side} tree's run left {stage.relative_to(out_dirs[side])}")
    return Comparison(len(old) - 1, problems, differing, largest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    for side, src in trees.items():
        if not (src / "fairmetric" / "__init__.py").is_file():
            parser.error(f"{side} source tree {src} holds no fairmetric package")

    problems: list[str] = []
    moves = {name: [0, 0.0] for name in fixtures.WORKLOADS}  # differing files, largest metric move

    def check(workload: str, label: str, run: list[str], status: int = 0) -> int:
        """compare() a run that belongs to `workload`; return the number of files compared."""
        result = compare(label, run, trees, work, status)
        problems.extend(result.problems)
        tally = moves[workload]
        tally[0] += result.differing
        tally[1] = max(tally[1], result.largest_move)
        return result.files

    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        work = Path(tmp)
        for seed in args.seeds:
            for workload in fixtures.WORKLOADS.values():
                name = workload.name
                configs = fixtures.write_fixtures(workload, seed, work / "inputs" / f"seed{seed}" / name)
                files = 0
                for config in configs:
                    run = ["experiment", "--config", str(config), "--out-dir", ".",
                           "--threads", str(workload.threads)]
                    files += check(name, f"seed{seed}/{name}/{config.parent.name}", run)
                print(f"seed {seed} {name}: {len(configs)} datasets, {files} files compared")
                for derived in DERIVED.get(name, ()):
                    config = derive_config(configs[0], derived)
                    run = ["experiment", "--config", str(config), "--out-dir", ".",
                           "--threads", str(workload.threads), *derived.flags]
                    files = check(name, f"seed{seed}/{name}/{derived.name}", run, derived.status)
                    print(f"seed {seed} {name} {derived.name} (exit {derived.status}): "
                          f"{files} files compared")
                data = configs[0].parent / fixtures.DEFENDANTS_NAME
                if workload.labels == "survey":
                    survey = str(configs[0].parent / fixtures.SURVEY_NAME)
                    ingest = ["ingest", "--defendants", str(data), "--survey", survey,
                              "--schema", str(write_manifest(data)), "--out-dir", "."]
                    report = ["report-survey", "--survey", survey, "--out-dir", "."]
                    for command, run in (("ingest", ingest), ("report-survey", report)):
                        files = check(name, f"seed{seed}/{name}/{command}", run)
                        print(f"seed {seed} {name} {command}: {files} files compared")
                if name != DUMP_WORKLOAD:
                    continue
                for variant, sigma in DUMPS:
                    run = ["dump-triplets", "--data", str(data), "--sigma", sigma,
                           "--triplet-variant", variant, "--out", "triplets.csv"]
                    files = check(name, f"seed{seed}/dump-triplets-{variant}-{sigma}", run)
                    print(f"seed {seed} dump-triplets {variant} sigma={sigma}: {files} file compared")
    for problem in problems:
        print(f"same_outputs: {problem}", file=sys.stderr)
    sys.stderr.flush()
    for name, (differing, largest) in moves.items():
        print(f"{name}: {differing} files differ; largest metric-file move {largest:.3e}, "
              "relative to the file's largest entry")
    print("identical" if not problems else f"{len(problems)} differences or failures")
    return 1 if problems else 0

if __name__ == "__main__":
    sys.exit(main())
