"""Check that two fairmetric source trees write byte-identical outputs on the benchmark's inputs.

    python3 tools/same_outputs.py OLD_SRC NEW_SRC [--seeds 1 2]

OLD_SRC and NEW_SRC are directories holding a `fairmetric` package, such as
the `src/` of two checkouts. For each seed and each workload of
`perfbench/fixtures.py`, the inputs are written once, by this checkout's
fixtures. Then `fairmetric experiment` runs on every dataset from each tree,
in a subprocess with one BLAS thread and the workload's `--threads`. Every
output file, the exit status and stdout must match. `dump-triplets` runs
too, once per variant, on the first `smoke_figure1` dataset of each seed.
No workload leaves a report cell empty, so four configs derived from the first
`smoke_figure1` and `smoke_sweep` datasets run as well: one with N/A cells and
one where every cell is empty (exit 3) per mode.

Prints each difference and exits 1 on any difference or any run that exits
with another status than expected, 0 when everything matches. A differing
metric file (`metrics/.../*.txt`) is shown as its largest entry difference,
relative to its largest entry; any other file as the lines that differ,
old -> new. Reads `perfbench/` and writes nothing under it; all files
(derived configs included) go to a temporary directory that is removed at
the end.
"""

from __future__ import annotations

import argparse
import configparser
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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
# workload -> (name, keys set in its first dataset's config, expected exit status)
DERIVED = {
    "smoke_figure1": (
        ("na_triplet_cells", {"experiment": {"sigma_test": "50"}}, 0),
        ("every_fit_fails", {"experiment": {"menu": "lsml", "sigma_train": "9"}}, 3),
    ),
    "smoke_sweep": (
        ("na_column", {"sweep": {"sigma_train_list": "0, 9"}}, 0),
        ("every_cell_empty", {"sweep": {"sigma_test_list": "50"}}, 3),
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


def derive_config(config: Path, name: str, edits: dict) -> Path:
    """Write a copy of `config` beside it as <name>.ini, with the keys in `edits` set."""
    parser = configparser.ConfigParser()
    parser.read(config, encoding="utf-8")
    parser.read_dict(edits)
    derived = config.with_name(f"{name}.ini")
    with derived.open("w", encoding="utf-8") as fh:
        parser.write(fh)
    return derived


def describe(name: str, old: bytes, new: bytes) -> list[str]:
    """How `new` differs from `old`: for a metric file its largest entry
    difference, relative to its largest entry; else the differing lines (CSV
    rows), old -> new."""
    old_lines = old.decode(errors="replace").splitlines()
    new_lines = new.decode(errors="replace").splitlines()
    if name.startswith("metrics") and name.endswith(".txt"):
        a = np.array([float(v) for line in old_lines[1:] for v in line.split()])
        b = np.array([float(v) for line in new_lines[1:] for v in line.split()])
        if a.shape != b.shape:
            return [f"{a.size} entries -> {b.size} entries"]
        # relative to the largest entry: entries near zero carry only rounding noise
        at = int(np.argmax(np.abs(a - b)))
        rel = abs(a[at] - b[at]) / max(float(np.abs(a).max()), np.finfo(float).tiny)
        return [f"largest entry difference {rel:.3e}, relative to the largest entry "
                f"(entry {at}: {float(a[at])!r} -> {float(b[at])!r})"]
    width = max(len(old_lines), len(new_lines))
    old_lines += ["<none>"] * (width - len(old_lines))
    new_lines += ["<none>"] * (width - len(new_lines))
    moved = [(i, a, b) for i, (a, b) in enumerate(zip(old_lines, new_lines)) if a != b]
    shown = [f"line {i + 1}: {a} -> {b}" for i, a, b in moved[:MAX_LINES]]
    if len(moved) > MAX_LINES:
        shown.append(f"... and {len(moved) - MAX_LINES} more differing lines")
    return shown


def compare(
    label: str, args: list[str], trees: dict[str, Path], work: Path, status: int = 0
) -> tuple[int, list[str]]:
    """Run `args` from both trees; return the number of files compared and the problems found."""
    runs = [run_cli(src, args, work / side / label) for side, src in trees.items()]
    (old, _), (new, _) = runs
    problems = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            problems.append(f"{label}: {name} written by one tree only")
        elif old[name] != new[name]:
            details = "".join(f"\n    {line}" for line in describe(name, old[name], new[name]))
            problems.append(f"{label}: {name} differs{details}")
    for side, (outputs, stderr) in zip(trees, runs):
        if not outputs[STATUS].startswith(b"exit %d\n" % status):
            sys.stderr.write(stderr.decode(errors="replace"))
            problems.append(f"{label}: the {side} tree's run did not exit {status}")
    return len(old) - 1, problems


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
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        work = Path(tmp)
        for seed in args.seeds:
            for workload in fixtures.WORKLOADS.values():
                configs = fixtures.write_fixtures(workload, seed, work / "inputs" / f"seed{seed}" / workload.name)
                files = 0
                for config in configs:
                    label = f"seed{seed}/{workload.name}/{config.parent.name}"
                    run = ["experiment", "--config", str(config), "--out-dir", "."]
                    count, found = compare(label, run + ["--threads", str(workload.threads)], trees, work)
                    files += count
                    problems += found
                print(f"seed {seed} {workload.name}: {len(configs)} datasets, {files} files compared")
                for name, edits, status in DERIVED.get(workload.name, ()):
                    config = derive_config(configs[0], name, edits)
                    run = ["experiment", "--config", str(config), "--out-dir", ".",
                           "--threads", str(workload.threads)]
                    label = f"seed{seed}/{workload.name}/{name}"
                    files, found = compare(label, run, trees, work, status)
                    problems += found
                    print(f"seed {seed} {workload.name} {name} (exit {status}): {files} files compared")
                if workload.name != DUMP_WORKLOAD:
                    continue
                data = configs[0].parent / fixtures.DEFENDANTS_NAME
                for variant, sigma in DUMPS:
                    label = f"seed{seed}/dump-triplets-{variant}-{sigma}"
                    run = ["dump-triplets", "--data", str(data), "--sigma", sigma,
                           "--triplet-variant", variant, "--out", "triplets.csv"]
                    files, found = compare(label, run, trees, work)
                    problems += found
                    print(f"seed {seed} dump-triplets {variant} sigma={sigma}: {files} file compared")
    for problem in problems:
        print(f"same_outputs: {problem}", file=sys.stderr)
    print("identical" if not problems else f"{len(problems)} differences or failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
