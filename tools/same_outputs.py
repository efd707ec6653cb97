"""Check that two fairmetric source trees write byte-identical outputs on the benchmark's inputs.

    python3 tools/same_outputs.py OLD_SRC NEW_SRC [--seeds 1 2]

OLD_SRC and NEW_SRC are directories holding a `fairmetric` package, such as
the `src/` of two checkouts. For each seed and each workload of
`perfbench/fixtures.py`, the inputs are written once, by this checkout's
fixtures. Then `fairmetric experiment` runs on every dataset from each tree,
in a subprocess with one BLAS thread and the workload's `--threads`. Every
output file, the exit status and stdout must match. `dump-triplets` runs
too, once per variant, on the first `smoke_figure1` dataset of each seed.

Prints each difference and exits 1 on any difference or any failed run, 0
when everything matches. Reads `perfbench/` and writes nothing under it; all
files go to a temporary directory that is removed at the end.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # importing the fixtures must leave no cache under perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))

import fixtures  # noqa: E402

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_CLI = "import sys; from fairmetric.cli import main; sys.exit(main(sys.argv[1:]))"
STATUS = "<exit status and stdout>"  # compared along with the files; no file has this name
DUMPS = (("literal", "0"), ("symmetric", "1"))  # (variant, sigma) for dump-triplets
DUMP_WORKLOAD = "smoke_figure1"


def run_cli(src: Path, args: list[str], out_dir: Path) -> dict[str, bytes]:
    """Run the CLI from `src` inside out_dir; return its status line, stdout and every file written."""
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in BLAS_THREADS})
    done = subprocess.run(
        [sys.executable, "-c", RUN_CLI, *args], cwd=out_dir, env=env, capture_output=True
    )
    outputs = {STATUS: b"exit %d\n" % done.returncode + done.stdout}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            outputs[str(path.relative_to(out_dir))] = path.read_bytes()
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace"))
    return outputs


def compare(label: str, args: list[str], trees: dict[str, Path], work: Path) -> tuple[int, list[str]]:
    """Run `args` from both trees; return the number of files compared and the problems found."""
    old, new = (run_cli(src, args, work / side / label) for side, src in trees.items())
    problems = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            problems.append(f"{label}: {name} written by one tree only")
        elif old[name] != new[name]:
            problems.append(f"{label}: {name} differs")
    for side, outputs in zip(trees, (old, new)):
        if not outputs[STATUS].startswith(b"exit 0\n"):
            problems.append(f"{label}: the {side} tree's run failed")
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
