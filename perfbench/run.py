"""Benchmark of `fairmetric experiment` on seeded synthetic workloads.

    python3 perfbench/run.py --workload figure1_survey --seed 1 --seconds 35 --trace 0

Set-up writes the workload's inputs (`fixtures.py`, in a child process, timed
several times). The run then calls `fairmetric.cli.main(["experiment", ...])`
in this process, over and over until `--seconds` are spent, and checks every
output (`checks.py`).

--trace 0  times untraced invocations: each of the seed's datasets once, in
           order, then dataset 0 again, then more passes while time is left.
           Prints the end-to-end metrics, each taken over the same datasets
           however fast the code is.
--trace 1  alternates untraced and traced invocations on the seed's first
           dataset and prints the per-layer metrics derived from the spans
           (`tracer.py`); the spans are written to the run directory.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; `correct` is false when any output failed a check, and
the problems go to stderr. `--record FILE` also appends the result, with the
environment, as one JSON line for `compare.py`.
"""

import os

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREADS:  # before numpy is imported, here or in a child process
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

try:
    import numpy as np

    import checks
    import fixtures
    import tracer
    from fairmetric.cli import main as fairmetric_main
except ModuleNotFoundError as exc:
    sys.exit(f"perfbench: cannot import numpy or the fairmetric sources under {ROOT / 'src'}: {exc}")

SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "fit_ok_frac": "ratio",
    "fits_converged_frac": "ratio",
    "tv_lsml": "loss",
}


def set_up(workload, seed: int, run_dir: Path) -> tuple[float, list[Path]]:
    """Write the inputs SETUP_REPEATS times in a fresh process; return the median time."""
    inputs = run_dir / "inputs"
    argv = [
        sys.executable, str(Path(fixtures.__file__)), "--workload", workload.name,
        "--seed", str(seed), "--out", str(inputs),
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        subprocess.run(argv, check=True)
        times.append(time.perf_counter() - start)
    configs = [inputs / f"d{j}" / fixtures.CONFIG_NAME for j in range(workload.datasets)]
    return statistics.median(times), configs


def invoke(config: Path, out_dir: Path, threads: int) -> tuple[float, str | None]:
    """One `fairmetric experiment` call; returns (wall seconds, error text or None)."""
    argv = ["experiment", "--config", str(config), "--out-dir", str(out_dir), "--threads", str(threads)]
    err = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = fairmetric_main(argv)
    except Exception:  # an uncaught crash is a failed operation, not the end of the run
        code, error = None, traceback.format_exc()
    elapsed = time.perf_counter() - start
    if code != 0 and error is None:
        error = f"exit code {code}: {err.getvalue().strip()}"
    return elapsed, error


class Run:
    """Counts operations and collects the problems found in their outputs."""

    def __init__(self, workload, run_dir: Path):
        self.workload = workload
        self.run_dir = run_dir
        self.attempted = 0
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.reports: dict[int, bytes] = {}
        self.first: dict[int, checks.Checked] = {}  # dataset -> its first invocation's outputs

    def fail(self, index: int, problem: str) -> None:
        self.failed.add(index)
        self.problems.append(f"invocation {index}: {problem}")

    def invoke_checked(self, index: int, config: Path, dataset: int) -> float | None:
        """Invoke and check the outputs; returns the wall time, or None if anything failed.

        The report must match the earlier reports on the same dataset byte for byte.
        """
        out_dir = self.run_dir / f"out_{index}"
        elapsed, error = invoke(config, out_dir, self.workload.threads)
        self.attempted += 1
        checked = checks.check_output(out_dir, self.workload)
        shutil.rmtree(out_dir, ignore_errors=True)
        if error is not None:
            checked.problems.insert(0, error)
        if checked.report != self.reports.setdefault(dataset, checked.report):
            checked.problems.append(f"report differs from an earlier run on dataset {dataset}")
        for problem in checked.problems:
            self.fail(index, problem)
        self.first.setdefault(dataset, checked)
        return None if checked.problems else elapsed

    def first_loss(self, key: str) -> float:
        """Mean of a report loss over each dataset's first invocation; 0 where none has it."""
        values = [c.losses[key] for c in self.first.values() if key in c.losses]
        return statistics.fmean(values) if values else 0.0


def tree_rss_kb(root: int) -> int:
    """Resident memory of process `root` plus all its descendants (kB); 0 without /proc."""
    children = defaultdict(list)
    try:
        pids = [name for name in os.listdir("/proc") if name.isdigit()]
    except OSError:
        return 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                ppid = int(fh.read().rsplit(b")", 1)[1].split()[1])  # the name may hold spaces
        except (OSError, IndexError, ValueError):
            continue
        children[ppid].append(int(pid))
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/status", "rb") as fh:
                rss = [line.split()[1] for line in fh if line.startswith(b"VmRSS:")]
            total += int(rss[0]) if rss else 0
        except (OSError, IndexError, ValueError):
            continue
    return total


class PeakRss:
    """Peak resident memory of this process and its descendants while the block runs.

    `ru_maxrss` is exact for this process but sees children only one at a
    time, so a thread sums the whole process tree every INTERVAL_S as well.
    Pages that forked workers share are counted once per process.
    """

    INTERVAL_S = 0.1

    def __init__(self):
        self.tree_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while True:
            self.tree_kb = max(self.tree_kb, tree_rss_kb(os.getpid()))
            if self._stop.wait(self.INTERVAL_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return max(own, self.tree_kb) / 1024.0


def measure_end_to_end(run: Run, configs, seconds: float, setup_s: float) -> dict[str, float]:
    """Invoke each dataset once, then dataset 0 again, then cycle on while time is left.

    Every figure covers the same datasets whatever the speed: `run_s` is the
    median over datasets of each one's median invocation time; the fit
    fractions and `tv_lsml` come from each dataset's first invocation.
    """
    times: dict[int, list[float]] = {j: [] for j in range(len(configs))}
    converged: dict[int, tuple[int, int]] = {}  # dataset -> (converged, iterative fits), first run
    start = time.perf_counter()
    index = 0
    with PeakRss() as peak:
        while True:
            dataset = index % len(configs)
            audit = tracer.Tracer()  # wraps only the three fits, to keep each OptimizerTrace
            with audit.installed(tracer.FIT_TARGETS):
                elapsed = run.invoke_checked(index, configs[dataset], dataset)
            if elapsed is not None:
                times[dataset].append(elapsed)
            # a fit that raised has a span but no trace: unconverged
            done = sum(1 for sid, *_ in audit.spans if sid in audit.info and audit.info[sid][1])
            converged.setdefault(dataset, (done, len(audit.spans)))
            index += 1
            spent = time.perf_counter() - start
            upcoming = times[index % len(configs)] or [spent / index]
            if index > len(configs) and spent + statistics.median(upcoming) > seconds:
                break
    medians = [statistics.median(t) for t in times.values() if t]
    fits_ok = sum(c.fits_ok for c in run.first.values())
    fits_attempted = sum(c.fits_attempted for c in run.first.values())
    fits_converged = sum(done for done, _ in converged.values())
    fits_iterative = sum(fits for _, fits in converged.values())
    return {
        "setup_s": setup_s,
        "run_s": statistics.median(medians) if medians else 0.0,
        "peak_rss_mb": peak.mb(),
        "fit_ok_frac": fits_ok / fits_attempted if fits_attempted else 0.0,
        "fits_converged_frac": fits_converged / fits_iterative if fits_iterative else 0.0,
        "tv_lsml": run.first_loss("tv_lsml"),
    }


def measure_per_layer(run: Run, configs, seconds: float) -> dict[str, float]:
    """Alternate untraced and traced invocations on dataset 0; derive metrics from the spans."""
    untraced, traced, derived, all_spans = [], [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = run.invoke_checked(index, configs[0], 0)
        if elapsed is not None:
            untraced.append(elapsed)
        spans = tracer.Tracer()
        with spans.installed():
            elapsed = run.invoke_checked(index + 1, configs[0], 0)
        for problem in tracer.nesting_errors(spans.spans)[:5]:
            run.fail(index + 1, problem)
        if elapsed is not None and index + 1 not in run.failed:
            metrics = tracer.derive_metrics(spans.spans, spans.info, elapsed)
            first = derived[0] if derived else metrics
            for name, value in metrics.items():  # counts repeat exactly on the same inputs
                if tracer.PER_LAYER[name] != "s" and value != first[name]:
                    run.fail(index + 1, f"per-layer count {name} differs from the first traced run")
            traced.append(elapsed)
            derived.append(metrics)
            all_spans.append(spans.spans)
        index += 2
        spent = time.perf_counter() - start
        if spent * (1 + 2 / index) > seconds:  # stop unless another pair still fits
            break
    _write_spans(run.run_dir / "spans.csv", all_spans)
    if not derived:
        return {name: 0.0 for name in tracer.PER_LAYER}
    out = dict(derived[0])
    for name, unit in tracer.PER_LAYER.items():
        if unit == "s" and name in out:
            out[name] = statistics.median(d[name] for d in derived)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced or traced)
    out["learners.mmc.tv"] = run.first_loss("tv_mmc")
    out["learners.lmnn.knn_l1"] = run.first_loss("knn_l1_lmnn")
    return out


def _write_spans(path: Path, invocations) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["invocation", "id", "parent", "name", "start_ns", "end_ns"])
        for number, spans in enumerate(invocations):
            origin = min((s[3] for s in spans), default=0)
            for sid, parent, name, t0, t1 in sorted(spans):
                writer.writerow([number, sid, parent, name, t0 - origin, t1 - origin])


def environment() -> dict:
    info = {var: os.environ[var] for var in BLAS_THREADS}
    info.update(
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=np.__version__,
        openblas=_openblas_version(),
        git_commit=_git_commit(),
    )
    return info


def _openblas_version() -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
    except (KeyError, TypeError, ValueError):
        return "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if head.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(fixtures.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the result as a JSON line here")
    args = parser.parse_args(argv)

    workload = fixtures.WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    setup_s, configs = set_up(workload, args.seed, run_dir)
    run = Run(workload, run_dir)
    if args.trace:
        values, units = measure_per_layer(run, configs, args.seconds), tracer.PER_LAYER
    else:
        values, units = measure_end_to_end(run, configs, args.seconds, setup_s), END_TO_END
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    env = environment()
    if args.record:
        record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env, "result": result}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
