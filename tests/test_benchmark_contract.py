"""The names by which the benchmark under perfbench/ reaches into fairmetric.

The benchmark's tracer wraps functions by (module, attribute) and swaps in its
own thread pool, its fixtures and checks import from fairmetric, and its runs
call `main` with `--threads`. A name dropped or moved here breaks the benchmark;
these checks catch that, and one small traced run per mode checks that every
span it records falls in a layer the tracer reports on.
"""

import ast
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from fairmetric.cli import main, write_encoded_defendants
from fairmetric.core import COMPAS_SCALE, LabeledDataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_name_the_tracer_wraps_resolves():
    targets = [(module, name) for module, name, _ in _load_tracer().TARGETS]
    assert targets
    missing = [f"{module}.{name}" for module, name in targets
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
    assert hasattr(importlib.import_module("fairmetric.evaluation"), "ThreadPoolExecutor")


@pytest.mark.parametrize("script", ["fixtures.py", "checks.py"])
def test_every_name_the_benchmark_imports_from_fairmetric_exists(script):
    tree = ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fairmetric")
        for alias in node.names
    ]
    assert imported
    missing = [f"{module}.{name}" for module, name in imported
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_evaluation_keeps_only_the_references_the_tracer_wraps_there():
    targets = _load_tracer().TARGETS
    wrapped = {name for module, name, _ in targets if module == "fairmetric.evaluation"}
    evaluation = importlib.import_module("fairmetric.evaluation")
    from_reference = {
        name for name, value in vars(evaluation).items()
        if getattr(value, "__module__", None) == "fairmetric.reference"
    }
    assert from_reference <= wrapped


def _write_defendants(tmp_path, n):
    rng = np.random.default_rng(0)
    dataset = LabeledDataset(
        rng.normal(size=(n, 3)), rng.integers(1, 11, size=n), COMPAS_SCALE, ("a", "b", "c")
    )
    write_encoded_defendants(dataset, tmp_path / "defendants_encoded.csv")


def _tree(root):
    files = (path for path in root.rglob("*") if path.is_file())
    return {str(path.relative_to(root)): path.read_bytes() for path in files}


@pytest.mark.filterwarnings("ignore::fairmetric.errors.SmallClassWarning")
@pytest.mark.parametrize("mode", ["figure1", "sweep"])
def test_a_traced_run_records_spans_only_in_the_layers_the_tracer_reports(tmp_path, mode):
    tracer = _load_tracer()
    _write_defendants(tmp_path, 60)
    config = tmp_path / "exp.ini"
    config.write_text(
        "[data]\ndefendants = defendants_encoded.csv\n"
        f"[experiment]\nmode = {mode}\ntrain_size = 30\ntest_size = 20\nn_repeats = 1\n"
        "triplet_subsample = 300\n"
        "[learners]\nlsml_max_iter = 20\nlmnn_max_iter = 20\nmmc_max_iter = 20\n"
        "[sweep]\nsigma_train_list = 0, 2\nsigma_test_list = 0, 2\n",
        encoding="utf-8",
    )
    argv = ["experiment", "--config", str(config), "--out-dir"]
    assert main(argv + [str(tmp_path / "plain")]) == 0
    spans = tracer.Tracer()
    start = time.perf_counter()
    with spans.installed():
        assert main(argv + [str(tmp_path / "traced")]) == 0
    elapsed = time.perf_counter() - start
    assert _tree(tmp_path / "traced") == _tree(tmp_path / "plain")
    layers = {name.split(".", 1)[0] for _, _, name, _, _ in spans.spans}
    assert layers <= set(tracer.LAYERS)
    metrics = tracer.derive_metrics(spans.spans, spans.info, elapsed)
    assert metrics["trace.spans"] == len(spans.spans)
    assert metrics["learners.lsml.fit_s"] > 0


def test_main_accepts_the_benchmark_experiment_arguments(tmp_path):
    _write_defendants(tmp_path, 40)
    config = tmp_path / "exp.ini"
    config.write_text(
        "[data]\ndefendants = defendants_encoded.csv\n"
        "[experiment]\ntrain_size = 20\ntest_size = 10\nn_repeats = 1\nmenu = euclidean\n",
        encoding="utf-8",
    )
    out = tmp_path / "run"
    argv = ["experiment", "--config", str(config), "--out-dir", str(out), "--threads", "1"]
    assert main(argv) == 0
    assert (out / "report.csv").exists()
