"""The names by which the benchmark under perfbench/ reaches into fairmetric.

The benchmark's tracer wraps functions by (module, attribute) and swaps in its
own thread pool, its fixtures and checks import from fairmetric, and its runs
call `main` with `--threads`. A name dropped or moved here breaks the benchmark;
these checks catch that without running it.
"""

import ast
import importlib
import importlib.util
import sys
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


def test_main_accepts_the_benchmark_experiment_arguments(tmp_path):
    rng = np.random.default_rng(0)
    dataset = LabeledDataset(
        rng.normal(size=(40, 3)), rng.integers(1, 11, size=40), COMPAS_SCALE, ("a", "b", "c")
    )
    write_encoded_defendants(dataset, tmp_path / "defendants_encoded.csv")
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
