"""Tests of the benchmark itself (not of fairmetric):

    python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import compare
import fixtures
import run
import tracer

SMOKE = fixtures.WORKLOADS["smoke_figure1"]
SMOKE_SWEEP = fixtures.WORKLOADS["smoke_sweep"]
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _plain_and_traced(tmp_path, workload):
    config = fixtures.write_fixture(workload, seed=5, index=0, out_dir=tmp_path / "inputs")
    _, error = run.invoke(config, tmp_path / "plain", workload.threads)
    assert error is None
    spans = tracer.Tracer()
    with spans.installed():
        elapsed, error = run.invoke(config, tmp_path / "traced", workload.threads)
    assert error is None
    return spans, elapsed


@pytest.mark.parametrize("workload", [SMOKE, SMOKE_SWEEP], ids=lambda w: w.name)
def test_tracing_does_not_change_the_outputs(tmp_path, workload):
    _plain_and_traced(tmp_path, workload)
    plain = sorted(p.relative_to(tmp_path / "plain") for p in (tmp_path / "plain").rglob("*.*"))
    assert any(p.name in ("report.csv", "sweep.csv") for p in plain)
    for rel in plain:
        assert (tmp_path / "traced" / rel).read_bytes() == (tmp_path / "plain" / rel).read_bytes()
    assert checks.check_output(tmp_path / "traced", workload).problems == []


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    import numpy as np
    from fairmetric import evaluation

    before = (evaluation.fit_lsml, evaluation.ThreadPoolExecutor, np.linalg.eigh)
    _plain_and_traced(tmp_path, SMOKE)
    assert (evaluation.fit_lsml, evaluation.ThreadPoolExecutor, np.linalg.eigh) == before


def test_spans_nest_and_self_times_account_for_the_run(tmp_path):
    spans, elapsed = _plain_and_traced(tmp_path, SMOKE)
    assert tracer.nesting_errors(spans.spans) == []
    roots = [s for s in spans.spans if s[1] == 0]
    assert [s[2] for s in roots] == ["cli.cmd_experiment"]
    metrics = tracer.derive_metrics(spans.spans, spans.info, elapsed)
    root_s = (roots[0][4] - roots[0][3]) * 1e-9
    assert metrics["trace.self_sum_s"] <= elapsed
    assert metrics["trace.self_sum_s"] == pytest.approx(root_s, rel=1e-6)
    assert metrics["learners.lsml.iterations"] > 0
    assert metrics["learners.mmc.eigh_calls"] > 0
    assert metrics["evaluation.knn_predict_calls"] == 2 * 20 * 5 * SMOKE.n_repeats


def test_worker_thread_spans_hang_under_the_sweep(tmp_path):
    spans, _ = _plain_and_traced(tmp_path, SMOKE_SWEEP)
    assert tracer.nesting_errors(spans.spans) == []
    by_id = {s[0]: s for s in spans.spans}
    fits = [s for s in spans.spans if s[2] == "learners.fit_lsml"]
    assert len(fits) == 2 * SMOKE_SWEEP.n_repeats
    assert {by_id[s[1]][2] for s in fits} == {"evaluation.sigma_sweep"}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, 0, "cli.a", 0, 100),
        (2, 1, "learners.b", 10, 50),
        (3, 1, "learners.c", 30, 70),  # overlaps b, as a second thread would
        (4, 2, "numerics.d", 20, 30),
    ]
    assert tracer.self_times(spans) == {1: 40, 2: 30, 3: 40, 4: 10}
    assert tracer.nesting_errors(spans) == []
    assert tracer.nesting_errors([(1, 0, "a", 0, 10), (2, 1, "b", 5, 20)]) != []


def test_learner_figures_do_not_depend_on_the_order_fits_finish():
    spans = [(1, 0, "cli.cmd_experiment", 0, 100)]
    spans += [(sid, 1, "learners.fit_lsml", 10 * sid, 10 * sid + 5) for sid in (2, 3, 4)]
    info = {2: (10, True, 0, 1e16), 3: (10, True, 0, 1.0), 4: (10, False, 0, -1e16)}
    forward = tracer.derive_metrics(spans, info, 1e-7)
    backward = tracer.derive_metrics(spans[::-1], info, 1e-7)
    assert forward == backward
    assert forward["learners.lsml.final_objective"] == pytest.approx(1 / 3)
    assert forward["learners.lsml.converged_frac"] == pytest.approx(2 / 3)


def test_checks_flag_broken_outputs(tmp_path):
    config = fixtures.write_fixture(SMOKE, seed=5, index=0, out_dir=tmp_path / "inputs")
    out = tmp_path / "out"
    run.invoke(config, out, 1)
    good = checks.check_output(out, SMOKE)
    assert good.problems == []
    assert good.fits_ok == good.fits_attempted == 5 * SMOKE.n_repeats
    assert set(good.losses) == {"tv_lsml", "tv_mmc", "knn_l1_lmnn"}

    report = out / "report.csv"
    lines = report.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("lsml,triplet_violation"))
    lines[row] = "lsml,triplet_violation,1.5,0.0,2"
    report.write_text("\n".join(lines) + "\n")
    next((out / "metrics").glob("repeat_00/mmc.txt")).unlink()
    problems = checks.check_output(out, SMOKE).problems
    assert any("outside [0, 1]" in p for p in problems)
    assert any("metric files" in p for p in problems)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", ["smoke_figure1", "smoke_sweep"])
def test_smoke_run_prints_every_metric_with_its_unit(tmp_path, monkeypatch, capsys, workload, trace, section):
    monkeypatch.setattr(run, "WORK", tmp_path)
    argv = ["--workload", workload, "--seed", "2", "--seconds", "0.1", "--trace", str(trace)]
    argv += ["--record", str(tmp_path / "results.jsonl")]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    datasets = fixtures.WORKLOADS[workload].datasets
    # with no time to spare, trace 0 still runs every dataset once and dataset 0 again
    assert result["attempted"] == (2 if trace else datasets + 1)
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    record = json.loads((tmp_path / "results.jsonl").read_text())
    assert record["environment"]["OPENBLAS_NUM_THREADS"] == "1"
    assert record["result"] == result
    if trace:
        assert (tmp_path / f"{workload}-seed2-trace1" / "spans.csv").exists()


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} <= set(fixtures.WORKLOADS)


def test_fixtures_are_seeded(tmp_path):
    a = fixtures.write_fixtures(SMOKE, 9, tmp_path / "a")
    b = fixtures.write_fixtures(SMOKE, 9, tmp_path / "b")
    c = fixtures.write_fixtures(SMOKE, 10, tmp_path / "c")
    assert len(a) == SMOKE.datasets == 2
    for name in (fixtures.CONFIG_NAME, fixtures.DEFENDANTS_NAME, fixtures.SURVEY_NAME):
        assert (a[1].parent / name).read_bytes() == (b[1].parent / name).read_bytes()
        assert (a[1].parent / name).read_bytes() != (a[0].parent / name).read_bytes()
        assert (a[1].parent / name).read_bytes() != (c[1].parent / name).read_bytes()


def test_compare_verdicts():
    parent = {s: 10.0 + 0.1 * (s % 3) for s in range(10)}
    assert compare.verdict(parent, {s: v * 0.5 for s, v in parent.items()}, "lower", 0.1) == "better"
    assert compare.verdict(parent, {s: v * 1.3 for s, v in parent.items()}, "lower", 0.1) == "worse"
    assert compare.verdict(parent, {s: v * 1.01 for s, v in parent.items()}, "lower", 0.1) == "unchanged"
    noisy = {s: 10.0 * (1 + (s % 2)) for s in range(10)}
    assert compare.verdict(parent, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, {s: v * 1.3 for s, v in parent.items()}, "higher", 0.1) == "better"


def test_peak_rss_sums_the_process_tree():
    child = "import time; block = bytearray(200 * 2**20); time.sleep(1.5)"
    with run.PeakRss() as peak:
        own_kb = run.tree_rss_kb(os.getpid())
        proc = subprocess.Popen([sys.executable, "-c", child])
        time.sleep(1.0)
        proc.wait()
    assert peak.tree_kb >= own_kb + 150 * 1024
    assert peak.mb() * 1024 >= peak.tree_kb
