"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest bench
"""
from __future__ import annotations

import json
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, children_of, self_time, union_length  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 5), (3, 8), (9, 12)], 0, 10) == pytest.approx(8.0)
    assert union_length([], 0, 10) == 0.0


def test_self_time_counts_overlapping_worker_children_once():
    parent = Span("p", None, thread=1, start=0.0, end=10.0)
    kids = [Span("c", parent, thread=2, start=1.0, end=5.0),
            Span("c", parent, thread=3, start=3.0, end=8.0),
            Span("c", parent, thread=2, start=9.5, end=11.0)]  # runs past the parent
    assert self_time(parent, children_of([parent, *kids])) == pytest.approx(10.0 - 7.5)


def test_worker_thread_spans_are_children_of_the_submitting_span():
    recorder = Recorder()
    barrier = threading.Barrier(2, timeout=10)

    def child():
        barrier.wait()  # both children are running at once
        time.sleep(0.05)

    timed_child = recorder.wrap("child", child)

    def parent():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(timed_child) for _ in range(2)]:
                future.result(timeout=10)

    recorder.wrap("parent", parent)()
    spans = recorder.drain()
    (top,) = [s for s in spans if s.name == "parent"]
    kids = [s for s in spans if s.name == "child"]
    assert len(kids) == 2
    assert all(k.parent is top and k.thread != top.thread for k in kids)
    # the children overlap, so their union is shorter than their sum
    covered = top.duration - self_time(top, children_of(spans))
    assert covered < sum(k.duration for k in kids)
    assert covered >= max(k.duration for k in kids) - 1e-9


def _attribute_snapshot():
    return {(name, attr): value
            for name, mod in layers.modules().items()
            for attr, value in vars(mod).items()}


def test_wrappers_installed_then_restored_even_on_error():
    before = _attribute_snapshot()
    mods = layers.modules()
    with pytest.raises(RuntimeError):
        with layers.instrumented(Recorder()):
            # the same function is wrapped under every module that imports it
            assert mods["ensemble_stats"].step_quadratic is not before[("grid_dynamics", "step_quadratic")]
            assert mods["grid_dynamics"].step_quadratic is not before[("grid_dynamics", "step_quadratic")]
            assert mods["cli"].run_ensemble is not before[("ensemble_stats", "run_ensemble")]
            assert mods["verification"].CRITERIA != before[("verification", "CRITERIA")]
            raise RuntimeError("pass aborted")
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == layers.METRIC_UNITS
    for name in [*end_to_end, *per_layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.match(name), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == workloads.WORKLOADS


def test_refuses_to_run_without_gravlab_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", workloads.GAUSSIAN, "--seed", "0"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_has_no_failures(workload, seed):
    out = run.measure(workload, seed, seconds=0, trace=False, root=REPO,
                      size="tiny", setup_probes=0)
    result = out["result"]
    assert out["report"]["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    n_ops = len(out["report"]["operations"])
    assert result["metrics"]["failed_fraction"]["value"] == pytest.approx(1.0 / (n_ops + 1))
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)


# per-layer metrics each workload must drive (the layer does its work there)
EXPECTED_LAYERS = {
    workloads.GAUSSIAN: ["gaussian_dynamics.step.ns_per_traj_step",
                         "noise_field.wiener_increments.table_mb",
                         "ensemble_stats.run_ensemble.self_s",
                         "ensemble_stats.thread_busy_fraction",
                         "ensemble_stats.estimators.busy_s",
                         "ensemble_stats.write_records_csv.mb"],
    workloads.CAT: ["grid_dynamics.step_quadratic.us_per_row_step",
                    "grid_dynamics.branch_split_weights.busy_s",
                    "grid_dynamics.coherence_series.self_s",
                    "ensemble_stats.run_collapse_ensemble.self_s",
                    "ensemble_stats.thread_busy_fraction", "cli.self_s"],
    workloads.SINGLE: ["model_core.calls", "model_core.busy_s",
                       "noise_field.sample_phi_field.ms_per_call",
                       "noise_field.reduce_phi_to_w.ms_per_call",
                       "gaussian_dynamics.step.ns_per_traj_step",
                       "grid_dynamics.step_quadratic.us_per_row_step",
                       "grid_dynamics.step_sne_nonlocal.us_per_step",
                       "verification.criterion_01.wall_s",
                       "verification.criterion_02.wall_s"],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_reports_its_layers_and_restores_wrappers(workload):
    before = _attribute_snapshot()
    out = run.measure(workload, 0, seconds=0, trace=True, root=REPO,
                      size="tiny", setup_probes=0)
    after = _attribute_snapshot()
    assert [key for key in before if after[key] is not before[key]] == []
    metrics = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    assert out["result"]["failed"] == 0
    assert list(metrics) == list(layers.METRIC_UNITS)
    for name in EXPECTED_LAYERS[workload]:
        assert metrics[name] > 0, name
    assert metrics["ensemble_stats.thread_busy_fraction"] <= 1.0
