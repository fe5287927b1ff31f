"""Tests of the benchmark itself, at a tiny scale.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workload

TINY = {
    "replications": 2, "max_iterations": 3, "n_candidates": 20, "final_eval_budget": 200,
    "reference_n_candidates": 10, "reference_inner_budget": 200,
    "reference_max_iterations": 2,
}


@pytest.mark.parametrize("name, trace", [("reference_large", False), ("desk_pair", True)])
def test_smoke_prints_every_metric_with_unit(name, trace, capsys):
    code = run.run(name, 5, 0.0, trace, scale=TINY)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The same tiny workload untraced and traced, in this process."""
    work = tmp_path_factory.mktemp("work")
    plan = json.loads(run.write_plan("reference_large", 5, work / "plan", TINY).read_text())
    configs = workload.load_configs(plan["configs"])
    originals = {(owner, name): vars(owner)[name]
                 for entries in tracing.LAYERS.values() for owner, name in entries}
    plain, _ = workload.run_workload(configs, str(tmp_path_factory.mktemp("plain")))
    tracer = tracing.Tracer()
    traced, _ = workload.run_workload(configs, str(tmp_path_factory.mktemp("traced")), tracer)
    return plain, traced, tracer, originals


def test_traced_run_emits_untraced_bytes(runs):
    plain, traced, tracer, _ = runs
    assert traced["digest"] == plain["digest"]
    metrics = tracer.metrics(traced["wall_s"])
    assert (metrics["benchmarks.draws"], metrics["benchmarks.calls"]) == tuple(plain["work"])


def test_wrappers_removed_after_traced_run(runs):
    _, _, _, originals = runs
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original, name


def test_self_times_sum_to_attributed_wall(runs):
    _, traced, tracer, _ = runs
    metrics = tracer.metrics(traced["wall_s"])
    attributed = metrics["trace.wall_s"] - metrics["trace.unattributed_s"]
    assert sum(tracer.layer_self_s().values()) == pytest.approx(attributed, rel=1e-9)
    assert 0.0 < attributed <= metrics["trace.wall_s"]


def test_missing_program_exits_without_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_pair", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench_work").exists()
