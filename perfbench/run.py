"""cvarsearch benchmark: one workload, end-to-end or traced per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk_pair --seed 1 --seconds 35 --trace 0

Every measurement runs ``workload.py`` in a fresh interpreter with
``workers=1`` and the BLAS/OpenMP thread variables pinned to 1, against
the package under ``src/`` (no install step).  The seed reaches the
program only as ``master_seed`` in the generated config files.

``--trace 0`` loads the program a few times for set-up samples, then runs
``seconds // repeat_s`` repeats of the workload, repeat r with master seed
``seed * SEED_STRIDE + r``, and reports the end-to-end metrics named in
BENCHMARK.json as medians over the repeats (quality figures pooled over
their replications).  ``--trace 1`` runs the first repeat's inputs once
plain and once traced (see ``tracing.py``), and reports the per-layer
metrics plus the same-process hardware floors.

Outputs of each repeat are checked (see ``workload.check_outputs``), and
the traced run must produce the plain run's bytes and draw count.  The
last stdout line is the result object; the line before it holds the
details: machine facts, raw samples and every failed check.  Any failed
check exits 1; a tree without the program exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ARMS = ("gass_cvar", "gass_cvar_arl")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2
DEADLINE_S = 170.0
# repeat r of a run with --seed s uses master_seed s * SEED_STRIDE + r
SEED_STRIDE = 1000


class Workload(NamedTuple):
    config: str           # config file, relative to the repository root
    overrides: dict       # config keys replaced for this workload
    oracle_checks: bool   # quality checks against the l0 oracle apply
    repeat_s: float       # nominal seconds per repeat, sets the repeat count


WORKLOADS = {
    "desk_pair": Workload("configs/desk_l0.yaml", {}, True, 15.0),
    "paper_slice": Workload(
        "configs/paper_full.yaml",
        {"replications": 1, "max_iterations": 20, "final_eval_budget": 1000}, False, 8.0),
    "reference_large": Workload("perfbench/reference_large.yaml", {}, False, 8.0),
}


class ChildFailed(RuntimeError):
    """A workload process exited nonzero or timed out."""


def write_plan(workload: str, master_seed: int, work: Path,
               scale: dict | None = None) -> Path:
    """Per-arm config files and the plan naming them; returns the plan path.

    ``scale`` overrides config keys on top of the workload's own (the tests
    use it for a tiny run) and turns the oracle quality checks off.
    """
    spec = WORKLOADS[workload]
    with open(ROOT / spec.config, encoding="utf-8") as fh:
        base = yaml.safe_load(fh)
    base.update(spec.overrides, master_seed=master_seed, **(scale or {}))
    work.mkdir(parents=True)
    paths = []
    for arm in ARMS:
        path = work / f"{arm}.yaml"
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(dict(base, algorithm=arm), fh, sort_keys=False)
        paths.append(str(path))
    plan = work / "plan.json"
    plan.write_text(json.dumps({"configs": paths,
                                "oracle_checks": spec.oracle_checks and not scale}))
    return plan


def quality(samples: list[dict]) -> dict:
    """Search-quality figures pooled over the replications of every sample.

    ``final_ratio_p50`` is the median reported fresh CVaR over the
    reference; ``evals_to_target`` the ramped arm's median search budget
    until its fresh best is within 10% of the oracle (censored, see
    ``workload.quality_samples``); ``budget_ratio`` the median over paired
    replications of the fixed arm's such budget over the ramped arm's.
    """
    finals = [v for s in samples for v in s["finals"]]
    fixed = [v for s in samples for v in s["budgets"]["gass_cvar"]]
    ramped = [v for s in samples for v in s["budgets"]["gass_cvar_arl"]]
    return {
        "final_ratio_p50": statistics.median(finals),
        "evals_to_target": statistics.median(ramped),
        "budget_ratio": statistics.median(f / r for f, r in zip(fixed, ramped)),
    }


class Runner:
    """Starts workload processes one at a time, each in a fresh scratch
    directory, within one overall deadline."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self._n = 0

    def spawn(self, plan: Path, mode: str) -> dict:
        self._n += 1
        scratch = self.work / f"scratch{self._n}"
        scratch.mkdir()
        cmd = [sys.executable, str(HERE / "workload.py"), str(plan), mode, str(scratch)]
        t0 = time.time()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=self.deadline - time.monotonic())
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} run timed out") from exc
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if proc.returncode != 0:
            raise ChildFailed(f"{mode} run exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-2000:]}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["setup_s"] = report["ready"] - t0
        return report


def tally(reports: list[dict], parent_checks: list) -> tuple[int, list[str]]:
    """Attempted count (replications plus checks) and the failed checks."""
    checks = parent_checks + [c for r in reports for c in r["checks"]]
    attempted = sum(r["replications"] for r in reports) + len(checks)
    return attempted, [desc for desc, ok in checks if not ok]


def timed(runner: Runner, plans: list[Path]) -> tuple[dict, int, list[str], dict]:
    setups = [runner.spawn(plans[0], "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    reps = [runner.spawn(plan, "timed") for plan in plans]
    setups += [r["setup_s"] for r in reps]
    attempted, failed = tally(reps, [])
    metrics = {
        "setup_s": statistics.median(setups),
        "candidate_us": statistics.median(1e6 * r["wall_s"] / r["work"][1] for r in reps),
        "sims_per_s": statistics.median(r["work"][0] / r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_frac": 1.0 - len(failed) / attempted,
        **quality([r["quality"] for r in reps]),
    }
    return metrics, attempted, failed, {"setup_s": setups, "wall_s": [r["wall_s"] for r in reps]}


def traced(runner: Runner, plan: Path) -> tuple[dict, int, list[str], dict]:
    plain = runner.spawn(plan, "timed")
    trace = runner.spawn(plan, "traced")
    layers = trace["layers"]
    draws, candidates = plain["work"]
    checks = [
        ["traced run emits the bytes of the untraced run", trace["digest"] == plain["digest"]],
        [f"untraced draw count {draws} equals traced benchmarks.draws "
         f"{layers['benchmarks.draws']}", draws == layers["benchmarks.draws"]],
        [f"untraced candidate count {candidates} equals traced benchmarks.calls "
         f"{layers['benchmarks.calls']}", candidates == layers["benchmarks.calls"]],
    ]
    attempted, failed = tally([plain, trace], checks)
    metrics = dict(layers, **trace["floors"])
    metrics["trace.overhead_frac"] = trace["wall_s"] / plain["wall_s"] - 1.0
    return metrics, attempted, failed, {"untraced_wall_s": plain["wall_s"]}


def machine_facts() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit,
        "threads": {v: "1" for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    needed = [ROOT / "src" / "cvarsearch" / "__init__.py",
              ROOT / WORKLOADS[args.workload].config]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: program files missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: dict | None = None) -> int:
    """Run one measurement, print the details and result lines; returns the
    exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    repeats = 1 if trace else max(1, int(seconds // WORKLOADS[workload].repeat_s))
    try:
        plans = [write_plan(workload, seed * SEED_STRIDE + r, work / f"repeat{r}", scale)
                 for r in range(repeats)]
        runner = Runner(work)
        if trace:
            metrics, attempted, failed, samples = traced(runner, plans[0])
        else:
            metrics, attempted, failed, samples = timed(runner, plans)
    except ChildFailed as exc:
        print(json.dumps({"workload": workload, "seed": seed, "error": str(exc)}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(metrics)}")
    print(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                      "samples": samples, "failed_checks": failed,
                      "machine": machine_facts()}))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
