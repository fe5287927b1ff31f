import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cvarsearch

MODULES = sorted(m.name for m in pkgutil.iter_modules(cvarsearch.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale __all__ entry only fails on ``from module import *``
    module = importlib.import_module(f"cvarsearch.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


# Run in a fresh interpreter: the CLI import, both oracles, an l0 experiment
# and a non-l0 reference search, then report which SciPy modules got loaded.
_IMPORT_GRAPH_RUN = """
import json, sys
import numpy as np
import cvarsearch.cli
from cvarsearch.benchmarks import BenchmarkLoss, l0_min_cvar_oracle
from cvarsearch.harness import ExperimentConfig, emit_reference_run, run_experiment

tiny = dict(benchmark="l0", dim=2, algorithm="gass_cvar", alpha_star=0.8, effective_size=4,
            n_candidates=6, max_iterations=2, replications=1, master_seed=5,
            mean_init_lo=-2.0, mean_init_hi=2.0, var_init=4.0, var_box_hi=100.0,
            final_eval_budget=60, grad_norm_stop=0.0)
oracle = l0_min_cvar_oracle(2, 0.95)[1]
exact = BenchmarkLoss("rosenbrock", 3).cvar(np.zeros(3), 0.9)
result = run_experiment(ExperimentConfig(**tiny))
reference = emit_reference_run(ExperimentConfig(**dict(
    tiny, benchmark="rosenbrock", dim=3, reference_n_candidates=6,
    reference_inner_budget=50, reference_max_iterations=2)), cache_dir=sys.argv[1])
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"ran": [oracle, exact, len(result.outcomes), reference], "scipy": scipy}))
"""


def test_no_scipy_loaded(tmp_path):
    # SciPy is a test dependency only; the package runs on NumPy and PyYAML
    src = str(Path(cvarsearch.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GRAPH_RUN, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert all(math.isfinite(v) for v in report["ran"])
    assert report["scipy"] == []
