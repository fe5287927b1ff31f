"""Command-line front end.

Subcommands:

* ``run CONFIG``        run an experiment, write CSVs and a summary;
* ``benchmark ID X..``  evaluate a benchmark point (loss, noise scale,
                        and optionally its exact CVaR);
* ``oracle l0``         the analytic optimum of the noisy quadratic bowl;
* ``reference CONFIG``  compute (and cache) a config's reference optimum.

Exit codes: 0 success, 2 configuration or usage error, 3 runtime failure.
An unusable ``--out`` is a usage error, found before any simulation.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys

from . import harness
from .benchmarks import BENCHMARK_IDS, BenchmarkLoss, l0_min_cvar_oracle
from .risk import _check_count

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvarsearch",
        description="Adaptive stochastic search for CVaR simulation optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="path to a YAML experiment config")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_run.add_argument("--workers", type=int, default=1,
                       help="process count for replications (default: 1)")
    p_run.add_argument("--replications", type=int, default=None,
                       help="override the replication count")

    p_bench = sub.add_parser("benchmark", help="evaluate a benchmark point")
    p_bench.add_argument("id", choices=BENCHMARK_IDS)
    p_bench.add_argument("x", nargs="+", type=float, help="point coordinates")
    p_bench.add_argument("--alpha", type=float, default=None,
                         help="also print the exact CVaR at this level")

    p_oracle = sub.add_parser("oracle", help="analytic optimum of a benchmark")
    p_oracle.add_argument("family", choices=["l0"],
                          help="only l0 has an analytic optimum")
    p_oracle.add_argument("--alpha", type=float, required=True)
    p_oracle.add_argument("--dim", type=int, required=True)

    p_ref = sub.add_parser("reference", help="reference optimum for a config")
    p_ref.add_argument("config", help="path to a YAML experiment config")
    p_ref.add_argument("--out", default="out",
                       help="cache directory (default: out)")
    return parser


def _cmd_run(args) -> int:
    config = harness.load_config(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.replications is not None:
        overrides["replications"] = args.replications
    if overrides:
        config = dataclasses.replace(config, **overrides)
    with harness._keys("workers"):
        _check_count(args.workers, "workers")
    _make_out_dir(args.out)
    reference = harness.emit_reference_run(config, cache_dir=args.out)
    result = harness.run_experiment(config, workers=args.workers,
                                    reference_value=reference)
    paths = harness.emit_csv(result, args.out)
    print(f"benchmark={config.benchmark} dim={config.dim} "
          f"algorithm={config.algorithm} alpha_star={config.alpha_star!r}")
    print(f"reference_value={reference!r}")
    for outcome in result.outcomes:
        r = outcome.result
        print(f"rep={outcome.rep} final_best_cvar={r.final_best_cvar!r} "
              f"iterations={len(r.records)} search_evals={outcome.search_evals} "
              f"terminated_by={r.terminated_by}")
    for name in ("iterations", "curve", "alpha", "summary"):
        print(f"wrote {paths[name]}")
    return EXIT_OK


def _make_out_dir(path):
    """Create the --out directory before any simulation runs, so that an
    unusable path is a usage error, not a failure after all the work."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise harness.ConfigError(f"--out {path!r}: {exc}") from exc


@contextlib.contextmanager
def _usage_errors():
    """Report a ValueError raised on command-line values as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise harness.ConfigError(str(exc)) from exc


def _cmd_benchmark(args) -> int:
    with _usage_errors():
        loss = BenchmarkLoss(args.id, len(args.x))
        lines = [f"deterministic_loss={loss.deterministic(args.x)!r}",
                 f"noise_scale={loss.noise_scale(args.x)!r}"]
        if args.alpha is not None:
            lines.append(f"cvar_oracle={loss.cvar(args.x, args.alpha)!r}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    with _usage_errors():
        point, value = l0_min_cvar_oracle(args.dim, args.alpha)
    print(f"argmin={' '.join(repr(float(v)) for v in point)}")
    print(f"value={value!r}")
    return EXIT_OK


def _cmd_reference(args) -> int:
    config = harness.load_config(args.config)
    _make_out_dir(args.out)
    value = harness.emit_reference_run(config, cache_dir=args.out)
    print(f"reference_value={value!r}")
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "benchmark": _cmd_benchmark,
    "oracle": _cmd_oracle,
    "reference": _cmd_reference,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (harness.ConfigError, FileNotFoundError) as exc:
        # bad input: invalid config values, malformed points, missing files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
