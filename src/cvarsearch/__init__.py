"""Adaptive stochastic search for simulation optimization of CVaR.

The package tunes a diagonal-Gaussian sampling distribution by weighted
elite statistics so that it concentrates on minimizers of the conditional
value-at-risk of a noisy loss.  One search loop takes its risk level from
a schedule: ramped toward the target as the gradient norm decays, which
spends far fewer simulations per candidate in the early iterations, or
started at the target, which is the fixed-level search.  A noisy
benchmark suite and a reproducible experiment harness round out the
library; see the README for usage.
"""

from .engine import run_gass_cvar, run_gass_cvar_arl
from .harness import ConfigError, emit_csv, emit_reference_run, load_config, run_experiment
from .schedule import RiskSchedule

__version__ = "0.1.0"
