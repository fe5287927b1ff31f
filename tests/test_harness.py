import dataclasses
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from cvarsearch import engine, harness
from cvarsearch.benchmarks import BenchmarkLoss, l0_min_cvar_oracle
from cvarsearch.engine import evaluate_candidates
from cvarsearch.harness import (
    ConfigError,
    ExperimentConfig,
    budget_to_threshold,
    emit_csv,
    emit_reference_run,
    load_config,
    run_experiment,
    run_replication,
)
from cvarsearch.schedule import inner_sample_size

TINY = dict(
    benchmark="l0",
    dim=2,
    algorithm="gass_cvar",
    alpha_star=0.8,
    effective_size=4,
    n_candidates=6,
    max_iterations=4,
    replications=3,
    master_seed=5,
    mean_init_lo=-2.0,
    mean_init_hi=2.0,
    var_init=4.0,
    var_box_hi=100.0,
    final_eval_budget=60,
    grad_norm_stop=0.0,
)


def tiny_config(**overrides):
    return ExperimentConfig(**{**TINY, **overrides})


def write_config(config: ExperimentConfig, path):
    # every field as YAML, in declaration order, as a user would write it
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(dataclasses.asdict(config), fh, sort_keys=False)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "key,value",
        [
            ("benchmark", "sphere"),
            ("dim", 0),
            ("algorithm", "anneal"),
            ("alpha_star", 1.0),
            ("alpha_init", 0.9),
            ("effective_size", 1),
            ("n_candidates", 1),
            ("n_growth_exponent", -0.5),
            ("s_o", 0.0),
            ("rho", 0.0),
            ("epsilon", 0.0),
            ("step_a", 0.0),
            ("step_b", 0.0),
            ("step_gamma", 0.5),
            ("mean_init_lo", 99.0),
            ("mean_box_lo", 60.0),
            ("var_box_lo", 0.0),
            ("var_box_lo", 200.0),
            ("var_init", 1e9),
            ("max_iterations", 0),
            ("replications", 0),
            ("master_seed", -1),
            ("grad_norm_stop", -1.0),
            ("final_eval_budget", 0),
            ("reference_n_candidates", 1),
            ("reference_max_iterations", 0),
            ("reference_inner_budget", 0),
        ],
    )
    def test_bad_value_names_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            tiny_config(**{key: value})
        assert f"{key!r}" in str(err.value)

    # (mean_init_lo, mean_init_hi) in the default mean box [-50, 50]: at
    # each edge of the ordering the range is accepted, one float beyond it
    # refused
    @pytest.mark.parametrize("lo,hi,accepted", [
        (-50.0, 2.0, True),
        (math.nextafter(-50.0, -math.inf), 2.0, False),
        (1.0, 1.0, True),
        (math.nextafter(1.0, math.inf), 1.0, False),
        (-2.0, 50.0, True),
        (-2.0, math.nextafter(50.0, math.inf), False),
    ], ids=["lo_at_box", "lo_below_box", "lo_at_hi", "lo_above_hi", "hi_at_box",
            "hi_above_box"])
    def test_initial_range_edges(self, lo, hi, accepted):
        if accepted:
            config = tiny_config(mean_init_lo=lo, mean_init_hi=hi)
            assert (config.mean_init_lo, config.mean_init_hi) == (lo, hi)
        else:
            with pytest.raises(ConfigError, match="^config key 'mean_init_lo': initial-mean"):
                tiny_config(mean_init_lo=lo, mean_init_hi=hi)

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("step_gamma", 0.5, "config key 'step_a', 'step_b', 'step_gamma': "
             "step-size gamma must be finite and > 0.5 and <= 1, got 0.5"),
            ("reference_n_candidates", 1, "config key 'reference_n_candidates', "
             "'n_growth_exponent': candidate count base must be >= 2, got 1"),
            ("reference_max_iterations", 0, "config key 'epsilon', "
             "'reference_max_iterations', 'grad_norm_stop': max_iterations must be >= 1, got 0"),
        ],
        ids=["step_gamma", "reference_n_candidates", "reference_max_iterations"],
    )
    def test_engine_rule_names_the_keys_of_its_object(self, key, value, message):
        # the engine object's own reason, after the keys it was built from;
        # a reference size never names the search size it stands in for
        with pytest.raises(ConfigError) as err:
            tiny_config(**{key: value})
        assert str(err.value) == message

    @pytest.mark.parametrize("build", ["direct", "replace"])
    @pytest.mark.parametrize(
        "key,value",
        [("dim", 2.0), ("replications", 2.0), ("max_iterations", 2.5),
         ("n_candidates", 6.5), ("master_seed", True)],
    )
    def test_python_built_wrong_type_names_key(self, key, value, build):
        # types are checked however the config is built, not only on load
        with pytest.raises(ConfigError) as err:
            if build == "direct":
                tiny_config(**{key: value})
            else:
                dataclasses.replace(tiny_config(), **{key: value})
        assert f"config key {key!r}: expected an integer (got {value!r})" in str(err.value)

    def test_int_in_float_field_is_coerced(self):
        config = tiny_config(step_a=50)
        assert config == tiny_config(step_a=50.0)
        assert type(config.step_a) is float

    @pytest.mark.parametrize(
        "key", [f.name for f in dataclasses.fields(ExperimentConfig) if f.type == "float"]
    )
    def test_non_finite_float_names_key(self, key, tmp_path):
        # caught at load, not mid-run
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump({**dataclasses.asdict(tiny_config()), key: math.inf}))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == f"config key {key!r}: {key} must be finite, got inf"

    def test_int_beyond_float_range_is_not_finite(self):
        with pytest.raises(ConfigError) as err:
            tiny_config(s_o=10**400)
        assert str(err.value) == "config key 's_o': s_o must be finite, got inf"

    def test_powell_dim_floor(self):
        with pytest.raises(ConfigError) as err:
            tiny_config(benchmark="powell", dim=3)
        assert "dim" in str(err.value)

    def test_l0_alpha_star_zero_rejected(self):
        # the l0 reference optimum at level 0 is exactly 0, the ratio divisor
        with pytest.raises(ConfigError) as err:
            tiny_config(alpha_star=0.0)
        assert "config key 'alpha_star'" in str(err.value)
        assert "zero reference" in str(err.value)
        tiny_config(benchmark="rastrigin", alpha_star=0.0)

    def test_alpha_init_respects_target(self):
        tiny_config(algorithm="gass_cvar_arl", alpha_init=0.8)
        with pytest.raises(ConfigError):
            tiny_config(algorithm="gass_cvar_arl", alpha_init=0.81)


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "exp.yaml"
        write_config(config, path)
        assert load_config(path) == config

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("benchmark: l0\nturbo: true\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "'turbo'" in str(err.value)

    def test_missing_required_named(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("benchmark: l0\ndim: 2\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "required key is missing" in str(err.value)

    def test_wrong_type_named(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "exp.yaml"
        write_config(config, path)
        text = path.read_text().replace("dim: 2", "dim: two")
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "'dim'" in str(err.value)

    def test_bool_is_not_an_integer(self, tmp_path):
        config = tiny_config()
        path = tmp_path / "exp.yaml"
        write_config(config, path)
        text = path.read_text().replace("master_seed: 5", "master_seed: true")
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "'master_seed'" in str(err.value)

    def test_not_a_mapping(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ConfigError):
            load_config(path)


ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["configs/desk_l0.yaml", "configs/paper_full.yaml",
                                      "perfbench/reference_large.yaml"])
    def test_loads_without_warnings(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert isinstance(load_config(ROOT / name), ExperimentConfig)

    def test_full_scale_defaults(self):
        config = load_config(CONFIGS / "paper_full.yaml")
        assert config.benchmark == "l0"
        assert config.dim == 10
        assert config.algorithm == "gass_cvar_arl"
        assert config.alpha_star == 0.99
        assert config.alpha_init == 0.0
        assert config.effective_size == 50
        assert config.n_candidates == 1000
        assert config.s_o == 1e5
        assert config.rho == 0.1
        assert config.epsilon == 1e-10
        assert (config.step_a, config.step_b, config.step_gamma) == (50.0, 2000.0, 0.6)
        assert (config.mean_init_lo, config.mean_init_hi) == (-30.0, 30.0)
        assert config.var_init == 1000.0
        assert config.replications == 50
        assert config.final_eval_budget == 100_000

    @pytest.mark.parametrize("name", ["desk_l0.yaml", "paper_full.yaml"])
    def test_round_trip_unchanged(self, name, tmp_path):
        config = load_config(CONFIGS / name)
        write_config(config, tmp_path / name)
        assert load_config(tmp_path / name) == config


class TestReplications:
    def test_deterministic(self):
        config = tiny_config()
        a = run_replication(config, 1)
        b = run_replication(config, 1)
        np.testing.assert_array_equal(a.result.record_values, b.result.record_values)
        assert a.result.final_best_cvar == b.result.final_best_cvar

    def test_float_rep_rejected(self):
        with pytest.raises(TypeError):
            run_replication(tiny_config(), 1.0)

    def test_reps_differ(self):
        config = tiny_config()
        a = run_replication(config, 0)
        b = run_replication(config, 1)
        assert a.result.final_best_cvar != b.result.final_best_cvar

    def test_best_values_nonincreasing(self):
        outcome = run_replication(tiny_config(), 2)
        bests = outcome.best_values
        assert np.all(np.diff(bests) <= 0)

    def test_fixed_arm_reports_argmin_of_fresh_values(self):
        # a rep of this config whose best in-run estimate is not its best
        # fresh target-level value; which reps those are depends on the
        # streams, so the test finds one
        config = tiny_config(step_a=2.0, step_b=10.0, n_candidates=12)
        for rep in range(20):
            r = run_replication(config, rep).result
            j = int(np.argmin(r.record_values))
            if j != int(np.argmin(r.records.best_cvar_estimate)):
                break
        else:
            pytest.fail("no rep in 0-19 whose in-run and fresh argmins differ")
        assert r.final_best_cvar == r.record_values.min()
        np.testing.assert_array_equal(r.final_best_candidate, r.records[j].best_candidate)
        assert all(rec.alpha == 0.8 for rec in r.records)

    def test_candidate_count_growth(self):
        # iteration k draws ceil(N * max(k, 1)^0.5) candidates of m draws each
        config = tiny_config(n_growth_exponent=0.5)
        records = run_replication(config, 0).result.records
        m = inner_sample_size(config.alpha_star, config.effective_size)
        steps = np.diff([0] + [r.cumulative_loss_evals for r in records])
        assert len(records) == config.max_iterations
        assert steps.tolist() == [math.ceil(config.n_candidates * max(k, 1) ** 0.5) * m
                                  for k in range(config.max_iterations)]

    def test_arl_algorithm_dispatch(self):
        config = tiny_config(algorithm="gass_cvar_arl", alpha_init=0.0)
        outcome = run_replication(config, 0)
        alphas = [r.alpha for r in outcome.result.records]
        assert alphas[0] == 0.0
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))


class TestExperiment:
    def test_worker_count_is_invisible(self):
        config = tiny_config()
        serial = run_experiment(config, workers=1, reference_value=1.0)
        parallel = run_experiment(config, workers=2, reference_value=1.0)
        assert [o.rep for o in serial.outcomes] == [o.rep for o in parallel.outcomes]
        for a, b in zip(serial.outcomes, parallel.outcomes):
            np.testing.assert_array_equal(a.result.record_values, b.result.record_values)
        np.testing.assert_array_equal(serial.curve_evals, parallel.curve_evals)
        np.testing.assert_array_equal(serial.curve_mean_ratio, parallel.curve_mean_ratio)

    @pytest.mark.parametrize("name", ["l0", "rosenbrock"])
    def test_no_more_candidates_than_statistics(self, name):
        # N = 2 <= 2 D candidates leave the statistics' sample variance
        # matrix singular; every Newton step must still finish, without a
        # warning, which this suite's settings turn into an error
        config = tiny_config(benchmark=name, n_candidates=2, max_iterations=50,
                             replications=1, master_seed=1)
        (outcome,) = run_experiment(config, workers=1, reference_value=1.0).outcomes
        assert len(outcome.result.records) == 50
        assert math.isfinite(outcome.result.final_best_cvar)

    def test_curve_shapes_and_ratio(self):
        config = tiny_config()
        result = run_experiment(config, workers=1, reference_value=2.0)
        n = result.curve_evals.size
        assert n > 0
        for arr in (result.curve_mean_ratio, result.curve_q10_ratio,
                    result.curve_q90_ratio, result.curve_mean_value):
            assert arr.shape == (n,)
        np.testing.assert_allclose(
            result.curve_mean_ratio, result.curve_mean_value / 2.0, rtol=1e-12
        )
        assert np.all(result.curve_q10_ratio <= result.curve_q90_ratio + 1e-12)
        # grid starts once every replication has produced a value
        starts = [o.result.records[0].cumulative_loss_evals for o in result.outcomes]
        assert result.curve_evals[0] == max(starts)

    def test_alpha_mean_fixed_level(self):
        # averaging identical levels across replications costs one ulp
        result = run_experiment(tiny_config(), workers=1, reference_value=1.0)
        np.testing.assert_allclose(
            result.alpha_mean, np.full(result.alpha_mean.size, 0.8), rtol=1e-15
        )

    def test_workers_floor(self):
        with pytest.raises(ValueError):
            run_experiment(tiny_config(), workers=0, reference_value=1.0)

    def test_float_workers_rejected(self):
        with pytest.raises(TypeError):
            run_experiment(tiny_config(), workers=2.0, reference_value=1.0)

    @pytest.mark.parametrize("reference", [math.nan, math.inf, 0.0,
                                           pytest.param(10**400, id="10**400")])
    def test_reference_must_be_finite_and_nonzero(self, reference, monkeypatch):
        def no_replication(*args):
            raise AssertionError("replication ran before the reference was checked")

        monkeypatch.setattr(harness, "run_replication", no_replication)
        with pytest.raises(ValueError, match="reference_value"):
            run_experiment(tiny_config(), workers=1, reference_value=reference)

    @pytest.mark.parametrize("replications,pools", [(3, [3]), (1, [])])
    def test_pool_no_larger_than_replications(self, replications, pools, inline_pools):
        # a fork-started pool launches every worker at the first submit
        config = tiny_config(replications=replications)
        result = run_experiment(config, workers=64, reference_value=1.0)
        assert [pool["max_workers"] for pool in inline_pools] == pools
        assert [o.rep for o in result.outcomes] == list(range(replications))

    @pytest.mark.parametrize("cpus,replications,pools",
                             [(2, 10, [(2, (1,))]), (4, 2, [(2, (2,))]), (1, 10, []),
                              (8, 1, [])])
    def test_default_processes_follow_the_cpus(self, cpus, replications, pools,
                                               monkeypatch, inline_pools):
        # no workers given: one process per CPU, at most one per
        # replication, each evaluating on its share of the CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        result = run_experiment(tiny_config(replications=replications), reference_value=1.0)
        assert [(pool["max_workers"], pool["initargs"]) for pool in inline_pools] == pools
        assert [o.rep for o in result.outcomes] == list(range(replications))

    @pytest.mark.parametrize("cpus,workers,threads",
                             [(8, 2, 4), (8, 3, 2), (7, 2, 3), (2, 2, 1), (2, 3, 1), (1, 3, 1)])
    def test_pool_processes_share_the_cpus(self, cpus, workers, threads, monkeypatch,
                                           inline_pools):
        # workers x threads never exceeds the CPUs the process may run on
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        run_experiment(tiny_config(), workers=workers, reference_value=1.0)
        (pool,) = inline_pools
        assert pool["initargs"] == (threads,)
        # the initializer, run where a pool process would run it
        monkeypatch.setattr(engine, "_THREADS", None)
        pool["initializer"](*pool["initargs"])
        assert engine._THREADS == threads

    def test_ratio_above_one_below_a_negative_reference(self):
        # every best lies far above -100, so every ratio must read worse than 1
        config = tiny_config(benchmark="rastrigin", dim=1)
        result = run_experiment(config, workers=1, reference_value=-100.0)
        assert np.all(result.curve_mean_value > -100.0)
        for ratios in (result.curve_mean_ratio, result.curve_q10_ratio,
                       result.curve_q90_ratio):
            assert np.all(ratios > 1.0)
        np.testing.assert_allclose(
            result.curve_mean_ratio, 1.0 + (result.curve_mean_value + 100.0) / 100.0,
            rtol=1e-12,
        )


class TestBudgetToThreshold:
    def test_lookup(self):
        outcome = run_replication(tiny_config(), 0)
        bests = outcome.best_values
        evals = [r.cumulative_loss_evals for r in outcome.result.records]
        assert budget_to_threshold(outcome, np.inf) == evals[0]
        assert budget_to_threshold(outcome, bests[-1] - 1.0) is None
        k = int(np.nonzero(bests <= bests[-1])[0][0])
        assert budget_to_threshold(outcome, bests[-1]) == evals[k]


class TestEvaluateFinal:
    def test_picks_lower_tail_candidate(self):
        # at the 0.99 level the noise-centre point beats the origin
        loss = BenchmarkLoss("l0", 10)
        cands = [np.zeros(10), np.ones(10)]
        values = evaluate_candidates(loss, cands, 0.99, 100_000, 123)
        j = int(np.argmin(values))
        np.testing.assert_array_equal(cands[j], np.ones(10))
        assert values[j] == pytest.approx(12.665214220345804, abs=0.5)


class TestReference:
    def test_l0_is_analytic(self):
        config = tiny_config()
        got = emit_reference_run(config)
        assert got == l0_min_cvar_oracle(config.dim, config.alpha_star)[1]

    def test_search_reference_cached(self, tmp_path):
        config = tiny_config(
            benchmark="rastrigin",
            dim=1,
            reference_n_candidates=16,
            reference_inner_budget=40,
            reference_max_iterations=2,
        )
        first = emit_reference_run(config, cache_dir=tmp_path)
        cache_path = tmp_path / "reference_cache.json"
        assert cache_path.exists()
        second = emit_reference_run(config, cache_dir=tmp_path)
        assert first == second
        cache = json.loads(cache_path.read_text())
        assert len(cache) == 1
        assert float(next(iter(cache.values()))) == first

    # a valid changed value for every config field: those that reach the
    # reference run, and those that only the replications use
    REFERENCE_CHANGES = dict(
        benchmark="levy", dim=2, alpha_star=0.85, s_o=1e4, rho=0.2, epsilon=1e-9,
        step_a=40.0, step_b=1000.0, step_gamma=0.7, mean_init_lo=-1.0,
        mean_init_hi=1.0, var_init=5.0, mean_box_lo=-40.0, mean_box_hi=40.0,
        var_box_lo=1e-5, var_box_hi=90.0, grad_norm_stop=1e-2,
        n_growth_exponent=0.5, reference_n_candidates=12,
        reference_inner_budget=30, reference_max_iterations=3,
    )
    RUN_ONLY_CHANGES = dict(
        algorithm="gass_cvar_arl", alpha_init=0.5, effective_size=5,
        n_candidates=7, max_iterations=5, replications=2, master_seed=999,
        final_eval_budget=70,
    )

    @staticmethod
    def search_config(**overrides):
        return tiny_config(
            benchmark="rastrigin",
            dim=1,
            reference_n_candidates=16,
            reference_inner_budget=40,
            reference_max_iterations=2,
            **overrides,
        )

    def test_change_tables_cover_every_field(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(self.REFERENCE_CHANGES) | set(self.RUN_ONLY_CHANGES) == fields

    def test_reference_key_ignores_run_only_fields(self, tmp_path):
        config = self.search_config()
        first = emit_reference_run(config, cache_dir=tmp_path)
        moved = dataclasses.replace(config, **self.RUN_ONLY_CHANGES)
        second = emit_reference_run(moved, cache_dir=tmp_path)
        assert first == second
        assert len(json.loads((tmp_path / "reference_cache.json").read_text())) == 1

    @pytest.mark.parametrize("field", sorted(REFERENCE_CHANGES))
    def test_reference_key_covers_reference_fields(self, field, tmp_path):
        config = self.search_config()
        emit_reference_run(config, cache_dir=tmp_path)
        changed = dataclasses.replace(config, **{field: self.REFERENCE_CHANGES[field]})
        emit_reference_run(changed, cache_dir=tmp_path)
        assert len(json.loads((tmp_path / "reference_cache.json").read_text())) == 2

    def test_reference_seed_unchanged_by_cache_key(self):
        # the search seed hashes its own frozen field set, not the cache
        # key's: a new seed would re-draw every reference
        seed_key = harness._fields_hash(self.search_config(), harness._REFERENCE_SEED_FIELDS)
        assert seed_key == "92fe555bd670c9f63fadb03d8356226100a08fe81476e25f6177067252cc3f77"

    def test_reference_value_pinned(self):
        # pinned bit for bit: a change that moves this value moves cached
        # reference values too, and those must stop being served
        got = emit_reference_run(self.search_config()).hex()
        assert got == "-0x1.297076de18d06p+4", (
            f"the reference value moved ({got}): bump _REFERENCE_SCHEMA in "
            "cvarsearch/harness.py so cached values from before the change miss, "
            "then record the new value here"
        )

    @pytest.mark.parametrize("content", ['{"a": 1.5, "b"', "\x00\xff", "[1, 2]"])
    def test_corrupt_cache_is_a_miss(self, content, tmp_path, caplog):
        config = self.search_config()
        want = emit_reference_run(config)
        cache_path = tmp_path / "reference_cache.json"
        cache_path.write_text(content, encoding="latin-1")
        with caplog.at_level("WARNING", logger="cvarsearch.harness"):
            got = emit_reference_run(config, cache_dir=tmp_path)
        assert got == want
        assert "reference cache" in caplog.text
        cache = json.loads(cache_path.read_text())
        assert list(cache.values()) == [want]
        assert [p.name for p in tmp_path.iterdir()] == ["reference_cache.json"]

    @pytest.mark.parametrize("stored", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_cached_value_is_a_miss(self, stored, tmp_path, caplog):
        # damage the entry under the key the run itself wrote
        config = self.search_config()
        want = emit_reference_run(config, cache_dir=tmp_path)
        cache_path = tmp_path / "reference_cache.json"
        (key,) = json.loads(cache_path.read_text())
        cache_path.write_text(f'{{"{key}": {stored}}}')
        with caplog.at_level("WARNING", logger="cvarsearch.harness"):
            got = emit_reference_run(config, cache_dir=tmp_path)
        assert got == want
        assert "not a finite float" in caplog.text
        assert json.loads(cache_path.read_text()) == {key: want}

    def test_failed_write_keeps_old_cache(self, tmp_path, monkeypatch):
        config = self.search_config()
        emit_reference_run(config, cache_dir=tmp_path)
        cache_path = tmp_path / "reference_cache.json"
        before = cache_path.read_bytes()

        def dump_then_fail(obj, fh, **kwargs):
            fh.write('{"partial')
            raise OSError("no space left on device")

        monkeypatch.setattr(json, "dump", dump_then_fail)
        with pytest.raises(OSError):
            emit_reference_run(dataclasses.replace(config, rho=0.2), cache_dir=tmp_path)
        assert cache_path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["reference_cache.json"]

    def test_unusable_cache_dir_fails_before_the_search(self, tmp_path, monkeypatch):
        # a regular file where the cache directory should be
        cache_dir = tmp_path / "cache"
        cache_dir.write_text("")
        searches = []
        search = harness.run_gass_cvar

        def spy(*args, **kwargs):
            searches.append(args)
            return search(*args, **kwargs)

        monkeypatch.setattr(harness, "run_gass_cvar", spy)
        with pytest.raises(OSError):
            emit_reference_run(self.search_config(), cache_dir=cache_dir)
        assert searches == []

    def test_entry_of_an_older_schema_misses(self, tmp_path):
        # chunks hold 2**16 draws since schema 7, which moves non-l0
        # references at every m but 1,024, so a value cached under schema 6
        # is not served
        config = self.search_config()
        want = emit_reference_run(config)
        old_key = harness._fields_hash(config, harness._REFERENCE_FIELDS, schema=6)
        cache_path = tmp_path / "reference_cache.json"
        cache_path.write_text(json.dumps({old_key: 123.0}))
        assert emit_reference_run(config, cache_dir=tmp_path) == want
        # the old entry is kept, and the run's value stored under a new key
        cache = json.loads(cache_path.read_text())
        assert cache.pop(old_key) == 123.0
        assert list(cache.values()) == [want]


class TestEmission:
    def test_files_and_headers(self, tmp_path):
        config = tiny_config()
        result = run_experiment(config, workers=1, reference_value=1.0)
        paths = emit_csv(result, tmp_path)
        iterations = (tmp_path / "iterations.csv").read_text().splitlines()
        assert iterations[0] == "rep,k,alpha,grad_norm,best_cvar,cum_evals,mean_0,mean_1"
        n_records = sum(len(o.result.records) for o in result.outcomes)
        assert len(iterations) == 1 + n_records

        curve = (tmp_path / "curve.csv").read_text().splitlines()
        assert curve[0] == "cum_evals,mean_ratio,q10_ratio,q90_ratio,mean_best_cvar"
        assert len(curve) == 1 + result.curve_evals.size

        alpha = (tmp_path / "alpha.csv").read_text().splitlines()
        assert alpha[0] == "k,mean_alpha"
        assert len(alpha) == 1 + result.alpha_mean.size

        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"] == dataclasses.asdict(config)
        assert summary["reference_value"] == 1.0
        assert len(summary["replications"]) == config.replications
        assert summary["total_search_evals"] == sum(
            o.search_evals for o in result.outcomes
        )
        assert set(paths) == {"iterations", "curve", "alpha", "summary"}

    def test_curve_rebuilt_from_the_runs(self, tmp_path):
        # replications that stop at different iterations; each one's best
        # so far is looked up at every grid point by a plain loop
        config = tiny_config(algorithm="gass_cvar_arl", alpha_init=0.0, replications=4,
                             max_iterations=8, grad_norm_stop=5.0)
        result = run_experiment(config, workers=1, reference_value=2.0)
        runs = [(o.result.records.cumulative_loss_evals,
                 np.minimum.accumulate(o.result.record_values)) for o in result.outcomes]
        assert len({len(evals) for evals, _ in runs}) > 1
        start = max(evals[0] for evals, _ in runs)
        grid = sorted({int(e) for evals, _ in runs for e in evals if e >= start})
        table = []
        for evals, bests in runs:
            row = []
            for point in grid:
                i = 0
                while i + 1 < len(evals) and evals[i + 1] <= point:
                    i += 1
                row.append(bests[i])
            table.append(row)
        table = np.array(table)
        ratios = table / 2.0
        want = np.column_stack([ratios.mean(axis=0), np.quantile(ratios, 0.1, axis=0),
                                np.quantile(ratios, 0.9, axis=0), table.mean(axis=0)])
        emit_csv(result, tmp_path)
        rows = [line.split(",")
                for line in (tmp_path / "curve.csv").read_text().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == grid
        got = np.array([[float(v) for v in row[1:]] for row in rows])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        emit_csv(run_experiment(tiny_config(), workers=1, reference_value=1.0), tmp_path)
        before = (tmp_path / "curve.csv").read_bytes()
        real_open = open

        def open_failing_curve(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            if "curve.csv" in str(path):
                real_write = fh.write

                def write_half_then_fail(text):
                    real_write(text[:len(text) // 2])
                    raise OSError("no space left on device")

                fh.write = write_half_then_fail
            return fh

        monkeypatch.setattr(harness, "open", open_failing_curve, raising=False)
        changed = run_experiment(tiny_config(), workers=1, reference_value=2.0)
        with pytest.raises(OSError):
            emit_csv(changed, tmp_path)
        assert (tmp_path / "curve.csv").read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []

    def test_rewrite_is_byte_identical(self, tmp_path):
        result = run_experiment(tiny_config(), workers=1, reference_value=1.0)
        emit_csv(result, tmp_path / "a")
        emit_csv(result, tmp_path / "b")
        for name in ("iterations.csv", "curve.csv", "alpha.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_trace_round_trips(self, tmp_path):
        # a trace saved and loaded without pickle is the same array, and
        # emits the same files
        result = run_experiment(tiny_config(algorithm="gass_cvar_arl", alpha_init=0.0),
                                workers=1, reference_value=1.0)
        outcomes = []
        for o in result.outcomes:
            records = o.result.records
            assert records.dtype.names == (
                "k", "alpha", "grad_norm", "best_cvar_estimate", "cumulative_loss_evals",
                "family_mean", "family_variance", "best_candidate")
            np.testing.assert_array_equal(records.k, np.arange(len(records)))
            assert np.all(np.diff(records.cumulative_loss_evals) > 0)
            path = tmp_path / f"rep_{o.rep}.npy"
            np.save(path, records)
            loaded = np.load(path, allow_pickle=False)
            assert loaded.dtype == records.dtype
            assert loaded.tobytes() == records.tobytes()
            outcomes.append(dataclasses.replace(
                o, result=dataclasses.replace(o.result, records=loaded.view(np.recarray))))
        emit_csv(result, tmp_path / "a")
        emit_csv(dataclasses.replace(result, outcomes=outcomes), tmp_path / "b")
        for name in ("iterations.csv", "curve.csv", "alpha.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
