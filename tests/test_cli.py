import os
import shutil
import subprocess

import pytest
import yaml

from cvarsearch import harness
from cvarsearch.benchmarks import BenchmarkLoss, l0_min_cvar_oracle
from cvarsearch.cli import main

RUN_KEYS = dict(
    benchmark="l0",
    dim=2,
    algorithm="gass_cvar",
    alpha_star=0.8,
    effective_size=4,
    n_candidates=6,
    max_iterations=3,
    replications=2,
    master_seed=5,
    mean_init_lo=-2.0,
    mean_init_hi=2.0,
    var_init=4.0,
    var_box_hi=100.0,
    final_eval_budget=40,
    grad_norm_stop=0.0,
)


def write_config(tmp_path, **overrides):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump({**RUN_KEYS, **overrides}, sort_keys=False))
    return path


def test_benchmark_point(capsys):
    assert main(["benchmark", "l0", "1", "1"]) == 0
    out = capsys.readouterr().out
    assert "deterministic_loss=2.0" in out
    assert "noise_scale=1.0" in out


def test_benchmark_pinter_point(capsys):
    assert main(["benchmark", "pinter", "0.5", "-0.5", "1.5"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "deterministic_loss=108.9203301985445",
        "noise_scale=16.61324772583615",
    ]


def test_benchmark_overflowing_point(capsys):
    # squares that overflow are inf, never an OverflowError
    assert main(["benchmark", "rosenbrock", "1e200", "1e200"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "deterministic_loss=inf",
        "noise_scale=inf",
    ]


def test_benchmark_with_oracle(capsys):
    assert main(["benchmark", "l0", "0", "0", "--alpha", "0.9"]) == 0
    assert "cvar_oracle=" in capsys.readouterr().out


def test_benchmark_exact_cvar_for_any_benchmark(capsys):
    assert main(["benchmark", "levy", "0", "0", "--alpha", "0.9"]) == 0
    want = BenchmarkLoss("levy", 2).cvar([0.0, 0.0], 0.9)
    assert capsys.readouterr().out.splitlines()[-1] == f"cvar_oracle={want!r}"
    assert main(["benchmark", "levy", "0", "0", "--alpha", "1.0"]) == 2
    assert "alpha" in capsys.readouterr().err


def test_benchmark_dimension_error(capsys):
    assert main(["benchmark", "powell", "1", "2", "3"]) == 2
    assert "dim" in capsys.readouterr().err


def test_benchmark_unknown_id_rejected_by_parser():
    with pytest.raises(SystemExit) as err:
        main(["benchmark", "sphere", "0"])
    assert err.value.code == 2


def test_oracle(capsys):
    assert main(["oracle", "l0", "--alpha", "0.95", "--dim", "2"]) == 0
    out = capsys.readouterr().out
    want = l0_min_cvar_oracle(2, 0.95)[1]
    assert f"value={want!r}" in out


def test_run_writes_outputs(tmp_path, capsys):
    config = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "reference_value=" in stdout
    assert stdout.count("rep=") == RUN_KEYS["replications"]
    for name in ("iterations.csv", "curve.csv", "alpha.csv", "summary.json"):
        assert (out_dir / name).exists()


def test_run_replication_override(tmp_path, capsys):
    config = write_config(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out_dir), "--replications", "1"]) == 0
    assert capsys.readouterr().out.count("rep=") == 1


def test_run_bad_config(tmp_path, capsys):
    config = write_config(tmp_path, alpha_star=2.0)
    assert main(["run", str(config)]) == 2
    assert "alpha_star" in capsys.readouterr().err


def test_run_l0_alpha_star_zero_is_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, alpha_star=0.0)
    out_dir = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out_dir)]) == 2
    assert "'alpha_star'" in capsys.readouterr().err
    assert not out_dir.exists()


def test_run_non_finite_float_is_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, step_a=float("inf"))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    assert "'step_a': step_a must be finite, got inf" in capsys.readouterr().err


def test_run_box_beyond_reach_is_exit_2(tmp_path, capsys, monkeypatch):
    # candidates near 1e160 would overflow their fourth powers mid-run; the
    # box is refused before any simulation or output directory
    calls = count_simulate(monkeypatch)
    config = write_config(tmp_path, mean_box_lo=-1e200, mean_box_hi=1e200,
                          mean_init_lo=1e160, mean_init_hi=1e160)
    out_dir = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out_dir)]) == 2
    assert ("error: config key 'mean_box_lo', 'mean_box_hi', 'var_box_lo', 'var_box_hi': "
            "box reach") in capsys.readouterr().err
    assert not out_dir.exists()
    assert calls == []


def test_run_box_beyond_ratio_is_exit_2(tmp_path, capsys, monkeypatch):
    # a mean of 1e10 over a variance of 1e-300 would overflow the natural
    # coordinates mid-run; the box is refused before any simulation or
    # output directory
    calls = count_simulate(monkeypatch)
    config = write_config(tmp_path, mean_box_lo=-1e10, mean_box_hi=1e10, var_box_lo=1e-300,
                          mean_init_lo=1e10, mean_init_hi=1e10, var_init=1e-300)
    out_dir = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out_dir)]) == 2
    assert ("error: config key 'mean_box_lo', 'mean_box_hi', 'var_box_lo', 'var_box_hi': "
            "box ratio max(|mean_lo|, |mean_hi|, 1) / var_lo must be finite and <= 1e+150, "
            "got inf") in capsys.readouterr().err
    assert not out_dir.exists()
    assert calls == []


def test_run_missing_file(tmp_path, capsys, monkeypatch):
    # a missing file, a directory and a file that is not UTF-8 are config
    # errors, found before any output directory or simulation
    calls = count_simulate(monkeypatch)
    out_dir = tmp_path / "out"
    not_utf8 = tmp_path / "latin1.yaml"
    not_utf8.write_bytes(b"benchmark: l\xf6\n")
    for command in ("run", "reference"):
        for path in (tmp_path / "nope.yaml", tmp_path, not_utf8):
            assert main([command, str(path), "--out", str(out_dir)]) == 2
            assert f"error: config file {path}: cannot be read" in capsys.readouterr().err
    assert not out_dir.exists()
    assert calls == []


def test_run_unknown_key(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump({**RUN_KEYS, "spices": 11}))
    assert main(["run", str(path)]) == 2
    assert "'spices'" in capsys.readouterr().err


def test_run_runtime_value_error_is_exit_3(tmp_path, capsys, monkeypatch):
    # a ValueError after the config was accepted is a runtime failure
    def fail(*args, **kwargs):
        raise ValueError("losses must be finite")

    monkeypatch.setattr(harness, "run_experiment", fail)
    config = write_config(tmp_path)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 3
    assert "losses must be finite" in capsys.readouterr().err


def test_reference_command(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["reference", str(config), "--out", str(tmp_path / "cache")]) == 0
    out = capsys.readouterr().out
    want = l0_min_cvar_oracle(RUN_KEYS["dim"], RUN_KEYS["alpha_star"])[1]
    assert f"reference_value={want!r}" in out


def count_simulate(monkeypatch):
    calls = []
    simulate = BenchmarkLoss.simulate

    def counted(self, *args, **kwargs):
        calls.append(1)
        return simulate(self, *args, **kwargs)

    monkeypatch.setattr(BenchmarkLoss, "simulate", counted)
    return calls


def test_run_bad_out_is_exit_2_before_any_simulation(tmp_path, capsys, monkeypatch):
    calls = count_simulate(monkeypatch)
    config = write_config(tmp_path)
    out = tmp_path / "plain_file"
    out.write_text("")
    assert main(["run", str(config), "--out", str(out)]) == 2
    assert "--out" in capsys.readouterr().err
    assert calls == []


def test_run_takes_its_process_count_from_the_cpus(tmp_path, monkeypatch, inline_pools):
    # one process per CPU the run may use, at most one per replication, each
    # on its share of the CPUs; the files do not depend on the count
    config = write_config(tmp_path)
    names = ("iterations.csv", "curve.csv", "alpha.csv", "summary.json")
    files = {}
    for cpus, pools in ((1, []), (4, [(2, (2,))])):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                            raising=False)
        inline_pools.clear()
        out_dir = tmp_path / f"cpus{cpus}"
        assert main(["run", str(config), "--out", str(out_dir)]) == 0
        assert [(pool["max_workers"], pool["initargs"]) for pool in inline_pools] == pools
        files[cpus] = [(out_dir / name).read_bytes() for name in names]
    assert files[1] == files[4]


def test_run_has_no_workers_option(tmp_path, capsys, monkeypatch):
    calls = count_simulate(monkeypatch)
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["run", str(config), "--workers", "2"])
    assert err.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert calls == []


def test_reference_bad_out_is_exit_2_before_any_simulation(tmp_path, capsys, monkeypatch):
    calls = count_simulate(monkeypatch)
    config = write_config(tmp_path, benchmark="rosenbrock", reference_n_candidates=6,
                          reference_inner_budget=50, reference_max_iterations=3)
    out = tmp_path / "plain_file"
    out.write_text("")
    assert main(["reference", str(config), "--out", str(out)]) == 2
    assert "--out" in capsys.readouterr().err
    assert calls == []


@pytest.mark.skipif(shutil.which("cvarsearch") is None,
                    reason="console script not on PATH")
def test_console_script_entry():
    proc = subprocess.run(
        ["cvarsearch", "benchmark", "l0", "0.5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "deterministic_loss=0.25" in proc.stdout
