"""Command-line entry points, output schemas, and exit codes."""

import csv
import importlib
import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import saris.cli
from saris.channel import SingularBlockError
from saris.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    config_hash,
    exit_code_for,
    main,
)
from saris.dipoles import GeometryError, Role
from saris.optimize import DegenerateChannelError, OptimizerConfig, saris_optimize
from saris.scenario import ConfigError, ScenarioConfig, generate, parse_config, serialize_config

from _helpers import folded_scenario, tiny_config

TRACE_HEADER = ["algo", "seed", "iter", "smse", "sum_rate"]
RUNS_HEADER = ["config_hash", "seed", "algo", "final_sum_rate", "iterations", "wall_time_s", "converged"]
SUMMARY_HEADER = ["algo", "n_trials", "mean_rate", "std_rate", "mean_iters", "mean_time_s"]
SWEEP_HEADER = ["var", "value", "algo", "mean_rate", "std_rate", "mean_iters", "mean_time_s"]


def write_config(tmp_path, **overrides):
    path = tmp_path / "scenario.cfg"
    path.write_text(serialize_config(tiny_config(**overrides)))
    return path


def read_csv(path):
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def drop_column(header, rows, name):
    idx = header.index(name)
    return (
        header[:idx] + header[idx + 1 :],
        [row[:idx] + row[idx + 1 :] for row in rows],
    )


def run_cli(*argv):
    return main(list(argv))


def test_run_outputs_and_schemas(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = run_cli(
        "run", "--config", str(cfg), "--algo", "all", "--trials", "2",
        "--baseline-trials", "4", "--max-iter", "30", "--out", str(out),
    )
    assert code == EXIT_OK

    trace_header, trace_rows = read_csv(out / "trace.csv")
    runs_header, runs_rows = read_csv(out / "runs.csv")
    summary_header, summary_rows = read_csv(out / "summary.csv")
    assert trace_header == TRACE_HEADER
    assert runs_header == RUNS_HEADER
    assert summary_header == SUMMARY_HEADER

    assert len(runs_rows) == 2 * 3
    assert {row[2] for row in runs_rows} == {"saris", "mismatched", "random"}
    assert {row[1] for row in runs_rows} == {"0", "1"}
    # The hash covers the config as run, trial-count override included.
    digest = config_hash(replace(parse_config(cfg.read_text()), trials=2))
    assert all(row[0] == digest for row in runs_rows)
    assert all(row[6] in ("0", "1") for row in runs_rows)

    # Trace iterations count up from zero within each (algo, seed) block.
    for algo in ("saris", "mismatched", "random"):
        for seed in ("0", "1"):
            iters = [int(r[2]) for r in trace_rows if r[0] == algo and r[1] == seed]
            assert iters == list(range(len(iters)))
            assert len(iters) >= 2

    meta = json.loads((out / "metadata.json").read_text())
    assert meta["command"] == "run"
    assert meta["config_hash"] == digest
    assert meta["trials"] == 2
    assert meta["algos"] == ["saris", "mismatched", "random"]
    assert parse_config(meta["config"]) == replace(parse_config(cfg.read_text()), trials=2)
    assert set(meta["versions"]) == {"python", "numpy", "scipy", "saris"}
    assert "Philox" in meta["rng"]


def test_run_traces_are_monotone(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    run_cli(
        "run", "--config", str(cfg), "--algo", "all", "--trials", "1",
        "--baseline-trials", "6", "--epsilon", "1e-9", "--max-iter", "40",
        "--out", str(out),
    )
    _, trace_rows = read_csv(out / "trace.csv")
    for algo in ("saris", "mismatched", "random"):
        errs = [float(r[3]) for r in trace_rows if r[0] == algo]
        assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))
    rates = [float(r[4]) for r in trace_rows if r[0] == "random"]
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_default_flags_let_saris_beat_random(tmp_path):
    # The default stop tolerance must let saris run past its first iteration:
    # on the reference deployment it should match or beat the best random
    # draw on at least 9 of 10 realizations, the bar of criterion 8.
    out = tmp_path / "out"
    assert run_cli("run", "--algo", "all", "--trials", "10", "--out", str(out)) == EXIT_OK
    header, rows = read_csv(out / "runs.csv")
    algo, seed, rate = (header.index(c) for c in ("algo", "seed", "final_sum_rate"))
    final = {(row[algo], row[seed]): float(row[rate]) for row in rows}
    wins = sum(final["saris", s] >= final["random", s] for s in map(str, range(10)))
    assert wins >= 9


def test_rerun_is_bit_identical_modulo_wall_time(tmp_path):
    cfg = write_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_cli(
            "run", "--config", str(cfg), "--algo", "all", "--trials", "2",
            "--baseline-trials", "4", "--max-iter", "25", "--out", str(out),
        )
        outs.append(out)
    a, b = outs
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "metadata.json").read_bytes() == (b / "metadata.json").read_bytes()
    ra = drop_column(*read_csv(a / "runs.csv"), "wall_time_s")
    rb = drop_column(*read_csv(b / "runs.csv"), "wall_time_s")
    assert ra == rb
    sa = drop_column(*read_csv(a / "summary.csv"), "mean_time_s")
    sb = drop_column(*read_csv(b / "summary.csv"), "mean_time_s")
    assert sa == sb


def test_parallel_jobs_match_serial(tmp_path):
    cfg = write_config(tmp_path)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    for out, jobs in ((serial, "1"), (parallel, "2")):
        run_cli(
            "run", "--config", str(cfg), "--trials", "2", "--max-iter", "25",
            "--jobs", jobs, "--out", str(out),
        )
    assert (serial / "trace.csv").read_bytes() == (parallel / "trace.csv").read_bytes()
    ra = drop_column(*read_csv(serial / "runs.csv"), "wall_time_s")
    rb = drop_column(*read_csv(parallel / "runs.csv"), "wall_time_s")
    assert ra == rb


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(**preset):
    """The environment for a child Python that imports saris from this
    checkout, with the BLAS thread variables unset except those in `preset`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    env.update(preset)
    return env


@pytest.mark.parametrize(
    "preset, want", [({}, "1 1 1"), ({"OMP_NUM_THREADS": "3"}, "1 3 1")], ids=["unset", "preset"]
)
def test_import_defaults_blas_threads_to_one(preset, want):
    # Unset variables default to one thread; a value the user chose is kept.
    code = f"import os, saris; print(*(os.environ[n] for n in {BLAS_THREAD_VARS!r}))"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=child_env(**preset), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == want


def test_jobs_match_serial_with_blas_threads_unset(tmp_path):
    """`--jobs 1` and `--jobs 2` write the same outputs when the user sets no
    BLAS thread variable.

    The default desk deployment is large enough for a serial run at the BLAS
    default thread count to differ from one-thread workers in the last bits.
    On a single-core host that default is one thread, so there this test
    cannot fail.
    """
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        done = subprocess.run(
            [sys.executable, "-m", "saris.cli", "run", "--trials", "4", "--algo", "all",
             "--epsilon", "1e-9", "--max-iter", "20", "--jobs", jobs, "--out", str(out)],
            env=child_env(), capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stderr
        outs.append(out)
    a, b = outs
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    ra = drop_column(*read_csv(a / "runs.csv"), "wall_time_s")
    rb = drop_column(*read_csv(b / "runs.csv"), "wall_time_s")
    assert ra == rb


def test_cli_seed_and_trials_override(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    run_cli(
        "run", "--config", str(cfg), "--seed", "9", "--trials", "1",
        "--max-iter", "10", "--out", str(out),
    )
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["master_seed"] == 9
    assert meta["trials"] == 1
    _, runs_rows = read_csv(out / "runs.csv")
    assert len(runs_rows) == 1
    # The seed column indexes realizations, not the master seed.
    assert runs_rows[0][1] == "0"


def test_summary_recomputes_from_runs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    run_cli(
        "run", "--config", str(cfg), "--algo", "saris", "--trials", "3",
        "--max-iter", "25", "--out", str(out),
    )
    _, runs_rows = read_csv(out / "runs.csv")
    _, summary_rows = read_csv(out / "summary.csv")
    rates = np.array([float(r[3]) for r in runs_rows])
    iters = np.array([float(r[4]) for r in runs_rows])
    row = summary_rows[0]
    assert row[0] == "saris"
    assert int(row[1]) == 3
    assert float(row[2]) == rates.mean()
    assert float(row[3]) == rates.std(ddof=1)
    assert float(row[4]) == iters.mean()


def test_missing_config_reports_io_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("run", "--config", str(tmp_path / "absent.cfg"), "--out", str(out))
    assert code == EXIT_IO
    assert not out.exists()
    assert "error:" in capsys.readouterr().err


def test_malformed_config_reports_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("N = 15\n")
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert "line 1" in capsys.readouterr().err


def test_numerical_breakdown_reports_exit_four(tmp_path, capsys):
    cfg = tmp_path / "dead.cfg"
    cfg.write_text(serialize_config(tiny_config()) + "\nZ_L = 0\n")
    # Duplicate keys are rejected, so strip the original Z_L line first.
    text = "\n".join(
        line for line in cfg.read_text().splitlines() if not line.startswith("Z_L = 5")
    )
    cfg.write_text(text)
    code = run_cli("run", "--config", str(cfg), "--trials", "1", "--out", str(tmp_path / "out"))
    assert code == EXIT_NUMERICAL
    assert "error:" in capsys.readouterr().err


def test_numerical_breakdown_in_a_worker_reports_exit_four(tmp_path, capsys):
    # The worker's SingularBlockError crosses the process boundary by pickle
    # and must arrive as itself, not as a BrokenProcessPool.
    cfg = write_config(tmp_path, Z_L=0.0)
    code = run_cli(
        "run", "--config", str(cfg), "--trials", "2", "--jobs", "2", "--out", str(tmp_path / "out")
    )
    assert code == EXIT_NUMERICAL
    assert "error: block Z_L is numerically singular" in capsys.readouterr().err


def test_unplaceable_cluster_reports_config_error(tmp_path, capsys):
    # A cluster radius of 10 m leaves no centre clear of the terminals.
    cfg = write_config(tmp_path, r=10.0)
    code = run_cli("run", "--config", str(cfg), "--trials", "1", "--out", str(tmp_path / "out"))
    assert code == EXIT_CONFIG
    assert "could not place cluster 0 clear of the terminals" in capsys.readouterr().err


@pytest.fixture
def in_process_pools(monkeypatch):
    """Stand in for the worker pool: record every pool the CLI opens and
    every payload mapped onto it, and run each map in this process."""
    pools = []

    class InProcessPool:
        def __init__(self, *args, **kwargs):
            self.payloads = []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable):
            # Submits every item before returning, as ProcessPoolExecutor does.
            items = list(iterable)
            self.payloads += items
            return [fn(item) for item in items]

    monkeypatch.setattr(saris.cli, "ProcessPoolExecutor", InProcessPool)
    return pools


def test_sweep_opens_one_pool_for_all_points(tmp_path, in_process_pools):
    cfg = write_config(tmp_path)
    flags = ["--config", str(cfg), "--sweep", "R0", "--values", "0.1,0.2,0.3", "--trials", "2",
             "--algo", "all", "--max-iter", "20", "--baseline-trials", "4"]
    assert run_cli("sweep", *flags, "--jobs", "1", "--out", str(tmp_path / "serial")) == EXIT_OK
    assert in_process_pools == []
    assert run_cli("sweep", *flags, "--jobs", "2", "--out", str(tmp_path / "pooled")) == EXIT_OK
    assert len(in_process_pools) == 1
    assert [p[0].R0 for p in in_process_pools[0].payloads] == [0.1, 0.1, 0.2, 0.2, 0.3, 0.3]
    serial, pooled = (
        drop_column(*read_csv(tmp_path / name / "sweep.csv"), "mean_time_s")
        for name in ("serial", "pooled")
    )
    assert serial == pooled


def test_pooled_sweep_failure_stops_before_the_next_point(
    tmp_path, capsys, monkeypatch, in_process_pools
):
    real = saris.cli.saris_optimize

    def singular_at_first_point(f, opt_config):
        if opt_config.r0 == 0.1:
            raise SingularBlockError("Z_L", np.inf)
        return real(f, opt_config)

    monkeypatch.setattr(saris.cli, "saris_optimize", singular_at_first_point)
    cfg = write_config(tmp_path)
    code = run_cli(
        "sweep", "--config", str(cfg), "--sweep", "R0", "--values", "0.1,0.2,0.3",
        "--trials", "2", "--max-iter", "20", "--jobs", "2", "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_NUMERICAL
    assert "error: block Z_L is numerically singular" in capsys.readouterr().err
    assert [p[0].R0 for pool in in_process_pools for p in pool.payloads] == [0.1, 0.1]


@pytest.mark.parametrize(
    "exc",
    [
        SingularBlockError("Z_L", np.inf),
        SingularBlockError("Z_TT + Z_G", 3.5e13),
        GeometryError("dipoles 2 and 5 overlap"),
        ConfigError("line 3: unknown key 'Q'"),
        DegenerateChannelError("channel matrix is zero"),
    ],
    ids=["singular_inf", "singular_finite", "geometry", "config", "degenerate"],
)
def test_errors_survive_pickling(exc):
    # What a worker process raises reaches the parent through pickle.
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)
    assert exit_code_for(back) == exit_code_for(exc)


def test_unknown_algo_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli("run", "--algo", "genie", "--out", str(tmp_path / "out"))
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--jobs", "0"],
        ["--jobs", "-3"],
        ["--algo", "all", "--baseline-trials", "0"],
        ["--max-iter", "0"],
        ["--epsilon", "0"],
        ["--epsilon", "-1"],
        ["--epsilon", "nan"],
        ["--epsilon", "inf"],
    ],
    ids=[
        "jobs_zero",
        "jobs_negative",
        "baseline_trials_zero",
        "max_iter_zero",
        "epsilon_zero",
        "epsilon_negative",
        "epsilon_nan",
        "epsilon_inf",
    ],
)
def test_bad_run_options_are_rejected_before_any_realization(
    tmp_path, capsys, monkeypatch, command, flags
):
    def no_realization(*args, **kwargs):
        raise AssertionError("a realization started")

    monkeypatch.setattr(saris.cli, "generate", no_realization)
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    sweep = ["--sweep", "N", "--values", "4"] if command == "sweep" else []
    code = run_cli(command, "--config", str(cfg), *sweep, *flags, "--out", str(out))
    assert code == EXIT_CONFIG
    assert flags[-2] in capsys.readouterr().err
    assert not out.exists()


def test_one_optimizer_config_per_run_and_sweep_point(tmp_path, monkeypatch):
    seen = []
    real = saris.cli.saris_optimize

    def recording(f, opt_config):
        seen.append(opt_config)
        return real(f, opt_config)

    monkeypatch.setattr(saris.cli, "saris_optimize", recording)
    cfg = write_config(tmp_path, R0=0.3)
    flags = ["--config", str(cfg), "--max-iter", "2", "--epsilon", "1e-7"]
    code = run_cli("run", *flags, "--trials", "3", "--out", str(tmp_path / "run"))
    assert code == EXIT_OK
    assert len(seen) == 3
    assert all(c is seen[0] for c in seen)
    scenario = tiny_config(R0=0.3)
    assert seen[0] == OptimizerConfig(
        power=scenario.P,
        sigma_n2=scenario.sigma_n2,
        epsilon=1e-7,
        max_iter=2,
        q_interval=scenario.Q_interval,
        r0=0.3,
    )

    seen.clear()
    sweep = ["--sweep", "R0", "--values", "0.1,0.4", "--trials", "2"]
    code = run_cli("sweep", *flags, *sweep, "--out", str(tmp_path / "sweep"))
    assert code == EXIT_OK
    assert [c.r0 for c in seen] == [0.1, 0.1, 0.4, 0.4]
    assert seen[0] is seen[1] and seen[2] is seen[3]


def test_default_optimizer_config_is_the_cli_reference_link():
    # Library callers and the acceptance fixtures use OptimizerConfig(); a
    # plain `saris run` builds its settings from the reference scenario.
    args = saris.cli.build_parser().parse_args(["run", "--out", "unused"])
    assert OptimizerConfig() == saris.cli._optimizer_config(ScenarioConfig(), args)


def test_exit_code_mapping():
    assert exit_code_for(ConfigError("x")) == EXIT_CONFIG
    assert exit_code_for(GeometryError("x")) == EXIT_CONFIG
    assert exit_code_for(ValueError("x")) == EXIT_CONFIG
    assert exit_code_for(FileNotFoundError("x")) == EXIT_IO
    assert exit_code_for(SingularBlockError("block", 1e30)) == EXIT_NUMERICAL
    assert exit_code_for(DegenerateChannelError("x")) == EXIT_NUMERICAL
    assert exit_code_for(np.linalg.LinAlgError("x")) == EXIT_NUMERICAL
    assert exit_code_for(ZeroDivisionError("x")) == EXIT_NUMERICAL
    with pytest.raises(KeyError):
        exit_code_for(KeyError("x"))


@pytest.mark.parametrize(
    "values", ["0.5lambda,0.045", " 0.5lambda , 0.045,"], ids=["plain", "spaced"]
)
def test_sweep_schema_and_values(tmp_path, values):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = run_cli(
        "sweep", "--config", str(cfg), "--sweep", "d", "--values", values,
        "--trials", "1", "--max-iter", "20", "--out", str(out),
    )
    assert code == EXIT_OK
    header, rows = read_csv(out / "sweep.csv")
    assert header == SWEEP_HEADER
    assert [row[:2] for row in rows] == [["d", "0.03"], ["d", "0.045"]]
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["command"] == "sweep"
    assert meta["sweep"] == {"var": "d", "values": ["0.5lambda", "0.045"]}


@pytest.mark.parametrize(
    "wavelength, swept_l", [(0.06, 2), (0.05, 1)], ids=["same-L", "added-receiver"]
)
def test_sweep_single_point_agrees_with_run(tmp_path, wavelength, swept_l):
    base = f"wavelength = {wavelength}\nM = 2\nN = 4\nN_c = 1\nN_O = 8\n"
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text(base + "L = 2\n")
    swept_cfg = tmp_path / "swept.cfg"
    swept_cfg.write_text(base + f"L = {swept_l}\n")
    run_out = tmp_path / "run"
    sweep_out = tmp_path / "sweep"
    flags = ["--algo", "all", "--trials", "2", "--max-iter", "20", "--baseline-trials", "4"]
    assert run_cli("run", "--config", str(run_cfg), *flags, "--out", str(run_out)) == EXIT_OK
    code = run_cli(
        "sweep", "--config", str(swept_cfg), "--sweep", "L", "--values", "2", *flags,
        "--out", str(sweep_out),
    )
    assert code == EXIT_OK
    # Sweeping L to 2 reproduces the plain run of the L = 2 config exactly,
    # in every column the two files share but the wall time, whether L was
    # already 2 or a receiver the config leaves out is added.
    shared = ["algo", "mean_rate", "std_rate", "mean_iters"]
    columns = []
    for path in (run_out / "summary.csv", sweep_out / "sweep.csv"):
        header, rows = read_csv(path)
        columns.append([[row[header.index(name)] for name in shared] for row in rows])
    assert columns[0] == columns[1]
    assert [row[0] for row in columns[0]] == ["saris", "mismatched", "random"]


@pytest.mark.parametrize(
    "var, token, fragment",
    [
        ("R0", "1_0", "R0 expects a number"),
        ("d", "1_0e-2", "d expects a number"),
        ("R0", "0.2lambda", "R0 is not a length"),
        ("d", "0.5 λ", None),
        ("N", "1_6", "N expects an integer"),
    ],
    ids=[
        "underscore_number", "underscore_length", "lambda_on_non_length", "spaced_lambda",
        "underscore_integer",
    ],
)
def test_sweep_values_follow_the_config_grammar(tmp_path, capsys, var, token, fragment):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = run_cli(
        "sweep", "--config", str(cfg), "--sweep", var, "--values", token,
        "--trials", "1", "--max-iter", "5", "--out", str(out),
    )
    if fragment is None:
        assert code == EXIT_OK
        assert parse_config(f"{var} = {token}").d == 0.03
        assert [row[:2] for row in read_csv(out / "sweep.csv")[1]] == [[var, "0.03"]]
        return
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"sweep value {token!r} for {var}: {fragment}" in err
    assert not out.exists()
    # The config file rejects the same spelling with the same message.
    with pytest.raises(ConfigError, match=f"line 1: {fragment}"):
        parse_config(f"{var} = {token}")


def test_sweep_rejects_bad_value(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = run_cli(
        "sweep", "--config", str(cfg), "--sweep", "N", "--values", "4,egg",
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_CONFIG
    assert "egg" in capsys.readouterr().err


def test_sweep_rejects_non_finite_value(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = run_cli(
        "sweep", "--config", str(cfg), "--sweep", "R0", "--values", "0.2,nan",
        "--out", str(tmp_path / "out"),
    )
    assert code == EXIT_CONFIG
    assert "sweep value 'nan' for R0" in capsys.readouterr().err


def test_sweep_rejects_empty_value_list(tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli("sweep", "--sweep", "R0", "--values", ",", "--out", str(out))
    assert code == EXIT_CONFIG
    assert "--values must list at least one value" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_unknown_variable(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(
            "sweep", "--sweep", "Z_G", "--values", "1",
            "--out", str(tmp_path / "out"),
        )


def test_cli_import_defers_scipy_special():
    # Every `saris` command pays for `import saris.cli`. The coupling kernel
    # loads scipy.special (~75 ms) on its first call, not at import.
    done = subprocess.run(
        [sys.executable, "-c", "import sys, saris.cli; print('scipy.special' in sys.modules)"],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize(
    "module, name",
    [
        ("saris.cli", name)
        for name in ("main", "generate", "assemble_impedances", "fold_esos", "saris_optimize")
    ]
    + [("saris.channel", "end_to_end_channel")],
)
def test_benchmark_hooks_exist(module, name):
    # The campaign benchmark's oracle reads these module globals with no
    # fallback, so renaming or deleting one must fail here first.
    assert callable(getattr(importlib.import_module(module), name))


def test_benchmark_reads_these_attributes():
    # The oracle also reads, with no fallback, the final saris loads, the
    # dense port matrix with its terminations, and each dipole's position and
    # role.
    config = tiny_config()
    z, f = folded_scenario(config)
    state = saris_optimize(f, OptimizerConfig(max_iter=5))
    assert state.loads.z_diagonal.shape == (z.n_ris,)
    k = z.m_tx + z.l_rx + z.n_eso + z.n_ris
    assert z.full_matrix().shape == (k, k)
    assert z.Z_G.shape == (z.m_tx, z.m_tx)
    assert z.Z_L.shape == (z.l_rx, z.l_rx)
    assert z.Z_US.shape == (z.n_eso, z.n_eso)
    dipoles = generate(config, 0)
    assert all(len(d.position) == 3 for d in dipoles)
    assert sum(d.role is Role.RIS_CELL for d in dipoles) == z.n_ris
    assert sum(d.role is Role.ESO for d in dipoles) == z.n_eso
