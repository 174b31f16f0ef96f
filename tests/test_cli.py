"""Command-line entry points, output schemas, and exit codes."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from saris.channel import SingularBlockError
from saris.cli import (
    BLAS_THREAD_VARS,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERICAL,
    EXIT_OK,
    _worker_pool,
    config_hash,
    exit_code_for,
    main,
)
from saris.dipoles import GeometryError
from saris.optimize import DegenerateChannelError
from saris.scenario import ConfigError, parse_config, serialize_config

from _helpers import tiny_config

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


def test_jobs_workers_pin_blas_threads(monkeypatch):
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    with _worker_pool(2) as pool:
        seen = [pool.submit(os.getenv, name).result(timeout=60) for name in BLAS_THREAD_VARS]
    # Unset variables default to one thread; a value the user chose is kept.
    assert dict(zip(BLAS_THREAD_VARS, seen)) == {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "3",
        "MKL_NUM_THREADS": "1",
    }
    assert "OPENBLAS_NUM_THREADS" not in os.environ
    assert "MKL_NUM_THREADS" not in os.environ


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


def test_unknown_algo_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        run_cli("run", "--algo", "genie", "--out", str(tmp_path / "out"))
    assert err.value.code == 2


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


def test_sweep_schema_and_values(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    code = run_cli(
        "sweep", "--config", str(cfg), "--sweep", "d", "--values", "0.5lambda,0.045",
        "--trials", "1", "--max-iter", "20", "--out", str(out),
    )
    assert code == EXIT_OK
    header, rows = read_csv(out / "sweep.csv")
    assert header == SWEEP_HEADER
    assert [row[:2] for row in rows] == [["d", "0.03"], ["d", "0.045"]]
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["command"] == "sweep"
    assert meta["sweep"] == {"var": "d", "values": ["0.5lambda", "0.045"]}


def test_sweep_single_point_agrees_with_run(tmp_path):
    cfg = write_config(tmp_path)
    run_out = tmp_path / "run"
    sweep_out = tmp_path / "sweep"
    run_cli(
        "run", "--config", str(cfg), "--trials", "2", "--max-iter", "20",
        "--out", str(run_out),
    )
    run_cli(
        "sweep", "--config", str(cfg), "--sweep", "L", "--values", "2",
        "--trials", "2", "--max-iter", "20", "--out", str(sweep_out),
    )
    _, summary_rows = read_csv(run_out / "summary.csv")
    _, sweep_rows = read_csv(sweep_out / "sweep.csv")
    # Sweeping L to its configured value reproduces the plain run exactly.
    assert sweep_rows[0][3] == summary_rows[0][2]
    assert sweep_rows[0][5] == summary_rows[0][4]


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


def test_sweep_rejects_unknown_variable(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(
            "sweep", "--sweep", "Z_G", "--values", "1",
            "--out", str(tmp_path / "out"),
        )


def test_cli_import_defers_scipy_special():
    # Every `saris` command pays for `import saris.cli`. The coupling kernel
    # loads scipy.special (~75 ms) on its first call, not at import.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, saris.cli; print('scipy.special' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
