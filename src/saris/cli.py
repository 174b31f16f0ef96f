"""Command-line front end: seeded experiment runs and parameter sweeps.

Outputs are deterministic for a given invocation (identical bytes on rerun)
except for the wall-time columns, which measure the host. The `seed` column
in output files is the realization index; the master seed it extends lives
in metadata.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

import saris
from saris.channel import SingularBlockError, fold_esos
from saris.dipoles import GeometryError, assemble_impedances
from saris.optimize import (
    DegenerateChannelError,
    OptimizerConfig,
    mismatched_optimize,
    random_baseline,
    saris_optimize,
)
from saris.scenario import (
    ConfigError,
    ScenarioConfig,
    parse_config,
    generate,
    resize_users,
    serialize_config,
    substream,
)

ALGOS = ("saris", "mismatched", "random")
SWEEP_VARIABLES = ("N", "d", "N_c", "L", "R0")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def exit_code_for(exc: BaseException) -> int:
    """Exit code for an exception escaping a run, per the error contract.

    Numerical failures are classified first: DegenerateChannelError is a
    ValueError subclass but reports a breakdown, not a bad input.
    """
    if isinstance(
        exc, (SingularBlockError, DegenerateChannelError, np.linalg.LinAlgError, ArithmeticError)
    ):
        return EXIT_NUMERICAL
    if isinstance(exc, (ConfigError, GeometryError, ValueError)):
        return EXIT_CONFIG
    if isinstance(exc, OSError):
        return EXIT_IO
    raise exc


def config_hash(config: ScenarioConfig) -> str:
    return hashlib.sha256(serialize_config(config).encode()).hexdigest()


def _run_trial(payload):
    """One realization: assemble once, run every requested algorithm.

    Module-level so worker processes can unpickle it.
    """
    config_text, trial, algos, epsilon, max_iter, baseline_trials = payload
    config = parse_config(config_text)
    opt_config = OptimizerConfig(
        power=config.P,
        sigma_n2=config.sigma_n2,
        epsilon=epsilon,
        max_iter=max_iter,
        q_interval=config.Q_interval,
        r0=config.R0,
    )
    dipoles = generate(config, trial)
    z = assemble_impedances(
        dipoles, config.wavelength, z_g=config.Z_G, z_l=config.Z_L, z_us=config.Z_US
    )
    f = fold_esos(z)
    records = []
    for algo in algos:
        t0 = time.perf_counter()
        if algo == "saris":
            state = saris_optimize(f, opt_config)
        elif algo == "mismatched":
            state = mismatched_optimize(f, z, opt_config)
        else:
            state = random_baseline(
                f, opt_config, trials=baseline_trials, rng=substream(config.seed, trial, 1)
            )
        wall = time.perf_counter() - t0
        records.append(
            {
                "algo": algo,
                "seed": trial,
                "smse_trace": list(state.smse_trace),
                "rate_trace": list(state.rate_trace),
                "final_sum_rate": state.final_sum_rate,
                "iterations": state.iteration,
                "wall_time_s": wall,
                "converged": state.converged,
            }
        )
    return records


@contextmanager
def _worker_pool(jobs: int):
    """Pool of `jobs` spawned worker processes whose BLAS runs one thread,
    unless the caller set the thread variables itself.

    A spawned worker loads BLAS afresh and reads the variables then; a forked
    one would inherit the parent's initialized BLAS and ignore them. They stay
    set while the pool lives, since workers may start at any submit.
    """
    unset = [name for name in BLAS_THREAD_VARS if name not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            yield pool
    finally:
        for name in unset:
            os.environ.pop(name, None)


def _execute_trials(config: ScenarioConfig, algos, epsilon, max_iter, baseline_trials, jobs):
    text = serialize_config(config)
    payloads = [
        (text, trial, algos, epsilon, max_iter, baseline_trials)
        for trial in range(config.trials)
    ]
    if jobs <= 1 or len(payloads) <= 1:
        results = [_run_trial(p) for p in payloads]
    else:
        with _worker_pool(jobs) as pool:
            results = list(pool.map(_run_trial, payloads))
    return [record for per_trial in results for record in per_trial]


def _summarize(records, algos):
    rows = []
    for algo in algos:
        sub = [r for r in records if r["algo"] == algo]
        rates = np.array([r["final_sum_rate"] for r in sub])
        iters = np.array([r["iterations"] for r in sub])
        times = np.array([r["wall_time_s"] for r in sub])
        rows.append(
            {
                "algo": algo,
                "n_trials": len(sub),
                "mean_rate": float(rates.mean()),
                "std_rate": float(rates.std(ddof=1)) if len(sub) > 1 else 0.0,
                "mean_iters": float(iters.mean()),
                "mean_time_s": float(times.mean()),
            }
        )
    return rows


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_metadata(out: Path, command: str, config: ScenarioConfig, args, algos, extra=None):
    meta = {
        "command": command,
        "config": serialize_config(config),
        "config_hash": config_hash(config),
        "master_seed": config.seed,
        "trials": config.trials,
        "algos": list(algos),
        "epsilon": args.epsilon,
        "max_iter": args.max_iter,
        "baseline_trials": args.baseline_trials,
        "rng": "numpy.random.Philox, substreams keyed by (seed, realization)",
        "versions": {
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "saris": saris.__version__,
        },
    }
    if extra:
        meta.update(extra)
    with (out / "metadata.json").open("w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _load_config(args) -> ScenarioConfig:
    if args.config is None:
        config = ScenarioConfig()
    else:
        text = Path(args.config).read_text()
        config = parse_config(text)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.trials is not None:
        config = replace(config, trials=args.trials)
    return config


def _requested_algos(token: str):
    return ALGOS if token == "all" else (token,)


def cmd_run(args) -> int:
    config = _load_config(args)
    algos = _requested_algos(args.algo)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = _execute_trials(
        config, algos, args.epsilon, args.max_iter, args.baseline_trials, args.jobs
    )

    trace_rows = []
    for record in records:
        for i, (err, rate) in enumerate(zip(record["smse_trace"], record["rate_trace"])):
            trace_rows.append(
                [record["algo"], record["seed"], i, _fmt(err), _fmt(rate)]
            )
    _write_csv(out / "trace.csv", ["algo", "seed", "iter", "smse", "sum_rate"], trace_rows)

    digest = config_hash(config)
    run_rows = [
        [
            digest,
            record["seed"],
            record["algo"],
            _fmt(record["final_sum_rate"]),
            record["iterations"],
            _fmt(record["wall_time_s"]),
            _fmt(record["converged"]),
        ]
        for record in records
    ]
    _write_csv(
        out / "runs.csv",
        ["config_hash", "seed", "algo", "final_sum_rate", "iterations", "wall_time_s", "converged"],
        run_rows,
    )

    summary_rows = [
        [
            row["algo"],
            row["n_trials"],
            _fmt(row["mean_rate"]),
            _fmt(row["std_rate"]),
            _fmt(row["mean_iters"]),
            _fmt(row["mean_time_s"]),
        ]
        for row in _summarize(records, algos)
    ]
    _write_csv(
        out / "summary.csv",
        ["algo", "n_trials", "mean_rate", "std_rate", "mean_iters", "mean_time_s"],
        summary_rows,
    )
    _write_metadata(out, "run", config, args, algos)
    print(f"{len(records)} runs -> {out}")
    return EXIT_OK


def _sweep_value(config: ScenarioConfig, var: str, token: str) -> tuple[ScenarioConfig, str]:
    token = token.strip()
    try:
        if var == "N":
            value = int(token)
            return replace(config, N=value), str(value)
        if var == "N_c":
            value = int(token)
            return replace(config, N_c=value), str(value)
        if var == "L":
            value = int(token)
            return resize_users(config, value), str(value)
        if var == "R0":
            value = float(token)
            return replace(config, R0=value), _fmt(value)
        scaled = token.endswith(("λ", "lambda"))
        if scaled:
            number = float(token.removesuffix("lambda").removesuffix("λ"))
            value = number * config.wavelength
        else:
            value = float(token)
        return replace(config, d=value), _fmt(value)
    except ValueError as exc:
        raise ConfigError(f"sweep value {token!r} for {var}: {exc}") from None


def cmd_sweep(args) -> int:
    config = _load_config(args)
    var = args.sweep
    tokens = [t for t in args.values.split(",") if t.strip()]
    if not tokens:
        raise ConfigError("--values must list at least one value")
    points = [_sweep_value(config, var, token) for token in tokens]
    algos = _requested_algos(args.algo)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    sweep_rows = []
    for point_config, label in points:
        records = _execute_trials(
            point_config, algos, args.epsilon, args.max_iter, args.baseline_trials, args.jobs
        )
        for row in _summarize(records, algos):
            sweep_rows.append(
                [
                    var,
                    label,
                    row["algo"],
                    _fmt(row["mean_rate"]),
                    _fmt(row["std_rate"]),
                    _fmt(row["mean_iters"]),
                    _fmt(row["mean_time_s"]),
                ]
            )
    _write_csv(
        out / "sweep.csv",
        ["var", "value", "algo", "mean_rate", "std_rate", "mean_iters", "mean_time_s"],
        sweep_rows,
    )
    _write_metadata(
        out, "sweep", config, args, algos, extra={"sweep": {"var": var, "values": tokens}}
    )
    print(f"{len(points)} sweep points -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saris",
        description="Impedance-coupled RIS link simulator and load-reactance optimizer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario config file (defaults apply if omitted)")
        p.add_argument("--algo", choices=ALGOS + ("all",), default="saris")
        p.add_argument("--trials", type=int, help="realizations per experiment")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--epsilon", type=float, default=1e-4, help="stop when |ΔSMSE| ≤ epsilon")
        p.add_argument("--max-iter", type=int, default=500)
        p.add_argument(
            "--baseline-trials", type=int, default=100, help="draws for the random baseline"
        )
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p_run = sub.add_parser("run", help="run one experiment")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one scenario variable")
    common(p_sweep)
    p_sweep.add_argument("--sweep", required=True, choices=SWEEP_VARIABLES, metavar="VAR",
                         help="variable to sweep: " + ", ".join(SWEEP_VARIABLES))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single translation point to exit codes
        code = exit_code_for(exc)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
