"""Command-line front end: seeded experiment runs and parameter sweeps.

Outputs are deterministic for a given invocation (identical bytes on rerun)
except for the wall-time columns, which measure the host. The `seed` column
in output files is the realization index; the master seed it extends lives
in metadata.json.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
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
    format_value,
    generate,
    parse_config,
    parse_value,
    resize_users,
    scale_length,
    serialize_config,
    substream,
)

ALGOS = ("saris", "mismatched", "random")
SWEEP_VARIABLES = ("N", "d", "N_c", "L", "R0")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


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
    config, opt_config, trial, algos, baseline_trials = payload
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
        # The record holds all this arm's results; dropping its state frees
        # the LU factors its evaluation holds before the next arm factors.
        del state
    return records


def _summarize(records, algos):
    """One summary row per algorithm, for summary.csv and sweep.csv."""
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
    """Write the `header` columns of each row (a mapping), every cell through _fmt."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([_fmt(row[name]) for name in header] for row in rows)


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


def _optimizer_config(config: ScenarioConfig, args) -> OptimizerConfig:
    """The optimizer settings every realization of `config` runs with."""
    try:
        return OptimizerConfig(
            power=config.P,
            sigma_n2=config.sigma_n2,
            epsilon=args.epsilon,
            max_iter=args.max_iter,
            q_interval=config.Q_interval,
            r0=config.R0,
        )
    except ValueError as exc:
        # Each message starts with the offending field's name.
        flag = "--" + str(exc).split()[0].replace("_", "-")
        raise ConfigError(f"{flag}: {exc}") from None


def _run_points(args, configs):
    """Run each config's realizations in turn; return (algos, output
    directory, records per config).

    Option values that would otherwise be ignored, or fail only after
    earlier realizations have run, are rejected before the output directory
    exists. With --jobs above 1, one worker pool serves every config, mapped
    one config at a time, so a failure keeps later configs from starting.
    """
    algos = ALGOS if args.algo == "all" else (args.algo,)
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if "random" in algos and args.baseline_trials < 1:
        raise ConfigError(f"--baseline-trials must be at least 1, got {args.baseline_trials}")
    opt_configs = [_optimizer_config(config, args) for config in configs]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    run = map
    with contextlib.ExitStack() as stack:
        if args.jobs > 1 and any(config.trials > 1 for config in configs):
            spawn = multiprocessing.get_context("spawn")
            run = stack.enter_context(ProcessPoolExecutor(args.jobs, mp_context=spawn)).map
        records = []
        for config, opt_config in zip(configs, opt_configs):
            payloads = [
                (config, opt_config, trial, algos, args.baseline_trials)
                for trial in range(config.trials)
            ]
            records.append([rec for per_trial in run(_run_trial, payloads) for rec in per_trial])
    return algos, out, records


def cmd_run(args) -> int:
    config = _load_config(args)
    algos, out, (records,) = _run_points(args, [config])

    trace_rows = [
        {"algo": record["algo"], "seed": record["seed"], "iter": i, "smse": err, "sum_rate": rate}
        for record in records
        for i, (err, rate) in enumerate(zip(record["smse_trace"], record["rate_trace"]))
    ]
    _write_csv(out / "trace.csv", ["algo", "seed", "iter", "smse", "sum_rate"], trace_rows)

    digest = config_hash(config)
    _write_csv(
        out / "runs.csv",
        ["config_hash", "seed", "algo", "final_sum_rate", "iterations", "wall_time_s", "converged"],
        [{"config_hash": digest, **record} for record in records],
    )
    _write_csv(
        out / "summary.csv",
        ["algo", "n_trials", "mean_rate", "std_rate", "mean_iters", "mean_time_s"],
        _summarize(records, algos),
    )
    _write_metadata(out, "run", config, args, algos)
    print(f"{len(records)} runs -> {out}")
    return EXIT_OK


def _sweep_value(config: ScenarioConfig, var: str, token: str) -> tuple[ScenarioConfig, str]:
    """`config` with `var` set from `token`, read as in a config file, and
    the value's label."""
    try:
        value, scaled = parse_value(var, token)
        if scaled:
            value = scale_length(value, config.wavelength)
        point = resize_users(config, value) if var == "L" else replace(config, **{var: value})
    except ValueError as exc:
        raise ConfigError(f"sweep value {token!r} for {var}: {exc}") from None
    return point, format_value(value)


def cmd_sweep(args) -> int:
    config = _load_config(args)
    var = args.sweep
    tokens = [t for t in map(str.strip, args.values.split(",")) if t]
    if not tokens:
        raise ConfigError("--values must list at least one value")
    points = [_sweep_value(config, var, token) for token in tokens]
    algos, out, per_point = _run_points(args, [point_config for point_config, _ in points])
    sweep_rows = [
        {"var": var, "value": label, **row}
        for (_, label), records in zip(points, per_point)
        for row in _summarize(records, algos)
    ]
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
        p.add_argument(
            "--epsilon",
            type=float,
            default=OptimizerConfig.epsilon,
            help="stop when |ΔSMSE| between consecutive iterations ≤ epsilon",
        )
        p.add_argument("--max-iter", type=int, default=OptimizerConfig.max_iter)
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
