"""Campaign benchmark for `saris run`.

    python3 bench/run.py --workload {desk,clutter,wide} --seed N --seconds S --trace {0,1}

Each workload is a deployment. For --seconds seconds the benchmark runs
`saris run` campaigns back to back, one realization after another with
`--jobs 1` (a closed loop with one caller), each campaign in a fresh
interpreter with BLAS pinned to one thread. Campaign c gets a config file
whose master seed is derived from (--seed, workload, c); the program sees only
that file. Every campaign's outputs are checked (see `check_outputs`), and
realization 0 of the first campaign is checked against a dense channel oracle
(`oracle.py`).

--trace 0 prints the end-to-end metrics; --trace 1 runs every campaign twice,
untraced and traced in alternating order with the same config, requires
identical results from both, and prints the per-layer metrics of `tracer.py`. The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}; a
full record with the workload descriptors and the machine goes to
.benchrun/results/. The exit code is 1 when a correctness check fails and 2
when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
RUNS = ROOT / ".benchrun"

# Deployments as overrides of the reference ScenarioConfig, and realizations
# per campaign: about five seconds of work per campaign on desk and clutter,
# one realization (about 13 s) on wide.
WORKLOADS = {
    "desk": ({}, 10),
    "clutter": ({"N_c": 8, "N_O": 100}, 1),
    "wide": ({"N": 256, "N_c": 1, "N_O": 20}, 1),
}
# The CLI default epsilon of 1e-4 stops after one iteration, which would
# measure none of the optimizer; max-iter keeps its default of 500.
CLI_FLAGS = ("--epsilon", "1e-9", "--baseline-trials", "100", "--jobs", "1")
ALGOS = ("saris", "mismatched", "random")
HEADERS = {
    "trace.csv": ["algo", "seed", "iter", "smse", "sum_rate"],
    "runs.csv": [
        "config_hash", "seed", "algo", "final_sum_rate", "iterations", "wall_time_s", "converged",
    ],
    "summary.csv": ["algo", "n_trials", "mean_rate", "std_rate", "mean_iters", "mean_time_s"],
}
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WALL_COLUMNS = {"runs.csv": "wall_time_s", "summary.csv": "mean_time_s"}
SMSE_RISE_TOL = 1e-9
CHANNEL_TOL = 1e-10
IMPORT_PROBES = 4
CHILD_TIMEOUT_S = 120.0
# No campaign starts once the measured loop has run this long, whatever
# --seconds says, so that a run ends within its time limit.
LOOP_BUDGET_S = 110.0

END_TO_END_UNITS = {
    "realizations_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "saris_rate_mean": "bit/s/Hz",
    "saris_win_share": "fraction",
    "ok_share": "fraction",
}


class Unrunnable(Exception):
    """The program cannot be imported or started at all."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({name: "1" for name in BLAS_THREADS})
    return env


def run_child(script, args):
    """Run a bench script in a fresh interpreter; (returncode, stdout, stderr).

    A child past its timeout is killed and waited for, and reads as failed.
    """
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / script), "--src", str(SRC), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return -1, "", f"{script} timed out after {CHILD_TIMEOUT_S:.0f} s"
    return done.returncode, done.stdout, done.stderr


def import_times():
    """Seconds for `import saris.cli` in fresh interpreters, after one warm-up
    import that also leaves the bytecode cache filled. Every campaign adds its
    own import time to these probes."""
    if not (SRC / "saris" / "__init__.py").is_file():
        raise Unrunnable(f"no saris package under {SRC}")
    times = []
    for _ in range(IMPORT_PROBES + 1):
        code, out, err = run_child("campaign.py", ["--import-only"])
        if code != 0:
            raise Unrunnable(f"import saris.cli failed: {err.strip()[-500:]}")
        times.append(json.loads(out.splitlines()[-1])["import_s"])
    return times[1:]


def campaign_seed(seed, workload, index):
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def write_config(path, workload, seed, trials):
    overrides, _ = WORKLOADS[workload]
    lines = [f"{key} = {value}" for key, value in overrides.items()]
    lines += [f"seed = {seed}", f"trials = {trials}"]
    path.write_text("\n".join(lines) + "\n")


def run_campaign(directory, config, trace):
    """One `saris run` campaign; returns its report and output directory."""
    out = directory / ("traced" if trace else "untraced")
    report_path = directory / f"report-{out.name}.json"
    args = ["--report", str(report_path), *(["--trace"] if trace else [])]
    args += ["--", "run", "--config", str(config), "--algo", "all", *CLI_FLAGS, "--out", str(out)]
    code, _, err = run_child("campaign.py", args)
    report = json.loads(report_path.read_text()) if report_path.is_file() else None
    error = None if code == 0 else f"campaign exited with {code}: {err.strip()[-500:]}"
    return {"out": out, "report": report, "error": error, "traced": trace}


def read_csv(path):
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0] if rows else [], rows[1:]


def _positive(value):
    return math.isfinite(value) and value > 0


def check_outputs(out, trials):
    """Check one campaign's output files.

    Returns ({seed: {algo: final rate}}, failed seeds, problems). A missing
    file, a wrong header or an unreadable row fails every realization; a
    non-finite or non-positive rate, a missing algorithm or a saris SMSE
    trace that rises by more than SMSE_RISE_TOL fails its realization.
    """
    seeds = set(range(trials))
    missing = [name for name in (*HEADERS, "metadata.json") if not (out / name).is_file()]
    if missing:
        return {}, seeds, [f"missing {', '.join(missing)}"]
    problems = [
        f"{name} header {read_csv(out / name)[0]} is not {header}"
        for name, header in HEADERS.items()
        if read_csv(out / name)[0] != header
    ]
    try:
        json.loads((out / "metadata.json").read_text())
    except ValueError as exc:
        problems.append(f"metadata.json: {exc}")
    if problems:
        return {}, seeds, problems

    rates, bad = {}, set()
    try:
        for row in read_csv(out / "runs.csv")[1]:
            seed, algo, rate = int(row[1]), row[2], float(row[3])
            rates.setdefault(seed, {})[algo] = rate
            if not _positive(rate):
                bad.add(seed)
                problems.append(f"runs.csv: {algo} rate {rate} for realization {seed}")
        last = {}
        for algo, seed, _, smse, rate in read_csv(out / "trace.csv")[1]:
            seed, smse, rate = int(seed), float(smse), float(rate)
            if not _positive(rate):
                bad.add(seed)
                problems.append(f"trace.csv: {algo} rate {rate} for realization {seed}")
            if algo == "saris":
                if seed in last and smse > last[seed] + SMSE_RISE_TOL:
                    bad.add(seed)
                    problems.append(f"trace.csv: saris SMSE rises by {smse - last[seed]:.3e}")
                last[seed] = smse
        for row in read_csv(out / "summary.csv")[1]:
            if not _positive(float(row[2])):
                problems.append(f"summary.csv: {row[0]} mean rate {row[2]}")
                bad |= seeds
    except (ValueError, IndexError) as exc:
        return {}, seeds, [f"unreadable output: {exc}"]
    for seed in seeds:
        if set(rates.get(seed, {})) != set(ALGOS):
            bad.add(seed)
            problems.append(f"realization {seed} lacks some of {ALGOS}")
    return rates, bad, problems


def same_results(a, b):
    """Problems if two campaigns on one config differ in anything but wall time."""
    problems = []
    for name in ("trace.csv", "metadata.json"):
        if (a / name).read_bytes() != (b / name).read_bytes():
            problems.append(f"{name} differs between untraced and traced runs")
    for name, column in WALL_COLUMNS.items():
        (ha, ra), (hb, rb) = read_csv(a / name), read_csv(b / name)
        col = ha.index(column)
        if ha != hb or [r[:col] + r[col + 1:] for r in ra] != [r[:col] + r[col + 1:] for r in rb]:
            problems.append(f"{name} differs outside {column} between untraced and traced runs")
    return problems


def saris_rate(out):
    """Realization 0's final saris rate as runs.csv spells it, or None."""
    try:
        rows = read_csv(out / "runs.csv")[1]
    except OSError:
        return None
    return next((row[3] for row in rows if row[1:3] == ["0", "saris"]), None)


def run_oracle(directory, config):
    """Check realization 0 of a campaign against the dense channel oracle."""
    args = ["--", "run", "--config", str(config), "--trials", "1", "--algo", "saris", *CLI_FLAGS]
    code, out, err = run_child("oracle.py", [*args, "--out", str(directory / "oracle")])
    if code != 0:
        return None, [f"oracle exited with {code}: {err.strip()[-500:]}"]
    return json.loads(out.splitlines()[-1]), []


def machine(versions):
    def git(*args):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            done = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            models = [ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": {name: child_env()[name] for name in BLAS_THREADS},
        **(versions or {"python": platform.python_version()}),
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
    }


def measure(workload, seed, seconds, trace, directory):
    """Run campaigns for `seconds`; returns the record of the run."""
    _, trials = WORKLOADS[workload]
    setup = import_times()
    pairs, problems = [], []
    start = last = perf_counter()
    # A campaign starts while the loop, with half a campaign more, stays within
    # --seconds: the measured time is --seconds give or take half a campaign.
    while not pairs or perf_counter() - start + 0.5 * (perf_counter() - last) <= min(
        seconds, LOOP_BUDGET_S
    ):
        index = len(pairs)
        last = perf_counter()
        cdir = directory / f"campaign-{index}"
        cdir.mkdir(parents=True)
        config = cdir / "scenario.cfg"
        write_config(config, workload, campaign_seed(seed, workload, index), trials)
        # Traced and untraced runs of a config alternate in which goes first.
        order = ((False, True), (True, False))[index % 2] if trace else (False,)
        runs = [run_campaign(cdir, config, traced) for traced in order]
        runs.sort(key=lambda run: run["traced"])
        for run in runs:
            run["rates"], run["bad"], found = check_outputs(run["out"], trials)
            if run["error"]:
                run["bad"] = set(range(trials))
                found = [run["error"]]
            problems += [f"campaign {index}: {p}" for p in found]
        if trace and not (runs[0]["error"] or runs[1]["error"]):
            found = same_results(runs[0]["out"], runs[1]["out"])
            if found:
                runs[1]["bad"] = set(range(trials))
                problems += [f"campaign {index}: {p}" for p in found]
        pairs.append(runs)

    first = pairs[0][0]
    oracle, found = run_oracle(first["out"].parent, first["out"].parent / "scenario.cfg")
    if oracle and oracle["rate"] != saris_rate(first["out"]):
        found.append(f"oracle saris rate {oracle['rate']} differs from the campaign's")
    if oracle and not oracle["rel_err"] <= CHANNEL_TOL:
        found.append(f"folded vs dense channel: rel err {oracle['rel_err']:.3e}")
    if found:
        first["bad"].add(0)
        problems += found
    oracle = oracle or {}
    attempted = trials * sum(len(runs) for runs in pairs)
    failed = sum(len(run["bad"]) for runs in pairs for run in runs)

    untraced = [runs[0] for runs in pairs]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "campaigns": len(pairs),
        "trials_per_campaign": trials,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "descriptors": oracle.get("descriptors"),
        "oracle_rel_err": oracle.get("rel_err"),
        "machine": machine(oracle.get("versions")),
        "setup_import_s": setup,
        "campaign_main_s": [r["report"]["main_s"] for r in untraced if r["report"]],
        "campaign_import_s": [r["report"]["import_s"] for r in untraced if r["report"]],
    }
    if trace:
        record["metrics"] = layer_metrics(pairs, problems)
    else:
        record["metrics"] = end_to_end_metrics(untraced, setup, attempted, failed)
    return record


def throughput(runs):
    done = sum(sum(set(r) == set(ALGOS) for r in run["rates"].values()) for run in runs)
    busy = sum(run["report"]["main_s"] for run in runs if run["report"])
    return done / busy if busy > 0 else 0.0


def end_to_end_metrics(untraced, setup, attempted, failed):
    rows = [r for run in untraced for r in run["rates"].values() if set(r) == set(ALGOS)]
    reports = [run["report"] for run in untraced if run["report"]]
    wins = sum(r["saris"] >= r["random"] for r in rows)
    return {
        "realizations_per_s": throughput(untraced),
        "setup_s": statistics.median(setup + [report["import_s"] for report in reports]),
        "peak_rss_mb": max((report["peak_rss_mb"] for report in reports), default=0.0),
        "saris_rate_mean": statistics.fmean(r["saris"] for r in rows) if rows else 0.0,
        "saris_win_share": wins / len(rows) if rows else 0.0,
        "ok_share": 1.0 - failed / attempted,
    }


def layer_metrics(pairs, problems):
    traced = [runs[1] for runs in pairs if runs[1]["report"] and runs[1]["report"]["spans"]]
    untraced_rps = throughput([runs[0] for runs in pairs])
    overhead = throughput([runs[1] for runs in pairs]) / untraced_rps if untraced_rps else 0.0
    campaigns = [
        (run["report"]["spans"], sum(p.stat().st_size for p in run["out"].iterdir()))
        for run in traced
    ]
    metrics, found = tracer.summarize(campaigns, overhead)
    problems += found
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    directory = RUNS / args.workload
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), directory)
    except Unrunnable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    metrics = record["metrics"]
    correct = record["failed"] == 0 and not record["problems"]
    print(
        f"workload {args.workload}  seed {args.seed}  campaigns {record['campaigns']}  "
        f"realizations {record['attempted']}  failed {record['failed']}"
    )
    for problem in record["problems"][:20]:
        print(f"  check failed: {problem}")
    if args.trace:
        units = {name: tracer.unit(name) for name in metrics}
    else:
        units = END_TO_END_UNITS
        print(f"  {'failed_share':<48} {record['failed'] / record['attempted']:.6g} fraction")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:.6g} {units[name]}")
    print(f"  descriptors {json.dumps(record['descriptors'])}")
    print(f"  machine {json.dumps(record['machine'])}")
    print(f"  record {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
