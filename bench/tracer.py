"""Per-layer spans for one `saris run` campaign, and their summary.

Recording: `Tracer.install` swaps the pipeline functions that `saris.cli` and
`saris.optimize` call through module globals for timing wrappers, so the
program itself is not edited. Each call becomes one span
`[name, start, end, parent, realization, attrs]` held in memory; the campaign
runner writes them out when the run ends. The realization id comes from the
index argument of `generate`. A wrapped name the program no longer defines is
skipped, so its metrics read zero calls instead of breaking the benchmark.

Summarizing (`summarize`) needs only the standard library, so the parent
benchmark process can aggregate spans without importing numpy.
"""

from __future__ import annotations

import functools
import importlib
import resource
import statistics
from collections import defaultdict
from time import perf_counter

# Module globals replaced by wrappers. `saris.cli` calls the pipeline stages;
# `saris.optimize` calls the optimizer sub-steps (and `saris_optimize` itself,
# from `mismatched_optimize`).
WRAPPED = {
    "saris.cli": (
        "generate",
        "assemble_impedances",
        "fold_esos",
        "saris_optimize",
        "mismatched_optimize",
        "random_baseline",
    ),
    "saris.optimize": (
        "saris_optimize",
        "scatter_inverse",
        "optimal_precoder",
        "precoder_residual",
        "build_delta_system",
        "solve_delta",
        "end_to_end_channel",
    ),
}

# Optimizer sub-steps reported per enclosing algorithm, with the measures the
# benchmark defines for each. random_baseline calls only the first two.
SUBSTEPS = {
    "scatter_inverse": ("calls", "s"),
    "optimal_precoder": ("calls", "s"),
    "precoder_residual": ("calls", "s"),
    "build_delta_system": ("s",),
    "solve_delta": ("s",),
}
SUBSTEP_ALGOS = {
    "saris_optimize": tuple(SUBSTEPS),
    "mismatched_optimize": tuple(SUBSTEPS),
    "random_baseline": ("scatter_inverse", "optimal_precoder"),
}
ALGO_TAG = {
    "saris_optimize": "saris",
    "mismatched_optimize": "mismatched",
    "random_baseline": "random",
}


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.realization = None
        self._last_loads = None

    def call(self, name, fn, *args, **kwargs):
        """Run fn as a span named `name` under the innermost open span."""
        if name == "scenario.generate":
            self.realization = _arg(args, kwargs, 1, "realization_index")
        elif name == "optimize.saris_optimize":
            self._last_loads = None
        elif name == "optimize.scatter_inverse":
            self._last_loads = _arg(args, kwargs, 1, "loads")
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.realization, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()
        span[5] = self._attrs(name, args, kwargs, result)
        return result

    def _attrs(self, name, args, kwargs, result):
        if name == "dipoles.assemble_impedances":
            k = len(_arg(args, kwargs, 0, "dipoles"))
            return {"pairs": k * (k + 1) // 2, "rss_mb": _rss_mb()}
        if name == "optimize.saris_optimize":
            config = _arg(args, kwargs, 1, "config")
            iterations = int(getattr(result, "iteration", 0))
            guard = getattr(result, "guard_trace", None) or [0.0]
            # Every iteration but the last keeps its candidate loads. The last
            # one did not when it found a zero step, or when the loads it
            # ended on are not the last candidate it evaluated.
            rejected_last = guard[-1] == 0.0 or self._last_loads is not getattr(
                result, "loads", None
            )
            return {
                "iterations": iterations,
                "max_iter": int(getattr(config, "max_iter", 0)),
                "halvings": int(sum(getattr(result, "halving_trace", ()))),
                "accepted": max(0, iterations - int(rejected_last)),
            }
        if name in ("optimize.mismatched_optimize", "optimize.random_baseline"):
            return {"iterations": int(getattr(result, "iteration", 0))}
        return None

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self):
        for module_name, attrs in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is not None:
                    setattr(module, attr, self.wrap(fn))


def _layer_rows(spans):
    """Per-realization sums for one campaign's spans, plus campaign totals."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)

    problems = []
    child_s = {}
    for parent, kids in children.items():
        p = spans[parent]
        kids.sort(key=lambda i: spans[i][1])
        end = p[1]
        for i in kids:
            if spans[i][1] < end or spans[i][2] > p[2]:
                problems.append(f"span {spans[i][0]} is not nested in {p[0]}")
            end = spans[i][2]
        child_s[parent] = sum(spans[i][2] - spans[i][1] for i in kids)

    def top_of(i):
        while spans[i][3] is not None and spans[spans[i][3]][3] is not None:
            i = spans[i][3]
        return i

    rows = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, realization, attrs) in enumerate(spans):
        if parent is None:
            continue
        dur = end - start
        row = rows[realization]
        layer, func = name.split(".", 1)
        if spans[parent][3] is None:
            row[f"{name}.s"] += dur
            row[f"share.{layer}"] += dur
        elif name == "channel.end_to_end_channel":
            row[f"{name}.s"] += dur
        if name == "dipoles.assemble_impedances" and attrs:
            row[f"{name}.pairs"] += attrs["pairs"]
            row[f"{name}.rss_highwater_mb"] = max(row[f"{name}.rss_highwater_mb"], attrs["rss_mb"])
        elif name == "channel.end_to_end_channel":
            row[f"{name}.calls"] += 1
        elif name == "optimize.saris_optimize" and attrs:
            loop_calls = sum(1 for c in children[i] if spans[c][0] == "optimize.scatter_inverse")
            row["accepted"] += attrs["accepted"]
            row["loop_calls"] += max(0, loop_calls - 1)
            if spans[parent][3] is None:
                row[f"{name}.iterations"] += attrs["iterations"]
                row[f"{name}.halvings"] += attrs["halvings"]
                row[f"{name}.self_s"] += dur - child_s.get(i, 0.0)
                row["max_iter_hits"] += attrs["iterations"] >= attrs["max_iter"]
                row["saris_runs"] += 1
        elif name in ("optimize.mismatched_optimize", "optimize.random_baseline") and attrs:
            row[f"{name}.iterations"] += attrs["iterations"]
        if layer == "optimize" and func in SUBSTEPS:
            algo = spans[top_of(i)][0].split(".", 1)[1]
            if func in SUBSTEP_ALGOS.get(algo, ()):
                row[f"{name}.calls.in_{ALGO_TAG[algo]}"] += 1
                row[f"{name}.s.in_{ALGO_TAG[algo]}"] += dur

    root = spans[0]
    main_s = root[2] - root[1]
    return rows, {"cli.main.s": main_s, "cli.self_s": main_s - child_s.get(0, 0.0)}, problems


def _paired_names():
    names = [
        "scenario.generate.s",
        "dipoles.assemble_impedances.s",
        "dipoles.assemble_impedances.pairs",
        "channel.fold_esos.s",
        "channel.end_to_end_channel.calls",
        "channel.end_to_end_channel.s",
        "optimize.saris_optimize.s",
        "optimize.saris_optimize.iterations",
        "optimize.saris_optimize.self_s",
        "optimize.saris_optimize.halvings",
        "optimize.mismatched_optimize.s",
        "optimize.mismatched_optimize.iterations",
        "optimize.random_baseline.s",
    ]
    for algo, steps in SUBSTEP_ALGOS.items():
        for step in steps:
            names += [f"optimize.{step}.{m}.in_{ALGO_TAG[algo]}" for m in SUBSTEPS[step]]
    return names + ["cli.main.s", "cli.self_s", "cli.output_bytes"]


RATIO_NAMES = (
    "dipoles.assemble_impedances.pairs_per_s",
    "dipoles.assemble_impedances.rss_highwater_mb",
    "optimize.saris_optimize.s_per_iter",
    "optimize.saris_optimize.max_iter_share",
    "optimize.random_baseline.draws_per_s",
    "optimize.step_accept_ratio",
    "share.scenario",
    "share.dipoles",
    "share.channel",
    "share.optimize",
    "share.cli_self",
    "trace.realizations",
    "trace.overhead",
)


def per_layer_names():
    """Every per-layer metric name `summarize` reports, in report order."""
    names = []
    for name in _paired_names():
        names += [name, f"{name}.total"]
    return names + list(RATIO_NAMES)


_UNITS = {
    "s": "s",
    "self_s": "s",
    "s_per_iter": "s",
    "calls": "count",
    "pairs": "count",
    "iterations": "count",
    "halvings": "count",
    "realizations": "count",
    "pairs_per_s": "1/s",
    "draws_per_s": "1/s",
    "rss_highwater_mb": "MB",
    "output_bytes": "bytes",
}


def unit(name):
    """Unit of a per-layer metric; shares and ratios are fractions."""
    parts = name.removesuffix(".total").split(".")
    measure = parts[-2] if parts[-1].startswith("in_") else parts[-1]
    return _UNITS.get(measure, "fraction")


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def summarize(campaigns, overhead):
    """Per-layer metrics over traced campaigns.

    `campaigns` is a list of (spans, output_bytes). Per-realization values
    are reported as their median under the plain name and as their sum under
    `<name>.total`; the cli values are per campaign. Ratios are taken over
    totals. Returns (metrics, problems).
    """
    realizations, per_campaign, problems = [], [], []
    for spans, output_bytes in campaigns:
        rows, cli, bad = _layer_rows(spans)
        problems += bad
        realizations += [row for key, row in rows.items() if key is not None]
        cli["cli.output_bytes"] = output_bytes
        per_campaign.append(cli)

    def values(name):
        source = per_campaign if name.startswith("cli.") else realizations
        return [float(row.get(name, 0.0)) for row in source]

    metrics = {}
    for name in _paired_names():
        found = values(name)
        metrics[name] = statistics.median(found) if found else 0.0
        metrics[f"{name}.total"] = sum(found)

    def total(key):
        return sum(values(key))

    main_total = metrics["cli.main.s.total"]
    metrics.update(
        {
            "dipoles.assemble_impedances.pairs_per_s": _ratio(
                total("dipoles.assemble_impedances.pairs"), total("dipoles.assemble_impedances.s")
            ),
            "dipoles.assemble_impedances.rss_highwater_mb": max(
                values("dipoles.assemble_impedances.rss_highwater_mb"), default=0.0
            ),
            "optimize.saris_optimize.s_per_iter": _ratio(
                total("optimize.saris_optimize.s"), total("optimize.saris_optimize.iterations")
            ),
            "optimize.saris_optimize.max_iter_share": _ratio(
                total("max_iter_hits"), total("saris_runs")
            ),
            "optimize.random_baseline.draws_per_s": _ratio(
                total("optimize.random_baseline.iterations"), total("optimize.random_baseline.s")
            ),
            "optimize.step_accept_ratio": _ratio(total("accepted"), total("loop_calls")),
            "share.scenario": _ratio(total("share.scenario"), main_total),
            "share.dipoles": _ratio(total("share.dipoles"), main_total),
            "share.channel": _ratio(total("share.channel"), main_total),
            "share.optimize": _ratio(total("share.optimize"), main_total),
            "share.cli_self": _ratio(metrics["cli.self_s.total"], main_total),
            "trace.realizations": len(realizations),
            "trace.overhead": overhead,
        }
    )
    return {name: metrics[name] for name in per_layer_names()}, problems
