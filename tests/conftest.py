"""Shared fixtures for the acceptance layer.

The expensive experiment fixtures are session-scoped so that criteria sharing
the same runs pay for them once. Each acceptance test records a one-line
verdict that is echoed after the run.
"""

from dataclasses import replace
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest

from saris.channel import fold_esos
from saris.optimize import (
    OptimizerConfig,
    mismatched_optimize,
    random_baseline,
    saris_optimize,
)
from saris.scenario import ScenarioConfig, substream

from _helpers import folded_scenario, random_impedance_set, random_loads

_CRITERIA: dict[int, tuple[bool, str]] = {}


def _pin_hypothesis_constants():
    """Give Hypothesis an empty pool of local constants.

    Hypothesis versions with `providers._get_local_constants` draw a share of
    their examples from the numeric literals of every loaded local module, so
    the derandomized property tests would draw other examples whenever a
    literal in src/ or tests/ changed, or other test files were collected.
    With the pool empty they draw the same examples from the same seed.
    Versions without that hook have no such pool and are left alone.
    """
    try:
        from hypothesis.internal.conjecture import providers
    except ImportError:
        return
    constants = getattr(providers, "Constants", None)
    if constants is None or not hasattr(providers, "_get_local_constants"):
        return
    pool = constants()
    providers._get_local_constants = lambda: pool


_pin_hypothesis_constants()


def _record(number: int, passed: bool, detail: str):
    _CRITERIA[number] = (passed, detail)


@pytest.fixture(scope="session")
def record_criterion():
    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        passed, detail = _CRITERIA[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {verdict}  {detail}")


@pytest.fixture(scope="session")
def fold_instances():
    """100 random small deployments with their folded forms and one load draw
    each; sized per the structural identity criteria."""
    rng = np.random.default_rng(2024)
    t0 = perf_counter()
    instances = []
    for _ in range(100):
        z = random_impedance_set(
            rng,
            m=int(rng.integers(1, 5)),
            l_rx=int(rng.integers(1, 4)),
            n_eso=int(rng.integers(0, 13)),
            n_ris=int(rng.integers(1, 9)),
        )
        instances.append((z, fold_esos(z), random_loads(rng, z.n_ris)))
    return SimpleNamespace(items=instances, build_s=perf_counter() - t0)


@pytest.fixture(scope="session")
def table1_runs():
    """50 realizations of the reference deployment, each optimized to a tight
    tolerance. One folded channel is kept for perturbation checks."""
    config = ScenarioConfig()
    opt = OptimizerConfig(epsilon=1e-10, max_iter=500)
    t0 = perf_counter()
    states = []
    f0 = None
    for seed in range(50):
        _, f = folded_scenario(config, seed)
        if seed == 0:
            f0 = f
        states.append(saris_optimize(f, opt))
    return SimpleNamespace(
        states=states, f0=f0, opt=opt, build_s=perf_counter() - t0
    )


@pytest.fixture(scope="session")
def ordering_runs():
    """Both cluster-count arms of the quarter-wavelength-spacing scenario,
    50 seeds each, all three algorithms on identical realizations."""
    opt = OptimizerConfig(epsilon=1e-9, max_iter=400)
    t0 = perf_counter()
    arms = {}
    for n_c in (2, 8):
        config = replace(ScenarioConfig(), d=0.015, N_c=n_c)
        rows = []
        for seed in range(50):
            z, f = folded_scenario(config, seed)
            rows.append(
                (
                    saris_optimize(f, opt),
                    mismatched_optimize(f, z, opt),
                    random_baseline(
                        f, opt, trials=100, rng=substream(config.seed, seed, 1)
                    ),
                )
            )
        arms[n_c] = rows
    return SimpleNamespace(arms=arms, opt=opt, build_s=perf_counter() - t0)
