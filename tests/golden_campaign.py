"""Write the golden-campaign fixture that `test_golden_campaign.py` checks.

Each case is one realization run through `saris.cli._run_trial` with all
three arms and 100 random draws. Per arm the fixture keeps the iteration
count, the `converged` flag, the final sum rate and the SMSE trace at a few
fixed indices. Per case it keeps the sha256 of the assembled `z.Z` bytes.
The numpy and scipy versions are recorded, because the exact comparisons
hold only on the same builds.

A change that moves these outputs on purpose regenerates the fixture:

    PYTHONPATH=src python tests/golden_campaign.py
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy

from saris.cli import ALGOS, _optimizer_config, _run_trial
from saris.optimize import OptimizerConfig
from saris.scenario import ScenarioConfig

from _helpers import folded_scenario

FIXTURE = Path(__file__).with_name("golden_campaign.json")
SEED = 4242
BASELINE_TRIALS = 100
SMSE_INDICES = (0, 1, 10, 40)

_DESK = replace(ScenarioConfig(), seed=SEED)
_WIDE = replace(ScenarioConfig(), seed=SEED, N=256, N_c=1, N_O=20)

# name -> (scenario, max_iter, realization)
CASES = {
    "desk_r0": (_DESK, OptimizerConfig.max_iter, 0),
    "desk_r1": (_DESK, OptimizerConfig.max_iter, 1),
    "desk_r2": (_DESK, OptimizerConfig.max_iter, 2),
    "wide_r0": (_WIDE, 40, 0),
}


def z_digest(config: ScenarioConfig, realization: int) -> str:
    """sha256 of the assembled impedance matrix of one realization."""
    z = folded_scenario(config, realization)[0]
    return hashlib.sha256(np.ascontiguousarray(z.Z).tobytes()).hexdigest()


def run_case(name: str) -> dict:
    """Each arm's recorded outputs for one case, keyed by arm name."""
    config, max_iter, realization = CASES[name]
    # The flags of `saris run` at the default epsilon.
    flags = SimpleNamespace(epsilon=OptimizerConfig.epsilon, max_iter=max_iter)
    payload = (config, _optimizer_config(config, flags), realization, ALGOS, BASELINE_TRIALS)
    return {
        record["algo"]: {
            "iterations": record["iterations"],
            "converged": record["converged"],
            "final_sum_rate": record["final_sum_rate"],
            "smse": {
                str(i): record["smse_trace"][i]
                for i in SMSE_INDICES
                if i < len(record["smse_trace"])
            },
        }
        for record in _run_trial(payload)
    }


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def main():
    fixture = {
        "versions": versions(),
        "cases": {
            name: {"z_sha256": z_digest(config, realization), "arms": run_case(name)}
            for name, (config, _, realization) in CASES.items()
        },
    }
    with FIXTURE.open("w") as handle:
        json.dump(fixture, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"{len(CASES)} cases -> {FIXTURE}")


if __name__ == "__main__":
    main()
