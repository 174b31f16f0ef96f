"""Impedance-coupled RIS link simulator and load-reactance optimizer."""

import os

# BLAS reads these once, when it loads, so they are set before numpy is imported.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from saris.channel import (
    FoldedChannel,
    LoadEvaluation,
    RisLoads,
    SingularBlockError,
    end_to_end_channel,
    fold_esos,
    interaction_free,
)
from saris.dipoles import (
    ETA0,
    Dipole,
    GeometryError,
    ImpedanceSet,
    Role,
    assemble_impedances,
    mutual_impedance,
)
from saris.optimize import (
    DegenerateChannelError,
    DeltaStep,
    OptimizerConfig,
    OptimizerState,
    build_delta_system,
    mismatched_optimize,
    optimal_precoder,
    random_baseline,
    saris_optimize,
    solve_delta,
)
from saris.scenario import (
    ConfigError,
    ScenarioConfig,
    generate,
    parse_config,
    serialize_config,
    substream,
)

__version__ = "0.1.0"

__all__ = [
    "ETA0",
    "ConfigError",
    "DegenerateChannelError",
    "DeltaStep",
    "Dipole",
    "FoldedChannel",
    "GeometryError",
    "ImpedanceSet",
    "LoadEvaluation",
    "OptimizerConfig",
    "OptimizerState",
    "RisLoads",
    "Role",
    "ScenarioConfig",
    "SingularBlockError",
    "assemble_impedances",
    "build_delta_system",
    "end_to_end_channel",
    "fold_esos",
    "generate",
    "interaction_free",
    "mismatched_optimize",
    "mutual_impedance",
    "optimal_precoder",
    "parse_config",
    "random_baseline",
    "saris_optimize",
    "serialize_config",
    "solve_delta",
    "substream",
    "__version__",
]
