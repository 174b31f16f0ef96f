"""Channel oracle and workload descriptors for realization 0 of a campaign.

    python3 bench/oracle.py --src SRC -- run --config CFG --trials 1 --algo saris ... --out DIR

Runs realization 0 through `saris.cli.main` with the given arguments, keeping
the dipoles, impedances, folded channel and saris state that the CLI computed.
It then checks the channel at the final saris loads, as `fold_esos` and
`end_to_end_channel` give it, against one dense solve over the whole
environment block of `ImpedanceSet.full_matrix()`. Prints one JSON object:
the final saris rate as `runs.csv` wrote it, the relative channel error, the
descriptors of the generated inputs and the numerical stack's versions.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import numpy as np
import scipy

import saris.cli
from saris.channel import end_to_end_channel
from saris.dipoles import Role
from saris.scenario import parse_config


def dense_channel(z, loads):
    """H = Z_RL (Z_RT - Z_RE (Z_EE + Z_term)^-1 Z_ET) Z_TG in one solve.

    Blocks are cut from the full port matrix in order [TX, RX, ESO, RIS];
    Z_term terminates the ESO ports with Z_US and the RIS ports with the
    loads, so scatterers and surface are eliminated together rather than in
    the two stages of `fold_esos`.
    """
    full = z.full_matrix()
    m, l = z.m_tx, z.l_rx
    e = m + l
    env = full[e:, e:] + np.diag(np.concatenate([np.diag(z.Z_US), loads.z_diagonal]))
    coupling = full[m:e, :m] - full[m:e, e:] @ np.linalg.solve(env, full[e:, :m])
    z_rl = np.linalg.inv(np.eye(l) + full[m:e, m:e] @ np.linalg.inv(z.Z_L))
    z_tg = np.linalg.inv(full[:m, :m] + z.Z_G)
    return z_rl @ coupling @ z_tg


def descriptors(dipoles, wavelength):
    """Input properties the kernel's cost depends on."""
    k = len(dipoles)
    pos = np.array([d.position for d in dipoles])
    iu, ju = np.triu_indices(k, k=1)
    rho = np.hypot(pos[iu, 0] - pos[ju, 0], pos[iu, 1] - pos[ju, 1])
    return {
        "K": k,
        "pairs": k * (k + 1) // 2,
        "N": sum(d.role is Role.RIS_CELL for d in dipoles),
        "scatterers": sum(d.role is Role.ESO for d in dipoles),
        "matrix_bytes": k * k * 16,
        # Distinct pairs closer than half a wavelength: the separations that
        # take the kernel's graded near-field quadrature.
        "near_pair_share": float(np.mean(rho < 0.5 * wavelength)) if rho.size else 0.0,
    }


def versions():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main() -> int:
    argv = sys.argv[1:]
    src = Path(argv[argv.index("--src") + 1]).resolve()
    cli_args = argv[argv.index("--") + 1:]
    out = Path(cli_args[cli_args.index("--out") + 1])
    if src not in Path(saris.__file__).resolve().parents:
        print(f"error: saris imported from {saris.__file__}, not from {src}", file=sys.stderr)
        return 2

    kept = {}

    def keep(name):
        fn = getattr(saris.cli, name)

        def first_result(*args, **kwargs):
            result = fn(*args, **kwargs)
            kept.setdefault(name, result)
            return result

        setattr(saris.cli, name, first_result)

    for name in ("generate", "assemble_impedances", "fold_esos", "saris_optimize"):
        keep(name)
    code = saris.cli.main(cli_args)
    if code != 0:
        print(f"error: saris run exited with {code}", file=sys.stderr)
        return 1

    with (out / "runs.csv").open(newline="") as handle:
        rate = next(
            row["final_sum_rate"]
            for row in csv.DictReader(handle)
            if row["seed"] == "0" and row["algo"] == "saris"
        )
    z, f, state = kept["assemble_impedances"], kept["fold_esos"], kept["saris_optimize"]
    h_fold = end_to_end_channel(f, state.loads)
    h_dense = dense_channel(z, state.loads)
    rel_err = float(np.linalg.norm(h_fold - h_dense) / np.linalg.norm(h_dense))
    config_text = Path(cli_args[cli_args.index("--config") + 1]).read_text()
    wavelength = parse_config(config_text).wavelength
    print(
        json.dumps(
            {
                "rate": rate,
                "rel_err": rel_err,
                "descriptors": descriptors(kept["generate"], wavelength),
                "versions": versions(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
