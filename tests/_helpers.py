"""Shared test utilities: synthetic impedance sets, independent oracles, and
small scenario builders."""

import json
import os
import subprocess
import sys
from time import perf_counter

import numpy as np
from scipy.integrate import quad
from scipy.special import sici

from saris.channel import LoadEvaluation, RisLoads, fold_esos
from saris.dipoles import ETA0, Dipole, GeometryError, ImpedanceSet, Role, assemble_impedances
from saris.optimize import (
    OptimizerConfig,
    OptimizerState,
    _power_norm,
    build_delta_system,
    optimal_precoder,
    solve_delta,
)
from saris.scenario import (
    _CLUSTER_RETRIES,
    _MEMBER_RETRIES,
    MIN_SEPARATION_RADII,
    ScenarioConfig,
    _ris_positions,
    _terminal_positions,
    generate,
    resize_users,
    substream,
)

Q_TABLE = (-302.50, -19.66)
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def random_impedance_set(rng, m=3, l_rx=2, n_eso=6, n_ris=4, z_us=0.0):
    """Reciprocal (complex symmetric) impedance set with generic blocks.

    Diagonal loading keeps the folded blocks comfortably invertible so
    1e-10-level comparisons are meaningful.
    """
    k = m + l_rx + n_eso + n_ris
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    full = 0.5 * (a + a.T)
    full[np.diag_indices(k)] += 6.0 + 2.0j
    return ImpedanceSet(
        Z=full,
        m_tx=m,
        l_rx=l_rx,
        n_ris=n_ris,
        z_g=np.full(m, 50.0),
        z_l=np.full(l_rx, 50.0),
        z_us=np.full(n_eso, z_us),
    )


def random_loads(rng, n, r0=0.2, interval=Q_TABLE):
    return RisLoads(r0, rng.uniform(interval[0], interval[1], size=n), interval)


def dense_folded_blocks(z):
    """Folded four blocks via an explicit dense inverse (independent path)."""
    zbar = z.Z_OO + z.Z_US
    inv = np.linalg.inv(zbar)
    return {
        "Z_ROT": z.Z_RT - z.Z_RO @ inv @ z.Z_OT,
        "Z_ROS": z.Z_RO @ inv @ z.Z_OS - z.Z_RS,
        "Z_SOS": -z.Z_SO @ inv @ z.Z_OS,
        "Z_SOT": z.Z_SO @ inv @ z.Z_OT - z.Z_ST,
    }


def dense_oneshot_channel(z, loads):
    """End-to-end channel eliminating scatterers and RIS in one dense inverse.

    Independent of the two-stage fold: the combined environment block
    [[Z_OO + Z_US, Z_OS], [Z_SO, Z_SS + Z_RIS]] is inverted as a whole.
    """
    zbar = z.Z_OO + z.Z_US
    env = np.block([[zbar, z.Z_OS], [z.Z_SO, z.Z_SS + np.diag(loads.z_diagonal)]])
    coupl = z.Z_RT - np.hstack([z.Z_RO, z.Z_RS]) @ np.linalg.inv(env) @ np.vstack(
        [z.Z_OT, z.Z_ST]
    )
    z_rl = np.linalg.inv(np.eye(z.l_rx) + z.Z_RR @ np.linalg.inv(z.Z_L))
    z_tg = np.linalg.inv(z.Z_TT + z.Z_G)
    return z_rl @ coupl @ z_tg


def quad_mutual_impedance(src, tst, wavelength):
    """Induced-EMF mutual impedance by adaptive quadrature (scipy.quad).

    `src` and `tst` are (rho_or_radius, z_center, half_length) triples; pass
    the wire radius as rho for a self term.
    """
    rho, zc_s, h_s = src
    zc_t, h_t = tst
    k = 2 * np.pi / wavelength

    def f(z):
        r1 = np.sqrt(rho**2 + (z - (zc_s + h_s)) ** 2)
        r2 = np.sqrt(rho**2 + (z - (zc_s - h_s)) ** 2)
        r0 = np.sqrt(rho**2 + (z - zc_s) ** 2)
        kern = (
            np.exp(-1j * k * r1) / r1
            + np.exp(-1j * k * r2) / r2
            - 2 * np.cos(k * h_s) * np.exp(-1j * k * r0) / r0
        )
        return kern * np.sin(k * (h_t - abs(z - zc_t)))

    # Near each wave origin the field varies on the scale of rho. When rho is
    # far below the test length, quad steps over that scale (a 2e-4 ohm error
    # at rho = 1e-6 wavelengths beside touching tips) unless breakpoints at
    # geometric distances from the origins make it resolve it.
    origins = [zc_s, zc_s - h_s, zc_s + h_s]
    near = [p + side * rho * 10.0**j for p in origins for side in (-1, 1) for j in range(8)]
    pts = sorted(set(np.clip([zc_t, *origins, *near], zc_t - h_t, zc_t + h_t)))
    re = quad(lambda z: f(z).real, zc_t - h_t, zc_t + h_t, limit=10000,
              epsabs=1e-13, epsrel=1e-13, points=pts)[0]
    im = quad(lambda z: f(z).imag, zc_t - h_t, zc_t + h_t, limit=10000,
              epsabs=1e-13, epsrel=1e-13, points=pts)[0]
    return (1j * ETA0 / (4 * np.pi * np.sin(k * h_s) * np.sin(k * h_t))) * (re + 1j * im)


def pair_for_oracle(a, b):
    """(src, tst) argument triples for quad_mutual_impedance."""
    if a.same_geometry(b) and a.position == b.position:
        rho = a.wire_radius
    else:
        rho = np.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1])
    return (rho, a.position[2], 0.5 * a.length), (b.position[2], 0.5 * b.length)


def carter_half_wave_impedance(rho, wavelength):
    """Impedance of two equal half-wave dipoles side by side at horizontal
    separation rho, in Carter's closed form (Balanis, Antenna Theory, eq.
    8-71); at rho = the wire radius it is the self impedance."""
    k = 2.0 * np.pi / wavelength
    length = 0.5 * wavelength
    far = np.hypot(rho, length) + length
    si, ci = sici(k * np.array([rho, far, rho**2 / far]))
    return ETA0 / (4.0 * np.pi) * (
        (2.0 * ci[0] - ci[1] - ci[2]) - 1j * (2.0 * si[0] - si[1] - si[2])
    )


def generate_one_pair_at_a_time(config, realization_index):
    """(dipoles, redraws): `generate` as it placed cluster members before
    they were drawn in batches, one (angle, radius) pair at a time with one
    distance test against every placed dipole each, and the number of pairs
    it rejected."""
    rng = substream(config.seed, realization_index)
    lam = config.wavelength
    length = 0.5 * lam
    radius = config.wire_radius
    terminals = _terminal_positions(config)
    ris = _ris_positions(config)
    ue_y = np.mean([p[1] for p in config.p_UE])
    theta_lo, theta_hi = (np.pi, 2 * np.pi) if ue_y <= config.p_RIS[1] else (0.0, np.pi)
    clearance = config.r + lam / 10.0
    min_sep = MIN_SEPARATION_RADII * radius
    placed = len(terminals) + len(ris)
    occupied = np.empty((2, placed + config.n_eso))
    occupied[:, :placed] = np.transpose(terminals + ris)
    eso = []
    redraws = 0
    for c in range(config.N_c):
        for attempt in range(_CLUSTER_RETRIES + 1):
            theta = rng.uniform(theta_lo, theta_hi)
            s = config.R * np.sqrt(rng.uniform())
            center = (
                config.p_RIS[0] + s * np.cos(theta),
                config.p_RIS[1] + s * np.sin(theta),
            )
            if all(np.hypot(t[0] - center[0], t[1] - center[1]) >= clearance for t in terminals):
                break
        else:
            raise GeometryError(
                f"could not place cluster {c} clear of the terminals "
                f"after {_CLUSTER_RETRIES} redraws"
            )
        for m in range(config.N_O):
            for attempt in range(_MEMBER_RETRIES + 1):
                ang = rng.uniform(0.0, 2 * np.pi)
                rad = config.r * np.sqrt(rng.uniform())
                p = (center[0] + rad * np.cos(ang), center[1] + rad * np.sin(ang))
                x, y = occupied[:, :placed]
                if np.min(np.hypot(x - p[0], y - p[1])) >= min_sep:
                    break
                redraws += 1
            else:
                raise GeometryError(
                    f"could not place member {m} of cluster {c} with "
                    f"{min_sep:.2e} m separation after {_MEMBER_RETRIES} redraws"
                )
            eso.append(p)
            occupied[:, placed] = p
            placed += 1

    dipoles = [
        Dipole((x, y, 0.0), length, radius, Role.TRANSMITTER)
        for x, y in terminals[: config.M]
    ]
    dipoles += [Dipole((x, y, 0.0), length, radius, Role.RECEIVER) for x, y in config.p_UE]
    dipoles += [Dipole((x, y, 0.0), length, radius, Role.ESO) for x, y in eso]
    dipoles += [Dipole((x, y, 0.0), length, radius, Role.RIS_CELL) for x, y in ris]
    return dipoles, redraws


def smse_bruteforce(h_total, w, sigma_n2):
    """Term-by-term accumulation of the sum MSE."""
    l_rx = h_total.shape[0]
    total = 0.0
    for l in range(l_rx):
        for j in range(w.shape[1]):
            total += abs(h_total[l] @ w[:, j]) ** 2
        total -= 2 * np.real(h_total[l] @ w[:, l])
        total += 1 + sigma_n2
    return total


def sum_rate_bruteforce(h, w, sigma_n2):
    """Per-user SINR loop."""
    total = 0.0
    for l in range(h.shape[0]):
        desired = abs(h[l] @ w[:, l]) ** 2
        interference = sum(
            abs(h[l] @ w[:, j]) ** 2 for j in range(w.shape[1]) if j != l
        )
        total += np.log2(1 + desired / (interference + sigma_n2))
    return total


def tiny_config(**overrides):
    """Small deployment for fast optimizer and pipeline tests."""
    base = dict(N=4, N_c=1, N_O=8, M=2)
    l_rx = overrides.pop("L", 2)
    base.update(overrides)
    if "p_UE" in base:
        return ScenarioConfig(L=l_rx, **base)
    return resize_users(ScenarioConfig(**base), l_rx)


def folded_scenario(config, realization=0):
    """(impedances, folded channel) for one realization of a config."""
    dipoles = generate(config, realization)
    z = assemble_impedances(
        dipoles, config.wavelength, z_g=config.Z_G, z_l=config.Z_L, z_us=config.Z_US
    )
    return z, fold_esos(z)


def delta_step_seconds(n_ris, repeats=25):
    """Best-of-`repeats` wall time of one load update (`build_delta_system`
    followed by `solve_delta`) on a random N = `n_ris` surface."""
    rng = np.random.default_rng(1000 + n_ris)
    z = random_impedance_set(rng, m=4, l_rx=2, n_eso=6, n_ris=n_ris)
    f = fold_esos(z)
    opt = OptimizerConfig()
    loads = RisLoads(opt.r0, opt.initial_reactances(n_ris), opt.q_interval)
    ev = LoadEvaluation(f, loads)
    g_norm = _power_norm(ev.solve, n_ris)[0]
    w = optimal_precoder(ev.h, opt.power, opt.sigma_n2)
    state = OptimizerState(W=w, evaluation=ev, g_norm=g_norm)
    best = np.inf
    for _ in range(repeats):
        t0 = perf_counter()
        ds = build_delta_system(state)
        solve_delta(ds, w, opt.sigma_n2, g_norm)
        best = min(best, perf_counter() - t0)
    return best


_PINNED_CHILD = (
    "import json, sys\n"
    "from _helpers import delta_step_seconds\n"
    "plan = json.loads(sys.argv[1])\n"
    "print(json.dumps([delta_step_seconds(n, r) for n, r in plan]))\n"
)


_CHILD_TIMEOUT_S = 300.0


def pinned_delta_step_seconds(plan):
    """`delta_step_seconds(n, repeats)` for each `(n, repeats)` in `plan`,
    measured in a fresh interpreter with BLAS pinned to one thread.

    The BLAS thread count is fixed when numpy is first imported, so the
    running interpreter cannot be re-pinned. The child gets this
    interpreter's `sys.path`. A child that exits non-zero raises
    RuntimeError carrying its stderr, as does one that outlives
    `_CHILD_TIMEOUT_S`.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    env.update({name: "1" for name in BLAS_THREADS})
    try:
        done = subprocess.run(
            [sys.executable, "-c", _PINNED_CHILD, json.dumps(plan)],
            env=env, capture_output=True, text=True, timeout=_CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"timing child ran past {_CHILD_TIMEOUT_S:.0f} s") from exc
    if done.returncode != 0:
        raise RuntimeError(
            f"timing child exited with status {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout)
