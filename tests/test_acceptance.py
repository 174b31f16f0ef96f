"""Acceptance gate: structural identities, convergence guarantees, and
statistical trend reproduction at desk scale. One test per criterion; each
prints a PASS/FAIL line in the terminal summary."""

from time import perf_counter

import numpy as np

from saris.channel import (
    LoadEvaluation,
    RisLoads,
    end_to_end_channel,
    fold_esos,
    interaction_free,
)
from saris.dipoles import assemble_impedances
from saris.optimize import (
    OptimizerConfig,
    OptimizerState,
    _power_norm,
    build_delta_system,
    optimal_precoder,
    solve_delta,
)
from saris.scenario import ScenarioConfig, generate

from _helpers import (
    dense_folded_blocks,
    dense_oneshot_channel,
    pinned_delta_step_seconds,
    random_impedance_set,
    random_loads,
)

FOLDED_BLOCKS = ("Z_ROT", "Z_ROS", "Z_SOS", "Z_SOT")


def test_criterion_01_folded_blocks_match_dense_inverse(fold_instances, record_criterion):
    t0 = perf_counter()
    worst = 0.0
    for z, f, _ in fold_instances.items:
        reference = dense_folded_blocks(z)
        for name in FOLDED_BLOCKS:
            ref = reference[name]
            if ref.size == 0:
                continue
            scale = np.abs(ref).max()
            denom = np.maximum(np.abs(ref), 1e-12 * max(scale, 1.0))
            worst = max(worst, float((np.abs(getattr(f, name) - ref) / denom).max()))
    elapsed = fold_instances.build_s + perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    record_criterion(
        1, ok, f"folded blocks vs dense inverse: max rel err {worst:.2e} "
        f"on 100 instances ({elapsed:.2f}s)"
    )
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_02_fold_unfold_equivalence(fold_instances, record_criterion):
    t0 = perf_counter()
    worst = 0.0
    for z, f, loads in fold_instances.items:
        h = end_to_end_channel(f, loads)
        ref = dense_oneshot_channel(z, loads)
        worst = max(worst, float(np.linalg.norm(h - ref) / np.linalg.norm(ref)))
    elapsed = fold_instances.build_s + perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    record_criterion(
        2, ok, f"folded vs one-shot channel: max rel err {worst:.2e} "
        f"on 100 instances ({elapsed:.2f}s)"
    )
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_03_additive_model_reduction(record_criterion):
    rng = np.random.default_rng(303)
    t0 = perf_counter()
    worst = 0.0
    for _ in range(20):
        z = random_impedance_set(rng)
        z.Z_EE[: z.n_eso, z.n_eso :] = 0.0
        z.Z_EE[z.n_eso :, : z.n_eso] = 0.0
        f = fold_esos(z)
        loads = random_loads(rng, z.n_ris)
        h_true = end_to_end_channel(f, loads)
        h_model = end_to_end_channel(interaction_free(f, z), loads)
        worst = max(
            worst, float(np.linalg.norm(h_true - h_model) / np.linalg.norm(h_true))
        )
    elapsed = perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 2.0
    record_criterion(
        3, ok, f"decoupled model agreement: max rel err {worst:.2e} "
        f"on 20 instances ({elapsed:.2f}s)"
    )
    assert worst < 1e-12
    assert elapsed < 2.0


def test_criterion_04_monotone_convergence(table1_runs, record_criterion):
    t0 = perf_counter()
    worst_rise = -np.inf
    pairs = 0
    for state in table1_runs.states:
        trace = np.asarray(state.smse_trace)
        rises = np.diff(trace)
        pairs += len(rises)
        worst_rise = max(worst_rise, float(rises.max()))
    elapsed = table1_runs.build_s + perf_counter() - t0
    ok = worst_rise <= 1e-9 and elapsed < 120.0
    record_criterion(
        4, ok, f"monotone objective: worst increase {worst_rise:+.2e} over "
        f"{pairs} consecutive pairs in 50 runs ({elapsed:.1f}s)"
    )
    assert worst_rise <= 1e-9
    assert elapsed < 120.0


def test_criterion_05_trust_bound_and_first_order_decay(table1_runs, record_criterion):
    t0 = perf_counter()
    worst_guard = max(
        max(state.guard_trace, default=0.0) for state in table1_runs.states
    )

    f = table1_runs.f0
    opt = table1_runs.opt
    x0 = np.clip(opt.initial_reactances(f.n_ris), *opt.q_interval)
    loads = RisLoads(opt.r0, x0, opt.q_interval)
    ev = LoadEvaluation(f, loads)
    state = OptimizerState(
        W=np.zeros((f.m_tx, f.l_rx), dtype=complex),
        evaluation=ev,
        g_norm=_power_norm(ev.solve, f.n_ris)[0],
    )
    h0 = end_to_end_channel(f, loads)
    w = optimal_precoder(h0, opt.power, opt.sigma_n2)
    state.W = w
    ds = build_delta_system(state)
    delta = solve_delta(ds, w, opt.sigma_n2, state.g_norm)
    direction = np.imag(delta)

    def first_order_error(scale):
        applied = 1j * scale * direction
        h_new = end_to_end_channel(
            f, RisLoads(opt.r0, x0 - scale * direction, opt.q_interval)
        )
        err = 0.0
        for l in range(f.l_rx):
            predicted = ds.h[l] + applied.conj() @ (ds.u[l][:, None] * ds.a_mat)
            err += np.linalg.norm(h_new[l] - predicted) ** 2
        return np.sqrt(err)

    s = 0.05
    ratio = first_order_error(s) / first_order_error(s / 2)
    elapsed = perf_counter() - t0
    ok = worst_guard <= 1.0 + 1e-12 and 3.5 <= ratio <= 4.5 and elapsed < 60.0
    record_criterion(
        5, ok, f"trust bound max {worst_guard:.12f} (limit 1+1e-12); "
        f"error ratio at halved step {ratio:.3f} in [3.5, 4.5] ({elapsed:.1f}s)"
    )
    assert worst_guard <= 1.0 + 1e-12
    assert 3.5 <= ratio <= 4.5
    assert elapsed < 60.0


def test_criterion_06_precoder_stationarity(table1_runs, record_criterion):
    worst_residual = max(max(s.w_residual_trace) for s in table1_runs.states)
    worst_power = max(max(s.w_power_error_trace) for s in table1_runs.states)
    updates = sum(len(s.w_residual_trace) for s in table1_runs.states)
    ok = worst_residual < 1e-8 and worst_power <= 1e-12
    record_criterion(
        6, ok, f"precoder updates: max stationarity residual {worst_residual:.2e}, "
        f"max power error {worst_power:.2e} over {updates} updates"
    )
    assert worst_residual < 1e-8
    assert worst_power <= 1e-12


def _arm_stats(rows):
    saris = np.array([s.final_sum_rate for s, _, _ in rows])
    mismatched = np.array([m.final_sum_rate for _, m, _ in rows])
    diff = saris - mismatched
    gap = float(diff.mean())
    se = float(diff.std(ddof=1) / np.sqrt(len(diff)))
    return gap, se


def test_criterion_07_performance_ordering(ordering_runs, record_criterion):
    t0 = perf_counter()
    gap2, se2 = _arm_stats(ordering_runs.arms[2])
    gap8, se8 = _arm_stats(ordering_runs.arms[8])
    elapsed = ordering_runs.build_s + perf_counter() - t0
    ok = (
        gap2 > 2 * se2
        and gap8 > 2 * se8
        and gap8 > gap2
        and elapsed < 600.0
    )
    record_criterion(
        7, ok, f"coupled vs decoupled optimization: gap {gap2:.2f} > 2SE {2 * se2:.2f} "
        f"at 2 clusters, {gap8:.2f} > 2SE {2 * se8:.2f} at 8, gap grows "
        f"({elapsed:.0f}s)"
    )
    assert gap2 > 2 * se2
    assert gap8 > 2 * se8
    assert gap8 > gap2
    assert elapsed < 600.0


def test_criterion_08_baseline_dominance(ordering_runs, record_criterion):
    t0 = perf_counter()
    fractions = {}
    for n_c, rows in ordering_runs.arms.items():
        wins = sum(
            1 for s, _, r in rows if s.final_sum_rate >= r.final_sum_rate
        )
        fractions[n_c] = wins / len(rows)
    elapsed = ordering_runs.build_s + perf_counter() - t0
    ok = all(frac >= 0.9 for frac in fractions.values()) and elapsed < 600.0
    record_criterion(
        8, ok, "optimized beats best-of-100 random in "
        + ", ".join(f"{frac:.0%} of seeds ({n_c} clusters)" for n_c, frac in sorted(fractions.items()))
        + f" ({elapsed:.0f}s)"
    )
    assert all(frac >= 0.9 for frac in fractions.values())
    assert elapsed < 600.0


def test_criterion_09_reciprocity_and_self_resistance(record_criterion):
    t0 = perf_counter()
    worst_asym = 0.0
    worst_self = 0.0
    for config in (
        ScenarioConfig(),
        ScenarioConfig(N_c=2, N_O=20, d=0.015),
    ):
        dipoles = generate(config, 0)
        z = assemble_impedances(
            dipoles, config.wavelength, z_g=config.Z_G, z_l=config.Z_L, z_us=config.Z_US
        )
        full = z.full_matrix()
        worst_asym = max(
            worst_asym,
            float(np.linalg.norm(full - full.T) / np.linalg.norm(full)),
        )
        self_res = np.real(np.diag(full))
        worst_self = max(worst_self, float(np.abs(self_res - 73.08).max() / 73.08))
    elapsed = perf_counter() - t0
    ok = worst_asym < 1e-10 and worst_self < 0.01 and elapsed < 5.0
    record_criterion(
        9, ok, f"reciprocity: max rel asymmetry {worst_asym:.2e}; self-resistance "
        f"within {worst_self:.2%} of 73.08 ohm ({elapsed:.2f}s)"
    )
    assert worst_asym < 1e-10
    assert worst_self < 0.01
    assert elapsed < 5.0


def _loglog_slope(sizes, times):
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def _micros(sizes, times):
    return ", ".join(f"N={n}: {t * 1e6:.0f}us" for n, t in zip(sizes, times))


# Best-of repeats per size. Over N = 256..2048 the cubic Cholesky and the
# quadratic products carry the step; below that, the fixed cost of its ~15
# numpy/scipy calls (~100 us) does, and no slope of work can show.
WORK_WINDOW = {256: 25, 512: 10, 1024: 5, 2048: 3}
OVERHEAD_N = 2
SMALL_SIZES = (8, 16, 32, 64)


def test_criterion_10_delta_step_scaling(record_criterion):
    t0 = perf_counter()
    sizes = list(WORK_WINDOW)
    plan = [(OVERHEAD_N, 25)] + [(n, 25) for n in SMALL_SIZES] + list(WORK_WINDOW.items())
    measured = pinned_delta_step_seconds(plan)
    overhead = measured[0]
    small_times = measured[1 : 1 + len(SMALL_SIZES)]
    times = measured[1 + len(SMALL_SIZES) :]
    slope = _loglog_slope(sizes, times)
    ratio = times[0] / overhead
    elapsed = perf_counter() - t0
    detail = (
        f"{_micros(sizes, times)}; N={OVERHEAD_N} overhead {overhead * 1e6:.0f}us, "
        f"N={sizes[0]} step {ratio:.1f}x that (need >= 10); BLAS pinned to one "
        f"thread; for information {_micros(SMALL_SIZES, small_times)}"
    )
    ok = ratio >= 10.0 and 2.0 <= slope <= 3.5 and elapsed < 300.0
    record_criterion(
        10, ok, f"update-step slope {slope:.2f} over N={sizes[0]}..{sizes[-1]} "
        f"(target [2.0, 3.5]); {detail} ({elapsed:.0f}s)"
    )
    assert ratio >= 10.0, f"window measures per-call overhead, not work: {detail}"
    assert 2.0 <= slope <= 3.5, (
        f"update-step slope {slope:.2f} outside [2.0, 3.5]: {detail}"
    )
    assert elapsed < 300.0


def test_criterion_11_constraint_preservation(table1_runs, ordering_runs, record_criterion):
    checked = 0
    feasible = True
    exact_real = True
    in_range = True
    for state in table1_runs.states + [
        st for rows in ordering_runs.arms.values() for row in rows for st in row
    ]:
        checked += len(state.feasible_trace)
        feasible &= all(state.feasible_trace)
        z_diag = state.loads.z_diagonal
        exact_real &= bool(np.all(z_diag.real == state.loads.r0))
        lo, hi = state.loads.q_interval
        in_range &= bool(np.all((state.loads.x >= lo) & (state.loads.x <= hi)))
    ok = feasible and exact_real and in_range
    record_criterion(
        11, ok, f"load constraints: real part exact and reactances in range at "
        f"{checked} checkpoints across all accepted runs"
    )
    assert feasible
    assert exact_real
    assert in_range
