"""Objective, precoder, load-perturbation solve, and the alternating loop."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from saris.channel import LoadEvaluation, RisLoads, end_to_end_channel
from saris.optimize import (
    DegenerateChannelError,
    DeltaStep,
    OptimizerConfig,
    OptimizerState,
    StaleStateError,
    _power_norm,
    build_delta_system,
    mismatched_optimize,
    optimal_precoder,
    precoder_residual,
    random_baseline,
    saris_optimize,
    smse,
    solve_delta,
    spectral_norm,
    sum_rate,
)
from saris.scenario import ScenarioConfig

from _helpers import (
    folded_scenario,
    smse_bruteforce,
    sum_rate_bruteforce,
    tiny_config,
)


def random_channel(rng, l_rx=3, m_tx=4):
    return rng.standard_normal((l_rx, m_tx)) + 1j * rng.standard_normal((l_rx, m_tx))


def initial_state(f, config):
    """Optimizer state at the starting point, without running the loop."""
    x = np.clip(config.initial_reactances(f.n_ris), *config.q_interval)
    loads = RisLoads(config.r0, x, config.q_interval)
    ev = LoadEvaluation(f, loads)
    w = optimal_precoder(ev.h, config.power, config.sigma_n2)
    return OptimizerState(
        W=w, loads=loads, evaluation=ev, g_norm=_power_norm(ev.solve, f.n_ris)[0]
    )


def test_smse_matches_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(5):
        h_d = random_channel(rng)
        h_ris = 0.1 * random_channel(rng)
        w = random_channel(rng, 4, 3)
        got = smse(h_d, h_ris, w, 1e-3)
        want = smse_bruteforce(h_d + h_ris, w, 1e-3)
        assert_allclose(got, want, rtol=1e-12)


def test_smse_of_zero_precoder():
    rng = np.random.default_rng(1)
    h = random_channel(rng)
    w = np.zeros((4, 3), dtype=complex)
    assert smse(h, np.zeros_like(h), w, 1e-2) == 3 * (1.0 + 1e-2)


def test_sum_rate_matches_bruteforce():
    rng = np.random.default_rng(2)
    for _ in range(5):
        h = random_channel(rng)
        w = random_channel(rng, 4, 3)
        assert_allclose(
            sum_rate(h, w, 1e-4), sum_rate_bruteforce(h, w, 1e-4), rtol=1e-12
        )


def test_interference_free_rate():
    # Orthogonal single-stream links: SINR reduces to SNR.
    h = np.diag([2.0, 3.0]).astype(complex)
    w = np.eye(2, dtype=complex)
    want = np.log2(1 + 4.0 / 1e-2) + np.log2(1 + 9.0 / 1e-2)
    assert_allclose(sum_rate(h, w, 1e-2), want, rtol=1e-12)


def test_precoder_power_and_stationarity():
    rng = np.random.default_rng(3)
    for power in (1.0, 2.5):
        h = 1e-3 * random_channel(rng)
        w = optimal_precoder(h, power, 1e-11)
        assert abs(np.linalg.norm(w) ** 2 - power) / power < 1e-12
        assert precoder_residual(h, power, 1e-11) < 1e-8


def test_precoder_beats_random_precoders():
    rng = np.random.default_rng(4)
    h = random_channel(rng)
    w_opt = optimal_precoder(h, 1.0, 1e-3)
    base = smse(h, np.zeros_like(h), w_opt, 1e-3)
    for _ in range(20):
        w = random_channel(rng, 4, 3)
        w = w / np.linalg.norm(w)
        assert base <= smse(h, np.zeros_like(h), w, 1e-3) + 1e-12


def test_precoder_scalar_closed_form():
    h = np.array([[0.3 - 0.4j]])
    w = optimal_precoder(h, 2.0, 1e-9)
    assert_allclose(w, np.sqrt(2.0) * h.conj() / abs(h[0, 0]), rtol=1e-12)


def test_precoder_rejects_zero_channel():
    with pytest.raises(DegenerateChannelError):
        optimal_precoder(np.zeros((2, 3), dtype=complex), 1.0, 1e-11)


def test_spectral_norm_matches_dense():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7):
        a = random_channel(rng, n, n)
        assert_allclose(spectral_norm(a), np.linalg.norm(a, 2), rtol=1e-5)
    assert spectral_norm(np.zeros((3, 3), dtype=complex)) == 0.0


def test_load_evaluation_matches_dense_inverse():
    config = tiny_config()
    _, f = folded_scenario(config)
    loads = RisLoads(0.2, np.full(f.n_ris, -150.0), config.Q_interval)
    ev = LoadEvaluation(f, loads)
    g = np.linalg.inv(f.Z_SS + f.Z_SOS + loads.matrix())

    def rel_err(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    # The channel solve S^-1 Z_SOT Z_TG and the transposed solve u = v S^-1.
    assert rel_err(ev.a_mat, g @ (f.Z_SOT @ f.Z_TG)) <= 1e-12
    v = f.Z_RL @ f.Z_ROS
    assert rel_err(ev.solve(v.T, 1).T, v @ g) <= 1e-12
    # The power iteration on the LU factors gives ||S^-1||.
    assert_allclose(_power_norm(ev.solve, f.n_ris)[0], np.linalg.norm(g, 2), rtol=1e-5)


def test_linearization_is_exact_at_zero_step():
    config = tiny_config()
    _, f = folded_scenario(config)
    state = initial_state(f, OptimizerConfig())
    ds = build_delta_system(f, state)
    h = end_to_end_channel(f, state.loads)
    scale = np.abs(h).max()
    for l in range(f.l_rx):
        row = ds.h_bar_per_user[l][-1]
        assert np.abs(row - h[l]).max() < 1e-10 * scale


def test_sensitivity_rows_match_finite_differences():
    config = tiny_config()
    _, f = folded_scenario(config)
    opt = OptimizerConfig()
    state = initial_state(f, opt)
    ds = build_delta_system(f, state)
    eps = 1e-3
    for n in (0, f.n_ris - 1):
        for l in range(f.l_rx):
            x_hi = state.loads.x.copy()
            x_lo = state.loads.x.copy()
            x_hi[n] += eps
            x_lo[n] -= eps
            h_hi = end_to_end_channel(f, RisLoads(opt.r0, x_hi, opt.q_interval))
            h_lo = end_to_end_channel(f, RisLoads(opt.r0, x_lo, opt.q_interval))
            # d(load)/d(x) = j, so the row sensitivity is j * d(h)/d(x).
            fd = (h_hi[l] - h_lo[l]) / (2j * eps)
            analytic = ds.h_bar_per_user[l][n]
            assert np.linalg.norm(fd - analytic) < 1e-4 * np.linalg.norm(analytic)


def test_first_order_error_shrinks_quadratically():
    config = tiny_config()
    _, f = folded_scenario(config)
    opt = OptimizerConfig()
    state = initial_state(f, opt)
    ds = build_delta_system(f, state)
    delta = solve_delta(ds, state.W, opt.sigma_n2, state.g_norm)
    direction = np.imag(delta)

    def error(scale):
        applied = 1j * scale * direction
        x_new = state.loads.x - scale * direction
        h_new = end_to_end_channel(f, RisLoads(opt.r0, x_new, opt.q_interval))
        err = 0.0
        for l in range(f.l_rx):
            h_r = ds.h_bar_per_user[l][:-1]
            predicted = ds.h_bar_per_user[l][-1] + applied.conj() @ h_r
            err += np.linalg.norm(h_new[l] - predicted) ** 2
        return np.sqrt(err)

    s = 0.05
    ratio = error(s) / error(s / 2)
    assert 3.5 < ratio < 4.5


def test_delta_normalization_sits_on_trust_bound():
    config = tiny_config()
    _, f = folded_scenario(config)
    opt = OptimizerConfig()
    state = initial_state(f, opt)
    ds = build_delta_system(f, state)
    delta = solve_delta(ds, state.W, opt.sigma_n2, state.g_norm)
    assert abs(np.max(np.abs(delta)) * state.g_norm - 1.0) < 1e-12


@pytest.mark.parametrize(
    "overrides",
    [dict(L=1), dict(L=2), dict(L=3, M=4), dict(N=64)],
    ids=["L1", "L2", "L3", "N64"],
)
def test_delta_solve_matches_dense_system(overrides):
    # T = [h_r,l W]_l has L^2 columns; the sizes check its stacking.
    _, f = folded_scenario(tiny_config(**overrides))
    opt = OptimizerConfig()
    state = initial_state(f, opt)
    ds = build_delta_system(f, state)
    solve_delta(ds, state.W, opt.sigma_n2, state.g_norm)

    n = f.n_ris
    gram = opt.sigma_n2 * np.eye(n, dtype=complex)
    b = np.zeros(n, dtype=complex)
    ww_h = state.W @ state.W.conj().T
    for l in range(f.l_rx):
        h_r = ds.h_bar_per_user[l][:-1]
        h_d_row = ds.h_bar_per_user[l][-1]
        b += h_r @ state.W[:, l] - h_r @ ww_h @ h_d_row.conj()
        t = h_r @ state.W
        gram += t @ t.conj().T
    want = np.linalg.solve(gram, b)
    assert np.linalg.norm(ds.delta_tilde - want) < 1e-10 * np.linalg.norm(want)
    # The regularized normal matrix stays positive definite.
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= opt.sigma_n2 * (1 - 1e-9)


def constant_delta_step(fill):
    """N = 4 cells, L = 2 users, M = 3: every factor entry equals `fill`,
    and the precoder is all ones."""
    h_bars = [np.full((5, 3), fill, dtype=complex) for _ in range(2)]
    return DeltaStep(h_bar_per_user=h_bars), np.ones((3, 2), dtype=complex)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["sensitivity", "channel_row", "sigma"])
def test_delta_solve_rejects_non_finite_input(bad, where):
    ds, w = constant_delta_step(1.0)
    sigma_n2 = 1e-11
    if where == "sensitivity":
        ds.h_bar_per_user[1][2, 0] = bad
    elif where == "channel_row":
        ds.h_bar_per_user[0][-1, 1] = bad
    else:
        sigma_n2 = bad
    with pytest.raises(ValueError, match="non-finite"):
        solve_delta(ds, w, sigma_n2, 1.0)


def test_delta_solve_reports_indefinite_system():
    # A negative regularizer with zero sensitivities leaves -I: potrf fails
    # on the first leading minor.
    ds, w = constant_delta_step(0.0)
    with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
        solve_delta(ds, w, -1.0, 1.0)


def test_delta_zero_rhs_returns_zero():
    n, m = 4, 2
    h_bars = [
        np.vstack([np.zeros((n, m), dtype=complex), np.ones((1, m), dtype=complex)])
    ]
    ds = DeltaStep(h_bar_per_user=h_bars)
    delta = solve_delta(ds, np.ones((m, 1), dtype=complex), 1e-11, 1.0)
    assert not delta.any()
    assert delta.shape == (n,)


def test_delta_solve_without_cells_returns_empty():
    ds = DeltaStep(h_bar_per_user=[np.ones((1, 2), dtype=complex)])
    delta = solve_delta(ds, np.ones((2, 1), dtype=complex), 1e-11, 1.0)
    assert delta.shape == (0,)


def test_stale_inverse_is_rejected():
    config = tiny_config()
    _, f = folded_scenario(config)
    opt = OptimizerConfig()
    state = initial_state(f, opt)
    state.loads = RisLoads(opt.r0, state.loads.x - 1.0, opt.q_interval)
    with pytest.raises(StaleStateError):
        build_delta_system(f, state)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(power=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(sigma_n2=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iter=0)
    with pytest.raises(ValueError):
        OptimizerConfig(x_init=np.zeros(3)).initial_reactances(4)
    assert_allclose(OptimizerConfig(x_init=-100.0).initial_reactances(3), -100.0)
    mid = OptimizerConfig().initial_reactances(2)
    assert_allclose(mid, 0.5 * (-302.50 - 19.66))


def run_tiny(epsilon=1e-10, max_iter=60, **scenario_overrides):
    config = tiny_config(**scenario_overrides)
    _, f = folded_scenario(config)
    opt = OptimizerConfig(epsilon=epsilon, max_iter=max_iter)
    return f, opt, saris_optimize(f, opt)


def test_loop_trace_is_monotone_and_consistent():
    f, opt, state = run_tiny()
    trace = np.asarray(state.smse_trace)
    assert len(trace) == state.iteration + 1
    assert len(state.rate_trace) == len(trace)
    assert np.all(np.diff(trace) <= 1e-9)
    assert state.final_smse <= trace[-1] + 1e-9
    assert all(state.feasible_trace)
    assert all(r < 1e-8 for r in state.w_residual_trace)
    assert all(p <= 1e-12 for p in state.w_power_error_trace)
    assert all(g <= 1.0 + 1e-12 for g in state.guard_trace)


def test_loop_trace_stays_monotone_when_the_precoder_is_rematched():
    # On this realization the re-matched regularized precoder used to raise
    # the recorded SMSE, by up to 6.4e-9, after 192 iterations.
    _, f = folded_scenario(ScenarioConfig(seed=2819575384368733390), realization=4)
    state = saris_optimize(f, OptimizerConfig(epsilon=1e-9, max_iter=500))
    assert np.diff(state.smse_trace).max() <= 1e-9


def test_loop_improves_over_starting_point():
    f, opt, state = run_tiny()
    assert state.iteration >= 2
    assert state.final_sum_rate > state.rate_trace[0]
    assert state.final_smse < state.smse_trace[0]


def test_loop_final_pair_is_coherent():
    f, opt, state = run_tiny()
    h = end_to_end_channel(f, state.loads)
    assert_allclose(
        state.final_smse, smse(f.H_d, h - f.H_d, state.W, opt.sigma_n2), rtol=1e-12
    )
    assert_allclose(state.final_sum_rate, sum_rate(h, state.W, opt.sigma_n2), rtol=1e-12)
    assert abs(np.linalg.norm(state.W) ** 2 - opt.power) / opt.power < 1e-12


def test_loop_huge_epsilon_stops_after_one_iteration():
    f, opt, state = run_tiny(epsilon=1e9)
    assert state.iteration == 1
    assert state.converged
    assert len(state.smse_trace) == 2


def test_loop_honors_max_iter():
    config = tiny_config()
    _, f = folded_scenario(config)
    opt = OptimizerConfig(epsilon=1e-300, max_iter=3)
    state = saris_optimize(f, opt)
    assert state.iteration == 3
    assert not state.converged
    assert len(state.smse_trace) == 4


def test_nan_initial_reactance_is_rejected_as_bad_input():
    _, f = folded_scenario(tiny_config())
    with pytest.raises(ValueError, match="finite"):
        saris_optimize(f, OptimizerConfig(x_init=np.nan))


def test_loop_is_deterministic():
    _, _, a = run_tiny(max_iter=20)
    _, _, b = run_tiny(max_iter=20)
    assert a.smse_trace == b.smse_trace
    assert a.rate_trace == b.rate_trace
    assert np.array_equal(a.loads.x, b.loads.x)
    assert np.array_equal(a.W, b.W)


def test_out_of_interval_start_is_clipped():
    config = tiny_config()
    _, f = folded_scenario(config)
    lo = OptimizerConfig().q_interval[0]
    a = saris_optimize(f, OptimizerConfig(x_init=-1e6, max_iter=1))
    b = saris_optimize(f, OptimizerConfig(x_init=lo, max_iter=1))
    assert a.smse_trace[0] == b.smse_trace[0]


def test_mismatched_equals_matched_without_coupling():
    config = tiny_config()
    z, _ = folded_scenario(config)
    z.Z_EE[: z.n_eso, z.n_eso :] = 0.0
    z.Z_EE[z.n_eso :, : z.n_eso] = 0.0
    from saris.channel import fold_esos

    f = fold_esos(z)
    opt = OptimizerConfig(epsilon=1e-10, max_iter=40)
    a = saris_optimize(f, opt)
    b = mismatched_optimize(f, z, opt)
    assert a.smse_trace == b.smse_trace
    assert_allclose(b.final_sum_rate, a.final_sum_rate, rtol=1e-9)
    assert_allclose(b.final_smse, a.final_smse, rtol=1e-9)


def test_mismatched_scores_on_true_channel():
    config = tiny_config()
    z, f = folded_scenario(config)
    opt = OptimizerConfig(epsilon=1e-10, max_iter=40)
    state = mismatched_optimize(f, z, opt)
    h_true = end_to_end_channel(f, state.loads)
    assert_allclose(
        state.final_sum_rate, sum_rate(h_true, state.W, opt.sigma_n2), rtol=1e-12
    )
    assert all(state.feasible_trace)


def test_baseline_is_deterministic_and_feasible():
    config = tiny_config()
    _, f = folded_scenario(config)
    opt = OptimizerConfig()
    a = random_baseline(f, opt, trials=16, rng=np.random.default_rng(9))
    b = random_baseline(f, opt, trials=16, rng=np.random.default_rng(9))
    assert a.rate_trace == b.rate_trace
    assert np.array_equal(a.loads.x, b.loads.x)
    assert a.iteration == 16
    assert len(a.rate_trace) == 16
    lo, hi = opt.q_interval
    assert np.all((a.loads.x >= lo) & (a.loads.x <= hi))
    assert np.all(a.loads.z_diagonal.real == opt.r0)
    # Running bests: rates never drop, errors never rise.
    assert np.all(np.diff(a.rate_trace) >= 0)
    assert np.all(np.diff(a.smse_trace) <= 0 + 1e-15)


def test_baseline_final_metrics_match_best_draw():
    config = tiny_config()
    _, f = folded_scenario(config)
    opt = OptimizerConfig()
    state = random_baseline(f, opt, trials=8, rng=np.random.default_rng(10))
    h = end_to_end_channel(f, state.loads)
    assert_allclose(
        state.final_sum_rate, sum_rate(h, state.W, opt.sigma_n2), rtol=1e-12
    )
    assert state.final_sum_rate == state.rate_trace[-1]
    with pytest.raises(ValueError):
        random_baseline(f, opt, trials=0)
