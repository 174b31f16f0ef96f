"""Objective, precoder, load-perturbation solve, and the alternating loop."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import saris.optimize
from saris.channel import LoadEvaluation, RisLoads, end_to_end_channel, fold_esos
from saris.optimize import (
    _MAX_HALVINGS,
    DegenerateChannelError,
    DeltaStep,
    OptimizerConfig,
    OptimizerState,
    _power_norm,
    _precoder_solve,
    build_delta_system,
    mismatched_optimize,
    optimal_precoder,
    random_baseline,
    saris_optimize,
    smse_and_rate,
    solve_delta,
)
from saris.scenario import ScenarioConfig

from _helpers import (
    Q_TABLE,
    folded_scenario,
    random_impedance_set,
    smse_bruteforce,
    sum_rate_bruteforce,
    tiny_config,
)


def random_channel(rng, l_rx=3, m_tx=4):
    return rng.standard_normal((l_rx, m_tx)) + 1j * rng.standard_normal((l_rx, m_tx))


def initial_state(f, config):
    """Optimizer state at the starting point, without running the loop."""
    loads = RisLoads(config.r0, config.initial_reactances(f.n_ris), config.q_interval)
    ev = LoadEvaluation(f, loads)
    w = optimal_precoder(ev.h, config.power, config.sigma_n2)
    return OptimizerState(W=w, evaluation=ev, g_norm=_power_norm(ev.solve, f.n_ris)[0])


def test_smse_matches_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(5):
        h_d = random_channel(rng)
        h_ris = 0.1 * random_channel(rng)
        w = random_channel(rng, 4, 3)
        got = smse_and_rate(h_d + h_ris, w, 1e-3)[0]
        want = smse_bruteforce(h_d + h_ris, w, 1e-3)
        assert_allclose(got, want, rtol=1e-12)


def test_smse_of_zero_precoder():
    rng = np.random.default_rng(1)
    h = random_channel(rng)
    w = np.zeros((4, 3), dtype=complex)
    assert smse_and_rate(h, w, 1e-2)[0] == 3 * (1.0 + 1e-2)


def test_sum_rate_matches_bruteforce():
    rng = np.random.default_rng(2)
    for _ in range(5):
        h = random_channel(rng)
        w = random_channel(rng, 4, 3)
        assert_allclose(
            smse_and_rate(h, w, 1e-4)[1], sum_rate_bruteforce(h, w, 1e-4), rtol=1e-12
        )


@pytest.mark.parametrize("l_rx", [1, 2, 3])
def test_one_product_scores_match_separate_ones(l_rx):
    rng = np.random.default_rng(20 + l_rx)
    for _ in range(5):
        h_d = random_channel(rng, l_rx)
        h_ris = 0.1 * random_channel(rng, l_rx)
        w = random_channel(rng, 4, l_rx)
        h = h_d + h_ris
        err, rate = smse_and_rate(h, w, 1e-3)
        assert_allclose(err, smse_bruteforce(h, w, 1e-3), rtol=1e-12)
        assert_allclose(rate, sum_rate_bruteforce(h, w, 1e-3), rtol=1e-12)


def test_interference_free_rate():
    # Orthogonal single-stream links: SINR reduces to SNR.
    h = np.diag([2.0, 3.0]).astype(complex)
    w = np.eye(2, dtype=complex)
    want = np.log2(1 + 4.0 / 1e-2) + np.log2(1 + 9.0 / 1e-2)
    assert_allclose(smse_and_rate(h, w, 1e-2)[1], want, rtol=1e-12)


def test_precoder_power_and_stationarity():
    rng = np.random.default_rng(3)
    for power in (1.0, 2.5):
        h = 1e-3 * random_channel(rng)
        w = optimal_precoder(h, power, 1e-11)
        assert abs(np.linalg.norm(w) ** 2 - power) / power < 1e-12
        assert _precoder_solve(h, power, 1e-11)[1] < 1e-8


def test_precoder_beats_random_precoders():
    rng = np.random.default_rng(4)
    h = random_channel(rng)
    w_opt = optimal_precoder(h, 1.0, 1e-3)
    base = smse_and_rate(h, w_opt, 1e-3)[0]
    for _ in range(20):
        w = random_channel(rng, 4, 3)
        w = w / np.linalg.norm(w)
        assert base <= smse_and_rate(h, w, 1e-3)[0] + 1e-12


def test_precoder_scalar_closed_form():
    h = np.array([[0.3 - 0.4j]])
    w = optimal_precoder(h, 2.0, 1e-9)
    assert_allclose(w, np.sqrt(2.0) * h.conj() / abs(h[0, 0]), rtol=1e-12)


def test_precoder_rejects_zero_channel():
    with pytest.raises(DegenerateChannelError):
        optimal_precoder(np.zeros((2, 3), dtype=complex), 1.0, 1e-11)


def test_spectral_norm_matches_dense():
    def norm(a):
        return _power_norm(lambda v, t: (a.conj().T if t else a) @ v, len(a))[0]

    rng = np.random.default_rng(5)
    for n in (1, 2, 7):
        a = random_channel(rng, n, n)
        assert_allclose(norm(a), np.linalg.norm(a, 2), rtol=1e-5)
    assert norm(np.zeros((3, 3), dtype=complex)) == 0.0


def test_load_evaluation_matches_dense_inverse():
    config = tiny_config()
    _, f = folded_scenario(config)
    loads = RisLoads(0.2, np.full(f.n_ris, -150.0), config.Q_interval)
    ev = LoadEvaluation(f, loads)
    g = np.linalg.inv(f.Z_SS + f.Z_SOS + np.diag(loads.z_diagonal))

    def rel_err(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    # The channel solve S^-1 Z_SOT Z_TG and the transposed solve u = v S^-1.
    assert rel_err(ev.a_mat, g @ (f.Z_SOT @ f.Z_TG)) <= 1e-12
    v = f.Z_RL @ f.Z_ROS
    assert rel_err(ev.solve(v.T, 1).T, v @ g) <= 1e-12
    # The power iteration on the LU factors gives ||S^-1||.
    assert_allclose(_power_norm(ev.solve_vector, f.n_ris)[0], np.linalg.norm(g, 2), rtol=1e-5)


def traced_peak_blocks(fn, n):
    """Peak traced allocation while fn() runs, in units of one complex N x N
    block (16 N^2 bytes). numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (16 * n * n)


def test_load_evaluation_allocates_one_block():
    # S is a copy of the cached A with the loads on its diagonal, factored in
    # place; its 1-norm comes from the cached column sums without an N x N
    # absolute value.
    n = 256
    f = fold_esos(random_impedance_set(np.random.default_rng(30), n_ris=n))
    loads = RisLoads(0.2, np.full(n, -150.0), Q_TABLE)
    assert traced_peak_blocks(lambda: LoadEvaluation(f, loads), n) <= 1.1


def test_load_step_allocates_one_block():
    # The normal matrix is the only N x N buffer of the load step.
    n, l_rx, m_tx = 256, 2, 3
    rng = np.random.default_rng(31)
    ds = DeltaStep(
        u=random_channel(rng, l_rx, n),
        a_mat=random_channel(rng, n, m_tx),
        h=random_channel(rng, l_rx, m_tx),
    )
    w = random_channel(rng, m_tx, l_rx)
    assert traced_peak_blocks(lambda: solve_delta(ds, w, 1e-11, 1.0), n) <= 1.1


def test_in_place_steps_leave_their_inputs_untouched():
    # solve_delta, the precoder, the scores and the power iteration scale or
    # normalize their own results in place; none may write to what it reads.
    rng = np.random.default_rng(32)
    ev, _ = pivoting_evaluation(rng, 12)
    u = ev.solve(ev.v.T, 1).T
    ds = DeltaStep(u=u, a_mat=ev.a_mat, h=ev.h)
    w = optimal_precoder(ds.h, 1.0, 1e-11)
    v0 = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    inputs = (ds.u, ds.a_mat, ds.h, w, v0, *ev._lu)
    before = [a.copy() for a in inputs]
    solve_delta(ds, w, 1e-11, 1.0)
    w_new, _ = _precoder_solve(ds.h, 1.0, 1e-11)
    assert not np.shares_memory(w_new, ds.h)
    smse_and_rate(ds.h, w, 1e-11)
    _, vec = _power_norm(ev.solve_vector, 12, v0=v0)
    assert not np.shares_memory(vec, v0)
    for trans in (0, 1, 2):
        assert not np.shares_memory(ev.solve_vector(v0, trans), v0)
    for want, got in zip(before, inputs):
        assert np.array_equal(got, want)


def pivoting_channel(rng, n):
    """A folded channel whose LUs swap rows. Generated deployments and random
    impedance sets factor with identity pivots, so Z_SS is replaced by a
    large random block that outweighs the load diagonal."""
    f = fold_esos(random_impedance_set(rng, n_ris=n))
    return dataclasses.replace(
        f, Z_SS=1e3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    )


def pivoting_evaluation(rng, n):
    """A load evaluation of `pivoting_channel` whose LU swaps rows."""
    f = pivoting_channel(rng, n)
    loads = RisLoads(0.2, np.full(n, -150.0), Q_TABLE)
    ev = LoadEvaluation(f, loads)
    assert (ev._lu[1] != np.arange(n)).sum() >= n // 2
    return ev, np.linalg.inv(f.Z_SS + f.Z_SOS + np.diag(loads.z_diagonal))


def test_vector_solves_with_interchanges_match_dense_inverse():
    # Vectors go through the row interchanges and two trsv calls, blocks
    # through getrs; both must give S^-1, S^-T and S^-H.
    rng = np.random.default_rng(11)
    ev, g = pivoting_evaluation(rng, 12)

    def rel_err(got, want):
        return np.linalg.norm(got - want) / np.linalg.norm(want)

    for trans, op in enumerate((g, g.T, g.conj().T)):
        for _ in range(3):
            v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            got = ev.solve_vector(v, trans)
            assert got.shape == (12,)
            assert rel_err(got, op @ v) <= 1e-12
            assert rel_err(got, ev.solve(v[:, None], trans)[:, 0]) <= 1e-12


def test_vector_solve_leaves_its_operand_and_the_factors_untouched():
    # The interchanges and triangular solves can work in place. Only the
    # solve's own copies may be written, never the caller's vector or the LU
    # that later solves of the evaluation share. Blocks read by the optimizers
    # are covered by test_evaluation_and_optimizers_leave_blocks_untouched.
    rng = np.random.default_rng(14)
    ev, _ = pivoting_evaluation(rng, 12)
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    before = (v.copy(), ev._lu[0].copy(), ev._lu[1].copy())
    for trans in (0, 1, 2):
        got = ev.solve_vector(v, trans)
        assert not np.shares_memory(got, v)
        for want, after in zip(before, (v, *ev._lu)):
            assert np.array_equal(after, want)


def test_warm_started_inverse_norm_matches_dense_with_interchanges():
    rng = np.random.default_rng(12)
    n = 12
    ev, g = pivoting_evaluation(rng, n)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = np.linalg.norm(g, 2)
    for start in (None, v0):
        got, vec = _power_norm(ev.solve_vector, n, v0=start)
        assert_allclose(got, want, rtol=1e-5)
        # The returned vector warm-starts the next estimate.
        assert_allclose(_power_norm(ev.solve_vector, n, v0=vec)[0], want, rtol=1e-5)


@pytest.mark.parametrize("deployment", ["desk", "pivoting"])
def test_loop_trust_norm_matches_dense_at_the_final_loads(deployment):
    # The loop takes ||S^-1|| cold at the start and warm-started from the
    # previous vector after every accepted step; the last estimate must
    # describe the final loads.
    if deployment == "desk":
        f = folded_scenario(ScenarioConfig(seed=1234))[1]
    else:
        f = pivoting_channel(np.random.default_rng(16), 12)
    config = OptimizerConfig(max_iter=40)
    state = saris_optimize(f, config)
    assert not np.array_equal(state.loads.x, config.initial_reactances(f.n_ris))
    if deployment == "pivoting":
        assert (state.evaluation._lu[1] != np.arange(f.n_ris)).any()
    g = np.linalg.inv(f.Z_SS + f.Z_SOS + np.diag(state.loads.z_diagonal))
    assert_allclose(state.g_norm, np.linalg.norm(g, 2), rtol=1e-5)


def test_linearization_is_exact_at_zero_step():
    config = tiny_config()
    _, f = folded_scenario(config)
    state = initial_state(f, OptimizerConfig())
    ds = build_delta_system(state)
    h = end_to_end_channel(f, state.loads)
    scale = np.abs(h).max()
    for l in range(f.l_rx):
        row = ds.h[l]
        assert np.abs(row - h[l]).max() < 1e-10 * scale


def test_sensitivity_stacks_derive_from_factors():
    # The sensitivity rows of user l are u_l * a_mat; a_mat and the channel
    # rows h are the evaluation's own arrays, not copies.
    _, f = folded_scenario(tiny_config(L=3))
    state = initial_state(f, OptimizerConfig())
    ds = build_delta_system(state)
    u, a_mat, h = ds.u, ds.a_mat, ds.h
    assert u.shape == (f.l_rx, f.n_ris)
    assert a_mat is state.evaluation.a_mat and h is state.evaluation.h


def test_sensitivity_rows_match_finite_differences():
    config = tiny_config()
    _, f = folded_scenario(config)
    opt = OptimizerConfig()
    state = initial_state(f, opt)
    ds = build_delta_system(state)
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
            analytic = ds.u[l][n] * ds.a_mat[n]
            assert np.linalg.norm(fd - analytic) < 1e-4 * np.linalg.norm(analytic)


def test_first_order_error_shrinks_quadratically():
    config = tiny_config()
    _, f = folded_scenario(config)
    opt = OptimizerConfig()
    state = initial_state(f, opt)
    ds = build_delta_system(state)
    delta = solve_delta(ds, state.W, opt.sigma_n2, state.g_norm)
    direction = np.imag(delta)

    def error(scale):
        applied = 1j * scale * direction
        x_new = state.loads.x - scale * direction
        h_new = end_to_end_channel(f, RisLoads(opt.r0, x_new, opt.q_interval))
        err = 0.0
        for l in range(f.l_rx):
            h_r = ds.u[l][:, None] * ds.a_mat
            predicted = ds.h[l] + applied.conj() @ h_r
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
    ds = build_delta_system(state)
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
    ds = build_delta_system(state)
    delta = solve_delta(ds, state.W, opt.sigma_n2, state.g_norm)

    n = f.n_ris
    gram = opt.sigma_n2 * np.eye(n, dtype=complex)
    b = np.zeros(n, dtype=complex)
    ww_h = state.W @ state.W.conj().T
    for l in range(f.l_rx):
        h_r = ds.u[l][:, None] * ds.a_mat
        h_d_row = ds.h[l]
        b += h_r @ state.W[:, l] - h_r @ ww_h @ h_d_row.conj()
        t = h_r @ state.W
        gram += t @ t.conj().T
    want = np.linalg.solve(gram, b)
    # The returned step is the solve scaled so its largest entry is 1/g_norm.
    want /= np.abs(want).max() * state.g_norm
    assert np.linalg.norm(delta - want) < 1e-10 * np.linalg.norm(want)
    # The regularized normal matrix stays positive definite.
    eigs = np.linalg.eigvalsh(gram)
    assert eigs.min() >= opt.sigma_n2 * (1 - 1e-9)


def constant_delta_step(fill):
    """N = 4 cells, L = 2 users, M = 3: every sensitivity and channel entry
    equals `fill`, and the precoder is all ones."""
    ds = DeltaStep(
        u=np.full((2, 4), fill, dtype=complex),
        a_mat=np.ones((4, 3), dtype=complex),
        h=np.full((2, 3), fill, dtype=complex),
    )
    return ds, np.ones((3, 2), dtype=complex)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["sensitivity", "channel_row", "sigma"])
def test_delta_solve_rejects_non_finite_input(bad, where):
    ds, w = constant_delta_step(1.0)
    sigma_n2 = 1e-11
    if where == "sensitivity":
        ds.u[1, 2] = bad
    elif where == "channel_row":
        ds.h[0, 1] = bad
    else:
        sigma_n2 = bad
    with pytest.raises(ValueError, match="non-finite"):
        solve_delta(ds, w, sigma_n2, 1.0)


def test_delta_solve_rejects_zero_trust_norm():
    # The step is scaled to the trust bound 1/g_norm.
    ds, w = constant_delta_step(1.0)
    with pytest.raises(ValueError, match="g_norm must be positive"):
        solve_delta(ds, w, 1e-11, 0.0)


def test_delta_solve_reports_indefinite_system():
    # A negative regularizer with zero sensitivities leaves -I: potrf fails
    # on the first leading minor.
    ds, w = constant_delta_step(0.0)
    with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
        solve_delta(ds, w, -1.0, 1.0)


def test_delta_zero_rhs_returns_zero():
    n, m = 4, 2
    ds = DeltaStep(
        u=np.zeros((1, n), dtype=complex),
        a_mat=np.ones((n, m), dtype=complex),
        h=np.ones((1, m), dtype=complex),
    )
    delta = solve_delta(ds, np.ones((m, 1), dtype=complex), 1e-11, 1.0)
    assert not delta.any()
    assert delta.shape == (n,)


def test_state_loads_cannot_drift_from_the_evaluation():
    # The loads live only in the evaluation: state.loads is a read-only view.
    z, f = folded_scenario(tiny_config())
    opt = OptimizerConfig(max_iter=10)
    states = (
        saris_optimize(f, opt),
        mismatched_optimize(f, z, opt),
        random_baseline(f, opt, trials=4, rng=3),
    )
    for state in states:
        assert state.loads is state.evaluation.loads
        with pytest.raises(AttributeError):
            state.loads = RisLoads(opt.r0, state.loads.x, opt.q_interval)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(power=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(sigma_n2=-1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iter=0)
    # Values that used to pass construction and fail only inside the loop.
    # Each message starts with the field name, which the CLI maps to a flag.
    for field, bad in [
        ("max_iter", 2.5),
        ("max_iter", True),
        ("max_iter", np.float64(3.0)),
        ("epsilon", np.inf),
        ("power", np.inf),
        ("power", np.nan),
        ("sigma_n2", np.inf),
        ("q_interval", (-19.66, -302.50)),
        ("q_interval", (-np.inf, -19.66)),
        ("q_interval", (-302.50, np.nan)),
        ("r0", -1.0),
        ("r0", np.inf),
        ("r0", np.nan),
    ]:
        with pytest.raises(ValueError, match=f"^{field} "):
            OptimizerConfig(**{field: bad})
    assert OptimizerConfig(max_iter=np.int64(7)).max_iter == 7
    assert OptimizerConfig(q_interval=(-50.0, -50.0), r0=0.0).r0 == 0.0
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
    err, rate = smse_and_rate(h, state.W, opt.sigma_n2)
    assert_allclose(state.final_smse, err, rtol=1e-12)
    assert_allclose(state.final_sum_rate, rate, rtol=1e-12)
    assert abs(np.linalg.norm(state.W) ** 2 - opt.power) / opt.power < 1e-12


def test_loop_huge_epsilon_stops_after_one_iteration():
    f, opt, state = run_tiny(epsilon=1e9)
    assert state.iteration == 1
    assert state.converged
    assert len(state.smse_trace) == 2


def assert_trace_lengths(state):
    """One guard and halving entry per iteration; one trace point per
    iteration plus the starting point (precoder diagnostics: one per
    iteration plus the final re-match)."""
    k = state.iteration
    assert len(state.guard_trace) == k
    assert len(state.halving_trace) == k
    for trace in (
        state.smse_trace,
        state.rate_trace,
        state.feasible_trace,
        state.w_residual_trace,
        state.w_power_error_trace,
    ):
        assert len(trace) == k + 1


@dataclasses.dataclass
class RecordingState(OptimizerState):
    """OptimizerState whose rate trace keeps, with every rate appended, the
    channel and precoder the state held at that moment."""

    def __post_init__(self):
        state = self
        self.recorded = []

        class Trace(list):
            def append(self, rate):
                state.recorded.append((state.evaluation.h.copy(), state.W.copy()))
                super().append(rate)

        self.rate_trace = Trace()


@pytest.mark.parametrize("deployment", ["desk", "pivoting", "halving", "zero_step"])
def test_each_trace_point_scores_the_pair_it_records(monkeypatch, deployment):
    # The loop compares SMSEs only and takes one rate per trace point; both
    # must be the scores of the channel and precoder it holds at that point.
    # "halving" halves 26 steps and keeps its old precoder once; "zero_step"
    # ends on an iteration whose re-matched precoder is kept but whose load
    # step is zero, so no candidate rescores the recorded pair.
    if deployment == "pivoting":
        f = pivoting_channel(np.random.default_rng(16), 12)
    elif deployment == "halving":
        f = folded_scenario(ScenarioConfig(seed=2819575384368733390), realization=4)[1]
    else:
        f = folded_scenario(ScenarioConfig(seed=1234))[1]
    if deployment == "zero_step":
        steps = []
        solve = saris.optimize.solve_delta

        def stalling(ds, W, sigma_n2, g_norm):
            steps.append(solve(ds, W, sigma_n2, g_norm))
            return steps[-1] if len(steps) < 10 else np.zeros_like(steps[-1])

        monkeypatch.setattr(saris.optimize, "solve_delta", stalling)
    monkeypatch.setattr(saris.optimize, "OptimizerState", RecordingState)
    opt = OptimizerConfig(epsilon=1e-300, max_iter=500 if deployment == "halving" else 40)
    state = saris_optimize(f, opt)
    assert state.iteration >= 9
    if deployment == "halving":
        assert sum(state.halving_trace) > 0
    if deployment == "zero_step":
        assert state.iteration == 10
        assert not np.array_equal(state.recorded[-1][1], state.recorded[-2][1])
    assert len(state.recorded) == len(state.rate_trace) == len(state.smse_trace)
    for (h, w), smse, rate in zip(state.recorded, state.smse_trace, state.rate_trace):
        assert (smse, rate) == smse_and_rate(h, w, opt.sigma_n2)


def test_sub_steps_run_once_per_iteration_and_draw(monkeypatch):
    # The loop reaches build_delta_system and solve_delta, and the random
    # baseline optimal_precoder, through the module globals that the
    # benchmark tracer wraps; each runs once per iteration or draw.
    calls = {"build_delta_system": 0, "solve_delta": 0, "optimal_precoder": 0}
    for name in calls:
        fn = getattr(saris.optimize, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(saris.optimize, name, counted)
    z, f = folded_scenario(ScenarioConfig(seed=1234))
    opt = OptimizerConfig(epsilon=1e-300, max_iter=25)
    state = saris_optimize(f, opt)
    assert state.iteration == 25
    assert calls == {"build_delta_system": 25, "solve_delta": 25, "optimal_precoder": 0}
    state = mismatched_optimize(f, z, opt)
    assert calls["build_delta_system"] == calls["solve_delta"] == 25 + state.iteration
    random_baseline(f, opt, trials=17, rng=np.random.default_rng(3))
    assert calls["optimal_precoder"] == 17


def test_loop_honors_max_iter():
    config = tiny_config()
    _, f = folded_scenario(config)
    opt = OptimizerConfig(epsilon=1e-300, max_iter=3)
    state = saris_optimize(f, opt)
    assert state.iteration == 3
    assert not state.converged
    assert_trace_lengths(state)


@pytest.mark.parametrize("epsilon", [1e-9, 1e-6])
def test_tolerance_compares_consecutive_trace_entries(epsilon):
    # The stop test is on the SMSE change over a whole iteration, precoder
    # re-match included, so no earlier pair of entries is within epsilon.
    opt = OptimizerConfig(epsilon=epsilon)
    folds = [folded_scenario(tiny_config(), r) for r in range(5)]
    folds += [folded_scenario(ScenarioConfig(), r) for r in range(6)]
    on_tolerance = 0
    for z, f in folds:
        for state in (saris_optimize(f, opt), mismatched_optimize(f, z, opt)):
            assert_trace_lengths(state)
            diffs = np.abs(np.diff(state.smse_trace))
            assert (diffs[:-1] > epsilon).all()
            # Halving stops short of its cap only by accepting a candidate.
            accepted = state.guard_trace[-1] > 0 and state.halving_trace[-1] < _MAX_HALVINGS
            if state.converged and accepted:
                on_tolerance += 1
                assert diffs[-1] <= epsilon
            elif not state.converged:
                assert diffs[-1] > epsilon
    assert on_tolerance > 0


def test_zero_step_stops_at_once(monkeypatch):
    _, f = folded_scenario(tiny_config())
    monkeypatch.setattr(
        saris.optimize, "solve_delta", lambda ds, W, sigma_n2, g_norm: np.zeros(f.n_ris, complex)
    )
    opt = OptimizerConfig()
    state = saris_optimize(f, opt)
    assert state.iteration == 1
    assert state.converged
    assert state.guard_trace == [0.0]
    assert state.halving_trace == [0]
    assert len(state.smse_trace) == 2
    assert_trace_lengths(state)
    assert np.array_equal(state.loads.x, opt.initial_reactances(f.n_ris))


def test_halving_cap_stops_with_the_loads_unchanged(monkeypatch):
    evaluations = []

    class Blinded(LoadEvaluation):
        """Every evaluation after the first sees a zero channel, so no
        candidate lowers the SMSE."""

        def __init__(self, f, loads):
            super().__init__(f, loads)
            evaluations.append(loads)
            if len(evaluations) > 1:
                self.h = np.zeros_like(self.h)

    monkeypatch.setattr(saris.optimize, "LoadEvaluation", Blinded)
    _, f = folded_scenario(tiny_config())
    opt = OptimizerConfig()
    state = saris_optimize(f, opt)
    assert state.iteration == 1
    assert state.converged
    assert state.halving_trace == [60]
    assert len(evaluations) == 62
    assert np.array_equal(state.loads.x, opt.initial_reactances(f.n_ris))
    assert state.smse_trace[1] == state.smse_trace[0]
    assert_trace_lengths(state)


def test_loop_is_deterministic():
    _, _, a = run_tiny(max_iter=20)
    _, _, b = run_tiny(max_iter=20)
    assert a.smse_trace == b.smse_trace
    assert a.rate_trace == b.rate_trace
    assert np.array_equal(a.loads.x, b.loads.x)
    assert np.array_equal(a.W, b.W)


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
        state.final_sum_rate, smse_and_rate(h_true, state.W, opt.sigma_n2)[1], rtol=1e-12
    )
    assert all(state.feasible_trace)


def test_baseline_is_deterministic_and_feasible():
    config = tiny_config()
    _, f = folded_scenario(config)
    opt = OptimizerConfig()
    a = random_baseline(f, opt, trials=16, rng=np.random.default_rng(9))
    b = random_baseline(f, opt, trials=16, rng=np.random.default_rng(9))
    c = random_baseline(f, opt, trials=16, rng=9)
    assert a.rate_trace == b.rate_trace == c.rate_trace
    assert np.array_equal(a.loads.x, b.loads.x)
    assert np.array_equal(a.loads.x, c.loads.x)
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
        state.final_sum_rate, smse_and_rate(h, state.W, opt.sigma_n2)[1], rtol=1e-12
    )
    assert state.final_sum_rate == state.rate_trace[-1]
    with pytest.raises(ValueError):
        random_baseline(f, opt, trials=0, rng=10)
