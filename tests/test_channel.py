"""Folding the scatterer ports and evaluating the load-dependent channel."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from saris import channel
from saris.channel import (
    LoadEvaluation,
    RisLoads,
    SingularBlockError,
    end_to_end_channel,
    fold_esos,
    interaction_free,
)
from saris.cli import ALGOS, _run_trial
from saris.dipoles import assemble_impedances
from saris.optimize import OptimizerConfig, mismatched_optimize, saris_optimize
from saris.scenario import ScenarioConfig, generate

from _helpers import (
    Q_TABLE,
    dense_folded_blocks,
    dense_oneshot_channel,
    folded_scenario,
    random_impedance_set,
    random_loads,
    tiny_config,
)


def test_folded_blocks_match_dense_inverse():
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = random_impedance_set(rng)
        f = fold_esos(z)
        want = dense_folded_blocks(z)
        scale = np.linalg.norm(z.full_matrix())
        for name, ref in want.items():
            got = getattr(f, name)
            assert np.linalg.norm(got - ref) / scale < 1e-12, name


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 4),
    l_rx=st.integers(1, 3),
    n_eso=st.integers(0, 12),
    n_ris=st.integers(1, 8),
    z_us=st.sampled_from([0.0, 30.0 + 5.0j]),
)
def test_fold_identities_on_random_sets(seed, m, l_rx, n_eso, n_ris, z_us):
    rng = np.random.default_rng(seed)
    z = random_impedance_set(rng, m=m, l_rx=l_rx, n_eso=n_eso, n_ris=n_ris, z_us=z_us)
    f = fold_esos(z)
    scale = np.linalg.norm(z.full_matrix())
    for name, ref in dense_folded_blocks(z).items():
        assert np.linalg.norm(getattr(f, name) - ref) / scale < 1e-12, name
    loads = random_loads(rng, n_ris)
    ref = dense_oneshot_channel(z, loads)
    assert np.linalg.norm(end_to_end_channel(f, loads) - ref) / np.linalg.norm(ref) < 1e-12


def test_channel_matches_oneshot_inverse():
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = random_impedance_set(rng)
        f = fold_esos(z)
        loads = random_loads(rng, z.n_ris)
        h = end_to_end_channel(f, loads)
        ref = dense_oneshot_channel(z, loads)
        assert np.linalg.norm(h - ref) / np.linalg.norm(ref) < 1e-12


def test_channel_with_nonzero_eso_termination():
    rng = np.random.default_rng(2)
    z = random_impedance_set(rng, z_us=30.0 + 5.0j)
    f = fold_esos(z)
    loads = random_loads(rng, z.n_ris)
    ref = dense_oneshot_channel(z, loads)
    assert_allclose(end_to_end_channel(f, loads), ref, rtol=1e-11)


def test_direct_term_is_load_independent():
    rng = np.random.default_rng(3)
    z = random_impedance_set(rng)
    f = fold_esos(z)
    assert_allclose(f.H_d, f.Z_RL @ f.Z_ROT @ f.Z_TG, rtol=0, atol=0)
    assert f.H_d.shape == (z.l_rx, z.m_tx)


def test_folded_shapes_and_counters():
    rng = np.random.default_rng(4)
    z = random_impedance_set(rng, m=5, l_rx=3, n_eso=7, n_ris=6)
    f = fold_esos(z)
    assert (f.m_tx, f.l_rx, f.n_ris) == (5, 3, 6)
    assert f.Z_ROS.shape == (3, 6)
    assert f.Z_SOS.shape == (6, 6)
    assert f.Z_SOT.shape == (6, 5)
    assert f.Z_RL.shape == (3, 3)
    assert f.Z_TG.shape == (5, 5)


def test_scatter_fold_couples_ris_cells():
    # Indirect paths through the scatterers make the inner matrix dense even
    # though the bare RIS loading is diagonal.
    rng = np.random.default_rng(5)
    z = random_impedance_set(rng)
    f = fold_esos(z)
    off = f.Z_SOS - np.diag(np.diag(f.Z_SOS))
    assert np.abs(off).max() > 0


def test_zero_coupling_collapses_to_interaction_free():
    rng = np.random.default_rng(6)
    z = random_impedance_set(rng)
    z.Z_EE[: z.n_eso, z.n_eso :] = 0.0
    z.Z_EE[z.n_eso :, : z.n_eso] = 0.0
    f = fold_esos(z)
    loads = random_loads(rng, z.n_ris)
    h_full = end_to_end_channel(f, loads)
    h_free = end_to_end_channel(interaction_free(f, z), loads)
    assert np.array_equal(h_full, h_free)


def test_interaction_free_shares_direct_path():
    rng = np.random.default_rng(7)
    z = random_impedance_set(rng)
    f = fold_esos(z)
    g = interaction_free(f, z)
    assert g.Z_ROT is f.Z_ROT
    assert g.H_d is f.H_d
    assert g.Z_RL is f.Z_RL
    assert g.Z_TG is f.Z_TG
    assert np.shares_memory(g.Z_SS, f.Z_SS)
    assert np.array_equal(g.Z_ROS, -z.Z_RS)
    assert np.array_equal(g.Z_SOT, -z.Z_ST)
    assert not g.Z_SOS.any()


def test_no_scatterers_makes_models_identical():
    rng = np.random.default_rng(8)
    z = random_impedance_set(rng, n_eso=0)
    f = fold_esos(z)
    loads = random_loads(rng, z.n_ris)
    assert_allclose(f.Z_ROT, z.Z_RT, rtol=0, atol=0)
    assert np.array_equal(
        end_to_end_channel(f, loads), end_to_end_channel(interaction_free(f, z), loads)
    )


def test_a_surface_without_cells_is_rejected():
    # Every folded channel passes FoldedChannel's check, so no later stage
    # meets N = 0: not the fold, not a replaced Z_SS, and so not the
    # interaction-free model, which replaces blocks of the fold.
    rng = np.random.default_rng(9)
    empty = random_impedance_set(rng, n_ris=0)
    with pytest.raises(ValueError, match="no RIS cell"):
        fold_esos(empty)
    f = fold_esos(random_impedance_set(rng))
    with pytest.raises(ValueError, match="no RIS cell"):
        dataclasses.replace(f, Z_SS=np.zeros((0, 0), dtype=complex))


def test_scalar_network_closed_form():
    rng = np.random.default_rng(10)
    z = random_impedance_set(rng, m=1, l_rx=1, n_eso=1, n_ris=1)
    f = fold_esos(z)
    loads = random_loads(rng, 1)

    zbar = (z.Z_OO[0, 0] + z.Z_US[0, 0]).item()
    rt, ro, ot = z.Z_RT.item(), z.Z_RO.item(), z.Z_OT.item()
    rs, so, os_, st = z.Z_RS.item(), z.Z_SO.item(), z.Z_OS.item(), z.Z_ST.item()
    rot = rt - ro * ot / zbar
    ros = ro * os_ / zbar - rs
    sos = -so * os_ / zbar
    sot = so * ot / zbar - st
    z_rl = 1.0 / (1.0 + z.Z_RR.item() / z.Z_L[0, 0].item())
    z_tg = 1.0 / (z.Z_TT.item() + z.Z_G[0, 0].item())
    inner = z.Z_SS.item() + sos + loads.z_diagonal[0]
    want = z_rl * (rot - ros * sot / inner) * z_tg

    got = end_to_end_channel(f, loads)
    assert_allclose(got.item(), want, rtol=1e-12)


def test_loads_validation():
    with pytest.raises(ValueError):
        RisLoads(-0.1, np.zeros(2) - 100.0, Q_TABLE)
    with pytest.raises(ValueError):
        RisLoads(0.2, np.array([-400.0, -100.0]), Q_TABLE)
    with pytest.raises(ValueError):
        RisLoads(0.2, np.array([-100.0, 0.0]), Q_TABLE)
    with pytest.raises(ValueError):
        RisLoads(0.2, np.array([-100.0]), (-1.0, -2.0))
    with pytest.raises(ValueError, match="no RIS cell"):
        RisLoads(0.2, np.zeros(0), Q_TABLE)
    loads = RisLoads(0.2, [-100.0, -50.0], Q_TABLE)
    assert loads.n == 2
    assert_allclose(loads.z_diagonal, np.array([0.2 - 100j, 0.2 - 50j]))
    assert np.all(np.diag(loads.z_diagonal).real == np.where(np.eye(2, dtype=bool), 0.2, 0.0))


@pytest.mark.parametrize(
    "r0, x",
    [(np.nan, [-100.0]), (np.inf, [-100.0]), (0.2, [-100.0, np.nan])],
    ids=["nan-r0", "inf-r0", "nan-x"],
)
def test_loads_reject_non_finite_values(r0, x):
    with pytest.raises(ValueError, match="finite"):
        RisLoads(r0, np.array(x), Q_TABLE)


def test_loads_size_mismatch_rejected():
    rng = np.random.default_rng(11)
    z = random_impedance_set(rng)
    f = fold_esos(z)
    with pytest.raises(ValueError):
        end_to_end_channel(f, random_loads(rng, z.n_ris + 1))


def test_singular_eso_block_raises():
    rng = np.random.default_rng(12)
    z = random_impedance_set(rng)
    z.Z_EE[: z.n_eso, : z.n_eso] = 0.0
    with pytest.raises(SingularBlockError) as err:
        fold_esos(z)
    assert "cond" in str(err.value) or "singular" in str(err.value).lower()


def test_singular_scatter_matrix_raises():
    rng = np.random.default_rng(13)
    z = random_impedance_set(rng)
    f = fold_esos(z)
    loads = random_loads(rng, z.n_ris)
    # Cancel the first row of the load-dependent inner matrix down to
    # round-off, leaving it numerically rank deficient.
    block = f.Z_SS.copy()
    block[0, :] = -(f.Z_SOS[0, :] + np.diag(loads.z_diagonal)[0, :])
    f = dataclasses.replace(f, Z_SS=block)
    residual = np.abs((f.A + np.diag(loads.z_diagonal))[0]).max()
    assert residual < 1e-10 * np.abs(f.Z_SS).max()
    with pytest.raises(SingularBlockError):
        end_to_end_channel(f, loads)


def test_folding_does_not_mutate_input():
    rng = np.random.default_rng(14)
    z = random_impedance_set(rng)
    before = z.full_matrix().copy()
    f = fold_esos(z)
    loads = random_loads(rng, z.n_ris)
    end_to_end_channel(f, loads)
    end_to_end_channel(interaction_free(f, z), loads)
    assert np.array_equal(z.full_matrix(), before)


@pytest.mark.parametrize("model", ["full", "interaction_free"])
def test_in_place_factors_match_lu_factor(model):
    rng = np.random.default_rng(15)
    z = random_impedance_set(rng, n_ris=9)
    f = fold_esos(z)
    if model == "interaction_free":
        f = interaction_free(f, z)
    loads = random_loads(rng, z.n_ris)
    lu, piv = LoadEvaluation(f, loads)._lu
    want_lu, want_piv = scipy.linalg.lu_factor(f.A + np.diag(loads.z_diagonal))
    assert np.array_equal(lu, want_lu)
    assert np.array_equal(piv, want_piv)


def test_evaluation_and_optimizers_leave_blocks_untouched():
    # The scatter matrix is factored in place; it must be a fresh buffer every
    # time, never the stored blocks or the once-per-channel A, v and B.
    z, f = folded_scenario(tiny_config())
    before = (
        z.full_matrix().copy(), f.Z_SS.copy(), f.Z_SOS.copy(), f.A.copy(), f.v.copy(), f.B.copy()
    )
    loads = RisLoads(0.2, np.full(f.n_ris, -150.0), Q_TABLE)
    LoadEvaluation(f, loads)
    opt = OptimizerConfig(epsilon=1e-10, max_iter=10)
    saris_optimize(f, opt)
    mismatched_optimize(f, z, opt)
    after = (z.full_matrix(), f.Z_SS, f.Z_SOS, f.A, f.v, f.B)
    for want, got in zip(before, after):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("model", ["full", "interaction_free"])
def test_channel_factors_cannot_go_stale(model):
    z, f = folded_scenario(tiny_config())
    if model == "interaction_free":
        f = interaction_free(f, z)
        # The zero coupling block is a view with no buffer behind it.
        assert f.Z_SOS.strides == (0, 0)
        assert not f.Z_SOS.any()
    # Z_SS is a view of the port matrix, not a copy.
    assert np.shares_memory(f.Z_SS, z.Z)
    assert np.array_equal(f.v, f.Z_RL @ f.Z_ROS)
    assert np.array_equal(f.B, f.Z_SOT @ f.Z_TG)
    assert f.A.tobytes() == (f.Z_SS + f.Z_SOS).tobytes()
    assert f.A.flags.f_contiguous
    off = np.abs(f.A - np.diag(np.diag(f.A)))
    assert_allclose(f.A_off, off.sum(axis=0), rtol=1e-15, atol=0)
    # Neither the cached values nor their source blocks can be written or
    # rebound.
    for name in ("v", "B", "A", "A_off", "Z_RL", "Z_ROS", "Z_SOT", "Z_TG", "Z_SS", "Z_SOS"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(f, name)[...] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, getattr(f, name).copy())


def test_replaced_block_recomputes_cached_inner_block():
    rng = np.random.default_rng(16)
    f = fold_esos(random_impedance_set(rng))
    block = rng.standard_normal((f.n_ris, f.n_ris)) + 1j * rng.standard_normal((f.n_ris, f.n_ris))
    g = dataclasses.replace(f, Z_SS=block)
    assert g.A.tobytes() == (block + f.Z_SOS).tobytes()
    assert_allclose(g.A_off, np.abs(g.A - np.diag(np.diag(g.A))).sum(axis=0), rtol=1e-15)
    assert f.A.tobytes() == (f.Z_SS + f.Z_SOS).tobytes()


def test_condition_estimate_gets_the_exact_one_norm(monkeypatch):
    # Every guarded LU hands gecon the 1-norm of the matrix getrf factors,
    # taken from off-diagonal column sums and the diagonal: the fold's three
    # from sums over its own copy, each evaluation from the folded A_off. It
    # must match the norm of the full matrix.
    rng = np.random.default_rng(17)
    configs = [ScenarioConfig(), dataclasses.replace(ScenarioConfig(), N=256, N_c=1, N_O=20)]
    sets = [
        random_impedance_set(rng, n_eso=int(rng.integers(0, 13)), n_ris=int(rng.integers(1, 9)))
        for _ in range(20)
    ]
    names, norms, anorms = [], [], []
    guarded, getrf, gecon = channel._guarded_lu, channel._getrf, channel._gecon

    def guarded_spy(a, d, name, a_off=None):
        names.append(name)
        return guarded(a, d, name, a_off)

    def getrf_spy(a, overwrite):
        norms.append(np.linalg.norm(a, 1))
        return getrf(a, overwrite)

    def gecon_spy(lu, anorm, norm):
        anorms.append(anorm)
        return gecon(lu, anorm, norm)

    monkeypatch.setattr(channel, "_guarded_lu", guarded_spy)
    monkeypatch.setattr(channel, "_getrf", getrf_spy)
    monkeypatch.setattr(channel, "_gecon", gecon_spy)
    folded = [folded_scenario(config)[1] for config in configs]
    for z in sets:
        folded += [fold_esos(z), interaction_free(fold_esos(z), z)]
    # A block large enough to make the LU pivot.
    f = fold_esos(random_impedance_set(rng, n_ris=12))
    folded.append(
        dataclasses.replace(
            f, Z_SS=1e3 * (rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
        )
    )
    for f in folded:
        for _ in range(3):
            LoadEvaluation(f, random_loads(rng, f.n_ris))
    assert set(names) == {"Z_OO + Z_US", "I + Z_RR Z_L^-1", "Z_TT + Z_G", "Z_SS + Z_SOS + Z_RIS"}
    folds = len(configs) + 2 * len(sets) + 1
    assert names.count("Z_TT + Z_G") == names.count("I + Z_RR Z_L^-1") == folds
    assert names.count("Z_SS + Z_SOS + Z_RIS") == 3 * len(folded)
    assert len(norms) == len(anorms) == len(names)
    for name, got, want in zip(names, anorms, norms):
        assert abs(got - want) <= 1e-14 * want, name


def test_guarded_lu_leaves_its_argument_unwritten():
    # The factored matrix is _guarded_lu's own copy, whatever the layout of
    # `a` and whether or not the caller passes its off-diagonal sums.
    rng = np.random.default_rng(20)
    n = 40
    d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for order in ("C", "F"):
        a = np.asarray(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), order=order)
        a += 10.0 * n * np.eye(n)
        before = a.copy()
        for a_off in (None, channel._off_diagonal_sums(a)):
            factors = channel._guarded_lu(a, d, "a", a_off)
            assert np.array_equal(a, before)
            assert not np.shares_memory(factors[0], a)
            inverse = channel._lu_solve(factors, np.eye(n, dtype=complex))
            assert_allclose(inverse, np.linalg.inv(a + np.diag(d)), rtol=1e-12)


def test_front_end_memory_is_bounded_by_the_port_matrix():
    # Assembly plus fold of K = 1622 ports. Assembly streams its pairs into
    # the K x K port matrix in chunks, holding no pair array, so it peaks
    # just above that one matrix; the fold adds the one Fortran copy of
    # Z_OO + Z_US that getrf factors in place.
    config = ScenarioConfig(seed=1234, N_c=8, N_O=200)
    tracemalloc.start()
    try:
        dipoles = generate(config, 0)
        z = assemble_impedances(
            dipoles, config.wavelength, z_g=config.Z_G, z_l=config.Z_L, z_us=config.Z_US
        )
        assembly = tracemalloc.get_traced_memory()[1]
        fold_esos(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = len(z.full_matrix())
    assert k == 1622
    unit = 16 * k**2
    assert assembly < 1.4 * unit, f"assembly peak {assembly / unit:.2f} x 16 K^2 bytes"
    assert peak < 2.3 * unit, f"traced peak {peak / unit:.2f} x 16 K^2 bytes"


def test_back_end_memory_holds_only_the_blocks_its_stages_read():
    # One realization of an N = 576 surface. The fold keeps Z_SS as a view of
    # z.Z and forms Z_SOS in one buffer; the interaction-free model's Z_SOS
    # has no buffer; each arm's LU factors, and each random draw's, are freed
    # before the next are made. Units are one complex N x N block.
    config = dataclasses.replace(ScenarioConfig(seed=1234), N=576, N_c=1, N_O=20)
    opt_config = OptimizerConfig(
        power=config.P,
        sigma_n2=config.sigma_n2,
        epsilon=1e-9,
        max_iter=3,
        q_interval=config.Q_interval,
        r0=config.R0,
    )
    # A small realization first, so that first-call imports and caches are
    # not counted.
    _run_trial((dataclasses.replace(config, N=16), opt_config, 0, ALGOS, 3))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _run_trial((config, opt_config, 0, ALGOS, 3))
        trial_peak = tracemalloc.get_traced_memory()[1] - base
        dipoles = generate(config, 0)
        z = assemble_impedances(
            dipoles, config.wavelength, z_g=config.Z_G, z_l=config.Z_L, z_us=config.Z_US
        )
        tracemalloc.reset_peak()
        assembled = tracemalloc.get_traced_memory()[0]
        fold_esos(z)
        fold_peak = tracemalloc.get_traced_memory()[1] - assembled
    finally:
        tracemalloc.stop()
    unit = 16 * config.N**2
    assert trial_peak <= 7.0 * unit, f"realization peak {trial_peak / unit:.2f} x 16 N^2 bytes"
    assert fold_peak <= 2.8 * unit, f"fold peak {fold_peak / unit:.2f} x 16 N^2 bytes"


@pytest.mark.parametrize("order", ["C", "F"])
def test_off_diagonal_sums_match_numpy(order):
    rng = np.random.default_rng(18)
    n = 2 * channel._NORM_COLUMNS + 37
    a = np.asarray(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), order=order)
    off = np.abs(a)
    np.fill_diagonal(off, 0.0)
    assert channel._off_diagonal_sums(a).tobytes() == off.sum(axis=0).tobytes()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_non_finite_entry_in_a_late_column_block_raises(order, value):
    # The largest column sum sits in the first block, so a NaN that a
    # combining step dropped would leave a finite norm.
    rng = np.random.default_rng(19)
    n = 2 * channel._NORM_COLUMNS + 5
    a = np.asarray(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), order=order)
    a += 10.0 * n * np.eye(n)
    a[:, 0] *= 1e3
    # Off the diagonal the value enters through the column sums, on it
    # through |s_jj|, whether it sits in `a` or in the added diagonal.
    for row, in_d in ((n // 2, False), (n - 2, False), (n - 2, True)):
        b, d = a.copy(order=order), np.zeros(n)
        if in_d:
            d[-2] = value
        else:
            b[row, -2] = value
        with pytest.raises(SingularBlockError) as err:
            channel._guarded_lu(b, d, "late")
        assert err.value.block == "late"
        assert err.value.cond == np.inf
