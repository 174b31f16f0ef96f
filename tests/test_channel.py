"""Folding the scatterer ports and evaluating the load-dependent channel."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from saris.channel import (
    FoldedChannel,
    LoadEvaluation,
    RisLoads,
    SingularBlockError,
    end_to_end_channel,
    fold_esos,
    interaction_free,
    mismatched_channel,
    scatter_matrix,
)
from saris.optimize import OptimizerConfig, mismatched_optimize, saris_optimize

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
    h_free = mismatched_channel(f, z, loads)
    assert np.array_equal(h_full, h_free)


def test_interaction_free_shares_direct_path():
    rng = np.random.default_rng(7)
    z = random_impedance_set(rng)
    f = fold_esos(z)
    g = interaction_free(f, z)
    assert g.Z_ROT is f.Z_ROT
    assert g.H_d is f.H_d
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
        end_to_end_channel(f, loads), mismatched_channel(f, z, loads)
    )


def test_no_ris_cells_reduces_to_direct_term():
    rng = np.random.default_rng(9)
    z = random_impedance_set(rng, n_ris=0)
    f = fold_esos(z)
    loads = RisLoads(0.2, np.empty(0), Q_TABLE)
    assert np.array_equal(end_to_end_channel(f, loads), f.H_d)


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
    loads = RisLoads(0.2, [-100.0, -50.0], Q_TABLE)
    assert loads.n == 2
    assert_allclose(loads.z_diagonal, np.array([0.2 - 100j, 0.2 - 50j]))
    assert np.array_equal(loads.matrix(), np.diag(loads.z_diagonal))
    assert np.all(loads.matrix().real == np.where(np.eye(2, dtype=bool), 0.2, 0.0))


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
    f.Z_SS[0, :] = -(f.Z_SOS[0, :] + loads.matrix()[0, :])
    residual = np.abs(scatter_matrix(f, loads)[0]).max()
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
    mismatched_channel(f, z, loads)
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
    want_lu, want_piv = scipy.linalg.lu_factor(scatter_matrix(f, loads))
    assert np.array_equal(lu, want_lu)
    assert np.array_equal(piv, want_piv)


def test_evaluation_and_optimizers_leave_blocks_untouched():
    # The scatter matrix is factored in place; it must be a fresh buffer every
    # time, never the stored blocks.
    z, f = folded_scenario(tiny_config())
    before = (z.full_matrix().copy(), f.Z_SS.copy(), f.Z_SOS.copy())
    loads = RisLoads(0.2, np.full(f.n_ris, -150.0), Q_TABLE)
    LoadEvaluation(f, loads)
    opt = OptimizerConfig(epsilon=1e-10, max_iter=10)
    saris_optimize(f, opt)
    mismatched_optimize(f, z, opt)
    after = (z.full_matrix(), f.Z_SS, f.Z_SOS)
    for want, got in zip(before, after):
        assert np.array_equal(got, want)
