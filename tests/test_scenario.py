"""Deployment generation, config parsing, and round-tripping."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saris.dipoles import GeometryError, Role
from saris.scenario import (
    MIN_SEPARATION_RADII,
    ConfigError,
    ScenarioConfig,
    default_ue_position,
    generate,
    parse_config,
    resize_users,
    serialize_config,
    substream,
)

from _helpers import generate_one_pair_at_a_time, tiny_config


def by_role(dipoles, role):
    return [d for d in dipoles if d.role == role]


def positions(dipoles):
    return np.array([d.position for d in dipoles])


def test_reference_deployment_counts():
    config = ScenarioConfig()
    dipoles = generate(config, 0)
    assert len(by_role(dipoles, Role.TRANSMITTER)) == 4
    assert len(by_role(dipoles, Role.RECEIVER)) == 2
    assert len(by_role(dipoles, Role.ESO)) == 200
    assert len(by_role(dipoles, Role.RIS_CELL)) == 16
    for d in dipoles:
        assert d.length == 0.5 * config.wavelength
        assert d.wire_radius == config.wire_radius
        assert d.wire_radius == pytest.approx(config.wavelength / 500)
        assert d.position[2] == 0.0


def test_generation_is_deterministic():
    config = tiny_config()
    a = positions(generate(config, 3))
    b = positions(generate(config, 3))
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "config, digest",
    [
        (ScenarioConfig(), "f1725b893e474b630f979296edc7fc55e8a6bb1ca839c93cbadab6d60d6eda37"),
        (ScenarioConfig(N_c=8, N_O=100),
         "09981cea762907ff537f2b8b02c250174bc2cffd58efed6336951011e21e71cf"),
    ],
    ids=["desk", "clutter"],
)
def test_generated_positions_are_pinned(config, digest):
    # sha256 of realizations 0-2's positions as little-endian float64; a
    # change to the placement code must leave every deployment bit-identical.
    sha = hashlib.sha256()
    for index in range(3):
        sha.update(positions(generate(config, index)).astype("<f8").tobytes())
    assert sha.hexdigest() == digest


def test_realizations_and_seeds_differ():
    config = tiny_config()
    base = positions(by_role(generate(config, 0), Role.ESO))
    other = positions(by_role(generate(config, 1), Role.ESO))
    reseeded = positions(
        by_role(generate(tiny_config(seed=1), 0), Role.ESO)
    )
    assert not np.array_equal(base, other)
    assert not np.array_equal(base, reseeded)


def test_fixed_infrastructure_does_not_depend_on_realization():
    config = tiny_config()
    for role in (Role.TRANSMITTER, Role.RECEIVER, Role.RIS_CELL):
        a = positions(by_role(generate(config, 0), role))
        b = positions(by_role(generate(config, 5), role))
        assert np.array_equal(a, b)


def test_ris_grid_layout():
    config = tiny_config(N=9, d=0.015)
    cells = positions(by_role(generate(config, 0), Role.RIS_CELL))
    assert cells.shape == (9, 3)
    xs = np.unique(cells[:, 0])
    ys = np.unique(cells[:, 1])
    assert len(xs) == 3 and len(ys) == 3
    assert np.allclose(np.diff(xs), 0.015)
    assert np.allclose(np.diff(ys), 0.015)
    assert np.isclose(xs.mean(), config.p_RIS[0])
    assert np.isclose(ys.mean(), config.p_RIS[1])


def test_transmit_array_is_centered_half_wavelength_ula():
    config = tiny_config(M=5)
    bs = positions(by_role(generate(config, 0), Role.TRANSMITTER))
    assert np.allclose(bs[:, 1], config.p_BS[1])
    assert np.allclose(np.diff(bs[:, 0]), 0.5 * config.wavelength)
    assert np.isclose(bs[:, 0].mean(), config.p_BS[0])


def test_receivers_at_configured_positions():
    config = tiny_config(L=3)
    rx = positions(by_role(generate(config, 0), Role.RECEIVER))
    assert np.allclose(rx[:, :2], np.array(config.p_UE))


def test_scatterers_confined_to_half_disk():
    config = ScenarioConfig()
    eso = positions(by_role(generate(config, 0), Role.ESO))
    dist = np.hypot(eso[:, 0] - config.p_RIS[0], eso[:, 1] - config.p_RIS[1])
    assert np.all(dist <= config.R + config.r + 1e-12)
    # Receivers sit below the RIS, so clusters stay on the lower half-plane.
    assert np.all(eso[:, 1] <= config.p_RIS[1] + config.r + 1e-12)


def test_half_plane_flips_when_receivers_sit_above():
    config = tiny_config(p_RIS=(0.0, 1.0))
    eso = positions(by_role(generate(config, 0), Role.ESO))
    assert np.all(eso[:, 1] >= 1.0 - config.r - 1e-12)


def test_scatterers_keep_clear_of_terminals():
    config = ScenarioConfig()
    dipoles = generate(config, 0)
    eso = positions(by_role(dipoles, Role.ESO))
    terminals = positions(
        by_role(dipoles, Role.TRANSMITTER) + by_role(dipoles, Role.RECEIVER)
    )
    gaps = np.hypot(
        eso[:, None, 0] - terminals[None, :, 0], eso[:, None, 1] - terminals[None, :, 1]
    )
    assert gaps.min() >= config.wavelength / 10 - 1e-12


def test_pairwise_minimum_separation():
    config = ScenarioConfig()
    p = positions(generate(config, 0))[:, :2]
    deltas = p[:, None, :] - p[None, :, :]
    dist = np.hypot(deltas[..., 0], deltas[..., 1])
    np.fill_diagonal(dist, np.inf)
    assert dist.min() >= MIN_SEPARATION_RADII * config.wire_radius


def test_cluster_radius_is_area_uniform():
    # Many single-member clusters with a vanishing member disk expose the
    # center distribution directly: P(dist <= s) should follow (s/R)^2.
    config = tiny_config(N_c=100, N_O=1, r=1e-6)
    samples = []
    for real in range(100):
        eso = positions(by_role(generate(config, real), Role.ESO))
        samples.append(np.hypot(eso[:, 0] - config.p_RIS[0], eso[:, 1] - config.p_RIS[1]))
    s = np.sort(np.concatenate(samples))
    n = len(s)
    assert n == 10000
    cdf = (s / config.R) ** 2
    d_plus = np.max(np.arange(1, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0, n) / n)
    assert max(d_plus, d_minus) < 0.02
    # Both angular extremes of the half-disk get visited.
    all_x = np.concatenate(
        [positions(by_role(generate(config, k), Role.ESO))[:, 0] for k in range(3)]
    )
    assert (all_x < config.p_RIS[0]).any() and (all_x > config.p_RIS[0]).any()


def dipole_bytes(dipoles):
    """Every field of every dipole, positions as raw float64 bytes."""
    return (
        positions(dipoles).tobytes(),
        [(d.length, d.wire_radius, d.role) for d in dipoles],
    )


@pytest.mark.parametrize(
    "overrides",
    [dict(N_c=2, N_O=400, r=0.02), dict(N_c=4, N_O=50, r=0.006), dict(N_c=1, N_O=120, r=0.004)],
    ids=["dense", "tight", "crowded"],
)
def test_batched_members_match_one_pair_at_a_time(overrides):
    # generate draws the missing members of a cluster in batches; each of
    # 20 (seed, realization) pairs must give the dipoles, bit for bit, of
    # drawing and testing one pair at a time. The configs are dense enough
    # that members are redrawn, so the batches after a rejection are tested.
    redraws = 0
    for seed in range(5):
        config = ScenarioConfig(seed=seed, **overrides)
        for realization in range(4):
            want, redrawn = generate_one_pair_at_a_time(config, realization)
            assert dipole_bytes(generate(config, realization)) == dipole_bytes(want)
            redraws += redrawn
    assert redraws > 0


@pytest.mark.parametrize(
    "config",
    [tiny_config(N_c=1, N_O=400, r=0.002), tiny_config(N_c=3, N_O=1500, r=0.004)],
    ids=["redraws_carried_across_batches", "redraws_within_one_batch"],
)
def test_batched_members_fail_where_one_pair_at_a_time_fails(config):
    # The failing member's redraws span several batches of about 360 pairs
    # in the first config; the second draws batches of more than 1001 pairs.
    with pytest.raises(GeometryError) as want:
        generate_one_pair_at_a_time(config, 0)
    with pytest.raises(GeometryError) as got:
        generate(config, 0)
    assert str(got.value) == str(want.value)


def test_crowded_disk_fails_loudly():
    # More members than the disk can hold at the minimum spacing.
    config = tiny_config(N_c=1, N_O=400, r=0.002)
    with pytest.raises(GeometryError):
        generate(config, 0)


def test_negative_realization_rejected():
    with pytest.raises(ValueError):
        generate(tiny_config(), -1)


def test_substream_is_stable_and_keyed():
    a = substream(7, 1, 2).standard_normal(4)
    b = substream(7, 1, 2).standard_normal(4)
    c = substream(7, 2, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(N=15)  # not a perfect square
    with pytest.raises(ValueError):
        ScenarioConfig(M=0)
    with pytest.raises(ValueError):
        ScenarioConfig(R=-1.0)
    with pytest.raises(ValueError):
        ScenarioConfig(R0=-0.5)
    with pytest.raises(ValueError):
        ScenarioConfig(Q_interval=(-10.0, -20.0))
    with pytest.raises(ValueError):
        ScenarioConfig(L=2, p_UE=((1.0, 1.0),))
    with pytest.raises(ValueError):
        ScenarioConfig(seed=-1)
    # The config text spells integers only, so bool is not one.
    for field, value in (("trials", True), ("seed", False), ("N", True)):
        with pytest.raises(ValueError, match=f"{field} must be"):
            ScenarioConfig(**{field: value})
    for field, value in (("R0", np.nan), ("Z_G", np.inf), ("p_RIS", (0.0, np.nan))):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ScenarioConfig(**{field: value})


def test_default_ue_positions_extend_along_x():
    lam = 0.06
    assert default_ue_position(0, lam) == (16 * lam, 24 * lam)
    assert default_ue_position(1, lam) == (20 * lam, 24 * lam)
    assert default_ue_position(2, lam) == (24 * lam, 24 * lam)


def test_resize_users_keeps_existing_and_extends():
    config = ScenarioConfig()
    bigger = resize_users(config, 4)
    assert bigger.L == 4
    assert bigger.p_UE[:2] == config.p_UE
    assert bigger.p_UE[2] == default_ue_position(2, config.wavelength)
    smaller = resize_users(bigger, 1)
    assert smaller.p_UE == (config.p_UE[0],)


@pytest.mark.parametrize("l_users", [1, 2, 3, 4])
@pytest.mark.parametrize("wavelength", [0.05, 0.06, 0.07, 0.1])
def test_resize_users_places_receivers_as_a_config_file(wavelength, l_users):
    # saris sweep --sweep L resizes a parsed config; each point must be the
    # deployment a config file with that L describes.
    config = parse_config(f"wavelength = {wavelength}\nL = 1")
    expected = parse_config(f"wavelength = {wavelength}\nL = {l_users}")
    assert resize_users(config, l_users) == expected


def test_serialize_round_trips_exactly():
    for config in (
        ScenarioConfig(),
        tiny_config(L=3, seed=11, d=0.0123456789, sigma_n2=3.5e-10),
        ScenarioConfig(wavelength=0.125, Q_interval=(-40.0, 10.0), trials=7),
    ):
        assert parse_config(serialize_config(config)) == config


def finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


@st.composite
def scenario_configs(draw):
    positive = finite(min_value=0.0, exclude_min=True)
    point = st.tuples(finite(), finite())
    l_users = draw(st.integers(1, 4))
    lo, hi = draw(st.lists(finite(), min_size=2, max_size=2, unique=True).map(sorted))
    return ScenarioConfig(
        wavelength=draw(positive),
        M=draw(st.integers(1, 64)),
        L=l_users,
        N=draw(st.integers(1, 32)) ** 2,
        N_c=draw(st.integers(1, 16)),
        N_O=draw(st.integers(1, 200)),
        d=draw(positive),
        R=draw(positive),
        r=draw(positive),
        p_BS=draw(point),
        p_RIS=draw(point),
        p_UE=tuple(draw(point) for _ in range(l_users)),
        R0=draw(finite(min_value=0.0)),
        Q_interval=(lo, hi),
        Z_G=draw(finite()),
        Z_L=draw(finite()),
        Z_US=draw(finite()),
        P=draw(positive),
        sigma_n2=draw(positive),
        seed=draw(st.integers(0, 2**64 - 1)),
        trials=draw(st.integers(1, 1000)),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(config=scenario_configs())
def test_serialize_round_trips_generated_configs(config):
    assert parse_config(serialize_config(config)) == config


def test_parse_defaults_and_comments():
    text = """
    # reference deployment, overriding nothing but the seed
    seed = 3   # trailing comment

    trials = 2
    """
    config = parse_config(text)
    assert config == ScenarioConfig(seed=3, trials=2)


def test_parse_wavelength_suffix_on_lengths():
    config = parse_config("d = 0.25 lambda\nR = 40λ\nr = 1 λ")
    assert config.d == pytest.approx(0.25 * 0.06)
    assert config.R == pytest.approx(40 * 0.06)
    assert config.r == pytest.approx(0.06)
    vec = parse_config("p_RIS = [0, 40] lambda\np_UE1 = [16, 24]λ")
    assert vec.p_RIS == (0.0, 40 * 0.06)
    assert vec.p_UE[0] == (16 * 0.06, 24 * 0.06)


def test_parse_rescales_defaults_with_wavelength():
    config = parse_config("wavelength = 0.12")
    ref = ScenarioConfig()
    assert config.d == pytest.approx(2 * ref.d)
    assert config.R == pytest.approx(2 * ref.R)
    assert config.p_RIS[1] == pytest.approx(2 * ref.p_RIS[1])
    assert config.p_UE[0][0] == pytest.approx(2 * ref.p_UE[0][0])
    # Electrical quantities stay put.
    assert config.Q_interval == ref.Q_interval
    assert config.Z_G == ref.Z_G


def test_parse_fills_users_beyond_defaults():
    config = parse_config("L = 3")
    assert config.p_UE[2] == default_ue_position(2, config.wavelength)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("bogus = 1", "unknown key"),
        ("M = 2\nM = 3", "duplicate"),
        ("M 2", "key = value"),
        ("M = abc", "integer"),
        ("N = 1_6", "integer"),
        ("wavelength = 0.06 λ", "not a length"),
        ("Q_interval = [-10, -5] lambda", "not a length"),
        ("p_BS = 4", "2-vector"),
        ("d = [1, 2]", "number"),
        ("p_UE3 = [1, 1]", "L = 2"),
        ("N = 15", "line 1"),
        ("M = -2", "line 1"),
    ],
)
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)
    assert "line" in str(err.value)


def test_parse_error_line_numbers_are_accurate():
    with pytest.raises(ConfigError) as err:
        parse_config("M = 2\n# fine\nR = -3\n")
    assert "line 3" in str(err.value)
