"""Element-level impedance computation and deployment assembly."""

import dataclasses

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import saris.dipoles
from saris.dipoles import (
    _PAIRS_PER_CALL,
    ETA0,
    Dipole,
    GeometryError,
    Role,
    assemble_impedances,
    mutual_impedance,
)
from saris.scenario import ScenarioConfig, generate

from _helpers import carter_half_wave_impedance, pair_for_oracle, quad_mutual_impedance

LAM = 0.06
HALF_WAVE = LAM / 2
RADIUS = LAM / 500

# Frozen adaptive-quadrature values for half-wave dipoles at 6 cm wavelength
# (wire radius lam/500 for the self term).
SELF_HALF_WAVE = 73.0766432396085 + 41.762414147660415j
BROADSIDE = {
    0.25: 40.75750404753272 - 28.329440056277974j,
    0.5: -12.523407452487989 - 29.907935934661545j,
    1.0: 4.008855692516058 + 17.729755291014104j,
}
STAGGERED = 14.71921949637562 - 3.4559632386296553j


def dip(x=0.0, y=0.0, z=0.0, length=HALF_WAVE, radius=RADIUS, role=Role.ESO):
    return Dipole((x, y, z), length, radius, role)


def test_self_impedance_matches_frozen_oracle():
    z = mutual_impedance(dip(), dip(), LAM)
    assert_allclose(z, SELF_HALF_WAVE, rtol=1e-12)


def test_self_resistance_near_classical_value():
    z = mutual_impedance(dip(), dip(), LAM)
    assert abs(z.real - 73.08) / 73.08 < 0.01


def test_self_resistance_insensitive_to_wire_radius():
    for radius in (LAM / 2000, LAM / 200):
        z = mutual_impedance(dip(radius=radius), dip(radius=radius), LAM)
        assert abs(z.real - 73.08) / 73.08 < 0.01


@pytest.mark.parametrize("spacing", sorted(BROADSIDE))
def test_broadside_coupling_matches_frozen_oracle(spacing):
    z = mutual_impedance(dip(), dip(x=spacing * LAM), LAM)
    assert_allclose(z, BROADSIDE[spacing], rtol=1e-12)


def test_staggered_unequal_lengths_match_frozen_oracle():
    a = dip(length=0.4 * LAM)
    b = dip(x=0.22 * LAM, z=0.31 * LAM, length=0.36 * LAM)
    assert_allclose(mutual_impedance(a, b, LAM), STAGGERED, rtol=1e-12)


@pytest.mark.parametrize("spacing", [RADIUS / LAM, 0.01, 0.1, 0.25, 0.5, 1.0, 2.7, 7.3, 10.0])
def test_side_by_side_half_waves_match_carter_closed_form(spacing):
    # At the wire radius the pair is a self term.
    b = dip() if spacing == RADIUS / LAM else dip(x=spacing * LAM)
    expected = carter_half_wave_impedance(spacing * LAM, LAM)
    assert_allclose(mutual_impedance(dip(), b, LAM), expected, rtol=1e-12)


def test_half_wave_geometry_weights_three_arguments():
    # Side by side at equal half-wave lengths, only k rho and k(R -+ L)
    # carry weight, and only in the real coefficients of Cin + jSi.
    offsets, coefs = saris.dipoles._geometry_table(
        np.array([0.0]), np.array([LAM / 4]), np.array([LAM / 4]), LAM
    )
    assert offsets.tolist() == [[HALF_WAVE]]
    a_re, a_im, b_im = coefs
    assert a_re.shape == (3, 1)
    assert np.all(a_re != 0)
    assert not a_im.any() and not b_im.any()


def test_desk_assembly_evaluates_three_sine_cosine_integrals_per_pair(monkeypatch):
    arguments = []
    sici = scipy.special.sici

    def counting(x):
        arguments.append(np.size(x))
        return sici(x)

    monkeypatch.setattr(scipy.special, "sici", counting)
    config = ScenarioConfig()
    dipoles = generate(config, 0)
    assemble_impedances(dipoles, config.wavelength)
    assert sum(arguments) == 3 * len(dipoles) * (len(dipoles) + 1) // 2


def test_wavelength_scale_invariance():
    a1, b1 = dip(), dip(x=0.37 * LAM, z=0.2 * LAM)
    scale = 1.0 / LAM
    a2 = dip(length=0.5, radius=1 / 500)
    b2 = dip(x=0.37, z=0.2, length=0.5, radius=1 / 500)
    assert_allclose(
        mutual_impedance(a1, b1, LAM), mutual_impedance(a2, b2, 1.0), rtol=1e-12
    )
    assert scale * LAM == 1.0


def test_random_geometries_against_live_oracle():
    rng = np.random.default_rng(7)
    for _ in range(6):
        rho = rng.uniform(0.05, 3.0) * LAM
        dz = rng.uniform(-0.8, 0.8) * LAM
        la, lb = rng.uniform(0.3, 0.48, size=2) * LAM
        a = dip(length=la)
        b = dip(x=rho, z=dz, length=lb)
        expected = quad_mutual_impedance(*pair_for_oracle(a, b), LAM)
        assert_allclose(mutual_impedance(a, b, LAM), expected, rtol=1e-12)


def test_reciprocity_is_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = dip(length=rng.uniform(0.3, 0.48) * LAM)
        b = dip(
            x=rng.uniform(0.05, 2.0) * LAM,
            y=rng.uniform(-1.0, 1.0) * LAM,
            z=rng.uniform(-0.5, 0.5) * LAM,
            length=rng.uniform(0.3, 0.48) * LAM,
        )
        assert mutual_impedance(a, b, LAM) == mutual_impedance(b, a, LAM)


@pytest.mark.parametrize(
    "a, b",
    [
        (dip(), dip(x=0.03 * LAM)),
        (dip(), dip(x=0.5 * LAM, z=0.3 * LAM)),
        (dip(length=0.31 * LAM), dip(x=5 * LAM, length=0.47 * LAM)),
        (dip(), dip()),
        # Collinear (rho = 0): separated, and with touching tips.
        (dip(length=0.4 * LAM), dip(z=0.7 * LAM, length=0.45 * LAM)),
        (dip(), dip(z=LAM / 2)),
    ],
    ids=["near", "staggered", "far", "self", "collinear", "tips-touching"],
)
def test_kernel_matches_live_oracle(a, b):
    expected = quad_mutual_impedance(*pair_for_oracle(a, b), LAM)
    assert_allclose(mutual_impedance(a, b, LAM), expected, rtol=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    la=st.floats(0.3, 0.48),
    lb=st.floats(0.3, 0.48),
    rho=st.floats(0.0, 3.0),
    dz=st.floats(-0.8, 0.8),
)
# rho^2 underflows to 0 here although rho > 0.
@example(la=0.375, lb=0.375, rho=6.976699731693252e-198, dz=0.5)
# Tips touching beside a separation far below the length.
@example(la=0.375, lb=0.375, rho=1e-06, dz=0.375)
def test_random_parallel_pairs_match_oracle_and_are_reciprocal(la, lb, rho, dz):
    a = dip(length=la * LAM)
    b = dip(x=rho * LAM, z=dz * LAM, length=lb * LAM)
    try:
        z = mutual_impedance(a, b, LAM)
    except GeometryError:
        assume(False)
    expected = quad_mutual_impedance(*pair_for_oracle(a, b), LAM)
    assert_allclose(z, expected, rtol=1e-11)
    assert mutual_impedance(b, a, LAM) == z


def test_coupling_decays_with_distance():
    mags = [
        abs(mutual_impedance(dip(), dip(x=s * LAM), LAM)) for s in (1, 2, 4, 8, 16, 32)
    ]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    # Far field falls roughly like 1/distance.
    assert mags[-1] < mags[0] / 10


def test_free_space_impedance_constant():
    assert ETA0 == pytest.approx(376.7303, abs=1e-3)


def test_dipole_validation():
    with pytest.raises(ValueError):
        Dipole((0, 0, 0), -HALF_WAVE, RADIUS, Role.ESO)
    with pytest.raises(ValueError):
        Dipole((0, 0, 0), HALF_WAVE, -RADIUS, Role.ESO)
    with pytest.raises(ValueError):
        # Thin-wire assumption: radius must stay far below the length.
        Dipole((0, 0, 0), HALF_WAVE, HALF_WAVE / 5, Role.ESO)
    with pytest.raises(ValueError, match="position must have three components"):
        Dipole((0.0, 0.0), HALF_WAVE, RADIUS, Role.ESO)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["x", "y", "z", "length"])
def test_dipole_rejects_non_finite_geometry(field, value):
    # A NaN coordinate would otherwise give zero coupling to every other
    # dipole, and an infinite one a NaN impedance.
    position = [0.0, 0.0, 0.0]
    length = HALF_WAVE
    if field == "length":
        length = value
    else:
        position["xyz".index(field)] = value
    with pytest.raises(ValueError, match="length" if field == "length" else "position"):
        Dipole(tuple(position), length, RADIUS, Role.ESO)


def test_degenerate_electrical_length_rejected():
    # A full-wavelength dipole has a vanishing feed-current factor.
    with pytest.raises(ValueError):
        mutual_impedance(dip(length=LAM), dip(x=LAM, length=LAM), LAM)


def test_overlapping_bodies_rejected():
    with pytest.raises(GeometryError):
        mutual_impedance(dip(), dip(x=0.5 * RADIUS), LAM)
    # Axially stacked with overlapping extents.
    with pytest.raises(GeometryError):
        mutual_impedance(dip(), dip(z=0.1 * LAM), LAM)


def test_half_length_and_geometry_predicates():
    a = dip()
    assert 0.5 * a.length == pytest.approx(HALF_WAVE / 2)
    assert a.same_geometry(dip())
    assert not a.same_geometry(dip(x=1.0))
    assert not a.same_geometry(dip(length=0.4 * LAM))


def tx(x):
    return Dipole((x, 0.0, 0.0), HALF_WAVE, RADIUS, Role.TRANSMITTER)


def small_deployment():
    dipoles = [tx(0.0), tx(0.03)]
    dipoles += [Dipole((0.9, 1.5, 0.0), HALF_WAVE, RADIUS, Role.RECEIVER)]
    dipoles += [
        Dipole((0.3 + 0.07 * i, 0.8 + 0.05 * i, 0.0), HALF_WAVE, RADIUS, Role.ESO)
        for i in range(3)
    ]
    dipoles += [
        Dipole((0.03 * i, 2.4, 0.0), HALF_WAVE, RADIUS, Role.RIS_CELL) for i in range(2)
    ]
    return dipoles


def test_assembly_block_shapes_and_partition():
    z = assemble_impedances(small_deployment(), LAM)
    assert (z.m_tx, z.l_rx, z.n_eso, z.n_ris) == (2, 1, 3, 2)
    assert z.Z_TT.shape == (2, 2)
    assert z.Z_RE.shape == (1, 5)
    assert z.Z_EE.shape == (5, 5)
    assert z.Z_OS.shape == (3, 2)
    assert z.full_matrix().shape == (8, 8)
    z.validate()


def test_assembly_full_matrix_exactly_symmetric():
    full = assemble_impedances(small_deployment(), LAM).full_matrix()
    assert np.array_equal(full, full.T)


def test_assembly_matches_pairwise_calls():
    dipoles = small_deployment()
    z = assemble_impedances(dipoles, LAM)
    full = z.full_matrix()
    order = (
        [d for d in dipoles if d.role == Role.TRANSMITTER]
        + [d for d in dipoles if d.role == Role.RECEIVER]
        + [d for d in dipoles if d.role == Role.ESO]
        + [d for d in dipoles if d.role == Role.RIS_CELL]
    )
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            assert full[i, j] == mutual_impedance(a, b, LAM)


def mixed_deployment():
    """100 dipoles on a 10 x 10 grid at four heights and four lengths, plus a
    collinear stack with touching tips: 5050 pairs, two assembly slices that
    each hold many axial geometries."""
    rng = np.random.default_rng(21)
    heights = np.array([-0.3, 0.0, 0.2, 0.45]) * LAM
    lengths = np.array([0.3, 0.4, 0.45, 0.5]) * LAM
    roles = [Role.TRANSMITTER] * 3 + [Role.RECEIVER] * 2 + [Role.ESO] * 80 + [Role.RIS_CELL] * 13
    dipoles = [
        Dipole((0.3 * LAM * (i % 10), 0.3 * LAM * (i // 10), rng.choice(heights)),
               rng.choice(lengths), RADIUS, role)
        for i, role in enumerate(roles)
    ]
    base = (3.2 * LAM, 0.1 * LAM)
    dipoles += [
        Dipole((*base, 0.0), 0.4 * LAM, RADIUS, Role.ESO),
        Dipole((*base, 0.45 * LAM), 0.5 * LAM, RADIUS, Role.ESO),
    ]
    return dipoles


def many_kinds_deployment():
    """48 dipoles on an 8 x 6 grid, each of its own (z, length) kind: one
    geometry table of 48 * 49 / 2 = 1176 geometries."""
    heights = np.linspace(-0.4, 0.4, 6) * LAM
    lengths = np.linspace(0.3, 0.65, 8) * LAM
    roles = [Role.TRANSMITTER] * 2 + [Role.RECEIVER] * 2 + [Role.ESO] * 36 + [Role.RIS_CELL] * 8
    return [
        Dipole((0.3 * LAM * (i % 8), 0.3 * LAM * (i // 8), heights[i // 8]),
               lengths[i % 8], RADIUS, role)
        for i, role in enumerate(roles)
    ]


def test_mixed_geometry_assembly_is_bitwise_pairwise():
    mixed, many_kinds = mixed_deployment(), many_kinds_deployment()
    assert len(mixed) * (len(mixed) + 1) // 2 > _PAIRS_PER_CALL
    kinds = len({(d.position[2], d.length) for d in many_kinds})
    assert kinds * (kinds + 1) // 2 > 1024
    for dipoles in (mixed, many_kinds):
        full = assemble_impedances(dipoles, LAM).full_matrix()
        order = in_assembly_order(dipoles)
        pairwise = np.array([[mutual_impedance(a, b, LAM) for b in order] for a in order])
        assert np.array_equal(full, pairwise)
        assert np.array_equal(full, full.T)


def in_assembly_order(dipoles):
    return [d for role in (Role.TRANSMITTER, Role.RECEIVER, Role.ESO, Role.RIS_CELL)
            for d in dipoles if d.role == role]


@pytest.mark.parametrize("deployment", ["mixed", "desk"])
def test_assembly_does_not_depend_on_slice_size(monkeypatch, deployment):
    # One pair per slice broadcasts every geometry's column; larger slices
    # gather theirs, or broadcast where a slice holds one geometry.
    dipoles = mixed_deployment() if deployment == "mixed" else generate(ScenarioConfig(), 0)
    matrices = []
    for size in (1, 7, 4096, 10**6):
        monkeypatch.setattr(saris.dipoles, "_PAIRS_PER_CALL", size)
        matrices.append(assemble_impedances(dipoles, LAM).full_matrix())
    for full in matrices[1:]:
        assert np.array_equal(full, matrices[0])


def stacked_deployment():
    """A transmitter 0.6 wavelength above scatterer 7, with every other dipole
    at z = 0: pairs (0, j > 0) share one geometry, and (0, 7) is collinear."""
    dipoles = [Dipole((0.0, 0.0, 0.6 * LAM), HALF_WAVE, RADIUS, Role.TRANSMITTER),
               Dipole((0.9, 1.5, 0.0), HALF_WAVE, RADIUS, Role.RECEIVER)]
    dipoles += [Dipole((0.3 * LAM * (i - 5), 0.2, 0.0) if i != 5 else (0.0, 0.0, 0.0),
                       HALF_WAVE, RADIUS, Role.ESO) for i in range(12)]
    dipoles += [Dipole((0.3 * LAM * i, 2.4, 0.0), HALF_WAVE, RADIUS, Role.RIS_CELL)
                for i in range(2)]
    return dipoles


@pytest.mark.parametrize("size, shared", [(7, 1), (4096, 136)], ids=["broadcast", "gathered"])
def test_collinear_pair_in_a_slice_is_bitwise_pairwise(monkeypatch, size, shared):
    # With 7 pairs per slice, pairs 7-13 are (0, 7) to (0, 13): one geometry,
    # so the slice broadcasts; a 4096-pair slice holds all 136 pairs and
    # gathers. Either way the slice with rho = 0 takes the masked path.
    columns = []
    coupling = saris.dipoles._coupling

    def spy(rho, offsets, coefs, k):
        if np.any(rho == 0):
            columns.append(offsets.shape[1])
        return coupling(rho, offsets, coefs, k)

    monkeypatch.setattr(saris.dipoles, "_PAIRS_PER_CALL", size)
    monkeypatch.setattr(saris.dipoles, "_coupling", spy)
    dipoles = stacked_deployment()
    full = assemble_impedances(dipoles, LAM).full_matrix()
    assert columns == [shared]
    order = in_assembly_order(dipoles)
    assert order[0].position[:2] == order[7].position[:2]
    pairwise = np.array([[mutual_impedance(a, b, LAM) for b in order] for a in order])
    assert np.all(np.isfinite(full))
    assert np.array_equal(full, pairwise)


@pytest.mark.parametrize("deployment", ["clutter", "mixed"])
def test_assembly_builds_one_geometry_table(monkeypatch, deployment):
    calls = []
    build = saris.dipoles._geometry_table

    def counting(*args):
        calls.append(args[0].size)
        return build(*args)

    monkeypatch.setattr(saris.dipoles, "_geometry_table", counting)
    if deployment == "clutter":
        dipoles = generate(ScenarioConfig(N_c=8, N_O=100), 0)
    else:
        dipoles = mixed_deployment()
    pairs = len(dipoles) * (len(dipoles) + 1) // 2
    assert pairs > _PAIRS_PER_CALL
    assemble_impedances(dipoles, LAM)
    assert len(calls) == 1


def test_assembly_walks_the_pairs_once(monkeypatch):
    # One walk over the upper triangle both checks separations and fills Z,
    # on and below the diagonal alike.
    walks, pairs = [], []
    triangle, coupling = saris.dipoles._upper_triangle, saris.dipoles._coupling

    def counting_triangle(k):
        walks.append(k)
        return triangle(k)

    def counting_coupling(rho, offsets, coefs, k):
        pairs.append(rho.size)
        return coupling(rho, offsets, coefs, k)

    monkeypatch.setattr(saris.dipoles, "_upper_triangle", counting_triangle)
    monkeypatch.setattr(saris.dipoles, "_coupling", counting_coupling)
    dipoles = mixed_deployment()
    kk = len(dipoles)
    assert kk * (kk + 1) // 2 > _PAIRS_PER_CALL
    full = assemble_impedances(dipoles, LAM).full_matrix()
    assert walks == [kk]
    assert sum(pairs) == kk * (kk + 1) // 2
    assert np.array_equal(full, full.T)


def separation_clash(overlap):
    """Elements 0 and 3 (in assembly order) are collinear with overlapping
    extents; with overlap, elements 5 and 6 also sit closer than their radii."""
    return [
        Dipole((0.0, 0.0, 0.0), HALF_WAVE, RADIUS, Role.TRANSMITTER),
        Dipole((0.9, 1.5, 0.0), HALF_WAVE, RADIUS, Role.RECEIVER),
        Dipole((0.3, 0.8, 0.0), HALF_WAVE, RADIUS, Role.ESO),
        Dipole((0.0, 0.0, 0.3 * LAM), HALF_WAVE, RADIUS, Role.ESO),
        Dipole((0.4, 0.8, 0.0), HALF_WAVE, RADIUS, Role.ESO),
        Dipole((0.0, 2.4, 0.0), HALF_WAVE, RADIUS, Role.RIS_CELL),
        Dipole((0.5 * RADIUS if overlap else 0.03, 2.4, 0.0), HALF_WAVE, RADIUS, Role.RIS_CELL),
    ]


@pytest.mark.parametrize(
    "overlap, message, size",
    [
        (True, "distinct dipoles overlap: elements 5 and 6 ", _PAIRS_PER_CALL),
        (False, "wire bodies intersect: elements 0 and 3 ", _PAIRS_PER_CALL),
        (True, "distinct dipoles overlap: elements 5 and 6 ", 1),
        (False, "wire bodies intersect: elements 0 and 3 ", 1),
    ],
    ids=["overlap-first", "body", "overlap-first-pair-chunks", "body-pair-chunks"],
)
def test_separation_error_names_the_first_offending_pair(monkeypatch, overlap, message, size):
    # Overlaps are checked over all pairs before wire bodies, so the later
    # overlapping pair (5, 6) is reported ahead of the body pair (0, 3), also
    # when each pair is a chunk of its own and the two sit chunks apart.
    monkeypatch.setattr(saris.dipoles, "_PAIRS_PER_CALL", size)
    with pytest.raises(GeometryError) as info:
        assemble_impedances(separation_clash(overlap), LAM)
    assert str(info.value).startswith(message)


def test_assembly_ignores_input_interleaving():
    dipoles = small_deployment()
    # Mix the roles together while keeping relative order within each role.
    interleaved = [dipoles[3], dipoles[0], dipoles[6], dipoles[2], dipoles[4],
                   dipoles[1], dipoles[7], dipoles[5]]
    za = assemble_impedances(dipoles, LAM)
    zb = assemble_impedances(interleaved, LAM)
    assert np.array_equal(za.full_matrix(), zb.full_matrix())


def test_assembly_block_cross_references():
    z = assemble_impedances(small_deployment(), LAM)
    assert np.array_equal(z.Z_OS, z.Z_SO.T)
    assert np.array_equal(z.Z_RO, z.Z_RE[:, : z.n_eso])
    assert np.array_equal(z.Z_ST, z.Z_ET[z.n_eso :, :])


def test_assembly_termination_forms():
    dipoles = small_deployment()
    scalar = assemble_impedances(dipoles, LAM, z_g=50.0)
    vector = assemble_impedances(dipoles, LAM, z_g=np.array([50.0, 50.0]))
    assert np.array_equal(scalar.Z_G, vector.Z_G)
    # Only a scalar or one value per port: a square matrix, even a diagonal
    # one, is rejected, as is a vector of the wrong length.
    for value in (50.0 * np.eye(2), np.full((2, 2), 50.0), np.full(3, 50.0)):
        with pytest.raises(ValueError, match="expected a scalar or"):
            assemble_impedances(dipoles, LAM, z_g=value)
    with pytest.raises(ValueError, match="NaN"):
        assemble_impedances(dipoles, LAM, z_us=np.nan)


@pytest.mark.parametrize(
    "wavelength", [-LAM, 0.0, np.nan, np.inf], ids=["negative", "zero", "nan", "inf"]
)
@pytest.mark.parametrize(
    "build",
    [
        lambda lam: mutual_impedance(dip(), dip(x=LAM), lam),
        lambda lam: assemble_impedances(small_deployment(), lam),
    ],
    ids=["mutual_impedance", "assemble_impedances"],
)
def test_bad_wavelength_rejected(build, wavelength):
    with pytest.raises(ValueError, match="wavelength must be positive and finite"):
        build(wavelength)


def test_assembly_requires_every_role():
    dipoles = [d for d in small_deployment() if d.role != Role.RECEIVER]
    with pytest.raises(ValueError):
        assemble_impedances(dipoles, LAM)


def test_assembly_rejects_duplicate_positions():
    dipoles = small_deployment() + [small_deployment()[0]]
    with pytest.raises(GeometryError):
        assemble_impedances(dipoles, LAM)


def test_validate_flags_asymmetry():
    z = assemble_impedances(small_deployment(), LAM)
    z.Z_TT[0, 1] += 1.0
    with pytest.raises(ValueError):
        z.validate()


@pytest.mark.parametrize("block", ["Z_TT", "Z_EE"])
def test_validate_reports_the_dense_relative_asymmetry(block):
    z = assemble_impedances(small_deployment(), LAM)
    getattr(z, block)[1, 0] += 0.5
    full = z.full_matrix()
    dense = np.linalg.norm(full - full.T) / np.linalg.norm(full)
    with pytest.raises(ValueError, match=f"asymmetry {dense:.3e} exceeds"):
        z.validate()


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda z: dataclasses.replace(z, Z=z.Z[:, :-1]), "expected a square matrix"),
        (lambda z: dataclasses.replace(z, n_ris=z.n_ris + z.n_eso + 1), "does not fit 8 ports"),
        (lambda z: dataclasses.replace(z, z_us=z.z_us[:-1]), "z_us has shape"),
    ],
    ids=["non_square", "partition_too_large", "short_z_us"],
)
def test_validate_rejects_what_does_not_fit_the_port_matrix(change, message):
    z = assemble_impedances(small_deployment(), LAM)
    with pytest.raises(ValueError, match=message):
        change(z).validate()
