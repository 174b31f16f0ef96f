"""Self and mutual impedances of z-aligned thin-wire dipoles.

Every radiating element in the simulator (transmit antenna, receive antenna,
RIS cell, environmental scatterer) is a loaded wire dipole carrying a single
sinusoidal current mode. Coupling between any two elements is computed by the
induced-EMF method: the field of one sinusoidal filament is integrated against
the current of the other. The kernel is evaluated by composite Gauss-Legendre
quadrature with panels graded toward the near-singular points, which keeps the
assembly of large impedance matrices vectorized and fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

# Free-space wave impedance in ohms.
ETA0 = 376.730313668

DEFAULT_ORDER = 16

# Horizontal separations below this many test half-lengths get graded panels.
_NEAR_FACTOR = 2.0
_PANEL_RATIO = 4.0


class GeometryError(ValueError):
    """Raised for physically invalid element placement."""


class Role(Enum):
    TRANSMITTER = "transmitter"
    RECEIVER = "receiver"
    RIS_CELL = "ris_cell"
    ESO = "eso"


@dataclass(frozen=True, eq=False)
class Dipole:
    """A z-aligned thin-wire dipole.

    position is the wire center in meters; length is tip to tip. The wire
    radius only matters for self-impedance (field evaluation offset) and for
    overlap checks.
    """

    position: tuple[float, float, float]
    length: float
    wire_radius: float
    role: Role

    def __post_init__(self):
        object.__setattr__(self, "position", tuple(float(c) for c in self.position))
        if len(self.position) != 3:
            raise ValueError("position must have three components")
        if not self.length > 0:
            raise ValueError(f"length must be positive, got {self.length}")
        if not self.wire_radius > 0:
            raise ValueError(f"wire_radius must be positive, got {self.wire_radius}")
        if not self.wire_radius < self.length / 10:
            raise ValueError(
                f"wire_radius {self.wire_radius} violates thin-wire validity "
                f"(must be below length/10 = {self.length / 10})"
            )

    @property
    def half_length(self) -> float:
        return 0.5 * self.length

    def same_geometry(self, other: "Dipole") -> bool:
        return (
            self.position == other.position
            and self.length == other.length
            and self.wire_radius == other.wire_radius
        )


@lru_cache(maxsize=32)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _graded_edges(lo, hi, kink, crit, scale):
    """Panel edges on [lo, hi]: split at the current kink and lay geometric
    ladders around each near-singular point so that quadrature resolves the
    boundary layer of width ~scale."""
    pts = {lo, hi}
    if lo < kink < hi:
        pts.add(kink)
    for c in crit:
        if c < lo - scale or c > hi + scale:
            continue
        for sgn in (1.0, -1.0):
            step = scale
            limit = hi - lo
            while step < limit:
                x = c + sgn * step
                if lo < x < hi:
                    pts.add(x)
                step *= _PANEL_RATIO
    edges = np.array(sorted(pts))
    # Merge panels that collapsed to rounding width.
    keep = np.concatenate(([True], np.diff(edges) > 1e-9 * (hi - lo)))
    edges = edges[keep]
    if edges[-1] != hi:
        edges[-1] = hi
    return edges


def _panel_nodes(edges, order):
    x, w = _leggauss(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _kernel_batch(rho, zc_src, h_src, zc_tst, h_tst, k, nodes, weights):
    """Induced-EMF integral for a batch of horizontal separations sharing the
    same axial geometry. rho is a 1-D array; returns complex impedances."""
    z = nodes[None, :]
    r = rho[:, None]
    coskh = np.cos(k * h_src)
    cur = np.sin(k * (h_tst - np.abs(nodes - zc_tst))) * weights

    d1 = z - (zc_src + h_src)
    rr = np.sqrt(r * r + d1 * d1)
    acc = np.exp(-1j * k * rr) / rr
    d2 = z - (zc_src - h_src)
    rr = np.sqrt(r * r + d2 * d2)
    acc += np.exp(-1j * k * rr) / rr
    d0 = z - zc_src
    rr = np.sqrt(r * r + d0 * d0)
    acc -= (2.0 * coskh) * np.exp(-1j * k * rr) / rr

    integral = acc @ cur
    pref = 1j * ETA0 / (4.0 * np.pi * np.sin(k * h_src) * np.sin(k * h_tst))
    return pref * integral


def _impedance_batch(rho, zc_src, h_src, zc_tst, h_tst, wavelength, order):
    """Dispatch a batch of pair separations to far or graded quadrature grids.

    Separations are sorted so that chunks share a grading scale; results come
    back in input order.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    k = 2.0 * np.pi / wavelength
    for h in (h_src, h_tst):
        if abs(np.sin(k * h)) < 1e-6:
            raise ValueError(
                "dipole half-length at a multiple of wavelength/2: sinusoidal "
                "current mode is degenerate"
            )
    lo, hi = zc_tst - h_tst, zc_tst + h_tst
    crit = (zc_src - h_src, zc_src, zc_src + h_src)
    out = np.empty(rho.shape, dtype=complex)

    near_limit = _NEAR_FACTOR * h_tst
    near = rho < near_limit
    if np.any(~near):
        edges = _graded_edges(lo, hi, zc_tst, (), 0.0)
        nodes, weights = _panel_nodes(edges, 2 * order)
        idx = np.flatnonzero(~near)
        out[idx] = _kernel_batch(rho[idx], zc_src, h_src, zc_tst, h_tst, k, nodes, weights)
    if np.any(near):
        idx = np.flatnonzero(near)
        idx = idx[np.argsort(rho[idx], kind="stable")]
        for chunk in np.array_split(idx, max(1, idx.size // 4096)):
            scale = max(float(rho[chunk[0]]), 1e-5 * h_tst)
            edges = _graded_edges(lo, hi, zc_tst, crit, scale)
            nodes, weights = _panel_nodes(edges, order)
            out[chunk] = _kernel_batch(
                rho[chunk], zc_src, h_src, zc_tst, h_tst, k, nodes, weights
            )
    return out


def _canonical_pair(a: Dipole, b: Dipole) -> tuple[Dipole, Dipole]:
    """Fixed source/test assignment so both argument orders share one code
    path and reciprocity holds bitwise."""
    ka = (a.length, a.position[2], a.wire_radius)
    kb = (b.length, b.position[2], b.wire_radius)
    return (a, b) if ka >= kb else (b, a)


def _pair_separations(dipoles: list[Dipole], iu, ju) -> np.ndarray:
    """Horizontal separations of the pairs (dipoles[iu], dipoles[ju]); raises
    GeometryError if two of these distinct dipoles overlap or their wire bodies
    intersect (collinear with overlapping axial extents)."""
    pos = np.array([d.position for d in dipoles])
    radii = np.array([d.wire_radius for d in dipoles])
    half = np.array([d.half_length for d in dipoles])
    dx = pos[iu, 0] - pos[ju, 0]
    dy = pos[iu, 1] - pos[ju, 1]
    dz = pos[iu, 2] - pos[ju, 2]
    rho = np.hypot(dx, dy)
    rsum = radii[iu] + radii[ju]
    close = np.sqrt(rho**2 + dz**2) < rsum
    if np.any(close):
        p = int(np.flatnonzero(close)[0])
        raise GeometryError(
            f"distinct dipoles overlap: elements {int(iu[p])} and {int(ju[p])} "
            "have center distance below the sum of wire radii"
        )
    zhi = pos[:, 2] + half
    zlo = pos[:, 2] - half
    body = (rho < rsum) & (
        np.minimum(zhi[iu], zhi[ju]) - np.maximum(zlo[iu], zlo[ju]) > 0
    )
    if np.any(body):
        p = int(np.flatnonzero(body)[0])
        raise GeometryError(
            f"wire bodies intersect: elements {int(iu[p])} and {int(ju[p])} are "
            "collinear with overlapping axial extents"
        )
    return rho


def mutual_impedance(a: Dipole, b: Dipole, wavelength: float, order: int = DEFAULT_ORDER) -> complex:
    """Mutual impedance in ohms between two z-aligned dipoles.

    If a and b describe the same element, the self-impedance is returned with
    the field evaluated one wire radius off the axis. The result is exactly
    symmetric in its arguments.
    """
    if not wavelength > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    src, tst = _canonical_pair(a, b)
    if a.same_geometry(b):
        rho = max(a.wire_radius, b.wire_radius)
    else:
        rho = float(_pair_separations([a, b], [0], [1])[0])
    z = _impedance_batch(
        np.array([rho]),
        src.position[2],
        src.half_length,
        tst.position[2],
        tst.half_length,
        wavelength,
        order,
    )
    return complex(z[0])


@dataclass
class ImpedanceSet:
    """Block-partitioned impedance description of one deployment.

    The environment block Z_EE stacks the ESO ports first and the RIS ports
    second; n_ris locates the partition. Z_G, Z_L, Z_US are the termination
    matrices at the transmitter, receiver, and ESO ports.
    """

    Z_TT: np.ndarray
    Z_RR: np.ndarray
    Z_RT: np.ndarray
    Z_RE: np.ndarray
    Z_ET: np.ndarray
    Z_EE: np.ndarray
    Z_G: np.ndarray
    Z_L: np.ndarray
    Z_US: np.ndarray
    n_ris: int = field(default=-1)

    def __post_init__(self):
        if self.n_ris < 0:
            self.n_ris = self.Z_EE.shape[0] - self.Z_US.shape[0]

    @property
    def m_tx(self) -> int:
        return self.Z_TT.shape[0]

    @property
    def l_rx(self) -> int:
        return self.Z_RR.shape[0]

    @property
    def n_eso(self) -> int:
        return self.Z_EE.shape[0] - self.n_ris

    @property
    def Z_OO(self) -> np.ndarray:
        return self.Z_EE[: self.n_eso, : self.n_eso]

    @property
    def Z_OS(self) -> np.ndarray:
        return self.Z_EE[: self.n_eso, self.n_eso:]

    @property
    def Z_SO(self) -> np.ndarray:
        return self.Z_EE[self.n_eso:, : self.n_eso]

    @property
    def Z_SS(self) -> np.ndarray:
        return self.Z_EE[self.n_eso:, self.n_eso:]

    @property
    def Z_RO(self) -> np.ndarray:
        return self.Z_RE[:, : self.n_eso]

    @property
    def Z_RS(self) -> np.ndarray:
        return self.Z_RE[:, self.n_eso:]

    @property
    def Z_OT(self) -> np.ndarray:
        return self.Z_ET[: self.n_eso, :]

    @property
    def Z_ST(self) -> np.ndarray:
        return self.Z_ET[self.n_eso:, :]

    def full_matrix(self) -> np.ndarray:
        """Assembled multiport matrix in port order [TX, RX, ESO, RIS]."""
        return np.block(
            [
                [self.Z_TT, self.Z_RT.T, self.Z_ET.T],
                [self.Z_RT, self.Z_RR, self.Z_RE],
                [self.Z_ET, self.Z_RE.T, self.Z_EE],
            ]
        )

    def validate(self, tol: float = 1e-10):
        m, l, n, ns = self.m_tx, self.l_rx, self.n_ris, self.n_eso
        expect = {
            "Z_TT": (m, m), "Z_RR": (l, l), "Z_RT": (l, m),
            "Z_RE": (l, n + ns), "Z_ET": (n + ns, m), "Z_EE": (n + ns, n + ns),
            "Z_G": (m, m), "Z_L": (l, l), "Z_US": (ns, ns),
        }
        for name, shape in expect.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape}")
        for name in ("Z_G", "Z_L", "Z_US"):
            mat = getattr(self, name)
            if mat.size and np.any(mat != np.diag(np.diag(mat))):
                raise ValueError(f"{name} must be strictly diagonal")
        full = self.full_matrix()
        denom = np.linalg.norm(full)
        if denom > 0:
            asym = np.linalg.norm(full - full.T) / denom
            if asym >= tol:
                raise ValueError(f"impedance matrix asymmetry {asym:.3e} exceeds {tol:.1e}")


def _termination_matrix(value, count, name) -> np.ndarray:
    value = np.asarray(value, dtype=complex)
    if value.ndim == 0:
        return np.eye(count, dtype=complex) * complex(value)
    if value.ndim == 1:
        if value.shape[0] != count:
            raise ValueError(f"{name} has {value.shape[0]} entries, expected {count}")
        return np.diag(value)
    if value.shape != (count, count):
        raise ValueError(f"{name} has shape {value.shape}, expected ({count}, {count})")
    if np.any(value != np.diag(np.diag(value))):
        raise ValueError(f"{name} must be diagonal")
    return value.astype(complex)


def assemble_impedances(
    dipoles: list[Dipole],
    wavelength: float,
    z_g=50.0,
    z_l=50.0,
    z_us=0.0,
    order: int = DEFAULT_ORDER,
) -> ImpedanceSet:
    """Build the block impedance structure for a full deployment.

    Dipoles may arrive in any order; they are grouped by role with ordering
    preserved inside each role. Pairwise entries with identical axial geometry
    are evaluated in vectorized batches, which is what makes Monte-Carlo
    assembly of a few hundred elements tractable.
    """
    groups: dict[Role, list[Dipole]] = {role: [] for role in Role}
    for dip in dipoles:
        groups[dip.role].append(dip)
    for role in Role:
        if not groups[role]:
            raise ValueError(f"no dipole with role {role.value}")
    ordered = (
        groups[Role.TRANSMITTER]
        + groups[Role.RECEIVER]
        + groups[Role.ESO]
        + groups[Role.RIS_CELL]
    )
    m = len(groups[Role.TRANSMITTER])
    l = len(groups[Role.RECEIVER])
    ns = len(groups[Role.ESO])
    n = len(groups[Role.RIS_CELL])
    kk = len(ordered)

    seen: dict[tuple, int] = {}
    for i, d in enumerate(ordered):
        if d.position in seen:
            raise GeometryError(
                f"duplicate dipole position {d.position} (elements {seen[d.position]} and {i})"
            )
        seen[d.position] = i

    full = np.empty((kk, kk), dtype=complex)

    # Diagonal: self-impedances batched by (half-length, z-center, radius).
    diag_groups: dict[tuple, list[int]] = {}
    for i, d in enumerate(ordered):
        key = (d.half_length, d.position[2], d.wire_radius)
        diag_groups.setdefault(key, []).append(i)
    for (h, zc, radius), idx in diag_groups.items():
        z_self = _impedance_batch(
            np.full(len(idx), radius), zc, h, zc, h, wavelength, order
        )
        full[idx, idx] = z_self

    # Off-diagonal: batch pairs by canonical axial geometry. Elements fall
    # into a handful of (half-length, z-center, radius) classes, so pair
    # grouping is done on class codes instead of per-pair Python work.
    iu, ju = np.triu_indices(kk, k=1)
    keys = sorted({(d.half_length, d.position[2], d.wire_radius) for d in ordered})
    key_rank = {key: rank for rank, key in enumerate(keys)}
    ranks = np.array(
        [key_rank[(d.half_length, d.position[2], d.wire_radius)] for d in ordered]
    )

    rho_all = _pair_separations(ordered, iu, ju)

    ri, rj = ranks[iu], ranks[ju]
    src_rank = np.maximum(ri, rj)
    tst_rank = np.minimum(ri, rj)
    codes = src_rank * len(keys) + tst_rank
    for code in np.unique(codes):
        pidx = np.flatnonzero(codes == code)
        h_src, zc_src, _ = keys[int(code) // len(keys)]
        h_tst, zc_tst, _ = keys[int(code) % len(keys)]
        vals = _impedance_batch(
            rho_all[pidx], zc_src, h_src, zc_tst, h_tst, wavelength, order
        )
        full[iu[pidx], ju[pidx]] = vals
        full[ju[pidx], iu[pidx]] = vals

    zset = ImpedanceSet(
        Z_TT=full[:m, :m].copy(),
        Z_RR=full[m:m + l, m:m + l].copy(),
        Z_RT=full[m:m + l, :m].copy(),
        Z_RE=full[m:m + l, m + l:].copy(),
        Z_ET=full[m + l:, :m].copy(),
        Z_EE=full[m + l:, m + l:].copy(),
        Z_G=_termination_matrix(z_g, m, "Z_G"),
        Z_L=_termination_matrix(z_l, l, "Z_L"),
        Z_US=_termination_matrix(z_us, ns, "Z_US"),
        n_ris=n,
    )
    zset.validate()
    return zset
