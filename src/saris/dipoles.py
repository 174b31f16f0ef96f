"""Self and mutual impedances of z-aligned thin-wire dipoles.

Every radiating element in the simulator (transmit antenna, receive antenna,
RIS cell, environmental scatterer) is a loaded wire dipole carrying a single
sinusoidal current mode. Coupling between any two elements is computed by the
induced-EMF method: the field of one sinusoidal filament is integrated against
the current of the other. For parallel dipoles that integral has an exact
closed form in sine and cosine integrals, which serves every pair: self terms,
side-by-side, staggered, unequal and collinear ones, tips touching included.

The form's coefficients depend only on a pair's axial geometry (the height
offset and the two lengths), so they are computed once per geometry and each
pair evaluates just the integrals at its geometry's distinct axial offsets:
six for dipoles side by side with equal lengths, at most eighteen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Free-space wave impedance in ohms.
ETA0 = 376.730313668

# Pairs per kernel call in assembly. It bounds the working set to a few MB,
# and the call's geometry table to the distinct geometries among these pairs.
_PAIRS_PER_CALL = 4096


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


def _coupling(rho, cls, dz, h_src, h_tst, wavelength) -> np.ndarray:
    """Induced-EMF impedance of (source, test) dipole pairs in closed form.

    rho and cls have one entry per pair: rho is the horizontal separation, or
    the wire radius for a self term, and cls the pair's row in the geometry
    table dz, h_src, h_tst (test centre height above the source centre, and
    the two half-lengths). The source's field is three spherical waves
    e^{-jkR}/R, from its tips and centre; each integrates against the
    e^{+-jkt} parts of the test current to exponential integrals
    E1(jk(R -+ t)) of the axial offset t (Carter 1932; Baker and LaGrone
    1962). Their coefficients depend on the row alone, so a pair evaluates
    only the integrals at its row's distinct |t| and sums them in fixed order.
    """
    # Deferred: loading scipy.special adds ~75 ms to `import saris.cli`.
    from scipy.special import sici

    k = 2.0 * np.pi / wavelength
    sin_src, sin_tst = np.sin(k * h_src), np.sin(k * h_tst)
    if np.any(np.abs(sin_src) < 1e-6) or np.any(np.abs(sin_tst) < 1e-6):
        raise ValueError(
            "dipole half-length at a multiple of wavelength/2: sinusoidal "
            "current mode is degenerate"
        )
    # t[g, i, e]: offset of test point e (lower tip, centre, upper tip) above
    # wave origin i (source upper tip, lower tip, centre).
    origins = np.stack([h_src, -h_src, np.zeros_like(h_src)], axis=1)
    points = np.stack([dz - h_tst, dz, dz + h_tst], axis=1)
    t = points[:, None, :] - origins[:, :, None]

    # Each row's distinct |t| ascending, padded with its smallest at zero
    # weight; col[g, i, e] is the column of |t[g, i, e]|.
    abs_t = np.abs(t).reshape(dz.size, 9)
    order = np.argsort(abs_t, axis=1)
    sorted_t = np.take_along_axis(abs_t, order, axis=1)
    rank = np.zeros_like(order)
    rank[:, 1:] = np.cumsum(sorted_t[:, 1:] > sorted_t[:, :-1], axis=1)
    n = rank[:, -1].max() + 1
    col = np.empty_like(rank)
    np.put_along_axis(col, order, rank, axis=1)
    col = col.reshape(t.shape)
    table = np.repeat(sorted_t[:, :1], n, axis=1)
    np.put_along_axis(table, rank, sorted_t, axis=1)
    # Columns 0..n-1 hold x = k(R - |t|), columns n..2n-1 hold k(R + |t|);
    # which one is k(R - t) follows the sign of t.
    neg = np.where(t >= 0, 0, n)
    columns = np.stack([col + neg, col + n - neg])

    # The test current on its lower (sigma = 1) and upper (sigma = -1) half
    # is sin(sigma k (t - d)), d the tip's offset; each of its e^{+-jkt}
    # parts integrates to [E1(jk(R -+ t))] over the half. With the waves
    # weighted 1, 1, -2 cos(kh_src) and the sum scaled by j eta / (4 pi sin
    # sin), that is (s / 2) e^{-+jkd} [Cin + jSi] for a real s.
    weight = np.ones((dz.size, 3))
    weight[:, 2] = -2.0 * np.cos(k * h_src)
    s = (ETA0 / (4.0 * np.pi * sin_src * sin_tst))[:, None, None] * weight[:, :, None] * [1.0, -1.0]
    d = t[:, :, ::2]
    half_cos, half_sin = 0.5 * s * np.cos(k * d), 0.5 * s * np.sin(k * d)
    # The logs sum to -sigma sin(kd) [ln(R + t)] = sigma sin(kd) [ln(R - t)],
    # as ln(R + t) + ln(R - t) = 2 ln rho. The form that is finite on the
    # half's side of the origin keeps rho = 0 finite; at touching tips its
    # one ln 0 meets sin(kd) = 0.
    above = t[:, :, :2] + t[:, :, 1:] >= 0
    log_minus = np.where(above, 0.0, 2.0 * half_sin)
    log_plus = np.where(above, -2.0 * half_sin, 0.0)

    def at_points(v):
        """Per-half values onto the test points: minus at a half's lower end,
        plus at its upper end."""
        return np.concatenate([-v[:, :, :1], v[:, :, :1] - v[:, :, 1:], v[:, :, 1:]], axis=2)

    # For k(R - t) and k(R + t) at each point: the real and imaginary
    # coefficients of Cin + jSi, and the imaginary ones of ln x, summed per
    # column. bincount adds in input order, so a row's sums depend on it alone.
    values = [
        [at_points(half_cos), at_points(half_cos)],
        [-at_points(half_sin), at_points(half_sin)],
        [at_points(log_minus), at_points(log_plus)],
    ]
    bins = (columns * dz.size + np.arange(dz.size)[:, None, None]).ravel()
    re_cin, im_cin, im_log = (
        np.bincount(bins, np.ravel(v), 2 * n * dz.size).reshape(2 * n, dz.size) for v in values
    )

    # E1(jx) = -gamma - ln x + Cin(x) + j(Si(x) - pi/2); constants cancel
    # between end points. R - |t| is taken as rho^2 / (R + |t|), free of
    # cancellation. At rho = 0 it is 0, where Cin + jSi is 0 and ln x is
    # never used (0 stands in for it).
    abs_tp = np.take(table.T, cls, axis=1)
    far = np.hypot(rho, abs_tp) + abs_tp
    near = np.divide(rho**2, far, out=np.zeros_like(far), where=far > 0)
    x = k * np.concatenate([near, far])
    pos = x > 0
    safe = np.where(pos, x, 1.0)
    si, ci = sici(safe)
    log_x = np.where(pos, np.log(safe), 0.0)
    cin = np.where(pos, np.euler_gamma + log_x - ci, 0.0)
    si = np.where(pos, si, 0.0)
    # Each row's coefficients sum to zero, so values count relative to
    # column 0: for distant pairs all x are close and these differences are
    # exact. Real arithmetic and a fixed-order column sum keep a pair's
    # result independent of the batch it shares, padded columns included.
    d_cin, d_si, d_log = cin - cin[0], si - si[0], log_x - log_x[0]
    a_re, a_im, b_im = (np.take(c, cls, axis=1) for c in (re_cin, im_cin, im_log))
    re = a_re * d_cin - a_im * d_si
    im = a_im * d_cin + a_re * d_si + b_im * d_log
    z_re, z_im = re[0], im[0]
    for r, i in zip(re[1:], im[1:]):
        z_re, z_im = z_re + r, z_im + i
    return z_re + 1j * z_im


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


def _pair_impedances(dipoles: list[Dipole], iu, ju, wavelength: float) -> np.ndarray:
    """Impedances in ohms of the pairs (dipoles[iu], dipoles[ju]); a pair with
    iu == ju is that dipole's self term, with the field evaluated one wire
    radius off the axis.

    Of each pair, the dipole with the larger (length, z, radius) key is the
    source, so both orders of a pair give the same result bit for bit. Pairs
    go through the closed-form kernel in fixed-size slices, and a pair's
    result does not depend on the slice it shares.
    """
    if not wavelength > 0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    iu, ju = np.asarray(iu), np.asarray(ju)
    length = np.array([d.length for d in dipoles])
    zc = np.array([d.position[2] for d in dipoles])
    radius = np.array([d.wire_radius for d in dipoles])
    off = iu != ju
    rho = radius[iu]
    rho[off] = _pair_separations(dipoles, iu[off], ju[off])
    rank = np.empty(len(dipoles), dtype=int)
    rank[np.lexsort((radius, zc, length))] = np.arange(len(dipoles))
    src = np.where(rank[iu] >= rank[ju], iu, ju)
    tst = np.where(rank[iu] >= rank[ju], ju, iu)
    # A pair's axial geometry is fixed by the (z, length) kinds of its source
    # and test; each slice's geometry table holds its distinct kind pairs.
    kinds, kind = np.unique(np.stack([zc, length], axis=1), axis=0, return_inverse=True)
    code = kind[src] * len(kinds) + kind[tst]
    z = np.empty(iu.size, dtype=complex)
    for lo in range(0, iu.size, _PAIRS_PER_CALL):
        p = slice(lo, lo + _PAIRS_PER_CALL)
        geometries, cls = np.unique(code[p], return_inverse=True)
        s, t = np.divmod(geometries, len(kinds))
        z[p] = _coupling(
            rho[p], cls, kinds[t, 0] - kinds[s, 0], 0.5 * kinds[s, 1], 0.5 * kinds[t, 1],
            wavelength,
        )
    return z


def mutual_impedance(a: Dipole, b: Dipole, wavelength: float) -> complex:
    """Mutual impedance in ohms between two z-aligned dipoles.

    If a and b describe the same element, the self-impedance is returned with
    the field evaluated one wire radius off the axis. The result is exactly
    symmetric in its arguments.
    """
    return complex(_pair_impedances([a, b], [0], [0 if a.same_geometry(b) else 1], wavelength)[0])


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
) -> ImpedanceSet:
    """Build the block impedance structure for a full deployment.

    Dipoles may arrive in any order; they are grouped by role with ordering
    preserved inside each role. Entries on and above the diagonal come from
    the pair routine that `mutual_impedance` uses, so they equal its values.
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

    iu, ju = np.triu_indices(kk)
    full = np.empty((kk, kk), dtype=complex)
    full[iu, ju] = full[ju, iu] = _pair_impedances(ordered, iu, ju, wavelength)

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
