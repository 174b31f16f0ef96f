"""Self and mutual impedances of z-aligned thin-wire dipoles.

Every radiating element in the simulator (transmit antenna, receive antenna,
RIS cell, environmental scatterer) is a loaded wire dipole carrying a single
sinusoidal current mode. Coupling between any two elements is computed by the
induced-EMF method: the field of one sinusoidal filament is integrated against
the current of the other. For parallel dipoles that integral has an exact
closed form in sine and cosine integrals, which serves every pair: self terms,
side-by-side, staggered, unequal and collinear ones, tips touching included.

The form's coefficients depend only on a pair's axial geometry (the height
offset and the two lengths). Assembly tabulates them once for the geometries
present, with its trigonometry in exact phase so that coefficients which
vanish come out as zeros: half-wave dipoles side by side, the case of every
generated pair, weight three integrals, and no geometry weights more than
eighteen. Assembly then streams the upper triangle of the port matrix in
fixed-size chunks of pairs, in row-major order, and writes each chunk's
values straight into the matrix, above and below its diagonal; no array
spans all pairs. The same walk keeps the few pairs closer than four wire
radii, whose separations are checked once it ends.
Each chunk evaluates every argument of the table, which is as wide as its
widest geometry; a geometry narrower than that is padded at zero weight.
A chunk whose pairs share one geometry, as every chunk of a generated
deployment does, broadcasts that geometry's table column instead of
gathering one per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Free-space wave impedance in ohms.
ETA0 = 376.730313668

# Pairs per kernel call in assembly. Assembly walks the upper triangle in
# chunks of this many pairs and writes each into Z, so its working set beyond
# Z is a few MB. A process's first clutter assembly (338 253 pairs, one core,
# 12 alternating runs) took a median 0.218 s at 4096 and 0.204 s at 8192,
# with 8192 faster in only 7 runs, inside the spread; it faulted in ~7.7k
# pages against ~8.1k.
_PAIRS_PER_CALL = 4096

# Rows per block when `ImpedanceSet.validate` compares Z with its transpose;
# its temporaries stay within this many rows of Z.
_ROWS_PER_BLOCK = 64


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
        position = tuple(float(c) for c in self.position)
        object.__setattr__(self, "position", position)
        if len(position) != 3:
            raise ValueError("position must have three components")
        # A NaN coordinate would give zero coupling to every other dipole.
        if not all(map(math.isfinite, position)):
            raise ValueError(f"position must be finite, got {position}")
        if not 0 < self.length < math.inf:
            raise ValueError(f"length must be positive and finite, got {self.length}")
        if not self.wire_radius > 0:
            raise ValueError(f"wire_radius must be positive, got {self.wire_radius}")
        if not self.wire_radius < self.length / 10:
            raise ValueError(
                f"wire_radius {self.wire_radius} violates thin-wire validity "
                f"(must be below length/10 = {self.length / 10})"
            )

    def same_geometry(self, other: "Dipole") -> bool:
        return (
            self.position == other.position
            and self.length == other.length
            and self.wire_radius == other.wire_radius
        )


def _geometry_table(dz, h_src, h_tst, wavelength) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form coefficients of the induced-EMF impedance per axial geometry.

    Row g of dz, h_src, h_tst is one geometry: the test centre height above
    the source centre, and the two half-lengths. Returns (offsets, coefs):
    column g of the (m, G) offsets holds geometry g's weighted axial offsets
    |t| > 0 ascending, and column g of the (3, 2m + z, G) coefs the real and
    imaginary coefficients of Cin + jSi and the imaginary ones of ln x at its
    arguments k(R - |t|), then k(R + |t|), then, if z = 1, k rho. A geometry
    with fewer offsets than the widest is padded at zero weight; z = 0 when
    no geometry weights |t| = 0.

    The source's field is three spherical waves e^{-jkR}/R, from its tips and
    centre; each integrates against the e^{+-jkt} parts of the test current
    to exponential integrals E1(jk(R -+ t)) of the axial offset t (Carter
    1932; Baker and LaGrone 1962). Their coefficients depend on the geometry
    alone, so a pair only evaluates the integrals at the arguments its
    geometry weights: for dipoles side by side with equal lengths h, those
    of |t| = 0 and |t| = 2h.
    """
    # Deferred with `sici` in `_coupling`.
    from scipy.special import cosdg, sindg

    # Every sine and cosine is taken of the phase in degrees, exact at
    # multiples of 90: a half-wave geometry's vanishing coefficients come out
    # as exact zeros, and its columns carrying them are dropped.
    def phase(v):
        return 360.0 * (v / wavelength)

    sin_src, sin_tst = sindg(phase(h_src)), sindg(phase(h_tst))
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

    # Each row's distinct |t| ascending, padded with its smallest;
    # col[g, i, e] is the slot of |t[g, i, e]|.
    abs_t = np.abs(t).reshape(dz.size, 9)
    order = np.argsort(abs_t, axis=1)
    sorted_t = np.take_along_axis(abs_t, order, axis=1)
    rank = np.zeros_like(order)
    rank[:, 1:] = np.cumsum(sorted_t[:, 1:] > sorted_t[:, :-1], axis=1)
    n = rank[:, -1].max() + 1
    col = np.empty_like(rank)
    np.put_along_axis(col, order, rank, axis=1)
    col = col.reshape(t.shape)
    slots = np.repeat(sorted_t[:, :1], n, axis=1)
    np.put_along_axis(slots, rank, sorted_t, axis=1)
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
    weight[:, 2] = -2.0 * cosdg(phase(h_src))
    s = (ETA0 / (4.0 * np.pi * sin_src * sin_tst))[:, None, None] * weight[:, :, None] * [1.0, -1.0]
    d = phase(t[:, :, ::2])
    half_cos, half_sin = 0.5 * s * cosdg(d), 0.5 * s * sindg(d)
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
    coef = np.stack([np.bincount(bins, np.ravel(v), 2 * n * dz.size) for v in values])
    coef = coef.reshape(3, 2, n, dz.size)

    # At |t| = 0, always slot 0, both arguments are k rho: one column with
    # the two summed. A slot's two columns share their Cin + jSi weights up to
    # sign, so slots with |t| > 0 are kept or dropped whole; the kept ones
    # move to the front in ascending order, and the dropped ones pad at zero
    # weight.
    zero = slots[:, 0] == 0
    merged = np.where(zero, coef[:, 0, 0] + coef[:, 1, 0], 0.0)
    coef[:, :, 0, zero] = 0.0
    weighted = coef.any(axis=(0, 1))
    m = max(weighted.sum(axis=0).max(), 1)
    keep = np.argsort(~weighted, axis=0, kind="stable")[:m] * dz.size + np.arange(dz.size)
    coefs = np.empty((3, 2 * m + 1, dz.size))
    coefs[:, :2 * m] = coef.reshape(3, 2, -1).take(keep, axis=2).reshape(3, 2 * m, dz.size)
    coefs[:, 2 * m] = merged
    return slots.T.take(keep), coefs if merged.any() else coefs[:, :2 * m]


def _coupling(rho, offsets, coefs, k) -> np.ndarray:
    """Impedances of (source, test) pairs from their geometries' table columns.

    rho has one entry per pair: the horizontal separation, or the wire radius
    for a self term. offsets and coefs hold the `_geometry_table` columns of
    the pairs, one per pair or a single one that every pair shares.
    """
    # Deferred: loading scipy.special after `import saris.cli` takes another
    # 40-65 ms (2-core host).
    from scipy.special import sici

    n = len(offsets)
    a_re, a_im, b_im = coefs
    # E1(jx) = -gamma - ln x + Cin(x) + j(Si(x) - pi/2); constants cancel
    # between end points. One hypot per offset serves both of its arguments,
    # R - |t| taken as rho^2 / (R + |t|), free of cancellation; the |t| = 0
    # column needs none. At rho = 0 (or rho^2 underflowing) an argument is 0,
    # where Cin + jSi is 0 and ln x is never used (0 stands in for it); with
    # touching tips R + |t| is 0 too. Only then does a slice need the mask.
    with np.errstate(divide="ignore", invalid="ignore"):
        far = np.hypot(rho, offsets) + offsets
        near = rho**2 / far
    x = k * np.concatenate([near, far, np.broadcast_to(rho, (len(a_re) - 2 * n, rho.size))])
    pos = x > 0
    masked = not pos.all()
    if masked:
        x = np.where(pos, x, 1.0)
    si, ci = sici(x)
    log_x = np.log(x)
    cin = np.euler_gamma + log_x - ci
    if masked:
        si, log_x, cin = (np.where(pos, v, 0.0) for v in (si, log_x, cin))
    # Each row's coefficients sum to zero, so values count relative to
    # column 0, the argument every geometry weights first: for distant pairs
    # all x are close and these differences are exact. Real arithmetic and a
    # fixed-order column sum keep a pair's result independent of the batch it
    # shares, zero-weight padding included.
    d_cin, d_si, d_log = cin - cin[0], si - si[0], log_x - log_x[0]
    re = a_re * d_cin - a_im * d_si
    im = a_im * d_cin + a_re * d_si + b_im * d_log
    z_re, z_im = re[0], im[0]
    for r, i in zip(re[1:], im[1:]):
        z_re, z_im = z_re + r, z_im + i
    return z_re + 1j * z_im


def _upper_triangle(k: int):
    """Index arrays (i, j) of the pairs i <= j of k elements, in the row-major
    order of `np.triu_indices(k)` and in chunks of _PAIRS_PER_CALL pairs; each
    chunk's rows come from the row offsets, so no array spans the triangle."""
    rows = np.arange(k + 1)
    # Pair index of (i, i): the rows before i hold k - r pairs each.
    start = rows * k - rows * (rows - 1) // 2
    for lo in range(0, start[k], _PAIRS_PER_CALL):
        p = np.arange(lo, min(lo + _PAIRS_PER_CALL, start[k]))
        first, last = np.searchsorted(start, (p[0], p[-1]), side="right") - 1
        counts = np.diff(np.clip(start[first:last + 2], p[0], p[-1] + 1))
        i = np.repeat(np.arange(first, last + 1), counts)
        yield i, p - start[i] + i


def _check_separations(ip, jp, rho, z, radius, half):
    """Raise GeometryError if two distinct dipoles (ip[q], jp[q]) at horizontal
    separation rho[q] overlap or their wire bodies intersect (collinear with
    overlapping axial extents). Overlaps are checked over all pairs before
    wire bodies, and each error names the first offending pair in the order
    given."""
    rsum = radius[ip] + radius[jp]
    close = np.sqrt(rho**2 + (z[ip] - z[jp]) ** 2) < rsum
    if np.any(close):
        q = int(np.flatnonzero(close)[0])
        raise GeometryError(
            f"distinct dipoles overlap: elements {int(ip[q])} and {int(jp[q])} "
            "have center distance below the sum of wire radii"
        )
    zhi = z + half
    zlo = z - half
    body = (rho < rsum) & (np.minimum(zhi[ip], zhi[jp]) - np.maximum(zlo[ip], zlo[jp]) > 0)
    if np.any(body):
        q = int(np.flatnonzero(body)[0])
        raise GeometryError(
            f"wire bodies intersect: elements {int(ip[q])} and {int(jp[q])} are "
            "collinear with overlapping axial extents"
        )


def _pair_impedances(dipoles: list[Dipole], wavelength: float, chunks):
    """Impedances in ohms of pairs of `dipoles`, yielded as (i, j, z) for each
    chunk (i, j) of index arrays in the iterable `chunks`; a pair with i == j
    is that dipole's self term, with the field evaluated one wire radius off
    the axis.

    `chunks` is walked once. The walk keeps the distinct pairs that sit close
    enough to touch, and after its last chunk `_check_separations` tests them
    in walk order. The per-dipole tables and the geometry table, one column
    per pair of (z, length) kinds, are built once. Of each pair, the dipole
    with the larger (length, z) is the source, so both orders of a pair give
    the same result bit for bit, and a pair's result does not depend on the
    chunk it shares.
    """
    if not 0 < wavelength < math.inf:
        raise ValueError(f"wavelength must be positive and finite, got {wavelength}")
    pos = np.array([d.position for d in dipoles])
    x, y, zc = pos.T.copy()
    length = np.array([d.length for d in dipoles])
    radius = np.array([d.wire_radius for d in dipoles])

    # A pair's axial geometry is fixed by the (z, length) kinds of its source
    # and test. geometry[a, b] numbers the geometry of kinds a and b in
    # ascending (source, test) order; it is symmetric, as the source is the
    # kind with the larger (length, z) either way.
    kinds, kind = np.unique(np.stack([zc, length], axis=1), axis=0, return_inverse=True)
    rank = np.empty(len(kinds), dtype=int)
    rank[np.lexsort((kinds[:, 0], kinds[:, 1]))] = np.arange(len(kinds))
    s, t = np.nonzero(rank[:, None] >= rank[None, :])
    geometry = np.empty((len(kinds), len(kinds)), dtype=int)
    geometry[s, t] = geometry[t, s] = np.arange(s.size)
    offsets, coefs = _geometry_table(
        kinds[t, 0] - kinds[s, 0], 0.5 * kinds[s, 1], 0.5 * kinds[t, 1], wavelength
    )
    k = 2.0 * np.pi / wavelength
    # Either separation test fails only where rho < r_i + r_j <= 2 max r, so
    # keeping the pairs within 4 max r drops none that a test could reject.
    reach = 4.0 * radius.max()
    near = []
    for i, j in chunks:
        rho = np.hypot(x[i] - x[j], y[i] - y[j])
        q = np.flatnonzero(rho < reach)
        q = q[i[q] != j[q]]
        near.append((i[q], j[q], rho[q]))
        own = np.flatnonzero(i == j)
        rho[own] = radius[i[own]]
        # A chunk of one geometry broadcasts its column instead of gathering.
        c = geometry[kind[i], kind[j]] if len(kinds) > 1 else geometry[0]
        c = c[:1] if c.min() == c.max() else c
        yield i, j, _coupling(rho, offsets[:, c], coefs[:, :, c], k)
    ip, jp, rho = (np.concatenate(v) for v in zip(*near))
    _check_separations(ip, jp, rho, zc, radius, 0.5 * length)


def mutual_impedance(a: Dipole, b: Dipole, wavelength: float) -> complex:
    """Mutual impedance in ohms between two z-aligned dipoles.

    If a and b describe the same element, the self-impedance is returned with
    the field evaluated one wire radius off the axis. The result is exactly
    symmetric in its arguments.
    """
    pair = (np.array([0]), np.array([0 if a.same_geometry(b) else 1]))
    ((_, _, z),) = _pair_impedances([a, b], wavelength, [pair])
    return complex(z[0])


def _block(rows: str, cols: str) -> property:
    """A named block of the port matrix as a writable view of Z; rows and
    cols name port groups of `ImpedanceSet._ports`."""
    return property(lambda self: self.Z[self._ports(rows), self._ports(cols)])


@dataclass
class ImpedanceSet:
    """Port description of one deployment: the reciprocal K x K port matrix Z,
    held once, and the diagonal terminations that close it.

    Z orders its ports [TX, RX, ESO, RIS]: m_tx transmit, l_rx receive and,
    last, n_ris RIS ports; the ESO ports are the rest. Each named block is a
    view of Z, so writing into a block writes Z. Its letters name the row and
    column groups: T and R for the transmit and receive ports, O and S for
    the ESO and RIS ports, and E for both (the environment, ESOs first).

    z_g, z_l and z_us are the termination diagonals at the transmit, receive
    and ESO ports; Z_G, Z_L and Z_US return them as square matrices.
    """

    Z: np.ndarray
    m_tx: int
    l_rx: int
    n_ris: int
    z_g: np.ndarray
    z_l: np.ndarray
    z_us: np.ndarray

    Z_TT = _block("T", "T")
    Z_RR = _block("R", "R")
    Z_RT = _block("R", "T")
    Z_RE = _block("R", "E")
    Z_ET = _block("E", "T")
    Z_EE = _block("E", "E")
    Z_OO = _block("O", "O")
    Z_OS = _block("O", "S")
    Z_SO = _block("S", "O")
    Z_SS = _block("S", "S")
    Z_RO = _block("R", "O")
    Z_RS = _block("R", "S")
    Z_OT = _block("O", "T")
    Z_ST = _block("S", "T")

    @property
    def n_eso(self) -> int:
        return len(self.Z) - self.m_tx - self.l_rx - self.n_ris

    def _ports(self, group: str) -> slice:
        """Indices of a port group in Z."""
        o = self.m_tx + self.l_rx
        s = len(self.Z) - self.n_ris
        return {
            "T": slice(0, self.m_tx), "R": slice(self.m_tx, o), "E": slice(o, None),
            "O": slice(o, s), "S": slice(s, None),
        }[group]

    @property
    def Z_G(self) -> np.ndarray:
        return np.diag(self.z_g)

    @property
    def Z_L(self) -> np.ndarray:
        return np.diag(self.z_l)

    @property
    def Z_US(self) -> np.ndarray:
        return np.diag(self.z_us)

    def full_matrix(self) -> np.ndarray:
        """The port matrix Z itself, in port order [TX, RX, ESO, RIS]."""
        return self.Z

    def validate(self):
        """Raise ValueError unless Z is square, the partition fits it, each
        termination diagonal has one entry per port it closes, and Z is
        reciprocal: ||Z - Z^T|| / ||Z|| < 1e-10 in the Frobenius norm."""
        shape = self.Z.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"Z has shape {shape}, expected a square matrix")
        if min(self.m_tx, self.l_rx, self.n_ris, self.n_eso) < 0:
            raise ValueError(
                f"partition m_tx={self.m_tx}, l_rx={self.l_rx}, n_ris={self.n_ris} "
                f"does not fit {shape[0]} ports"
            )
        for name, count in (("z_g", self.m_tx), ("z_l", self.l_rx), ("z_us", self.n_eso)):
            got = np.shape(getattr(self, name))
            if got != (count,):
                raise ValueError(f"{name} has shape {got}, expected ({count},)")
        # An exactly symmetric Z, as assembly builds, forms no difference;
        # comparing in row blocks keeps the temporaries to a few rows of Z.
        blocks = [slice(lo, lo + _ROWS_PER_BLOCK) for lo in range(0, shape[0], _ROWS_PER_BLOCK)]
        if not all(np.array_equal(self.Z[b], self.Z[:, b].T) for b in blocks):
            diff = [np.linalg.norm(self.Z[b] - self.Z[:, b].T) for b in blocks]
            asym = np.linalg.norm(diff) / np.linalg.norm(self.Z)
            if asym >= 1e-10:
                raise ValueError(f"impedance matrix asymmetry {asym:.3e} exceeds 1.0e-10")


def _termination_diagonal(value, count, name) -> np.ndarray:
    """Diagonal of a termination given as a scalar or one value per port; a
    NaN entry is rejected."""
    value = np.array(value, dtype=complex)
    if value.ndim == 0:
        value = np.full(count, value)
    elif value.shape != (count,):
        raise ValueError(f"{name} has shape {value.shape}, expected a scalar or ({count},)")
    if np.isnan(value).any():
        raise ValueError(f"{name} has a NaN entry")
    return value


def assemble_impedances(
    dipoles: list[Dipole],
    wavelength: float,
    z_g=50.0,
    z_l=50.0,
    z_us=0.0,
) -> ImpedanceSet:
    """Build the port description of a full deployment.

    Dipoles may arrive in any order; they are grouped by role with ordering
    preserved inside each role. The K x K port matrix is filled once and
    becomes `ImpedanceSet.Z` as it is, with no block copies. One walk over
    the pairs on and above the diagonal computes them chunk by chunk with the
    pair routine that `mutual_impedance` uses, so they equal its values, and
    writes each at (i, j) and (j, i); beyond Z, assembly holds a few MB. A
    GeometryError for touching wires is raised when the walk ends. Each
    termination (z_g, z_l, z_us) is a scalar or one value per port, and is
    kept as a diagonal.
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

    full = np.empty((kk, kk), dtype=complex)
    flat = full.reshape(-1)
    for i, j, z in _pair_impedances(ordered, wavelength, _upper_triangle(kk)):
        flat[i * kk + j] = z
        flat[j * kk + i] = z

    zset = ImpedanceSet(
        Z=full,
        m_tx=m,
        l_rx=l,
        n_ris=n,
        z_g=_termination_diagonal(z_g, m, "Z_G"),
        z_l=_termination_diagonal(z_l, l, "Z_L"),
        z_us=_termination_diagonal(z_us, ns, "Z_US"),
    )
    zset.validate()
    return zset
