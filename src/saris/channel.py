"""End-to-end channel of an impedance-coupled deployment.

The scatterer (ESO) block is eliminated once per deployment by a Schur
complement, leaving a compact folded form whose only free variable is the
diagonal RIS load matrix. Evaluating the channel for a new load setting then
costs one LU factorization of an N x N matrix, which also serves the load
sensitivities and the trust bound of the optimizer. The interaction-free
variant, which drops the coupling between RIS cells and scatterers, shares the
same evaluation path so that model-gap comparisons are apples to apples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from saris.dipoles import ImpedanceSet

COND_LIMIT = 1e12

# Columns per block of `_off_diagonal_sums`; its |a| temporaries stay within
# this many columns of the matrix.
_NORM_COLUMNS = 256

_getrf, _gecon, _getrs, _laswp = get_lapack_funcs(
    ("getrf", "gecon", "getrs", "laswp"), dtype=np.complex128
)
_trsv = get_blas_funcs("trsv", dtype=np.complex128)


class SingularBlockError(RuntimeError):
    """An impedance block is numerically singular."""

    def __init__(self, block: str, cond: float):
        self.block = block
        self.cond = cond
        super().__init__(
            f"block {block} is numerically singular "
            f"(condition estimate {cond:.3e} exceeds {COND_LIMIT:.1e})"
        )

    def __reduce__(self):
        # Rebuilt from its fields, so a worker process can send it back.
        return SingularBlockError, (self.block, self.cond)


@dataclass
class RisLoads:
    """Diagonal RIS termination r0 + j x_n with reactances confined to an
    interval; a surface has at least one cell, so an empty x raises
    ValueError."""

    r0: float
    x: np.ndarray
    q_interval: tuple[float, float]

    def __post_init__(self):
        x = self.x
        if not (type(x) is np.ndarray and x.ndim == 1 and x.dtype == np.float64):
            self.x = x = np.atleast_1d(np.asarray(x, dtype=float))
        if not x.size:
            raise ValueError("the surface has no RIS cell")
        lo, hi = self.q_interval
        if not lo <= hi:
            raise ValueError(f"empty reactance interval [{lo}, {hi}]")
        # NaN and +-inf in x reach its min or max, so one pass serves the
        # finite check and the range check; comparisons with NaN are false,
        # so the range check alone would pass it. The ufunc reductions give
        # what x.min() and x.max() give, NaN included, without their method
        # wrappers.
        x_min, x_max = np.minimum.reduce(x), np.maximum.reduce(x)
        if not (math.isfinite(self.r0) and math.isfinite(x_min) and math.isfinite(x_max)):
            raise ValueError("load resistance and reactances must be finite")
        if self.r0 < 0:
            raise ValueError(f"load resistance must be non-negative, got {self.r0}")
        if x_min < lo or x_max > hi:
            raise ValueError(f"reactance outside [{lo}, {hi}]: range [{x_min}, {x_max}]")

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def z_diagonal(self) -> np.ndarray:
        """Diagonal of Z_RIS; the real part is r0 by construction."""
        return self.r0 + 1j * self.x


@dataclass(frozen=True)
class FoldedChannel:
    """Channel quantities left after eliminating the ESO block.

    H_E2E(Z_RIS) = Z_RL [Z_ROT - Z_ROS (Z_SS + Z_SOS + Z_RIS)^-1 Z_SOT] Z_TG,
    and H_d = Z_RL Z_ROT Z_TG is the load-independent part.

    The load-independent pieces are formed once here: the factors
    v = Z_RL Z_ROS and B = Z_SOT Z_TG of the RIS term, the inner block
    A = Z_SS + Z_SOS (Fortran-ordered), to which each evaluation adds only the
    load diagonal, and A_off[j] = sum_{i != j} |A_ij|, which gives the 1-norm
    of every S = A + Z_RIS in O(N). A_off is summed by column blocks, so no
    N x N |A| is made. Their six source blocks are made read-only and the
    fields cannot be rebound, so none of them goes stale. Only A is
    Fortran-ordered; the source blocks keep the layout they are given, and
    from `fold_esos` Z_SS is a read-only view of `z.Z`. A surface has at
    least one cell, so an empty Z_SS raises ValueError.
    """

    Z_ROT: np.ndarray
    Z_ROS: np.ndarray
    Z_SOS: np.ndarray
    Z_SOT: np.ndarray
    Z_RL: np.ndarray
    Z_TG: np.ndarray
    H_d: np.ndarray
    Z_SS: np.ndarray
    v: np.ndarray = field(init=False, repr=False)
    B: np.ndarray = field(init=False, repr=False)
    A: np.ndarray = field(init=False, repr=False)
    A_off: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.Z_SS.size:
            raise ValueError("the surface has no RIS cell")
        for block in (self.Z_ROS, self.Z_SOT, self.Z_RL, self.Z_TG, self.Z_SS, self.Z_SOS):
            block.flags.writeable = False
        v = self.Z_RL @ self.Z_ROS
        # Fortran order, so the solves against S copy it without transposing.
        b = np.asfortranarray(self.Z_SOT @ self.Z_TG)
        a = np.add(self.Z_SS, self.Z_SOS, order="F")
        a_off = _off_diagonal_sums(a)
        for derived in (v, b, a, a_off):
            derived.flags.writeable = False
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "A_off", a_off)

    @property
    def l_rx(self) -> int:
        return self.Z_ROT.shape[0]

    @property
    def m_tx(self) -> int:
        return self.Z_ROT.shape[1]

    @property
    def n_ris(self) -> int:
        return self.Z_SS.shape[0]


def _off_diagonal_sums(a: np.ndarray) -> np.ndarray:
    """sum_{i != j} |a_ij| for every column j of the square `a`, over blocks
    of columns, so no |a| copy of the whole matrix is made. A NaN or inf off
    the diagonal of column j makes entry j non-finite."""
    sums = np.empty(len(a))
    for lo in range(0, len(a), _NORM_COLUMNS):
        cols = slice(lo, lo + _NORM_COLUMNS)
        abs_block = np.abs(a[:, cols])
        # Column lo + j holds its diagonal entry in row lo + j.
        np.fill_diagonal(abs_block[lo:], 0.0)
        abs_block.sum(axis=0, out=sums[cols])
    return sums


def _guarded_lu(a: np.ndarray, d, name: str, a_off: np.ndarray | None = None):
    """LU factors (lu, piv) of s = a + diag(d), rejecting a near-singular s
    by a reciprocal condition estimate. s is formed in a Fortran-ordered copy
    that getrf factors in place; `a` is never written. The 1-norm of s is
    max_j (a_off[j] + |s_jj|), with a_off the off-diagonal column sums of
    `a`, which the caller passes when it already has them."""
    s = a.copy(order="F")
    # The diagonal as a strided view of the freshly made Fortran buffer.
    diagonal = s.reshape(-1, order="F")[:: len(s) + 1]
    diagonal += d
    if a_off is None:
        a_off = _off_diagonal_sums(s)
    # np.maximum.reduce propagates NaN wherever it sits, unlike the builtin
    # max, so a NaN on or off the diagonal reaches anorm.
    anorm = np.maximum.reduce(a_off + np.abs(diagonal))
    if not math.isfinite(anorm):
        raise SingularBlockError(name, np.inf)
    # An exactly singular factor (getrf info > 0) has rcond 0 and is reported
    # below as a typed error. getrf(a, overwrite_a) and gecon(lu, anorm, norm)
    # are called positionally: at N = 16 keyword parsing adds 0.5-1 us to
    # each call.
    lu, piv, _ = _getrf(s, 1)
    rcond, info = _gecon(lu, anorm, "1")
    if info != 0 or rcond <= 0 or not math.isfinite(rcond) or 1.0 / rcond > COND_LIMIT:
        raise SingularBlockError(name, np.inf if rcond <= 0 else 1.0 / rcond)
    return lu, piv


def _lu_solve(factors, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """a^-1 b, a^-T b or a^-H b for trans 0, 1, 2 from _guarded_lu factors;
    LAPACK getrs directly skips the per-call checks of scipy's lu_solve."""
    lu, piv = factors
    # getrs(lu, piv, b, trans), positionally like every hot LAPACK call here.
    return _getrs(lu, piv, b, trans)[0]


def fold_esos(z: ImpedanceSet) -> FoldedChannel:
    """Eliminate the ESO block from the multiport description.

    Every block is applied through LU solves; a condition estimate above
    COND_LIMIT raises SingularBlockError naming the offending block. The
    blocks are read as views of `z.Z`; `_guarded_lu` forms Z_OO + Z_US once,
    as a Fortran-ordered copy of Z_OO with z_us added on its diagonal, which
    getrf then factors in place.

    The folded channel's Z_SS is a read-only view of `z.Z`, not a copy: no
    stage writes `z.Z` after the fold, and `FoldedChannel` reads Z_SS only to
    form A. Z_SOS is made in the one buffer of its product, negated in
    place.
    """
    ns = z.n_eso
    m, l = z.m_tx, z.l_rx
    if ns:
        lu = _guarded_lu(z.Z_OO, z.z_us, "Z_OO + Z_US")
        x_sol = _lu_solve(lu, z.Z_OT)
        y_sol = _lu_solve(lu, z.Z_OS)
    else:
        x_sol = np.zeros((0, m), dtype=complex)
        y_sol = np.zeros((0, z.n_ris), dtype=complex)
    z_rot = z.Z_RT - z.Z_RO @ x_sol
    z_ros = z.Z_RO @ y_sol - z.Z_RS
    z_sos = z.Z_SO @ y_sol
    np.negative(z_sos, out=z_sos)
    z_sot = z.Z_SO @ x_sol - z.Z_ST

    if np.any(z.z_l == 0):
        raise SingularBlockError("Z_L", np.inf)
    lu_rl = _guarded_lu(z.Z_RR / z.z_l[None, :], 1.0, "I + Z_RR Z_L^-1")
    z_rl = _lu_solve(lu_rl, np.eye(l, dtype=complex))
    z_tg = _lu_solve(_guarded_lu(z.Z_TT, z.z_g, "Z_TT + Z_G"), np.eye(m, dtype=complex))

    return FoldedChannel(
        Z_ROT=z_rot,
        Z_ROS=z_ros,
        Z_SOS=z_sos,
        Z_SOT=z_sot,
        Z_RL=z_rl,
        Z_TG=z_tg,
        H_d=z_rl @ z_rot @ z_tg,
        Z_SS=z.Z_SS,
    )


class LoadEvaluation:
    """The channel h = H_d - v a_mat at one load setting, from one guarded LU
    of S = Z_SS + Z_SOS + Z_RIS, with v = Z_RL Z_ROS and a_mat = S^-1 B,
    B = Z_SOT Z_TG (both from the folded channel). Other uses of S^-1 go
    through solve and solve_vector, so the inverse is never formed. Only the
    diagonal of S changes with the loads, so the guarded LU takes the 1-norm
    of S from the folded A_off and needs no pass over the whole matrix."""

    def __init__(self, f: FoldedChannel, loads: RisLoads):
        n = loads.n
        if n != f.n_ris:
            raise ValueError(f"loads have {n} entries, channel expects {f.n_ris}")
        self.loads = loads
        self._lu = _guarded_lu(f.A, loads.z_diagonal, "Z_SS + Z_SOS + Z_RIS", f.A_off)
        self.v = f.v
        self.a_mat = self.solve(f.B)
        self.h = f.H_d - self.v @ self.a_mat

    def solve(self, b: np.ndarray, trans: int = 0) -> np.ndarray:
        """S^-1 b (trans=0), S^-T b (trans=1) or S^-H b (trans=2) as a new
        array, through getrs; it serves blocks, and `solve_vector` serves
        vectors."""
        return _lu_solve(self._lu, b, trans)

    def solve_vector(self, b: np.ndarray, trans: int) -> np.ndarray:
        """`solve` for a vector b: the row interchanges and two BLAS trsv
        calls, because getrs packs the whole factor for trsm on every call,
        which costs several triangular solves at N = 256. The power iteration
        for ||S^-1|| calls it."""
        lu, piv = self._lu
        # With S = P L U, S^-1 b = U^-1 L^-1 P^T b and S^-T b = P L^-T U^-T b
        # (likewise for ^-H). trsv(a, x, incx, offx, lower, trans, diag,
        # overwrite_x) and laswp(a, piv, k1, k2, off, inc, overwrite_a) are
        # called positionally because keywords cost as much as the solve itself
        # at small N. Only the first call copies b; the rest work in place.
        if trans:
            y = _trsv(lu, b, 1, 0, 0, trans, 0)
            y = _trsv(lu, y, 1, 0, 1, trans, 1, 1)
            return _laswp(y, piv, 0, len(piv) - 1, 0, -1, 1)
        y = _laswp(b, piv)
        y = _trsv(lu, y, 1, 0, 1, 0, 1, 1)
        return _trsv(lu, y, 1, 0, 0, 0, 0, 1)


def end_to_end_channel(f: FoldedChannel, loads: RisLoads) -> np.ndarray:
    """Receive-side channel (L x M) for the given RIS loads."""
    return LoadEvaluation(f, loads).h


def interaction_free(f: FoldedChannel, z: ImpedanceSet) -> FoldedChannel:
    """Folded quantities of the additive model that ignores the coupling
    between RIS cells and scatterers: the full model `f` with its three
    scatterer-coupled blocks replaced by the bare ones. It shares every other
    block, Z_ROT (and hence H_d) and Z_SS included. Its Z_SOS is a read-only
    zero view with no N x N buffer behind it."""
    return replace(
        f,
        Z_ROS=-z.Z_RS,
        Z_SOS=np.broadcast_to(np.zeros((), dtype=complex), f.Z_SS.shape),
        Z_SOT=-z.Z_ST,
    )
