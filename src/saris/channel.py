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

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from saris.dipoles import ImpedanceSet

COND_LIMIT = 1e12

_getrf, _gecon, _getrs = get_lapack_funcs(("getrf", "gecon", "getrs"), dtype=np.complex128)


class SingularBlockError(RuntimeError):
    """An impedance block is numerically singular."""

    def __init__(self, block: str, cond: float):
        self.block = block
        self.cond = cond
        super().__init__(
            f"block {block} is numerically singular "
            f"(condition estimate {cond:.3e} exceeds {COND_LIMIT:.1e})"
        )


@dataclass
class RisLoads:
    """Diagonal RIS termination r0 + j x_n with reactances confined to an
    interval."""

    r0: float
    x: np.ndarray
    q_interval: tuple[float, float]

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float))
        lo, hi = self.q_interval
        if not lo <= hi:
            raise ValueError(f"empty reactance interval [{lo}, {hi}]")
        # Comparisons with NaN are false, so the range checks below pass it.
        if not np.isfinite(self.r0) or not np.all(np.isfinite(self.x)):
            raise ValueError("load resistance and reactances must be finite")
        if self.r0 < 0:
            raise ValueError(f"load resistance must be non-negative, got {self.r0}")
        if self.x.size and (self.x.min() < lo or self.x.max() > hi):
            raise ValueError(
                f"reactance outside [{lo}, {hi}]: range "
                f"[{self.x.min()}, {self.x.max()}]"
            )

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def z_diagonal(self) -> np.ndarray:
        """Diagonal of Z_RIS; the real part is r0 by construction."""
        return self.r0 + 1j * self.x

    def matrix(self) -> np.ndarray:
        return np.diag(self.z_diagonal)


@dataclass
class FoldedChannel:
    """Channel quantities left after eliminating the ESO block.

    H_E2E(Z_RIS) = Z_RL [Z_ROT - Z_ROS (Z_SS + Z_SOS + Z_RIS)^-1 Z_SOT] Z_TG,
    and H_d = Z_RL Z_ROT Z_TG is the load-independent part. Z_SS rides along
    because every evaluation needs it next to Z_SOS.
    """

    Z_ROT: np.ndarray
    Z_ROS: np.ndarray
    Z_SOS: np.ndarray
    Z_SOT: np.ndarray
    Z_RL: np.ndarray
    Z_TG: np.ndarray
    H_d: np.ndarray
    Z_SS: np.ndarray

    @property
    def l_rx(self) -> int:
        return self.Z_ROT.shape[0]

    @property
    def m_tx(self) -> int:
        return self.Z_ROT.shape[1]

    @property
    def n_ris(self) -> int:
        return self.Z_SS.shape[0]


def _guarded_lu(a: np.ndarray, name: str):
    """LU factors (lu, piv) of a square matrix, rejecting near-singular blocks
    by a reciprocal condition estimate. A Fortran-ordered complex `a` is
    factored in place, so callers pass a temporary."""
    anorm = np.linalg.norm(a, 1)
    if not np.isfinite(anorm):
        raise SingularBlockError(name, np.inf)
    # An exactly singular factor (getrf info > 0) has rcond 0 and is reported
    # below as a typed error.
    lu, piv, _ = _getrf(a, overwrite_a=True)
    rcond, info = _gecon(lu, anorm, norm="1")
    if info != 0 or rcond <= 0 or not np.isfinite(rcond) or 1.0 / rcond > COND_LIMIT:
        raise SingularBlockError(name, np.inf if rcond <= 0 else 1.0 / rcond)
    return lu, piv


def _lu_solve(factors, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """a^-1 b, a^-T b or a^-H b for trans 0, 1, 2 from _guarded_lu factors;
    LAPACK getrs directly skips the per-call checks of scipy's lu_solve."""
    lu, piv = factors
    x, _ = _getrs(lu, piv, b, trans=trans)
    return x


def fold_esos(z: ImpedanceSet) -> FoldedChannel:
    """Eliminate the ESO block from the multiport description.

    Every block is applied through LU solves; a condition estimate above
    COND_LIMIT raises SingularBlockError naming the offending block.
    """
    ns = z.n_eso
    m, l = z.m_tx, z.l_rx
    if ns:
        lu = _guarded_lu(z.Z_OO + z.Z_US, "Z_OO + Z_US")
        x_sol = _lu_solve(lu, z.Z_OT)
        y_sol = _lu_solve(lu, z.Z_OS)
    else:
        x_sol = np.zeros((0, m), dtype=complex)
        y_sol = np.zeros((0, z.n_ris), dtype=complex)
    z_rot = z.Z_RT - z.Z_RO @ x_sol
    z_ros = z.Z_RO @ y_sol - z.Z_RS
    z_sos = np.asfortranarray(-(z.Z_SO @ y_sol))
    z_sot = z.Z_SO @ x_sol - z.Z_ST

    zl_diag = np.diag(z.Z_L)
    if np.any(zl_diag == 0):
        raise SingularBlockError("Z_L", np.inf)
    a_rl = np.eye(l, dtype=complex) + z.Z_RR / zl_diag[None, :]
    z_rl = _lu_solve(_guarded_lu(a_rl, "I + Z_RR Z_L^-1"), np.eye(l, dtype=complex))
    z_tg = _lu_solve(_guarded_lu(z.Z_TT + z.Z_G, "Z_TT + Z_G"), np.eye(m, dtype=complex))

    return FoldedChannel(
        Z_ROT=z_rot,
        Z_ROS=z_ros,
        Z_SOS=z_sos,
        Z_SOT=z_sot,
        Z_RL=z_rl,
        Z_TG=z_tg,
        H_d=z_rl @ z_rot @ z_tg,
        Z_SS=np.array(z.Z_SS, order="F"),
    )


def scatter_matrix(f: FoldedChannel, loads: RisLoads) -> np.ndarray:
    """The load-dependent inner matrix Z_SS + Z_SOS + Z_RIS, Fortran-ordered
    as LAPACK wants it."""
    s = np.add(f.Z_SS, f.Z_SOS, order="F")
    s[np.diag_indices_from(s)] += loads.z_diagonal
    return s


class LoadEvaluation:
    """The channel h = H_d + h_ris at one load setting, from one guarded LU of
    S = Z_SS + Z_SOS + Z_RIS: h_ris = -v a_mat with v = Z_RL Z_ROS and
    a_mat = S^-1 Z_SOT Z_TG. Other uses of S^-1 go through solve, so the
    inverse is never formed."""

    def __init__(self, f: FoldedChannel, loads: RisLoads):
        if loads.n != f.n_ris:
            raise ValueError(f"loads have {loads.n} entries, channel expects {f.n_ris}")
        self.loads = loads
        self._lu = (
            _guarded_lu(scatter_matrix(f, loads), "Z_SS + Z_SOS + Z_RIS") if loads.n else None
        )
        self.v = f.Z_RL @ f.Z_ROS
        self.a_mat = self.solve(f.Z_SOT @ f.Z_TG)
        self.h_ris = -(self.v @ self.a_mat)
        self.h = f.H_d + self.h_ris

    def solve(self, b: np.ndarray, trans: int = 0) -> np.ndarray:
        """S^-1 b (trans=0), S^-T b (trans=1) or S^-H b (trans=2)."""
        return b if self._lu is None else _lu_solve(self._lu, b, trans)


def end_to_end_channel(f: FoldedChannel, loads: RisLoads) -> np.ndarray:
    """Receive-side channel (L x M) for the given RIS loads."""
    return LoadEvaluation(f, loads).h


def interaction_free(f: FoldedChannel, z: ImpedanceSet) -> FoldedChannel:
    """Folded quantities of the additive model that ignores the coupling
    between RIS cells and scatterers. Shares Z_ROT (and hence H_d) with the
    full model; the RIS-dependent term reverts to the bare blocks."""
    n = z.n_ris
    return FoldedChannel(
        Z_ROT=f.Z_ROT,
        Z_ROS=-z.Z_RS,
        Z_SOS=np.zeros((n, n), dtype=complex, order="F"),
        Z_SOT=-z.Z_ST,
        Z_RL=f.Z_RL,
        Z_TG=f.Z_TG,
        H_d=f.H_d,
        Z_SS=np.array(z.Z_SS, order="F"),
    )


def mismatched_channel(f: FoldedChannel, z: ImpedanceSet, loads: RisLoads) -> np.ndarray:
    """Channel predicted by the interaction-free model for the given loads."""
    return end_to_end_channel(interaction_free(f, z), loads)
