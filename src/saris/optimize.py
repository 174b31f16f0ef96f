"""Alternating optimization of transmit precoder and RIS load reactances.

The objective is the sum MSE surrogate of the per-user rates. The precoder
subproblem has a regularized closed form. The load subproblem linearizes the
channel in a small diagonal perturbation via a first-order Neumann expansion,
solves the resulting regularized least squares for the perturbation, and
scales it so the expansion stays trustworthy; only the imaginary part is
applied and clamped to the feasible reactance interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from saris.channel import (
    FoldedChannel,
    LoadEvaluation,
    RisLoads,
    end_to_end_channel,
    interaction_free,
)
from saris.dipoles import ImpedanceSet

_herk = get_blas_funcs("herk", dtype=np.complex128)
_potrf, _potrs = get_lapack_funcs(("potrf", "potrs"), dtype=np.complex128)


class DegenerateChannelError(ValueError):
    """The channel matrix is identically zero."""


class StaleStateError(RuntimeError):
    """The state's load evaluation no longer corresponds to its loads."""


@dataclass
class OptimizerConfig:
    power: float = 1.0
    sigma_n2: float = 1e-11
    epsilon: float = 1e-4
    max_iter: int = 500
    q_interval: tuple[float, float] = (-302.50, -19.66)
    r0: float = 0.2
    x_init: np.ndarray | None = None

    def __post_init__(self):
        if not self.power > 0:
            raise ValueError(f"power must be positive, got {self.power}")
        if not self.sigma_n2 > 0:
            raise ValueError(f"sigma_n2 must be positive, got {self.sigma_n2}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")

    def initial_reactances(self, n: int) -> np.ndarray:
        if self.x_init is None:
            return np.full(n, 0.5 * (self.q_interval[0] + self.q_interval[1]))
        x = np.atleast_1d(np.asarray(self.x_init, dtype=float))
        if x.size == 1:
            return np.full(n, float(x[0]))
        if x.size != n:
            raise ValueError(f"x_init has {x.size} entries, expected {n}")
        return x.copy()


@dataclass
class OptimizerState:
    """Carrier of one optimization run: current iterate plus its history."""

    W: np.ndarray
    loads: RisLoads
    evaluation: LoadEvaluation
    smse_trace: list[float] = field(default_factory=list)
    rate_trace: list[float] = field(default_factory=list)
    iteration: int = 0
    converged: bool = False
    g_norm: float = 0.0  # ||S^-1|| for the S that evaluation factors
    # Per-iteration diagnostics used by the acceptance checks. guard_trace
    # holds max|delta_n| * g_norm of the applied step; halving_trace counts how
    # often the step was halved to keep the objective non-increasing.
    guard_trace: list[float] = field(default_factory=list)
    halving_trace: list[int] = field(default_factory=list)
    w_residual_trace: list[float] = field(default_factory=list)
    w_power_error_trace: list[float] = field(default_factory=list)
    feasible_trace: list[bool] = field(default_factory=list)
    final_smse: float = float("nan")
    final_sum_rate: float = float("nan")


@dataclass
class DeltaStep:
    """Per-user linearized channel factors and the load-perturbation solve.

    h_bar_per_user[l] stacks the N load-sensitivity rows on top of the
    channel row at the expansion point ((N+1) x M). b, delta_tilde, and delta
    are filled in by solve_delta.
    """

    h_bar_per_user: list[np.ndarray]
    b: np.ndarray | None = None
    delta_tilde: np.ndarray | None = None
    delta: np.ndarray | None = None


def smse(H_d: np.ndarray, H_ris: np.ndarray, W: np.ndarray, sigma_n2: float) -> float:
    """Sum MSE of all users for total channel H_d + H_ris and precoder W."""
    h = H_d + H_ris
    l_rx = h.shape[0]
    e = h @ W
    return float(
        np.sum(np.abs(e) ** 2) - 2.0 * np.real(np.trace(e)) + l_rx * (1.0 + sigma_n2)
    )


def sum_rate(H: np.ndarray, W: np.ndarray, sigma_n2: float) -> float:
    """Sum of per-user spectral efficiencies in bits/s/Hz."""
    p = np.abs(H @ W) ** 2
    desired = np.diag(p)
    interference = p.sum(axis=1) - desired
    sinr = desired / (interference + sigma_n2)
    return float(np.sum(np.log2(1.0 + sinr)))


def _precoder_solve(H: np.ndarray, power: float, sigma_n2: float):
    """(optimal_precoder, precoder_residual) from one solve."""
    l_rx, m_tx = H.shape
    if not np.any(H):
        raise DegenerateChannelError("channel matrix is zero")
    h_h = H.conj().T
    a = h_h @ H + (l_rx * sigma_n2 / power) * np.eye(m_tx)
    w_bar = np.linalg.solve(a, h_h)
    residual = float(np.linalg.norm(a @ w_bar - h_h) / np.linalg.norm(H))
    return np.sqrt(power) * w_bar / np.linalg.norm(w_bar), residual


def optimal_precoder(H: np.ndarray, power: float, sigma_n2: float) -> np.ndarray:
    """Regularized closed-form precoder scaled to the full power budget."""
    return _precoder_solve(H, power, sigma_n2)[0]


def precoder_residual(H: np.ndarray, power: float, sigma_n2: float) -> float:
    """Stationarity residual of the precoder normal equations, relative to
    the channel norm."""
    return _precoder_solve(H, power, sigma_n2)[1]


def _vec_norm(v: np.ndarray) -> float:
    """Euclidean norm of a complex vector from one BLAS dot product."""
    return np.sqrt(np.vdot(v, v).real)


def _power_norm(apply, n: int, tol: float = 1e-6, max_iter: int = 200, v0=None):
    """Spectral norm of an n x n operator by power iteration; apply(v, trans)
    returns A v for trans=0 and A^H v for trans=2. Returns (norm, vector) so
    callers can warm-start the next estimate."""
    if n == 0:
        return 0.0, np.zeros(0, dtype=complex)
    if v0 is None or not np.any(v0):
        v = np.ones(n, dtype=complex) / np.sqrt(n)
    else:
        v = v0 / _vec_norm(v0)
    sigma = 0.0
    for _ in range(max_iter):
        av = apply(v, 0)
        sigma_new = _vec_norm(av)
        if sigma_new == 0.0:
            return 0.0, v
        v = apply(av, 2)
        v_norm = _vec_norm(v)
        if v_norm == 0.0:
            return float(sigma_new), av / sigma_new
        v = v / v_norm
        if abs(sigma_new - sigma) <= tol * sigma_new:
            sigma = sigma_new
            break
        sigma = sigma_new
    return float(sigma), v


def spectral_norm(a: np.ndarray, tol: float = 1e-6, max_iter: int = 200) -> float:
    """Spectral norm of a dense square matrix by power iteration."""
    return _power_norm(lambda v, t: (a.conj().T if t else a) @ v, len(a), tol, max_iter)[0]


def build_delta_system(f: FoldedChannel, state: OptimizerState) -> DeltaStep:
    """Per-user factors of the channel linearized at the current loads.

    The sensitivity rows need u = v S^-1 (see LoadEvaluation): one transposed
    solve with the factors of state.evaluation. Raises StaleStateError if
    state.evaluation belongs to other loads than state currently holds.
    """
    ev = state.evaluation
    if not np.array_equal(ev.loads.x, state.loads.x):
        raise StaleStateError("state.evaluation does not correspond to state.loads")
    u = ev.solve(ev.v.T, 1).T
    return DeltaStep(
        h_bar_per_user=[
            np.vstack([u[l][:, None] * ev.a_mat, ev.h[l][None, :]]) for l in range(f.l_rx)
        ]
    )


def solve_delta(ds: DeltaStep, W: np.ndarray, sigma_n2: float, g_norm: float) -> np.ndarray:
    """Load perturbation from the linearized objective.

    A zero right-hand side (stationary point) returns the zero vector, which
    the outer loop treats as convergence. Otherwise the perturbation is
    scaled so its largest entry sits exactly at the trust bound 1/g_norm.
    """
    if not g_norm > 0:
        raise ValueError(f"g_norm must be positive, got {g_norm}")
    n = ds.h_bar_per_user[0].shape[0] - 1
    if n == 0:
        # BLAS and LAPACK wrappers reject empty operands.
        ds.b = ds.delta_tilde = ds.delta = np.zeros(0, dtype=complex)
        return ds.delta
    l_rx = len(ds.h_bar_per_user)
    ww_h = W @ W.conj().T
    b = np.zeros(n, dtype=complex)
    for l in range(l_rx):
        h_r = ds.h_bar_per_user[l][:-1]
        h_d_row = ds.h_bar_per_user[l][-1]
        b += h_r @ W[:, l] - h_r @ (ww_h @ h_d_row.conj())
    # The normal matrix sigma^2 I + T T^H, T = [h_r,l W]_l (N x L^2), from one
    # herk into the lower triangle of a Fortran-ordered buffer.
    t = np.hstack([h_bar[:-1] @ W for h_bar in ds.h_bar_per_user])
    gram = np.zeros((n, n), dtype=complex, order="F")
    gram[np.diag_indices(n)] = sigma_n2
    gram = _herk(1.0, t, beta=1.0, c=gram, lower=1, overwrite_c=1)
    # A non-finite T or sigma^2 shows on the diagonal, which bounds every
    # other entry of the normal matrix.
    if not (np.isfinite(gram.diagonal()).all() and np.isfinite(b).all()):
        raise ValueError("load system has non-finite entries")
    chol, info = _potrf(gram, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"load system is not positive definite (minor {info})")
    delta_tilde, _ = _potrs(chol, b, lower=1)
    ds.b = b
    ds.delta_tilde = delta_tilde
    peak = np.max(np.abs(delta_tilde))
    if peak == 0.0:
        ds.delta = np.zeros(n, dtype=complex)
    else:
        ds.delta = delta_tilde / (peak * g_norm)
    return ds.delta


_MAX_HALVINGS = 60


def saris_optimize(f: FoldedChannel, config: OptimizerConfig) -> OptimizerState:
    """Alternate precoder and load updates until the objective settles.

    The returned state flags convergence; hitting max_iter leaves
    converged=False rather than raising. The trace entry at index 0 is the
    starting point (initial loads with their matched precoder); every outer
    iteration appends exactly one entry. A candidate load update that would
    raise the objective is halved until it no longer does, so the trace is
    non-increasing by construction; a step halved to nothing means the current
    point is as good as this direction gets, which counts as convergence.

    The regularized precoder is not the exact SMSE minimizer, so inside the
    loop a re-matched precoder that would raise the objective is discarded.
    After the loop the precoder is matched to the final loads once more,
    unconditionally, so state.W, final_smse, and final_sum_rate describe a
    coherent matched pair; final_smse is not a trace entry.
    """
    n = f.n_ris
    x = np.clip(config.initial_reactances(n), *config.q_interval)
    loads = RisLoads(config.r0, x, config.q_interval)
    ev = LoadEvaluation(f, loads)
    g_norm, g_vec = _power_norm(ev.solve, n)
    w, w_residual = _precoder_solve(ev.h, config.power, config.sigma_n2)

    state = OptimizerState(W=w, loads=loads, evaluation=ev, g_norm=g_norm)
    state.smse_trace.append(smse(f.H_d, ev.h_ris, w, config.sigma_n2))
    state.rate_trace.append(sum_rate(ev.h, w, config.sigma_n2))

    def record_w_diagnostics():
        # w_residual belongs to the solve that produced state.W.
        state.w_residual_trace.append(w_residual)
        power_err = abs(np.linalg.norm(state.W) ** 2 - config.power) / config.power
        state.w_power_error_trace.append(power_err)

    def record_feasibility():
        z_diag = state.loads.z_diagonal
        ok = bool(
            np.all(z_diag.real == config.r0)
            and np.all(state.loads.x >= config.q_interval[0])
            and np.all(state.loads.x <= config.q_interval[1])
        )
        state.feasible_trace.append(ok)

    record_feasibility()
    for i in range(1, config.max_iter + 1):
        state.iteration = i
        ev = state.evaluation
        w_new, residual = _precoder_solve(ev.h, config.power, config.sigma_n2)
        smse_w = smse(f.H_d, ev.h_ris, w_new, config.sigma_n2)
        if smse_w <= state.smse_trace[-1]:
            state.W, w_residual = w_new, residual
        else:
            smse_w = state.smse_trace[-1]
        w = state.W
        record_w_diagnostics()

        ds = build_delta_system(f, state)
        delta = solve_delta(ds, w, config.sigma_n2, g_norm)
        if not np.any(delta):
            state.guard_trace.append(0.0)
            state.halving_trace.append(0)
            state.smse_trace.append(smse_w)
            state.rate_trace.append(sum_rate(ev.h, w, config.sigma_n2))
            record_feasibility()
            state.converged = True
            break

        step = delta
        halvings = 0
        while True:
            x_cand = np.clip(state.loads.x - np.imag(step), *config.q_interval)
            cand = LoadEvaluation(f, RisLoads(config.r0, x_cand, config.q_interval))
            smse_cand = smse(f.H_d, cand.h_ris, w, config.sigma_n2)
            if smse_cand <= smse_w or halvings >= _MAX_HALVINGS:
                break
            step = step / 2.0
            halvings += 1

        state.guard_trace.append(float(np.max(np.abs(step)) * g_norm))
        state.halving_trace.append(halvings)
        if smse_cand > smse_w:
            # Even a vanishing step along this direction does not help.
            state.smse_trace.append(smse_w)
            state.rate_trace.append(sum_rate(ev.h, w, config.sigma_n2))
            record_feasibility()
            state.converged = True
            break

        g_norm, g_vec = _power_norm(cand.solve, n, v0=g_vec)
        state.loads = cand.loads
        state.evaluation = cand
        state.g_norm = g_norm
        state.smse_trace.append(smse_cand)
        state.rate_trace.append(sum_rate(cand.h, w, config.sigma_n2))
        record_feasibility()
        if abs(state.smse_trace[-1] - state.smse_trace[-2]) <= config.epsilon:
            state.converged = True
            break

    ev = state.evaluation
    state.W, w_residual = _precoder_solve(ev.h, config.power, config.sigma_n2)
    record_w_diagnostics()
    state.final_smse = smse(f.H_d, ev.h_ris, state.W, config.sigma_n2)
    state.final_sum_rate = sum_rate(ev.h, state.W, config.sigma_n2)
    return state


def mismatched_optimize(
    f: FoldedChannel, z: ImpedanceSet, config: OptimizerConfig
) -> OptimizerState:
    """Optimize against the interaction-free model, then score the resulting
    precoder and loads on the true channel.

    The traces reflect the model the optimizer saw; final_smse and
    final_sum_rate are recomputed on the true channel.
    """
    state = saris_optimize(interaction_free(f, z), config)
    h_true = end_to_end_channel(f, state.loads)
    state.final_smse = smse(f.H_d, h_true - f.H_d, state.W, config.sigma_n2)
    state.final_sum_rate = sum_rate(h_true, state.W, config.sigma_n2)
    return state


def random_baseline(
    f: FoldedChannel, config: OptimizerConfig, trials: int = 100, rng=None
) -> OptimizerState:
    """Best of uniformly random reactance draws, each with its matched
    precoder.

    The rate trace is the running best sum-rate over draws and the SMSE trace
    the running best (lowest) SMSE; the returned precoder and loads belong to
    the best-rate draw.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n = f.n_ris
    lo, hi = config.q_interval
    draws = gen.uniform(lo, hi, size=(trials, n))

    best_rate = -np.inf
    best = None
    best_smse = np.inf
    smse_trace: list[float] = []
    rate_trace: list[float] = []
    for t in range(trials):
        ev = LoadEvaluation(f, RisLoads(config.r0, draws[t], config.q_interval))
        w = optimal_precoder(ev.h, config.power, config.sigma_n2)
        rate = sum_rate(ev.h, w, config.sigma_n2)
        err = smse(f.H_d, ev.h_ris, w, config.sigma_n2)
        best_smse = min(best_smse, err)
        if rate > best_rate:
            best_rate = rate
            best = (w, ev)
        smse_trace.append(best_smse)
        rate_trace.append(best_rate)

    w, ev = best
    state = OptimizerState(W=w, loads=ev.loads, evaluation=ev)
    state.g_norm = _power_norm(ev.solve, n)[0]
    state.smse_trace = smse_trace
    state.rate_trace = rate_trace
    state.iteration = trials
    state.converged = True
    state.feasible_trace = [True] * trials
    state.final_smse = smse_trace[-1]
    state.final_sum_rate = best_rate
    return state
