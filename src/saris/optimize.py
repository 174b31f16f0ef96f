"""Alternating optimization of transmit precoder and RIS load reactances.

The objective is the sum MSE surrogate of the per-user rates. The precoder
subproblem has a regularized closed form. The load subproblem linearizes the
channel in a small diagonal perturbation via a first-order Neumann expansion,
solves the resulting regularized least squares for the perturbation, and
scales it so the expansion stays trustworthy; only the imaginary part is
applied and clamped to the feasible reactance interval.
"""

from __future__ import annotations

import math
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
from saris.scenario import ScenarioConfig

_herk, _trsv = get_blas_funcs(("herk", "trsv"), dtype=np.complex128)
_gesv, _potrf = get_lapack_funcs(("gesv", "potrf"), dtype=np.complex128)

# The ufunc reductions behind ndarray.sum, .max, .min, .all and .any: they
# give the same results, NaN propagation included, without the method
# wrappers that the hot paths would otherwise pay for on every call.
_sum, _max, _min = np.add.reduce, np.maximum.reduce, np.minimum.reduce
_all, _any = np.logical_and.reduce, np.logical_or.reduce


class DegenerateChannelError(ValueError):
    """The channel matrix is identically zero."""


@dataclass
class OptimizerConfig:
    power: float = ScenarioConfig.P
    sigma_n2: float = ScenarioConfig.sigma_n2
    epsilon: float = 1e-9
    max_iter: int = 500
    q_interval: tuple[float, float] = ScenarioConfig.Q_interval
    r0: float = ScenarioConfig.R0

    def __post_init__(self):
        # Each message starts with the field name, which the CLI maps to its
        # flag.
        if not (math.isfinite(self.power) and self.power > 0):
            raise ValueError(f"power must be finite and positive, got {self.power}")
        if not (math.isfinite(self.sigma_n2) and self.sigma_n2 > 0):
            raise ValueError(f"sigma_n2 must be finite and positive, got {self.sigma_n2}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if (
            not isinstance(self.max_iter, (int, np.integer))
            or isinstance(self.max_iter, bool)
            or self.max_iter < 1
        ):
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")
        lo, hi = self.q_interval
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"q_interval must be finite with lo <= hi, got {self.q_interval}")
        if not (math.isfinite(self.r0) and self.r0 >= 0):
            raise ValueError(f"r0 must be finite and non-negative, got {self.r0}")

    def initial_reactances(self, n: int) -> np.ndarray:
        """The starting reactances: the midpoint of q_interval at every cell."""
        return np.full(n, 0.5 * (self.q_interval[0] + self.q_interval[1]))


@dataclass
class OptimizerState:
    """Carrier of one optimization run: current iterate plus its history."""

    W: np.ndarray
    evaluation: LoadEvaluation
    smse_trace: list[float] = field(default_factory=list)
    rate_trace: list[float] = field(default_factory=list)
    iteration: int = 0
    converged: bool = False
    # ||S^-1|| for the S that evaluation factors; random_baseline leaves it 0.0.
    g_norm: float = 0.0
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

    @property
    def loads(self) -> RisLoads:
        """The loads of `evaluation`, read-only: the state keeps no other copy."""
        return self.evaluation.loads


@dataclass
class DeltaStep:
    """The channel linearized at the current loads, and the load-perturbation
    solve.

    Every load-sensitivity row of user l is u_l * a_mat (u = v S^-1, one row
    per user, L x N; a_mat = S^-1 B, N x M; see LoadEvaluation), and h (L x M)
    is the channel at the expansion point.
    """

    u: np.ndarray
    a_mat: np.ndarray
    h: np.ndarray


def _smse_terms(h: np.ndarray, W: np.ndarray, sigma_n2: float):
    """(smse, p, received) of channel h and precoder W from one product
    e = h W: the sum MSE, p = |e|^2 and each user's received power, the
    last two being what `_sum_rate` needs."""
    e = h @ W
    p = np.abs(e)
    p *= p
    received = _sum(p, 1)
    err = _sum(received) - 2.0 * e.trace().real + h.shape[0] * (1.0 + sigma_n2)
    return float(err), p, received


def _sum_rate(p: np.ndarray, received: np.ndarray, sigma_n2: float) -> float:
    """Sum rate from the p and received of `_smse_terms`."""
    desired = p.diagonal()
    sinr = desired / (received - desired + sigma_n2)
    return float(_sum(np.log2(1.0 + sinr)))


def smse_and_rate(h: np.ndarray, W: np.ndarray, sigma_n2: float) -> tuple[float, float]:
    """(smse, sum_rate) of channel h and precoder W from one product h W."""
    err, p, received = _smse_terms(h, W, sigma_n2)
    return err, _sum_rate(p, received, sigma_n2)


def _precoder_solve(H: np.ndarray, power: float, sigma_n2: float, with_residual: bool = True):
    """(optimal precoder, stationarity residual of its normal equations
    relative to the channel norm) from one LAPACK gesv; the residual is None
    when with_residual is false."""
    l_rx, m_tx = H.shape
    h_norm = _vec_norm(H)
    if h_norm == 0.0:
        raise DegenerateChannelError("channel matrix is zero")
    h_h = H.conj().T
    a = h_h @ H
    a.reshape(-1)[:: m_tx + 1] += l_rx * sigma_n2 / power
    _, _, w_bar, info = _gesv(a, h_h)
    if info > 0:
        raise np.linalg.LinAlgError("precoder system is singular")
    residual = _vec_norm(a @ w_bar - h_h) / h_norm if with_residual else None
    # gesv returned its own copy of the right-hand side, so w_bar is scaled
    # in place.
    w_norm = _vec_norm(w_bar)
    w_bar *= math.sqrt(power)
    w_bar /= w_norm
    return w_bar, residual


def optimal_precoder(H: np.ndarray, power: float, sigma_n2: float) -> np.ndarray:
    """Regularized closed-form precoder scaled to the full power budget."""
    return _precoder_solve(H, power, sigma_n2, False)[0]


def _vec_norm(v: np.ndarray) -> float:
    """Euclidean (Frobenius) norm of a complex array from one BLAS dot
    product."""
    return math.sqrt(np.vdot(v, v).real)


# Relative change of the estimate that ends `_power_norm`, and its round limit.
_POWER_TOL = 1e-6
_POWER_ROUNDS = 200


def _power_norm(apply, n: int, v0=None):
    """Spectral norm of an n x n operator by power iteration; apply(v, trans)
    returns A v for trans=0 and A^H v for trans=2. Returns (norm, vector) so
    callers can warm-start the next estimate. The optimizer takes ||S^-1||
    with `LoadEvaluation.solve_vector` as apply."""
    if v0 is None or not _any(v0):
        v = np.ones(n, dtype=complex) / np.sqrt(n)
    else:
        v = v0 / _vec_norm(v0)
    sigma = 0.0
    for _ in range(_POWER_ROUNDS):
        av = apply(v, 0)
        sigma_new = _vec_norm(av)
        if sigma_new == 0.0:
            return 0.0, v
        v = apply(av, 2)
        v_norm = _vec_norm(v)
        if v_norm == 0.0:
            return float(sigma_new), av / sigma_new
        # apply returns a new array, so it is normalized in place.
        v /= v_norm
        if abs(sigma_new - sigma) <= _POWER_TOL * sigma_new:
            sigma = sigma_new
            break
        sigma = sigma_new
    return float(sigma), v


def build_delta_system(state: OptimizerState) -> DeltaStep:
    """Factors of the channel linearized at the loads of state.evaluation.

    The sensitivity rows need u = v S^-1 (see LoadEvaluation): one transposed
    solve with the factors of state.evaluation.
    """
    ev = state.evaluation
    return DeltaStep(u=ev.solve(ev.v.T, 1).T, a_mat=ev.a_mat, h=ev.h)


def solve_delta(ds: DeltaStep, W: np.ndarray, sigma_n2: float, g_norm: float) -> np.ndarray:
    """Load perturbation from the linearized objective.

    A zero right-hand side (stationary point) returns the zero vector, which
    the outer loop treats as convergence. Otherwise the perturbation is
    scaled so its largest entry sits exactly at the trust bound 1/g_norm.
    """
    n, l_rx = ds.a_mat.shape[0], ds.h.shape[0]
    if not g_norm > 0:
        raise ValueError(f"g_norm must be positive, got {g_norm}")
    # With h_r,l = u_l * a_mat, T = [h_r,l W]_l (N x L^2) has column (l, l')
    # u_l * (a_mat W)_l', and b = sum_l h_r,l c_l for C = W - W W^H h^H
    # expands to T g with g = vec(I - conj(h W)), row-major.
    u_t = ds.u.T
    t = (u_t[:, :, None] * (ds.a_mat @ W)[:, None, :]).reshape(n, l_rx * l_rx)
    g = -(ds.h @ W).conj().reshape(-1)
    g[:: l_rx + 1] += 1.0
    b = t @ g
    # The normal matrix sigma^2 I + T T^H: one herk at beta = 0 into the lower
    # triangle of its own Fortran-ordered output, then the diagonal view.
    # herk(alpha, a, beta, c, trans, lower) and potrf(a, lower, clean,
    # overwrite_a) are called positionally: at N = 16 keyword parsing adds
    # 0.6-0.8 us to each call.
    gram = _herk(1.0, t, 0.0, None, 0, 1)
    gram_diagonal = gram.reshape(-1, order="F")[:: n + 1]
    gram_diagonal += sigma_n2
    # A non-finite T or sigma^2 shows on the diagonal, which bounds every
    # other entry of the normal matrix.
    if not (_all(np.isfinite(gram_diagonal)) and _all(np.isfinite(b))):
        raise ValueError("load system has non-finite entries")
    chol, info = _potrf(gram, 1, 0, 1)
    if info > 0:
        raise np.linalg.LinAlgError(f"load system is not positive definite (minor {info})")
    # gram = L L^H: solve L y = b, then L^H x = y, in place in b. trsv(a, x,
    # incx, offx, lower, trans, diag, overwrite_x) is called positionally, and
    # not through potrs, which packs the whole factor for trsm on every call.
    direction = _trsv(chol, b, 1, 0, 1, 0, 0, 1)
    direction = _trsv(chol, direction, 1, 0, 1, 2, 0, 1)
    peak = _max(np.abs(direction))
    if peak == 0.0:
        return np.zeros(n, dtype=complex)
    direction /= peak * g_norm
    return direction


_MAX_HALVINGS = 60


def saris_optimize(f: FoldedChannel, config: OptimizerConfig) -> OptimizerState:
    """Alternate precoder and load updates until the objective settles.

    The trace entry at index 0 is the starting point (initial loads with
    their matched precoder); every outer iteration appends exactly one entry.
    Each iteration re-matches the precoder, keeping it only if the objective
    does not rise, then halves the load step until the candidate loads do not
    raise it either, so the trace is non-increasing by construction. The loop
    stops, with converged=True, when the step is zero (a stationary point),
    when 60 halvings leave no such candidate, or when two consecutive trace
    entries differ by at most epsilon; hitting max_iter leaves
    converged=False rather than raising.

    The regularized precoder is not the exact SMSE minimizer, which is why the
    re-match is guarded. After the loop the precoder is matched to the final
    loads once more, unconditionally, so state.W, final_smse, and
    final_sum_rate describe a coherent matched pair; final_smse is not a
    trace entry.
    """
    n = f.n_ris
    power, sigma_n2, r0 = config.power, config.sigma_n2, config.r0
    loads = RisLoads(r0, config.initial_reactances(n), config.q_interval)
    ev = LoadEvaluation(f, loads)
    g_norm, g_vec = _power_norm(ev.solve_vector, n)
    w, w_residual = _precoder_solve(ev.h, power, sigma_n2)

    state = OptimizerState(W=w, evaluation=ev, g_norm=g_norm)
    # The SMSE of state.W on the current channel, with the |h W|^2 terms that
    # give its rate. The comparisons need only the SMSE, so a rate is taken
    # once per trace point, from the pair that point records.
    smse_w, p_w, received_w = _smse_terms(ev.h, w, sigma_n2)
    lo, hi = config.q_interval

    def record_w_diagnostics():
        # w_residual belongs to the solve that produced state.W.
        state.w_residual_trace.append(w_residual)
        power_err = abs(np.vdot(state.W, state.W).real - power) / power
        state.w_power_error_trace.append(power_err)

    def record_point():
        state.smse_trace.append(smse_w)
        state.rate_trace.append(_sum_rate(p_w, received_w, sigma_n2))
        # RisLoads gives every cell the one resistance r0, so comparing it
        # covers the real part of the whole load diagonal.
        x = state.loads.x
        ok = state.loads.r0 == r0 and _min(x) >= lo and _max(x) <= hi
        state.feasible_trace.append(bool(ok))

    record_point()
    for i in range(1, config.max_iter + 1):
        state.iteration = i
        ev = state.evaluation
        w_new, residual = _precoder_solve(ev.h, power, sigma_n2)
        scored = _smse_terms(ev.h, w_new, sigma_n2)
        # Otherwise smse_w, p_w and received_w still score this channel and
        # state.W.
        if scored[0] <= smse_w:
            state.W, w_residual = w_new, residual
            smse_w, p_w, received_w = scored
        w = state.W
        record_w_diagnostics()

        step = solve_delta(build_delta_system(state), w, sigma_n2, g_norm)
        cand = None
        halvings = 0
        while _any(step):
            x_cand = np.minimum(np.maximum(state.loads.x - step.imag, lo), hi)
            trial = LoadEvaluation(f, RisLoads(r0, x_cand, config.q_interval))
            scored = _smse_terms(trial.h, w, sigma_n2)
            if scored[0] <= smse_w:
                cand = trial
                smse_w, p_w, received_w = scored
                break
            if halvings == _MAX_HALVINGS:
                # Even a vanishing step along this direction does not help.
                break
            step = step / 2.0
            halvings += 1
        state.guard_trace.append(float(_max(np.abs(step)) * g_norm))
        state.halving_trace.append(halvings)

        if cand is not None:
            g_norm, g_vec = _power_norm(cand.solve_vector, n, v0=g_vec)
            state.evaluation = cand
            state.g_norm = g_norm
        record_point()
        if cand is None or abs(state.smse_trace[-1] - state.smse_trace[-2]) <= config.epsilon:
            state.converged = True
            break

    ev = state.evaluation
    state.W, w_residual = _precoder_solve(ev.h, power, sigma_n2)
    record_w_diagnostics()
    state.final_smse, state.final_sum_rate = smse_and_rate(ev.h, state.W, sigma_n2)
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
    state.final_smse, state.final_sum_rate = smse_and_rate(h_true, state.W, config.sigma_n2)
    return state


def random_baseline(f: FoldedChannel, config: OptimizerConfig, trials: int, rng) -> OptimizerState:
    """Best of `trials` uniformly random reactance draws, each with its
    matched precoder; `rng` is a seed or Generator for np.random.default_rng.

    The rate trace is the running best sum-rate over draws and the SMSE trace
    the running best (lowest) SMSE; the returned precoder and loads belong to
    the best-rate draw.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    lo, hi = config.q_interval
    draws = np.random.default_rng(rng).uniform(lo, hi, size=(trials, f.n_ris))

    best_rate = -np.inf
    best = None
    best_smse = np.inf
    smse_trace: list[float] = []
    rate_trace: list[float] = []
    for t in range(trials):
        ev = LoadEvaluation(f, RisLoads(config.r0, draws[t], config.q_interval))
        w = optimal_precoder(ev.h, config.power, config.sigma_n2)
        err, rate = smse_and_rate(ev.h, w, config.sigma_n2)
        best_smse = min(best_smse, err)
        if rate > best_rate:
            best_rate = rate
            best = (w, ev)
        smse_trace.append(best_smse)
        rate_trace.append(best_rate)
        # Only the best draw's evaluation is kept (in `best`); dropping this
        # draw's name frees its LU factors before the next draw is factored.
        del ev

    w, ev = best
    return OptimizerState(
        W=w,
        evaluation=ev,
        smse_trace=smse_trace,
        rate_trace=rate_trace,
        iteration=trials,
        converged=True,
        feasible_trace=[True] * trials,
        final_smse=smse_trace[-1],
        final_sum_rate=best_rate,
    )
