"""Posterior sampling for the multi-scale network factor model.

The chain alternates two moves:
  (i)  HMC on the continuous block (log-loadings, offsets, assignment
       logits), with binary assignments relaxed through a tempered
       sigmoid so the potential is differentiable;
  (ii) an exchange move on (a, b, p) that sidesteps the intractable
       normalizing constant of the rank-constrained assignment prior
       by rejection-sampling an auxiliary assignment pattern.

The shared potential is
  U = -log_likelihood - log_prior_theta - log_bernoulli_mass
      - log_det_gram + sum(a^2 + b^2)/2,
and a Cholesky failure anywhere (the rank test) invalidates the
proposal that produced it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .model import (
    LOADING_RATE,
    LOADING_SHAPE,
    OFFSET_SD,
    SubjectParams,
    _expit,
    _likelihood_pass,
    _logit,
    log_likelihood,
    log_prior_theta,
)
from .partition import random_partition
from .prior import (
    ColumnValues,
    MixtureProbs,
    build_x,
    full_rank_pattern,
    log_bernoulli_mass,
    log_gaussian_ab,
)
from .whitening import (
    NotPositiveDefiniteError,
    _whitened,
    rank_ok,
    whiten_backward,
    whiten_with_factors,
)

PROB_FLOOR = 1e-12  # keeps exchanged rates strictly inside (0, 1)
EXCHANGE_TARGET_ACCEPT = 0.35  # warmup tunes the exchange window toward it


class InitializationError(RuntimeError):
    """No valid starting state could be constructed."""


class _DivergenceError(FloatingPointError):
    """Non-finite value inside a trajectory; the proposal is rejected."""


@dataclass(frozen=True)
class ChainState:
    """Full sampler state; assignments live as logits at temperature tau."""

    logits: np.ndarray          # n x k
    values: ColumnValues
    probs: MixtureProbs
    subject_params: SubjectParams
    tau: float

    def __post_init__(self):
        lg = np.asarray(self.logits, dtype=np.float64)
        k = self.values.depth
        if lg.ndim != 2 or lg.shape[1] != k:
            raise ValueError(f"logits must be n x {k}, got shape {lg.shape}")
        if self.probs.p.size != k or self.subject_params.depth != k:
            raise ValueError("values, probs, and subject parameters disagree on depth")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        object.__setattr__(self, "logits", lg)

    @property
    def n_nodes(self):
        return self.logits.shape[0]

    @property
    def depth(self):
        return self.logits.shape[1]

    def relaxed_weights(self):
        return _expit(self.logits / self.tau)

    def hard_weights(self):
        return (self.relaxed_weights() > 0.5).astype(np.float64)


@dataclass(frozen=True)
class HmcConfig:
    step_size: float = 0.05
    leapfrog_steps: int = 10
    target_accept: float = 0.7
    warmup: int = 1000

    def __post_init__(self):
        if not self.step_size > 0.0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        if self.leapfrog_steps < 1:
            raise ValueError(f"leapfrog_steps must be >= 1, got {self.leapfrog_steps}")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError(f"target_accept must be in (0, 1), got {self.target_accept}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")


@dataclass(frozen=True)
class ExchangeConfig:
    window: float = 0.25            # uniform half-width for the a, b proposals
    max_rejection_attempts: int = 100

    def __post_init__(self):
        # zero freezes a, b (identity proposal), still a valid kernel on p
        if self.window < 0.0:
            raise ValueError(f"window must be >= 0, got {self.window}")
        if self.max_rejection_attempts < 1:
            raise ValueError(
                f"max_rejection_attempts must be >= 1, got {self.max_rejection_attempts}"
            )


def _relaxed_x(state):
    w = state.relaxed_weights()
    return w, build_x(w, state.values)


def _potential_from(sp, probs, values, w, low, ll):
    # low is the first whitening pass's factor of X'X
    n, k = w.shape
    lp = log_prior_theta(sp)
    lg = log_bernoulli_mass(w, probs)
    gram = (n - k - 1) * float(np.sum(np.log(low.diagonal())))
    lab = log_gaussian_ab(values)
    return -(ll + lp + lg + gram + lab)


def potential(state, data):
    """Joint potential U; raises NotPositiveDefiniteError on rank failure.

    data may be None, dropping the likelihood term (prior-only chain).
    """
    w, x = _relaxed_x(state)
    q, passes = whiten_with_factors(x)
    sp = state.subject_params
    ll = 0.0 if data is None else log_likelihood(data, q, sp)
    return _potential_from(sp, state.probs, state.values, w, passes[0][1], ll)


def _blocks(vec, s_n, k):
    """(log_loadings, offsets, logits) as views of a vector laid out by _pack."""
    i_z = s_n * k
    i_lg = i_z + s_n
    return vec[:i_z].reshape(s_n, k), vec[i_z:i_lg], vec[i_lg:].reshape(-1, k)


def _evaluator(state, data):
    """The gradient of U at flat positions sharing state's a, b, p and tau.

    Returns evaluate(v, with_potential=False), which reads log-loadings,
    offsets and logits as views of the position v (laid out by _pack)
    and writes the gradient into one vector allocated here: every call
    returns that vector and the next call overwrites it.  With
    with_potential it returns (U, gradient), U taken from the same pass.
    Nothing is validated; NotPositiveDefiniteError (the rank test) and
    _DivergenceError (a non-finite frame gradient) propagate.
    """
    values, probs, tau = state.values, state.probs, state.tau
    a, b = values.a, values.b
    b_minus_a = b - a
    logit_p = _logit(probs.p)
    s_n, k = state.subject_params.log_loadings.shape
    gram_weight = state.n_nodes - k - 1
    grad = np.empty(s_n * k + s_n + state.logits.size)
    grad_ld, grad_z, grad_lg = _blocks(grad, s_n, k)

    def evaluate(v, with_potential=False):
        ld, z, lg = _blocks(v, s_n, k)
        w = _expit(lg / tau)
        one_minus_w = 1.0 - w
        x = w * a + one_minus_w * b     # build_x
        q, passes = _whitened(x)
        q1, low1, linv1 = passes[0]
        d = np.exp(ld)
        ll = 0.0
        if data is None:
            gx_like = 0.0
            np.subtract(LOADING_SHAPE, LOADING_RATE / d, out=grad_ld)
            np.divide(z, OFFSET_SD**2, out=grad_z)
        else:
            ll, (g_q, g_ld, g_z) = _likelihood_pass(data, q, d, z, with_potential, True)
            if not np.isfinite(g_q).all():
                raise _DivergenceError("non-finite frame gradient")
            gx_like = whiten_backward(passes, g_q)
            np.subtract(LOADING_SHAPE - g_ld, LOADING_RATE / d, out=grad_ld)
            np.subtract(z / OFFSET_SD**2, g_z, out=grad_z)
        # -dU/dX: the likelihood's part plus (n - k - 1)/2 times
        # d(log det X'X)/dX = 2 X (X'X)^-1 = 2 Q1 L1^-1
        gx = gx_like + gram_weight * (q1 @ linv1)
        sig_slope = w * one_minus_w / tau
        np.multiply(gx * b_minus_a - logit_p, sig_slope, out=grad_lg)
        if not with_potential:
            return grad
        sp = SubjectParams(log_loadings=ld, offsets=z)
        return _potential_from(sp, probs, values, w, low1, ll), grad

    return evaluate


def potential_grad(state, data, with_potential=False):
    """Gradient of U over (log_loadings, offsets, logits).

    With with_potential, returns (U, grad_ld, grad_z, grad_logits), U
    taken from the same forward pass and equal to potential(state, data).
    """
    evaluate = _evaluator(state, data)
    pos = _pack(state.subject_params, state.logits)
    s_n, k = state.subject_params.log_loadings.shape
    if with_potential:
        u, grad = evaluate(pos, with_potential=True)
        return (u, *_blocks(grad, s_n, k))
    return _blocks(evaluate(pos), s_n, k)


def _pack(sp, logits):
    return np.concatenate([sp.log_loadings.ravel(), sp.offsets, logits.ravel()])


def _unpack(vec, state):
    ld, z, lg = _blocks(vec, *state.subject_params.log_loadings.shape)
    return dataclasses.replace(
        state,
        logits=lg,
        subject_params=SubjectParams(log_loadings=ld, offsets=z),
    )


def leapfrog(position, velocity, grad_fn, step, n_steps, omega):
    """Stoermer-Verlet integration of ds/dt = omega*v, dv/dt = -grad U(s).

    omega is the diagonal of the kinetic form v' Omega v / 2 (velocity
    covariance Omega^-1).  grad_fn is called n_steps + 1 times, the last
    time at the returned position.  Exceptions from grad_fn propagate so
    the caller can reject the whole trajectory.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    drift = step * omega
    vel = velocity - 0.5 * step * grad_fn(position)
    pos = position + drift * vel
    for _ in range(n_steps - 1):
        vel = vel - step * grad_fn(pos)
        pos = pos + drift * vel
    vel = vel - 0.5 * step * grad_fn(pos)
    return pos, vel


def _kinetic(vel, omega):
    # OpenBLAS splits a ddot over more than 10^4 elements across threads,
    # which reorders its sum; chunks of 10^4 added in order keep the
    # energy independent of the thread count
    half, scaled, c = 0.5 * vel, omega * vel, 10_000
    return sum(half[i:i + c] @ scaled[i:i + c] for i in range(0, vel.size, c))


def _diverging():
    # overflow inside a divergent trajectory is expected; the proposal
    # is rejected rather than letting inf/nan escape
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _hmc_step(state, data, rng, step, n_steps, omega, u_cur, grad_cur):
    """One HMC trajectory from state, whose potential is u_cur.

    grad_cur is the gradient at state, or None to compute it.  Returns
    (state, accepted, alpha, u, grad, evals): the potential and the
    gradient (None if unknown) at the returned state, and the number of
    gradient passes the trajectory computed.
    """
    evaluate = _evaluator(state, data)
    pos = _pack(state.subject_params, state.logits)
    vel = rng.standard_normal(pos.size) / np.sqrt(omega)
    kin0 = _kinetic(vel, omega)
    calls = evals = 0
    first = grad_cur
    u_prop = g_prop = None

    def grad_fn(v):
        nonlocal calls, evals, first, u_prop, g_prop
        if not np.isfinite(v).all():
            raise _DivergenceError("non-finite position")
        calls += 1
        if calls == 1 and first is not None:
            g = first
        else:
            evals += 1
            if calls == n_steps + 1:
                # the last pass is at the proposal and also yields its potential
                u_prop, g_prop = evaluate(v, with_potential=True)
                g = g_prop
            else:
                g = evaluate(v)
            if calls == 1:
                first = g.copy()    # the next pass overwrites g
        if not np.isfinite(g).all():
            raise _DivergenceError("non-finite gradient")
        return g

    try:
        with _diverging():
            pos1, vel1 = leapfrog(pos, vel, grad_fn, step, n_steps, omega)
            kin1 = _kinetic(vel1, omega)
    except (NotPositiveDefiniteError, _DivergenceError):
        return state, False, 0.0, u_cur, first, evals
    log_alpha = (u_cur - u_prop) + (kin0 - kin1)
    if not np.isfinite(log_alpha):
        return state, False, 0.0, u_cur, first, evals
    alpha = float(np.exp(min(0.0, log_alpha)))
    if rng.random() < alpha:
        return _unpack(pos1, state), True, alpha, u_prop, g_prop, evals
    return state, False, alpha, u_cur, first, evals


def hmc_update(state, data, cfg, rng):
    """One HMC transition at the configured step size and unit mass."""
    omega = np.ones(_pack(state.subject_params, state.logits).size)
    new, accepted, *_ = _hmc_step(
        state, data, rng, cfg.step_size, cfg.leapfrog_steps, omega,
        potential(state, data), None,
    )
    return new, accepted


def _exchange_step(state, data, cfg, rng, window, u_cur):
    """Returns (state, accepted, aux_exhausted, u_of_returned_state)."""
    n, k = state.logits.shape
    hard = state.hard_weights()
    counts = hard.sum(axis=0)
    p = state.probs.p
    p_star = np.clip(
        rng.beta(1.0 + counts, 1.0 + n - counts), PROB_FLOOR, 1.0 - PROB_FLOOR
    )
    a, b = state.values.a, state.values.b
    a_star = a + rng.uniform(-window, window, size=k)
    b_star = b + rng.uniform(-window, window, size=k)
    values_star = ColumnValues(a=a_star, b=b_star)

    aux = full_rank_pattern(
        lambda: (rng.random((n, k)) < p_star).astype(np.float64),
        values_star,
        cfg.max_rejection_attempts,
    )
    if aux is None:
        return state, False, True, u_cur

    # the reverse move draws the same pattern under the current values,
    # so it must be full rank there too
    if not rank_ok(build_x(aux, state.values)):
        return state, False, False, u_cur

    proposal = dataclasses.replace(
        state, values=values_star, probs=MixtureProbs(p=p_star)
    )
    try:
        u_star = potential(proposal, data)
    except NotPositiveDefiniteError:
        return state, False, False, u_cur

    # log of g(W; p)/g(W; p*) x g(Y; p)/g(Y; p*); the first factor is
    # simultaneously the Beta proposal-density correction (the Beta
    # normalizers cancel because the counts are fixed during the move)
    aux_counts = aux.sum(axis=0)
    dlp = np.log(p) - np.log(p_star)
    dlq = np.log1p(-p) - np.log1p(-p_star)
    log_ratio = (u_cur - u_star)
    log_ratio += float(counts @ dlp + (n - counts) @ dlq)
    log_ratio += float(aux_counts @ dlp + (n - aux_counts) @ dlq)
    if not np.isfinite(log_ratio):
        return state, False, False, u_cur
    if rng.random() < np.exp(min(0.0, log_ratio)):
        return proposal, True, False, u_star
    return state, False, False, u_cur


def exchange_update(state, data, cfg, rng):
    """One exchange transition on (a, b, p) at the configured window."""
    new, accepted, _, _ = _exchange_step(
        state, data, cfg, rng, cfg.window, potential(state, data)
    )
    return new, accepted


def initial_state(data, k, tau, rng, n=None, n_subjects=None, max_attempts=1000):
    """Default start: a random valid partition pattern with unit values.

    Logits are set mildly inside the relaxation (weights 0.05/0.95), so
    the first trajectories can still flip assignments; offsets start at
    the logit of the observed edge density.
    """
    if data is not None:
        n = data.n
        n_subjects = data.n_subjects
        density = float(np.clip(data.edge_density(), 1e-3, 1.0 - 1e-3))
        z0 = float(_logit(density))
    else:
        if n is None or n_subjects is None:
            raise InitializationError("without data, n and n_subjects are required")
        z0 = 0.0
    values = ColumnValues(a=np.ones(k), b=-np.ones(k))
    w = full_rank_pattern(
        lambda: random_partition(n, k, rng).membership_matrix().astype(np.float64),
        values,
        max_attempts,
    )
    if w is None:
        raise InitializationError(
            f"no full-rank starting pattern in {max_attempts} attempts (n={n}, k={k})"
        )
    relaxed = 0.05 + 0.9 * w
    logits = tau * _logit(relaxed)
    sp = SubjectParams(
        log_loadings=np.zeros((n_subjects, k)), offsets=np.full(n_subjects, z0)
    )
    return ChainState(
        logits=logits,
        values=values,
        probs=MixtureProbs(p=np.full(k, 0.5)),
        subject_params=sp,
        tau=tau,
    )


@dataclass
class SampleLog:
    """Thinned post-warmup draws plus adaptation metadata.

    Draws are stored raw, exactly as the chain visited them; label
    resolution is a summary-time concern (see diagnostics.summarize).
    Assignments are kept as the hard patterns the summaries consume.
    """

    iterations: np.ndarray
    u: np.ndarray
    hmc_accept: np.ndarray
    exch_accept: np.ndarray
    exch_skipped: np.ndarray
    step_sizes: np.ndarray
    a: np.ndarray               # T x k
    b: np.ndarray
    p: np.ndarray
    offsets: np.ndarray         # T x S
    log_loadings: np.ndarray    # T x S x k
    w_hard: np.ndarray          # T x n x k
    meta: dict = field(default_factory=dict)

    @property
    def n_draws(self):
        return self.iterations.size

    def to_csv(self, trace_path, w_trace_path, nodes=None):
        k = self.a.shape[1]
        s = self.offsets.shape[1]
        cols = ["iteration", "U", "hmc_accept", "exch_accept", "h", "exch_skipped"]
        cols += [f"a_{j + 1}" for j in range(k)]
        cols += [f"b_{j + 1}" for j in range(k)]
        cols += [f"p_{j + 1}" for j in range(k)]
        cols += [f"z_{i + 1}" for i in range(s)]
        cols += [f"logd_{i + 1}_{j + 1}" for i in range(s) for j in range(k)]
        # one %-format call over the whole table; '%.17g' % v equals
        # format(v, ".17g"), and the integer columns ride in the float
        # table, exact below 2^53, to be printed by '%d'
        table = np.column_stack([
            self.iterations, self.u, self.hmc_accept, self.exch_accept,
            self.step_sizes, self.exch_skipped, self.a, self.b, self.p,
            self.offsets, self.log_loadings.reshape(self.n_draws, s * k),
        ])
        row = "%d,%.17g,%d,%d,%.17g,%d" + ",%.17g" * (table.shape[1] - 6) + "\n"
        with open(trace_path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            fh.write(row * self.n_draws % tuple(table.ravel().tolist()))
        n = self.w_hard.shape[1]
        sel = list(range(n)) if nodes is None else list(nodes)
        wcols = ["iteration"] + [
            f"w_{i}_{j + 1}" for i in sel for j in range(k)
        ]
        # every row after its iteration number is ",c,c,...,c\n" with
        # 0/1 cells, built for all rows at once as bytes
        cells = self.w_hard[:, sel, :].reshape(self.n_draws, len(sel) * k)
        body = np.empty((self.n_draws, 2 * cells.shape[1] + 1), dtype=np.uint8)
        body[:, :-1:2] = ord(",")
        body[:, 1::2] = cells.astype(np.uint8) + ord("0")
        body[:, -1] = ord("\n")
        with open(w_trace_path, "wb") as fh:
            fh.write((",".join(wcols) + "\n").encode())
            for it, row in zip(self.iterations, body):
                fh.write(str(int(it)).encode() + row.tobytes())

    @classmethod
    def from_csv(cls, trace_path, w_trace_path):
        header, raw = _read_csv(trace_path)
        col = {name: idx for idx, name in enumerate(header)}
        k = sum(1 for name in header if name.startswith("a_"))
        s = sum(1 for name in header if name.startswith("z_"))
        t_n = raw.shape[0]

        # take, unlike raw[:, idx], returns C order, so reductions over
        # the blocks sum in the same order as on the arrays run_chain builds
        def block(names, shape):
            return raw.take([col[name] for name in names], axis=1).reshape((t_n,) + shape)

        a = block([f"a_{j + 1}" for j in range(k)], (k,))
        b = block([f"b_{j + 1}" for j in range(k)], (k,))
        p = block([f"p_{j + 1}" for j in range(k)], (k,))
        z = block([f"z_{i + 1}" for i in range(s)], (s,))
        ld = block([f"logd_{i + 1}_{j + 1}" for i in range(s) for j in range(k)], (s, k))

        w_header, w_raw = _read_csv(w_trace_path)
        node_ids = sorted({int(name.split("_")[1]) for name in w_header[1:]})
        if node_ids != list(range(len(node_ids))):
            raise ValueError(
                "w_trace does not cover a contiguous node range from 0"
                " (written with a w_trace_nodes subset?)"
            )
        n = len(node_ids)
        w_col = {name: idx for idx, name in enumerate(w_header)}
        w_idx = [w_col[f"w_{i}_{j + 1}"] for i in range(n) for j in range(k)]
        w_hard = w_raw.take(w_idx, axis=1).reshape(t_n, n, k)

        return cls(
            iterations=raw[:, col["iteration"]].astype(np.int64),
            u=raw[:, col["U"]],
            hmc_accept=raw[:, col["hmc_accept"]].astype(bool),
            exch_accept=raw[:, col["exch_accept"]].astype(bool),
            exch_skipped=raw[:, col["exch_skipped"]].astype(bool),
            step_sizes=raw[:, col["h"]],
            a=a,
            b=b,
            p=p,
            offsets=z,
            log_loadings=ld,
            w_hard=w_hard,
        )


def _read_csv(path):
    """Header names and the rows below them as floats (0 x columns if none)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = fh.read()
    if not rows.strip():
        return header, np.empty((0, len(header)))
    return header, np.loadtxt(rows.splitlines(), delimiter=",", ndmin=2)


def run_chain(
    data,
    init,
    hmc_cfg,
    exch_cfg,
    iterations,
    rng,
    thin=1,
    anneal_from=None,
):
    """Alternate HMC and exchange moves, adapting during warmup.

    Warmup adapts the step size by dual averaging toward the target
    acceptance, the kinetic diagonal from per-coordinate position
    variances, and the exchange window toward its target rate; all
    three freeze afterward.  Post-warmup draws are recorded raw every
    `thin` iterations, into log arrays allocated up front; label
    resolution happens in the summaries.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if thin < 1:
        raise ValueError(f"thin must be >= 1, got {thin}")
    if anneal_from is not None and not anneal_from > 0.0:
        raise ValueError(f"anneal_from must be positive, got {anneal_from}")
    try:
        u_cur = potential(init, data)
    except NotPositiveDefiniteError as err:
        raise InitializationError("initial structured matrix is rank-deficient") from err
    grad_cur = None     # the gradient at state, when a move has computed it

    state = init
    tau_target = init.tau
    warmup = hmc_cfg.warmup
    m = _pack(state.subject_params, state.logits).size
    omega = np.ones(m)
    window_scale = 1.0

    # dual averaging (target: hmc_cfg.target_accept)
    step = hmc_cfg.step_size
    mu = np.log(10.0 * step)
    log_step_avg = np.log(step)
    accept_stat = 0.0
    da_gamma, da_t0, da_kappa = 0.05, 10.0, 0.75

    # per-coordinate position variance for the kinetic diagonal
    var_count = 0
    var_mean = np.zeros(m)
    var_m2 = np.zeros(m)
    collect_from = warmup // 10
    refresh_points = {warmup // 2, (3 * warmup) // 4} - {0}

    exch_window_accepts = 0
    grad_evals = grads_reused = 0
    hmc_total = 0
    exch_total = 0
    skip_total = 0

    k, s_n, n = state.depth, state.subject_params.n_subjects, state.n_nodes
    recorded = range(warmup, iterations, thin)
    t_n = len(recorded)
    log = SampleLog(
        iterations=np.asarray(recorded, dtype=np.int64),
        u=np.empty(t_n),
        hmc_accept=np.empty(t_n, dtype=bool),
        exch_accept=np.empty(t_n, dtype=bool),
        exch_skipped=np.empty(t_n, dtype=bool),
        step_sizes=np.empty(t_n),
        a=np.empty((t_n, k)),
        b=np.empty((t_n, k)),
        p=np.empty((t_n, k)),
        offsets=np.empty((t_n, s_n)),
        log_loadings=np.empty((t_n, s_n, k)),
        w_hard=np.empty((t_n, n, k)),
    )
    for t in range(iterations):
        if anneal_from is not None and warmup > 0:
            frac = min(1.0, t / warmup)
            tau_t = anneal_from + (tau_target - anneal_from) * frac
            if tau_t != state.tau:
                retempered = dataclasses.replace(state, tau=tau_t)
                # a temperature change is taken only if it stays whitenable
                pos = _pack(state.subject_params, state.logits)
                try:
                    with _diverging():
                        u_cur, grad_cur = _evaluator(retempered, data)(pos, with_potential=True)
                    state = retempered
                except NotPositiveDefiniteError:
                    pass
                except _DivergenceError:
                    # whitenable, but the next trajectory will reject
                    state, u_cur, grad_cur = retempered, potential(retempered, data), None

        grads_reused += grad_cur is not None
        state, hmc_acc, alpha, u_cur, grad_cur, evals = _hmc_step(
            state, data, rng, step, hmc_cfg.leapfrog_steps, omega, u_cur, grad_cur
        )
        grad_evals += evals
        state, exch_acc, exch_skip, u_cur = _exchange_step(
            state, data, exch_cfg, rng, exch_cfg.window * window_scale, u_cur
        )
        if exch_acc:
            grad_cur = None     # a, b and p moved
        hmc_total += int(hmc_acc)
        exch_total += int(exch_acc)
        skip_total += int(exch_skip)

        # the exchange move keeps the HMC position, which adaptation reads
        if t < warmup:
            t1 = t + 1
            accept_stat += (hmc_cfg.target_accept - alpha - accept_stat) / (t1 + da_t0)
            log_step = mu - np.sqrt(t1) / da_gamma * accept_stat
            eta = t1 ** (-da_kappa)
            log_step_avg = eta * log_step + (1.0 - eta) * log_step_avg
            step = float(np.exp(log_step))

            if t >= collect_from:
                var_count += 1
                pos = _pack(state.subject_params, state.logits)
                delta = pos - var_mean
                var_mean += delta / var_count
                var_m2 += delta * (pos - var_mean)
            if t1 in refresh_points and var_count > 10:
                var = var_m2 / (var_count - 1)
                omega = np.clip(
                    (var_count * var + 5.0) / (var_count + 5.0), 1e-4, 1e4
                )

            exch_window_accepts += int(exch_acc)
            if t1 % 50 == 0:
                rate = exch_window_accepts / 50.0
                window_scale *= float(np.exp(0.8 * (rate - EXCHANGE_TARGET_ACCEPT)))
                window_scale = float(np.clip(window_scale, 1e-2, 40.0))
                exch_window_accepts = 0
        elif warmup > 0 and t == warmup:
            # without warmup the chain runs at the configured step as given
            step = float(np.exp(log_step_avg))

        if t >= warmup and (t - warmup) % thin == 0:
            r = (t - warmup) // thin
            log.u[r] = u_cur
            log.hmc_accept[r] = hmc_acc
            log.exch_accept[r] = exch_acc
            log.exch_skipped[r] = exch_skip
            log.step_sizes[r] = step
            log.a[r] = state.values.a
            log.b[r] = state.values.b
            log.p[r] = state.probs.p
            log.offsets[r] = state.subject_params.offsets
            log.log_loadings[r] = state.subject_params.log_loadings
            log.w_hard[r] = state.hard_weights()

    log.meta = {
        "iterations": iterations,
        "warmup": warmup,
        "thin": thin,
        "final_step_size": step,
        "window_scale": window_scale,
        "tau": tau_target,
        "n": n,
        "k": k,
        "n_subjects": s_n,
        "hmc_accept_rate": hmc_total / iterations if iterations else 0.0,
        "exch_accept_rate": exch_total / iterations if iterations else 0.0,
        "exch_skip_count": skip_total,
        "grad_evals": grad_evals,
        "grads_reused": grads_reused,
        "mass_range": [float(omega.min()), float(omega.max())],
    }
    return log
