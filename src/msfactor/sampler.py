"""Posterior sampling for the multi-scale network factor model.

The chain alternates two moves:
  (i)  HMC on the continuous block (log-loadings, offsets, assignment
       logits), with binary assignments relaxed through a tempered
       sigmoid so the potential is differentiable;
  (ii) an exchange move on (a, b, p) that sidesteps the intractable
       normalizing constant of the rank-constrained assignment prior
       by rejection-sampling an auxiliary assignment pattern.

The shared potential, each term's value beside its gradient in _evaluator, is
  U = -log-likelihood - log prior(log-loadings, offsets) - log Bernoulli(p)
      mass(relaxed weights) - ((n - k - 1)/2) log det X'X + sum(a^2 + b^2)/2,
and a Cholesky failure anywhere (the rank test) invalidates the proposal
that produced it.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import prior
from .csvtext import csv_rows, g17_slots
from .model import SubjectParams, _expit, _logit, log_likelihood, log_likelihood_grads
from .prior import (
    ColumnValues,
    MixtureProbs,
    build_x,
    full_rank_pattern,
    random_full_rank_partition,
)
from .whitening import (
    NotPositiveDefiniteError,
    _ignore_fp_errors,
    _whitened,
    rank_ok,
    whiten_backward,
)

LOADING_SHAPE = 0.1   # inverse-gamma shape for each loading
LOADING_RATE = 0.1    # inverse-gamma rate
OFFSET_SD = 10.0      # normal prior sd for each offset
# the inverse-gamma log-density's constant, shape log(rate) - log Gamma(shape)
_LOADING_LOG_NORM = LOADING_SHAPE * np.log(LOADING_RATE) - math.lgamma(LOADING_SHAPE)
PROB_FLOOR = 1e-12  # keeps exchanged rates strictly inside (0, 1)
TARGET_ACCEPT = 0.7  # the HMC acceptance rate warmup adapts the step toward
AUX_ATTEMPTS = 100   # auxiliary patterns an exchange move draws before "aux_exhausted"
# |logit / tau| beyond which a relaxed weight is within e^-30 of 0 or 1,
# so its HMC gradient has all but vanished; run_meta.json reports the
# share of such logits at the end of a chain
SATURATED_LOGIT = 30.0
# every outcome of a move, in the order run_meta.json lists their counts
HMC_OUTCOMES = ("accepted", "mh", "rank", "divergence")
EXCHANGE_OUTCOMES = ("accepted", "mh", "rank", "reverse_rank", "aux_exhausted", "divergence")


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


class _Step(NamedTuple):
    """A move's result: the state, its U, its gradient (None if unknown), the
    outcome ("start" before any move), and for HMC alpha and the gradient passes."""

    state: ChainState
    u: float
    grad: np.ndarray | None
    outcome: str
    alpha: float = 0.0
    evals: int = 0


@dataclass(frozen=True)
class HmcConfig:
    step_size: float = 0.05
    leapfrog_steps: int = 10
    warmup: int = 1000

    def __post_init__(self):
        if not self.step_size > 0.0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        if self.leapfrog_steps < 1:
            raise ValueError(f"leapfrog_steps must be >= 1, got {self.leapfrog_steps}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")


@dataclass(frozen=True)
class ExchangeConfig:
    window: float = 0.25            # uniform half-width for the a, b proposals

    def __post_init__(self):
        # zero freezes a, b (identity proposal), still a valid kernel on p
        if self.window < 0.0:
            raise ValueError(f"window must be >= 0, got {self.window}")


def potential(state, data):
    """Joint potential U; raises NotPositiveDefiniteError on rank failure.

    data may be None, dropping the likelihood term (prior-only chain).
    """
    pos = _pack(state.subject_params, state.logits)
    return _evaluator(state, data)(pos, with_potential=True, with_grad=False)


def _blocks(vec, s_n, k):
    """(log_loadings, offsets, logits) as views of a vector laid out by _pack."""
    i_z = s_n * k
    i_lg = i_z + s_n
    return vec[:i_z].reshape(s_n, k), vec[i_z:i_lg], vec[i_lg:].reshape(-1, k)


def _evaluator(state, data, grad_dtype=np.float32):
    """U and its gradient at flat positions sharing state's a, b, p and tau.

    Returns evaluate(v, with_potential=False, with_grad=True), which
    reads log-loadings, offsets and logits as views of the position v
    (laid out by _pack) and writes the gradient into one vector
    allocated here: every call returns that vector and the next call
    overwrites it.  With with_potential it returns (U, gradient), the
    likelihood's value from log_likelihood and its gradients from
    log_likelihood_grads; without with_grad, U alone, with neither the
    gradient stage nor the backward pass.  Nothing is
    validated; NotPositiveDefiniteError (the rank test) and
    _DivergenceError (a non-finite frame gradient, or log-loadings past
    what grad_dtype holds as loadings) propagate.

    U is always float64.  The likelihood gradient's S x n x n stage runs
    at grad_dtype: float32 by default, the force the trajectories
    integrate, and float64 for potential_grad's exact gradient.  The
    force is one deterministic function of the position, whichever pass
    computes it, so leapfrog under it stays reversible and
    volume-preserving, and the Metropolis test on the float64 U keeps
    the chain exact (Neal 2011, "MCMC using Hamiltonian dynamics").
    """
    values, probs, tau = state.values, state.probs, state.tau
    b_minus_a = values.b - values.a
    # the p and a, b parts of U and its gradient, fixed along a trajectory
    logit_p = _logit(probs.p)
    log_p, log_1m_p = np.log(probs.p), np.log1p(-probs.p)
    lab = float(-0.5 * (values.a @ values.a + values.b @ values.b))
    s_n, k = state.subject_params.log_loadings.shape
    gram_weight = state.n_nodes - k - 1
    # past this, a loading overflows the gradient stage's precision
    log_loading_max = float(np.log(np.finfo(grad_dtype).max))
    grad = np.empty(s_n * k + s_n + state.logits.size)
    grad_ld, grad_z, grad_lg = _blocks(grad, s_n, k)

    def evaluate(v, with_potential=False, with_grad=True):
        ld, z, logits = _blocks(v, s_n, k)
        w = _expit(logits / tau)
        q, log_det, passes = _whitened(build_x(w, values))
        d = np.exp(ld)
        rate_d = LOADING_RATE / d
        if with_grad:
            # a prior-only chain's likelihood gradients are zero, and x - 0.0
            # is x for every float, so both cases share one assembly; its frame
            # gradient stays None, as adding a zero one could turn a -0.0 into 0.0
            g_q, g_ld, g_z = None, 0.0, 0.0
            if data is not None:
                if ld.max() > log_loading_max:
                    raise _DivergenceError("log-loading past the gradient stage's range")
                g_q, g_ld, g_z = log_likelihood_grads(data, q, d, z, grad_dtype)
                if not np.isfinite(g_q).all():
                    raise _DivergenceError("non-finite frame gradient")
            np.subtract(LOADING_SHAPE - g_ld, rate_d, out=grad_ld)
            np.subtract(z / OFFSET_SD**2, g_z, out=grad_z)
            # -dU/dX: the likelihood's part through the frame plus the
            # gram term's, (n - k - 1) times d(log det(X'X) / 2)/dX
            gx = whiten_backward(passes, g_q, gram_weight)
            sig_slope = w * (1.0 - w) / tau
            np.multiply(gx * b_minus_a - logit_p, sig_slope, out=grad_lg)
            if not with_potential:
                return grad
        ll = 0.0 if data is None else log_likelihood(data, q, d, z)
        # inverse-gamma loadings on the log scale, normal offsets
        lp = float((_LOADING_LOG_NORM - LOADING_SHAPE * ld - rate_d).sum()
                   - 0.5 * (z / OFFSET_SD) @ (z / OFFSET_SD))
        # the relaxed weights plugged into the Bernoulli(p) mass as they are
        lg = float(np.sum(w * log_p + (1.0 - w) * log_1m_p))
        gram = gram_weight * log_det    # log_det = log det(X'X) / 2
        u = -(ll + lp + lg + gram + lab)
        return (u, grad) if with_grad else u

    return evaluate


def potential_grad(state, data):
    """Exact gradient of U over (log_loadings, offsets, logits), every stage in float64."""
    s_n, k = state.subject_params.log_loadings.shape
    pos = _pack(state.subject_params, state.logits)
    return _blocks(_evaluator(state, data, np.float64)(pos), s_n, k)


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


def _hmc_step(cur, data, rng, step, n_steps, omega):
    """One HMC trajectory from cur, from its gradient if known; a
    non-finite position, gradient or log-alpha rejects as "divergence"."""
    state = cur.state
    evaluate = _evaluator(state, data)
    pos = _pack(state.subject_params, state.logits)
    vel = rng.standard_normal(pos.size) / np.sqrt(omega)
    kin0 = _kinetic(vel, omega)
    calls = evals = 0
    first = cur.grad
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
        with _ignore_fp_errors():
            pos1, vel1 = leapfrog(pos, vel, grad_fn, step, n_steps, omega)
            kin1 = _kinetic(vel1, omega)
    except NotPositiveDefiniteError:
        # the last pass failed at the whitening and computed no gradient
        return _Step(state, cur.u, first, "rank", 0.0, evals - 1)
    except _DivergenceError:
        return _Step(state, cur.u, first, "divergence", 0.0, evals)
    log_alpha = (cur.u - u_prop) + (kin0 - kin1)
    if not np.isfinite(log_alpha):
        return _Step(state, cur.u, first, "divergence", 0.0, evals)
    alpha = float(np.exp(min(0.0, log_alpha)))
    if rng.random() < alpha:
        return _Step(_unpack(pos1, state), u_prop, g_prop, "accepted", alpha, evals)
    return _Step(state, cur.u, first, "mh", alpha, evals)


def hmc_update(state, data, cfg, rng):
    """One HMC transition at the configured step size and unit mass."""
    omega = np.ones(_pack(state.subject_params, state.logits).size)
    cur = _Step(state, potential(state, data), None, "start")
    step = _hmc_step(cur, data, rng, cfg.step_size, cfg.leapfrog_steps, omega)
    return step.state, step.outcome == "accepted"


def _exchange_step(cur, data, rng, window):
    """One exchange move on (a, b, p) from cur; an acceptance drops the gradient,
    and a rejection keeps cur's state, U and gradient."""
    state = cur.state
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
        AUX_ATTEMPTS,
    )
    if aux is None:
        return _Step(state, cur.u, cur.grad, "aux_exhausted")

    # the reverse move draws the same pattern under the current values,
    # so it must be full rank there too
    if not rank_ok(build_x(aux, state.values)):
        return _Step(state, cur.u, cur.grad, "reverse_rank")

    proposal = dataclasses.replace(
        state, values=values_star, probs=MixtureProbs(p=p_star)
    )
    try:
        u_star = potential(proposal, data)
    except NotPositiveDefiniteError:
        return _Step(state, cur.u, cur.grad, "rank")

    # log of g(W; p)/g(W; p*) x g(Y; p)/g(Y; p*); the first factor is
    # simultaneously the Beta proposal-density correction (the Beta
    # normalizers cancel because the counts are fixed during the move)
    aux_counts = aux.sum(axis=0)
    dlp = np.log(p) - np.log(p_star)
    dlq = np.log1p(-p) - np.log1p(-p_star)
    log_ratio = (cur.u - u_star)
    log_ratio += float(counts @ dlp + (n - counts) @ dlq)
    log_ratio += float(aux_counts @ dlp + (n - aux_counts) @ dlq)
    if not np.isfinite(log_ratio):
        return _Step(state, cur.u, cur.grad, "divergence")
    if rng.random() < np.exp(min(0.0, log_ratio)):
        return _Step(proposal, u_star, None, "accepted")
    return _Step(state, cur.u, cur.grad, "mh")


def exchange_update(state, data, cfg, rng):
    """One exchange transition on (a, b, p) at the configured window."""
    cur = _Step(state, potential(state, data), None, "start")
    step = _exchange_step(cur, data, rng, cfg.window)
    return step.state, step.outcome == "accepted"


def initial_state(data, k, tau, rng, n=None, n_subjects=None):
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
    w = random_full_rank_partition(n, k, values, rng)
    if w is None:
        raise InitializationError(
            f"no full-rank starting pattern in {prior.PARTITION_ATTEMPTS} attempts (n={n}, k={k})"
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
    The fields up to log_loadings are trace.csv's blocks, laid out by
    _layout; w_hard is w_trace.csv.
    """

    iterations: np.ndarray
    u: np.ndarray
    hmc_accept: np.ndarray
    exch_accept: np.ndarray
    step_sizes: np.ndarray
    exch_skipped: np.ndarray
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

    @classmethod
    def _empty(cls, t_n, n, k, s):
        """A log of t_n unfilled draws for n nodes, depth k and S subjects."""
        blocks = {name: np.empty((t_n, *shape), dtype) for name, _, dtype, shape in _layout(k, s)}
        return cls(**blocks, w_hard=np.empty((t_n, n, k)))

    def to_csv(self, trace_path, w_trace_path):
        t_n, n, k = self.w_hard.shape
        layout = _layout(k, self.offsets.shape[1])
        # the integer and flag columns ride in the float table: below 1e17,
        # '%.17g' of an integer-valued float is the text '%d' prints
        table = np.column_stack([getattr(self, name).reshape(t_n, len(names))
                                 for name, names, _, _ in layout])
        with open(trace_path, "wb") as fh:
            fh.write((",".join(_columns(layout)) + "\n").encode())
            fh.write(csv_rows(g17_slots(table)))
        # every row after its iteration number is ",c,c,...,c\n" with
        # 0/1 cells, built for all rows at once as bytes
        cells = self.w_hard.reshape(self.n_draws, n * k)
        body = np.empty((self.n_draws, 2 * cells.shape[1] + 1), dtype=np.uint8)
        body[:, :-1:2] = ord(",")
        body[:, 1::2] = cells.astype(np.uint8) + ord("0")
        body[:, -1] = ord("\n")
        with open(w_trace_path, "wb") as fh:
            fh.write((",".join(_w_header(n, k)) + "\n").encode())
            for it, row in zip(self.iterations, body):
                fh.write(str(int(it)).encode() + row.tobytes())

    @classmethod
    def from_csv(cls, trace_path, w_trace_path):
        """Read a pair to_csv wrote; any other pair is a ValueError naming the file."""
        header, raw = _read_csv(trace_path)
        k = sum(1 for name in header if name.startswith("a_"))
        s = sum(1 for name in header if name.startswith("z_"))
        layout = _layout(k, s)
        _check_header(header, _columns(layout), trace_path)
        t_n, start, blocks = raw.shape[0], 0, {}
        for name, names, dtype, _ in layout:
            blocks[name] = raw[:, start:start + len(names)]
            start += len(names)
            if dtype is bool and not np.isin(blocks[name], (0.0, 1.0)).all():
                raise ValueError(f"{trace_path}: {names[0]} must be 0 or 1")

        w_header, w_it, cells = _read_w_trace(w_trace_path)
        n = (len(w_header) - 1) // max(k, 1)
        _check_header(w_header, _w_header(n, k), f"{w_trace_path}, covering nodes 0..{n - 1},")
        if w_it.size != t_n:
            raise ValueError(f"{w_trace_path} holds {w_it.size} draws, {trace_path} {t_n}")
        # the parsed floats, so a non-integer iteration in trace.csv differs too
        if not np.array_equal(w_it, blocks["iterations"].ravel()):
            raise ValueError(f"{w_trace_path} iteration numbers differ from {trace_path}'s")

        # cast into fresh C-order arrays, so reductions over the blocks sum
        # in the same order as on the arrays run_chain builds
        log = cls._empty(t_n, n, k, s)
        for name, block in blocks.items():
            column = getattr(log, name)
            column[:] = block.reshape(column.shape)
        log.w_hard[:] = cells.reshape(t_n, n, k)
        return log


def _layout(k, s):
    """trace.csv's blocks in file order, for depth k and S subjects: each
    block's SampleLog field, column names, dtype and per-draw shape."""
    return (
        ("iterations", ["iteration"], np.int64, ()),
        ("u", ["U"], np.float64, ()),
        ("hmc_accept", ["hmc_accept"], bool, ()),
        ("exch_accept", ["exch_accept"], bool, ()),
        ("step_sizes", ["h"], np.float64, ()),
        ("exch_skipped", ["exch_skipped"], bool, ()),
        *((v, [f"{v}_{j + 1}" for j in range(k)], np.float64, (k,)) for v in "abp"),
        ("offsets", [f"z_{i + 1}" for i in range(s)], np.float64, (s,)),
        ("log_loadings", [f"logd_{i + 1}_{j + 1}" for i in range(s) for j in range(k)],
         np.float64, (s, k)),
    )


def _columns(layout):
    """trace.csv's header: every block's column names in file order."""
    return [column for _, names, _, _ in layout for column in names]


def _w_header(n, k):
    """w_trace.csv's column names for n nodes and depth k."""
    return ["iteration"] + [f"w_{i}_{j + 1}" for i in range(n) for j in range(k)]


def _check_header(header, expected, what):
    """Unless header is its writer's, a ValueError naming what and the first column that differs."""
    if header != expected:
        pairs = enumerate(zip(header + [None], expected + [None]))
        i = next(i for i, (found, wanted) in pairs if found != wanted)
        found = repr(header[i]) if i < len(header) else "no column"
        wanted = f"column {expected[i]}" if i < len(expected) else "no column"
        raise ValueError(f"{what} has {found} where its writer puts {wanted}")


def _read_csv(path):
    """Header names and the rows below them as floats (0 x columns if none)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = fh.read()
    if not rows.strip():
        return header, np.empty((0, len(header)))
    try:
        raw = np.loadtxt(rows.splitlines(), delimiter=",", ndmin=2)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    if raw.shape[1] != len(header):
        raise ValueError(f"{path} has {raw.shape[1]} cells a row under {len(header)} columns")
    return header, raw


def _read_w_trace(path):
    """Header names, iteration numbers and T x columns 0/1 cells of a w_trace.csv.

    Read as bytes: each row is an iteration number, then ",0" or ",1"
    per column; any other row is a ValueError naming the file.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode().strip().split(",")
        rows = fh.read().replace(b"\r\n", b"\n").split(b"\n")
    if rows[-1] == b"":
        rows.pop()
    width = 2 * (len(header) - 1)
    cut = [len(row) - width for row in rows]
    if not all(0 < c <= 18 and row[:c].isdigit() for row, c in zip(rows, cut)):
        raise ValueError(f"{path}: a row is not an iteration number, then one cell per column")
    # ",0" and ",1" as little-endian byte pairs
    pairs = np.frombuffer(b"".join([row[c:] for row, c in zip(rows, cut)]), dtype="<u2")
    if ((pairs | 0x100) != 0x312C).any():
        raise ValueError(f"{path}: w_ cells must be 0 or 1")
    iterations = np.array([int(row[:c]) for row, c in zip(rows, cut)], dtype=np.int64)
    return header, iterations, (pairs == 0x312C).reshape(len(rows), width // 2)


class _Tempering:
    """tau annealed linearly from anneal_from to the target over warmup."""

    def __init__(self, anneal_from, target, warmup):
        # without annealing or without warmup every step is at the target
        self.start = target if anneal_from is None or warmup == 0 else anneal_from
        self.target, self.warmup = target, warmup

    def retemper(self, t, cur, data):
        """cur's state at t's temperature; a rank failure keeps cur."""
        tau = self.start + (self.target - self.start) * min(1.0, t / max(self.warmup, 1))
        if tau == cur.state.tau:
            return cur
        retempered = dataclasses.replace(cur.state, tau=tau)
        pos = _pack(retempered.subject_params, retempered.logits)
        try:
            with _ignore_fp_errors():
                u, grad = _evaluator(retempered, data)(pos, with_potential=True)
            return _Step(retempered, u, grad, "accepted")
        except NotPositiveDefiniteError:
            return cur
        except _DivergenceError:
            # whitenable, but the next trajectory will reject
            return _Step(retempered, potential(retempered, data), None, "divergence")


class _StepSize:
    """Dual averaging of the HMC step toward TARGET_ACCEPT (Hoffman &
    Gelman 2014, section 3.2), frozen at its average at t == warmup."""

    def __init__(self, step, warmup):
        self.step, self.warmup = step, warmup
        self.mu = np.log(10.0 * step)
        self.log_avg = np.log(step)
        self.stat = 0.0

    def update(self, t, alpha):
        if t < self.warmup:
            t1 = t + 1
            self.stat += (TARGET_ACCEPT - alpha - self.stat) / (t1 + 10.0)
            log_step = self.mu - np.sqrt(t1) / 0.05 * self.stat
            eta = t1 ** -0.75
            self.log_avg = eta * log_step + (1.0 - eta) * self.log_avg
            self.step = float(np.exp(log_step))
        elif t == self.warmup and t > 0:
            # without warmup the chain runs at the configured step as given
            self.step = float(np.exp(self.log_avg))


class _KineticDiagonal:
    """omega from the variance of the positions visited from warmup // 10
    on, refreshed at warmup // 2 and 3 * warmup // 4."""

    def __init__(self, size, warmup):
        self.omega = np.ones(size)
        self.collect_from = warmup // 10
        self.refresh_points = {warmup // 2, (3 * warmup) // 4}
        self.count = 0
        self.mean = np.zeros(size)
        self.m2 = np.zeros(size)

    def update(self, t, state):
        if t >= self.collect_from:
            self.count += 1
            pos = _pack(state.subject_params, state.logits)
            delta = pos - self.mean
            self.mean += delta / self.count
            self.m2 += delta * (pos - self.mean)
        if t + 1 in self.refresh_points and self.count > 10:
            var = self.m2 / (self.count - 1)
            self.omega = np.clip((self.count * var + 5.0) / (self.count + 5.0), 1e-4, 1e4)


class _ExchangeWindow:
    """Exchange-window scale, moved toward a 0.35 acceptance rate every 50 iterations."""

    def __init__(self):
        self.scale = 1.0
        self.accepts = 0

    def update(self, t, accepted):
        self.accepts += int(accepted)
        if (t + 1) % 50 == 0:
            rate = self.accepts / 50.0
            self.scale *= float(np.exp(0.8 * (rate - 0.35)))
            self.scale = float(np.clip(self.scale, 1e-2, 40.0))
            self.accepts = 0


class _Recording:
    """The draws of range(warmup, iterations, thin), in a SampleLog allocated up front."""

    def __init__(self, init, warmup, iterations, thin):
        self.recorded = range(warmup, iterations, thin)
        self.log = SampleLog._empty(len(self.recorded), init.n_nodes, init.depth,
                                    init.subject_params.n_subjects)

    def record(self, t, hmc, exch, step):
        """Row t, if recorded: exch's state and potential, both moves' flags, the step."""
        if t in self.recorded:
            state, sp, r = exch.state, exch.state.subject_params, self.recorded.index(t)
            row = {"iterations": t, "u": exch.u, "hmc_accept": hmc.outcome == "accepted",
                   "exch_accept": exch.outcome == "accepted", "step_sizes": step,
                   "exch_skipped": exch.outcome == "aux_exhausted", "a": state.values.a,
                   "b": state.values.b, "p": state.probs.p, "offsets": sp.offsets,
                   "log_loadings": sp.log_loadings, "w_hard": state.hard_weights()}
            for name, value in row.items():
                getattr(self.log, name)[r] = value


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
    """Alternate HMC and exchange moves, annealing and adapting during warmup.

    Post-warmup draws are recorded raw every `thin` iterations.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if thin < 1:
        raise ValueError(f"thin must be >= 1, got {thin}")
    if anneal_from is not None and not anneal_from > 0.0:
        raise ValueError(f"anneal_from must be positive, got {anneal_from}")
    try:
        cur = _Step(init, potential(init, data), None, "start")
    except NotPositiveDefiniteError as err:
        raise InitializationError("initial structured matrix is rank-deficient") from err

    warmup = hmc_cfg.warmup
    tempering = _Tempering(anneal_from, init.tau, warmup)
    step_size = _StepSize(hmc_cfg.step_size, warmup)
    kinetic = _KineticDiagonal(_pack(init.subject_params, init.logits).size, warmup)
    window = _ExchangeWindow()
    recording = _Recording(init, warmup, iterations, thin)
    hmc_tally = Counter(dict.fromkeys(HMC_OUTCOMES, 0))
    exch_tally = Counter(dict.fromkeys(EXCHANGE_OUTCOMES, 0))
    grad_evals = grads_reused = 0
    for t in range(iterations):
        cur = tempering.retemper(t, cur, data)
        grads_reused += cur.grad is not None
        # the row records the step this trajectory runs at, before adaptation moves it
        step = step_size.step
        hmc = _hmc_step(cur, data, rng, step, hmc_cfg.leapfrog_steps, kinetic.omega)
        cur = _exchange_step(hmc, data, rng, exch_cfg.window * window.scale)
        hmc_tally[hmc.outcome] += 1
        exch_tally[cur.outcome] += 1
        grad_evals += hmc.evals
        # the exchange move keeps the HMC position, which adaptation reads
        step_size.update(t, hmc.alpha)
        if t < warmup:
            kinetic.update(t, cur.state)
            window.update(t, cur.outcome == "accepted")
        recording.record(t, hmc, cur, step)

    state, log = cur.state, recording.log
    log.meta = {
        "iterations": iterations,
        "warmup": warmup,
        "thin": thin,
        "final_step_size": step_size.step,
        "window_scale": window.scale,
        "tau": init.tau,
        "n": init.n_nodes,
        "k": init.depth,
        "n_subjects": init.subject_params.n_subjects,
        "hmc_accept_rate": hmc_tally["accepted"] / iterations if iterations else 0.0,
        "exch_accept_rate": exch_tally["accepted"] / iterations if iterations else 0.0,
        "exch_skip_count": exch_tally["aux_exhausted"],
        "grad_evals": grad_evals,
        "grads_reused": grads_reused,
        "mass_range": [float(kinetic.omega.min()), float(kinetic.omega.max())],
        "saturated_logit_share": float(np.mean(np.abs(state.logits / state.tau) > SATURATED_LOGIT)),
        "w_flips": int(np.count_nonzero(log.w_hard[1:] != log.w_hard[:-1])),
        "outcomes": {"hmc": dict(hmc_tally), "exchange": dict(exch_tally)},
    }
    return log
