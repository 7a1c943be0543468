"""Joint-distribution test of the whole kernel (Geweke 2004, "Getting it
right: joint distribution tests of posterior simulators", JASA).

The successive-conditional simulator alternates a dataset drawn from the
current state with one HMC and one exchange transition on that dataset.
If each transition leaves the posterior given its dataset invariant, the
chain's stationary law is the joint of parameters and data, so each
parameter's marginal is its prior.  The offsets and log-loadings enter U
only through their own prior and the likelihood, so their marginals are
known exactly at any tau: N(0, OFFSET_SD^2) and log InvGamma(shape,
rate).  a, b, p and the logits have no closed-form marginal under the
relaxation and the gram term, and are not read.  The logits' density is
improper, so the argument holds given the logits' path.

The dataset is drawn from the relaxed state, as the likelihood reads it,
and the trajectories integrate the float32 force that the chains use.
The loading prior is InvGamma(2, 2) here: at the shipped InvGamma(0.1,
0.1) log d has an sd of about 10, too wide to check in this many draws.
"""

import math

import numpy as np
import pytest
from scipy.special import digamma, polygamma

from msfactor import sampler
from msfactor.model import SubjectParams, simulate_dataset
from msfactor.sampler import (
    ExchangeConfig,
    HmcConfig,
    _exchange_step,
    _hmc_step,
    _pack,
    _Step,
    initial_state,
    potential,
)

N, K, S, TAU = 4, 2, 2, 0.5
HMC = HmcConfig(step_size=0.3, leapfrog_steps=10)
EXCHANGE = ExchangeConfig(window=0.5)
ITERATIONS = 16_000
BURN_IN = 0.1
BATCHES = 50
SEED = 1
# at ITERATIONS, max |z| over the eight checks read 0.83-2.74 at seeds
# 1-10; with the simulator's offsets shifted by +0.5 it read 22-29, and
# with its loadings scaled by e^0.5 it read 6.4-6.7, at seeds 1 and 2
BOUND = 4.0
# the offset fault shows in a run this short: 11.6-16.3 at seeds 1-3
MUTANT_ITERATIONS = 2_000

LOADING_SHAPE = LOADING_RATE = 2.0
# log d for d ~ InvGamma(shape, rate): mean log(rate) - digamma(shape),
# variance trigamma(shape)
LOG_LOADING_MEAN = math.log(LOADING_RATE) - float(digamma(LOADING_SHAPE))
LOG_LOADING_VAR = float(polygamma(1, LOADING_SHAPE))


def successive_conditional(seed, iterations, offset_shift=0.0, log_loading_shift=0.0):
    """(iterations x 4) draws of z_1, z_2, log d_11 and log d_22.

    Each iteration draws a dataset from the current relaxed state, then
    runs the chain's own HMC step (unit mass) and hands its result to the
    exchange step, as run_chain does.  The shifts plant a fault in the
    simulator's inputs; a correct check fails them.
    """
    rng = np.random.default_rng(seed)
    state = initial_state(None, K, TAU, rng, n=N, n_subjects=S)
    omega = np.ones(_pack(state.subject_params, state.logits).size)
    draws = np.empty((iterations, 4))
    for t in range(iterations):
        sp = state.subject_params
        planted = SubjectParams(
            log_loadings=sp.log_loadings + log_loading_shift, offsets=sp.offsets + offset_shift
        )
        data, _ = simulate_dataset(state.relaxed_weights(), state.values, planted, rng)
        # a new dataset changes U, so each iteration starts from a fresh one
        start = _Step(state, potential(state, data), None, "start")
        hmc = _hmc_step(start, data, rng, HMC.step_size, HMC.leapfrog_steps, omega)
        state = _exchange_step(hmc, data, EXCHANGE, rng, EXCHANGE.window).state
        sp = state.subject_params
        draws[t] = sp.offsets[0], sp.offsets[1], sp.log_loadings[0, 0], sp.log_loadings[1, 1]
    return draws


def _batch_z(series, expected):
    """Batch-means z-score of the series' mean against its expected value."""
    size = series.size // BATCHES
    means = series[: BATCHES * size].reshape(BATCHES, size).mean(axis=1)
    return (means.mean() - expected) / (means.std(ddof=1) / math.sqrt(BATCHES))


def z_scores(draws):
    """{check: z} for the mean and variance of each series, after burn-in."""
    kept = draws[int(BURN_IN * len(draws)):]
    targets = {
        "z_1": (0.0, sampler.OFFSET_SD**2),
        "z_2": (0.0, sampler.OFFSET_SD**2),
        "log d_11": (LOG_LOADING_MEAN, LOG_LOADING_VAR),
        "log d_22": (LOG_LOADING_MEAN, LOG_LOADING_VAR),
    }
    scores = {}
    for series, (name, (mean, var)) in zip(kept.T, targets.items()):
        scores[f"{name} mean"] = _batch_z(series, mean)
        scores[f"{name} var"] = _batch_z((series - mean) ** 2, var)
    return scores


@pytest.fixture
def inv_gamma_2_2(monkeypatch):
    # the evaluator reads both on every call; _LOADING_LOG_NORM stays at
    # the shipped prior's and only shifts U by a constant
    monkeypatch.setattr(sampler, "LOADING_SHAPE", LOADING_SHAPE)
    monkeypatch.setattr(sampler, "LOADING_RATE", LOADING_RATE)


@pytest.mark.usefixtures("inv_gamma_2_2")
def test_offsets_and_log_loadings_return_to_their_prior():
    scores = z_scores(successive_conditional(SEED, ITERATIONS))
    assert max(abs(z) for z in scores.values()) < BOUND, scores


@pytest.mark.usefixtures("inv_gamma_2_2")
def test_planted_offset_fault_fails_the_bound():
    scores = z_scores(successive_conditional(SEED, MUTANT_ITERATIONS, offset_shift=0.5))
    assert max(abs(z) for z in scores.values()) > BOUND, scores
