"""Correctness checks on a fit's and a summary's output files.

Everything the summary reports is recomputed here from `trace.csv` and
`w_trace.csv` with the benchmark's own code: label canonicalisation,
sign-aligned averaging of the per-draw frames, and whitening by QR with
a positive diagonal, which equals the program's Cholesky whitening.
Property checks cover what a recomputation cannot: finite traces of the
configured length, an orthonormal frame mean, the cell structure of
whitened columns, the potential gradient, and post-warmup acceptance.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from inputs import qr_whiten

SUMMARY_TOL = 1e-9      # relative (floored at 1) agreement with summary.json
ORTHO_TOL = 1e-8        # |Q'Q - I| of the reported frame mean
CELL_TOL = 1e-8         # spread of a whitened column inside one cell
FD_STEP = 1e-5
FD_RTOL = 1e-4          # finite differences vs analytic gradient, floored at 1
FD_ROUNDING = 1e2       # multiples of eps * |U| / h allowed for cancellation


def read_chain(chain_dir):
    """One chain's draws, parsed from its two CSV files by column name."""
    chain_dir = Path(chain_dir)
    with open(chain_dir / "trace.csv") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    with open(chain_dir / "w_trace.csv") as fh:
        w_header = fh.readline().strip().split(",")
        w_rows = [line.strip().split(",") for line in fh if line.strip()]
    raw = np.asarray(rows, dtype=np.float64).reshape(len(rows), len(header))
    w_raw = np.asarray(w_rows, dtype=np.float64).reshape(len(w_rows), len(w_header))
    col = {name: i for i, name in enumerate(header)}
    k = sum(name.startswith("a_") for name in header)
    s_n = sum(name.startswith("z_") for name in header)
    nodes = sorted({int(name.split("_")[1]) for name in w_header[1:]})
    w_col = {name: i for i, name in enumerate(w_header)}

    def pick(names):
        return raw[:, [col[name] for name in names]]

    t_n = raw.shape[0]
    return {
        "raw": raw,
        "w_raw": w_raw,
        "iteration": raw[:, col["iteration"]],
        "u": raw[:, col["U"]],
        "hmc_accept": raw[:, col["hmc_accept"]],
        "exch_accept": raw[:, col["exch_accept"]],
        "a": pick([f"a_{j + 1}" for j in range(k)]),
        "b": pick([f"b_{j + 1}" for j in range(k)]),
        "p": pick([f"p_{j + 1}" for j in range(k)]),
        "offsets": pick([f"z_{i + 1}" for i in range(s_n)]),
        "log_loadings": pick(
            [f"logd_{i + 1}_{j + 1}" for i in range(s_n) for j in range(k)]
        ).reshape(t_n, s_n, k),
        "w": w_raw[:, [w_col[f"w_{i}_{j + 1}"] for i in nodes for j in range(k)]]
        .reshape(w_raw.shape[0], len(nodes), k),
    }


def canonical(chain):
    """(a, b, p, w) under the a_j > b_j label convention.

    Swapping (a_j, b_j) while complementing assignment column j and its
    rate leaves the structured matrix unchanged.
    """
    swap = chain["a"] < chain["b"]
    a = np.where(swap, chain["b"], chain["a"])
    b = np.where(swap, chain["a"], chain["b"])
    p = np.where(swap, 1.0 - chain["p"], chain["p"])
    w = np.where(swap[:, None, :], 1.0 - chain["w"], chain["w"])
    return a, b, p, w


def check_traces(chains, rows, n, k, subjects):
    """Finite values, the configured row count and shape, one row per draw."""
    failures = []
    for name, chain in chains.items():
        if chain["raw"].shape[0] != rows or chain["w_raw"].shape[0] != rows:
            failures.append(
                f"{name}: {chain['raw'].shape[0]} trace and {chain['w_raw'].shape[0]} "
                f"w_trace rows, expected {rows}"
            )
        if not np.isfinite(chain["raw"]).all() or not np.isfinite(chain["w_raw"]).all():
            failures.append(f"{name}: non-finite trace value")
        if chain["w"].shape[1:] != (n, k) or chain["offsets"].shape[1] != subjects:
            failures.append(f"{name}: trace columns do not match n={n}, k={k}, S={subjects}")
        if not np.array_equal(chain["iteration"], chain["w_raw"][:, 0]):
            failures.append(f"{name}: trace and w_trace iterations differ")
    return failures


def check_acceptance(chains):
    """Post-warmup acceptance: every chain's exchange move, and HMC over the fit.

    HMC is checked over all chains together.  On the recovery setting
    some chains stall after warmup (2 of 40 in a 20-seed survey
    accepted 1 and 4 proposals of 80), so a per-chain HMC test would
    fail on some input seeds, for a fault of the sampler's adaptation.
    """
    failures = [f"{name}: no exchange proposal accepted after warmup"
                for name, chain in chains.items() if not chain["exch_accept"].sum() >= 1]
    if not sum(chain["hmc_accept"].sum() for chain in chains.values()) >= 1:
        failures.append("no HMC proposal accepted after warmup in any chain")
    return failures


def recompute_summary(chains, burn_in):
    """The summary's point estimates, from the pooled post-burn-in draws."""
    parts = []
    for chain in chains.values():
        start = int(math.floor(chain["raw"].shape[0] * burn_in))
        parts.append([arr[start:] for arr in (*canonical(chain), chain["log_loadings"])])
    a, b, _, w, log_loadings = (np.concatenate(arrs) for arrs in zip(*parts))
    loadings = np.exp(log_loadings)
    d_mean = loadings.mean(axis=0)
    q_sum, q_ref, used = None, None, 0
    for t in range(a.shape[0]):
        q = qr_whiten(w[t] * a[t] + (1.0 - w[t]) * b[t])
        if q is None:
            continue
        if q_ref is None:
            q_ref, q_sum = q, np.zeros_like(q)
        flip = np.sign(np.einsum("ik,ik->k", q, q_ref))
        flip[flip == 0.0] = 1.0
        q_sum += q * flip
        used += 1
    q_mean = q_sum / used
    whitened = qr_whiten(q_mean)
    if whitened is not None:
        q_mean = whitened
    level_scale = d_mean.mean(axis=0)
    return {
        "w_prob": w.mean(axis=0),
        "d_mean": d_mean,
        "q_mean": q_mean,
        "factors": [level_scale[j] * np.outer(q_mean[:, j], q_mean[:, j])
                    for j in range(q_mean.shape[1])],
        "n_frame_draws": used,
    }


def subspace_error(q_hat, q_ref):
    p_hat, p_ref = q_hat @ q_hat.T, q_ref @ q_ref.T
    return float(np.linalg.norm(p_hat - p_ref) / np.linalg.norm(p_ref))


def _mismatch(name, got, want, tol=SUMMARY_TOL):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, recomputed {want.shape}"]
    if not np.isfinite(got).all():
        return [f"{name}: non-finite value"]
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    if err.size and err.max() > tol:
        return [f"{name}: differs from recomputation by {err.max():.3g} (relative)"]
    return []


def check_summary(summary_dir, chains, burn_in, truth_frame):
    """summary.json and factors/ against the recomputation, plus q_mean orthonormality."""
    summary_dir = Path(summary_dir)
    payload = json.loads((summary_dir / "summary.json").read_text())
    ref = recompute_summary(chains, burn_in)
    failures = []
    for key in ("w_prob", "d_mean", "q_mean"):
        failures += _mismatch(key, payload[key], ref[key])
    if payload["meta"]["n_frame_draws"] != ref["n_frame_draws"]:
        failures.append(
            f"n_frame_draws: {payload['meta']['n_frame_draws']}, recomputed {ref['n_frame_draws']}"
        )
    for j, factor in enumerate(ref["factors"], start=1):
        path = summary_dir / "factors" / f"factor_{j}.csv"
        got = np.loadtxt(path, delimiter=",", ndmin=2) if path.exists() else np.empty(0)
        failures += _mismatch(f"factors/factor_{j}.csv", got, factor)
    failures += _mismatch(
        "recovery.subspace_error",
        payload["recovery"]["subspace_error"],
        subspace_error(ref["q_mean"], np.asarray(truth_frame)),
    )
    q_mean = np.asarray(payload["q_mean"], dtype=np.float64)
    if np.abs(q_mean.T @ q_mean - np.eye(q_mean.shape[1])).max() > ORTHO_TOL:
        failures.append("q_mean is not orthonormal")
    return failures


def check_cells(chains, whiten, rank_ok, rng, draws_per_chain=4):
    """Whitened column j is constant on each level-j cell of a draw's hard pattern.

    Applies the program's whitening to sampled retained draws; this is
    the paper's central property.
    """
    failures = []
    for name, chain in chains.items():
        t_n = chain["raw"].shape[0]
        for t in rng.choice(t_n, size=min(draws_per_chain, t_n), replace=False):
            w = chain["w"][t]
            x = w * chain["a"][t] + (1.0 - w) * chain["b"][t]
            if not rank_ok(x):
                continue
            q = whiten(x)
            for j in range(w.shape[1]):
                _, cell = np.unique(w[:, : j + 1], axis=0, return_inverse=True)
                cell = cell.ravel()
                for c in np.unique(cell):
                    col = q[cell == c, j]
                    if col.max() - col.min() > CELL_TOL:
                        failures.append(
                            f"{name}: draw {t} column {j + 1} varies inside a level cell"
                        )
                        break
    return failures


def draw_state(modules, chain, tau):
    """The program's ChainState at a chain's last retained draw.

    The trace files carry only the hard pattern, so the logits are set
    at the margin initial_state uses (weights 0.05 / 0.95).
    """
    w = chain["w"][-1]
    return modules["sampler"].ChainState(
        logits=tau * np.log((0.05 + 0.9 * w) / (0.95 - 0.9 * w)),
        values=modules["prior"].ColumnValues(a=chain["a"][-1], b=chain["b"][-1]),
        probs=modules["prior"].MixtureProbs(p=chain["p"][-1]),
        subject_params=modules["model"].SubjectParams(
            log_loadings=chain["log_loadings"][-1], offsets=chain["offsets"][-1]),
        tau=tau,
    )


def check_gradient(modules, data, chain, tau, rng, coords_per_block=4):
    """potential_grad against central differences of potential.

    Runs at the chain's last retained draw (see draw_state), so at the
    workload's own size.
    """
    sampler = modules["sampler"]
    state = draw_state(modules, chain, tau)
    sp = state.subject_params
    grad = np.concatenate([g.ravel() for g in sampler.potential_grad(state, data)])
    vec = np.concatenate([sp.log_loadings.ravel(), sp.offsets, state.logits.ravel()])
    sizes = (sp.log_loadings.size, sp.offsets.size, state.logits.size)
    starts = np.cumsum((0,) + sizes[:-1])
    coords = np.concatenate([
        start + rng.choice(size, size=min(coords_per_block, size), replace=False)
        for start, size in zip(starts, sizes)
    ])

    def potential_at(v):
        moved = dataclasses.replace(
            state,
            logits=v[starts[2]:].reshape(state.logits.shape),
            subject_params=dataclasses.replace(
                sp, log_loadings=v[: sizes[0]].reshape(sp.log_loadings.shape),
                offsets=v[starts[1]:starts[2]]),
        )
        return sampler.potential(moved, data)

    u0 = abs(potential_at(vec))
    failures = []
    for i in coords:
        up, down = vec.copy(), vec.copy()
        up[i] += FD_STEP
        down[i] -= FD_STEP
        fd = (potential_at(up) - potential_at(down)) / (2.0 * FD_STEP)
        allowed = FD_RTOL * max(1.0, abs(grad[i])) + FD_ROUNDING * np.finfo(float).eps * u0 / FD_STEP
        if not abs(fd - grad[i]) <= allowed:
            failures.append(
                f"gradient coordinate {i}: analytic {grad[i]:.6g}, finite difference {fd:.6g}"
            )
    return failures
