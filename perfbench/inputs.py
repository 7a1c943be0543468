"""Workload table and input generation for the msfactor benchmark.

Inputs are generated here with plain numpy, not with `msfactor
simulate`, so a change to the program's simulator or to its use of the
random generator cannot change what the benchmark feeds it.  The same
workload seed always gives byte-identical files.

Regenerate the inputs of one workload without running it:

    python3 perfbench/inputs.py --workload recovery --seed 1 --out /tmp/recovery
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OFFSET = float(np.log(0.1 / 0.9))   # edge density about 0.1 away from the factors
LOADING_RANGE = (20.0, 40.0)
PIVOT_FLOOR = 1e-12                 # relative floor on the squared QR pivots


@dataclass(frozen=True)
class Workload:
    name: str
    index: int          # mixed into the seed, so workloads never share inputs
    n: int
    k: int
    subjects: int
    fit: dict           # msfactor fit config fields other than data and seed
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "recovery", 1, n=32, k=3, subjects=10,
            fit={"iterations": 160, "warmup": 80, "tau": 0.1, "step_size": 0.01,
                 "leapfrog_steps": 15, "anneal_from": 0.5, "chains": 2, "thin": 1},
            why="the paper's synthetic recovery fit: small arrays, per-call Python "
                "overhead dominates, and the only workload whose 2 chains use the pool",
        ),
        Workload(
            "fullscale", 2, n=128, k=30, subjects=20,
            fit={"iterations": 60, "warmup": 12, "tau": 0.2, "step_size": 0.05,
                 "leapfrog_steps": 10, "anneal_from": 0.5, "chains": 1, "thin": 1},
            why="full-size frame and 20 subjects: the likelihood kernels dominate "
                "and the chain pool is idle",
        ),
        Workload(
            "longtrace", 3, n=128, k=30, subjects=2,
            fit={"iterations": 200, "warmup": 40, "tau": 0.2, "step_size": 0.05,
                 "leapfrog_steps": 2, "anneal_from": 0.5, "chains": 1, "thin": 1},
            why="cheap iterations and many retained draws: whitening, the exchange "
                "move, trace writing and reading, and summarize come to the fore",
        ),
    )
}


def retained_draws(fit):
    """Rows each chain writes: post-warmup iterations kept at the thinning."""
    return -(-(fit["iterations"] - fit["warmup"]) // fit["thin"])


def qr_whiten(x):
    """Orthonormal frame of x by QR with a positive R diagonal.

    X = Q R with diag(R) > 0 gives X'X = R'R, so R' is the Cholesky
    factor of X'X and Q = X R^-1 is exactly the Cholesky-whitened frame.
    Returns None when a squared pivot falls under the relative floor.
    """
    q, r = np.linalg.qr(x)
    diag = np.diag(r)
    if np.any(diag**2 <= PIVOT_FLOOR * max(float(np.max(np.sum(x * x, axis=0))), 0.0)):
        return None
    return q * np.sign(diag)


def random_splits(n, k, rng):
    """k fair two-way splits of n nodes, each with both sides nonempty."""
    w = np.zeros((n, k))
    for j in range(k):
        while True:
            mask = rng.random(n) < 0.5
            if 0 < mask.sum() < n:
                break
        w[:, j] = mask
    return w


def generate(workload, seed):
    """Dataset and truth payloads for one workload seed."""
    rng = np.random.default_rng([workload.index, seed])
    n, k, s_n = workload.n, workload.k, workload.subjects
    a, b = np.ones(k), -np.ones(k)
    while True:
        w = random_splits(n, k, rng)
        frame = qr_whiten(w * a + (1.0 - w) * b)
        if frame is not None:
            break
    loadings = rng.uniform(*LOADING_RANGE, size=(s_n, k))
    psi = np.einsum("ik,sk,jk->sij", frame, loadings, frame) + OFFSET
    upper = np.triu(rng.random(psi.shape) < 1.0 / (1.0 + np.exp(-psi)), k=1)
    adjacency = (upper | np.swapaxes(upper, 1, 2)).astype(int)
    dataset = {"n": n, "subjects": adjacency.tolist()}
    truth = {
        "partition": {
            "n": n,
            "levels": [
                [np.flatnonzero(w[:, j] == 1).tolist(), np.flatnonzero(w[:, j] == 0).tolist()]
                for j in range(k)
            ],
        },
        "a": a.tolist(),
        "b": b.tolist(),
        "frame": frame.tolist(),
        "log_loadings": np.log(loadings).tolist(),
        "offsets": [OFFSET] * s_n,
        "seed": seed,
    }
    return dataset, truth


def write_inputs(workload, seed, out_dir):
    """Write dataset.json and truth.json; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset, truth = generate(workload, seed)
    data_path, truth_path = out / "dataset.json", out / "truth.json"
    data_path.write_text(json.dumps(dataset))
    truth_path.write_text(json.dumps(truth))
    return data_path, truth_path


def main():
    parser = argparse.ArgumentParser(description="Write one workload's benchmark inputs.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for path in write_inputs(WORKLOADS[args.workload], args.seed, args.out):
        print(path)


if __name__ == "__main__":
    main()
