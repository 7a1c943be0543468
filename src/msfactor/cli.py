"""Command-line pipeline: simulate -> fit -> summarize.

Each subcommand reads a JSON config, applies flag overrides, writes its
effective config next to its outputs, and is deterministic given the
seed.  Exit codes: 0 success, 2 config, data or I/O problem outside a
chain, 3 runtime failure (rank, initialization, or any error in a chain).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from .csvtext import csv_rows, g17_slots
from .diagnostics import _retained_start, chain_ess, partition_recovery, subspace_error, summarize
from .model import NetworkDataset, SubjectParams, _logit, simulate_dataset
from .partition import RecursivePartition
from .prior import ColumnValues, MixtureProbs, random_full_rank_partition
from .sampler import (
    ExchangeConfig,
    HmcConfig,
    InitializationError,
    SampleLog,
    initial_state,
    run_chain,
)
from .whitening import NotPositiveDefiniteError


def __getattr__(name):
    # the process pool loads only when a fit runs chains in parallel; tests
    # and the benchmark's serial run replace cli.ProcessPoolExecutor
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(ValueError):
    """Bad or missing configuration value; message names the field."""


class ChainError(RuntimeError):
    """An error raised while a chain ran; message names the chain."""


def _read(path, what, parse):
    # an OSError passes through to main; its message names the path
    text = Path(path).read_text()
    try:
        return parse(text)
    except (ValueError, KeyError, TypeError) as err:
        raise ConfigError(f"{what} {path} is malformed: {type(err).__name__}: {err}") from err


def _load_config(path):
    cfg = _read(path, "config", json.loads)
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return cfg


_REQUIRED = object()  # the default of a field a config must give


def _fields(cfg, table):
    """Each field of table, {name: (kind, default)}, read from cfg.

    A field that is absent or null takes its default; a callable default
    is computed from the fields before it.  A float field takes an int.
    """
    # "out" is read by main, and written back into effective_config.json
    unknown = sorted(set(cfg) - set(table) - {"out"})
    if unknown:
        raise ConfigError(f"unknown config field: {unknown[0]}")
    got = {}
    for name, (kind, default) in table.items():
        value = cfg.get(name)
        if value is None and default is not _REQUIRED:
            got[name] = default(got) if callable(default) else default
            continue
        if name not in cfg:
            raise ConfigError(f"missing config field: {name}")
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ConfigError(f"config field {name} must be {kind.__name__}")
        # json reads NaN and Infinity, which no field can use; every int field
        # is a size, a count or a seed, and a list holds numbers (a bool is not)
        if (kind is int and value < 0 or kind is float and not math.isfinite(value)
                or kind is list and not all(type(v) in (int, float) and math.isfinite(v)
                                            for v in value)):
            raise ConfigError(f"config field {name} cannot be {json.dumps(value)}")
        got[name] = value
    return got


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


_SIMULATE_FIELDS = {
    "n": (int, _REQUIRED), "k": (int, _REQUIRED), "subjects": (int, _REQUIRED),
    "seed": (int, _REQUIRED), "loading_min": (float, 20.0), "loading_max": (float, 40.0),
    "offset": (float, float(_logit(0.1))),
    "a": (list, lambda got: [1.0] * got["k"]), "b": (list, lambda got: [-1.0] * got["k"]),
}


def cmd_simulate(cfg, out_dir):
    got = _fields(cfg, _SIMULATE_FIELDS)
    n, k, n_subjects, seed = got["n"], got["k"], got["subjects"], got["seed"]
    lo, hi, offset = got["loading_min"], got["loading_max"], got["offset"]
    if n < 2 or k < 1 or k > n:
        raise ConfigError("config fields n, k must satisfy n >= 2 and 1 <= k <= n")
    if n_subjects < 1:
        raise ConfigError("config field subjects must be >= 1")
    if not 0.0 < lo <= hi:
        raise ConfigError("config fields loading_min, loading_max must satisfy 0 < min <= max")

    rng = np.random.default_rng(seed)
    a = np.asarray(got["a"], dtype=np.float64)
    b = np.asarray(got["b"], dtype=np.float64)
    if a.size != k or b.size != k:
        raise ConfigError("config fields a, b must hold k values")
    values = ColumnValues(a=a, b=b)
    probs = MixtureProbs(p=np.full(k, 0.5))
    sp = SubjectParams(
        log_loadings=np.log(rng.uniform(lo, hi, size=(n_subjects, k))),
        offsets=np.full(n_subjects, offset),
    )

    rp = random_full_rank_partition(n, k, values, rng)
    if rp is None:
        raise InitializationError(f"no full-rank partition found for n={n}, k={k}")

    data, truth = simulate_dataset(rp, values, probs, sp, rng)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "dataset.json").write_text(data.to_json())
    _write_json(out / "truth.json", {
        "partition": json.loads(rp.to_json()),
        "a": a.tolist(),
        "b": b.tolist(),
        "p": probs.p.tolist(),
        "frame": truth["frame"].tolist(),
        "log_loadings": sp.log_loadings.tolist(),
        "offsets": sp.offsets.tolist(),
        "seed": seed,
    })
    _write_json(out / "effective_config.json", {**cfg, **got, "out": str(out)})
    print(f"wrote {out / 'dataset.json'} (edge density {data.edge_density():.4f})")
    return 0


def _fit_single_chain(args):
    (chain_id, data, got, hmc_cfg, exch_cfg, seed_words, out_dir) = args
    try:
        rng = np.random.default_rng(seed_words)
        state = initial_state(data, got["k"], got["tau"], rng)
        start = time.perf_counter()
        log = run_chain(
            data,
            state,
            hmc_cfg,
            exch_cfg,
            got["iterations"],
            rng,
            thin=got["thin"],
            anneal_from=got["anneal_from"],
        )
        elapsed = time.perf_counter() - start
        chain_dir = Path(out_dir) / f"chain_{chain_id:02d}"
        chain_dir.mkdir(parents=True, exist_ok=True)
        log.to_csv(chain_dir / "trace.csv", chain_dir / "w_trace.csv")
    except Exception as err:
        # the traceback goes to stderr here, since a pool worker's would be lost
        traceback.print_exc()
        raise ChainError(f"chain_{chain_id:02d}: {type(err).__name__}: {err}") from err
    return {**log.meta, "wall_seconds": elapsed, "n_draws": log.n_draws}


_FIT_FIELDS = {
    "data": (str, _REQUIRED), "k": (int, _REQUIRED), "seed": (int, _REQUIRED), "chains": (int, 1),
    "iterations": (int, _REQUIRED), "warmup": (int, lambda got: got["iterations"] // 2),
    "thin": (int, 1), "tau": (float, 0.2), "anneal_from": (float, None),
    "step_size": (float, HmcConfig.step_size), "leapfrog_steps": (int, HmcConfig.leapfrog_steps),
    "target_accept": (float, HmcConfig.target_accept), "window": (float, ExchangeConfig.window),
    "max_rejection_attempts": (int, ExchangeConfig.max_rejection_attempts),
}


def cmd_fit(cfg, out_dir):
    got = _fields(cfg, _FIT_FIELDS)
    data_path, k, chains = got["data"], got["k"], got["chains"]
    if chains < 1:
        raise ConfigError("config field chains must be >= 1")
    if got["iterations"] < 1:
        raise ConfigError("config field iterations must be >= 1")
    if got["warmup"] > got["iterations"]:
        raise ConfigError("config field warmup cannot exceed iterations")
    if k < 1:
        raise ConfigError("config field k must be >= 1")
    if got["thin"] < 1:
        raise ConfigError("config field thin must be >= 1")
    if not got["tau"] > 0.0:
        raise ConfigError("config field tau must be positive")
    if got["anneal_from"] is not None and not got["anneal_from"] > 0.0:
        raise ConfigError("config field anneal_from must be positive")
    # built here so a bad sampler setting exits 2 before any chain starts
    hmc_cfg, exch_cfg = (cls(**{f.name: got[f.name] for f in dataclasses.fields(cls)})
                         for cls in (HmcConfig, ExchangeConfig))

    # parsed and validated once, here, so bad data fails with exit 2; pool
    # workers receive the parsed dataset
    data = _read(data_path, "data file", NetworkDataset.from_json)
    if data.n < 2:
        raise ConfigError(f"data file {data_path} must hold at least 2 nodes")
    if k > data.n:
        raise ConfigError(f"config field k must be at most the dataset's n = {data.n}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    root_seq = np.random.SeedSequence(got["seed"])
    children = root_seq.spawn(chains)
    jobs = [
        (c, data, got, hmc_cfg, exch_cfg, children[c].generate_state(4).tolist(), str(out))
        for c in range(chains)
    ]
    start = time.perf_counter()
    if chains == 1:
        results = [_fit_single_chain(jobs[0])]
    else:
        # fork starts every worker at the first submit, so never more than the
        # cores; the pool is looked up on the module, where a replacement goes
        pool_type = sys.modules[__name__].ProcessPoolExecutor
        with pool_type(max_workers=min(chains, os.cpu_count() or 1)) as pool:
            results = list(pool.map(_fit_single_chain, jobs))
    elapsed = time.perf_counter() - start
    per_chain = {f"chain_{c:02d}": meta for c, meta in enumerate(results)}
    effective = {**cfg, **got, "out": str(out)}
    _write_json(out / "effective_config.json", effective)
    _write_json(out / "run_meta.json", {
        "config": effective,
        "chains": per_chain,
        "wall_seconds": elapsed,
    })
    print(f"fit {chains} chain(s) in {elapsed:.1f}s -> {out}")
    return 0


def _parse_truth(text):
    truth = json.loads(text)
    rp = RecursivePartition.from_json(json.dumps(truth["partition"]))
    frame = np.asarray(truth["frame"], dtype=np.float64)
    if frame.shape != (rp.n, rp.depth):
        raise ValueError(f"frame must be {rp.n} x {rp.depth}, got shape {frame.shape}")
    return rp, frame


_SUMMARIZE_FIELDS = {"fit_dir": (str, _REQUIRED), "burn_in": (float, 0.5)}


def cmd_summarize(cfg, out_dir, truth_path=None):
    got = _fields(cfg, _SUMMARIZE_FIELDS)
    fit_dir, burn_in = Path(got["fit_dir"]), got["burn_in"]
    # checked before any trace is read
    truth = None if truth_path is None else _read(truth_path, "truth file", _parse_truth)
    if not fit_dir.is_dir():
        raise ConfigError(f"config field fit_dir does not name a directory: {fit_dir}")
    chain_dirs = sorted(d for d in fit_dir.glob("chain_*") if d.is_dir())
    if not chain_dirs:
        raise ConfigError(f"no chain_* directories under {fit_dir}")

    try:
        meta = json.loads((fit_dir / "run_meta.json").read_text())
        fit_dims = {d.name: (meta["chains"][d.name]["n"], meta["chains"][d.name]["k"])
                    for d in chain_dirs}
    except (ValueError, KeyError, TypeError) as err:
        raise ConfigError(f"cannot read the fit's sizes from {fit_dir / 'run_meta.json'}: {err}") from err
    if truth is not None:
        rp = truth[0]
        for name, (n, k) in fit_dims.items():
            if (n, k) != (rp.n, rp.depth):
                raise ConfigError(
                    f"truth file {truth_path} has n = {rp.n} and depth {rp.depth}, "
                    f"but {name} was fit with n = {n} and k = {k}"
                )
    logs = []
    for d in chain_dirs:
        log = SampleLog.from_csv(d / "trace.csv", d / "w_trace.csv")
        n = fit_dims[d.name][0]
        if log.w_hard.shape[1] != n:
            raise ConfigError(
                f"{d.name}: w_trace covers {log.w_hard.shape[1]} of the fit's "
                f"{n} nodes; summarize needs them all"
            )
        logs.append(log)
    per_chain_ess = {d.name: chain_ess(log, burn_in) for d, log in zip(chain_dirs, logs)}

    pooled = _pool_logs(logs, burn_in)
    summary = summarize(pooled, burn_in=0.0)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = summary.to_dict()
    payload["ess"] = per_chain_ess
    payload["meta"]["chains"] = [d.name for d in chain_dirs]
    payload["meta"]["burn_in"] = burn_in

    if truth is not None:
        rp, frame = truth
        payload["recovery"] = {
            # a mean frame that could not be re-orthonormalised has no
            # projector to compare
            "subspace_error": subspace_error(summary.q_mean, frame)
            if summary.meta["q_mean_orthonormalized"] else None,
            "level_recovery": [
                partition_recovery(summary.w_prob, rp, j)
                for j in range(1, rp.depth + 1)
            ],
        }

    factors_dir = out / "factors"
    factors_dir.mkdir(exist_ok=True)
    for j, mat in enumerate(summary.factors, start=1):
        _write_symmetric_csv(factors_dir / f"factor_{j}.csv", mat)
    _write_json(out / "summary.json", payload)
    _write_json(out / "effective_config.json", {**cfg, **got, "out": str(out)})
    print(f"wrote {out / 'summary.json'}")
    return 0


def _write_symmetric_csv(path, mat):
    """Write mat as CSV rows, each value as '%.17g' % v.

    mat must be exactly symmetric, as a scaled outer product is: each
    upper-triangle value is formatted once, and its slot is gathered
    again for the lower triangle.
    """
    n = mat.shape[0]
    rows, cols = np.triu_indices(n)
    slot = np.empty((n, n), dtype=np.intp)
    slot[rows, cols] = slot[cols, rows] = np.arange(rows.size)
    Path(path).write_bytes(csv_rows(g17_slots(mat[rows, cols]).take(slot, axis=0)))


def _pool_logs(logs, burn_in):
    """Concatenate per-chain retained draws into one log for pooling."""
    starts = [_retained_start(log, burn_in) for log in logs]

    def cat(name):
        return np.concatenate([getattr(log, name)[start:] for log, start in zip(logs, starts)])

    arrays = {f.name: cat(f.name) for f in dataclasses.fields(SampleLog) if f.name != "meta"}
    return dataclasses.replace(logs[0], **arrays)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="msfactor",
        description="Multi-scale factor modeling of binary network populations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = {}
    for name, helptext in (
        ("simulate", "generate a synthetic dataset with known structure"),
        ("fit", "run the posterior sampler on a dataset"),
        ("summarize", "reduce fitted chains to posterior summaries"),
    ):
        p[name] = sub.add_parser(name, help=helptext)
        p[name].add_argument("--config", required=True, help="JSON config file")
        p[name].add_argument("--out", default=None, help="output directory")
    for name in ("simulate", "fit"):
        p[name].add_argument("--seed", type=int, help="override config seed")
    p["fit"].add_argument("--chains", type=int, help="override chain count")
    p["summarize"].add_argument("--truth", help="truth file for recovery metrics")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        for name in ("seed", "chains"):  # the one place a flag enters the config
            if getattr(args, name, None) is not None:
                cfg[name] = getattr(args, name)
        out_dir = args.out if args.out is not None else cfg.get("out", ".")
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        if args.command == "fit":
            return cmd_fit(cfg, out_dir)
        return cmd_summarize(cfg, out_dir, truth_path=args.truth)
    except (ChainError, InitializationError, NotPositiveDefiniteError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
