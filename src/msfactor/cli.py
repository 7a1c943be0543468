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
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from .csvtext import csv_rows, g17_slots
from .diagnostics import partition_recovery, subspace_error, summarize
from .model import NetworkDataset, SubjectParams, _logit, simulate_dataset
from .partition import RecursivePartition
from .prior import ColumnValues, random_full_rank_partition
from .sampler import (
    ExchangeConfig,
    HmcConfig,
    InitializationError,
    SampleLog,
    initial_state,
    run_chain,
)
from .whitening import NotPositiveDefiniteError


# the class that runs a fit's chains in parallel; None means concurrent.futures'
# process pool, loaded only when a fit first needs it. Tests and the
# benchmark's serial run set this to a replacement.
ProcessPoolExecutor = None


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
_FLOAT_MAX = sys.float_info.max


def _fields(cfg, table):
    """Each field of table, {name: (kind, default)}, read from cfg.

    A field that is absent or null takes its default; a callable default
    is computed from the fields before it.  A float field takes an int.
    """
    unknown = sorted(set(cfg) - set(table))
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
        accepted = (int, float) if kind is float else kind
        if not isinstance(value, accepted) or isinstance(value, bool):
            raise ConfigError(f"config field {name} must be {kind.__name__}")
        # json reads NaN, Infinity and ints beyond the largest float, which no
        # field can use; every int field is a size, a count or a seed, and a
        # list holds numbers (a bool is not)
        if (kind is int and value < 0 or kind is float and not abs(value) <= _FLOAT_MAX
                or kind is list and not all(type(v) in (int, float) and abs(v) <= _FLOAT_MAX
                                            for v in value)):
            raise ConfigError(f"config field {name} cannot be {json.dumps(value)}")
        got[name] = float(value) if kind is float else value
    return got


def _effective(cfg, got, out):
    """The config a run used: the given fields in their order, then the
    defaulted ones, and out, which is last in every field table."""
    return {**{name: v for name, v in cfg.items() if name != "out"}, **got, "out": str(out)}


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


_SIMULATE_FIELDS = {
    "n": (int, _REQUIRED), "k": (int, _REQUIRED), "subjects": (int, _REQUIRED),
    "seed": (int, _REQUIRED), "loading_min": (float, 20.0), "loading_max": (float, 40.0),
    "offset": (float, float(_logit(0.1))),
    "a": (list, lambda got: [1.0] * got["k"]), "b": (list, lambda got: [-1.0] * got["k"]),
    "out": (str, "."),
}


def cmd_simulate(cfg):
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
    sp = SubjectParams(
        log_loadings=np.log(rng.uniform(lo, hi, size=(n_subjects, k))),
        offsets=np.full(n_subjects, offset),
    )

    w = random_full_rank_partition(n, k, values, rng)
    if w is None:
        raise InitializationError(f"no full-rank partition found for n={n}, k={k}")

    data, truth = simulate_dataset(w, values, sp, rng)
    out = Path(got["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "dataset.json").write_text(data.to_json())
    _write_json(out / "truth.json", {
        "partition": json.loads(RecursivePartition(w).to_json()),
        "a": a.tolist(),
        "b": b.tolist(),
        "p": [0.5] * k,
        "frame": truth["frame"].tolist(),
        "log_loadings": sp.log_loadings.tolist(),
        "offsets": sp.offsets.tolist(),
        "seed": seed,
    })
    _write_json(out / "effective_config.json", _effective(cfg, got, out))
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
    "window": (float, ExchangeConfig.window),
    "out": (str, "."),
}


def _usable_cores():
    """The CPUs this process may run on: its affinity mask where the OS
    keeps one, which taskset and cpusets narrow, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_fit(cfg):
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

    # parsed and checked here, so bad data fails with exit 2 before any
    # chain starts; pool workers receive the parsed dataset
    data = _read(data_path, "data file", NetworkDataset.from_json)
    if data.n < 2:
        raise ConfigError(f"data file {data_path} must hold at least 2 nodes")
    if k > data.n:
        raise ConfigError(f"config field k must be at most the dataset's n = {data.n}")

    out = Path(got["out"])
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
        # fork starts every worker at the first submit, so never more than the cores
        pool_type = ProcessPoolExecutor
        if pool_type is None:
            from concurrent.futures import ProcessPoolExecutor as pool_type
        with pool_type(max_workers=min(chains, _usable_cores())) as pool:
            results = list(pool.map(_fit_single_chain, jobs))
    elapsed = time.perf_counter() - start
    per_chain = {f"chain_{c:02d}": meta for c, meta in enumerate(results)}
    effective = _effective(cfg, got, out)
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
    w = RecursivePartition.from_json(json.dumps(truth["partition"])).membership_matrix()
    frame = np.asarray(truth["frame"], dtype=np.float64)
    if frame.shape != w.shape:
        raise ValueError(f"frame must be {w.shape[0]} x {w.shape[1]}, got shape {frame.shape}")
    if not np.isfinite(frame).all():
        raise ValueError("frame must hold finite numbers")
    return w, frame


_SUMMARIZE_FIELDS = {"fit_dir": (str, _REQUIRED), "burn_in": (float, 0.5), "out": (str, ".")}


def cmd_summarize(cfg, truth_path=None):
    got = _fields(cfg, _SUMMARIZE_FIELDS)
    fit_dir = Path(got["fit_dir"])
    # checked before any trace is read
    truth = None if truth_path is None else _read(truth_path, "truth file", _parse_truth)
    if not fit_dir.is_dir():
        raise ConfigError(f"config field fit_dir does not name a directory: {fit_dir}")
    try:
        meta = json.loads((fit_dir / "run_meta.json").read_text())
        fit_dims = {name: (chain["n"], chain["k"]) for name, chain in meta["chains"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        raise ConfigError(f"cannot read the fit's sizes from {fit_dir / 'run_meta.json'}: {err}") from err
    if not fit_dims:
        raise ConfigError(f"no chains listed in {fit_dir / 'run_meta.json'}")
    if truth is not None:
        w_truth = truth[0]
        for name, dims in fit_dims.items():
            if dims != w_truth.shape:
                raise ConfigError(
                    f"truth file {truth_path} has n = {w_truth.shape[0]} and depth "
                    f"{w_truth.shape[1]}, but {name} was fit with n = {dims[0]} and k = {dims[1]}"
                )
    logs = {}
    for name, dims in fit_dims.items():
        log = SampleLog.from_csv(fit_dir / name / "trace.csv", fit_dir / name / "w_trace.csv")
        if log.w_hard.shape[1:] != dims:
            raise ConfigError(
                f"{name}: w_trace covers (n, k) = {log.w_hard.shape[1:]}, "
                f"but run_meta.json gives {dims}"
            )
        logs[name] = log
    summary = summarize(logs, got["burn_in"])

    out = Path(got["out"])
    out.mkdir(parents=True, exist_ok=True)
    payload = summary.to_dict()

    if truth is not None:
        w_truth, frame = truth
        payload["recovery"] = {
            # a mean frame that could not be re-orthonormalised has no
            # projector to compare
            "subspace_error": subspace_error(summary.q_mean, frame)
            if summary.meta["q_mean_orthonormalized"] else None,
            "level_recovery": [
                partition_recovery(summary.w_prob, w_truth, j)
                for j in range(1, w_truth.shape[1] + 1)
            ],
        }

    factors_dir = out / "factors"
    factors_dir.mkdir(exist_ok=True)
    # a deeper fit summarized here before leaves factors past this one's k
    for path in factors_dir.glob("factor_*.csv"):
        j = path.stem[len("factor_"):]
        if j.isdecimal() and int(j) > len(summary.factors):
            path.unlink()
    for j, mat in enumerate(summary.factors, start=1):
        _write_symmetric_csv(factors_dir / f"factor_{j}.csv", mat)
    _write_json(out / "summary.json", payload)
    _write_json(out / "effective_config.json", _effective(cfg, got, out))
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
        for name in ("seed", "chains", "out"):  # the one place a flag enters the config
            if getattr(args, name, None) is not None:
                cfg[name] = getattr(args, name)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "fit":
            return cmd_fit(cfg)
        return cmd_summarize(cfg, truth_path=args.truth)
    except (ChainError, InitializationError, NotPositiveDefiniteError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
