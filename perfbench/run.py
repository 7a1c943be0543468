"""msfactor benchmark: end-to-end timings and a per-layer traced run.

    python3 perfbench/run.py --workload recovery --seed 1 --seconds 20 --trace 0

Run from a checkout: the program is imported from `src/` beside this
directory, and all output goes under `.perfbench_out/`.  Every program
process, and this one, runs with one BLAS thread.

`--trace 0` generates the workload's inputs from the seed, repeats
rounds of set-up fits (one iteration, no warmup), `msfactor fit` and
`msfactor summarize --truth` until `--seconds` of them are measured,
checks the outputs, and prints the end-to-end metrics.  `--trace 1`
runs the same fit and summary in-process under tracing (see
tracing.py) and prints the per-layer metrics.  The last line of
standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import os

# one BLAS thread in this process and in every program process; set
# before numpy loads
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from inputs import WORKLOADS, retained_draws, write_inputs  # noqa: E402
from manifest import END_TO_END, PER_LAYER, UNITS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 2          # two rounds at least, so determinism is checked every run
BURN_IN = 0.5
CHECKED_FILES = ("trace.csv", "w_trace.csv")


def program_env():
    return {**os.environ, **BLAS_ENV, "PYTHONPATH": str(SRC)}


def run_cli(args, log_path):
    """Run one msfactor command; returns (seconds, peak RSS in MB, exit code).

    The peak comes from the OS accounting of the waited-for child,
    which covers the chain workers it reaped.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "msfactor.cli", *args],
            env=program_env(), stdout=log, stderr=log,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def environment():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def digest(chain_root):
    """Hash of every chain's trace files, in chain order."""
    h = hashlib.sha256()
    for chain_dir in sorted(Path(chain_root).glob("chain_*")):
        for name in CHECKED_FILES:
            h.update((chain_dir / name).read_bytes())
    return h.hexdigest()


def load_chains(fit_dir):
    return {d.name: checks.read_chain(d) for d in sorted(Path(fit_dir).glob("chain_*"))}


def import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    names = ("cli", "model", "whitening", "sampler", "diagnostics", "prior", "partition")
    modules = {name: importlib.import_module(f"msfactor.{name}") for name in names}
    modules["package"] = importlib.import_module("msfactor")
    return modules


class Workdir:
    """Inputs and configs of one workload run under .perfbench_out/."""

    def __init__(self, workload, seed, mode):
        self.workload = workload
        self.seed = seed
        self.root = OUT / f"{workload.name}-{mode}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.data, self.truth = write_inputs(workload, seed, self.root / "inputs")
        self.log = self.root / "program.log"
        self.fit_cfg = {"data": str(self.data), "k": workload.k, "seed": seed, **workload.fit}

    def config(self, name, payload):
        path = self.root / f"{name}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def fit_args(self, out, **overrides):
        cfg = self.config(f"fit-{Path(out).name}", {**self.fit_cfg, **overrides})
        return ["fit", "--config", cfg, "--out", str(out)]

    def summarize_args(self, fit_dir, out):
        cfg = self.config(f"summarize-{Path(out).name}",
                          {"fit_dir": str(fit_dir), "burn_in": BURN_IN})
        return ["summarize", "--config", cfg, "--out", str(out), "--truth", str(self.truth)]

    def output_checks(self, fit_dir, summary_dir):
        """Trace, acceptance and summary checks of one fit and its summary."""
        w = self.workload
        chains = load_chains(fit_dir)
        failures = []
        if len(chains) != w.fit["chains"]:
            failures.append(f"{len(chains)} chain directories, expected {w.fit['chains']}")
        failures += checks.check_traces(chains, retained_draws(w.fit), w.n, w.k, w.subjects)
        if failures:
            return failures, chains
        failures += checks.check_acceptance(chains)
        if summary_dir is not None:
            truth = json.loads(self.truth.read_text())
            failures += checks.check_summary(summary_dir, chains, BURN_IN, truth["frame"])
        return failures, chains


def program_checks(work, chains):
    """Checks that call the program: cell structure and the potential gradient."""
    modules = import_program()
    whitening = modules["whitening"]
    rng = np.random.default_rng([work.workload.index, work.seed, 99])
    failures = checks.check_cells(chains, whitening.whiten, whitening.rank_ok, rng)
    data = modules["model"].NetworkDataset.from_json(work.data.read_text())
    first = next(iter(chains.values()))
    failures += checks.check_gradient(modules, data, first, work.workload.fit["tau"], rng)
    return failures


def timed_run(work, seconds):
    """Rounds of set-up, fit and summarize until `seconds` of them are measured.

    Each round is set-up fit, fit, summarize, set-up fit, summarize, so
    every metric samples the whole run rather than one stretch of it;
    the machine's speed drifts over tens of seconds.
    """
    attempted = failed = 0
    failures = []
    times = {"setup": [], "fit": [], "summarize": []}
    rss = []
    fit_dir, summary_dir = work.root / "fit", work.root / "summary"
    setup_args = work.fit_args(work.root / "setup", iterations=1, warmup=0)
    reference = None
    measured = 0.0
    rounds = 0
    while rounds < MIN_ROUNDS or measured < seconds:
        rounds += 1
        shutil.rmtree(fit_dir, ignore_errors=True)
        for op in ("setup", "fit", "summarize", "setup", "summarize"):
            attempted += 1
            if op == "summarize" and not fit_dir.joinpath("run_meta.json").exists():
                failed += 1     # the fit of this round failed; nothing to run on
                continue
            if op == "summarize":
                shutil.rmtree(summary_dir, ignore_errors=True)
                args = work.summarize_args(fit_dir, summary_dir)
            else:
                args = setup_args if op == "setup" else work.fit_args(fit_dir)
            s, peak, code = run_cli(args, work.log)
            measured += s
            if code != 0:
                failed += 1
                continue
            times[op].append(s)
            if op == "fit":
                rss.append(peak)
            if op != "summarize":
                continue
            outputs = (digest(fit_dir), (summary_dir / "summary.json").read_bytes())
            if reference is None:
                reference = outputs
                found, chains = work.output_checks(fit_dir, summary_dir)
                failures += found
                if not found:
                    failures += program_checks(work, chains)
            elif outputs != reference:
                failures.append(f"round {rounds}: traces or summary differ from the first")
    print(f"rounds {rounds}: {json.dumps(times)}", file=sys.stderr)

    def median(values):
        return statistics.median(values) if values else float("nan")

    metrics = {
        "fit_s": median(times["fit"]),
        "summarize_s": median(times["summarize"]),
        "setup_s": median(times["setup"]),
        "peak_rss_mb": median(rss),
    }
    return metrics, attempted, failed, failures


def traced_run(work):
    """In-process traced and untraced pipelines plus the CLI fits they must match."""
    w = work.workload
    attempted = failed = 0
    failures = []
    cli_fit = work.root / "cli_fit"
    t_n, _, code = run_cli(work.fit_args(cli_fit), work.log)
    attempted += 1
    failed += code != 0
    if w.fit["chains"] > 1:
        # chain 0 of an N-chain fit is the whole of the 1-chain fit at the same seed
        t_1, _, code = run_cli(work.fit_args(work.root / "cli_fit_1", chains=1), work.log)
        attempted += 1
        failed += code != 0
        scaling = t_1 / t_n
    else:
        scaling = 1.0
    found, chains = work.output_checks(cli_fit, None)
    failures += found

    modules = import_program()
    runs = {}
    for name in ("untraced", "traced"):
        fit_dir, summary_dir = work.root / f"{name}_fit", work.root / f"{name}_summary"
        args = (work.fit_args(fit_dir), work.summarize_args(fit_dir, summary_dir))
        tracer = tracing.Tracer()
        if name == "traced":
            with tracing.installed(tracer, modules):
                seconds, codes = tracing.run_pipeline(modules, *args)
        else:
            seconds, codes = tracing.run_pipeline(modules, *args)
        attempted += 2
        failed += sum(code != 0 for code in codes)
        if digest(fit_dir) != digest(cli_fit):
            failures.append(f"{name} in-process chains differ from the CLI's chains")
        runs[name] = (seconds, tracer.spans, fit_dir, summary_dir)
    if not found:
        failures += work.output_checks(runs["traced"][2], runs["traced"][3])[0]

    seconds, spans, fit_dir, summary_dir = runs["traced"]
    metrics = layer_metrics(work, modules, spans, fit_dir, t_n)
    metrics["cli.chain_scaling_eff"] = scaling
    metrics["trace.overhead_s"] = seconds - runs["untraced"][0]
    metrics["trace.spans"] = len(spans)
    return metrics, attempted, failed, failures


def layer_metrics(work, modules, spans, fit_dir, fit_seconds):
    """Per-layer metrics from the traced run's spans and output files."""
    w = work.workload
    stats = tracing.aggregate(spans)
    iterations = w.fit["iterations"] * w.fit["chains"]

    def stat(name, key):
        return stats[name][key] if name in stats else 0.0

    def per_call(name, scale):
        calls = stat(name, "calls")
        return stat(name, "s") / calls * scale if calls else 0.0

    m = {}
    for module in tracing.TRACED_MODULES:
        m[f"{module}.self_s"] = sum(
            v["self_s"] for k, v in stats.items() if k.startswith(module + "."))
    m["model.NetworkDataset.from_json.calls"] = stat("model.NetworkDataset.from_json", "calls")
    m["model.NetworkDataset.from_json.s"] = stat("model.NetworkDataset.from_json", "s")
    grads = "model.log_likelihood_grads"
    m[f"{grads}.calls"] = stat(grads, "calls")
    m[f"{grads}.per_call_ms"] = per_call(grads, 1e3)
    m[f"{grads}.self_s"] = stat(grads, "self_s")
    # two n x n by n x k products per subject: the residual times q, and the
    # log-odds q diag(d) q'
    flops = 4.0 * w.subjects * w.n * w.n * w.k * stat(grads, "calls")
    m[f"{grads}.gflops"] = flops / stat(grads, "s") / 1e9 if stat(grads, "s") else 0.0
    m["model.log_likelihood.calls"] = stat("model.log_likelihood", "calls")
    m["model.log_likelihood.per_call_ms"] = per_call("model.log_likelihood", 1e3)
    for name in ("whitening.whiten_with_factors", "whitening.cholesky"):
        m[f"{name}.calls"] = stat(name, "calls")
    for name in ("whitening.whiten_with_factors", "whitening.whiten_backward", "whitening.cholesky"):
        m[f"{name}.per_call_us"] = per_call(name, 1e6)
        m[f"{name}.self_s"] = stat(name, "self_s")
    m["whitening.rank_ok.calls"] = stat("whitening.rank_ok", "calls")
    m["whitening.whiten.calls"] = stat("whitening.whiten", "calls")
    m["sampler.leapfrog.calls"] = stat("sampler.leapfrog", "calls")
    m["sampler.leapfrog.per_call_ms"] = per_call("sampler.leapfrog", 1e3)
    m["sampler.leapfrog.self_s"] = stat("sampler.leapfrog", "self_s")
    m["sampler.potential_grad.calls"] = stat("sampler.potential_grad", "calls")
    m["sampler.potential_grad.self_s"] = stat("sampler.potential_grad", "self_s")
    m["sampler.potential.calls"] = stat("sampler.potential", "calls")
    m["sampler.potential.per_call_ms"] = per_call("sampler.potential", 1e3)
    m["sampler.grad_evals_per_iter"] = stat("sampler.potential_grad", "calls") / iterations
    aux = tracing.count_within(spans, "whitening.rank_ok", "sampler.run_chain", "sampler.potential")
    m["sampler.exchange.aux_draws_per_iter"] = aux / iterations
    m["sampler.run_chain.self_s"] = stat("sampler.run_chain", "self_s")
    m["sampler.SampleLog.to_csv.s"] = stat("sampler.SampleLog.to_csv", "s")
    m["sampler.SampleLog.from_csv.s"] = stat("sampler.SampleLog.from_csv", "s")
    chain_dirs = sorted(Path(fit_dir).glob("chain_*"))
    m["sampler.trace_bytes"] = sum(
        (d / f).stat().st_size for d in chain_dirs for f in CHECKED_FILES)

    chains = load_chains(fit_dir)
    m["sampler.hmc_accept_rate"] = float(np.mean([c["hmc_accept"].mean() for c in chains.values()]))
    m["sampler.exch_accept_rate"] = float(np.mean([c["exch_accept"].mean() for c in chains.values()]))
    canon = [checks.canonical(c) for c in chains.values()]
    series = [np.stack([c["u"] for c in chains.values()])]
    series += [np.stack([p[:, j] for _, _, p, _ in canon]) for j in range(w.k)]
    m["sampler.bulk_ess_per_s"] = min(tracing.bulk_ess(s) for s in series) / fit_seconds

    m.update(isolated_updates(work, modules, chains))

    m["diagnostics.summarize.calls"] = stat("diagnostics.summarize", "calls")
    m["diagnostics.summarize.s"] = stat("diagnostics.summarize", "s")
    kept = sum(c["raw"].shape[0] - int(c["raw"].shape[0] * BURN_IN) for c in chains.values())
    whitened = tracing.count_within(spans, "whitening.whiten", "diagnostics.summarize")
    m["diagnostics.frames_whitened_per_draw"] = whitened / kept
    return m


def isolated_updates(work, modules, chains):
    """hmc_update and exchange_update timed alone at chain 0's last retained draw."""
    sampler = modules["sampler"]
    fit = work.workload.fit
    meta = json.loads((work.root / "traced_fit" / "run_meta.json").read_text())["chains"]["chain_00"]
    state = checks.draw_state(modules, chains["chain_00"], fit["tau"])
    data = modules["model"].NetworkDataset.from_json(work.data.read_text())
    hmc_cfg = sampler.HmcConfig(step_size=meta["final_step_size"],
                                leapfrog_steps=fit["leapfrog_steps"], warmup=0)
    exch_cfg = sampler.ExchangeConfig(window=sampler.ExchangeConfig().window * meta["window_scale"])
    rng = np.random.default_rng([work.workload.index, work.seed, 7])
    hmc = tracing.time_calls(lambda: sampler.hmc_update(state, data, hmc_cfg, rng))
    exch = tracing.time_calls(lambda: sampler.exchange_update(state, data, exch_cfg, rng))
    return {
        "sampler.hmc_update.per_call_ms": hmc * 1e3,
        "sampler.exchange_update.per_call_ms": exch * 1e3,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "msfactor" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'msfactor'}", file=sys.stderr)
        return 2

    work = Workdir(WORKLOADS[args.workload], args.seed, "trace" if args.trace else "timed")
    env = environment()
    (work.root / "environment.json").write_text(json.dumps(env, indent=2))
    print("environment " + json.dumps(env))
    if args.trace:
        metrics, attempted, failed, failures = traced_run(work)
    else:
        metrics, attempted, failed, failures = timed_run(work, args.seconds)
    expected = [row[0] for row in (PER_LAYER if args.trace else END_TO_END)]
    if sorted(metrics) != sorted(expected):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(expected))} disagree with manifest.py")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
