"""The benchmark's metrics, and the BENCHMARK.json that declares them.

This table is the one definition of every metric's name, unit and
better direction; run.py reports exactly these names.  Rewrite
BENCHMARK.json after changing it:

    python3 perfbench/manifest.py
"""

from __future__ import annotations

import json
from pathlib import Path

from inputs import WORKLOADS

RUN_SECONDS = 20

# name, unit, better, bound (the share of the parent's median by which
# the metric may worsen before a change counts as a regression)
END_TO_END = [
    ("fit_s", "s", "lower", 0.25),
    ("summarize_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# name, unit, better; traced run only, no bound
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("model.self_s", "s", "lower"),
    ("whitening.self_s", "s", "lower"),
    ("sampler.self_s", "s", "lower"),
    ("diagnostics.self_s", "s", "lower"),
    ("cli.chain_scaling_eff", "ratio", "higher"),
    ("model.NetworkDataset.from_json.calls", "count", "lower"),
    ("model.NetworkDataset.from_json.s", "s", "lower"),
    ("model.log_likelihood_grads.calls", "count", "lower"),
    ("model.log_likelihood_grads.per_call_ms", "ms", "lower"),
    ("model.log_likelihood_grads.self_s", "s", "lower"),
    ("model.log_likelihood_grads.gflops", "GFLOP/s", "higher"),
    ("model.log_likelihood.calls", "count", "lower"),
    ("model.log_likelihood.per_call_ms", "ms", "lower"),
    ("whitening.whiten_with_factors.calls", "count", "lower"),
    ("whitening.whiten_with_factors.per_call_us", "us", "lower"),
    ("whitening.whiten_with_factors.self_s", "s", "lower"),
    ("whitening.whiten_backward.per_call_us", "us", "lower"),
    ("whitening.whiten_backward.self_s", "s", "lower"),
    ("whitening.cholesky.calls", "count", "lower"),
    ("whitening.cholesky.per_call_us", "us", "lower"),
    ("whitening.cholesky.self_s", "s", "lower"),
    ("whitening.rank_ok.calls", "count", "lower"),
    ("whitening.whiten.calls", "count", "lower"),
    ("sampler.leapfrog.calls", "count", "lower"),
    ("sampler.leapfrog.per_call_ms", "ms", "lower"),
    ("sampler.leapfrog.self_s", "s", "lower"),
    ("sampler.potential_grad.calls", "count", "lower"),
    ("sampler.potential_grad.self_s", "s", "lower"),
    ("sampler.potential.calls", "count", "lower"),
    ("sampler.potential.per_call_ms", "ms", "lower"),
    ("sampler.grad_evals_per_iter", "count", "lower"),
    ("sampler.exchange.aux_draws_per_iter", "count", "lower"),
    ("sampler.hmc_update.per_call_ms", "ms", "lower"),
    ("sampler.exchange_update.per_call_ms", "ms", "lower"),
    ("sampler.run_chain.self_s", "s", "lower"),
    ("sampler.SampleLog.to_csv.s", "s", "lower"),
    ("sampler.SampleLog.from_csv.s", "s", "lower"),
    ("sampler.trace_bytes", "bytes", "lower"),
    ("sampler.hmc_accept_rate", "ratio", "higher"),
    ("sampler.exch_accept_rate", "ratio", "higher"),
    ("sampler.bulk_ess_per_s", "1/s", "higher"),
    ("diagnostics.summarize.calls", "count", "lower"),
    ("diagnostics.summarize.s", "s", "lower"),
    ("diagnostics.frames_whitened_per_draw", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER}


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
    print(path)
