"""Per-layer tracing of one fit and one summary, run in-process.

Spans are recorded only from this file: every public function and
method of the five traced modules (`cli`, `model`, `whitening`,
`sampler`, `diagnostics`) is replaced by a timing wrapper in every
msfactor namespace that holds it, for the length of one pipeline run,
and restored afterwards.  The program's source is not touched.

The pipeline is the CLI's own `fit` then `summarize --truth`, called
through `cli.main` in this process.  Its chain pool is replaced by an
in-process serial map, so the chains run here, with the seeds `cmd_fit`
derives, and every count is the program's own.  Spans stay in memory
until the run ends.  A span's self time is its duration minus that of
its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

TRACED_MODULES = ("cli", "model", "whitening", "sampler", "diagnostics")


class Tracer:
    """Spans as [name, start_ns, end_ns, parent_index], in call order."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


class SerialPool:
    """Stands in for the CLI's process pool: maps in this process, in order."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


def _targets(modules):
    """Public functions and methods of the traced modules, by span name."""
    functions, methods = {}, []
    for short in TRACED_MODULES:
        module = modules[short]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions[obj] = f"{short}.{attr}"
            elif inspect.isclass(obj):
                for name, member in vars(obj).items():
                    if not name.startswith("_") and (
                        inspect.isfunction(member) or isinstance(member, classmethod)
                    ):
                        methods.append((obj, name, member, f"{short}.{obj.__name__}.{name}"))
    return functions, methods


@contextlib.contextmanager
def installed(tracer, modules):
    """Substitute timing wrappers for the traced functions; restore on exit."""
    functions, methods = _targets(modules)
    wrapped = {fn: tracer.wrap(name, fn) for fn, name in functions.items()}
    restore = []
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                restore.append((module, attr, obj))
                setattr(module, attr, wrapped[obj])
    for cls, name, member, span_name in methods:
        restore.append((cls, name, member))
        if isinstance(member, classmethod):
            setattr(cls, name, classmethod(tracer.wrap(span_name, member.__func__)))
        else:
            setattr(cls, name, tracer.wrap(span_name, member))
    try:
        yield
    finally:
        for owner, attr, obj in reversed(restore):
            setattr(owner, attr, obj)


def run_pipeline(modules, fit_args, summarize_args):
    """CLI fit then summarize in-process with serial chains; returns (seconds, codes)."""
    cli = modules["cli"]
    pool = cli.ProcessPoolExecutor
    cli.ProcessPoolExecutor = SerialPool
    try:
        with contextlib.redirect_stdout(sys.stderr):
            start = time.perf_counter()
            codes = (cli.main(fit_args), cli.main(summarize_args))
            return time.perf_counter() - start, codes
    finally:
        cli.ProcessPoolExecutor = pool


def aggregate(spans):
    """Per span name: calls, inclusive seconds, self seconds."""
    child = np.zeros(len(spans))
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["s"] += (end - start) * 1e-9
        entry["self_s"] += (end - start - child[i]) * 1e-9
    return stats


def count_within(spans, name, ancestor, excluded=None):
    """Spans called `name` that have `ancestor` above them and not `excluded`."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        parent, seen = span[3], set()
        while parent >= 0:
            seen.add(spans[parent][0])
            parent = spans[parent][3]
        if ancestor in seen and excluded not in seen:
            count += 1
    return count


def _autocov(x):
    """Biased autocovariance of each row, by FFT."""
    n = x.shape[1]
    centered = x - x.mean(axis=1, keepdims=True)
    size = 2 ** int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(centered, n=size, axis=1)
    return np.fft.irfft(spec * np.conj(spec), n=size, axis=1)[:, :n] / n


def bulk_ess(draws):
    """Split-chain, rank-normalised bulk ESS (Vehtari et al. 2021).

    draws is chains x iterations.  A series constant over every chain
    carries no information and scores 0.
    """
    draws = np.asarray(draws, dtype=np.float64)
    if np.ptp(draws) == 0.0:
        return 0.0
    half = draws.shape[1] // 2
    split = np.concatenate([draws[:, :half], draws[:, draws.shape[1] - half:]])
    ranks = rankdata(split, method="average").reshape(split.shape)
    z = ndtri((ranks - 0.375) / (split.size + 0.25))
    m, n = z.shape
    acov = _autocov(z)
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n + z.mean(axis=1).var(ddof=1)
    rho = np.zeros(n)
    rho[0] = rho_even = 1.0
    rho[1] = rho_odd = 1.0 - (mean_var - acov[:, 1].mean()) / var_plus
    t = 1
    while t < n - 3 and rho_even + rho_odd > 0.0:
        rho_even = 1.0 - (mean_var - acov[:, t + 1].mean()) / var_plus
        rho_odd = 1.0 - (mean_var - acov[:, t + 2].mean()) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t + 1], rho[t + 2] = rho_even, rho_odd
        t += 2
    max_t = t - 2
    if rho_even > 0.0:
        rho[max_t + 1] = rho_even
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = (rho[t - 1] + rho[t]) / 2.0
        t += 2
    total = m * n
    tau = -1.0 + 2.0 * rho[: max_t + 1].sum() + rho[max_t + 1: max_t + 2].sum()
    return float(total / max(tau, 1.0 / np.log10(total)))


def time_calls(fn, budget_s=1.0, min_calls=3):
    """Median seconds per call of fn() over about budget_s seconds."""
    times = []
    spent = 0.0
    while len(times) < min_calls or spent < budget_s:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
        spent += times[-1]
    return float(np.median(times))
