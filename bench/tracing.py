"""Spans around the calls into each jittervan layer, recorded from outside.

The traced run replaces module attributes at the call sites the library
uses (``moments.term_integral``, ``integrate.linprog``, ...) with wrappers
that record a span per call: name, start, end and the enclosing span.
Spans stay in memory and are written when the run ends.  The traced
jitter law is built through the public ``JitterDistribution`` constructor
around the plain law's ``cf`` and ``draw``.

A layer's self time is its spans' duration minus the part covered by
child spans; the root spans ``bench.cold`` and ``bench.warm`` keep the
time no layer claims, so the self times of one phase add up to its wall
time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from workloads import MC_DIMS

#: (layer name, jittervan submodule, attribute) wrapped at its call site.
PATCHES = (
    ("moments.moment", "moments", "moment"),
    ("partitions.enumerate_partitions_k", "moments", "enumerate_partitions_k"),
    ("integrate.term_integral", "moments", "term_integral"),
    ("integrate.delta_volume", "integrate", "delta_volume"),
    ("integrate.count_box_solutions", "integrate", "count_box_solutions"),
    ("integrate.linprog", "integrate", "linprog"),
    ("integrate.cf_integral", "integrate", "cf_integral"),
    ("constraints.constraint_system", "integrate", "constraint_system"),
    ("constraints.integer_kernel_basis", "integrate", "integer_kernel_basis"),
    ("mse.mse_curve", "mse", "mse_curve"),
    ("ensemble.simulate", "mse", "simulate"),
    ("ensemble.sample_positions", "ensemble", "sample_positions"),
    ("ensemble.sampling_matrix", "ensemble", "sampling_matrix"),
    ("ensemble.gram_matrix", "ensemble", "gram_matrix"),
    ("ensemble.spectrum", "ensemble", "spectrum"),
    ("mse.mse_from_spectrum", "mse", "mse_from_spectrum"),
    ("mse.mse_mp", "mse", "mse_mp"),
)
SPAN_LAYERS = ("bench.cold",) + tuple(name for name, _, _ in PATCHES) + (
    "integrate.sobol",
    "integrate.sobol_random",
    "jitter.cf",
    "jitter.draw",
)
#: Layers whose per-replay cost is reported for the warm phase as well.
WARM_LAYERS = (
    "bench.warm",
    "moments.moment",
    "partitions.enumerate_partitions_k",
    "integrate.term_integral",
    "integrate.delta_volume",
)
TERM_METHODS = ("exact_unity", "lattice_extrapolation", "plain_qmc", "qmc_constrained")


def _metric(unit: str, better: str) -> dict:
    return {"unit": unit, "better": better}


def per_layer_metrics() -> dict[str, dict]:
    """Every per-layer metric a traced run reports, with unit and direction."""
    out: dict[str, dict] = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}.calls"] = _metric("count", "lower")
        out[f"{layer}.s"] = _metric("s", "lower")
        out[f"{layer}.self_s"] = _metric("s", "lower")
    for layer in WARM_LAYERS:
        out[f"warm.{layer}.calls"] = _metric("count", "lower")
        out[f"warm.{layer}.s"] = _metric("s", "lower")
        out[f"warm.{layer}.self_s"] = _metric("s", "lower")
    for method in TERM_METHODS:
        out[f"moments.terms.{method}"] = _metric("count", "lower")
    for phase in ("", "warm."):
        out[f"{phase}cache.term.hits"] = _metric("count", "higher")
        out[f"{phase}cache.term.misses"] = _metric("count", "lower")
        out[f"{phase}integrate.volume_cache.hits"] = _metric("count", "higher")
        out[f"{phase}integrate.volume_cache.misses"] = _metric("count", "lower")
    out.update(
        {
            "integrate.sobol.draws": _metric("count", "lower"),
            "integrate.qmc_points": _metric("count", "lower"),
            "jitter.cf.values": _metric("count", "lower"),
            "ensemble.sampling_matrix.bytes": _metric("B", "lower"),
            "ensemble.gram_matrix.flops": _metric("flop", "lower"),
            "ensemble.gram_matrix.gflop_per_s": _metric("GFLOP/s", "higher"),
            "ensemble.spectrum.samples": _metric("count", "higher"),
            "ensemble.spectrum.p50_s": _metric("s", "lower"),
            "ensemble.spectrum.tail_s": _metric("s", "lower"),
            "ensemble.spectrum.tail_pct": _metric("%", "higher"),
        }
    )
    for d in MC_DIMS:
        out[f"ensemble.trials_per_s_d{d}"] = _metric("1/s", "higher")
    out.update(
        {
            "trace.spans": _metric("count", "lower"),
            "trace.wall_s": _metric("s", "lower"),
            "trace.untraced_wall_s": _metric("s", "lower"),
            "trace.overhead_s": _metric("s", "lower"),
            "trace.span_overhead_s": _metric("s", "lower"),
            "trace.attributed_share": _metric("1", "higher"),
            "error_rate": _metric("1", "lower"),
        }
    )
    return out


class Recorder:
    """In-memory span and counter store for one single-threaded worker."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index, phase)
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[(self.phase, name)] += amount

    def wrap(self, name: str, fn, on_call=None):
        """Wrap ``fn`` so each call records a span; ``on_call`` sees
        (args, kwargs, result, seconds) after a successful call."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.phase)
            if on_call is not None:
                on_call(args, kwargs, result, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_phase(self, phase: str, fn):
        """Run ``fn`` under the root span of ``phase`` ("cold" or "warm")."""
        self.phase = phase
        return self.wrap(f"bench.{phase}", fn)()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, phase in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "phase": phase}
                    )
                    + "\n"
                )


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""
    probe = Recorder()

    def noop():
        return None

    traced = probe.wrap("noop", noop)
    started = time.perf_counter()
    for _ in range(calls):
        traced()
    middle = time.perf_counter()
    for _ in range(calls):
        noop()
    return max(0.0, (2 * middle - started - time.perf_counter()) / calls)


def _arg(args, kwargs, index: int, name: str):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


class _TracedSobolModule:
    """Stand-in for ``scipy.stats.qmc`` whose Sobol engines are traced."""

    def __init__(self, qmc, recorder: Recorder) -> None:
        self._qmc = qmc
        self._recorder = recorder
        self.Sobol = recorder.wrap("integrate.sobol", self._make_sobol)

    def _make_sobol(self, *args, **kwargs):
        engine = self._qmc.Sobol(*args, **kwargs)
        recorder = self._recorder

        def drawn(args, kwargs, result, seconds):
            recorder.count("integrate.sobol.draws", len(result))

        engine.random = recorder.wrap("integrate.sobol_random", engine.random, drawn)
        return engine

    def __getattr__(self, name):
        return getattr(self._qmc, name)


def install(recorder: Recorder, jv) -> None:
    """Wrap the library's call sites; attributes a version lacks are skipped."""

    def cf_points(args, kwargs, result, seconds):
        opts = _arg(args, kwargs, 5, "opts")
        if opts is not None:
            recorder.count("integrate.qmc_points", opts.points * opts.replicates)

    def term_miss(args, kwargs, result, seconds):
        partition, grouping = args[0], args[1]
        if 1 < partition.k and grouping.k < partition.k:
            recorder.count("cache.term.misses")

    def matrix_bytes(args, kwargs, result, seconds):
        recorder.count("ensemble.sampling_matrix.bytes", result.nbytes)

    def gram_flops(args, kwargs, result, seconds):
        n_rows, n_cols = args[0].shape
        recorder.count("ensemble.gram_matrix.flops", 8 * n_rows * n_rows * n_cols)

    hooks = {
        "integrate.cf_integral": cf_points,
        "integrate.term_integral": term_miss,
        "ensemble.sampling_matrix": matrix_bytes,
        "ensemble.gram_matrix": gram_flops,
    }
    for layer, module_name, attribute in PATCHES:
        module = getattr(jv, module_name)
        if hasattr(module, attribute):
            wrapped = recorder.wrap(layer, getattr(module, attribute), hooks.get(layer))
            setattr(module, attribute, wrapped)
    if hasattr(jv.integrate, "qmc"):
        jv.integrate.qmc = _TracedSobolModule(jv.integrate.qmc, recorder)


def traced_law(recorder: Recorder, jv, law):
    """The same law rebuilt through the public constructor with traced calls."""

    def cf_values(args, kwargs, result, seconds):
        recorder.count("jitter.cf.values", np.size(result))

    return jv.JitterDistribution(
        law.kind,
        recorder.wrap("jitter.cf", law.cf, cf_values),
        recorder.wrap("jitter.draw", law.draw),
        symmetric_about_half=law.symmetric_about_half,
    )


def volume_cache_info(jv) -> tuple[int, int]:
    """(hits, misses) of the exact-volume cache; zeros if there is none."""
    cached = getattr(jv.integrate, "_delta_volume_cached", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return (0, 0)
    current = info()
    return (current.hits, current.misses)


def count_results(
    recorder: Recorder, phase: str, results, volumes_before, volumes_after, replays: int
) -> None:
    """Record the regime and cache counts of one phase's moment results.

    ``results`` is the last pass of the phase; a phase of ``replays``
    passes saw the same terms each time.  Term-cache hits are the cf-regime
    terms minus the ``term_integral`` calls made in that regime.
    """
    methods: dict[str, int] = defaultdict(int)
    for result in results:
        for term in getattr(result, "terms", ()):
            methods[term.v.method] += 1
    if phase == "cold":
        for method in TERM_METHODS:
            recorder.counts[(phase, f"moments.terms.{method}")] = methods[method]
    counts = recorder.counts
    cf_terms = (methods["plain_qmc"] + methods["qmc_constrained"]) * replays
    counts[(phase, "cache.term.hits")] = cf_terms - counts[(phase, "cache.term.misses")]
    counts[(phase, "integrate.volume_cache.hits")] = volumes_after[0] - volumes_before[0]
    counts[(phase, "integrate.volume_cache.misses")] = volumes_after[1] - volumes_before[1]


def _percentile_tail(values: list[float]) -> tuple[float, float, float]:
    """(median, tail value, tail percentile): the tail is the highest
    percentile with at least ten samples beyond it, else the median."""
    if not values:
        return (0.0, 0.0, 0.0)
    arr = np.asarray(values)
    p50 = float(np.percentile(arr, 50))
    if len(arr) <= 10:
        return (p50, p50, 50.0)
    pct = float(np.floor(100.0 * (1.0 - 10.0 / len(arr))))
    return (p50, float(np.percentile(arr, pct)), pct)


def layer_metrics(recorder: Recorder, warm_replays: int) -> dict[str, float]:
    """Aggregate spans and counts into the per-layer metrics of one worker.

    Warm-phase figures are per replay.
    """
    child_time = [0.0] * len(recorder.spans)
    for name, start, end, parent, phase in recorder.spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    spectrum_times = []
    for index, (name, start, end, parent, phase) in enumerate(recorder.spans):
        entry = totals[(phase, name)]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_time[index]
        if name == "ensemble.spectrum" and phase == "cold":
            spectrum_times.append(end - start)

    out: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        calls, total, self_s = totals.get(("cold", layer), (0, 0.0, 0.0))
        out[f"{layer}.calls"] = calls
        out[f"{layer}.s"] = total
        out[f"{layer}.self_s"] = self_s
    per = max(warm_replays, 1)
    for layer in WARM_LAYERS:
        calls, total, self_s = totals.get(("warm", layer), (0, 0.0, 0.0))
        out[f"warm.{layer}.calls"] = calls / per
        out[f"warm.{layer}.s"] = total / per
        out[f"warm.{layer}.self_s"] = self_s / per
    for (phase, name), value in recorder.counts.items():
        if phase == "cold":
            out[name] = value
        elif phase == "warm":
            out[f"warm.{name}"] = value / per
    flops = out.get("ensemble.gram_matrix.flops", 0.0)
    gram_s = out["ensemble.gram_matrix.self_s"]
    out["ensemble.gram_matrix.gflop_per_s"] = flops / gram_s / 1e9 if gram_s else 0.0
    p50, tail, pct = _percentile_tail(spectrum_times)
    out["ensemble.spectrum.samples"] = len(spectrum_times)
    out["ensemble.spectrum.p50_s"] = p50
    out["ensemble.spectrum.tail_s"] = tail
    out["ensemble.spectrum.tail_pct"] = pct
    cold_wall = out["bench.cold.s"]
    cold_spans = sum(1 for span in recorder.spans if span[4] == "cold")
    out["trace.spans"] = len(recorder.spans)
    out["trace.span_overhead_s"] = cold_spans * span_cost()
    out["trace.wall_s"] = cold_wall
    out["trace.attributed_share"] = (
        1.0 - out["bench.cold.self_s"] / cold_wall if cold_wall else 0.0
    )
    return out
