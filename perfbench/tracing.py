"""Per-layer attribution by wrapping the program's public functions.

The benchmark never edits ``src/``: :class:`LayerTracer` swaps a timing
wrapper onto each function named in :data:`IN_PROCESS_LAYERS` (or
:data:`DAEMON_LAYERS` inside the daemon process) and puts the originals
back on :meth:`LayerTracer.restore`.

Each wrapped call is a span.  Spans nest on a per-thread stack, so a
layer's *self* time is its span time minus the time of the spans it
caused.  Counts are exact.  Spans are aggregated per layer name as they
close rather than kept one by one: the hot layers close hundreds of
thousands of spans per run.
"""

import importlib
import json
import os
import threading
import time
from collections import defaultdict

#: (module, attribute path, layer name) for the analysis process.
IN_PROCESS_LAYERS = (
    ("repro.pitchfork.explorer", "Explorer.explore", "explorer.explore"),
    ("repro.pitchfork.explorer", "Explorer.advance_to_fork",
     "explorer.advance_to_fork"),
    ("repro.pitchfork.explorer", "Explorer.expand", "explorer.expand"),
    ("repro.engine.core", "ExecutionEngine.step", "engine.step"),
    ("repro.core.machine", "Machine.step", "machine.step"),
    ("repro.core.config", "Config.__hash__", "config.hash"),
    # The explorer imported these two by name; patch its own binding.
    ("repro.pitchfork.explorer", "drop_dead_entries", "por"),
    ("repro.pitchfork.explorer", "hazard_load", "por"),
    # SpsAnalysis imports explore_sps from the package when it runs.
    ("repro.sps", "explore_sps", "sps.explore"),
    ("repro.api.project", "Project.config", "api.project"),
    ("repro.api.project", "Project.from_litmus", "api.project"),
    ("repro.api.project", "Project.from_variant", "api.project"),
    ("repro.api.analyses", "Analysis.run", "api.run"),
    ("repro.api.analyses", "from_analysis_report", "api.report"),
    ("repro.api.report", "Report.to_dict", "api.report"),
    ("repro.api.report", "Report.from_dict", "api.report"),
    ("repro.api.report", "Report.to_json", "api.report"),
    ("repro.api.report", "Report.from_json", "api.report"),
    ("repro.mitigate.synth", "localize_all", "mitigate.localize"),
    ("repro.mitigate.synth", "MitigationSynthesizer.run", "mitigate.synth"),
    ("repro.serve.client", "ServeClient.call", "serve.rpc"),
)

#: The daemon's own layers (its pool workers stay untraced).
DAEMON_LAYERS = (
    ("repro.serve.server", "ReproServer.rpc_submit", "serve.handler"),
    ("repro.serve.server", "ReproServer.rpc_status", "serve.handler"),
    ("repro.serve.server", "ReproServer.rpc_result", "serve.handler"),
    ("repro.serve.server", "store_key", "serve.keys"),
    ("repro.serve.server", "fingerprint_digest", "serve.keys"),
    ("repro.serve.server", "resolve_project", "api.project"),
    ("repro.api.report", "Report.to_dict", "api.report"),
    ("repro.api.report", "Report.from_dict", "api.report"),
    ("repro.api.report", "Report.to_json", "api.report"),
    ("repro.api.report", "Report.from_json", "api.report"),
    ("repro.serve.store", "ResultStore.put", "serve.store.put"),
)

#: Frontier methods; every registered strategy class is wrapped.
FRONTIER_METHODS = ("push", "pop")


def _resolve(module_name, path):
    """(owner object, attribute name) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class LayerTracer:
    """Aggregated spans: ``calls[layer]`` and ``self_s[layer]``."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        #: Machine steps taken inside an engine step (trial-cache misses).
        self.engine_misses = 0
        self.store_hits = 0
        self.pool_job_s = 0.0
        self._local = threading.local()
        self._patches = []

    # -- span bookkeeping -----------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn):
        """``fn`` wrapped so each call is a span of layer ``name``."""
        calls, self_s, clock = self.calls, self.self_s, time.perf_counter
        stack_of = self._stack
        tracer = self

        def traced(*args, **kwargs):
            stack = stack_of()
            if name == "machine.step" and stack and \
                    stack[-1][0] == "engine.step":
                tracer.engine_misses += 1
            calls[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def install(self, layers):
        """Wrap every ``(module, attribute path, layer)`` entry."""
        for module_name, path, name in layers:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, lambda fn, name=name: self.span(name, fn))

    def install_frontiers(self):
        from repro.engine.frontier import _STRATEGIES
        import repro.engine.mcts  # noqa: F401  (registers its strategy)
        for cls in set(_STRATEGIES.values()):
            for attr in FRONTIER_METHODS:
                if attr in cls.__dict__:
                    self._patch(cls, attr,
                                lambda fn: self.span("frontier", fn))

    def install_store_get(self):
        """``ResultStore.get`` as a span that also counts hits."""
        from repro.serve.store import ResultStore

        def make(fn):
            timed = self.span("serve.store.get", fn)

            def get(store, key):
                report = timed(store, key)
                if report is not None:
                    self.store_hits += 1
                return report
            return get
        self._patch(ResultStore, "get", make)

    def install_pool(self):
        """Count pool jobs and their submit-to-done time."""
        from repro.serve.pool import WarmPool
        clock, lock = time.perf_counter, threading.Lock()

        def make(fn):
            def submit(pool, *args, **kwargs):
                future = fn(pool, *args, **kwargs)
                start = clock()

                def done(_future):
                    with lock:
                        self.pool_job_s += clock() - start
                self.calls["serve.pool.jobs"] += 1
                future.add_done_callback(done)
                return future
            return submit
        self._patch(WarmPool, "submit", make)

    def restore(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def snapshot(self):
        """Plain-dict totals, for shipping across a process boundary."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "engine_misses": self.engine_misses,
                "store_hits": self.store_hits,
                "pool_job_s": self.pool_job_s}


def load_traces(trace_dir):
    """The snapshots other processes wrote into ``trace_dir``."""
    snaps = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name)) as fh:
            snaps.append(json.load(fh))
    return snaps


def merge_snapshots(*snapshots):
    """Sum several :meth:`LayerTracer.snapshot` dicts."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "engine_misses": 0, "store_hits": 0, "pool_job_s": 0.0}
    for snap in snapshots:
        for key in ("calls", "self_s"):
            for name, value in snap[key].items():
                out[key][name] += value
        for key in ("engine_misses", "store_hits", "pool_job_s"):
            out[key] += snap[key]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(snap, report_totals):
    """The per-layer metrics (name -> (value, unit)) from merged spans
    plus the deterministic totals read off the pass's reports."""
    calls, self_s = snap["calls"], snap["self_s"]
    metrics = {
        "explorer.paths": (report_totals["paths"], "count"),
        "explorer.steps": (report_totals["steps"], "count"),
        "mitigate.verifications": (report_totals["verifications"], "count"),
    }
    for layer in ("explorer.explore", "explorer.advance_to_fork",
                  "explorer.expand", "engine.step", "machine.step",
                  "config.hash", "frontier", "por", "sps.explore",
                  "api.report", "serve.rpc", "serve.store.get"):
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    for layer in ("api.project", "api.run", "serve.handler", "serve.keys",
                  "serve.store.put", "mitigate.localize", "mitigate.synth"):
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    engine_calls = calls.get("engine.step", 0)
    metrics["engine.step.hit_ratio"] = (
        _ratio(engine_calls - snap["engine_misses"], engine_calls), "ratio")
    metrics["serve.store.hit_ratio"] = (
        _ratio(snap["store_hits"], calls.get("serve.store.get", 0)), "ratio")
    metrics["serve.pool.jobs"] = (calls.get("serve.pool.jobs", 0), "count")
    metrics["serve.pool.job_s"] = (snap["pool_job_s"], "s")
    return metrics
