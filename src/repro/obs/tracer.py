"""Cheap nested spans with a null default — tracing as an ambient.

The stack already counts everything (EngineStats, PruningStats,
SubsumptionStats, AnytimeStats); what it cannot say is *where the time
and steps went* — which frontier pops were expensive, what the mcts
bandit saw when it picked a branch.
A :class:`Tracer` records that as flat **spans**: named, categorised
intervals on a monotonic clock, tagged with the recording process and
thread and annotated with whatever counters the instrumented seam finds
cheap to attach (step deltas, cache hits, POR skips, UCT scores).
Nesting is positional — Chrome's ``trace_event`` viewers reconstruct
the span tree from interval containment per (pid, tid) track, so the
recorder never maintains a stack.

The cost contract (DESIGN.md, "Observability"): tracing off is the
default, and an instrumented hot path pays **one attribute check** —
``tracer.enabled`` on the :data:`NULL_TRACER` singleton — per
instrumented region, never per machine step.  Instrumentation
therefore lives at the frontier-pop / fork-expansion granularity, and
:class:`ExecutionEngine.step` itself is untouched.

The active tracer is a thread-local **ambient**: a CLI ``--trace`` run
scopes one over the whole analysis call tree with
:func:`tracing_context` instead of threading an unpicklable recorder
through every options object.  ``seq`` numbers are dense per recorder,
so a capture's order is a pure function of the work done, not of
wall-clock interleaving.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Mapping, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER",
           "tracing_context", "ambient_tracer"]


class Span:
    """One completed interval: ``[ts, ts + dur)`` on the recorder's
    monotonic clock, with identity tags and counter annotations.
    ``seq`` is dense per recorder, so it orders a capture
    deterministically.
    """

    __slots__ = ("name", "cat", "ts", "dur", "pid", "tid", "seq", "args")

    def __init__(self, name: str, cat: str, ts: float, dur: float,
                 pid: int, tid: int, seq: int, args: Dict[str, Any]):
        self.name = name
        self.cat = cat
        self.ts = ts
        self.dur = dur
        self.pid = pid
        self.tid = tid
        self.seq = seq
        self.args = args

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "cat": self.cat, "ts": self.ts,
                "dur": self.dur, "pid": self.pid, "tid": self.tid,
                "seq": self.seq, "args": self.args}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict`; the ``shard`` key that spans of
        older captures carry is ignored."""
        return cls(data["name"], data["cat"], data["ts"], data["dur"],
                   data["pid"], data["tid"], data["seq"],
                   dict(data.get("args") or {}))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Span({self.name!r}/{self.cat}, {self.dur * 1e3:.3f}ms, "
                f"pid={self.pid}, seq={self.seq})")


class _NullSpan:
    """The no-op context manager :meth:`NullTracer.span` hands out."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """A live span recorder (``enabled`` is True).

    Hot seams use the explicit two-call form — ``ts = tracer.start()``
    … work … ``tracer.add(name, cat, ts, args)`` — so the disabled path
    never allocates; cool seams use the :meth:`span` context manager.
    Thread-safe, so several threads may record into one tracer.
    """

    enabled = True

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._seq = 0

    def start(self) -> float:
        """A timestamp for a later :meth:`add` — just the clock."""
        return self.clock()

    def add(self, name: str, cat: str, ts: float,
            args: Optional[Dict[str, Any]] = None) -> None:
        """Record a span that started at ``ts`` and ends now."""
        dur = self.clock() - ts
        with self._lock:
            seq = self._seq
            self._seq += 1
            self.spans.append(Span(name, cat, ts, dur, os.getpid(),
                                   threading.get_ident(), seq,
                                   args if args is not None else {}))

    def instant(self, name: str, cat: str = "repro", **args: Any) -> None:
        """A zero-duration marker span."""
        self.add(name, cat, self.clock(), args)

    @contextmanager
    def span(self, name: str, cat: str = "repro", **args: Any):
        ts = self.start()
        try:
            yield
        finally:
            self.add(name, cat, ts, args)

    def export(self) -> List[Dict[str, Any]]:
        """Every recorded span as a plain dict, in recording order."""
        with self._lock:
            return [span.to_dict() for span in self.spans]

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Tracer |{len(self.spans)} spans|>"


class NullTracer:
    """The default recorder: off, free, and safe to call anyway.

    ``enabled`` is a class attribute read as *the* hot-path check; all
    recording methods are no-ops so un-guarded cool paths need no
    branches at all.
    """

    enabled = False
    spans: tuple = ()

    def start(self) -> float:
        return 0.0

    def add(self, name: str, cat: str, ts: float,
            args: Optional[Dict[str, Any]] = None) -> None:
        pass

    def instant(self, name: str, cat: str = "repro", **args: Any) -> None:
        pass

    def span(self, name: str, cat: str = "repro", **args: Any):
        return _NULL_SPAN

    def export(self) -> List[Dict[str, Any]]:
        return []

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<NullTracer>"


#: The process-wide disabled recorder every seam falls back to.
NULL_TRACER = NullTracer()


class _TraceContext(threading.local):
    """Per-thread ambient tracer for nested analysis call trees."""

    tracer: Optional[Tracer] = None


_CONTEXT = _TraceContext()


@contextmanager
def tracing_context(tracer: Optional[Tracer]):
    """Scope a tracer over a call tree (thread-local).

    Everything constructed in this thread while the context is active —
    explorers, managers — records into ``tracer``;
    ``None`` restores the null default (useful for explicitly shielding
    a subtree).
    """
    previous = _CONTEXT.tracer
    _CONTEXT.tracer = tracer
    try:
        yield tracer
    finally:
        _CONTEXT.tracer = previous


def ambient_tracer():
    """The innermost scoped tracer, or :data:`NULL_TRACER`."""
    tracer = _CONTEXT.tracer
    return tracer if tracer is not None else NULL_TRACER
