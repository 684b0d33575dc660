"""The resident job pool: one ``ProcessPoolExecutor`` with an *owned*
lifecycle, on which every daemon job runs whole.

The library's own pools (``AnalysisManager(workers=N)``) are per call,
because a module-level executor cached behind the library's back
poisons every process forked after it (the inherited
``concurrent.futures`` atexit join deadlocks the child).  The daemon
dissolves that constraint by *owning* the pool instead of hiding it:

* started lazily (a store-served request never spawns a worker),
  explicitly restartable, and shut down by the server's drain path —
  never by interpreter teardown;
* health-checked: :meth:`WarmPool.health_check` round-trips a ping
  through every worker and transparently rebuilds a broken pool
  (a worker killed by the OOM killer turns into one failed job, not a
  dead daemon);
* accounted: submission/completion counters feed the server's ``stats``
  RPC so "did the warm pool actually serve this?" is observable.

The pool is intentionally *not* a context manager used per call — its
whole point is to outlive calls.  The owner is responsible for exactly
one :meth:`shutdown` at the end of its life.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Optional, Set

__all__ = ["WarmPool"]


def _worker_ping() -> int:
    """Health-check payload: prove the worker process is alive."""
    return os.getpid()


class WarmPool:
    """A long-lived ``ProcessPoolExecutor`` with explicit lifecycle.

        pool = WarmPool(workers=4)
        future = pool.submit(fn, *args)     # starts the pool on demand
        pool.drain()                        # wait out in-flight work
        pool.shutdown()                     # the one owned teardown
    """

    def __init__(self, workers: Optional[int] = None, metrics=None):
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers or os.cpu_count() or 1
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        self._inflight: Set[Future] = set()
        self._closed = False
        self.tasks_submitted = 0
        self.tasks_completed = 0
        self.tasks_failed = 0
        self.restarts = 0
        #: Optional :class:`repro.obs.MetricsRegistry` mirror — every
        #: submit/settle also bumps registry counters so the daemon's
        #: ``metrics`` RPC sees pool traffic without polling stats().
        self.metrics = metrics

    # -- lifecycle -----------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._executor is not None

    def start(self) -> None:
        """Spin the executor up (idempotent)."""
        with self._lock:
            self._ensure_locked()

    def _ensure_locked(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("pool is shut down")
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def health_check(self, timeout: float = 30.0) -> bool:
        """Round-trip a ping through the pool; rebuild it if broken.

        Returns True when the (possibly rebuilt) pool answered.
        """
        try:
            pid = self.submit(_worker_ping).result(timeout=timeout)
            return isinstance(pid, int)
        except BrokenProcessPool:
            self.restart()
            try:
                pid = self.submit(_worker_ping).result(timeout=timeout)
                return isinstance(pid, int)
            except Exception:  # pragma: no cover - doubly broken host
                return False
        except Exception:  # pragma: no cover - timeout etc.
            return False

    def restart(self) -> None:
        """Tear the executor down and lazily rebuild on next submit."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None
                self.restarts += 1

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every in-flight future settles.

        Returns False if ``timeout`` elapsed with work still running.
        """
        with self._lock:
            pending = list(self._inflight)
        done = threading.Event()
        remaining = len(pending)
        if not remaining:
            return True
        lock = threading.Lock()

        def _one_done(_f):
            nonlocal remaining
            with lock:
                remaining -= 1
                if remaining == 0:
                    done.set()

        for future in pending:
            future.add_done_callback(_one_done)
        return done.wait(timeout)

    def shutdown(self, drain: bool = True,
                 timeout: Optional[float] = None) -> None:
        """Owned teardown: optionally drain, then stop the workers.

        Idempotent; after this every submit raises.
        """
        if drain:
            self.drain(timeout)
        with self._lock:
            self._closed = True
            if self._executor is not None:
                self._executor.shutdown(wait=drain, cancel_futures=not drain)
                self._executor = None

    # -- work ----------------------------------------------------------------

    def submit(self, fn: Callable, *args: Any, **kw: Any) -> Future:
        """Submit to the warm executor (starting it on first use),
        transparently rebuilding a broken pool once."""
        with self._lock:
            executor = self._ensure_locked()
            try:
                future = executor.submit(fn, *args, **kw)
            except BrokenProcessPool:
                executor.shutdown(wait=False, cancel_futures=True)
                self.restarts += 1
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
                future = self._executor.submit(fn, *args, **kw)
            self.tasks_submitted += 1
            self._inflight.add(future)
        if self.metrics is not None:
            self.metrics.counter("pool_tasks_submitted_total").inc()
        future.add_done_callback(self._settle)
        return future

    def _settle(self, future: Future) -> None:
        with self._lock:
            self._inflight.discard(future)
        if future.cancelled() or future.exception() is not None:
            self.tasks_failed += 1
            if self.metrics is not None:
                self.metrics.counter("pool_tasks_failed_total").inc()
        else:
            self.tasks_completed += 1
            if self.metrics is not None:
                self.metrics.counter("pool_tasks_completed_total").inc()

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def stats(self) -> Dict[str, Any]:
        return {"workers": self.workers, "started": self.started,
                "inflight": self.inflight,
                "tasks_submitted": self.tasks_submitted,
                "tasks_completed": self.tasks_completed,
                "tasks_failed": self.tasks_failed,
                "restarts": self.restarts}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else \
            ("warm" if self.started else "cold")
        return f"WarmPool(workers={self.workers}, {state})"
