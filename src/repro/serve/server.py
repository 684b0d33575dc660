"""The resident analysis daemon.

:class:`ReproServer` is an asyncio front end over the subsystem's three
owned resources:

* a :class:`~repro.serve.pool.WarmPool` of job workers — started
  once, health-checked, drained on shutdown.  Every job runs *whole* on
  a warm worker (no process spawn per call), so parallelism is across
  jobs, never within one;
* a :class:`~repro.serve.store.ReportCache` over a
  :class:`~repro.serve.store.ResultStore` — every computed report is
  filed under its ``(fingerprint, analysis, options)`` content address;
  a warm resubmission is answered from the in-process memory tier or
  the store without ever touching the pool;
* a job table with streaming progress — each job publishes its state
  changes into the job record, which ``status`` polls page through
  with a cursor.

RPC surface (JSON-RPC 2.0, newline-delimited; see
:mod:`repro.serve.protocol`): ``ping``, ``submit``, ``status``,
``result``, ``cancel``, ``stats``, ``metrics``, ``results``,
``shutdown``.  A ``submit`` answered from a cache tier carries the
``result`` payload in its reply, so a cached answer is one round trip.

The daemon also keeps a :class:`~repro.obs.MetricsRegistry`: cache-tier
and job counters, a job wall-time histogram, and gauges (pool size,
in-flight jobs, warm-hit ratio) sampled periodically and refreshed
on-demand by the ``metrics`` RPC — ``repro serve --stats`` renders it.

Shutdown is a *drain*: new submissions are refused, in-flight jobs run
to completion (and are persisted), then the pool is shut down and the
listener closed — in-flight work is never dropped on the floor.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..api.analyses import get_analysis, restate_ignored
from ..api.report import Report
from ..obs import MetricsRegistry
from . import protocol
from .jobs import effective_options, resolve_project, run_job
from .keys import fingerprint_digest, store_key
from .pool import WarmPool
from .store import ReportCache, ResultStore

__all__ = ["ReproServer", "Job", "ServerHandle", "start_in_thread",
           "default_socket_path"]

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled")

#: Where a computed job's report came from (a cache hit's source is
#: its tier's: ``"memory"`` or ``"store"``).
SOURCE_COMPUTED = "computed"


def default_socket_path() -> str:
    """``$REPRO_SERVE_SOCKET`` or a per-user path under the temp dir."""
    env = os.environ.get("REPRO_SERVE_SOCKET")
    if env:
        return env
    uid = os.getuid() if hasattr(os, "getuid") else 0
    import tempfile
    return os.path.join(tempfile.gettempdir(), f"repro-serve-{uid}.sock")


@dataclass
class Job:
    """One submitted analysis run."""

    id: str
    key: str
    target: str
    analysis: str
    spec: Dict[str, Any]
    overrides: Dict[str, Any]
    #: The ``*_ignored`` details this request's answer carries.
    ignored: Dict[str, Any]
    state: str = QUEUED
    source: str = SOURCE_COMPUTED
    report: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Exception class name and formatted traceback of a FAILED job —
    #: the one-line ``error`` is for humans, these are for tooling
    #: (both ride on the failure state event and ``public_state()``).
    error_type: Optional[str] = None
    error_traceback: Optional[str] = None
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    cancel_requested: bool = False
    events: List[Dict[str, Any]] = field(default_factory=list)
    violations_so_far: int = 0
    #: The pool future (cancellable while queued; a running worker
    #: job finishes and has its result dropped).
    future: Any = field(default=None, repr=False)

    @property
    def answer_key(self) -> Tuple:
        """Submits with equal answer keys get the same answer."""
        return self.key, tuple(sorted(self.ignored.items()))

    def add_event(self, event: Dict[str, Any]) -> None:
        """Append a progress event, numbered densely by ``seq``."""
        event = dict(event)
        event["seq"] = len(self.events)
        self.events.append(event)

    def public_state(self) -> Dict[str, Any]:
        wall = None
        if self.started is not None:
            wall = (self.finished or time.time()) - self.started
        return {"job": self.id, "state": self.state, "source": self.source,
                "target": self.target, "analysis": self.analysis,
                "key": self.key, "created": self.created,
                "wall_time": wall, "error": self.error,
                "error_type": self.error_type,
                "error_traceback": self.error_traceback,
                "violations_so_far": self.violations_so_far,
                "events_available": len(self.events)}


class ReproServer:
    """The daemon: warm pool + result store + job table behind JSON-RPC.

        server = ReproServer(socket_path="/tmp/repro.sock",
                             store="~/.cache/repro-store", workers=4)
        server.run()                        # blocks; SIGINT drains
    """

    def __init__(self, socket_path: Optional[str] = None,
                 host: Optional[str] = None, port: int = 0,
                 store: Optional[object] = None,
                 workers: Optional[int] = None,
                 metrics_interval: float = 5.0):
        if socket_path is None and host is None:
            socket_path = default_socket_path()
        self.socket_path = socket_path
        self.host, self.port = host, port
        if isinstance(store, str):
            store = ResultStore(store)
        self.store: Optional[ResultStore] = store
        self.cache = ReportCache(store)
        #: Aggregated counters/gauges/histograms for the ``metrics``
        #: RPC; gauges are sampled every ``metrics_interval`` seconds
        #: and refreshed on-demand per request.  Created before the
        #: pool so pool traffic mirrors into the same registry.
        self.metrics = MetricsRegistry()
        self.metrics_interval = metrics_interval
        self.pool = WarmPool(workers, metrics=self.metrics)
        self._jobs: Dict[str, Job] = {}
        #: In-flight job id by :attr:`Job.answer_key`.
        self._active_by_key: Dict[Tuple, str] = {}
        self._seq = itertools.count(1)
        self._tasks: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._done: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._draining = False
        self._shutdown_task: Optional[asyncio.Task] = None
        self._started_at = time.time()
        self.jobs_computed = 0
        self.jobs_coalesced = 0
        self._sampler_task: Optional[asyncio.Task] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.socket_path)
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.port)
            self.port = self._server.sockets[0].getsockname()[1]
        self._sampler_task = self._loop.create_task(
            self._sample_periodically())

    @property
    def address(self) -> Dict[str, Any]:
        if self.socket_path is not None:
            return {"socket": self.socket_path}
        return {"host": self.host, "port": self.port}

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._done.wait()

    def run(self) -> None:
        """Blocking entry point (the ``repro serve`` CLI)."""
        try:
            asyncio.run(self.serve_forever())
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass

    async def request_shutdown(self, drain: bool = True,
                               timeout: Optional[float] = None) -> None:
        """Stop accepting, drain in-flight jobs, stop the pool, exit."""
        self._draining = True
        if self._sampler_task is not None:
            self._sampler_task.cancel()
        if self._server is not None:
            self._server.close()
        if drain and self._tasks:
            await asyncio.wait(set(self._tasks), timeout=timeout)
        # The pool's futures are settled once the job tasks are done;
        # shutdown in a thread so a wedged worker can't hang the loop
        # forever when drain=False.
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.pool.shutdown(drain=drain, timeout=timeout))
        if self._server is not None:
            await self._server.wait_closed()
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        self._done.set()

    # -- connection handling -------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                reply = await self._dispatch_line(line)
                if reply is not None:
                    writer.write(protocol.encode(reply))
                    try:
                        await writer.drain()
                    except ConnectionResetError:
                        break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch_line(self, line: bytes) -> Optional[Dict[str, Any]]:
        try:
            msg = protocol.decode(line)
        except protocol.ProtocolError as exc:
            return protocol.error_response(None, exc.code, str(exc))
        req_id = msg.get("id")
        method = msg.get("method")
        params = msg.get("params", {})
        handler = getattr(self, f"rpc_{method}", None)
        if handler is None:
            return protocol.error_response(
                req_id, protocol.METHOD_NOT_FOUND,
                f"unknown method {method!r}")
        try:
            result = handler(params)
            if asyncio.iscoroutine(result):
                result = await result
            return protocol.response(req_id, result)
        except protocol.ServeError as exc:
            return protocol.error_response(req_id, exc.code, str(exc),
                                           exc.data)
        except (KeyError, ValueError, TypeError) as exc:
            message = exc.args[0] if exc.args else str(exc)
            return protocol.error_response(req_id, protocol.INVALID_PARAMS,
                                           str(message))
        except Exception as exc:  # pragma: no cover - defensive
            return protocol.error_response(req_id, protocol.INTERNAL_ERROR,
                                           f"{type(exc).__name__}: {exc}")

    # -- RPC methods ---------------------------------------------------------

    def rpc_ping(self, params: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "protocol": protocol.PROTOCOL_VERSION,
                "pid": os.getpid(), "draining": self._draining}

    def rpc_submit(self, params: Dict[str, Any]) -> Dict[str, Any]:
        if self._draining:
            raise protocol.ServeError(protocol.DRAINING,
                                      "daemon is draining; not accepting "
                                      "new submissions")
        spec = params.get("target")
        if not isinstance(spec, dict):
            raise protocol.ServeError(protocol.INVALID_PARAMS,
                                      "submit needs a 'target' spec object")
        analysis_name = params.get("analysis", "pitchfork")
        overrides = dict(params.get("options") or {})
        try:
            analyzer = get_analysis(analysis_name)
            analysis = analyzer.name
            project = resolve_project(spec)
            options = effective_options(project, overrides)
        except KeyError as exc:
            raise protocol.ServeError(
                protocol.UNKNOWN_TARGET,
                str(exc.args[0] if exc.args else exc)) from None
        except (ValueError, TypeError) as exc:
            raise protocol.ServeError(protocol.INVALID_PARAMS,
                                      str(exc)) from None
        key = store_key(analysis, fingerprint_digest(project), options)
        self.metrics.counter("serve_jobs_submitted_total").inc()
        job = Job(id="", key=key, target=project.name, analysis=analysis,
                  spec=dict(spec), overrides=overrides,
                  ignored=analyzer.ignored(project.preset, options))

        # Warm tiers first: either answers without touching the pool.
        cached, source = self.cache.get(key)
        if cached is not None:
            self.metrics.counter(f"serve_{source}_hits_total").inc()
            self._file(job)
            job.started = time.time()
            self._answer(job, cached, source)
            job.add_event({"kind": "state", "state": DONE, "source": source})
            # The answer rides on the reply: no ``result`` round trip.
            return {**job.public_state(), "cached": True,
                    "result": self._result_payload(job)}

        # Coalesce identical in-flight work onto one computation, but
        # only when its answer, *_ignored details included, is ours.
        active = self._jobs.get(self._active_by_key.get(job.answer_key))
        if active is not None and active.state in (QUEUED, RUNNING):
            self.jobs_coalesced += 1
            self.metrics.counter("serve_jobs_coalesced_total").inc()
            return {**active.public_state(), "cached": False,
                    "coalesced": True}

        self._file(job)
        job.add_event({"kind": "state", "state": QUEUED})
        self._active_by_key[job.answer_key] = job.id
        task = self._loop.create_task(
            self._run_job(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return {**job.public_state(), "cached": False}

    def rpc_status(self, params: Dict[str, Any]) -> Dict[str, Any]:
        job = self._job(params)
        since = int(params.get("since", 0))
        events = job.events[since:]
        cursor = len(job.events)
        return {**job.public_state(), "events": events,
                "next_cursor": cursor}

    def rpc_result(self, params: Dict[str, Any]) -> Dict[str, Any]:
        job = self._job(params)
        if job.state in (QUEUED, RUNNING):
            raise protocol.ServeError(
                protocol.JOB_NOT_DONE,
                f"job {job.id} is {job.state}", data=job.public_state())
        if job.state in (FAILED, CANCELLED):
            raise protocol.ServeError(
                protocol.JOB_FAILED,
                job.error or f"job {job.id} was {job.state}",
                data=job.public_state())
        return self._result_payload(job)

    def rpc_cancel(self, params: Dict[str, Any]) -> Dict[str, Any]:
        job = self._job(params)
        if job.state in (DONE, FAILED, CANCELLED):
            return {"job": job.id, "state": job.state, "cancelled": False}
        job.cancel_requested = True
        if job.future is not None:
            # Only dequeues a not-yet-started pool job; a running one
            # finishes and has its result dropped (but stored — it is
            # deterministic, so future submissions still benefit).
            job.future.cancel()
        job.add_event({"kind": "state", "state": "cancel-requested"})
        return {"job": job.id, "state": job.state, "cancelled": True}

    def rpc_stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        states: Dict[str, int] = {}
        for job in self._jobs.values():
            states[job.state] = states.get(job.state, 0) + 1
        uptime = time.time() - self._started_at
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "pid": os.getpid(),
            # "uptime" predates started_at/uptime_s and is kept for
            # older clients; new consumers read the typed pair.
            "uptime": uptime,
            "started_at": self._started_at,
            "uptime_s": uptime,
            "draining": self._draining,
            "jobs": states,
            "cache": self._cache_counters(None),
            "pool": self.pool.stats(),
            "store": (None if self.store is None else
                      {"root": self.store.root,
                       "entries": len(self.store),
                       **self.store.stats.to_dict()}),
        }

    def rpc_metrics(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """The aggregated registry, with gauges refreshed on demand
        (the periodic sampler covers pull-less consumers like dashboards
        scraping ``repro serve --stats``)."""
        self._sample_gauges()
        result: Dict[str, Any] = {"metrics": self.metrics.to_dict(),
                                  "interval": self.metrics_interval}
        if params.get("render"):
            result["rendered"] = self.metrics.render_text()
        return result

    def rpc_results(self, params: Dict[str, Any]) -> Dict[str, Any]:
        if self.store is None:
            raise protocol.ServeError(protocol.INVALID_PARAMS,
                                      "daemon runs without a result store")
        limit = int(params.get("limit", 50))
        rows = self.store.entries()
        return {"entries": rows[-limit:], "total": len(rows)}

    def rpc_shutdown(self, params: Dict[str, Any]) -> Dict[str, Any]:
        drain = bool(params.get("drain", True))
        inflight = sum(1 for j in self._jobs.values()
                       if j.state in (QUEUED, RUNNING))
        self._draining = True
        task = self._loop.create_task(self.request_shutdown(drain=drain))
        # Keep a reference so the shutdown task isn't GC'd mid-flight;
        # it must NOT go through self._tasks (request_shutdown awaits
        # those, and a task awaiting itself deadlocks the drain).
        self._shutdown_task = task
        return {"draining": True, "drain": drain, "jobs_inflight": inflight}

    # -- gauge sampling ------------------------------------------------------

    def _sample_gauges(self) -> None:
        """One gauge snapshot: pool occupancy, job table, hit ratio."""
        pool = self.pool.stats()
        self.metrics.gauge("serve_pool_workers").set(pool.get("workers", 0))
        self.metrics.gauge("serve_pool_inflight").set(
            pool.get("inflight", 0))
        self.metrics.gauge("serve_jobs_inflight").set(
            sum(1 for j in self._jobs.values()
                if j.state in (QUEUED, RUNNING)))
        warm = self.cache.memory_hits + self.cache.store_hits
        answered = warm + self.jobs_computed
        self.metrics.gauge("serve_cache_hit_ratio").set(
            warm / answered if answered else 0.0)

    async def _sample_periodically(self) -> None:
        try:
            while not self._draining:
                self._sample_gauges()
                await asyncio.sleep(self.metrics_interval)
        except asyncio.CancelledError:  # pragma: no cover - shutdown
            pass

    # -- job execution -------------------------------------------------------

    def _file(self, job: Job) -> None:
        """Number ``job`` and enter it in the job table."""
        job.id = f"job-{next(self._seq)}"
        self._jobs[job.id] = job

    def _answer(self, job: Job, report: Report, source: str) -> None:
        """Finish ``job`` with ``report``, restated for its request:
        the one place a daemon answer gets its ``*_ignored`` details."""
        report = restate_ignored(report, job.ignored)
        job.finished = time.time()
        job.state = DONE
        job.source = source
        job.report = report.to_dict()
        job.violations_so_far = len(report.violations)

    def _job(self, params: Dict[str, Any]) -> Job:
        job_id = params.get("job")
        job = self._jobs.get(job_id)
        if job is None:
            raise protocol.ServeError(protocol.UNKNOWN_JOB,
                                      f"unknown job {job_id!r}")
        return job

    def _result_payload(self, job: Job) -> Dict[str, Any]:
        """A done job's answer, as ``result`` returns it and a cached
        ``submit`` reply carries it (cache counters as of now)."""
        return {"job": job.id, "key": job.key, "report": job.report,
                "source": job.source,
                "cache": self._cache_counters(job.source)}

    def _cache_counters(self, source: Optional[str]) -> Dict[str, Any]:
        counters = {"memory_hits": self.cache.memory_hits,
                    "store_hits": self.cache.store_hits,
                    "computed": self.jobs_computed,
                    "coalesced": self.jobs_coalesced}
        if source is not None:
            counters["source"] = source
        if self.store is not None:
            counters["store"] = self.store.stats.to_dict()
        return counters

    async def _run_job(self, job: Job) -> None:
        job.state = RUNNING
        job.started = time.time()
        job.add_event({"kind": "state", "state": RUNNING})
        try:
            # Whole job on one warm worker: no per-call process spawn,
            # and a worker crash is one failed job.
            future = self.pool.submit(
                run_job, job.spec, job.analysis, job.overrides)
            job.future = future
            report = await asyncio.wrap_future(future)
        except asyncio.CancelledError:
            job.state = CANCELLED
            job.error = "cancelled"
            job.finished = time.time()
            job.add_event({"kind": "state", "state": CANCELLED})
            return
        except Exception as exc:
            # Boundary handler: a bad job must never take the daemon
            # down, whatever it raises — but the failure travels to the
            # client with its class name and full traceback, never as a
            # bare message.
            job.state = CANCELLED if job.cancel_requested else FAILED
            if job.state == FAILED:
                self.metrics.counter("serve_jobs_failed_total").inc()
            job.error = f"{type(exc).__name__}: {exc}"
            job.error_type = type(exc).__name__
            job.error_traceback = traceback.format_exc()
            job.finished = time.time()
            job.add_event({"kind": "state", "state": job.state,
                           "error": job.error,
                           "error_type": job.error_type,
                           "error_traceback": job.error_traceback})
            return
        finally:
            if self._active_by_key.get(job.answer_key) == job.id:
                del self._active_by_key[job.answer_key]
        if job.cancel_requested:
            # The computation finished before the cancel took effect;
            # honour the cancel (drop the result from the job) but keep
            # the deterministic report for future warm hits.
            job.finished = time.time()
            job.state = CANCELLED
            job.error = "cancelled"
        else:
            self._answer(job, report, SOURCE_COMPUTED)
        self.jobs_computed += 1
        self.metrics.counter("serve_jobs_computed_total").inc()
        self.metrics.histogram("serve_job_wall_seconds").observe(
            job.finished - job.started)
        self.cache.put(job.key, report, target=job.target,
                       analysis=job.analysis)
        job.add_event({"kind": "state", "state": job.state,
                       "source": job.source,
                       "violations": job.violations_so_far,
                       "engine": {
                           "paths_explored": report.paths_explored,
                           "states_stepped": report.states_stepped,
                           "states_reused": report.states_reused}})


# -- in-process harness -------------------------------------------------------


class ServerHandle:
    """A running server in a background thread (tests, benchmarks, and
    anything else that wants a daemon without a subprocess)."""

    def __init__(self, server: ReproServer, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop):
        self.server = server
        self.thread = thread
        self.loop = loop

    @property
    def address(self) -> Dict[str, Any]:
        return self.server.address

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Graceful stop: drain jobs, shut the pool, join the thread."""
        if self.thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.request_shutdown(drain=drain, timeout=timeout),
                self.loop)
            try:
                future.result(timeout=timeout)
            except Exception:  # pragma: no cover - loop already gone
                pass
        self.thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_in_thread(**kw) -> ServerHandle:
    """Start a :class:`ReproServer` on a fresh event loop in a daemon
    thread and block until it is accepting connections."""
    server = ReproServer(**kw)
    started = threading.Event()
    failure: List[BaseException] = []
    holder: Dict[str, asyncio.AbstractEventLoop] = {}

    def runner():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        holder["loop"] = loop

        async def main():
            try:
                await server.start()
            except BaseException as exc:
                failure.append(exc)
                raise
            finally:
                started.set()
            await server._done.wait()

        try:
            loop.run_until_complete(main())
        except BaseException as exc:  # pragma: no cover - startup failure
            if not failure:
                failure.append(exc)
            started.set()
        finally:
            loop.close()

    thread = threading.Thread(target=runner, daemon=True,
                              name="repro-serve")
    thread.start()
    if not started.wait(timeout=30):  # pragma: no cover - wedged host
        raise RuntimeError("serve daemon failed to start within 30s")
    if failure:
        raise RuntimeError(f"serve daemon failed to start: {failure[0]}")
    return ServerHandle(server, thread, holder["loop"])
