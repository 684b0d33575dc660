"""Run the analysis daemon the way ``repro serve`` does, for the serve
workload.

    python3 perfbench/daemon.py --socket S --store DIR --rss-out FILE
                                [--trace-out FILE]

Builds a :class:`repro.serve.ReproServer` with a two-worker pool,
starts it, and makes every pool worker answer a ping before printing
``ready`` on stdout, so no lazy pool start lands in a timed submit.
When a client shuts the daemon down, every worker reports its peak RSS
just before the pool stops, and the daemon writes its own peak and the
workers' sum to the ``--rss-out`` FILE.  With ``--trace-out`` the
daemon's own layers are wrapped (after the workers have forked, so they
stay untraced) and their span totals are written to that FILE.
"""

import argparse
import asyncio
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

WORKERS = 2


def _ping(delay):
    """Pool-worker probe: stay busy long enough that each worker takes
    one, then name the process that answered and its peak RSS (KiB)."""
    time.sleep(delay)
    return os.getpid(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def worker_peaks(pool, timeout=60.0):
    """{pid: peak RSS in KiB} once every worker of ``pool`` answered."""
    deadline = time.monotonic() + timeout
    peaks = {}
    while len(peaks) < pool.workers:
        if time.monotonic() > deadline:
            raise TimeoutError(f"only {len(peaks)} of {pool.workers} pool "
                               f"workers answered")
        futures = [pool.submit(_ping, 0.02) for _ in range(pool.workers)]
        peaks.update(f.result(timeout=timeout) for f in futures)
    return peaks


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--rss-out", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    # Import what pool jobs run before the workers fork, as a long-lived
    # daemon would have by the time a client arrives.
    import repro.mitigate  # noqa: F401
    import repro.sps  # noqa: F401
    from repro.serve import ReproServer

    server = ReproServer(socket_path=args.socket, store=args.store,
                         workers=WORKERS)
    tracer = None
    workers_kb = 0
    stop_pool = server.pool.shutdown

    def shutdown_pool(*a, **kw):
        # Untrace first: the probes below are not pool jobs of the run.
        nonlocal workers_kb
        if tracer is not None:
            tracer.restore()
        workers_kb = sum(worker_peaks(server.pool).values())
        return stop_pool(*a, **kw)

    server.pool.shutdown = shutdown_pool

    async def serve():
        nonlocal tracer
        await server.start()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, worker_peaks, server.pool)
        if args.trace_out:
            from tracing import DAEMON_LAYERS, LayerTracer
            tracer = LayerTracer()
            tracer.install(DAEMON_LAYERS)
            tracer.install_store_get()
            tracer.install_pool()
        print("ready", flush=True)
        await server.serve_forever()

    asyncio.run(serve())
    with open(args.rss_out, "w") as fh:
        json.dump({"daemon_kb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss, "workers_kb": workers_kb}, fh)
    if tracer is not None:
        with open(args.trace_out, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
