"""The ``serve`` workload: one closed-loop client against a daemon in
its own process.

Each pass starts a daemon on an empty store and submits every key once
(cold: the pool computes, the store is written), then again (warm: the
daemon's memory tier answers), then restarts the daemon on the same
store and submits every key a third time (the disk store answers).  A
key is a litmus case name and an analysis.

The client, the daemon and its pool workers share one CPU.  With one
closed-loop client at most one job is in flight, so a second CPU adds
only cross-CPU wake-ups to each RPC; on a shared host their latency
drifts with the host's load (same-seed runs differed by up to 60%), and
the client's calibration, which runs on its own CPU, cannot see it.  Each submit is timed from
the ``submit`` call until its report has been fetched; while a job runs
the client polls ``status`` every :data:`POLL_S` seconds.
Daemon starts are set-up, never timed.
"""

import json
import os
import random
import select
import shutil
import subprocess
import sys
import time

from workloads import BACKENDS, Record

HERE = os.path.dirname(os.path.abspath(__file__))

#: The client's fixed status-poll interval while a job runs.
POLL_S = 0.0005

#: Tier name -> the ``source`` the daemon must report for it.
TIERS = (("cold", "computed"), ("warm", "memory"), ("store", "store"))

#: Seconds a daemon may take to start or to stop.
DAEMON_TIMEOUT = 60.0


class Daemon:
    """A ``perfbench/daemon.py`` child process."""

    def __init__(self, run_dir, store, trace_out=None):
        self.socket = os.path.join(run_dir, "daemon.sock")
        self.rss_out = os.path.join(run_dir, "daemon-rss.json")
        command = [sys.executable, os.path.join(HERE, "daemon.py"),
                   "--socket", self.socket, "--store", store,
                   "--rss-out", self.rss_out]
        if trace_out:
            command += ["--trace-out", trace_out]
        start = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    DAEMON_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        self.start_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.kill()
            raise RuntimeError(f"daemon did not start (said {line!r})")

    def stop(self, client):
        """Shut the daemon down; returns its and its workers' summed
        peak RSS in KiB."""
        try:
            client.shutdown(drain=True)
        finally:
            client.close()
        try:
            self.proc.wait(timeout=DAEMON_TIMEOUT)
        finally:
            self.kill()
        with open(self.rss_out) as fh:
            peaks = json.load(fh)
        return peaks["daemon_kb"] + peaks["workers_kb"]

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Op:
    """One submit: a litmus case under one analysis."""

    __slots__ = ("name", "kind", "spec", "analysis")

    def __init__(self, name, kind, spec, analysis):
        self.name, self.kind = name, kind
        self.spec, self.analysis = spec, analysis


class Serve:
    """The serve workload (see the module docstring)."""

    #: Wall seconds one pass takes here, daemon starts, checks and
    #: calibration included (sets the pass count).
    pass_s = 4.5
    overhead_ops = None

    def __init__(self, seed, run_dir):
        from repro.litmus import all_cases
        from repro.serve import run_job, spec_for_name, strip_volatile
        # Daemons started from here inherit the CPU (see the module
        # docstring).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.seed, self.run_dir = seed, run_dir
        keys = [(case.name, analysis) for case in all_cases()
                for analysis in BACKENDS]
        random.Random(seed).shuffle(keys)
        self.keys = [(name, spec_for_name(name), analysis)
                     for name, analysis in keys]
        #: Every key's report computed in this process, for the check.
        self.expected = {
            (name, analysis): strip_volatile(
                run_job(spec, analysis, {}).to_dict())
            for name, spec, analysis in self.keys}
        #: Daemon start times: this workload's set-up.
        self.setup_samples = []
        #: The largest peak RSS (KiB) of a daemon and its workers.
        self.children_kb = 0
        self._passes = 0

    def run_once(self):
        """Every submit is timed; nothing runs once."""
        return []

    def run_pass(self, names=None, trace_dir=None, meter=None):
        """One cold/warm/store pass, ticking ``meter`` before each
        submit; returns its records.  With ``trace_dir`` the daemons
        write their span totals there."""
        store = os.path.join(self.run_dir, f"store-{self._passes}")
        self._passes += 1
        trace = (lambda n: os.path.join(trace_dir, f"daemon-{n}.json")) \
            if trace_dir else (lambda n: None)
        records = self._session(store, trace(0), TIERS[:2], meter)
        records += self._session(store, trace(1), TIERS[2:], meter)
        shutil.rmtree(store, ignore_errors=True)
        return records

    def _session(self, store, trace_out, tiers, meter):
        """Start a daemon on ``store``, run ``tiers``, stop it."""
        from repro.serve import ServeClient
        daemon = Daemon(self.run_dir, store, trace_out)
        self.setup_samples.append(daemon.start_s)
        try:
            client = ServeClient(socket_path=daemon.socket)
        except BaseException:
            daemon.kill()
            raise
        try:
            records = []
            for tier, source in tiers:
                records += self._loop(client, tier, source, meter)
        finally:
            peak_kb = daemon.stop(client)
        self.children_kb = max(self.children_kb, peak_kb)
        return records

    def _loop(self, client, tier, source, meter):
        from repro.serve import ServeError
        records = []
        for name, spec, analysis in self.keys:
            if meter is not None:
                meter.tick()
            op = Op(f"{name}/{analysis}", tier, spec, analysis)
            start = time.perf_counter()
            try:
                result = submit_and_fetch(client, spec, analysis)
            except ServeError as exc:
                record = Record(op, time.perf_counter() - start, False, None)
                record.failure = f"ServeError: {exc}"
            else:
                record = Record(op, time.perf_counter() - start,
                                not result["report"].get("truncated"),
                                result)
                if result.get("source") != source:
                    record.failure = (f"{tier} submit answered from "
                                      f"{result.get('source')!r}")
            records.append(record)
        return records

    def check(self, records, deep):
        from repro.serve import strip_volatile
        for record in records:
            if record.result is None:
                continue
            key = (record.op.spec["name"], record.op.analysis)
            got = strip_volatile(record.result["report"])
            if record.failure is None and got != self.expected[key]:
                record.failure = "daemon report differs from in-process"

    def summary(self, records):
        return [f"closed loop, 1 client, {len(self.keys)} keys, "
                f"status polled every {POLL_S * 1000:g} ms"]


def submit_and_fetch(client, spec, analysis):
    """Submit, poll ``status`` every :data:`POLL_S` until the job is no
    longer queued or running, and fetch the result payload."""
    reply = client.submit(spec, analysis=analysis)
    state, cursor = reply["state"], 0
    while state in ("queued", "running"):
        time.sleep(POLL_S)
        status = client.status(reply["job"], since=cursor)
        state, cursor = status["state"], status["next_cursor"]
    return client.result_dict(reply["job"])
