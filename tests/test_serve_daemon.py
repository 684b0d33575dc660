"""End-to-end daemon tests: the serve stack's strict bar.

A report computed by the daemon — over the socket, through the warm
pool — must be **byte-identical** (modulo
wall-clock fields, via ``strip_volatile``) to the report the in-process
``Project.run`` produces for the same target and options.  On top of
that: warm resubmissions must come from the memory/store tiers without
touching the pool, a daemon restarted over the same store directory
must answer from disk without ever *starting* its pool, corrupt store
objects must be recomputed (not crash the daemon), and graceful
shutdown must drain in-flight jobs.

One module-scoped daemon serves most tests (worker start-up is paid
once); lifecycle tests that need their own daemon build one per test.
"""

import gc
import json
import os
import subprocess
import sys
import threading
import warnings

import pytest

from repro.api import Project
from repro.api.cli import main
from repro.engine import available_strategies
from repro.serve import (ResultStore, ServeClient, ServeError,
                         start_in_thread, strip_volatile)

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning")


def _direct(name, **overrides):
    """The in-process reference report for a litmus target."""
    report = Project.from_litmus(name).run("pitchfork", **overrides)
    return strip_volatile(report.to_dict())


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serve")
    handle = start_in_thread(socket_path=str(tmp / "daemon.sock"),
                             store=str(tmp / "store"), workers=2)
    yield handle
    handle.stop()


@pytest.fixture()
def client(daemon):
    with ServeClient(socket_path=daemon.server.socket_path) as c:
        yield c


# -- round trips -------------------------------------------------------------


def test_ping(client):
    pong = client.ping()
    assert pong["pong"] and pong["pid"] == os.getpid()
    assert pong["draining"] is False


def test_daemon_report_identical_to_direct(client):
    report, cache = client.submit_and_wait(
        {"kind": "name", "name": "kocher_01"})
    assert strip_volatile(report.to_dict()) == _direct("kocher_01")
    assert cache["source"] in ("computed", "memory", "store")


def test_warm_resubmit_skips_the_pool(daemon, client):
    client.submit_and_wait({"kind": "name", "name": "kocher_02"})
    before = daemon.server.pool.stats()["tasks_submitted"]
    report, cache = client.submit_and_wait(
        {"kind": "name", "name": "kocher_02"})
    assert cache["source"] == "memory"
    assert daemon.server.pool.stats()["tasks_submitted"] == before
    assert strip_volatile(report.to_dict()) == _direct("kocher_02")


def _count_calls(client, monkeypatch):
    """The RPC methods ``client`` sends from now on."""
    methods = []
    call = client.call

    def counted(method, **params):
        methods.append(method)
        return call(method, **params)
    monkeypatch.setattr(client, "call", counted)
    return methods


def test_a_cached_submit_carries_its_answer(daemon, client, monkeypatch):
    """A warm submit is one round trip: its reply carries the payload
    ``result`` would return, and the client answers ``result``,
    ``result_dict`` and ``wait`` for that job from it."""
    spec, options = {"kind": "name", "name": "kocher_03"}, {"bound": 9}
    cold = client.submit(spec, options=options)
    assert not cold["cached"] and "result" not in cold
    client.wait(cold["job"])
    methods = _count_calls(client, monkeypatch)
    warm = client.submit(spec, options=options)
    assert warm["cached"] and warm["result"]["source"] == "memory"
    payload = client.result_dict(warm["job"])
    report, cache = client.result(warm["job"])
    assert client.wait(warm["job"])[1] is cache
    assert methods == ["submit"]
    assert payload is warm["result"] and cache["source"] == "memory"
    assert strip_volatile(report.to_dict()) \
        == strip_volatile(payload["report"]) \
        == _direct("kocher_03", bound=9)
    over_the_wire = client.call("result", job=warm["job"])
    assert {k: v for k, v in over_the_wire.items() if k != "cache"} \
        == {k: v for k, v in payload.items() if k != "cache"}
    # Any other job, or a wait that streams events, asks the daemon.
    assert client.result_dict(cold["job"])["source"] == "computed"
    events = []
    client.wait(warm["job"], on_event=events.append)
    assert [e["state"] for e in events] == ["done"]
    assert methods == ["submit", "result", "result", "status"]


def test_a_reply_without_the_answer_falls_back_to_the_rpc(
        daemon, client, monkeypatch):
    """A daemon that predates the ``result`` field still answers."""
    from repro.serve import ReproServer
    submit = ReproServer.rpc_submit

    def old_submit(self, params):
        reply = submit(self, params)
        reply.pop("result", None)
        return reply
    monkeypatch.setattr(ReproServer, "rpc_submit", old_submit)
    spec = {"kind": "name", "name": "kocher_04"}
    client.submit_and_wait(spec)
    methods = _count_calls(client, monkeypatch)
    warm = client.submit(spec)
    assert warm["cached"] and "result" not in warm
    report, cache = client.result(warm["job"])
    assert methods == ["submit", "result"] and cache["source"] == "memory"
    assert strip_volatile(report.to_dict()) == _direct("kocher_04")


def test_asm_target_shipped_by_value(client):
    source = """
    check:  br gt, 4, %ra -> body, done
    body:   %rb = load [0x40, %ra]
            %rc = load [0x44, %rb]
    done:   halt
"""
    report, _ = client.submit_and_wait(
        {"kind": "asm", "source": source, "regs": {"ra": 9},
         "name": "fig1.s"})
    direct = Project.from_asm(source, regs={"ra": 9},
                              name="fig1.s").run("pitchfork")
    assert strip_volatile(report.to_dict()) \
        == strip_volatile(direct.to_dict())


def test_option_overrides_reach_the_analysis(client):
    report, _ = client.submit_and_wait(
        {"kind": "name", "name": "kocher_01"}, options={"bound": 7})
    assert strip_volatile(report.to_dict()) == _direct("kocher_01", bound=7)


def test_unknown_target_is_a_clean_error(client):
    with pytest.raises(ServeError) as err:
        client.submit({"kind": "name", "name": "no_such_case"})
    assert "no_such_case" in str(err.value)


def test_removed_shards_option_is_a_clean_error(client):
    """Clients written while in-analysis sharding existed may still
    send ``shards``: the reply names the unknown option, and the daemon
    keeps serving."""
    with pytest.raises(ServeError) as err:
        client.submit({"kind": "name", "name": "kocher_01"},
                      options={"shards": 4})
    assert "unknown analysis options" in str(err.value)
    assert "shards" in str(err.value)
    report, _ = client.submit_and_wait(
        {"kind": "name", "name": "kocher_01"}, options={"bound": 7})
    assert strip_volatile(report.to_dict()) == _direct("kocher_01", bound=7)


def test_removed_mcts_options_are_a_clean_error(client):
    """The UCT constant and playout depth are no longer options: a
    submission that sets one is refused by name, and the daemon keeps
    serving."""
    for knob, value in (("mcts_c", 2.0), ("mcts_playout", 4)):
        with pytest.raises(ServeError) as err:
            client.submit({"kind": "name", "name": "kocher_01"},
                          options={"strategy": "mcts", knob: value})
        assert "unknown analysis options" in str(err.value)
        assert knob in str(err.value)
    report, _ = client.submit_and_wait(
        {"kind": "name", "name": "kocher_01"}, options={"strategy": "mcts"})
    assert strip_volatile(report.to_dict()) == _direct("kocher_01",
                                                       strategy="mcts")


def test_unknown_job_is_a_clean_error(client):
    with pytest.raises(ServeError):
        client.status("job-999999")


def test_sps_analysis_served_identically(client):
    """The speculation-passing backend is a first-class daemon analysis
    (registry pickup, same byte-identity bar as pitchfork)."""
    report, _ = client.submit_and_wait(
        {"kind": "name", "name": "kocher_01"}, analysis="sps")
    direct = Project.from_litmus("kocher_01").run("sps")
    assert strip_volatile(report.to_dict()) \
        == strip_volatile(direct.to_dict())
    assert report.analysis == "sps"
    assert not report.secure


def test_failed_job_carries_type_and_traceback(daemon, client, monkeypatch):
    """A worker failure reaches the client as a typed, debuggable
    payload — class name and full traceback on the job state and the
    failure event — never a bare one-liner."""
    import time as _time

    def boom(*_args, **_kwargs):
        raise RuntimeError("injected worker failure")

    monkeypatch.setattr(daemon.server.pool, "submit", boom)
    job = client.submit({"kind": "name", "name": "kocher_12"})
    deadline = _time.monotonic() + 10.0
    while True:
        status = client.status(job["job"])
        if status["state"] not in ("queued", "running"):
            break
        assert _time.monotonic() < deadline, "job never settled"
        _time.sleep(0.02)
    assert status["state"] == "failed"
    assert status["error"] == "RuntimeError: injected worker failure"
    assert status["error_type"] == "RuntimeError"
    assert "Traceback (most recent call last)" in status["error_traceback"]
    assert "injected worker failure" in status["error_traceback"]
    failure_events = [e for e in status["events"]
                      if e.get("state") == "failed"]
    assert failure_events
    assert failure_events[-1]["error_type"] == "RuntimeError"
    assert "Traceback" in failure_events[-1]["error_traceback"]


# -- concurrency -------------------------------------------------------------


def test_concurrent_clients_all_identical(daemon):
    """Several clients hammering distinct targets at once each get the
    exact in-process report back."""
    names = ["kocher_03", "kocher_04", "kocher_06", "v1_fig8_fence"]
    results = {}
    errors = []

    def worker(name):
        try:
            with ServeClient(
                    socket_path=daemon.server.socket_path) as c:
                report, _ = c.submit_and_wait(
                    {"kind": "name", "name": name})
                results[name] = strip_volatile(report.to_dict())
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append((name, exc))

    threads = [threading.Thread(target=worker, args=(n,)) for n in names]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors
    for name in names:
        assert results[name] == _direct(name), name


def test_identical_submissions_coalesce_or_hit(daemon, client):
    """Two submits of one key never compute twice."""
    spec = {"kind": "name", "name": "kocher_08"}
    computed_before = daemon.server.jobs_computed
    a = client.submit(spec)
    b = client.submit(spec)
    ra, _ = client.wait(a["job"])
    rb, _ = client.wait(b["job"])
    assert strip_volatile(ra.to_dict()) == strip_volatile(rb.to_dict())
    assert daemon.server.jobs_computed <= computed_before + 1


# -- strategy differential ----------------------------------------------------


@pytest.mark.parametrize("strategy", available_strategies())
def test_strategy_differential(client, strategy):
    """Every search strategy through the daemon: identical to the
    in-process run under the same knobs."""
    overrides = {"strategy": strategy}
    if strategy == "random":
        overrides["seed"] = 11
    report, _ = client.submit_and_wait(
        {"kind": "name", "name": "kocher_05"}, options=overrides)
    assert strip_volatile(report.to_dict()) \
        == _direct("kocher_05", **overrides)


def test_jobs_stream_state_events(client):
    """A computed job publishes its state changes, densely numbered,
    ending in ``done`` with the report's violation count."""
    events = []
    report, _ = client.submit_and_wait(
        {"kind": "name", "name": "kocher_05"},
        options={"max_paths": 10_000},
        on_event=events.append)
    assert [e["kind"] for e in events] == ["state"] * len(events)
    assert [e["state"] for e in events] == ["queued", "running", "done"]
    assert events[-1]["violations"] == len(report.violations)
    assert [e["seq"] for e in events] == list(range(len(events)))


def test_tcp_transport(tmp_path):
    """The daemon speaks the same protocol over TCP (port 0 = ephemeral,
    bound port discovered at start)."""
    handle = start_in_thread(host="127.0.0.1", port=0, workers=1,
                             store=str(tmp_path / "store"))
    try:
        port = handle.server.port
        assert port > 0
        with ServeClient(host="127.0.0.1", port=port) as c:
            assert c.ping()["pong"]
            report, _ = c.submit_and_wait(
                {"kind": "name", "name": "kocher_01"})
            assert strip_volatile(report.to_dict()) == _direct("kocher_01")
    finally:
        handle.stop()


def test_preset_spec_resolves_like_the_cli(client):
    from repro.api import AnalysisOptions
    report, _ = client.submit_and_wait(
        {"kind": "name", "name": "kocher_01", "preset": "paper"})
    direct = Project.from_litmus(
        "kocher_01", options=AnalysisOptions.paper()).run("pitchfork")
    assert strip_volatile(report.to_dict()) \
        == strip_volatile(direct.to_dict())


def test_cache_hits_carry_this_requests_ignored_knobs(tmp_path):
    """A ``table2``-preset request with overrides back to kocher_01's
    own knobs shares the plain request's store key, but it set the
    bound (and caps) that metatheory ignores: a memory or store hit
    says so, as a fresh run of that request would."""
    from dataclasses import fields
    from repro.api import AnalysisOptions
    plain = {"kind": "name", "name": "kocher_01"}
    via_preset = {**plain, "preset": "table2"}
    own, table2 = Project.from_litmus("kocher_01").options, \
        AnalysisOptions.table2()
    overrides = {f.name: getattr(own, f.name)
                 for f in fields(AnalysisOptions)
                 if getattr(own, f.name) != getattr(table2, f.name)}
    direct = strip_volatile(Project.from_litmus(
        "kocher_01", options=table2).run("metatheory", **overrides)
        .to_dict())
    assert direct["details"]["bound_ignored"] == own.bound

    sock, store = str(tmp_path / "i.sock"), str(tmp_path / "store")
    with start_in_thread(socket_path=sock, store=store, workers=1):
        with ServeClient(socket_path=sock) as c:
            first, _ = c.submit_and_wait(plain, analysis="metatheory")
            assert not any(k.endswith("_ignored") for k in first.details)
            hit, cache = c.submit_and_wait(via_preset, analysis="metatheory",
                                           options=overrides)
            assert cache["source"] == "memory"
            assert strip_volatile(hit.to_dict()) == direct
            again, _ = c.submit_and_wait(plain, analysis="metatheory")
            assert again.details == first.details
    with start_in_thread(socket_path=sock, store=store, workers=1):
        with ServeClient(socket_path=sock) as c:
            hit, cache = c.submit_and_wait(via_preset, analysis="metatheory",
                                           options=overrides)
            assert cache["source"] == "store"
            assert strip_volatile(hit.to_dict()) == direct


def test_a_submit_joins_only_inflight_work_with_its_own_answer(tmp_path):
    """kocher_05 under metatheory, plain and then, while that job runs,
    as the ``table2`` preset with overrides back to the case's knobs:
    one store key, but only the second request set the bound and caps
    metatheory ignores, so it must not be handed the first job's
    answer."""
    from dataclasses import fields
    from repro.api import AnalysisOptions
    plain = {"kind": "name", "name": "kocher_05"}
    own, table2 = Project.from_litmus("kocher_05").options, \
        AnalysisOptions.table2()
    slow = {"experiments": 2000}
    overrides = {f.name: getattr(own, f.name)
                 for f in fields(AnalysisOptions)
                 if getattr(own, f.name) != getattr(table2, f.name)}
    overrides.update(slow)
    direct = strip_volatile(Project.from_litmus(
        "kocher_05", options=table2).run("metatheory", **overrides)
        .to_dict())
    assert {k: v for k, v in direct["details"].items()
            if k.endswith("_ignored")} == {
        "bound_ignored": 40, "fwd_hazards_ignored": False,
        "max_paths_ignored": 8000}

    with start_in_thread(socket_path=str(tmp_path / "c.sock"),
                         workers=2):
        with ServeClient(socket_path=str(tmp_path / "c.sock")) as c:
            first = c.submit(plain, analysis="metatheory", options=slow)
            second = c.submit({**plain, "preset": "table2"},
                              analysis="metatheory", options=overrides)
            assert c.status(first["job"])["state"] in ("queued", "running")
            assert second["job"] != first["job"]
            report, _ = c.wait(second["job"])
            c.wait(first["job"])
    assert strip_volatile(report.to_dict()) == direct


# -- store tier across restarts ----------------------------------------------


def test_restarted_daemon_serves_from_disk_without_a_pool(tmp_path):
    sock, store = str(tmp_path / "a.sock"), str(tmp_path / "store")
    with start_in_thread(socket_path=sock, store=store, workers=1):
        with ServeClient(socket_path=sock) as c:
            first, _ = c.submit_and_wait(
                {"kind": "name", "name": "kocher_09"})

    # Same store, fresh daemon: the resubmission is answered from disk
    # and the warm pool is never even started.
    with start_in_thread(socket_path=sock, store=store,
                         workers=1) as handle:
        with ServeClient(socket_path=sock) as c:
            again, cache = c.submit_and_wait(
                {"kind": "name", "name": "kocher_09"})
        assert cache["source"] == "store"
        assert handle.server.pool.started is False
    assert again.to_dict() == first.to_dict()


def test_corrupt_store_object_recomputed_not_crashed(tmp_path):
    sock, store_dir = str(tmp_path / "b.sock"), str(tmp_path / "store")
    with start_in_thread(socket_path=sock, store=store_dir, workers=1):
        with ServeClient(socket_path=sock) as c:
            first, _ = c.submit_and_wait(
                {"kind": "name", "name": "kocher_11"})

    store = ResultStore(store_dir)
    key = store.keys()[0]
    with open(store.path_for(key), "w", encoding="utf-8") as fh:
        fh.write('{"store_version": 1, "key')       # torn write

    with start_in_thread(socket_path=sock, store=store_dir, workers=1):
        with ServeClient(socket_path=sock) as c:
            again, cache = c.submit_and_wait(
                {"kind": "name", "name": "kocher_11"})
        assert cache["source"] == "computed"
    assert strip_volatile(again.to_dict()) \
        == strip_volatile(first.to_dict())


# -- lifecycle ---------------------------------------------------------------


def test_graceful_shutdown_drains_inflight_jobs(tmp_path):
    """Jobs in flight at shutdown complete (and persist) before the
    daemon exits; new submissions are refused while draining."""
    sock = str(tmp_path / "c.sock")
    store_dir = str(tmp_path / "store")
    handle = start_in_thread(socket_path=sock, store=store_dir, workers=1)
    with ServeClient(socket_path=sock) as c:
        jobs = [c.submit({"kind": "name", "name": name})["job"]
                for name in ("kocher_12", "kocher_13", "kocher_14")]
        c.shutdown(drain=True)
        with pytest.raises((ServeError, ConnectionError)):
            c.submit({"kind": "name", "name": "kocher_01"})
    handle.thread.join(timeout=120)
    assert not handle.thread.is_alive()
    server = handle.server
    assert all(server._jobs[j].state == "done" for j in jobs)
    # ...and the drained results made it to disk.
    assert len(ResultStore(store_dir)) == len(jobs)


def test_stats_counters(daemon, client):
    stats = client.stats()
    assert sum(stats["jobs"].values()) >= 1
    assert stats["pool"]["started"] is True
    assert stats["store"]["entries"] >= 1
    assert stats["cache"]["computed"] >= 1


def test_results_listing(daemon, client):
    rows = client.results()["entries"]
    assert rows and all("key" in r and "target" in r for r in rows)


# -- the CLI against a live daemon -------------------------------------------


def test_cli_submit_exit_codes_and_json(daemon, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_SOCKET", daemon.server.socket_path)
    assert main(["submit", "kocher_01", "--check"]) == 1   # violation
    assert main(["submit", "v1_fig8_fence", "--check"]) == 0
    assert main(["submit", "no_such_case"]) == 3
    capsys.readouterr()
    assert main(["submit", "kocher_01", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["details"]["cache"]["source"] in ("memory", "store")
    assert strip_volatile(payload) == _direct("kocher_01")


def test_cli_results_against_store(daemon, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_SOCKET", daemon.server.socket_path)
    assert main(["results"]) == 0
    out = capsys.readouterr().out
    assert "kocher" in out
    assert main(["results", "--store", daemon.server.store.root,
                 "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["entries"]
    assert rows


def test_cli_results_reader_closing_early_exits_quietly(daemon, tmp_path):
    """``repro results | grep -q …``: the reader is gone before the
    listing is written.  The listing exits 0 with nothing on stderr
    instead of a ``BrokenPipeError`` traceback."""
    src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                       "..", "src"))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for argv in (["--store", daemon.server.store.root],
                     ["--socket", daemon.server.socket_path, "--json"]):
            done = subprocess.run(
                [sys.executable, "-m", "repro", "results", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                cwd=str(tmp_path), timeout=60)
            assert done.returncode == 0, done.stderr
            assert done.stderr == b"", done.stderr
    finally:
        os.close(write_end)


def test_cli_serve_stats(daemon, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_SOCKET", daemon.server.socket_path)
    assert main(["serve", "--stats"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["pool"]["workers"] >= 1


def test_cli_submit_asm_file(daemon, tmp_path, capsys, monkeypatch):
    """File targets are read client-side and shipped by value."""
    monkeypatch.setenv("REPRO_SERVE_SOCKET", daemon.server.socket_path)
    source = """
    check:  br gt, 4, %ra -> body, done
    body:   %rb = load [0x40, %ra]
            %rc = load [0x44, %rb]
    done:   halt
"""
    asm = tmp_path / "victim.s"
    asm.write_text(source)
    # No memory layout → no secret to leak: secure, exit 0.
    assert main(["submit", str(asm), "--reg", "ra=9", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    direct = Project.from_asm(source, regs={"ra": 9},
                              name="victim.s").run("pitchfork")
    assert strip_volatile(payload) == strip_volatile(direct.to_dict())


def test_cli_unreachable_daemon_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SERVE_SOCKET",
                       str(tmp_path / "nobody-home.sock"))
    assert main(["submit", "kocher_01"]) == 3
    assert "repro serve" in capsys.readouterr().err


def _connect_nowhere(path):
    with pytest.raises(ConnectionError):
        ServeClient(socket_path=path)


def test_unreachable_daemon_leaves_no_open_socket(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        _connect_nowhere(str(tmp_path / "nobody-home.sock"))
        gc.collect()
    assert [w for w in caught if w.category is ResourceWarning] == []
