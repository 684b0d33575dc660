"""repro.obs: tracer/metrics/export units, telemetry round trips, and
the tier-1 overhead guard.

The guard is the subsystem's core promise: observability must be
*free when off and inert when on*.  Tracing and telemetry may add wall
time, but they may never change what the exploration observes — so the
guard runs the litmus registry with tracing+telemetry on and off, and
requires the violation sets and the deterministic step counters to be
identical.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.core.machine import Machine
from repro.litmus import all_cases, find_case
from repro.obs import (CAPTURE_VERSION, DEFAULT_BUCKETS, MetricsRegistry,
                       NULL_TRACER, NullTracer, SearchTelemetry, Span,
                       Tracer, ambient_tracer, chrome_trace, read_capture,
                       sort_spans, summarize_spans, tracing_context,
                       validate_telemetry, write_capture)
from repro.pitchfork import ExplorationOptions, Explorer, violation_set

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- tracer -------------------------------------------------------------------

class TestTracer:
    def test_records_spans_with_dense_seq(self):
        tracer = Tracer()
        ts = tracer.start()
        tracer.add("a", "cat", ts, {"n": 1})
        with tracer.span("b", "cat", k=2):
            pass
        tracer.instant("c")
        spans = tracer.export()
        assert [s["name"] for s in spans] == ["a", "b", "c"]
        assert [s["seq"] for s in spans] == [0, 1, 2]
        assert all("shard" not in s for s in spans)
        assert all(s["dur"] >= 0.0 for s in spans)
        assert spans[0]["args"] == {"n": 1}
        assert spans[1]["args"] == {"k": 2}
        assert spans[0]["pid"] == os.getpid()

    def test_null_tracer_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        assert Tracer.enabled is True
        NULL_TRACER.add("x", "y", 0.0)
        NULL_TRACER.instant("x")
        with NULL_TRACER.span("x"):
            pass
        assert NULL_TRACER.export() == []
        assert len(NULL_TRACER) == 0

    def test_ambient_defaults_to_null_and_scopes(self):
        assert ambient_tracer() is NULL_TRACER
        tracer = Tracer()
        with tracing_context(tracer):
            assert ambient_tracer() is tracer
            with tracing_context(None):
                assert ambient_tracer() is NULL_TRACER
            assert ambient_tracer() is tracer
        assert ambient_tracer() is NULL_TRACER

    def test_span_dict_round_trip(self):
        span = Span("n", "c", 1.5, 0.25, 7, 8, 9, {"a": 1})
        again = Span.from_dict(span.to_dict())
        assert again.to_dict() == span.to_dict()


# -- metrics ------------------------------------------------------------------

class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total")
        counter.inc()
        counter.inc(4)
        assert registry.counter("jobs_total") is counter
        assert registry.to_dict()["counters"] == {"jobs_total": 5}
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("level").set(3.0)
        registry.gauge("level").set(1.5)
        assert registry.to_dict()["gauges"] == {"level": 1.5}

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("wall", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        data = registry.to_dict()["histograms"]["wall"]
        assert data["buckets"] == {"0.1": 1, "1.0": 3, "+Inf": 4}
        assert data["count"] == 4
        assert data["sum"] == pytest.approx(6.05)
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(2.0, 1.0))

    def test_render_text_is_greppable(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(2)
        registry.gauge("b").set(0.5)
        registry.histogram("h", buckets=(1.0,)).observe(0.2)
        text = registry.render_text()
        assert "a_total 2" in text
        assert "b 0.5" in text
        assert 'h_bucket{le="1.0"} 1' in text
        assert "h_count 1" in text

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


# -- export -------------------------------------------------------------------

def _span(name, seq, pid=1, ts=10.0, tid=1):
    return {"name": name, "cat": "c", "ts": ts, "dur": 0.5, "pid": pid,
            "tid": tid, "seq": seq, "args": {}}


class TestExport:
    def test_sort_is_by_seq(self):
        spans = [_span("c", 2), _span("a", 0), _span("b", 1)]
        assert [s["name"] for s in sort_spans(spans)] == ["a", "b", "c"]

    def test_chrome_trace_shape_and_rebasing(self):
        spans = [_span("p", 0, pid=1, ts=100.0),
                 _span("w", 1, pid=2, ts=5000.0, tid=7)]
        doc = chrome_trace(spans)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        assert all(e["ph"] == "X" for e in events)
        # Each process's stream is rebased to its own origin.
        assert [e["ts"] for e in events] == [0.0, 0.0]
        assert events[0]["dur"] == pytest.approx(0.5e6)
        assert [e["tid"] for e in events] == [1, 7]

    def test_legacy_shard_key_capture_still_inspects(self, tmp_path,
                                                     capsys):
        """Captures written while in-analysis sharding existed carry a
        ``shard`` key on every span; ``repro trace summary`` and the
        chrome export still accept them."""
        from repro.api.cli import main
        legacy = [dict(_span("p", 0), shard=None),
                  dict(_span("w0", 0, pid=2, ts=50.0), shard=0),
                  dict(_span("w1", 0, pid=3, ts=70.0), shard=1)]
        path = tmp_path / "legacy.jsonl"
        path.write_text("\n".join(
            [json.dumps({"kind": "header", "version": CAPTURE_VERSION,
                         "command": "analyze"})]
            + [json.dumps({"kind": "span", **s}) for s in legacy]) + "\n")
        assert main(["trace", "summary", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["spans"] == 3 and summary["processes"] == 3
        assert main(["trace", "summary", str(path)]) == 0
        assert "3 span(s)" in capsys.readouterr().out
        out = tmp_path / "legacy.chrome.json"
        assert main(["trace", "export", str(path), "--format", "chrome",
                     "-o", str(out)]) == 0
        events = json.loads(out.read_text())["traceEvents"]
        assert sorted(e["name"] for e in events) == ["p", "w0", "w1"]
        assert all(e["ph"] == "X" and e["ts"] == 0.0 for e in events)

    def test_capture_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        spans = [_span("b", 1), _span("a", 0)]
        write_capture(path, spans, header={"command": "test"})
        header, again = read_capture(path)
        assert header["version"] == CAPTURE_VERSION
        assert header["command"] == "test"
        assert [s["name"] for s in again] == ["a", "b"]  # sorted on write
        assert again == sort_spans(spans)

    def test_read_capture_rejects_non_jsonl(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("this is not json\n")
        with pytest.raises(ValueError):
            read_capture(path)

    def test_summarize_spans(self):
        spans = [_span("a", 0), _span("a", 1, pid=2), _span("b", 2)]
        summary = summarize_spans(spans)
        assert summary["spans"] == 3
        assert summary["processes"] == 2
        rows = {(r["cat"], r["name"]): r for r in summary["series"]}
        assert rows[("c", "a")]["count"] == 2
        assert rows[("c", "a")]["wall"] == pytest.approx(1.0)


# -- telemetry ----------------------------------------------------------------

class TestSearchTelemetry:
    def test_validate(self):
        validate_telemetry(True)
        with pytest.raises(ValueError):
            validate_telemetry("yes")

    def test_counters_and_section(self):
        telemetry = SearchTelemetry()
        telemetry.record_pop(4)
        telemetry.record_pop(4)
        telemetry.record_pop(None)  # ran off the program: pops only
        telemetry.record_schedule(0)
        telemetry.record_schedule(2)
        section = telemetry.to_section(1.25)
        assert section == {"heatmap": {"4": 2},
                           "fork_levels": {"0": 1, "2": 1},
                           "pops": 3, "wall_time": 1.25}


# -- schema v7 / store keys ---------------------------------------------------

class TestReportTelemetry:
    def test_schema_v7_round_trips_telemetry_exactly(self):
        from repro.pitchfork import analyze
        from repro.api.report import Report, from_analysis_report
        case = find_case("kocher_01")
        report = from_analysis_report(
            analyze(case.program, case.make_config(), bound=case.min_bound,
                    rsb_policy=case.rsb_policy, telemetry=True),
            target=case.name, analysis="pitchfork")
        assert report.telemetry is not None
        assert report.telemetry["pops"] > 0
        data = json.loads(report.to_json())
        assert data["schema_version"] == 8
        again = Report.from_dict(data)
        assert again.telemetry == report.telemetry
        assert json.loads(again.to_json()) == data

    def test_defaulted_telemetry_keeps_store_keys(self):
        """The store-key invariant: an options object that never names
        telemetry and one that sets it to its default produce the keys
        a pre-telemetry build produced (defaulted fields are skipped by
        canonical_options, so the new knob is invisible)."""
        from repro.api.project import AnalysisOptions
        from repro.serve.keys import canonical_options, store_key
        plain = AnalysisOptions(bound=8)
        defaulted = AnalysisOptions(bound=8, telemetry=False)
        assert canonical_options(plain) == canonical_options(defaulted)
        assert not any(name == "telemetry"
                       for name, _ in canonical_options(plain))
        assert store_key("pitchfork", "f" * 64, plain) == \
            store_key("pitchfork", "f" * 64, defaulted)
        enabled = AnalysisOptions(bound=8, telemetry=True)
        assert store_key("pitchfork", "f" * 64, enabled) != \
            store_key("pitchfork", "f" * 64, plain)

    def test_strip_volatile_zeroes_telemetry_wall_time_only(self):
        from repro.serve.keys import strip_volatile
        doc = {"wall_time": 3.0,
               "telemetry": {"heatmap": {"1": 2}, "fork_levels": {"0": 1},
                             "pops": 2, "wall_time": 0.125}}
        stripped = strip_volatile(doc)
        assert stripped["telemetry"]["wall_time"] == 0.0
        assert stripped["telemetry"]["heatmap"] == {"1": 2}
        assert stripped["telemetry"]["pops"] == 2


# -- serve stats --------------------------------------------------------------

class TestServeStats:
    def test_typed_fields_and_mapping_compat(self):
        from repro.serve.client import ServeStats
        stats = ServeStats.from_reply(
            {"started_at": 100.0, "uptime_s": 7.5, "pool": {"workers": 2}})
        assert stats.started_at == 100.0
        assert stats.uptime_s == 7.5
        assert stats["pool"] == {"workers": 2}
        assert dict(stats) == stats.to_dict()

    def test_old_daemon_reply_reconstructs_started_at(self):
        import time
        from repro.serve.client import ServeStats
        before = time.time()
        stats = ServeStats.from_reply({"uptime": 10.0})
        assert stats.uptime_s == 10.0
        assert before - 10.0 - 1.0 <= stats.started_at <= time.time() - 9.0


# -- the overhead guard (tier-1) ----------------------------------------------

def _case_options(case, telemetry=False):
    return ExplorationOptions(
        bound=case.min_bound, fwd_hazards=case.needs_fwd_hazards,
        explore_aliasing=case.needs_aliasing,
        jmpi_targets=case.jmpi_targets, rsb_targets=case.rsb_targets,
        telemetry=telemetry)


def _run(case, telemetry=False, traced=False):
    machine = Machine(case.program, rsb_policy=case.rsb_policy)
    options = _case_options(case, telemetry=telemetry)
    tracer = Tracer() if traced else None
    with tracing_context(tracer):
        explorer = Explorer(machine, options)
        result = explorer.explore(case.make_config())
    return result, (tracer.export() if tracer else [])


class TestOverheadGuard:
    """Observability may cost wall time, never observations or steps."""

    def test_registry_identical_with_tracing_and_telemetry_on(self):
        mismatches = []
        for case in all_cases():
            off, _ = _run(case)
            on, spans = _run(case, telemetry=True, traced=True)
            if violation_set(on.violations) != violation_set(off.violations):
                mismatches.append(f"{case.name}: observations diverge")
            if on.applied_steps != off.applied_steps:
                mismatches.append(f"{case.name}: step counts diverge "
                                  f"({on.applied_steps} vs "
                                  f"{off.applied_steps})")
            if on.paths_explored != off.paths_explored:
                mismatches.append(f"{case.name}: path counts diverge")
            assert on.telemetry is not None and on.telemetry["pops"] > 0, \
                case.name
            assert off.telemetry is None, case.name
            assert spans, case.name
        assert not mismatches, mismatches


# -- CLI: --json stdout purity (tier-1) ---------------------------------------

class TestCliJsonStdout:
    def test_json_stdout_is_one_document_with_trace_on(self, tmp_path):
        """Every progress/trace notice goes to stderr; --json stdout
        must parse as exactly one JSON document even with --trace."""
        capture = tmp_path / "t.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "analyze", "kocher_01",
             "--json", "--trace", str(capture)],
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
            timeout=120)
        assert proc.returncode == 1, proc.stderr  # INSECURE, by design
        report = json.loads(proc.stdout)  # raises if interleaved
        assert report["schema_version"] == 8
        assert report["telemetry"]["pops"] > 0  # --trace implied it
        assert "trace:" in proc.stderr
        header, spans = read_capture(capture)
        assert spans and header["command"] == "analyze"
