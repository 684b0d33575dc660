"""Span exporters: capture files, Chrome ``trace_event`` JSON, summaries.

A traced run persists as a **capture file** — newline-delimited JSON
with one header line (target, analysis, the report's ``telemetry``
section when present) followed by one line per span.  JSONL because it
streams: the writer never holds more than one span's JSON, a reader
can ``grep`` it, and a truncated file is still a valid prefix.

``repro trace export --format chrome`` turns a capture into Chrome's
``trace_event`` format (the ``{"traceEvents": [...]}`` object form),
loadable in Perfetto or ``chrome://tracing``.  Each span becomes one
complete ("ph": "X") event; the (pid, tid) tags place each thread's
spans on its own track, and nesting re-emerges from interval
containment.  Two wrinkles the exporter owns:

* **ordering** — events are sorted by the recorder's dense ``seq``,
  never by timestamp, so the exported byte stream is a pure function
  of the recorded work;
* **clock bases** — each recording process stamps spans on its *own*
  monotonic clock.  The exporter rebases every process's stream to its
  earliest timestamp, so all tracks start at 0 and durations (the
  honest quantity) are preserved; cross-track offsets are
  presentation, not measurement.

Spans in captures written by older versions may carry a ``shard`` key;
it is ignored.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["sort_spans", "chrome_trace", "write_capture", "read_capture",
           "summarize_spans", "CAPTURE_VERSION"]

#: Capture-file format version (the header's ``version`` field).
CAPTURE_VERSION = 1


def sort_spans(spans: Iterable[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    """Deterministic order: by ``seq``, independent of how wall-clock
    time interleaved the recording threads."""
    return [dict(span) for span in sorted(spans, key=lambda s: s["seq"])]


def chrome_trace(spans: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Spans as a Chrome ``trace_event`` object (Perfetto-loadable)."""
    ordered = sort_spans(spans)
    bases: Dict[Any, float] = {}
    for span in ordered:
        pid, ts = span["pid"], span["ts"]
        if ts < bases.get(pid, float("inf")):
            bases[pid] = ts
    events = []
    for span in ordered:
        events.append({
            "name": span["name"],
            "cat": span["cat"],
            "ph": "X",
            "ts": round((span["ts"] - bases[span["pid"]]) * 1e6, 3),
            "dur": round(span["dur"] * 1e6, 3),
            "pid": span["pid"],
            "tid": span["tid"],
            "args": dict(span.get("args") or {}),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_capture(path, spans: Iterable[Mapping[str, Any]],
                  header: Optional[Mapping[str, Any]] = None) -> Path:
    """Write a capture file: one header line, then one line per span
    in deterministic order."""
    path = Path(path)
    head = {"kind": "header", "version": CAPTURE_VERSION}
    if header:
        head.update(header)
    lines = [json.dumps(head, sort_keys=True)]
    lines.extend(json.dumps({"kind": "span", **span}, sort_keys=True)
                 for span in sort_spans(spans))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_capture(path) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Parse a capture file into (header, spans).

    Tolerates a missing header (a bare span log still summarises) but
    rejects files that are not span JSONL at all.
    """
    header: Dict[str, Any] = {}
    spans: List[Dict[str, Any]] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            raise ValueError(f"{path}:{lineno}: not JSONL") from None
        kind = record.get("kind") if isinstance(record, dict) else None
        if kind == "header":
            header = record
        elif kind == "span":
            record.pop("kind")
            spans.append(record)
        else:
            raise ValueError(f"{path}:{lineno}: unknown record "
                             f"{record!r}")
    return header, spans


def summarize_spans(spans: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Aggregate a span stream for ``repro trace summary``.

    Per (category, name): count and total self-reported duration —
    note spans nest, so durations overlap and do not sum to wall time.
    """
    by_series: Dict[Tuple[str, str], Dict[str, Any]] = {}
    processes = set()
    total = 0
    for span in spans:
        total += 1
        processes.add(span["pid"])
        key = (span["cat"], span["name"])
        row = by_series.get(key)
        if row is None:
            row = by_series[key] = {"cat": key[0], "name": key[1],
                                    "count": 0, "wall": 0.0}
        row["count"] += 1
        row["wall"] += span["dur"]
    series = [by_series[key] for key in sorted(by_series)]
    for row in series:
        row["wall"] = round(row["wall"], 6)
    return {"spans": total, "processes": len(processes), "series": series}
