"""``repro.obs`` — unified tracing, metrics and search telemetry.

The observability substrate under the whole exploration stack, zero
external dependencies:

* :class:`Tracer` / :data:`NULL_TRACER` — cheap counter-annotated
  spans on a monotonic clock, off by default at the cost of one
  attribute check per instrumented seam; scoped over a call tree as a
  thread-local ambient via :func:`tracing_context`;
* :class:`MetricsRegistry` — aggregated counters / gauges /
  fixed-bucket histograms, rendered as JSON or flat text (the daemon's
  ``metrics`` RPC);
* :class:`SearchTelemetry` — the deterministic per-fetch-PC heatmap
  and per-fork-level schedule histogram reports carry in their
  schema-v7 ``telemetry`` section;
* :mod:`repro.obs.export` — capture files (JSONL), Chrome
  ``trace_event`` JSON for Perfetto, deterministic ``seq`` ordering,
  and the ``repro trace summary`` aggregation.

See DESIGN.md, "Observability".
"""

from .export import (CAPTURE_VERSION, chrome_trace, read_capture,
                     sort_spans, summarize_spans, write_capture)
from .metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry)
from .telemetry import SearchTelemetry, validate_telemetry
from .tracer import (NULL_TRACER, NullTracer, Span, Tracer,
                     ambient_tracer, tracing_context)

__all__ = [
    "CAPTURE_VERSION", "Counter", "DEFAULT_BUCKETS", "Gauge", "Histogram",
    "MetricsRegistry", "NULL_TRACER", "NullTracer", "SearchTelemetry",
    "Span", "Tracer", "ambient_tracer", "chrome_trace", "read_capture",
    "sort_spans", "summarize_spans", "tracing_context",
    "validate_telemetry", "write_capture",
]
