"""Search telemetry: where the exploration actually went.

Two deterministic distributions, accumulated by the explorer when
``options.telemetry`` is on and attached to reports under the schema-v7
``telemetry`` section:

* **heatmap** — frontier pops per fetch PC: which program locations the
  search kept returning to.  This is the data behind "why is mcts
  faster here" (its novelty prior is literally an online estimate of
  this map) and "which region is the path explosion";
* **fork_levels** — completed schedules per fork depth: how deep the
  fork tree's mass sits, i.e. which choice-point levels dominate the
  enumeration (the shape ``--prune`` and ``--subsume`` exist to
  flatten).

Both are plain counters over deterministic quantities, so for a fixed
configuration (strategy, seed) the section is bit-stable —
only its ``wall_time`` field is volatile, and
:func:`repro.serve.keys.strip_volatile` zeroes it so the daemon's
byte-identity differential gates are unaffected.  JSON object keys
must be strings, so :meth:`SearchTelemetry.to_section` stringifies the
integer PC / depth keys once, at the serialisation boundary; the
section then round-trips ``Report.to_json``/``from_json`` exactly.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

__all__ = ["SearchTelemetry", "validate_telemetry"]


def validate_telemetry(telemetry: Any) -> None:
    """Validate the telemetry knob (shared by every options type)."""
    if not isinstance(telemetry, bool):
        raise ValueError(f"telemetry must be a bool, got {telemetry!r}")


class SearchTelemetry:
    """Accumulator for one exploration's search-shape counters."""

    __slots__ = ("heatmap", "fork_levels", "pops")

    def __init__(self):
        self.heatmap: Dict[int, int] = {}     #: fetch PC -> frontier pops
        self.fork_levels: Dict[int, int] = {} #: fork depth -> schedules
        self.pops = 0

    def record_pop(self, pc: Optional[int]) -> None:
        """One frontier pop at fetch PC ``pc`` (None: ran off program)."""
        self.pops += 1
        if pc is not None:
            self.heatmap[pc] = self.heatmap.get(pc, 0) + 1

    def record_schedule(self, depth: int) -> None:
        """One completed schedule whose path sat at fork depth ``depth``."""
        self.fork_levels[depth] = self.fork_levels.get(depth, 0) + 1

    def to_section(self, wall_time: float) -> Dict[str, Any]:
        """The JSON-ready ``telemetry`` report section.

        Keys are stringified (JSON objects) and sorted numerically so
        the section is deterministic for deterministic counters;
        ``wall_time`` is the only volatile field.
        """
        return {
            "heatmap": {str(pc): self.heatmap[pc]
                        for pc in sorted(self.heatmap)},
            "fork_levels": {str(depth): self.fork_levels[depth]
                            for depth in sorted(self.fork_levels)},
            "pops": self.pops,
            "wall_time": wall_time,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SearchTelemetry(pops={self.pops}, "
                f"|heatmap|={len(self.heatmap)}, "
                f"|fork_levels|={len(self.fork_levels)})")
