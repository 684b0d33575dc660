"""Pitchfork — the SCT violation detector of Section 4.

The tool generates worst-case attacker schedules (Definition B.18,
proved sound by Theorem B.20) and executes the program under each,
flagging secret-labelled observations.
"""

from .detector import AnalysisReport, analyze
from .explorer import (ExplorationOptions, ExplorationResult, Explorer,
                       PathResult, Violation)
from .reports import (format_report, format_violation, observation_set,
                      violation_key, violation_set)
from .schedules import ScheduleStats, enumerate_schedules, schedule_stats

__all__ = [
    "AnalysisReport", "analyze", "ExplorationOptions", "ExplorationResult",
    "Explorer", "PathResult", "Violation",
    "format_report", "format_violation", "ScheduleStats",
    "enumerate_schedules", "schedule_stats",
    "observation_set", "violation_key", "violation_set",
]
