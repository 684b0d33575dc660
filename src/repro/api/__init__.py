"""The high-level front end (angr-style): Project + analyses + batch
execution.

    from repro.api import AnalysisManager, AnalysisOptions, Project

    project = Project.from_litmus("kocher_01")
    report = project.analyses.pitchfork()          # one target
    manager = AnalysisManager("two-phase", workers=4)
    reports = manager.run(projects)                # many targets

* :class:`Project` — one object that owns a target under analysis,
  constructible from ``Program``+``Config``, asm source, a litmus-case
  name, or a Table 2 case variant;
* :class:`AnalysisOptions` — every knob, validated, with ``paper()`` and
  ``table2()`` presets;
* :mod:`~repro.api.analyses` — the pluggable analysis registry
  (pitchfork, two-phase, sps, sct, cache-attack, metatheory, repair);
* :class:`~repro.api.report.Report` — the unified, serialisable result;
* :class:`AnalysisManager` — worker-pool batch execution with a result
  cache;
* :mod:`~repro.api.cli` — the ``python -m repro`` command.
"""

from .analyses import (Analysis, AnalysisHub, CacheAttackAnalysis,
                       MetatheoryAnalysis, PitchforkAnalysis, RepairAnalysis,
                       SCTAnalysis, TwoPhaseAnalysis, available_analyses,
                       get_analysis, register)
from .cli import main
from .manager import AnalysisManager, CacheInfo
from .project import (AnalysisOptions, PAPER_BOUND_FWD, PAPER_BOUND_NO_FWD,
                      Project, TABLE2_BOUND_FWD, TABLE2_BOUND_NO_FWD)
from .report import (PhaseReport, Report, SCHEMA_VERSION,
                     from_analysis_report)

__all__ = [
    "Analysis", "AnalysisHub", "AnalysisManager", "AnalysisOptions",
    "CacheAttackAnalysis", "CacheInfo", "MetatheoryAnalysis",
    "PAPER_BOUND_FWD", "PAPER_BOUND_NO_FWD", "PhaseReport",
    "PitchforkAnalysis", "Project", "RepairAnalysis", "Report",
    "SCHEMA_VERSION",
    "SCTAnalysis", "TABLE2_BOUND_FWD", "TABLE2_BOUND_NO_FWD",
    "TwoPhaseAnalysis", "available_analyses", "from_analysis_report",
    "get_analysis", "main", "register",
]
