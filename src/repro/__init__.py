"""repro — a reproduction of *Constant-Time Foundations for the New
Spectre Era* (Cauligi et al., PLDI 2020).

The front door is :mod:`repro.api` (angr-style)::

    from repro.api import Project, AnalysisManager

    report = Project.from_litmus("kocher_01").analyses.pitchfork()
    reports = AnalysisManager("two-phase", workers=4).run(projects)

or, from a shell, ``python -m repro {list,analyze,repair,litmus,table2}``.

Subpackages
-----------

``repro.api``
    The high-level front end: the :class:`~repro.api.Project` facade,
    the pluggable analysis registry, the unified
    :class:`~repro.api.Report`, batch execution via
    :class:`~repro.api.AnalysisManager`, and the CLI.
``repro.engine``
    The structural-sharing execution core every driver steps through:
    :class:`~repro.engine.ExecutionEngine` (step/fork/reuse counters,
    trial-step cache), O(1)-fork :class:`~repro.engine.MachineState`,
    persistent :class:`~repro.engine.Log` journals, and the pluggable
    search frontiers (see DESIGN.md).
``repro.core``
    The speculative out-of-order machine semantics, attacker directives,
    leakage observations, and the speculative constant-time (SCT)
    property (Sections 3 and Appendices A/B).
``repro.asm``
    An assembly front end for the paper's instruction language.
``repro.pitchfork``
    The Pitchfork detector: worst-case schedule generation and
    taint-tracking exploration (Section 4).
``repro.ctcomp``
    A mini constant-time language and compiler standing in for the
    FaCT-vs-C comparison of the evaluation, plus the blanket mitigation
    passes (Fig 8 fences, Fig 13 retpolines, fence-before-load).
``repro.mitigate``
    Counterexample-guided mitigation synthesis: localize Pitchfork's
    violations to program points, place minimal per-site fences / SLH
    masks, re-verify, shrink, and emit a repair certificate.
``repro.litmus``
    Spectre litmus suites: Kocher v1 cases, the paper's speculative-only
    v1/v1.1 suites, v4, v2/ret2spec/retpoline and the aliasing attack.
``repro.casestudies``
    Ports of the audited crypto routines (Table 2).
``repro.cache``
    A cache model and cache-timing attackers driven by observation
    traces.
``repro.verify``
    Executable metatheory: empirical checks of the paper's theorems.
"""

__version__ = "1.1.0"

from .api import (AnalysisManager, AnalysisOptions,  # noqa: E402
                  Project, Report)

__all__ = ["AnalysisManager", "AnalysisOptions", "Project", "Report",
           "__version__"]
