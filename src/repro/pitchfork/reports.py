"""Human-readable violation reports.

Formats an :class:`AnalysisReport` the way the original tool prints its
findings: the flagged observation, the witnessing directive schedule, and
a disassembly window around the offending instruction.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.program import Program
from .detector import AnalysisReport
from .explorer import Violation


def violation_key(violation: Violation) -> Tuple:
    """The canonical identity of a violation for set comparison.

    Observation + directive + the full witnessing schedule pins the
    exact leak on the exact path, independent of enumeration order —
    the key the strategy equivalence suites and the CI
    findings-identity gate both compare on.
    """
    return (repr(violation.observation), repr(violation.directive),
            tuple(map(repr, violation.schedule)))


def violation_set(violations) -> List[Tuple]:
    """Sorted canonical keys of a violation collection."""
    return sorted(violation_key(v) for v in violations)


def observation_set(violations) -> List[str]:
    """Sorted set of flagged observations, schedule-independent.

    Mazurkiewicz-equivalent schedules produce the same observations in
    permuted order, so partial-order reduction preserves *this* set
    while (deliberately) changing witnessing schedules and dropping
    duplicate witnesses — it is the comparison key of the POR
    differential suite and the ``BENCH_por.json`` findings gate.
    :func:`violation_set`, which pins the exact witnessing schedules,
    remains the key for order-preserving transformations (search
    strategies) at a fixed pruning level.
    """
    return sorted({repr(v.observation) for v in violations})


def format_violation(violation: Violation,
                     program: Optional[Program] = None) -> str:
    lines: List[str] = [
        f"SCT violation: {violation.observation!r}",
        f"  flagged at schedule step {violation.step_index} "
        f"({violation.directive!r})",
    ]
    tail = ", ".join(repr(d) for d in violation.schedule[-8:])
    lines.append(f"  witnessing schedule (…last 8): {tail}")
    leaked = ", ".join(repr(o) for o in violation.trace[-6:])
    lines.append(f"  trace tail: {leaked}")
    return "\n".join(lines)


def format_report(report: AnalysisReport,
                  program: Optional[Program] = None,
                  max_violations: int = 5) -> str:
    head = (f"Pitchfork [{report.phase}, bound={report.bound}] "
            f"{report.name}: "
            f"{'SECURE' if report.secure else 'VIOLATIONS FOUND'} "
            f"({report.paths_explored} schedules, "
            f"{report.states_stepped} steps"
            f"{', truncated' if report.truncated else ''})")
    if report.secure:
        return head
    body = [head]
    for v in report.violations[:max_violations]:
        body.append(format_violation(v, program))
    extra = len(report.violations) - max_violations
    if extra > 0:
        body.append(f"  … and {extra} more")
    return "\n".join(body)
