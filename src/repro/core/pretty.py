"""Figure-style rendering of executions.

The paper presents attacks as three-column tables — *Directive*,
*Effect on buf*, *Leakage* (Figs 1, 2, 5-7, 11-13).  ``render_execution``
produces the same table from a :class:`repro.core.executor.RunResult`,
which makes machine traces directly comparable against the paper and is
what ``examples/spectre_zoo.py`` prints.
"""

from __future__ import annotations

from typing import List, Tuple

from .config import Config
from .executor import RunResult
from .observations import Observation


def _buffer_delta(before: Config, after: Config) -> str:
    """A compact description of what a step did to the reorder buffer."""
    b, a = before.buf, after.buf
    gone = [i for i in b.indices() if i not in a]
    added = [i for i in a.indices() if i not in b or a[i] != b.get(i)]
    parts: List[str] = []
    if gone:
        if len(gone) == 1:
            parts.append(f"{gone[0]} ∉ buf")
        else:
            parts.append(f"{{{', '.join(map(str, gone))}}} ∉ buf")
    for i in added:
        parts.append(f"{i} ↦ {a[i]!r}")
    if before.pc != after.pc:
        parts.append(f"pc := {after.pc}")
    return "; ".join(parts) if parts else "—"


def render_execution(result: RunResult,
                     show_quiet_steps: bool = True) -> str:
    """The paper's Directive / Effect-on-buf / Leakage table."""
    rows: List[Tuple[str, str, str]] = []
    before = result.initial
    for step in result.steps:
        leakage = ", ".join(repr(o) for o in step.leakage) or ""
        effect = _buffer_delta(before, step.after)
        if show_quiet_steps or step.leakage:
            rows.append((repr(step.directive), effect, leakage))
        before = step.after
    if not rows:
        return "(no steps)"
    w_dir = max(len(r[0]) for r in rows + [("Directive", "", "")])
    w_eff = max(len(r[1]) for r in rows + [("", "Effect on buf", "")])
    lines = [f"{'Directive':<{w_dir}}  {'Effect on buf':<{w_eff}}  Leakage",
             "-" * (w_dir + w_eff + 11)]
    for d, e, l in rows:
        lines.append(f"{d:<{w_dir}}  {e:<{w_eff}}  {l}")
    return "\n".join(lines)


def render_trace(trace: Tuple[Observation, ...]) -> str:
    """The observation trace as the paper writes it: ``o1; o2; …``."""
    return "; ".join(repr(o) for o in trace) if trace else "(empty)"
