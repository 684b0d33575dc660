"""Job payloads: how a submitted target travels to a warm worker.

A job is described by plain JSON data — a **target spec**, an analysis
name, and an options-override mapping — so the same payload can cross
the RPC socket *and* the process-pool boundary unchanged:

``{"kind": "name", "name": "kocher_01"}``
    a registered litmus case or Table 2 case-study variant, resolved
    exactly as the ``repro analyze`` CLI resolves positional targets
    (variants first, then litmus cases);

``{"kind": "asm", "source": "...", "regs": {"ra": 9}, "pc": 0}``
    raw assembly shipped by value — the client reads the file, the
    daemon never touches the client's filesystem.

Both kinds accept ``"preset": "paper" | "table2"`` for the named
options presets.  :func:`resolve_project` is the single resolution
path shared by the daemon, its pool workers and the CLI;
:func:`run_job` is the module-level job-pool entry point (picklable
under every multiprocessing start method, like the manager's entry
point it mirrors).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from ..api.analyses import get_analysis
from ..api.project import PRESETS, AnalysisOptions, Project
from ..api.report import Report

__all__ = ["resolve_project", "run_job", "effective_options",
           "spec_for_name", "spec_for_asm"]


def spec_for_name(name: str, preset: Optional[str] = None) -> Dict[str, Any]:
    spec: Dict[str, Any] = {"kind": "name", "name": name}
    if preset:
        spec["preset"] = preset
    return spec


def spec_for_asm(source: str, *, regs: Optional[Mapping[str, int]] = None,
                 pc: Optional[int] = None, name: str = "<asm>",
                 preset: Optional[str] = None) -> Dict[str, Any]:
    spec: Dict[str, Any] = {"kind": "asm", "source": source, "name": name}
    if regs:
        spec["regs"] = dict(regs)
    if pc is not None:
        spec["pc"] = pc
    if preset:
        spec["preset"] = preset
    return spec


def resolve_project(spec: Mapping[str, Any]) -> Project:
    """Build the :class:`Project` a spec describes.

    The one target resolution: ``repro analyze`` and ``repro repair``
    resolve their targets through it too, so a daemon-run analysis
    starts from exactly the state a local run would.  Raises
    ``KeyError`` for unknown names and ``ValueError`` for malformed
    specs.
    """
    kind = spec.get("kind", "name")
    preset = spec.get("preset")
    if preset is not None and preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r} "
                         f"(expected one of {sorted(PRESETS)})")
    options = PRESETS[preset]() if preset is not None else None
    if kind == "asm":
        source = spec.get("source")
        if not isinstance(source, str) or not source.strip():
            raise ValueError("asm spec needs non-empty 'source'")
        return Project.from_asm(
            source,
            regs={str(k): int(v) for k, v in (spec.get("regs") or {}).items()},
            pc=spec.get("pc"), name=spec.get("name", "<asm>"),
            options=options)
    if kind != "name":
        raise ValueError(f"unknown target kind {kind!r} "
                         f"(expected 'name' or 'asm')")
    name = spec.get("name")
    if not isinstance(name, str) or not name:
        raise ValueError("name spec needs a non-empty 'name'")
    from ..casestudies import find_variant
    variant = find_variant(name)
    if variant is not None:
        return Project.from_variant(variant, options=options)
    try:
        return Project.from_litmus(name, options=options)
    except KeyError:
        raise KeyError(f"unknown target {name!r}: not a case-study "
                       f"variant or litmus case "
                       f"(try `repro list`)") from None


def effective_options(project: Project,
                      overrides: Mapping[str, Any]) -> AnalysisOptions:
    """The options the analysis will actually run under — the project's
    defaults with the submitted overrides applied.  This is what cache
    keys are computed from.

    Every :class:`AnalysisOptions` field is overridable, including the
    anytime ``budget_seconds`` — a budgeted job caches under a distinct
    store key (budget is part of the canonical options), so a truncated
    anytime result never shadows a complete run of the same target."""
    return project.options.with_(**dict(overrides))


def run_job(spec: Mapping[str, Any], analysis: str,
            overrides: Mapping[str, Any]) -> Report:
    """Job-pool entry point: resolve the target, run the analysis.

    Every job runs whole and serially inside one warm worker.
    """
    project = resolve_project(spec)
    return get_analysis(analysis).run(project, **dict(overrides))
