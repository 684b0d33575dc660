"""The unified analysis result model.

Every :class:`repro.api.analyses.Analysis` returns a :class:`Report`,
whatever engine it wraps — the Pitchfork explorer's
:class:`~repro.pitchfork.detector.AnalysisReport`, the SCT checker's
:class:`~repro.core.sct.SCTResult`, the metatheory sweep's
:class:`~repro.verify.theorems.MetatheoryStats`, or the Table 2
classification strings.  A report carries:

* a ``status`` (``"secure"``/``"insecure"`` for single detectors,
  ``"clean"``/``"v1"``/``"f"`` for the two-phase procedure,
  ``"ok"``/``"fail"`` for metatheory);
* serialisable violation/counterexample summaries;
* path/step counters and a per-phase breakdown;
* wall time and the options that produced it.

``to_dict()``/``to_json()`` feed the CLI's ``--json`` mode and the
result cache; ``from_dict()``/``from_json()`` invert them exactly
(``Report.from_json(r.to_json()) == r``); ``render()`` is the
human-readable view.  Serialised reports carry a ``schema_version`` so
downstream consumers can detect shape changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

#: Statuses that count as "no violation found".
CLEAN_STATUSES = frozenset({"secure", "clean", "ok", "already-secure",
                            "repaired"})

#: Version of the serialised report shape.  8 added the ``cross_check``
#: section (backend agreement from ``repro analyze --cross-check``:
#: ``backends``, per-backend sorted flagged-observation lists and
#: completeness flags, the ``agree`` verdict and its ``classification``
#: — ``agree`` / ``unconfirmed`` / ``explained-budget`` / ``disagree``
#: — plus per-backend wall times, the only volatile fields, zeroed by
#: the store's ``strip_volatile``);
#: 7 added the ``telemetry``
#: section (search telemetry from :mod:`repro.obs.telemetry`: the
#: per-fetch-PC exploration ``heatmap``, the per-fork-level completed
#: schedule histogram ``fork_levels``, ``pops``, and ``wall_time`` —
#: the only volatile field, zeroed by the store's ``strip_volatile``);
#: 6 added the ``anytime``
#: section (honest coverage stats for wall-clock-budgeted runs:
#: budget_seconds, budget_consumed, deadline_hit, paths_explored,
#: frontier_remaining, first_violation_time) and ``first_violation``
#: (deterministic time-to-first-violation: pops, steps, wall_time);
#: 5 added the ``subsumption``
#: section (redundant-state-subsumption stats from
#: :mod:`repro.engine.subsume`: enabled, states_seen, states_subsumed);
#: 4 added the ``pruning`` section (partial-order-reduction stats from
#: :mod:`repro.engine.por`: level, classes_explored, schedules_skipped);
#: 3 added the ``mitigation`` section (the repair certificate emitted by
#: :mod:`repro.mitigate`); 2 added ``schema_version`` itself, the
#: search-strategy fields and per-shard stats; 1 (implicit, no marker)
#: is the pre-sharding shape.  All older versions are still accepted by
#: :meth:`Report.from_dict`.
SCHEMA_VERSION = 8


@dataclass(frozen=True)
class PhaseReport:
    """One engine run inside an analysis (e.g. one §4.2.1 phase)."""

    name: str                  #: "v1/v1.1", "v4", "sct", …
    bound: int
    secure: bool
    paths_explored: int = 0
    states_stepped: int = 0
    truncated: bool = False
    wall_time: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        # Floats are serialised exactly (json round-trips them), so
        # from_dict(to_dict(p)) == p.
        return {
            "name": self.name,
            "bound": self.bound,
            "secure": self.secure,
            "paths_explored": self.paths_explored,
            "states_stepped": self.states_stepped,
            "truncated": self.truncated,
            "wall_time": self.wall_time,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PhaseReport":
        return cls(**{f: data[f] for f in
                      ("name", "bound", "secure", "paths_explored",
                       "states_stepped", "truncated", "wall_time")
                      if f in data})


@dataclass(frozen=True)
class ShardReport:
    """One shard of a sharded exploration (job = schedule prefix +
    initial config; see :mod:`repro.pitchfork.sharding`)."""

    index: int                 #: position in the deterministic merge order
    prefix_len: int            #: schedule-prefix actions replayed
    paths_explored: int = 0
    violations: int = 0
    states_stepped: int = 0
    truncated: bool = False
    wall_time: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "prefix_len": self.prefix_len,
            "paths_explored": self.paths_explored,
            "violations": self.violations,
            "states_stepped": self.states_stepped,
            "truncated": self.truncated,
            "wall_time": self.wall_time,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardReport":
        return cls(**{f: data[f] for f in
                      ("index", "prefix_len", "paths_explored", "violations",
                       "states_stepped", "truncated", "wall_time")
                      if f in data})


def summarize_violation(violation) -> Dict[str, Any]:
    """A JSON-able digest of a :class:`repro.pitchfork.Violation`."""
    return {
        "observation": repr(violation.observation),
        "step_index": violation.step_index,
        "directive": repr(violation.directive),
        "schedule_tail": [repr(d) for d in violation.schedule[-8:]],
        "trace_tail": [repr(o) for o in violation.trace[-6:]],
    }


def summarize_finding(finding) -> Dict[str, Any]:
    """A JSON-able digest of a
    :class:`repro.pitchfork.SymbolicFinding`.

    A finding records the witnessing schedule and a solved input model
    but not the position of the observation within the schedule, so —
    unlike :func:`summarize_violation` — no ``step_index``/``directive``
    is reported rather than a misleading one.
    """
    return {
        "observation": repr(finding.observation),
        "schedule_tail": [repr(d) for d in finding.schedule[-8:]],
        "model": {k: v for k, v in sorted(finding.model.items())},
        "constraints": [repr(c) for c in finding.constraints],
    }


def summarize_counterexample(cex) -> Dict[str, Any]:
    """A JSON-able digest of an :class:`repro.core.SCTCounterExample`."""
    return {
        "reason": cex.reason,
        "first_divergence": cex.first_divergence(),
        "schedule_tail": [repr(d) for d in cex.schedule[-8:]],
        "trace_a_tail": [repr(o) for o in cex.trace_a[-6:]],
        "trace_b_tail": [repr(o) for o in cex.trace_b[-6:]],
    }


@dataclass(frozen=True)
class Report:
    """Outcome of one analysis of one target."""

    target: str                #: project name
    analysis: str              #: registered analysis name
    status: str
    secure: Optional[bool] = None
    violations: Tuple[Dict[str, Any], ...] = ()
    counterexamples: Tuple[Dict[str, Any], ...] = ()
    paths_explored: int = 0
    #: Machine steps actually executed.  Disjoint from
    #: ``states_reused`` for every analysis: stepped + reused is what
    #: the same work would cost without sharing.
    states_stepped: int = 0
    #: Machine steps the execution engine served from shared prefixes,
    #: recorded snapshots, or its trial-step cache instead of
    #: re-executing — the observable half of the engine's speedup.
    states_reused: int = 0
    truncated: bool = False
    #: The SCT quantifier found no real pair to check (see
    #: ``SCTResult.vacuous``): "secure" by emptiness, not by evidence.
    vacuous: bool = False
    wall_time: float = 0.0
    phases: Tuple[PhaseReport, ...] = ()
    #: Per-shard accounting when the exploration ran sharded (empty for
    #: single-process runs).
    shard_stats: Tuple[ShardReport, ...] = ()
    #: The machine-checkable repair certificate when the analysis was a
    #: mitigation synthesis (see
    #: :attr:`repro.mitigate.RepairResult.certificate`): the repaired
    #: program as re-assembleable source, the per-site steps, fence/SLH
    #: counts against the blanket baseline, and the overhead numbers.
    mitigation: Optional[Mapping[str, Any]] = None
    #: Partial-order-reduction stats when the exploration ran with a
    #: pruning level (see :mod:`repro.engine.por`): ``level``,
    #: ``classes_explored`` (completed Mazurkiewicz-class
    #: representatives) and ``schedules_skipped`` (pruned subtree
    #: roots).  None for analyses without a schedule exploration.
    pruning: Optional[Mapping[str, Any]] = None
    #: Redundant-state-subsumption stats when the exploration ran with
    #: the SeenStates table (see :mod:`repro.engine.subsume`):
    #: ``enabled``, ``states_seen`` (canonical states recorded) and
    #: ``states_subsumed`` (fork arms pruned as already covered).  None
    #: for analyses without a schedule exploration.
    subsumption: Optional[Mapping[str, Any]] = None
    #: Honest anytime coverage when the run had a wall-clock budget
    #: (see :class:`repro.pitchfork.explorer.AnytimeStats`):
    #: ``budget_seconds``, ``budget_consumed``, ``deadline_hit``,
    #: ``paths_explored``, ``frontier_remaining``,
    #: ``first_violation_time``.  None for unbudgeted runs.  A
    #: deadline-truncated run always also reports ``truncated`` — the
    #: anytime contract forbids reporting clean coverage it didn't buy.
    anytime: Optional[Mapping[str, Any]] = None
    #: Deterministic time-to-first-violation (``pops``, ``steps``,
    #: ``wall_time``) when the exploration found one; lets strategies
    #: be compared on the bug-hunting objective without external
    #: timing.  None on clean runs and non-exploration analyses.
    first_violation: Optional[Mapping[str, Any]] = None
    #: Search telemetry when the run was asked for it
    #: (``telemetry=True``; see :mod:`repro.obs.telemetry`):
    #: ``heatmap`` (pops per fetch PC, stringified-int keys),
    #: ``fork_levels`` (completed schedules per fork depth, same key
    #: convention), ``pops``, ``wall_time``.  Everything except
    #: ``wall_time`` is deterministic for a fixed configuration
    #: (including the shard count).  None when telemetry was off.
    telemetry: Optional[Mapping[str, Any]] = None
    #: Backend agreement when the run was cross-checked
    #: (``repro analyze --cross-check``; see :mod:`repro.sps.diff`):
    #: ``backends`` (the pair compared), per-backend
    #: ``<name>_observations`` (sorted flagged-observation reprs) and
    #: ``<name>_complete`` (no budget interfered), the ``agree``
    #: verdict (equal sets from two complete runs), and its
    #: ``classification`` — ``"agree"``, ``"unconfirmed"`` (equal sets,
    #: but a budget truncated at least one side, so the equality is not
    #: evidence), ``"explained-budget"`` (sets differ but a budget
    #: truncated at least one side) or ``"disagree"`` (both complete yet
    #: different: a real bug in one backend).  Per-backend wall times
    #: are the only volatile fields.  None when no cross-check ran.
    cross_check: Optional[Mapping[str, Any]] = None
    details: Mapping[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok

    @property
    def ok(self) -> bool:
        """True when the analysis found nothing wrong."""
        if self.secure is not None:
            return self.secure
        return self.status in CLEAN_STATUSES

    def with_(self, **kw) -> "Report":
        """Functional record update."""
        return replace(self, **kw)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "target": self.target,
            "analysis": self.analysis,
            "status": self.status,
            "secure": self.secure,
            "violations": list(self.violations),
            "counterexamples": list(self.counterexamples),
            "paths_explored": self.paths_explored,
            "states_stepped": self.states_stepped,
            "states_reused": self.states_reused,
            "truncated": self.truncated,
            "vacuous": self.vacuous,
            "wall_time": self.wall_time,
            "phases": [p.to_dict() for p in self.phases],
            "shard_stats": [s.to_dict() for s in self.shard_stats],
            "mitigation": (dict(self.mitigation)
                           if self.mitigation is not None else None),
            "pruning": (dict(self.pruning)
                        if self.pruning is not None else None),
            "subsumption": (dict(self.subsumption)
                            if self.subsumption is not None else None),
            "anytime": (dict(self.anytime)
                        if self.anytime is not None else None),
            "first_violation": (dict(self.first_violation)
                                if self.first_violation is not None
                                else None),
            "telemetry": (dict(self.telemetry)
                          if self.telemetry is not None else None),
            "cross_check": (dict(self.cross_check)
                            if self.cross_check is not None else None),
            "details": dict(self.details),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Report":
        """Invert :meth:`to_dict` (accepts all older schema versions)."""
        version = data.get("schema_version", 1)
        if version > SCHEMA_VERSION:
            raise ValueError(f"report schema_version {version} is newer "
                             f"than supported ({SCHEMA_VERSION})")
        return cls(
            target=data["target"],
            analysis=data["analysis"],
            status=data["status"],
            secure=data.get("secure"),
            violations=tuple(dict(v) for v in data.get("violations", ())),
            counterexamples=tuple(dict(c) for c
                                  in data.get("counterexamples", ())),
            paths_explored=data.get("paths_explored", 0),
            states_stepped=data.get("states_stepped", 0),
            states_reused=data.get("states_reused", 0),
            truncated=data.get("truncated", False),
            vacuous=data.get("vacuous", False),
            wall_time=data.get("wall_time", 0.0),
            phases=tuple(PhaseReport.from_dict(p)
                         for p in data.get("phases", ())),
            shard_stats=tuple(ShardReport.from_dict(s)
                              for s in data.get("shard_stats", ())),
            mitigation=(dict(data["mitigation"])
                        if data.get("mitigation") is not None else None),
            pruning=(dict(data["pruning"])
                     if data.get("pruning") is not None else None),
            subsumption=(dict(data["subsumption"])
                         if data.get("subsumption") is not None else None),
            anytime=(dict(data["anytime"])
                     if data.get("anytime") is not None else None),
            first_violation=(dict(data["first_violation"])
                             if data.get("first_violation") is not None
                             else None),
            telemetry=(dict(data["telemetry"])
                       if data.get("telemetry") is not None else None),
            cross_check=(dict(data["cross_check"])
                         if data.get("cross_check") is not None else None),
            details=dict(data.get("details", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls.from_dict(json.loads(text))

    # -- rendering -----------------------------------------------------------

    def render(self, max_violations: int = 5) -> str:
        """Human-readable multi-line summary."""
        reused = (f", {self.states_reused} reused"
                  if self.states_reused else "")
        sharded = (f", {len(self.shard_stats)} shards"
                   if self.shard_stats else "")
        pruned = ""
        if self.pruning is not None and \
                self.pruning.get("schedules_skipped"):
            pruned = (f", {self.pruning['schedules_skipped']} pruned "
                      f"[{self.pruning.get('level', '?')}]")
        subsumed = ""
        if self.subsumption is not None and \
                self.subsumption.get("states_subsumed"):
            subsumed = f", {self.subsumption['states_subsumed']} subsumed"
        head = (f"[{self.analysis}] {self.target}: {self.status.upper()} "
                f"({self.paths_explored} paths, {self.states_stepped} steps"
                f"{reused}{sharded}{pruned}{subsumed}, {self.wall_time:.2f}s"
                f"{', truncated' if self.truncated else ''}"
                f"{', VACUOUS' if self.vacuous else ''})")
        lines = [head]
        if self.anytime is not None:
            a = self.anytime
            hit = "deadline hit" if a.get("deadline_hit") else "under budget"
            first = (f", first violation at "
                     f"{a['first_violation_time']:.3f}s"
                     if a.get("first_violation_time") is not None else "")
            lines.append(
                f"  anytime: {a.get('budget_consumed', 0.0):.2f}s of "
                f"{a.get('budget_seconds', 0.0):.2f}s budget ({hit}); "
                f"{a.get('paths_explored', 0)} paths explored, "
                f"{a.get('frontier_remaining', 0)} frontier items "
                f"remaining{first}")
        if self.first_violation is not None:
            fv = self.first_violation
            lines.append(
                f"  first violation: {fv.get('pops', '?')} pops, "
                f"{fv.get('steps', '?')} machine steps"
                + (f", {fv['wall_time']:.3f}s"
                   if fv.get("wall_time") is not None else ""))
        if self.telemetry is not None:
            t = self.telemetry
            heatmap = t.get("heatmap", {})
            hottest = max(heatmap.items(), key=lambda kv: kv[1],
                          default=None)
            hot = (f", hottest pc {hottest[0]} ×{hottest[1]}"
                   if hottest is not None else "")
            lines.append(
                f"  telemetry: {t.get('pops', 0)} pops over "
                f"{len(heatmap)} fetch PCs, "
                f"{len(t.get('fork_levels', {}))} fork levels{hot}")
        if self.cross_check is not None:
            cc = self.cross_check
            backends = cc.get("backends", ())
            verdict = cc.get("classification", "?")
            counts = ", ".join(
                f"{b}: {len(cc.get(f'{b}_observations', ()))} obs"
                f"{'' if cc.get(f'{b}_complete', True) else ' (truncated)'}"
                for b in backends)
            lines.append(f"  cross-check [{' vs '.join(backends)}]: "
                         f"{verdict.upper()} ({counts})")
        for phase in self.phases:
            lines.append(f"  phase {phase.name} [bound={phase.bound}]: "
                         f"{'secure' if phase.secure else 'VIOLATIONS'} "
                         f"({phase.paths_explored} paths, "
                         f"{phase.wall_time:.2f}s)")
        for v in self.violations[:max_violations]:
            line = f"  violation: {v['observation']}"
            if "step_index" in v:
                line += f" at step {v['step_index']} via {v['directive']}"
            if v.get("model"):
                line += f" with {v['model']}"
            lines.append(line)
        extra = len(self.violations) - max_violations
        if extra > 0:
            lines.append(f"  … and {extra} more")
        for cex in self.counterexamples[:max_violations]:
            lines.append(f"  counterexample: {cex['reason']} "
                         f"(diverges at {cex['first_divergence']})")
        if self.mitigation is not None:
            m = self.mitigation
            lines.append(
                f"  mitigation: {len(m.get('steps', ()))} site(s) — "
                f"{m.get('fences_added', 0)} fence(s) + "
                f"{m.get('slh_sites', 0)} SLH mask(s) "
                f"(blanket baseline: {m.get('blanket_fences', 0)} fences; "
                f"shrink removed {m.get('shrink_removed', 0)}; "
                f"+{m.get('overhead_steps', 0)} sequential steps)")
            for step in m.get("steps", ()):
                lines.append(f"    [{step.get('policy')}] point "
                             f"{step.get('site_pp')} ({step.get('cause')})")
            if m.get("sequential_leaks"):
                lines.append(f"    sequential residue (not repairable by "
                             f"fencing): {m['sequential_leaks']}")
        for key, value in self.details.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Report({self.analysis} on {self.target!r}: {self.status}, "
                f"{len(self.violations)} violations)")


def from_analysis_report(report, target: str, analysis: str,
                         wall_time: float = 0.0,
                         details: Optional[Mapping[str, Any]] = None,
                         phases: Tuple[PhaseReport, ...] = ()) -> Report:
    """Lift a legacy :class:`~repro.pitchfork.AnalysisReport`."""
    phases = phases or (PhaseReport(report.phase, report.bound,
                                    report.secure, report.paths_explored,
                                    report.states_stepped, report.truncated,
                                    wall_time),)
    return Report(
        target=target,
        analysis=analysis,
        status="secure" if report.secure else "insecure",
        secure=report.secure,
        violations=tuple(summarize_violation(v) for v in report.violations),
        paths_explored=report.paths_explored,
        states_stepped=report.states_stepped,
        states_reused=getattr(report, "states_reused", 0),
        truncated=report.truncated,
        wall_time=wall_time,
        phases=phases,
        shard_stats=tuple(
            ShardReport(s.index, s.prefix_len, s.paths_explored,
                        s.violations, s.states_stepped, s.truncated,
                        s.wall_time)
            for s in getattr(report, "shards", ())),
        pruning=(getattr(report, "pruning", None).to_dict()
                 if getattr(report, "pruning", None) is not None else None),
        subsumption=(getattr(report, "subsumption", None).to_dict()
                     if getattr(report, "subsumption", None) is not None
                     else None),
        anytime=(getattr(report, "anytime", None).to_dict()
                 if getattr(report, "anytime", None) is not None else None),
        first_violation=(dict(report.first_violation)
                         if getattr(report, "first_violation", None)
                         is not None else None),
        telemetry=(dict(report.telemetry)
                   if getattr(report, "telemetry", None) is not None
                   else None),
        details=dict(details or {}),
    )
