"""Pluggable analyses over a :class:`~repro.api.project.Project`.

Each analysis wraps one existing engine behind the uniform contract
``run(project, **option_overrides) -> Report``:

* :class:`PitchforkAnalysis` — one Pitchfork exploration (§4.1/4.2);
* :class:`TwoPhaseAnalysis` — the paper's §4.2.1 two-phase procedure
  with the Table 2 ``clean``/``v1``/``f`` classification;
* :class:`SCTAnalysis` — the full two-trace Definition 3.1 check over
  enumerated tool schedules and secret variations;
* :class:`CacheAttackAnalysis` — folds a violating trace into the cache
  model (§3.1's "the cache is a function of the observations");
* :class:`MetatheoryAnalysis` — replays the Appendix B theorem checks
  on this target under random well-formed schedules;
* :class:`RepairAnalysis` — counterexample-guided mitigation synthesis
  (:mod:`repro.mitigate`): localize the violations, place minimal
  fences / SLH masks, re-verify, and report the repair certificate in
  the report's ``mitigation`` section.

Analyses register themselves by name; discover them via
``Project.analyses`` (attribute style, angr's ``project.analyses.CFG()``
idiom) or :func:`get_analysis` / :func:`available_analyses`.
"""

from __future__ import annotations

import random
import time
from dataclasses import fields, replace
from typing import Any, Dict, List, Mapping, Tuple, Type

from ..core.machine import Machine
from ..core.sct import check_sct
from ..engine import ExecutionEngine
from ..pitchfork import ExplorationOptions, analyze, enumerate_schedules
from .project import AnalysisOptions, Project
from .report import (PhaseReport, Report, from_analysis_report,
                     summarize_counterexample)

_REGISTRY: Dict[str, Type["Analysis"]] = {}

#: Convenience spellings accepted by :func:`get_analysis`.
_ALIASES = {
    "two_phase": "two-phase",
    "twophase": "two-phase",
    "table2": "two-phase",
    "cache": "cache-attack",
    "cache_attack": "cache-attack",
    "mitigate": "repair",
    "mitigation": "repair",
    "speculation-passing": "sps",
    "speculation_passing": "sps",
    # No front end can build a symbolic input, so the question is
    # Pitchfork's (DESIGN.md, "The deleted symbolic back end").
    "symbolic": "pitchfork",
}


def register(cls: Type["Analysis"]) -> Type["Analysis"]:
    """Class decorator adding an analysis to the registry."""
    if not getattr(cls, "name", None):
        raise ValueError(f"{cls.__name__} needs a non-empty name")
    _REGISTRY[cls.name] = cls
    return cls


def get_analysis(name) -> "Analysis":
    """Instantiate a registered analysis by name (or pass one through)."""
    if isinstance(name, Analysis):
        return name
    if isinstance(name, type) and issubclass(name, Analysis):
        return name()
    key = str(name).lower().replace(" ", "-")
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]()
    except KeyError:
        raise KeyError(f"unknown analysis {name!r}; "
                       f"available: {sorted(_REGISTRY)}") from None


def available_analyses() -> Dict[str, str]:
    """Registered analysis names → one-line descriptions."""
    return {name: cls.description for name, cls in sorted(_REGISTRY.items())}


def available_aliases() -> Dict[str, str]:
    """Accepted analysis aliases → the registered name they resolve to.

    These are real CLI/API spellings (``repro analyze -a mitigate`` runs
    the ``repair`` analysis), so ``repro list`` prints them alongside
    the registry.
    """
    return dict(sorted(_ALIASES.items()))


#: Default of every exploration knob, for :func:`_ignore_knobs`.
_EXPLORATION_DEFAULTS = {f.name: f.default
                         for f in fields(ExplorationOptions)}


def _ignore_knobs(options: AnalysisOptions,
                  knobs: Tuple[str, ...]) -> AnalysisOptions:
    """``options`` with each of ``knobs`` back at its default."""
    reset = {knob: _EXPLORATION_DEFAULTS[knob] for knob in knobs
             if getattr(options, knob) != _EXPLORATION_DEFAULTS[knob]}
    return replace(options, **reset) if reset else options


def restate_ignored(report: Report,
                    ignored: Mapping[str, Any]) -> Report:
    """``report`` with its ``*_ignored`` details replaced by ``ignored``
    (``report`` itself when they are equal).

    A cached report answers every request with the same effective
    options, but what a request *set*, and so what it is told was
    ignored, depends on how it split into preset and overrides.
    """
    details = report.details
    old = {k: v for k, v in details.items() if k.endswith("_ignored")}
    if old == ignored:
        return report
    kept = {k: v for k, v in details.items() if k not in old}
    kept.update(ignored)
    return report.with_(details=kept)


class Analysis:
    """Base contract: ``run(project, **overrides) -> Report``."""

    name: str = ""
    description: str = ""
    #: Exploration knobs this analysis has nothing to act on: reset to
    #: their defaults before :meth:`_run`, and reported when set (see
    #: :meth:`ignored`).
    ignores: Tuple[str, ...] = ()

    def ignored(self, preset: AnalysisOptions,
                options: AnalysisOptions) -> Dict[str, Any]:
        """The ``*_ignored`` report details of a run under ``options``
        of a project built with ``preset``: ``<knob>_ignored``
        (``budget_ignored`` for ``budget_seconds``), holding the value
        asked for, for each ignored knob set away from the preset.
        Ignored, and said so — never silently dropped."""
        out = {}
        for knob in self.ignores:
            value = getattr(options, knob)
            if value != getattr(preset, knob):
                key = "budget" if knob == "budget_seconds" else knob
                out[f"{key}_ignored"] = value
        return out

    def run(self, project: Project, **overrides) -> Report:
        options = project.options.with_(**overrides)
        ignored = self.ignored(project.preset, options)
        t0 = time.perf_counter()
        report = self._run(project, _ignore_knobs(options, self.ignores))
        if report.wall_time == 0.0:
            report = report.with_(wall_time=time.perf_counter() - t0)
        return restate_ignored(report, ignored)

    def _run(self, project: Project, options: AnalysisOptions) -> Report:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


class AnalysisHub:
    """``project.analyses`` — attribute access to the registry, bound to
    one project.  Lowercase attribute names map to registered analyses
    (dashes become underscores): ``project.analyses.two_phase()``."""

    def __init__(self, project: Project):
        self._project = project

    def __getattr__(self, name: str):
        key = name.replace("_", "-")
        if key not in _REGISTRY:
            raise AttributeError(
                f"no analysis {name!r}; available: {sorted(_REGISTRY)}")
        analysis = _REGISTRY[key]()
        return lambda **overrides: analysis.run(self._project, **overrides)

    def __iter__(self):
        return iter(sorted(_REGISTRY))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<AnalysisHub {sorted(_REGISTRY)} on {self._project.name!r}>"


def _explore(project: Project, options: AnalysisOptions):
    """One Pitchfork run with the project's full knob set."""
    return analyze(project.program, project.config(), options,
                   name=project.name)


@register
class PitchforkAnalysis(Analysis):
    """One worst-case-schedule exploration at ``options.bound``."""

    name = "pitchfork"
    description = ("single Pitchfork exploration: flag secret-dependent "
                   "observations under worst-case schedules (§4.1)")

    def _run(self, project: Project, options: AnalysisOptions) -> Report:
        t0 = time.perf_counter()
        report = _explore(project, options)
        details = {"strategy": options.strategy,
                   "prune": options.prune, "subsume": options.subsume}
        if options.strategy == "random":
            details["seed"] = options.seed
        if options.budget_seconds is not None:
            details["budget_seconds"] = options.budget_seconds
        return from_analysis_report(report, project.name, self.name,
                                    wall_time=time.perf_counter() - t0,
                                    details=details)


@register
class SpsAnalysis(Analysis):
    """Speculation-passing second opinion (:mod:`repro.sps`).

    Compiles the speculative directives into the program as explicit
    nondeterminism and decides speculative constant time by a plain
    sequential check of the product — no reorder buffer, no schedules.
    Shares no engine code with ``pitchfork``, so agreement between the
    two is strong evidence (see ``repro analyze --cross-check`` and the
    :mod:`repro.sps.diff` harness).
    """

    name = "sps"
    description = ("speculation-passing second opinion: sequential CT "
                   "check of the speculative product program (repro.sps)")
    #: The sequential check has no schedule search.
    ignores = ("strategy", "prune", "subsume", "budget_seconds",
               "telemetry")

    def _run(self, project: Project, options: AnalysisOptions) -> Report:
        from ..pitchfork.detector import AnalysisReport
        from ..sps import explore_sps
        t0 = time.perf_counter()
        result = explore_sps(project.program, project.config(), options)
        details = {"speculation_sites": dict(result.sites),
                   "exhausted_paths": result.exhausted_paths}
        report = AnalysisReport(
            name=project.name, secure=result.secure,
            violations=tuple(result.violations),
            paths_explored=result.paths_explored,
            states_stepped=result.states_stepped,
            truncated=not result.complete,
            phase="sps", bound=options.bound)
        return from_analysis_report(report, project.name, self.name,
                                    wall_time=time.perf_counter() - t0,
                                    details=details)


@register
class TwoPhaseAnalysis(Analysis):
    """The paper's §4.2.1 procedure, classifying ``clean``/``v1``/``f``.

    Phase 1 hunts v1/v1.1 without forwarding hazards at
    ``options.bound_no_fwd``; only if clean, phase 2 re-runs with
    forwarding-hazard detection at ``options.bound_fwd``.
    """

    name = "two-phase"
    description = ("the paper's two-phase audit (§4.2.1): v1/v1.1 at the "
                   "big bound, then v4 at the reduced bound; classifies "
                   "clean/v1/f")

    def _run(self, project: Project, options: AnalysisOptions) -> Report:
        t0 = time.perf_counter()
        first = _explore(project, options.with_(
            bound=options.bound_no_fwd, fwd_hazards=False))
        t1 = time.perf_counter()
        phases = [PhaseReport(first.phase, first.bound, first.secure,
                              first.paths_explored, first.states_stepped,
                              first.truncated, t1 - t0)]
        if not first.secure:
            return from_analysis_report(
                first, project.name, self.name, wall_time=t1 - t0,
                phases=tuple(phases),
                details={"classification": "v1"}).with_(status="v1")
        second = _explore(project, options.with_(
            bound=options.bound_fwd, fwd_hazards=True))
        t2 = time.perf_counter()
        phases.append(PhaseReport(second.phase, second.bound, second.secure,
                                  second.paths_explored,
                                  second.states_stepped, second.truncated,
                                  t2 - t1))
        status = "clean" if second.secure else "f"
        return from_analysis_report(
            second, project.name, self.name, wall_time=t2 - t0,
            phases=tuple(phases),
            details={"classification": status}).with_(status=status)


@register
class SCTAnalysis(Analysis):
    """The full two-trace SCT check (Definition 3.1).

    Enumerates tool schedules at ``options.sct_bound`` and quantifies
    over auto-generated low-equivalent secret variations.  A vacuous
    verdict (no pair actually checked) is surfaced, never silently
    reported as secure.
    """

    name = "sct"
    description = ("two-trace Definition 3.1 check over enumerated tool "
                   "schedules and secret variations; flags vacuous passes")
    #: The check quantifies over the whole enumerated schedule set: its
    #: order, a state-subsumed subset or a deadline-cut one would not
    #: be that set, and there is no frontier loop to instrument.
    ignores = ("strategy", "subsume", "budget_seconds", "telemetry")

    def _run(self, project: Project, options: AnalysisOptions) -> Report:
        t0 = time.perf_counter()
        machine = Machine(project.program, rsb_policy=options.rsb_policy)
        config = project.config()
        schedules = enumerate_schedules(
            machine, config, options.with_(
                bound=options.sct_bound,
                max_paths=options.sct_max_schedules))
        # Run the two-trace product on the engine so the quantifier's
        # work (every schedule × every partner, twice per pair) shows
        # up in the report's step counters.
        engine = ExecutionEngine(machine)
        result = check_sct(engine, config, schedules)
        counterexamples = ()
        if result.counterexample is not None:
            counterexamples = (
                summarize_counterexample(result.counterexample),)
        return Report(
            target=project.name, analysis=self.name,
            status="secure" if result.ok else "insecure",
            secure=result.ok,
            counterexamples=counterexamples,
            paths_explored=len(schedules),
            states_stepped=engine.stats.steps,
            states_reused=engine.stats.avoided,
            vacuous=result.vacuous,
            wall_time=time.perf_counter() - t0,
            details={"pairs_checked": result.pairs_checked,
                     "schedules": len(schedules)},
        )


@register
class CacheAttackAnalysis(Analysis):
    """Cache-visibility of a violation (§3.1's cache-as-fold argument).

    Runs Pitchfork; if a violation is found, folds its witnessing trace
    into a set-associative cache and reports which data addresses became
    attacker-probeable — the bridge from semantics observations to a
    real Flush+Reload measurement.
    """

    name = "cache-attack"
    description = ("fold a violating trace into the cache model and "
                   "report the attacker-probeable footprint (§3.1)")

    def _run(self, project: Project, options: AnalysisOptions) -> Report:
        from ..cache import Cache, CacheConfig, replay
        from ..cache.cache import addresses_touching_cache
        t0 = time.perf_counter()
        report = _explore(project, options)
        base = from_analysis_report(report, project.name, self.name,
                                    wall_time=time.perf_counter() - t0)
        if report.secure:
            return base
        trace = report.violations[0].trace
        cache = replay(trace, Cache(CacheConfig(sets=64, ways=4,
                                                line_size=4)))
        touched = addresses_touching_cache(trace)
        probeable = sorted({a for a in touched if cache.probe(a)})
        details = dict(base.details)
        details.update({
            "lines_touched": len({cache.line_of(a) for a in touched}),
            "probeable_addresses": [hex(a) for a in probeable],
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
        })
        return base.with_(details=details)


@register
class RepairAnalysis(Analysis):
    """Counterexample-guided mitigation synthesis (:mod:`repro.mitigate`).

    Runs the repair→re-verify loop with this project's full exploration
    knob set (bound, hazards, aliasing, strategy, pruning): localize
    each violation to its program points, place a targeted fence or SLH
    mask, re-run the verifier, and — once clean — delta-debug the
    placement down to a locally minimal one.  The report's ``status``
    is the repair outcome (``already-secure`` / ``repaired`` /
    ``sequential-residual`` / ``gave-up``); the ``mitigation`` section
    carries the machine-checkable certificate (re-assembleable repaired
    source + per-site steps + cost against the blanket baseline).
    ``secure`` is True only when the repaired program verifies fully
    clean — a ``sequential-residual`` outcome means the *speculative*
    leaks are gone but the program was never sequentially constant-time
    (no fence placement can fix that), so it still gates ``--check``.
    """

    name = "repair"
    description = ("counterexample-guided mitigation synthesis: localize "
                   "violations, place minimal fences/SLH masks, re-verify, "
                   "shrink (repro.mitigate)")
    #: Repair re-verifies to a *certificate*, which a wall-clock cut
    #: mid-loop would not give; one heatmap over many re-verifications
    #: would mislead.
    ignores = ("budget_seconds", "telemetry")

    def _run(self, project: Project, options: AnalysisOptions) -> Report:
        from ..mitigate import repair
        t0 = time.perf_counter()
        result = repair(project.program, project.config(), options,
                        name=project.name)
        final = result.final_report
        secure = result.status in ("already-secure", "repaired")
        details = {"policy": options.policy,
                   "verifications": result.verifications,
                   "rounds": result.rounds,
                   "localize_steps": result.localize_steps,
                   "strategy": options.strategy,
                   "prune": options.prune,
                   "subsume": options.subsume}
        wall = time.perf_counter() - t0
        # NB: AnalysisReport.__bool__ is "secure" — guard on None, not
        # truthiness, or insecure final reports zero these fields out.
        if final is None:
            return Report(target=project.name, analysis=self.name,
                          status=result.status, secure=secure,
                          wall_time=wall, mitigation=result.certificate,
                          details=details)
        # Lift the final verification run as usual, then overlay the
        # repair outcome and the loop-wide step accounting (every
        # re-verification, not just the last one).
        return from_analysis_report(
            final, project.name, self.name, wall_time=wall,
            details=details,
        ).with_(status=result.status, secure=secure,
                states_stepped=result.states_stepped,
                states_reused=result.states_reused,
                mitigation=result.certificate)


@register
class MetatheoryAnalysis(Analysis):
    """Appendix B theorem checks on *this* target.

    Replays determinism (B.1), sequential equivalence (3.2), label
    stability (B.9) and consistency (B.8) under ``options.experiments``
    random well-formed schedules drawn with ``options.seed``.
    """

    name = "metatheory"
    description = ("replay the Appendix B theorem checks on this target "
                   "under random well-formed schedules")
    #: The checks draw random schedules instead of exploring DT(n):
    #: of the exploration knobs only the seed and the RSB policy apply.
    ignores = tuple(f.name for f in fields(ExplorationOptions)
                    if f.name not in ("seed", "rsb_policy"))

    def _run(self, project: Project, options: AnalysisOptions) -> Report:
        from ..verify.generators import random_schedule
        from ..verify.theorems import (check_consistency, check_determinism,
                                       check_label_stability,
                                       check_sequential_equivalence)
        t0 = time.perf_counter()
        # The theorem checks replay each drawn schedule several times
        # (determinism runs it twice, consistency replays pairs); the
        # engine counts that work so it lands in the report.
        machine = ExecutionEngine(
            Machine(project.program, rsb_policy=options.rsb_policy))
        config = project.config()
        rng = random.Random(options.seed)
        failures: List[Dict[str, str]] = []
        experiments = skipped = 0
        drained = []
        for _ in range(options.experiments):
            schedule, _final = random_schedule(machine, config, rng)
            drained.append(schedule)
            checks = [
                check_determinism(machine, config, schedule),
                check_sequential_equivalence(machine, config, schedule),
                check_label_stability(machine, config, schedule),
            ]
            for check in checks:
                experiments += 1
                if not check.ok:
                    failures.append({"observation": check.theorem,
                                     "step_index": -1,
                                     "directive": check.detail,
                                     "schedule_tail": [], "trace_tail": []})
                elif check.detail.startswith("skipped"):
                    skipped += 1
        for a, b in zip(drained, drained[1:]):
            experiments += 1
            check = check_consistency(machine, config, a, b)
            if not check.ok:
                failures.append({"observation": check.theorem,
                                 "step_index": -1,
                                 "directive": check.detail,
                                 "schedule_tail": [], "trace_tail": []})
            elif check.detail.startswith("skipped"):
                skipped += 1
        ok = not failures
        return Report(
            target=project.name, analysis=self.name,
            status="ok" if ok else "fail",
            secure=ok,
            violations=tuple(failures),
            paths_explored=len(drained),
            states_stepped=machine.stats.steps,
            states_reused=machine.stats.avoided,
            wall_time=time.perf_counter() - t0,
            details={"experiments": experiments, "skipped": skipped,
                     "seed": options.seed},
        )
