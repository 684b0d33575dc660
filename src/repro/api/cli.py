"""``python -m repro`` — the command-line front end.

Subcommands::

    python -m repro list                         # analyses, suites, cases
    python -m repro analyze kocher_01            # one target, one analysis
    python -m repro analyze victim.s --reg ra=9  # raw asm source
    python -m repro repair kocher_01             # synthesize a mitigation
    python -m repro litmus kocher --workers 4    # sweep suites
    python -m repro table2 --json                # reproduce Table 2
    python -m repro serve --store ~/.repro       # resident analysis daemon
    python -m repro submit kocher_01 --check     # run via the daemon
    python -m repro results --store ~/.repro     # browse the result store

Every subcommand takes ``--json`` for machine-readable output; analysis
knobs (``--bound``, ``--fwd-hazards``, …) map 1:1 onto
:class:`~repro.api.project.AnalysisOptions`.

Exit codes (CI contract)::

    0   clean: no violation, and with --check full, non-vacuous coverage
    1   a violation was found (or a ground-truth mismatch in `litmus`)
    2   --check only: "secure" earned with truncated coverage or a
        vacuous quantifier — coverage, not security, failed
    3   usage errors (unknown target/analysis/option values), and
        --cross-check backend disagreement — nothing about the target
        can be concluded when the oracle is wrong
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional

from .analyses import available_aliases, available_analyses
from .manager import AnalysisManager
from .project import AnalysisOptions, Project


def _option_overrides(args) -> Dict:
    """Collect --bound-style flags into AnalysisOptions overrides
    (absent flags stay None and are ignored by ``with_``)."""
    return {
        "bound": args.bound,
        "bound_no_fwd": args.bound_no_fwd,
        "bound_fwd": args.bound_fwd,
        "fwd_hazards": args.fwd_hazards,
        "explore_aliasing": args.aliasing,
        "max_paths": args.max_paths,
        "max_steps": args.max_steps,
        "max_schedules": args.max_schedules,
        "max_worlds": args.max_worlds,
        "strategy": args.strategy,
        "shards": args.shards,
        "seed": args.seed,
        "prune": args.prune,
        "subsume": getattr(args, "subsume", None),
        "telemetry": getattr(args, "telemetry", None),
        "budget_seconds": getattr(args, "budget_seconds", None),
        "mcts_c": getattr(args, "mcts_c", None),
        "mcts_playout": getattr(args, "mcts_playout", None),
        # repair-only knobs (absent on other subcommands, ignored when
        # None by AnalysisOptions.with_).
        "policy": getattr(args, "policy", None),
        "max_repair_rounds": getattr(args, "max_rounds", None),
        "shrink": getattr(args, "shrink", None),
    }


def _warn_truncated(reports) -> None:
    """Surface capped coverage honestly: a truncated report means a
    max_paths/max_steps/max_schedules/max_worlds cap bit (or the
    wall-clock budget expired), so "secure" only speaks for the explored
    fraction."""
    budgeted = [r.target for r in reports if r.truncated
                and r.anytime is not None and r.anytime.get("deadline_hit")]
    names = [r.target for r in reports if r.truncated
             and r.target not in budgeted]
    if budgeted:
        shown = ", ".join(budgeted[:6]) + (", …" if len(budgeted) > 6 else "")
        print(f"warning: wall-clock budget expired for {shown} — "
              f"coverage is partial (see the anytime stats; raise "
              f"--budget-seconds to explore further)", file=sys.stderr)
    if not names:
        return
    shown = ", ".join(names[:6]) + (", …" if len(names) > 6 else "")
    print(f"warning: exploration truncated for {shown} — a "
          f"max-paths/max-steps/max-schedules/max-worlds cap was hit; "
          f"coverage is partial (raise the caps to explore fully)",
          file=sys.stderr)


def _add_preset_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", choices=("paper", "table2"),
                        help="start from a named options preset")


def _add_option_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bound", type=int, help="speculation bound")
    parser.add_argument("--bound-no-fwd", type=int,
                        help="two-phase: phase 1 bound")
    parser.add_argument("--bound-fwd", type=int,
                        help="two-phase: phase 2 bound")
    parser.add_argument("--fwd-hazards", action="store_true", default=None,
                        help="enable forwarding-hazard (v4) exploration")
    parser.add_argument("--no-fwd-hazards", dest="fwd_hazards",
                        action="store_false",
                        help="disable forwarding-hazard exploration")
    parser.add_argument("--aliasing", action="store_true", default=None,
                        help="enable §3.5 aliasing-prediction exploration")
    parser.add_argument("--max-paths", type=int, help="path-count cap")
    parser.add_argument("--max-steps", type=int,
                        help="per-path step budget")
    parser.add_argument("--max-schedules", type=int,
                        help="symbolic back end: schedule cap")
    parser.add_argument("--max-worlds", type=int,
                        help="symbolic back end: live-world cap")
    from ..engine import available_strategies
    parser.add_argument("--strategy", choices=available_strategies(),
                        help="frontier search order (default: dfs); the "
                             "flagged violation set is order-invariant")
    parser.add_argument("--shards", type=int,
                        help="split DT(bound) into subtree jobs on a "
                             "process pool of this size (default: 1)")
    parser.add_argument("--seed", type=int,
                        help="RNG seed for --strategy random (and the "
                             "metatheory analysis)")
    from ..engine.por import PRUNE_LEVELS
    parser.add_argument("--prune", choices=PRUNE_LEVELS,
                        help="partial-order reduction over the schedule "
                             "tree (default: sleepset); all levels flag "
                             "the same violation observations")
    parser.add_argument("--subsume", action="store_true", default=None,
                        help="prune fork arms whose state was already "
                             "explored with same-or-weaker obligations "
                             "(default: off); the observation set is "
                             "unchanged (symbolic runs ignore it)")
    parser.add_argument("--no-subsume", dest="subsume",
                        action="store_false",
                        help="disable redundant-state subsumption")
    parser.add_argument("--telemetry", action="store_true", default=None,
                        help="record search telemetry (per-fetch-PC "
                             "heatmap + fork-level histogram) onto the "
                             "report's telemetry section; pure "
                             "observation, the explored set is unchanged")
    parser.add_argument("--no-telemetry", dest="telemetry",
                        action="store_false",
                        help="disable search telemetry (overrides the "
                             "--trace implication)")
    parser.add_argument("--budget-seconds", type=float, metavar="SECONDS",
                        help="anytime mode: stop exploring at this "
                             "wall-clock deadline and report honest "
                             "coverage stats; a budget-truncated run is "
                             "never reported as clean coverage "
                             "(--check exit 2)")
    parser.add_argument("--mcts-c", type=float, metavar="C",
                        help="--strategy mcts: UCT exploration constant "
                             "(default: 0.5)")
    parser.add_argument("--mcts-playout", type=int, metavar="DEPTH",
                        help="--strategy mcts: static-playout lookahead "
                             "depth for the tainted-load prior "
                             "(default: 8)")


def _preset_options(args) -> Optional[AnalysisOptions]:
    preset = getattr(args, "preset", None)
    if preset == "paper":
        return AnalysisOptions.paper()
    if preset == "table2":
        return AnalysisOptions.table2()
    return None


def _parse_regs(pairs: List[str]) -> Dict[str, int]:
    regs = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not _:
            raise SystemExit(f"--reg wants name=value, got {pair!r}")
        regs[name] = int(value, 0)
    return regs


def _resolve_target(target: str, args) -> Project:
    """A litmus-case name, a case-variant name, or an asm file path."""
    options = _preset_options(args)
    if os.path.exists(target) or target.endswith(".s"):
        try:
            with open(target) as fh:
                source = fh.read()
        except OSError as exc:
            raise SystemExit(f"cannot read {target!r}: {exc}")
        return Project.from_asm(source, regs=_parse_regs(args.reg or []),
                                pc=args.pc,
                                name=os.path.basename(target),
                                options=options)
    from ..casestudies import all_case_studies
    for study in all_case_studies():
        for variant in study.variants():
            if variant.name == target:
                return Project.from_variant(variant, options=options)
    from ..litmus import find_case
    try:
        return Project.from_litmus(target, options=options)
    except KeyError:
        raise SystemExit(
            f"unknown target {target!r}: not a file, case-study variant, "
            f"or litmus case (try `python -m repro list`)")


def _target_spec(target: str, args) -> Dict:
    """The serve-layer job spec for a CLI positional target.

    File paths are read *client-side* and shipped by value (the daemon
    never touches this process's filesystem); names travel as-is and
    resolve on the daemon exactly as ``_resolve_target`` resolves them
    here.
    """
    from ..serve import spec_for_asm, spec_for_name
    preset = getattr(args, "preset", None)
    if os.path.exists(target) or target.endswith(".s"):
        try:
            with open(target) as fh:
                source = fh.read()
        except OSError as exc:
            raise SystemExit(f"cannot read {target!r}: {exc}")
        return spec_for_asm(source, regs=_parse_regs(args.reg or []),
                            pc=args.pc, name=os.path.basename(target),
                            preset=preset)
    return spec_for_name(target, preset=preset)


@contextmanager
def _traced(args, header: Dict[str, Any]):
    """Scope an ambient tracer over a command when ``--trace FILE`` was
    given; write the span capture (JSONL, ``repro trace`` readable) on
    the way out.  Yields the tracer (None when tracing is off) so
    commands can add their own spans.  ``header`` may be filled in
    *inside* the block (e.g. with the report's telemetry section) —
    it is serialised at exit.  All notices go to stderr, never stdout.
    """
    path = getattr(args, "trace", None)
    if not path:
        yield None
        return
    from ..obs import Tracer, tracing_context, write_capture
    tracer = Tracer()
    with tracing_context(tracer):
        yield tracer
    spans = tracer.export()
    write_capture(path, spans, header=header)
    print(f"trace: {len(spans)} span(s) written to {path} "
          f"(inspect with `repro trace summary {path}`)", file=sys.stderr)


def _imply_telemetry(args, overrides: Dict) -> Dict:
    """``--trace`` implies ``--telemetry`` (a capture without the search
    heatmap is half a trace) unless the user said ``--no-telemetry``."""
    if getattr(args, "trace", None) and overrides.get("telemetry") is None:
        overrides = dict(overrides)
        overrides["telemetry"] = True
    return overrides


# -- subcommands ------------------------------------------------------------


def cmd_list(args) -> int:
    from ..casestudies import all_case_studies
    from ..engine import strategy_descriptions
    from ..litmus import all_suites
    suites = {name: [c.name for c in cases]
              for name, cases in all_suites().items()}
    studies = {cs.name: [v.name for v in cs.variants()]
               for cs in all_case_studies()}
    strategies = strategy_descriptions()
    if args.json:
        print(json.dumps({"analyses": available_analyses(),
                          "aliases": available_aliases(),
                          "strategies": strategies,
                          "litmus_suites": suites,
                          "case_studies": studies}, indent=2))
        return 0
    print("analyses:")
    for name, description in available_analyses().items():
        print(f"  {name:<14} {description}")
    aliases: Dict[str, List[str]] = {}
    for alias, target in available_aliases().items():
        aliases.setdefault(target, []).append(alias)
    print("\naliases:")
    for target, names in sorted(aliases.items()):
        print(f"  {', '.join(names)} -> {target}")
    print("\nsearch strategies (--strategy):")
    for name, description in strategies.items():
        print(f"  {name:<10} {description}")
    print("\nlitmus suites:")
    for name, cases in suites.items():
        print(f"  {name:<10} {len(cases):3} cases: "
              f"{', '.join(cases[:4])}{', …' if len(cases) > 4 else ''}")
    print("\ncase studies (Table 2):")
    for name, variants in studies.items():
        print(f"  {name:<30} {', '.join(variants)}")
    return 0


def cmd_analyze(args) -> int:
    project = _resolve_target(args.target, args)
    overrides = _imply_telemetry(args, _option_overrides(args))
    header = {"command": "analyze", "target": args.target,
              "analysis": args.analysis}
    record = None
    with _traced(args, header):
        report = project.run(args.analysis, **overrides)
        header["telemetry"] = (dict(report.telemetry)
                               if report.telemetry is not None else None)
        if getattr(args, "cross_check", False):
            # Run *both* backends on the full question (never
            # first-violation mode: agreement is on the complete
            # flagged-observation sets) and attach the verdict.
            from ..sps.diff import compare
            options = project.options.with_(
                **{k: v for k, v in overrides.items() if v is not None})
            record = compare(project.program, project.config(),
                             options.with_(stop_at_first=False),
                             name=project.name)
            report = report.with_(cross_check=record.section())
    if args.json:
        print(report.to_json(indent=2))
    else:
        print(report.render())
    _warn_truncated([report])
    if record is not None and record.disagree:
        # Both backends ran to completion and flagged different
        # observation sets: one of them is wrong.  A distinct exit code
        # (the usage-error one — nothing about the *target* can be
        # concluded) keeps oracle bugs from masquerading as verdicts.
        print(f"error: backends disagree on {project.name}: "
              f"pitchfork={list(record.pf_obs)} "
              f"sps={list(record.sps_obs)} "
              f"(minimise with `python -m repro.sps.diff`)",
              file=sys.stderr)
        return 3
    if not report.ok:
        return 1
    # --check: a gate for CI scripts — "secure" earned with capped
    # coverage or by an empty quantifier (vacuous SCT pass) must not
    # pass silently.  Exit 2 distinguishes a *coverage* failure from a
    # found violation (exit 1), so pipelines can escalate differently.
    if args.check and (report.truncated or report.vacuous):
        return 2
    if args.check and record is not None and not record.agree:
        # unconfirmed / explained-budget: a budget truncated at least
        # one side — agreement was not established, which is a coverage
        # failure, not a violation.
        return 2
    return 0


def cmd_repair(args) -> int:
    """``repro repair``: the analyze pipeline with the repair analysis.

    ``-a`` names the *verifying* detector the synthesis loop re-runs
    (currently only ``pitchfork``, the default).
    """
    from .analyses import get_analysis
    verifier = get_analysis(args.analysis or "pitchfork").name
    if verifier != "pitchfork":
        raise SystemExit(f"repair verifies with the pitchfork detector; "
                         f"-a {verifier} is not supported yet")
    args.analysis = "repair"
    return cmd_analyze(args)


def cmd_litmus(args) -> int:
    from ..litmus import all_suites, load_suite
    known = sorted(all_suites())
    names = args.suites or known
    unknown = [s for s in names if s not in known]
    if unknown:
        raise SystemExit(f"unknown suite(s) {unknown}; available: {known}")
    manager = AnalysisManager("pitchfork", workers=args.workers)
    overrides = _imply_telemetry(args, _option_overrides(args))
    out: Dict[str, Dict] = {}
    mismatches = []
    truncated = []
    flagged_any = vacuous_any = False
    t0 = time.time()
    # NB: with --workers > 1 the per-case exploration happens in pool
    # processes the ambient tracer does not reach; the capture then
    # carries the parent-side manager.run spans only.
    header = {"command": "litmus", "suites": names,
              "workers": args.workers}
    with _traced(args, header):
        for suite in names:
            projects = [Project.from_litmus(case)
                        for case in load_suite(suite)]
            reports = manager.run(projects, **overrides)
            truncated.extend(r for r in reports if r.truncated)
            vacuous_any = vacuous_any or any(r.vacuous for r in reports)
            rows = {}
            for project, report in zip(projects, reports):
                flagged = not report.ok
                flagged_any = flagged_any or flagged
                expected = project.expected == "flagged"
                rows[project.name] = {"flagged": flagged,
                                      "expected": expected,
                                      "wall_time": round(report.wall_time,
                                                         3)}
                if flagged != expected:
                    mismatches.append(project.name)
            out[suite] = rows
    elapsed = time.time() - t0
    if args.json:
        print(json.dumps({"suites": out, "mismatches": mismatches,
                          "wall_time": round(elapsed, 3)}, indent=2))
    else:
        for suite, rows in out.items():
            flagged = sum(r["flagged"] for r in rows.values())
            print(f"{suite}: {flagged}/{len(rows)} flagged")
            for name, row in rows.items():
                mark = "✓" if row["flagged"] else " "
                note = ("" if row["flagged"] == row["expected"]
                        else "  MISMATCH")
                print(f"  [{mark}] {name}{note}")
        print(f"\n{sum(len(r) for r in out.values())} cases in "
              f"{elapsed:.1f}s"
              + (f"; MISMATCHES: {mismatches}" if mismatches else ""))
    _warn_truncated(truncated)
    if mismatches:
        return 1
    if args.check:
        if flagged_any:
            return 1
        if truncated or vacuous_any:
            return 2
    return 0


def cmd_table2(args) -> int:
    from ..casestudies import all_case_studies, render_table2
    manager = AnalysisManager("two-phase", workers=args.workers)
    studies = all_case_studies()
    options = _preset_options(args)
    t0 = time.time()
    # One batch for the whole table so --workers parallelises across
    # all eight cells, not within one row.
    projects = [Project.from_variant(v, options=options)
                for study in studies for v in study.variants()]
    reports = manager.run(projects, **_option_overrides(args))
    results: Dict[str, Dict[str, str]] = {}
    for study, (c_report, fact_report) in zip(
            studies, zip(reports[::2], reports[1::2])):
        results[study.name] = {"C": c_report.status,
                               "FaCT": fact_report.status}
    elapsed = time.time() - t0
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        print(render_table2(results))
        print(f"\n({elapsed:.1f}s; ✓ = SCT violation, "
              f"f = needs forwarding-hazard detection)")
    _warn_truncated(reports)
    return 0


def cmd_serve(args) -> int:
    """``repro serve``: the resident analysis daemon (foreground).

    ``--stop`` and ``--stats`` are client modes against a running
    daemon; everything else starts one and blocks until it is shut
    down (SIGINT, or a client's ``repro serve --stop``).
    """
    from ..serve import ReproServer, ServeClient, ServeError
    if args.stop or args.stats:
        try:
            with ServeClient(socket_path=args.socket, host=args.host,
                             port=args.port or None) as client:
                if args.stop:
                    out = client.shutdown(drain=not args.no_drain)
                else:
                    out = client.stats().to_dict()
                    try:
                        out["metrics"] = client.metrics().get("metrics")
                    except ServeError:
                        # Daemon predates the metrics RPC.
                        out["metrics"] = None
        except (ConnectionError, ServeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        print(json.dumps(out, indent=2))
        return 0
    server = ReproServer(socket_path=args.socket, host=args.host,
                         port=args.port or 0, store=args.store,
                         workers=args.workers)

    async def _serve():
        await server.start()
        where = (server.socket_path if server.socket_path is not None
                 else f"{server.host}:{server.port}")
        store_note = ("; no result store (--store to persist)"
                      if server.store is None
                      else f"; store {server.store.root}")
        print(f"repro daemon listening on {where}"
              f" ({server.pool.workers} workers{store_note})",
              file=sys.stderr)
        await server.serve_forever()

    import asyncio
    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0


def cmd_submit(args) -> int:
    """``repro submit``: run one analysis on the daemon.

    Same output and exit-code contract as ``repro analyze`` (0 clean,
    1 violation, 2 coverage failure under --check) — plus exit 3 when
    the daemon is unreachable or rejects the job.  ``--json`` reports
    carry the daemon's cache counters under ``details.cache``.
    """
    from ..serve import ServeClient, ServeError
    spec = _target_spec(args.target, args)
    overrides = {name: value
                 for name, value
                 in _imply_telemetry(args, _option_overrides(args)).items()
                 if value is not None}

    def echo(event):
        if not args.progress:
            return
        if event.get("kind") == "shard":
            print(f"  shard {event['index']}: "
                  f"{event['paths_explored']} paths, "
                  f"{event['violations']} violations "
                  f"[{event['cumulative_violations']} total]",
                  file=sys.stderr)
        elif event.get("kind") == "split":
            print(f"  split into {event['jobs']} jobs "
                  f"({event['shards']} shards)", file=sys.stderr)

    # The analysis runs in the daemon's processes, out of the ambient
    # tracer's reach — the capture records the client-side RPC phases
    # (submit, wait) and carries the report's telemetry section in its
    # header.
    header = {"command": "submit", "target": args.target,
              "analysis": args.analysis}
    try:
        with _traced(args, header) as tracer, \
                ServeClient(socket_path=args.socket, host=args.host,
                            port=args.port or None,
                            timeout=args.timeout) as client:
            ts = tracer.start() if tracer is not None else 0.0
            job = client.submit(spec, analysis=args.analysis,
                                options=overrides)
            if tracer is not None:
                tracer.add("submit", "client", ts,
                           {"job": job.get("job"),
                            "cached": bool(job.get("cached"))})
            ts = tracer.start() if tracer is not None else 0.0
            report, cache = client.wait(job["job"], timeout=args.timeout,
                                        on_event=echo)
            if tracer is not None:
                tracer.add("wait", "client", ts,
                           {"source": cache.get("source")})
            header["telemetry"] = (
                dict(report.telemetry)
                if report.telemetry is not None else None)
    except (ConnectionError, ServeError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.json:
        payload = report.to_dict()
        details = dict(payload.get("details") or {})
        details["cache"] = cache
        payload["details"] = details
        print(json.dumps(payload, indent=2))
    else:
        print(report.render())
        source = cache.get("source")
        if source and source != "computed":
            print(f"(served from {source} cache)", file=sys.stderr)
    _warn_truncated([report])
    if not report.ok:
        return 1
    if args.check and (report.truncated or report.vacuous):
        return 2
    return 0


def cmd_trace(args) -> int:
    """``repro trace``: inspect a ``--trace`` span capture.

    ``summary`` aggregates the capture (span counts and wall time per
    (category, name) series, processes, shards, the header's telemetry
    digest); ``export --format chrome`` converts it to Chrome
    ``trace_event`` JSON loadable in Perfetto / ``chrome://tracing``.
    """
    from ..obs import (chrome_trace, read_capture, sort_spans,
                       summarize_spans)
    try:
        header, spans = read_capture(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.trace_command == "summary":
        summary = summarize_spans(spans)
        if header is not None:
            summary["header"] = {k: v for k, v in header.items()
                                 if k not in ("kind", "version")}
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
            return 0
        head = summary.get("header", {})
        what = " ".join(str(head[k]) for k in ("command", "target")
                        if head.get(k))
        print(f"capture: {summary['spans']} span(s), "
              f"{summary['processes']} process(es), "
              f"shards {summary['shards'] or '[]'}"
              + (f" — {what}" if what else ""))
        for series in summary["series"]:
            print(f"  {series['cat'] + '/' + series['name']:<24} "
                  f"×{series['count']:<6} {series['wall']:.4f}s")
        telemetry = head.get("telemetry")
        if telemetry:
            heatmap = telemetry.get("heatmap", {})
            hottest = sorted(heatmap.items(),
                             key=lambda kv: (-kv[1], int(kv[0])))[:5]
            print(f"  telemetry: {telemetry.get('pops', 0)} pops over "
                  f"{len(heatmap)} fetch PCs; hottest: "
                  + ", ".join(f"pc {pc} ×{n}" for pc, n in hottest))
        return 0
    # export
    spans = sort_spans(spans)
    if args.format == "chrome":
        payload = json.dumps(chrome_trace(spans), indent=2,
                             sort_keys=True)
    else:
        payload = "\n".join(json.dumps({"kind": "span", **span},
                                       sort_keys=True) for span in spans)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {len(spans)} span(s) to {args.output}",
              file=sys.stderr)
    else:
        print(payload)
    return 0


def cmd_results(args) -> int:
    """``repro results``: browse / GC a result store.

    With ``--store`` the store directory is opened directly (no daemon
    needed); otherwise the running daemon is asked for its listing.
    """
    from ..serve import ResultStore, ServeClient, ServeError
    if args.store:
        store = ResultStore(args.store)
        if args.clear:
            count = len(store)
            store.clear()
            print(f"cleared {count} entries from {store.root}")
            return 0
        if args.gc is not None or args.max_age is not None:
            removed = store.gc(max_entries=args.gc, max_age=args.max_age)
            print(f"evicted {removed} entries from {store.root}")
            return 0
        rows = store.entries()[-args.limit:]
    else:
        if args.clear or args.gc is not None or args.max_age is not None:
            raise SystemExit("--clear/--gc/--max-age operate on a store "
                             "directory; pass --store PATH")
        try:
            with ServeClient(socket_path=args.socket, host=args.host,
                             port=args.port or None) as client:
                rows = client.results(limit=args.limit).get("entries", [])
        except (ConnectionError, ServeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    if args.json:
        print(json.dumps({"entries": rows}, indent=2))
        return 0
    if not rows:
        print("no stored results")
        return 0
    for row in rows:
        print(f"{row['key'][:12]}  {row.get('analysis', ''):<10} "
              f"{row.get('status', ''):<22} {row.get('target', '')}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 3.

    Stock argparse exits 2 on bad flags, which would collide with the
    --check gate's exit 2 (truncated/vacuous coverage).
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Constant-time foundations for the new Spectre era — "
                    "reproduction front end")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list analyses, suites and cases")
    p_list.add_argument("--json", action="store_true")
    p_list.set_defaults(func=cmd_list)

    p_analyze = sub.add_parser(
        "analyze", help="run one analysis on one target")
    p_analyze.add_argument("target",
                           help="litmus case, case-study variant, or .s file")
    p_analyze.add_argument("-a", "--analysis", default="pitchfork",
                           help="registered analysis name "
                                "(default: pitchfork)")
    p_analyze.add_argument("--reg", action="append", metavar="NAME=VAL",
                           help="initial register (asm targets; repeatable)")
    p_analyze.add_argument("--pc", type=int, help="entry point (asm targets)")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.add_argument("--check", action="store_true",
                           help="CI gate: exit nonzero on any violation, "
                                "truncated coverage, or a vacuous pass")
    p_analyze.add_argument("--cross-check", action="store_true",
                           help="also run the speculation-passing second "
                                "opinion (repro.sps) and the pitchfork "
                                "explorer on the full question and attach "
                                "the agreement verdict; exit 3 if the two "
                                "complete runs flag different observation "
                                "sets")
    p_analyze.add_argument("--trace", metavar="FILE",
                           help="capture a span trace of the run (implies "
                                "--telemetry; inspect with `repro trace`)")
    _add_preset_flag(p_analyze)
    _add_option_flags(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_repair = sub.add_parser(
        "repair", help="synthesize a minimal mitigation (fences/SLH) and "
                       "re-verify")
    p_repair.add_argument("target",
                          help="litmus case, case-study variant, or .s file")
    p_repair.add_argument("-a", "--analysis", default="pitchfork",
                          help="verifying detector for the repair loop "
                               "(default and only option: pitchfork)")
    p_repair.add_argument("--policy", choices=("fence", "slh", "auto"),
                          help="per-site mitigation policy (default: auto — "
                               "SLH masking for v1 loads, fences otherwise)")
    p_repair.add_argument("--max-rounds", type=int,
                          help="propose→re-verify rounds before giving up")
    p_repair.add_argument("--no-shrink", dest="shrink",
                          action="store_false", default=None,
                          help="skip the delta-debugging shrink phase")
    p_repair.add_argument("--reg", action="append", metavar="NAME=VAL",
                          help="initial register (asm targets; repeatable)")
    p_repair.add_argument("--pc", type=int, help="entry point (asm targets)")
    p_repair.add_argument("--json", action="store_true")
    p_repair.add_argument("--check", action="store_true",
                          help="CI gate: exit 1 if the repaired program "
                               "still violates, 2 on truncated coverage")
    _add_preset_flag(p_repair)
    _add_option_flags(p_repair)
    p_repair.set_defaults(func=cmd_repair)

    p_litmus = sub.add_parser(
        "litmus", help="sweep litmus suites against ground truth")
    p_litmus.add_argument("suites", nargs="*",
                          help="suite names (default: all)")
    p_litmus.add_argument("--workers", type=int, default=None,
                          help="process-pool size (default: serial)")
    p_litmus.add_argument("--json", action="store_true")
    p_litmus.add_argument("--check", action="store_true",
                          help="CI gate: exit nonzero on any violation, "
                               "truncated coverage, or a vacuous pass")
    p_litmus.add_argument("--trace", metavar="FILE",
                          help="capture a span trace of the sweep "
                               "(in-process explorations only; inspect "
                               "with `repro trace`)")
    _add_option_flags(p_litmus)
    p_litmus.set_defaults(func=cmd_litmus)

    p_table2 = sub.add_parser(
        "table2", help="reproduce the Table 2 crypto audit")
    p_table2.add_argument("--workers", type=int, default=None,
                          help="process-pool size (default: serial)")
    p_table2.add_argument("--json", action="store_true")
    _add_preset_flag(p_table2)
    _add_option_flags(p_table2)
    p_table2.set_defaults(func=cmd_table2)

    def add_endpoint_flags(p):
        p.add_argument("--socket", metavar="PATH",
                       help="daemon Unix socket (default: "
                            "$REPRO_SERVE_SOCKET or a per-user temp path)")
        p.add_argument("--host", help="daemon TCP host (instead of a "
                                      "Unix socket)")
        p.add_argument("--port", type=int, default=0, help="daemon TCP port")

    p_serve = sub.add_parser(
        "serve", help="run the resident analysis daemon (warm worker "
                      "pool + persistent result store)")
    add_endpoint_flags(p_serve)
    p_serve.add_argument("--store", metavar="DIR",
                         help="persist results in this directory "
                              "(content-addressed; shared with "
                              "AnalysisManager store=)")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="warm pool size (default: CPU count)")
    p_serve.add_argument("--stop", action="store_true",
                         help="ask a running daemon to shut down")
    p_serve.add_argument("--no-drain", action="store_true",
                         help="with --stop: don't wait for in-flight jobs")
    p_serve.add_argument("--stats", action="store_true",
                         help="print a running daemon's stats and exit")
    p_serve.set_defaults(func=cmd_serve)

    p_submit = sub.add_parser(
        "submit", help="run one analysis via the daemon (analyze's "
                       "flags and exit codes)")
    p_submit.add_argument("target",
                          help="litmus case, case-study variant, or .s file")
    p_submit.add_argument("-a", "--analysis", default="pitchfork",
                          help="registered analysis name "
                               "(default: pitchfork)")
    p_submit.add_argument("--reg", action="append", metavar="NAME=VAL",
                          help="initial register (asm targets; repeatable)")
    p_submit.add_argument("--pc", type=int, help="entry point (asm targets)")
    p_submit.add_argument("--json", action="store_true")
    p_submit.add_argument("--check", action="store_true",
                          help="CI gate: exit nonzero on any violation, "
                               "truncated coverage, or a vacuous pass")
    p_submit.add_argument("--progress", action="store_true",
                          help="stream per-shard progress to stderr")
    p_submit.add_argument("--timeout", type=float, default=600.0,
                          help="give up after this many seconds (exit 3)")
    p_submit.add_argument("--trace", metavar="FILE",
                          help="capture the client-side RPC phases plus "
                               "the report's telemetry section (implies "
                               "--telemetry)")
    add_endpoint_flags(p_submit)
    _add_preset_flag(p_submit)
    _add_option_flags(p_submit)
    p_submit.set_defaults(func=cmd_submit)

    p_trace = sub.add_parser(
        "trace", help="inspect a --trace span capture")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_tsummary = trace_sub.add_parser(
        "summary", help="aggregate span counts/wall time per series")
    p_tsummary.add_argument("file", help="a --trace capture (JSONL)")
    p_tsummary.add_argument("--json", action="store_true")
    p_tsummary.set_defaults(func=cmd_trace)
    p_texport = trace_sub.add_parser(
        "export", help="convert a capture (chrome trace_event or JSONL)")
    p_texport.add_argument("file", help="a --trace capture (JSONL)")
    p_texport.add_argument("--format", choices=("chrome", "jsonl"),
                           default="chrome",
                           help="chrome: Perfetto/chrome://tracing "
                                "loadable JSON (default)")
    p_texport.add_argument("-o", "--output", metavar="FILE",
                           help="write here instead of stdout")
    p_texport.set_defaults(func=cmd_trace)

    p_results = sub.add_parser(
        "results", help="list / GC stored analysis results")
    add_endpoint_flags(p_results)
    p_results.add_argument("--store", metavar="DIR",
                           help="open this store directory directly "
                                "(no daemon needed)")
    p_results.add_argument("--limit", type=int, default=50,
                           help="show at most N newest entries")
    p_results.add_argument("--gc", type=int, metavar="N",
                           help="evict oldest entries beyond N "
                                "(needs --store)")
    p_results.add_argument("--max-age", type=float, metavar="SECONDS",
                           help="evict entries older than this "
                                "(needs --store)")
    p_results.add_argument("--clear", action="store_true",
                           help="drop every stored entry (needs --store)")
    p_results.add_argument("--json", action="store_true")
    p_results.set_defaults(func=cmd_results)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        # raise SystemExit("message") sites (unknown targets/suites,
        # bad --reg): without this, Python maps a string payload to
        # exit 1 — indistinguishable from "violation found".
        if exc.code is None or isinstance(exc.code, int):
            raise
        print(f"error: {exc.code}", file=sys.stderr)
        return 3
    except (KeyError, ValueError) as exc:
        # Bad knob values, unknown analyses/suites: a clean CLI error,
        # not a traceback.  Exit 3 keeps usage errors distinct from the
        # --check gate's exit 2 (truncated/vacuous coverage).
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
