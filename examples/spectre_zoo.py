#!/usr/bin/env python3
"""The Spectre zoo: replay every attack figure of the paper.

For each litmus case derived from a figure (1, 2, 6, 7, 11, 12, 13) the
script replays the paper's exact directive schedule, prints the leakage
trace, and cross-checks Pitchfork's verdict — including the cases the
core tool is blind to (v2/ret2spec/aliasing) until the extended
exploration is switched on.

Run:  python examples/spectre_zoo.py
"""

from repro.api import Project
from repro.core import Machine, render_execution, run, secret_observations
from repro.litmus import all_cases


def main() -> None:
    figure_cases = [c for c in all_cases() if c.figure]
    figure_cases.sort(key=lambda c: int(c.figure.split()[-1]))
    for case in figure_cases:
        print("=" * 72)
        print(f"{case.figure}: {case.name} [{case.variant}]")
        print(case.description)
        print("-" * 72)
        # Project.from_litmus mirrors the case's ground-truth knobs
        # (bound, fwd hazards, aliasing, indirect targets) into options.
        project = Project.from_litmus(case)
        if case.attack_schedule:
            machine = Machine(project.program,
                              rsb_policy=project.options.rsb_policy)
            res = run(machine, project.config(), case.attack_schedule)
            print(render_execution(res, show_quiet_steps=False))
            leaks = secret_observations(res.trace)
            print(f"  secret observations: {leaks or 'none'}")

        # The core tool, as evaluated in the paper: no aliasing
        # prediction, no mistrained indirect targets.
        core = project.analyses.pitchfork(explore_aliasing=False,
                                          jmpi_targets=(), rsb_targets=())
        verdict = "FLAGGED" if not core.ok else "clean"
        print(f"  Pitchfork (core):     {verdict}")
        if case.jmpi_targets or case.rsb_targets or case.needs_aliasing:
            extended = project.analyses.pitchfork()
            verdict = "FLAGGED" if not extended.ok else "clean"
            print(f"  Pitchfork (extended): {verdict}")
    print("=" * 72)


if __name__ == "__main__":
    main()
