"""``symbolic`` is an alias of ``pitchfork``.

No front end (CLI target, litmus case, case study, daemon submission)
can build a symbolic input, so the symbolic back end only ever ran a
second, all-branches-delayed enumeration of concrete targets — one
that called five flagged registry cases secure.  The name now resolves
to the concrete explorer; these tests pin that every registry case
gets the same verdict, coverage and violations under both names, from
the library and from the CLI.
"""

import json

import pytest

import repro.engine as engine
import repro.pitchfork as pitchfork
from repro.api import AnalysisOptions, Project
from repro.api.cli import main
from repro.litmus import all_cases


def _verdict(report):
    """What both names must agree on: the verdict, the coverage and
    the set of secret-labelled observations flagged."""
    return (report.secure, report.truncated,
            sorted({v["observation"] for v in report.violations}))


@pytest.mark.parametrize("case", all_cases(), ids=lambda c: c.name)
def test_symbolic_matches_pitchfork(case, capsys):
    project = Project.from_litmus(case)
    assert _verdict(project.run("symbolic", stop_at_first=False)) == \
        _verdict(project.run("pitchfork", stop_at_first=False))
    runs = {}
    for name in ("symbolic", "pitchfork"):
        code = main(["analyze", case.name, "-a", name, "--json"])
        runs[name] = (code, json.loads(capsys.readouterr().out)["secure"])
    assert runs["symbolic"] == runs["pitchfork"]


def test_list_prints_the_alias(capsys):
    assert main(["list"]) == 0
    assert "symbolic -> pitchfork" in capsys.readouterr().out


def test_the_back_end_is_gone():
    for name in ("analyze_symbolic", "SymbolicRunner",
                 "enumerate_schedule_tree"):
        assert not hasattr(pitchfork, name), name
    assert not hasattr(engine, "ScheduleTree")
    for knob in ("max_schedules", "max_worlds"):
        with pytest.raises(TypeError):
            AnalysisOptions(**{knob: 1})
