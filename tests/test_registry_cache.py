"""The target registry is built once per process.

Resolving a target (``find_case``, ``Project.from_litmus``,
``serve.jobs.resolve_project``) is a name lookup in records built on the
first call: every litmus suite factory and every Table 2
``case_study()`` builder runs once, however many targets are resolved.
The records are immutable values, so sharing them is safe; these tests
pin the build count and what callers may still rely on — fresh
containers, the unknown-name ``KeyError``, late-registered suites, and
target digests equal to those of freshly built records.
"""

from dataclasses import replace

import pytest

from repro import casestudies
from repro.api import Project
from repro.casestudies import (all_case_studies, donna, mee_cbc, secretbox,
                               ssl3_record)
from repro.litmus import (all_cases, all_suites, find_case, load_suite,
                          registry)
from repro.serve import fingerprint_digest, resolve_project, spec_for_name

STUDY_MODULES = (donna, secretbox, ssl3_record, mee_cbc)


def _resolvable_names():
    variants = [v.name for study in all_case_studies()
                for v in study.variants()]
    return [case.name for case in all_cases()] + variants


def _counted(build, counts, key):
    def counting():
        counts[key] = counts.get(key, 0) + 1
        return build()
    return counting


def test_each_builder_runs_once_per_process(monkeypatch):
    all_cases()                      # imports (so registers) every suite
    counts = {}
    for name, factory in list(registry._SUITES.items()):
        monkeypatch.setitem(registry._SUITES, name,
                            _counted(factory, counts, name))
    for module in STUDY_MODULES:
        monkeypatch.setattr(module, "case_study", _counted(
            module.case_study, counts, module.__name__))
    monkeypatch.setattr(casestudies, "_built", None, raising=False)

    litmus = [case.name for case in all_cases()]
    for _ in range(2):
        for name in _resolvable_names():
            assert resolve_project(spec_for_name(name)).name == name
        for name in litmus:
            assert find_case(name).name == name

    expected = {name: 1 for name in registry._SUITES}
    expected.update({module.__name__: 1 for module in STUDY_MODULES})
    assert counts == expected


def test_returned_containers_are_fresh():
    cases = all_cases()
    count = len(cases)
    cases.clear()
    assert len(all_cases()) == count

    suites = all_suites()
    suites["kocher"].clear()
    del suites["spec_v1"]
    again = all_suites()
    assert len(again["kocher"]) == 15 and "spec_v1" in again

    kocher = load_suite("kocher")
    kocher.append(None)
    assert len(load_suite("kocher")) == 15

    studies = all_case_studies()
    studies.clear()
    assert len(all_case_studies()) == 4


def test_unknown_name_raises_keyerror():
    with pytest.raises(KeyError) as info:
        find_case("no_such_case")
    assert info.value.args == ("no_such_case",)
    with pytest.raises(KeyError) as info:
        resolve_project(spec_for_name("no_such_case"))
    assert info.value.args == (
        "unknown target 'no_such_case': not a case-study variant or "
        "litmus case (try `repro list`)",)


def test_suite_registered_after_the_first_build_is_seen():
    all_cases()
    late = replace(find_case("kocher_01"), name="zz_late_case")
    # A litmus case named like a Table 2 cell: the variant still wins.
    shadow = replace(find_case("kocher_01"), name="secretbox-c")
    registry.suite("zz_late")(lambda: [late, shadow])
    try:
        assert find_case("zz_late_case") is late
        assert all_suites()["zz_late"] == [late, shadow]
        assert all_cases()[-2:] == [late, shadow]
        assert resolve_project(spec_for_name("secretbox-c")).expected \
            == "v1"                  # the shadow's would be "flagged"
    finally:
        del registry._SUITES["zz_late"]
    assert "zz_late" not in all_suites()
    with pytest.raises(KeyError):
        find_case("zz_late_case")


def test_digests_match_freshly_built_records():
    names = _resolvable_names()      # registers every suite
    fresh = {}
    for _, factory in sorted(registry._SUITES.items()):
        for case in factory():
            fresh.setdefault(case.name, Project.from_litmus(case))
    for module in STUDY_MODULES:
        for variant in module.case_study().variants():
            fresh[variant.name] = Project.from_variant(variant)
    assert sorted(fresh) == sorted(names)
    for name in names:
        assert fingerprint_digest(resolve_project(spec_for_name(name))) \
            == fingerprint_digest(fresh[name]), name
