"""One answer per request, whichever door and tier gives it.

A request is a project (its options and the preset it was built with)
plus keyword overrides.  ``Project.run`` answers it directly; the
:class:`~repro.api.manager.AnalysisManager` and the serve daemon answer
it through their memory and store tiers, where requests that differ
only in how they split into preset and overrides share one store key
and so get each other's cached reports.  Each answer must equal the
direct one modulo wall-clock fields (``strip_volatile``, which also
drops the daemon's ``details.cache``), ``*_ignored`` details included.

The requests run through one manager or daemon in every rotation of
their order, so each request is computed (when it comes first of its
key) and answered from reports other requests of its key left in
memory or in the store.
"""

from dataclasses import fields

import pytest

from repro.api import AnalysisManager, AnalysisOptions, Project
from repro.litmus import find_case
from repro.serve import ServeClient, start_in_thread, strip_volatile

CASE = find_case("kocher_01")
ANALYSES = ("pitchfork", "sps", "metatheory")
PLAIN = {"kind": "name", "name": CASE.name}


def _back_to_own_knobs():
    """Overrides that take the ``table2`` preset back to the case's own
    knobs: the plain request's store key, other knobs set."""
    own, table2 = AnalysisOptions.for_case(CASE), AnalysisOptions.table2()
    return {f.name: getattr(own, f.name) for f in fields(AnalysisOptions)
            if getattr(own, f.name) != getattr(table2, f.name)}


#: name -> (project, daemon target spec, overrides).  A daemon target
#: is a name with an optional named preset, so a project built with
#: ``bound=5`` in its options has no daemon spelling.
REQUESTS = {
    "plain": (Project.from_litmus(CASE), PLAIN, {}),
    "bound-override": (Project.from_litmus(CASE), PLAIN, {"bound": 5}),
    "bound-in-options": (Project.from_litmus(
        CASE, options=AnalysisOptions.for_case(CASE, bound=5)), None, {}),
    "bound-with-options": (
        Project.from_litmus(CASE).with_options(bound=5), None, {}),
    "table2-back": (Project.from_litmus(
        CASE, options=AnalysisOptions.table2()),
        {**PLAIN, "preset": "table2"}, _back_to_own_knobs()),
}


def _rotations(names):
    """Each order of ``names`` that keeps their cycle."""
    return [names[k:] + names[:k] for k in range(len(names))]


def _stripped(report):
    return strip_volatile(report.to_dict())


def _direct(analysis):
    return {name: _stripped(project.run(analysis, **overrides))
            for name, (project, _, overrides) in REQUESTS.items()}


def _manager_run(manager, name):
    """The manager's answer to request ``name`` and the tier that gave
    it."""
    project, _, overrides = REQUESTS[name]
    before = manager.cache_info.to_dict()
    (report,) = manager.run([project], **overrides)
    after = manager.cache_info.to_dict()
    source = {"hits": "memory", "disk_hits": "store",
              "misses": "computed"}
    (moved,) = [source[k] for k in source if after[k] != before[k]]
    return report, moved


@pytest.mark.parametrize("analysis", ANALYSES)
def test_the_manager_gives_the_direct_answer(analysis, tmp_path):
    direct = _direct(analysis)
    seen = {name: set() for name in REQUESTS}
    for n, order in enumerate(_rotations(list(REQUESTS))):
        store = str(tmp_path / f"store-{n}")
        manager = AnalysisManager(analysis, store=store)
        for name in order + order:
            report, source = _manager_run(manager, name)
            assert _stripped(report) == direct[name], (name, source)
            seen[name].add(source)
        for name in order:
            report, source = _manager_run(
                AnalysisManager(analysis, store=store), name)
            assert source == "store"
            assert _stripped(report) == direct[name], (name, source)
            seen[name].add(source)
    assert all(sources == {"computed", "memory", "store"}
               for sources in seen.values()), seen

    folded = [project.with_options(**overrides)
              for project, _, overrides in REQUESTS.values()]
    parallel = AnalysisManager(analysis, workers=2).run(folded)
    assert [_stripped(report) for report in parallel] \
        == [direct[name] for name in REQUESTS]


@pytest.mark.parametrize("analysis", ANALYSES)
def test_a_batch_computes_each_key_once(analysis, tmp_path):
    """Duplicates in one batch share one computation, and each is still
    restated for its own request."""
    direct = _direct(analysis)
    plain = REQUESTS["plain"][0]
    manager = AnalysisManager(analysis)
    reports = manager.run([plain, plain, Project.from_litmus(CASE.name)])
    assert manager.cache_info.misses == 1
    assert [_stripped(r) for r in reports] == [direct["plain"]] * 3

    folded = [project.with_options(**overrides)
              for project, _, overrides in REQUESTS.values()]
    for workers in (None, 2):
        manager = AnalysisManager(analysis, workers=workers,
                                  store=str(tmp_path / f"s-{workers}"))
        reports = manager.run(folded + folded[::-1])
        info = manager.cache_info
        assert (info.misses, info.stores, info.size) == (2, 2, 2)
        names = list(REQUESTS) + list(REQUESTS)[::-1]
        assert [_stripped(r) for r in reports] \
            == [direct[name] for name in names]


def test_the_daemon_gives_the_direct_answer(tmp_path):
    direct = {analysis: _direct(analysis) for analysis in ANALYSES}
    served = [name for name in REQUESTS if REQUESTS[name][1] is not None]
    seen = {(analysis, name): set()
            for analysis in ANALYSES for name in served}
    socket = str(tmp_path / "d.sock")

    def submit(client, analysis, name):
        _, spec, overrides = REQUESTS[name]
        report, cache = client.submit_and_wait(spec, analysis=analysis,
                                               options=overrides)
        assert _stripped(report) == direct[analysis][name], \
            (analysis, name, cache["source"])
        seen[analysis, name].add(cache["source"])
        return cache["source"]

    for n, order in enumerate(_rotations(served)):
        store = str(tmp_path / f"store-{n}")
        with start_in_thread(socket_path=socket, store=store, workers=1):
            with ServeClient(socket_path=socket) as client:
                for analysis in ANALYSES:
                    for name in order:
                        submit(client, analysis, name)
                        assert submit(client, analysis, name) == "memory"
        with start_in_thread(socket_path=socket, store=store, workers=1):
            with ServeClient(socket_path=socket) as client:
                for analysis in ANALYSES:
                    for name in order:
                        assert submit(client, analysis, name) \
                            in ("store", "memory")
    assert all(sources == {"computed", "memory", "store"}
               for sources in seen.values()), seen
