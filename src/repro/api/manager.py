"""Batch execution: one analysis across many projects.

The :class:`AnalysisManager` is what turns the Table 2 audit and the
litmus sweeps from serial loops into a worker-pool fan-out:

* ``workers=N`` runs tasks on a ``ProcessPoolExecutor`` (results are
  identical to the serial path — each task is a pure function of
  (program, config, options));
* a :class:`~repro.serve.store.ReportCache` keyed on the
  *cross-process stable* store key of (analysis, target digest,
  canonical options) (see :mod:`repro.serve.keys`) makes repeated
  sweeps (bound ablations, re-renders) free;
* ``store=`` adds a second, persistent tier under that memory map — a
  :class:`~repro.serve.store.ResultStore` shared with the serve daemon
  — so batch runs survive process restarts: a rerun of yesterday's
  sweep reads yesterday's reports off disk instead of re-exploring.

Lookup order is memory → disk → compute, once per distinct key of a
batch; every tier's traffic is counted in :class:`CacheInfo`
(``hits``/``disk_hits``/``misses``/``stores``) so cache effectiveness
is observable, not guessed.  Every answer, whichever tier gave it,
then carries the ``*_ignored`` details of its own request
(:func:`~repro.api.analyses.restate_ignored`).

Projects are shipped to workers as plain ``(name, program, config,
options)`` payloads, options already resolved — the configuration is
materialised in the parent, so ``make_config`` closures never need to
pickle.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..obs import ambient_tracer
from .analyses import get_analysis, restate_ignored
from .project import AnalysisOptions, Project
from .report import Report


def _run_payload(analysis_name: str, name: str, program, config,
                 options: AnalysisOptions) -> Report:
    """Worker entry point: rebuild the project and run the analysis
    under ``options``.

    The rebuilt project's preset is ``options`` itself, so the report
    says nothing ignored; the parent restates that for the caller's
    project.  Module-level (not a closure) so it pickles under every
    multiprocessing start method.
    """
    project = Project(program, config, name=name, options=options)
    return get_analysis(analysis_name).run(project)


@dataclass
class CacheInfo:
    """Hit/miss counters for the manager's result-cache tiers.

    ``hits`` counts the in-memory tier, ``disk_hits`` the persistent
    :class:`~repro.serve.store.ResultStore` tier, ``misses`` actual
    computations, ``stores`` reports written to disk.  Calling the
    object returns itself, so both the historical ``manager.cache_info``
    attribute style and the ``manager.cache_info()`` method style read
    the same counters.
    """

    hits: int = 0
    misses: int = 0
    size: int = 0
    disk_hits: int = 0
    stores: int = 0

    def __call__(self) -> "CacheInfo":
        return self

    def to_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "size": self.size, "disk_hits": self.disk_hits,
                "stores": self.stores}


class AnalysisManager:
    """Run one registered analysis over many projects, cached and
    optionally in parallel.

        manager = AnalysisManager("two-phase", workers=4,
                                  store="~/.cache/repro-store")
        reports = manager.run(projects)

    ``store`` (a :class:`~repro.serve.store.ResultStore` or a directory
    path) persists every computed report under its content address and
    serves warm reruns from disk — including reports computed by other
    processes (a serve daemon, yesterday's batch) against the same
    store.
    """

    def __init__(self, analysis: str = "pitchfork",
                 workers: Optional[int] = None,
                 store: Optional[Union[str, "ResultStore"]] = None):
        from ..serve.store import ReportCache, ResultStore
        self._analysis = get_analysis(analysis)
        self.analysis = self._analysis.name
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        if isinstance(store, str):
            store = ResultStore(store)
        self.store = store
        self._cache = ReportCache(store)
        self._misses = 0

    # -- the batch entry point -----------------------------------------------

    def run(self, projects: Iterable[Project], **overrides) -> List[Report]:
        """Run the analysis on every project, in input order, each
        under its own options with the keyword overrides applied."""
        from ..serve.keys import fingerprint_digest, store_key
        projects = list(projects)
        tracer = ambient_tracer()
        run_ts = tracer.start() if tracer.enabled else 0.0
        memory_before = self._cache.memory_hits
        disk_before = self._cache.store_hits
        options = [project.options.with_(**overrides)
                   for project in projects]
        keys = [store_key(self.analysis, fingerprint_digest(project), opts)
                for project, opts in zip(projects, options)]
        # Each distinct key is looked up, and on a miss computed, once:
        # the first request of a key stands for its duplicates.
        first: Dict[str, int] = {}
        for i, key in enumerate(keys):
            first.setdefault(key, i)
        answers = {key: self._cache.get(key)[0] for key in first}
        pending = [first[key] for key, report in answers.items()
                   if report is None]
        self._misses += len(pending)
        fresh = self._execute([(projects[i].name, projects[i].program,
                                projects[i].config(), options[i])
                               for i in pending])
        for i, report in zip(pending, fresh):
            answers[keys[i]] = report
            self._cache.put(keys[i], report, analysis=self.analysis)
        reports = [answers[key] for key in keys]
        if tracer.enabled:
            # One span per batch: which tier answered how many targets
            # (computed = cold misses actually executed this call).
            tracer.add("manager.run", "manager", run_ts, {
                "analysis": self.analysis,
                "projects": len(projects),
                "computed": len(pending),
                "memory_hits": self._cache.memory_hits - memory_before,
                "disk_hits": self._cache.store_hits - disk_before,
                "workers": self.workers or 1})
        return [restate_ignored(report, self._analysis.ignored(
                    project.preset, opts))
                for report, project, opts in zip(reports, projects, options)]

    def run_one(self, project: Project, **overrides) -> Report:
        return self.run([project], **overrides)[0]

    # -- execution back ends ---------------------------------------------------

    def _execute(self, payloads: Sequence[Tuple]) -> List[Report]:
        if self.workers and self.workers > 1 and len(payloads) > 1:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                futures = [pool.submit(_run_payload, self.analysis, *p)
                           for p in payloads]
                return [f.result() for f in futures]
        return [_run_payload(self.analysis, *p) for p in payloads]

    # -- cache management -------------------------------------------------------

    @property
    def cache_info(self) -> CacheInfo:
        # Every computed report is filed in the store, when there is one.
        return CacheInfo(hits=self._cache.memory_hits, misses=self._misses,
                         size=len(self._cache),
                         disk_hits=self._cache.store_hits,
                         stores=self._misses if self.store is not None
                         else 0)

    def clear_cache(self) -> None:
        from ..serve.store import ReportCache
        self._cache = ReportCache(self.store)
        self._misses = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"AnalysisManager({self.analysis!r}, "
                f"workers={self.workers}, cached={len(self._cache)})")
