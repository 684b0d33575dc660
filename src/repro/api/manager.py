"""Batch execution: one analysis across many projects.

The :class:`AnalysisManager` is what turns the Table 2 audit and the
litmus sweeps from serial loops into a worker-pool fan-out:

* ``workers=N`` runs tasks on a ``ProcessPoolExecutor`` (results are
  identical to the serial path — each task is a pure function of
  (program, config, options));
* an in-memory result cache keyed on the *cross-process stable*
  ``(analysis, target digest, canonical options)`` key (see
  :mod:`repro.serve.keys`) makes repeated sweeps (bound ablations,
  re-renders) free;
* ``store=`` adds a second, persistent tier — a
  :class:`~repro.serve.store.ResultStore` shared with the serve daemon
  — so batch runs survive process restarts: a rerun of yesterday's
  sweep reads yesterday's reports off disk instead of re-exploring.

Lookup order is memory → disk → compute; every tier's traffic is
counted in :class:`CacheInfo` (``hits``/``disk_hits``/``misses``/
``stores``) so cache effectiveness is observable, not guessed.

Projects are shipped to workers as plain ``(name, program, config,
options)`` payloads — the configuration is materialised in the parent,
so ``make_config`` closures never need to pickle.
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
                 options: AnalysisOptions, overrides: Dict) -> Report:
    """Worker entry point: rebuild the project and run the analysis
    with the per-call ``overrides`` (which it reports when it ignores
    them).

    Module-level (not a closure) so it pickles under every
    multiprocessing start method.
    """
    project = Project(program, config, name=name, options=options)
    return get_analysis(analysis_name).run(project, **overrides)


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
                 cache: bool = True,
                 store: Optional[Union[str, "ResultStore"]] = None):
        self._analysis = get_analysis(analysis)
        self.analysis = self._analysis.name
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._cache_enabled = cache
        self._cache: Dict[Tuple, Report] = {}
        self._info = CacheInfo()
        if isinstance(store, str):
            from ..serve.store import ResultStore
            store = ResultStore(store)
        self.store = store

    # -- the batch entry point -----------------------------------------------

    def run(self, projects: Iterable[Project],
            options: Optional[AnalysisOptions] = None,
            **overrides) -> List[Report]:
        """Run the analysis on every project, in input order.

        Each project runs under its own options unless ``options`` (a
        shared override) or keyword overrides are given.
        """
        projects = list(projects)
        tracer = ambient_tracer()
        run_ts = tracer.start() if tracer.enabled else 0.0
        hits_before = self._info.hits
        disk_before = self._info.disk_hits
        payloads = [(project.name, project.program, project.config(),
                     options if options is not None else project.options,
                     overrides)
                    for project in projects]
        keys = [self._key(project, base.with_(**overrides))
                for project, (_, _, _, base, _) in zip(projects, payloads)]

        results: Dict[int, Report] = {}
        pending: List[int] = []
        for i, key in enumerate(keys):
            if not self._cache_enabled:
                pending.append(i)
                continue
            cached = self._cache.get(key)
            if cached is not None:
                self._info.hits += 1
            else:
                cached = self._from_store(key)
                if cached is None:
                    pending.append(i)
                    continue
                self._info.disk_hits += 1
                self._cache[key] = cached
            # The worker's project is built with the payload's options
            # as its preset (see _run_payload).
            base = payloads[i][3]
            details = restate_ignored(cached.details, self._analysis.ignored(
                base, base.with_(**overrides)))
            results[i] = cached if details is cached.details \
                else cached.with_(details=details)
        self._info.misses += len(pending)

        if pending:
            fresh = self._execute([payloads[i] for i in pending])
            for i, report in zip(pending, fresh):
                results[i] = report
                if self._cache_enabled:
                    self._cache[keys[i]] = report
                self._to_store(keys[i], report)
        self._info.size = len(self._cache)
        if tracer.enabled:
            # One span per batch: which tier answered how many targets
            # (computed = cold misses actually executed this call).
            tracer.add("manager.run", "manager", run_ts, {
                "analysis": self.analysis,
                "projects": len(projects),
                "computed": len(pending),
                "memory_hits": self._info.hits - hits_before,
                "disk_hits": self._info.disk_hits - disk_before,
                "workers": self.workers or 1})
        return [results[i] for i in range(len(projects))]

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

    # -- the persistent tier ---------------------------------------------------

    def _from_store(self, key: Tuple) -> Optional[Report]:
        if self.store is None:
            return None
        return self.store.get(self._store_key(key))

    def _to_store(self, key: Tuple, report: Report) -> None:
        if self.store is None:
            return
        self.store.put(self._store_key(key), report,
                       analysis=self.analysis)
        self._info.stores += 1

    @staticmethod
    def _store_key(key: Tuple) -> str:
        from ..serve.keys import store_key
        analysis, fingerprint, canon = key
        return store_key(analysis, fingerprint, canon)

    # -- cache management -------------------------------------------------------

    def _key(self, project: Project, options: AnalysisOptions) -> Tuple:
        """The cross-process stable cache key.

        Canonical options (sorted non-default fields) + the SHA-256
        target digest: equivalent option objects and identical targets
        built in different processes map to the same key, which is what
        lets the disk tier serve results computed elsewhere.
        """
        from ..serve.keys import canonical_options, fingerprint_digest
        return (self.analysis, fingerprint_digest(project),
                canonical_options(options))

    @property
    def cache_info(self) -> CacheInfo:
        return self._info

    def clear_cache(self) -> None:
        self._cache.clear()
        self._info = CacheInfo()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"AnalysisManager({self.analysis!r}, "
                f"workers={self.workers}, cached={len(self._cache)})")
