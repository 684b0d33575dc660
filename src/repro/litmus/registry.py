"""Uniform litmus-case records.

Every test program in the suites (§4.2: "we create and analyze a set of
Spectre v1 and v1.1 test cases … based off the well-known Kocher
examples") is packaged as a :class:`LitmusCase` carrying:

* the program and a function building its initial configuration(s);
* the figure's *attack schedule*, when the case comes from a paper
  figure, so tests can replay the exact directive sequence;
* ground truth: does it leak sequentially?  speculatively?  does core
  Pitchfork (no aliasing / no indirect-target exploration) detect it,
  and does detection require forwarding-hazard mode?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..core.config import Config
from ..core.directives import Schedule
from ..core.program import Program


@dataclass(frozen=True)
class LitmusCase:
    """One litmus test program with ground-truth expectations."""

    name: str
    variant: str                   #: "v1", "v1.1", "v4", "v2", "ret2spec", …
    description: str
    program: Program
    make_config: Callable[[], Config]
    figure: Optional[str] = None   #: e.g. "Fig 1"
    attack_schedule: Optional[Schedule] = None
    leaks_sequentially: bool = False
    leaks_speculatively: bool = True
    #: Detected by the tool as evaluated in the paper (no aliasing /
    #: indirect-target exploration)?
    detected_by_core_tool: bool = True
    #: Detection requires forwarding-hazard (v4) exploration?
    needs_fwd_hazards: bool = False
    #: Needs the §3.5 aliasing-prediction extension?
    needs_aliasing: bool = False
    #: Extended exploration targets for v2/ret2spec cases.
    jmpi_targets: Tuple[int, ...] = ()
    rsb_targets: Tuple[int, ...] = ()
    rsb_policy: str = "directive"
    #: Smallest speculation bound at which the tool finds the leak
    #: (loop-carried gadgets need deeper windows — §4.2's motivation for
    #: the bound-250 configuration).
    min_bound: int = 12

    def config(self) -> Config:
        return self.make_config()


_SUITES: Dict[str, Callable[[], List[LitmusCase]]] = {}


def suite(name: str):
    """Decorator registering a suite factory under ``name``."""
    def register(fn: Callable[[], List[LitmusCase]]):
        _SUITES[name] = fn
        return fn
    return register


def _import_suites() -> None:
    """Import every suite module: importing one registers its suite."""
    from . import aliasing, diffregress, haystack, kocher  # noqa: F401
    from . import spec_rsb, spec_v1, spec_v11, spec_v4  # noqa: F401


class _Registry(NamedTuple):
    """Every suite's cases, built once from one state of ``_SUITES``."""

    factories: Dict[str, Callable[[], List[LitmusCase]]]
    suites: Dict[str, Tuple[LitmusCase, ...]]   #: by suite, sorted names
    cases: Tuple[LitmusCase, ...]
    by_name: Dict[str, LitmusCase]               #: first case of a name


_built: Optional[_Registry] = None


def _registry() -> _Registry:
    """The registry, built on the first call and whenever ``_SUITES``
    has changed since (a suite registered later).

    The cases are immutable values (frozen records, a ``Program`` has
    no mutators, each ``make_config()`` call builds a fresh ``Config``),
    so every caller may share them.
    """
    global _built
    if _built is None or _built.factories != _SUITES:
        _import_suites()
        factories = dict(_SUITES)
        suites = {name: tuple(factory())
                  for name, factory in sorted(factories.items())}
        cases = tuple(case for group in suites.values() for case in group)
        by_name: Dict[str, LitmusCase] = {}
        for case in cases:
            by_name.setdefault(case.name, case)
        _built = _Registry(factories, suites, cases, by_name)
    return _built


def load_suite(name: str) -> List[LitmusCase]:
    """The cases of a registered suite, by name."""
    return list(_registry().suites[name])


def all_suites() -> Dict[str, List[LitmusCase]]:
    return {name: list(cases)
            for name, cases in _registry().suites.items()}


def all_cases() -> List[LitmusCase]:
    return list(_registry().cases)


def find_case(name: str) -> LitmusCase:
    return _registry().by_name[name]


def expected_repair_status(case: LitmusCase) -> str:
    """Ground-truth outcome of ``repro repair`` on a litmus case.

    * ``"already-secure"`` — nothing to do;
    * ``"repaired"`` — the speculative leak is closed by per-site
      mitigation and the result re-verifies clean;
    * ``"sequential-residual"`` — the case violates *classical*
      constant time (it leaks under the sequential schedule), which no
      speculation barrier can mend: repair removes the
      speculation-introduced leaks and reports the architectural
      residue.
    """
    if case.leaks_sequentially:
        return "sequential-residual"
    if case.leaks_speculatively:
        return "repaired"
    return "already-secure"
