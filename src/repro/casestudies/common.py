"""Shared machinery for the Table 2 case studies.

Each case study provides a **C** variant and a **FaCT** variant (the two
columns of Table 2) with a ground-truth flag:

* ``"clean"`` — Pitchfork finds nothing in either phase;
* ``"v1"``    — flagged in phase 1 (no forwarding hazards, big bound);
* ``"f"``     — clean in phase 1, flagged only with forwarding-hazard
  detection at the reduced bound (the paper's ``f`` mark).

``evaluate_variant`` runs the paper's §4.2.1 two-phase procedure and
classifies the outcome, so benchmarks and tests can diff the produced
table against the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..core.config import Config
from ..core.program import Program

#: Default bounds for reproducing Table 2.  The paper used 250/20; the
#: ported kernels are much smaller than compiled x86 functions, so a
#: scaled-down phase-1 bound keeps path counts tractable while the
#: phase-2 bound matches the paper's 20.  (secretbox's Fig 9 gadget
#: needs ≥ 24 in-flight instructions — see bench_scaling_bounds.)
#: Canonical values live in :mod:`repro.api.project`; re-exported here
#: for backwards compatibility.
from ..api.project import TABLE2_BOUND_FWD, TABLE2_BOUND_NO_FWD  # noqa: E402


@dataclass(frozen=True)
class CaseVariant:
    """One build of a case study (one Table 2 cell)."""

    name: str                 #: e.g. "secretbox-c"
    language: str             #: "c" or "fact"
    program: Program
    make_config: Callable[[], Config]
    expected: str             #: "clean" | "v1" | "f"
    notes: str = ""

    def config(self) -> Config:
        return self.make_config()


@dataclass(frozen=True)
class CaseStudy:
    """A Table 2 row: the same routine in both build modes."""

    name: str
    description: str
    c: CaseVariant
    fact: CaseVariant

    def variants(self) -> Tuple[CaseVariant, CaseVariant]:
        return (self.c, self.fact)


def _table2_options(bound_no_fwd: int, bound_fwd: int, max_paths: int):
    from ..api import AnalysisOptions
    return AnalysisOptions.table2(bound_no_fwd=bound_no_fwd,
                                  bound_fwd=bound_fwd, max_paths=max_paths)


def evaluate_variant(variant: CaseVariant,
                     bound_no_fwd: int = TABLE2_BOUND_NO_FWD,
                     bound_fwd: int = TABLE2_BOUND_FWD,
                     max_paths: int = 20_000) -> str:
    """Run the paper's two-phase procedure; classify as clean/v1/f.

    Deprecated shim: delegates to the ``two-phase`` analysis of
    :mod:`repro.api` (``Project.from_variant(v).run("two-phase")``).
    """
    from ..api import Project
    options = _table2_options(bound_no_fwd, bound_fwd, max_paths)
    project = Project.from_variant(variant, options=options)
    return project.run("two-phase").status


def table2(case_studies, workers: Optional[int] = None,
           **kw) -> Dict[str, Dict[str, str]]:
    """Reproduce Table 2: {case: {"C": flag, "FaCT": flag}}.

    Deprecated shim over :class:`repro.api.AnalysisManager`; pass
    ``workers=N`` to audit the table on a process pool.
    """
    from ..api import AnalysisManager, Project
    unknown = set(kw) - {"bound_no_fwd", "bound_fwd", "max_paths"}
    if unknown:
        raise TypeError(f"table2() got unexpected keyword arguments "
                        f"{sorted(unknown)}")
    options = _table2_options(kw.get("bound_no_fwd", TABLE2_BOUND_NO_FWD),
                              kw.get("bound_fwd", TABLE2_BOUND_FWD),
                              kw.get("max_paths", 20_000))
    manager = AnalysisManager("two-phase", workers=workers)
    case_studies = list(case_studies)
    projects = [Project.from_variant(v, options=options)
                for cs in case_studies for v in cs.variants()]
    reports = manager.run(projects)
    out: Dict[str, Dict[str, str]] = {}
    for cs, (c_report, fact_report) in zip(
            case_studies, zip(reports[::2], reports[1::2])):
        out[cs.name] = {"C": c_report.status, "FaCT": fact_report.status}
    return out


def repair_variant(variant: CaseVariant,
                   bound: int = TABLE2_BOUND_FWD,
                   policy: str = "auto",
                   max_paths: int = 20_000):
    """Run mitigation synthesis on a Table 2 cell.

    Turns every case study into a repair scenario: the returned
    :class:`~repro.api.Report` carries the ``mitigation`` certificate —
    fences/SLH masks placed vs the blanket baseline, and the
    sequential-step overhead of the hardened kernel.
    """
    from ..api import AnalysisOptions, Project
    options = AnalysisOptions.table2(bound=bound, policy=policy,
                                     max_paths=max_paths)
    return Project.from_variant(variant, options=options).run("repair")


def render_table2(results: Dict[str, Dict[str, str]]) -> str:
    """Format like the paper: ✓ = violation, f = forwarding-only, blank
    = clean."""
    marks = {"clean": " ", "v1": "✓", "f": "f"}
    width = max(len(name) for name in results) + 2
    lines = [f"{'Case Study':<{width}} {'C':>3} {'FaCT':>5}"]
    for name, row in results.items():
        lines.append(f"{name:<{width}} {marks[row['C']]:>3} "
                     f"{marks[row['FaCT']]:>5}")
    return "\n".join(lines)
