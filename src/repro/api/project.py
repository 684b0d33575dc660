"""The :class:`Project` facade — one object that owns a target under
analysis.

Modelled on angr's ``Project``: construct it from whatever you have —
a :class:`~repro.core.Program` plus :class:`~repro.core.Config`, raw
assembly source, a registered litmus-case name, or a Table 2
:class:`~repro.casestudies.CaseVariant` — and every detector in
:mod:`repro.api.analyses` becomes reachable through ``project.analyses``
with all knobs normalised into one validated :class:`AnalysisOptions`.

    >>> project = Project.from_litmus("kocher_01")
    >>> report = project.analyses.pitchfork()
    >>> report.ok
    False
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..asm import assemble
from ..core.config import Config
from ..core.memory import Memory
from ..core.program import Program
from ..mitigate.synth import SynthesisOptions

#: Default Table 2 bounds (see ``repro.casestudies.common``): the ported
#: kernels are smaller than compiled x86, so phase 1 runs at 28 instead
#: of the paper's 250; phase 2 matches the paper's 20.
TABLE2_BOUND_NO_FWD = 28
TABLE2_BOUND_FWD = 20

#: The bounds of the paper's evaluation (§4.2.1): phase 1 runs without
#: forwarding hazards at 250, phase 2 with them at 20.
PAPER_BOUND_NO_FWD = 250
PAPER_BOUND_FWD = 20


@dataclass(frozen=True)
class AnalysisOptions(SynthesisOptions):
    """Every analysis knob, normalised and validated in one place.

    The exploration knobs (``bound``, ``fwd_hazards``, ``strategy``,
    ``prune``, the caps, ...) are inherited from
    :class:`~repro.pitchfork.ExplorationOptions` and the repair loop's
    (``policy``, ``max_repair_rounds``, ``shrink``) from
    :class:`~repro.mitigate.SynthesisOptions`, which declare, document
    and check each of them once; the record is handed to the Pitchfork
    and repair layers as it is.  This class adds only what the other
    analyses read: the two-phase bounds (§4.2.1) and the SCT and
    metatheory sections.  Constructors:

    * :meth:`paper` — the paper's evaluation bounds (250/20);
    * :meth:`table2` — the scaled Table 2 bounds (28/20);
    * :meth:`for_case` — mirror a litmus case's ground-truth knobs.
    """

    # -- the two-phase procedure (§4.2.1) -----------------------------------
    bound_no_fwd: int = PAPER_BOUND_NO_FWD   #: phase 1 (v1/v1.1) bound
    bound_fwd: int = PAPER_BOUND_FWD         #: phase 2 (v4) bound

    # -- SCT (Definition 3.1) -----------------------------------------------
    sct_bound: int = 8              #: schedule-enumeration bound
    sct_max_schedules: int = 2_000

    # -- metatheory ----------------------------------------------------------
    experiments: int = 8            #: random schedules per metatheory run

    def __post_init__(self):
        super().__post_init__()
        for name in ("bound_no_fwd", "bound_fwd", "sct_bound",
                     "sct_max_schedules", "experiments"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    # -- presets -------------------------------------------------------------

    @classmethod
    def paper(cls, **kw) -> "AnalysisOptions":
        """The paper's §4.2.1 evaluation configuration (bounds 250/20)."""
        kw.setdefault("bound_no_fwd", PAPER_BOUND_NO_FWD)
        kw.setdefault("bound_fwd", PAPER_BOUND_FWD)
        kw.setdefault("bound", PAPER_BOUND_FWD)
        return cls(**kw)

    @classmethod
    def table2(cls, **kw) -> "AnalysisOptions":
        """The scaled bounds used to reproduce Table 2 (28/20)."""
        kw.setdefault("bound_no_fwd", TABLE2_BOUND_NO_FWD)
        kw.setdefault("bound_fwd", TABLE2_BOUND_FWD)
        kw.setdefault("bound", TABLE2_BOUND_NO_FWD)
        return cls(**kw)

    @classmethod
    def for_case(cls, case, **kw) -> "AnalysisOptions":
        """Mirror a :class:`~repro.litmus.LitmusCase`'s required knobs."""
        kw.setdefault("bound", case.min_bound)
        kw.setdefault("fwd_hazards", case.needs_fwd_hazards)
        kw.setdefault("explore_aliasing", case.needs_aliasing)
        kw.setdefault("jmpi_targets", case.jmpi_targets)
        kw.setdefault("rsb_targets", case.rsb_targets)
        kw.setdefault("rsb_policy", case.rsb_policy)
        kw.setdefault("max_paths", 8_000)
        return cls(**kw)


#: The named options presets (``--preset``, daemon job specs).
PRESETS: Dict[str, Callable[[], AnalysisOptions]] = {
    "paper": AnalysisOptions.paper,
    "table2": AnalysisOptions.table2,
}


class Project:
    """A target under analysis: program + initial configuration + options.

    The front door of the reproduction.  All knobs live in
    :attr:`options`; all detectors hang off :attr:`analyses`.
    """

    def __init__(self, program: Program,
                 config: Optional[Config] = None, *,
                 make_config: Optional[Callable[[], Config]] = None,
                 name: str = "<project>",
                 options: Optional[AnalysisOptions] = None,
                 expected: Optional[str] = None,
                 description: str = ""):
        if (config is None) == (make_config is None):
            raise ValueError("provide exactly one of config= / make_config=")
        self.program = program
        self.name = name
        self.options = options if options is not None else AnalysisOptions()
        #: The options the project was built with (its case's knobs, the
        #: Table 2 bounds, a named preset or the caller's ``options=``);
        #: :meth:`with_options` keeps it.  An analysis reports a knob it
        #: ignores only when the run's value differs from this.
        self.preset = self.options
        #: Ground truth when known: "clean"/"v1"/"f" for Table 2 variants,
        #: or a litmus case's expected flagging.
        self.expected = expected
        self.description = description
        self._config = config
        self._make_config = make_config

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_asm(cls, source: str, *,
                 regs: Optional[Dict[str, Any]] = None,
                 mem: Optional[Memory] = None,
                 pc: Optional[int] = None,
                 name: str = "<asm>",
                 options: Optional[AnalysisOptions] = None,
                 expected: Optional[str] = None) -> "Project":
        """Assemble raw source (via :mod:`repro.asm`) into a project."""
        program = assemble(source)
        config = Config.initial(regs or {}, mem if mem is not None
                                else Memory(),
                                pc if pc is not None else program.entry)
        return cls(program, config, name=name, options=options,
                   expected=expected)

    @classmethod
    def from_litmus(cls, case, *,
                    options: Optional[AnalysisOptions] = None) -> "Project":
        """From a registered litmus case, by name or record.

        Raises ``KeyError`` for unknown names (via
        :func:`repro.litmus.find_case`).  The project's options mirror
        the case's ground-truth knobs unless overridden.
        """
        from ..litmus import LitmusCase, find_case
        if not isinstance(case, LitmusCase):
            case = find_case(case)
        expected = ("flagged" if case.leaks_speculatively
                    or case.leaks_sequentially else "clean")
        return cls(case.program, make_config=case.make_config,
                   name=case.name,
                   options=options if options is not None
                   else AnalysisOptions.for_case(case),
                   expected=expected, description=case.description)

    @classmethod
    def from_variant(cls, variant, *,
                     options: Optional[AnalysisOptions] = None) -> "Project":
        """From a Table 2 :class:`~repro.casestudies.CaseVariant`."""
        return cls(variant.program, make_config=variant.make_config,
                   name=variant.name,
                   options=options if options is not None
                   else AnalysisOptions.table2(),
                   expected=variant.expected, description=variant.notes)

    # -- accessors -----------------------------------------------------------

    def config(self) -> Config:
        """A fresh initial configuration."""
        return self._config if self._config is not None \
            else self._make_config()

    @property
    def analyses(self):
        """Attribute access to every registered analysis, bound to this
        project: ``project.analyses.pitchfork(bound=12)``."""
        from .analyses import AnalysisHub
        return AnalysisHub(self)

    def run(self, analysis: str = "pitchfork", **overrides):
        """Run a registered analysis by name; returns a
        :class:`~repro.api.report.Report`."""
        from .analyses import get_analysis
        return get_analysis(analysis).run(self, **overrides)

    # -- identity (result-cache keys) ----------------------------------------

    def fingerprint(self) -> Tuple:
        """A value-based identity for (program, initial config).

        Two projects with equal fingerprints run identically under equal
        options — the contract the :class:`~repro.api.manager
        .AnalysisManager` cache relies on.
        """
        program = tuple((n, repr(instr)) for n, instr in self.program.items())
        return (self.name, self.program.entry, program, self.config())

    def with_options(self, **kw) -> "Project":
        """A copy of this project with updated options (and the same
        :attr:`preset`)."""
        project = Project(self.program, self._config,
                          make_config=self._make_config, name=self.name,
                          options=self.options.with_(**kw),
                          expected=self.expected,
                          description=self.description)
        project.preset = self.preset
        return project

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Project({self.name!r}, {len(self.program)} instrs, "
                f"bound={self.options.bound})")
