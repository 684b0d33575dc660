"""Executable metatheory: empirical checks of Appendix B.

Each check runs one randomized experiment and returns a
:class:`TheoremCheck` (ok + context).  The property tests and the
metatheory benchmark drive these over hundreds of random programs:

* **Determinism** (Lemma B.1): one (configuration, directive) pair steps
  to exactly one successor and leakage.
* **Sequential equivalence** (Thm 3.2 / B.7): any well-formed schedule's
  outcome is ``≈``-equivalent to the canonical sequential execution with
  the same number of retires — and equal when terminal.
* **Consistency** (Cor. B.8): any two terminal executions agree.
* **Label stability** (Thm B.9): a speculative trace free of label ℓ
  implies the sequential trace is also free of ℓ.
* **Tool soundness** (Thm B.20): if a random schedule (bounded by n)
  leaks a secret, some tool schedule DT(n) leaks one too.

Every check takes the machine as its first argument and only steps it
through ``run``/``run_sequential``, so a counting
:class:`repro.engine.ExecutionEngine` can stand in for the machine and
the checks' total step work surfaces through ``api.Report`` (the
``metatheory`` analysis does exactly this).  The determinism check
deliberately unwraps an engine for its second replay: answering it
from a step cache whose soundness presumes determinism would be
circular.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core.config import Config
from ..core.directives import Schedule
from ..core.executor import run
from ..core.machine import Machine
from ..core.observations import secret_observations
from ..core.sequential import run_sequential
from ..pitchfork import ExplorationOptions, Explorer
from .generators import random_config, random_program, random_schedule


@dataclass(frozen=True)
class TheoremCheck:
    """One experiment's outcome."""

    theorem: str
    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_determinism(machine: Machine, config: Config,
                      schedule: Schedule) -> TheoremCheck:
    """Lemma B.1: replaying a schedule gives identical state and trace.

    The second replay runs on the raw machine: if ``machine`` is a
    caching :class:`repro.engine.ExecutionEngine`, a cache hit would
    hand run 2 run 1's very objects and the comparison would confirm
    determinism by construction — the circularity this check exists to
    rule out.
    """
    raw = getattr(machine, "machine", machine)
    r1 = run(machine, config, schedule, record_steps=False)
    r2 = run(raw, config, schedule, record_steps=False)
    ok = r1.final == r2.final and r1.trace == r2.trace
    return TheoremCheck("determinism (B.1)", ok,
                        "" if ok else "replay diverged")


def check_sequential_equivalence(machine: Machine, config: Config,
                                 schedule: Schedule) -> TheoremCheck:
    """Thm 3.2/B.7: C ⇓_D^N C1 implies C ⇓_seq^N C2 with C1 ≈ C2."""
    spec = run(machine, config, schedule, record_steps=False)
    seq = run_sequential(machine, config, stop_at=spec.retired)
    if seq.retired != spec.retired:
        return TheoremCheck(
            "sequential equivalence (3.2)", False,
            f"sequential run retired {seq.retired} != {spec.retired}")
    ok = spec.final.arch_equivalent(seq.final)
    if ok and spec.final.is_terminal():
        # The strengthening for terminal configurations: equality of
        # architectural state (buffers are empty on both sides).
        ok = (spec.final.regs == seq.final.regs
              and spec.final.mem == seq.final.mem)
    return TheoremCheck("sequential equivalence (3.2)", ok,
                        "" if ok else
                        f"spec {spec.final!r} !≈ seq {seq.final!r}")


def check_consistency(machine: Machine, config: Config, s1: Schedule,
                      s2: Schedule) -> TheoremCheck:
    """Cor. B.8: two terminal executions commit the same state."""
    r1 = run(machine, config, s1, record_steps=False)
    r2 = run(machine, config, s2, record_steps=False)
    if not (r1.final.is_terminal() and r2.final.is_terminal()):
        return TheoremCheck("consistency (B.8)", True, "skipped: not terminal")
    ok = (r1.final.regs == r2.final.regs and r1.final.mem == r2.final.mem)
    return TheoremCheck("consistency (B.8)", ok,
                        "" if ok else "terminal states differ")


def check_label_stability(machine: Machine, config: Config,
                          schedule: Schedule) -> TheoremCheck:
    """Thm B.9 (as Cor. B.10): a secret-free speculative trace implies a
    secret-free sequential trace."""
    spec = run(machine, config, schedule, record_steps=False)
    if secret_observations(spec.trace):
        return TheoremCheck("label stability (B.9)", True,
                            "skipped: speculative trace already leaks")
    seq = run_sequential(machine, config, stop_at=spec.retired)
    ok = not secret_observations(seq.trace)
    return TheoremCheck("label stability (B.9)", ok,
                        "" if ok else "sequential run leaked more")


def check_tool_soundness(machine: Machine, config: Config,
                         schedule: Schedule, bound: int) -> TheoremCheck:
    """Thm B.20: a leaking schedule within ``bound`` implies DT(bound)
    (here: the explorer with both forwarding and aliasing enabled)
    also finds a leak."""
    spec = run(machine, config, schedule, record_steps=False)
    if not secret_observations(spec.trace):
        return TheoremCheck("tool soundness (B.20)", True,
                            "skipped: schedule does not leak")
    max_buf = _max_buffer_size(machine, config, schedule)
    if max_buf > bound:
        return TheoremCheck("tool soundness (B.20)", True,
                            f"skipped: schedule exceeds bound ({max_buf})")
    options = ExplorationOptions(bound=bound, fwd_hazards=True,
                                 explore_aliasing=True, max_paths=4000)
    result = Explorer(machine, options).explore(config, stop_at_first=True)
    ok = bool(result.violations)
    return TheoremCheck("tool soundness (B.20)", ok,
                        "" if ok else "tool missed a leaking schedule")


def _max_buffer_size(machine: Machine, config: Config,
                     schedule: Schedule) -> int:
    biggest = 0
    current = config
    for d in schedule:
        current, _ = machine.step(current, d)
        biggest = max(biggest, len(current.buf))
    return biggest


@dataclass
class MetatheoryStats:
    """Aggregate over many random experiments."""

    experiments: int = 0
    failures: int = 0
    skipped: int = 0

    @property
    def ok(self) -> bool:
        return self.failures == 0


def run_experiments(seed: int = 0, programs: int = 30,
                    schedules_per_program: int = 4,
                    program_length: int = 10,
                    tool_bound: int = 12) -> MetatheoryStats:
    """Randomized sweep over all five theorem checks."""
    rng = random.Random(seed)
    stats = MetatheoryStats()
    for _p in range(programs):
        program = random_program(rng, length=program_length)
        machine = Machine(program)
        config = random_config(rng)
        drained = []
        for _s in range(schedules_per_program):
            schedule, _final = random_schedule(machine, config, rng)
            checks = [
                check_determinism(machine, config, schedule),
                check_sequential_equivalence(machine, config, schedule),
                check_label_stability(machine, config, schedule),
                check_tool_soundness(machine, config, schedule, tool_bound),
            ]
            drained.append(schedule)
            for check in checks:
                stats.experiments += 1
                if not check.ok:
                    stats.failures += 1
                elif check.detail.startswith("skipped"):
                    stats.skipped += 1
        if len(drained) >= 2:
            stats.experiments += 1
            check = check_consistency(machine, config, drained[0],
                                      drained[1])
            if not check.ok:
                stats.failures += 1
            elif check.detail.startswith("skipped"):
                stats.skipped += 1
    return stats
