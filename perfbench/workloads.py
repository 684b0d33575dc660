"""The four workloads: their inputs, one pass of operations, and the
checks that every result is right.

A workload is built once per run from ``--seed`` (that is its set-up)
and then runs *passes*.  A pass is a fixed list of operations; the run
repeats passes a fixed number of times, set by ``--seconds`` and the
workload's nominal pass time.  Ops that only need checking, not timing,
run once per run.  Every operation is timed on its own and checked
against a known answer after the pass, so checking never lands inside a
timing.

Nothing here imports :mod:`repro` at module level: the set-up probe
times the imports as part of set-up.
"""

import ast
import json
import os
import random
import statistics
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The hand-written paper table lives with the Table 2 pytest benchmark.
PAPER_TABLE_FILE = os.path.join("benchmarks", "bench_table2_casestudies.py")

#: Backends deciding every litmus target.
BACKENDS = ("pitchfork", "sps")

#: Random loop-free programs in the litmus workload's draw.
RANDOM_PROGRAMS = 50

#: Cells left out of the repair workload: secretbox-c's repair alone
#: takes ~99 s (four re-verifications at bound 28 with forwarding
#: hazards), longer than a whole run may take.
REPAIR_SKIP = ("secretbox-c",)


class Record:
    """One timed operation and what its check found."""

    __slots__ = ("op", "name", "kind", "seconds", "scale", "complete",
                 "failure", "result")

    def __init__(self, op, seconds, complete, result):
        self.op, self.name, self.kind = op, op.name, op.kind
        self.seconds, self.complete = seconds, complete
        #: Factor to reference seconds (see ``hostspeed.py``); 1 for a
        #: time reported as measured.
        self.scale = 1.0
        self.failure = None
        self.result = result


def observations(report):
    """The flagged-observation set of a :class:`repro.api.Report`."""
    return tuple(sorted({v["observation"] for v in report.violations}))


def paper_table2():
    """``PAPER_TABLE2`` read from the pytest benchmark without
    importing it (that module needs pytest)."""
    with open(os.path.join(ROOT, PAPER_TABLE_FILE)) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "PAPER_TABLE2"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"PAPER_TABLE2 not found in {PAPER_TABLE_FILE}")


class AnalysisOp:
    """One ``Project.run(analysis)`` call, the in-process unit of work."""

    __slots__ = ("name", "kind", "project", "analysis", "overrides",
                 "target", "expected")

    def __init__(self, name, project, analysis, overrides=None, kind="",
                 target=None, expected=None):
        self.name, self.kind = name, kind
        self.project, self.analysis = project, analysis
        self.overrides = overrides or {}
        #: Ops sharing a target are checked against each other.
        self.target = target
        #: The known answer the op's result must match.
        self.expected = expected

    def run(self):
        return self.project.run(self.analysis, **self.overrides)


class InProcessWorkload:
    """Shared pass runner for the workloads that run in this process."""

    #: Wall seconds one pass takes here, checks and calibration included
    #: (sets the pass count).
    pass_s = 1.0
    #: Names of the ops the traced run's overhead is measured on (None:
    #: the whole pass).
    overhead_ops = None
    #: Set-up times measured by the workload itself (None: the runner
    #: times fresh-process set-ups).
    setup_samples = None
    #: Peak RSS (KiB) of processes the workload started and measured.
    children_kb = 0

    def __init__(self, seed):
        self.seed = seed
        #: Ops run, and timed, in every pass.
        self.ops = []
        #: Ops run once per run, checked but not timed.
        self.once = []

    def check(self, records, deep):
        """Set ``record.failure`` on every wrong result.  ``deep`` adds
        the costly checks, run once per run."""
        raise NotImplementedError

    def run_pass(self, names=None, trace_dir=None, meter=None):
        """Run every op once (only those in ``names``, if given), ticking
        ``meter`` before each.  Spans of in-process ops need no
        ``trace_dir``."""
        return self._run([op for op in self.ops
                          if names is None or op.name in names], meter)

    def run_once(self):
        """Run the ops that are checked once per run."""
        return self._run(self.once)

    def _run(self, ops, meter=None):
        records = []
        for op in ops:
            if meter is not None:
                meter.tick()
            start = time.perf_counter()
            try:
                report = op.run()
            except Exception as exc:
                # An error is a failed op, never a crashed benchmark.
                record = Record(op, time.perf_counter() - start, False, None)
                record.failure = f"{type(exc).__name__}: {exc}"
            else:
                record = Record(op, time.perf_counter() - start,
                                not report.truncated, report)
            records.append(record)
        return records

    def summary(self, records):
        """Extra lines for the human-readable report."""
        return []


# ---------------------------------------------------------------------------
# table2
# ---------------------------------------------------------------------------

class Table2(InProcessWorkload):
    """The eight Table 2 cells, two-phase at the Table 2 bounds, serially
    in paper order (what ``repro table2`` runs)."""

    pass_s = 75.0
    #: The table does not fit twice in one run, so the overhead is taken
    #: on one of its deep searches alone.
    overhead_ops = ("secretbox-fact",)

    def __init__(self, seed):
        super().__init__(seed)
        from repro.api import AnalysisOptions, Project
        from repro.casestudies import all_case_studies
        self.paper = paper_table2()
        for study in all_case_studies():
            for column, variant in (("C", study.c), ("FaCT", study.fact)):
                project = Project.from_variant(
                    variant, options=AnalysisOptions.table2())
                self.ops.append(AnalysisOp(
                    variant.name, project, "two-phase", kind=column,
                    target=study.name,
                    expected=self.paper[study.name][column]))

    def check(self, records, deep):
        for record in records:
            if record.result is not None and \
                    record.result.status != record.op.expected:
                record.failure = (f"mark {record.result.status!r}, "
                                  f"paper has {record.op.expected!r}")

    def summary(self, records):
        marks = {}
        for record in records:
            if record.result is not None:
                marks.setdefault(record.op.target, {})[record.kind] = \
                    record.result.status
        return [f"marks {json.dumps(marks)}",
                f"paper {json.dumps(self.paper)}"]


# ---------------------------------------------------------------------------
# litmus
# ---------------------------------------------------------------------------

class Litmus(InProcessWorkload):
    """The litmus registry at each case's own options plus a seeded draw
    of loop-free random programs, each decided by both backends.

    Only the registry is timed.  The draw changes with the seed and its
    cost is heavy-tailed (over 200 programs the p97 decision time still
    moves 28% between seeds), so it is run once per run, cross-checked
    and counted."""

    pass_s = 0.75

    def __init__(self, seed):
        super().__init__(seed)
        import repro.sps  # noqa: F401  (imported lazily by the analysis)
        from repro.api import Project
        from repro.litmus import all_cases
        for case in all_cases():
            project = Project.from_litmus(case)
            for backend in BACKENDS:
                self.ops.append(AnalysisOp(
                    f"{case.name}/{backend}", project, backend,
                    {"stop_at_first": False}, kind="registry",
                    target=case.name, expected=project.expected))
        self.once = self.random_programs()

    def random_programs(self):
        """The seed's draw: the ``plain`` flavour of
        :func:`repro.sps.diff.sweep_random` (same generator, options and
        per-program seeding)."""
        from repro.api import AnalysisOptions, Project
        from repro.verify.generators import random_config, random_program
        options = AnalysisOptions(bound=12, fwd_hazards=True,
                                  stop_at_first=False)
        ops = []
        for i in range(RANDOM_PROGRAMS):
            rng = random.Random(self.seed * 1_000_003 + i)
            program = random_program(rng, length=10)
            config = random_config(rng)
            name = f"random-plain-{self.seed}-{i}"
            project = Project(program, config, name=name, options=options)
            for backend in BACKENDS:
                ops.append(AnalysisOp(f"{name}/{backend}", project, backend,
                                      kind="random", target=name))
        return ops

    def check(self, records, deep):
        by_target = {}
        for record in records:
            op = record.op
            by_target.setdefault(op.target, []).append(record)
            if op.expected is not None and record.result is not None:
                flagged = not record.result.ok
                if flagged != (op.expected == "flagged"):
                    record.failure = (f"flagged={flagged}, expected "
                                      f"{op.expected}")
        for pair in by_target.values():
            if not all(r.complete for r in pair):
                # Agreement where one side truncated is not evidence.
                continue
            sets = {observations(r.result) for r in pair}
            if len(sets) > 1:
                for record in pair:
                    record.failure = record.failure or \
                        "pitchfork and sps flag different observations"

    def summary(self, records):
        draw = [r.seconds * 1000.0 for r in records if r.kind == "random"]
        unconfirmed = {r.op.target for r in records if not r.complete}
        return [f"random draw: {len(draw)} decisions, median "
                f"{statistics.median(draw):.4g} ms, max {max(draw):.4g} ms "
                f"(checked, not in the timings above)",
                f"{len(unconfirmed)} target(s) with a truncated side "
                f"(incomplete, not agreement)"]


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

class Repair(InProcessWorkload):
    """The ``repair`` analysis at CLI defaults over every flagged litmus
    case and the flagged Table 2 cells."""

    pass_s = 2.5

    def __init__(self, seed):
        super().__init__(seed)
        import repro.mitigate  # noqa: F401  (imported lazily by the analysis)
        from repro.api import Project
        from repro.casestudies import all_case_studies
        from repro.litmus import all_cases, expected_repair_status
        for case in all_cases():
            if case.leaks_speculatively or case.leaks_sequentially:
                self.ops.append(AnalysisOp(
                    case.name, Project.from_litmus(case), "repair",
                    kind="litmus", expected=expected_repair_status(case)))
        for study in all_case_studies():
            for variant in study.variants():
                if variant.expected != "clean" and \
                        variant.name not in REPAIR_SKIP:
                    self.ops.append(AnalysisOp(
                        variant.name, Project.from_variant(variant),
                        "repair", kind="table2", expected="repaired"))

    def check(self, records, deep):
        for record in records:
            report = record.result
            if report is None:
                continue
            if report.status != record.op.expected:
                record.failure = (f"status {report.status!r}, expected "
                                  f"{record.op.expected!r}")
            elif deep:
                record.failure = certificate_failure(record.op.project,
                                                     report.mitigation)


def certificate_failure(project, certificate):
    """Why a repair certificate does not hold, or None.

    It must pass :func:`repro.mitigate.verify_certificate`, and ``sps``
    must flag nothing in the re-assembled program beyond the
    certificate's ``sequential_leaks``."""
    from repro.asm import assemble
    from repro.mitigate import verify_certificate
    from repro.sps import explore_sps
    if certificate is None:
        return "no certificate"
    opts = project.options
    knobs = dict(bound=opts.bound, fwd_hazards=opts.fwd_hazards,
                 explore_aliasing=opts.explore_aliasing,
                 jmpi_targets=opts.jmpi_targets,
                 rsb_targets=opts.rsb_targets,
                 max_paths=opts.max_paths, max_steps=opts.max_steps)
    config = project.config()
    if not verify_certificate(certificate, config,
                              rsb_policy=opts.rsb_policy,
                              original=project.program, **knobs):
        return "verify_certificate rejected the certificate"
    program = assemble(str(certificate["program"]),
                       base=int(certificate.get("base", 1)))
    result = explore_sps(program, config.with_(pc=program.entry),
                         rsb_policy=opts.rsb_policy, stop_at_first=False,
                         **knobs)
    if not result.complete:
        return "sps did not complete on the repaired program"
    allowed = set(certificate.get("sequential_leaks", ()))
    extra = {repr(v.observation) for v in result.violations} - allowed
    if extra:
        return f"sps flags {len(extra)} observation(s) beyond the certificate"
    return None


IN_PROCESS = {"table2": Table2, "litmus": Litmus, "repair": Repair}
