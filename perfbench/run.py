"""The repository's benchmark: the Pitchfork workloads end to end, and
layer by layer from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs the four in turn.

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``litmus`` - the litmus registry plus seeded random programs, each
  decided by both the ``pitchfork`` and ``sps`` analyses;
* ``serve``  - one closed-loop client against a two-worker daemon:
  cold, warm (memory tier) and restarted (disk store) submits;
* ``repair`` - the ``repair`` analysis over the flagged targets;
* ``table2`` - the eight Table 2 cells, two-phase at the Table 2 bounds,
  checked against the paper's marks.  It is not among the workloads
  ``BENCHMARK.json`` times: one pass takes over a minute whatever
  ``--seconds`` says, and its three deep cells give one sample each, so
  its times cannot be made steady within a run.

Every result is checked against a known answer; a wrong one makes the
run exit 1.  With ``--trace 0`` the run repeats a fixed number of
passes of the workload (``--seconds`` over the workload's nominal pass
time) and prints the end-to-end metrics; each op's time is its median
over the passes, in reference seconds: scaled by the host's speed,
sampled between the pass's ops (see ``hostspeed.py``).  With
``--trace 1`` it alternates untraced passes and passes with the layers
wrapped (see ``tracing.py``) and prints the per-layer metrics of the
first traced pass, the tracing overhead, and the deterministic counts,
which it also compares with an earlier traced run of the same code and
seed.

Human-readable lines come first; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from hostspeed import SpeedMeter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("table2", "litmus", "serve", "repair")

#: Fresh-process set-ups measured per in-process run (median reported).
SETUP_PROBES = 5

#: Calibration loops a set-up probe times to scale its set-up.
PROBE_TICKS = 10

#: Untraced/traced pass pairs of a traced run.
OVERHEAD_ROUNDS = 3

#: Run state (daemon sockets, stores, count records), inside the checkout.
STATE_DIR = ".perfbench"

#: Counts that must repeat exactly between runs of the same code.
EXACT_COUNTS = ("explorer.paths", "explorer.steps", "engine.step.calls",
                "machine.step.calls", "config.hash.calls",
                "mitigate.verifications")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(samples):
    """(value, percentile): the highest percentile with at least ten
    samples beyond it; the maximum when there are ten or fewer."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(workload):
    """Peak RSS of this process plus that of the processes the workload
    measured (the serve daemon and its workers).  The set-up probes are
    children too, but they ran before the passes and are not counted."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + workload.children_kb) / 1024.0


def per_op(records, reduce):
    """``reduce`` over each operation's scaled times, one value per op."""
    times = {}
    for record in records:
        times.setdefault((record.name, record.kind), []).append(
            record.seconds * record.scale)
    return [reduce(ts) for ts in times.values()]


def latency_metrics(prefix, records, passes):
    """``<prefix>.p50`` and ``<prefix>.tail`` in ms over the ops of
    ``records``, each op at its median over the passes, with notes."""
    ms = [s * 1000.0 for s in per_op(records, statistics.median)]
    value, pct = tail(ms)
    n = len(ms)
    each = f"each op's median of {passes} pass(es)"
    return {f"{prefix}.p50": (statistics.median(ms), "ms",
                              f"n={n} ops; {each}"),
            f"{prefix}.tail": (value, "ms", f"p{pct:.1f}, n={n} ops; {each}")}


def explored(report):
    """(paths, steps) of a report dict, summed over its phases."""
    phases = report.get("phases") or [report]
    return (sum(p["paths_explored"] for p in phases),
            sum(p["states_stepped"] for p in phases))


def report_totals(records):
    """The deterministic totals read off a pass's reports."""
    paths = steps = verifications = 0
    for record in records:
        if record.result is None:
            continue
        report = record.result
        if isinstance(report, dict):   # a serve result payload
            if record.kind != "cold":
                continue               # the same report, served again
            report = report["report"]
        else:
            report = report.to_dict()
        p, s = explored(report)
        paths, steps = paths + p, steps + s
        verifications += report.get("details", {}).get("verifications", 0)
    return {"paths": paths, "steps": steps, "verifications": verifications}


def code_digest():
    """A digest of the program and benchmark sources."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()[:16]


def compare_counts(workload, seed, counts):
    """Names of the exact counts that differ from an earlier traced run
    of the same code and seed (recording this run's if none)."""
    record_dir = os.path.join(STATE_DIR, "counts")
    os.makedirs(record_dir, exist_ok=True)
    path = os.path.join(record_dir,
                        f"{workload}-seed{seed}-{code_digest()}.json")
    if not os.path.exists(path):
        with open(path, "w") as fh:
            json.dump(counts, fh, sort_keys=True)
        return []
    with open(path) as fh:
        earlier = json.load(fh)
    return [name for name in EXACT_COUNTS
            if earlier.get(name) != counts.get(name)]


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def declared_metrics(trace):
    """The metric names ``BENCHMARK.json`` declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def make_workload(name, seed, run_dir):
    if name == "serve":
        from serving import Serve
        return Serve(seed, run_dir)
    from workloads import IN_PROCESS
    return IN_PROCESS[name](seed)


def setup_probe(args):
    """Child mode: build the workload in a fresh process and print how
    long the imports and input building took, and the factor to
    reference seconds measured right after."""
    start = time.perf_counter()
    make_workload(args.workload, args.seed, None)
    seconds = time.perf_counter() - start
    meter = SpeedMeter()
    for _ in range(PROBE_TICKS):
        meter.tick()
    print(json.dumps([seconds, meter.factor()]))
    return 0


def probe_setups(args):
    """:data:`SETUP_PROBES` fresh-process set-ups, in reference
    seconds."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            check=True, capture_output=True, text=True, timeout=120)
        seconds, factor = json.loads(out.stdout.strip().splitlines()[-1])
        samples.append(seconds * factor)
    return samples


def pass_count(workload, seconds):
    """Passes a run makes: ``seconds`` over the workload's nominal pass
    time, fixed so that every run of a workload takes the same number of
    samples whatever the host's speed."""
    return max(1, round(seconds / workload.pass_s))


def run_passes(workload, count):
    """The workload's once-per-run ops, then ``count`` untraced passes,
    each checked.  Returns (one record list per pass, the once records).

    Reports after the first pass are dropped once checked, so the heap,
    and with it the garbage collector's work, stays the same size from
    pass to pass.  A :class:`SpeedMeter` ticks before each op of a pass,
    and the pass's records are scaled by its factor."""
    once = workload.run_once()
    passes = []
    for i in range(count):
        meter = SpeedMeter()
        batch = workload.run_pass(meter=meter)
        factor = meter.factor()
        for record in batch:
            record.scale = factor
        workload.check(batch + once if i == 0 else batch, deep=i == 0)
        if i:
            for record in batch:
                record.result = None
        passes.append(batch)
    return passes, once


def end_to_end(workload, setup, passes, once):
    """End-to-end metrics.  Timings cover the passes; the host's speed
    drifts within a run, so each is a median over the passes."""
    timed = [r for batch in passes for r in batch]
    records = timed + once
    raw = statistics.median(sum(r.seconds for r in batch) for batch in passes)
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} set-ups"),
        "wall_s": (statistics.median(sum(r.seconds * r.scale for r in batch)
                                     for batch in passes), "s",
                   f"median pass of {len(passes)}; measured {raw:.4g} s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB",
                        "this process + measured children"),
        "complete_frac": (sum(r.complete for r in records) / len(records),
                          "frac", f"n={len(records)}"),
    }
    metrics.update(latency_metrics("op_ms", timed, len(passes)))
    return metrics


def tier_metrics(records, passes):
    """Per-tier submit latencies of serve records (zero elsewhere)."""
    from serving import TIERS
    metrics = {}
    for tier, _source in TIERS:
        tier_records = [r for r in records if r.kind == tier]
        if tier_records:
            metrics.update(latency_metrics(f"serve.{tier}_submit_ms",
                                           tier_records, passes))
        else:
            metrics[f"serve.{tier}_submit_ms.p50"] = (0.0, "ms", "n=0")
            metrics[f"serve.{tier}_submit_ms.tail"] = (0.0, "ms", "n=0")
    return metrics


def traced_run(tracer, run):
    """``run()`` with the in-process layers wrapped by ``tracer``."""
    from tracing import IN_PROCESS_LAYERS
    tracer.install(IN_PROCESS_LAYERS)
    tracer.install_frontiers()
    try:
        return run()
    finally:
        tracer.restore()


def measure(args, run_dir):
    """(metrics, records, notes, summary lines) for one run."""
    from tracing import (LayerTracer, layer_metrics, load_traces,
                         merge_snapshots)
    workload = make_workload(args.workload, args.seed, run_dir)
    if not args.trace:
        probed = probe_setups(args) if workload.setup_samples is None \
            else None
        passes, once = run_passes(workload,
                                  pass_count(workload, args.seconds))
        factor = statistics.median(batch[0].scale for batch in passes)
        # The serve workload's set-ups are its daemon starts, timed
        # during the passes; they are scaled by the run's median factor.
        setup = probed or [s * factor for s in workload.setup_samples]
        metrics = end_to_end(workload, setup, passes, once)
        records = [r for batch in passes for r in batch] + once
        if args.workload == "serve":
            metrics.update(tier_metrics(records, len(passes)))
        summary = workload.summary(records) + [
            f"times in reference seconds (hostspeed.py): measured x "
            f"{factor:.4g}, the run's median host factor"]
        return metrics, records, [], summary

    # Traced run: rounds of an untraced pass then a traced one, so the
    # host's drift falls on both sides alike.  The first traced pass
    # covers every op, once-per-run ops included, and alone gives the
    # per-layer metrics; the overhead compares each op's fastest
    # untraced and traced time over the rounds.
    names = workload.overhead_ops
    tracer = LayerTracer()
    untraced, traced = [], []
    for i in range(OVERHEAD_ROUNDS):
        untraced += workload.run_pass(names)
        trace_dir = os.path.join(run_dir, f"trace-{i}")
        os.makedirs(trace_dir)
        if i == 0:
            first = traced_run(tracer, lambda: workload.run_pass(
                trace_dir=trace_dir) + workload.run_once())
            snaps = [tracer.snapshot()] + load_traces(trace_dir)
        else:
            traced += traced_run(LayerTracer(), lambda: workload.run_pass(
                names, trace_dir=trace_dir))
    workload.check(untraced + traced, deep=False)
    workload.check(first, deep=True)
    untraced_s = sum(per_op(untraced, min))
    traced_s = sum(per_op(traced + [r for r in first if names is None or
                                    r.name in names], min))
    metrics = {name: (value, unit, "") for name, (value, unit) in
               layer_metrics(merge_snapshots(*snaps),
                             report_totals(first)).items()}
    ops = ", ".join(names) if names else "every op of a pass"
    metrics["trace.untraced_s"] = (
        untraced_s, "s", f"{ops}; each op's best of {OVERHEAD_ROUNDS}")
    metrics["trace.traced_s"] = (traced_s, "s", "the same, traced")
    metrics["trace.overhead"] = (traced_s / untraced_s, "x",
                                 "traced / untraced")
    metrics.update(tier_metrics(untraced, OVERHEAD_ROUNDS))
    counts = {name: metrics[name][0] for name in EXACT_COUNTS}
    differ = compare_counts(args.workload, args.seed, counts)
    notes = [f"exact count differs from an earlier run of this code: {n}"
             for n in differ]
    summary = workload.summary(first) + [
        "times in this traced run are as measured, not scaled"]
    return metrics, untraced + traced + first, notes, summary


def run_all(args):
    """Every workload in turn, each in its own process; the last line
    sums their results, metric names prefixed with the workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(out.stderr)
        if not lines or out.returncode not in (0, 1):
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {SRC}/repro is missing "
              f"(run from a full checkout)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)

    run_dir = os.path.join(STATE_DIR, f"run-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        metrics, records, notes, summary = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    declared = declared_metrics(args.trace)
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: declared metrics not measured: {missing}",
              file=sys.stderr)
        return 2
    failed = [r for r in records if r.failure is not None]
    for name, (value, unit, note) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"[{args.workload}] {name:<34} {shown:>12} {unit:<6} {note}")
    print(f"[{args.workload}] {'fail_frac':<34} "
          f"{len(failed) / len(records):>12.6g} frac   "
          f"{len(failed)} of {len(records)} ops")
    for line in summary:
        print(f"[{args.workload}] {line}")
    for record in failed:
        print(f"[{args.workload}] FAILED {record.name} ({record.kind}): "
              f"{record.failure}")
    for note in notes:
        print(f"[{args.workload}] {note}")
    correct = not failed and not notes
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed) + len(notes),
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
