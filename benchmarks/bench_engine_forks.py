"""Engine speedup: prefix-shared replay vs from-scratch replay.

The first trajectory point for the execution engine (`repro.engine`):
run the Kocher v1 suite's symbolic analysis — at speculation bound 20
(the CI smoke point) and at 30 (paper-scale; sharing compounds with
the window size) — twice per case:

* **baseline** — the pre-refactor pipeline, kept here verbatim:
  enumerate DT(bound) flat (no trial-step cache), then replay *every*
  schedule from step 0 with :meth:`SymbolicRunner.run`;
* **engine** — :func:`analyze_symbolic_result`: enumerate once keeping
  the DFS fork structure, then walk the schedule tree so each shared
  prefix executes once (fully concrete targets harvest the recorded
  traces outright).

Both produce identical findings (asserted), and the engine must hit
the PR's acceptance bar: **≥ 3× fewer machine steps** and **≥ 2× lower
wall time** across the suite.  Running this file as a script (what the
CI perf-smoke job does) writes the measurements to ``BENCH_engine.json``.

    PYTHONPATH=src python benchmarks/bench_engine_forks.py
"""

import json
import sys
import time
from pathlib import Path

BOUNDS = (20, 30)
FWD_MODES = (False, True)
#: Wall times are min-of-REPEATS per (case, bound, mode) — the gate
#: compares aggregates, so a single noisy-neighbour hiccup on a shared
#: CI runner must not be able to flip the >=2x wall assertion.
REPEATS = 5
OUT = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


class _UncachedEvaluator:
    """Marker evaluator: concrete semantics, engine step cache off —
    the seed's enumeration re-executed every trial-stepped directive,
    so the baseline must too."""

    pure = False

    def __new__(cls):
        from repro.core.isa import ConcreteEvaluator
        obj = ConcreteEvaluator()
        obj.pure = False
        return obj


def _naive_analyze(program, config, bound, fwd_hazards,
                   max_schedules=512, max_worlds=256):
    """The seed pipeline: flat enumeration (no trial-step cache), then
    replay each schedule from step 0.

    Returns (findings, machine steps) — enumeration steps are counted
    through the explorer's engine, replay steps through the runner.
    """
    from repro.core.machine import Machine
    from repro.core.observations import secret_observations
    from repro.pitchfork.explorer import ExplorationOptions, Explorer
    from repro.pitchfork.symex import (SymbolicFinding, SymbolicRunner,
                                       representative_config)
    rep = representative_config(config)
    machine = Machine(program, evaluator=_UncachedEvaluator())
    options = ExplorationOptions(bound=bound, fwd_hazards=fwd_hazards,
                                 max_paths=max_schedules)
    explorer = Explorer(machine, options, assume_unknown_branches=True)
    schedules = [p.schedule for p in explorer.explore(rep).paths
                 if p.complete]
    runner = SymbolicRunner(program, max_worlds=max_worlds)
    findings = []
    for schedule in schedules:
        for world in runner.run(config, schedule):
            leaks = secret_observations(tuple(world.trace))
            if not leaks:
                continue
            model = world.model()
            if model is None:
                continue
            for obs in leaks:
                findings.append(SymbolicFinding(
                    obs, schedule, tuple(world.constraints), model))
    steps = explorer.engine.stats.steps + runner.stats.steps
    return findings, steps


def _engine_analyze(program, config, bound, fwd_hazards):
    from repro.pitchfork.symex import analyze_symbolic_result
    result = analyze_symbolic_result(program, config, bound=bound,
                                     fwd_hazards=fwd_hazards)
    return result.findings, result.states_stepped, result.states_reused


def _suite():
    from repro.litmus import load_suite
    return load_suite("kocher")


def run_benchmark():
    """Measure both pipelines across the suite; returns the record."""
    cases = [(case, case.make_config()) for case in _suite()]
    record = {
        "suite": "kocher",
        "bounds": list(BOUNDS),
        "fwd_modes": list(FWD_MODES),
        "repeats": REPEATS,
        "cases": {},
    }
    total = {"steps_baseline": 0, "steps_engine": 0, "states_reused": 0,
             "wall_baseline": 0.0, "wall_engine": 0.0}
    mismatches = []
    for case, config in cases:
        row = {}
        for bound in BOUNDS:
            for fwd in FWD_MODES:
                base_findings, base_steps = _naive_analyze(
                    case.program, config, bound, fwd)
                eng_findings, eng_steps, reused = _engine_analyze(
                    case.program, config, bound, fwd)
                if sorted(map(repr, base_findings)) != \
                        sorted(map(repr, eng_findings)):
                    mismatches.append((case.name, bound, fwd))
                wall_base = min(
                    _timed(_naive_analyze, case.program, config, bound, fwd)
                    for _ in range(REPEATS))
                wall_eng = min(
                    _timed(_engine_analyze, case.program, config, bound, fwd)
                    for _ in range(REPEATS))
                row[f"bound={bound} fwd={fwd}"] = {
                    "findings": len(eng_findings),
                    "steps_baseline": base_steps,
                    "steps_engine": eng_steps,
                    "states_reused": reused,
                    "wall_baseline": round(wall_base, 6),
                    "wall_engine": round(wall_eng, 6),
                }
                total["steps_baseline"] += base_steps
                total["steps_engine"] += eng_steps
                total["states_reused"] += reused
                total["wall_baseline"] += wall_base
                total["wall_engine"] += wall_eng
        record["cases"][case.name] = row
    record["total"] = {
        **{k: (round(v, 6) if isinstance(v, float) else v)
           for k, v in total.items()},
        "step_speedup": round(
            total["steps_baseline"] / max(total["steps_engine"], 1), 3),
        "wall_speedup": round(
            total["wall_baseline"] / max(total["wall_engine"], 1e-9), 3),
    }
    record["findings_identical"] = not mismatches
    record["mismatches"] = [f"{n} bound={b} fwd={f}"
                            for n, b, f in mismatches]
    return record


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def write_record(record, path=OUT):
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


# -- pytest entry points ------------------------------------------------------

def test_engine_beats_baseline(benchmark):
    """≥3× fewer machine steps and ≥2× lower wall time, identical
    findings — the PR's acceptance bar, measured on the spot."""
    from conftest import once
    record = once(benchmark, run_benchmark)
    write_record(record)
    assert record["findings_identical"], record["mismatches"]
    assert record["total"]["step_speedup"] >= 3.0, record["total"]
    assert record["total"]["wall_speedup"] >= 2.0, record["total"]


def main() -> int:
    import os
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    record = run_benchmark()
    path = write_record(record)
    total = record["total"]
    print(f"engine vs baseline on the Kocher suite (bounds {BOUNDS}):")
    print(f"  machine steps : {total['steps_baseline']:>8} -> "
          f"{total['steps_engine']:>8}  ({total['step_speedup']}x)")
    print(f"  states reused : {total['states_reused']:>8}")
    print(f"  wall time     : {total['wall_baseline']:>8.4f}s -> "
          f"{total['wall_engine']:>8.4f}s  ({total['wall_speedup']}x)")
    print(f"  findings identical: {record['findings_identical']}")
    print(f"wrote {path}")
    ok = (record["findings_identical"]
          and total["step_speedup"] >= 3.0
          and total["wall_speedup"] >= 2.0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
