"""Redundant-state subsumption: covered fork arms vs full re-exploration.

The trajectory point for ``repro.engine.subsume``: run the Kocher v1
suite at speculation bound 20 with the SeenStates table off and on, and
curve25519-donna at bound 28 — a bound at which the plain exploration
*truncates* (it hits the path cap without finishing) while the subsumed
run completes.  Loop-free gadgets re-converge after their bounds check,
so the same configuration is reached along every mispredicted arm; the
table prunes every arm after the first.

Every run is at ``prune="sleepset"`` (the CLI line too): under the
default ``full`` the covered-window joins end those re-convergent arms
before the table sees them, and it fires nowhere in the suite.

Hard gates (all counters are deterministic, so the gates are exact):

* **findings identity** — subsume on and off flag the identical
  violation observation set on every Kocher case, and on donna;
* **never more work** — on every case the subsumed run executes the
  same or fewer machine steps and explores the same or fewer paths;
* **strict reduction** — on ≥ 2 Kocher cases the table fires
  (``states_subsumed > 0``) and strictly shrinks the step count;
* **donna** — at bound 28 the plain run truncates; the subsumed run
  completes with ≥ 5× fewer machine steps and identical findings;
* **end-to-end counter** — ``states_subsumed`` survives the full trip:
  explorer → AnalysisReport → Report JSON → CLI ``--json`` output.

Running this file as a script (what the CI perf-smoke job does) writes
``BENCH_subsume.json``.

    PYTHONPATH=src python benchmarks/bench_subsume.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

BOUND = 20
DONNA_BOUND = 28
MAX_PATHS = 20_000
MAX_STEPS = 200_000
#: The pruning level the table is measured on (see the docstring).
PRUNE = "sleepset"
OUT = Path(__file__).resolve().parent.parent / "BENCH_subsume.json"

# The exact gates, kept in one place (also asserted by the pytest
# entry point below).
GATE_CASES_STRICT = 2
GATE_DONNA = 5.0


def _explore(program, config, subsume, rsb_policy="directive",
             bound=BOUND, **kw):
    from repro.core.machine import Machine
    from repro.pitchfork.explorer import ExplorationOptions, Explorer
    machine = Machine(program, rsb_policy=rsb_policy)
    options = ExplorationOptions(bound=bound, max_paths=MAX_PATHS,
                                 max_steps=MAX_STEPS, prune=PRUNE,
                                 subsume=subsume, **kw)
    return Explorer(machine, options).explore(config, stop_at_first=False)


def _obs(result):
    from repro.pitchfork import observation_set
    return observation_set(result.violations)


def run_benchmark():
    from repro.casestudies import all_case_studies
    from repro.litmus import load_suite

    record = {"suite": "kocher", "bound": BOUND, "prune": PRUNE,
              "cases": {}, "mismatches": []}
    totals = {flag: {"applied": 0, "paths": 0, "subsumed": 0}
              for flag in ("off", "on")}
    strict_cases = []

    for case in load_suite("kocher"):
        off = _explore(case.program, case.make_config(), False,
                       rsb_policy=case.rsb_policy, fwd_hazards=True)
        on = _explore(case.program, case.make_config(), True,
                      rsb_policy=case.rsb_policy, fwd_hazards=True)
        if _obs(on) != _obs(off):
            record["mismatches"].append(f"{case.name}: findings diverge")
        if on.applied_steps > off.applied_steps:
            record["mismatches"].append(f"{case.name}: subsumed run "
                                        f"stepped more")
        if on.paths_explored > off.paths_explored:
            record["mismatches"].append(f"{case.name}: subsumed run "
                                        f"explored more paths")
        subsumed = on.subsumption.states_subsumed
        if subsumed > 0 and on.applied_steps < off.applied_steps:
            strict_cases.append(case.name)
        totals["off"]["applied"] += off.applied_steps
        totals["off"]["paths"] += off.paths_explored
        totals["on"]["applied"] += on.applied_steps
        totals["on"]["paths"] += on.paths_explored
        totals["on"]["subsumed"] += subsumed
        record["cases"][case.name] = {
            "off": {"paths": off.paths_explored,
                    "applied_steps": off.applied_steps},
            "on": {"paths": on.paths_explored,
                   "applied_steps": on.applied_steps,
                   "states_seen": on.subsumption.states_seen,
                   "states_subsumed": subsumed},
            "step_reduction": round(
                off.applied_steps / max(on.applied_steps, 1), 2),
        }

    record["totals"] = totals
    record["strict_reduction_cases"] = sorted(strict_cases)

    # -- donna: a bound the plain exploration cannot finish -----------------
    donna = [v for cs in all_case_studies() for v in cs.variants()
             if v.name == "donna-c"][0]
    doff = _explore(donna.program, donna.make_config(), False,
                    bound=DONNA_BOUND, fwd_hazards=True)
    don = _explore(donna.program, donna.make_config(), True,
                   bound=DONNA_BOUND, fwd_hazards=True)
    if _obs(don) != _obs(doff):
        record["mismatches"].append("donna-c: findings diverge")
    record["donna"] = {
        "bound": DONNA_BOUND,
        "off": {"paths": doff.paths_explored,
                "applied_steps": doff.applied_steps,
                "truncated": doff.truncated},
        "on": {"paths": don.paths_explored,
               "applied_steps": don.applied_steps,
               "truncated": don.truncated,
               "states_subsumed": don.subsumption.states_subsumed},
        "step_reduction": round(
            doff.applied_steps / max(don.applied_steps, 1), 2),
    }

    # -- wall time (informational only; no gate reads it) -------------------
    # Everything above is deterministic counters; this timing block is
    # the record's only wall-clock content.  Min-of-N on the subsumed
    # donna exploration — the run the trajectory point is about.
    from _timing import measure
    record["timing"] = {
        "donna_subsumed": measure(
            lambda: _explore(donna.program, donna.make_config(), True,
                             bound=DONNA_BOUND, fwd_hazards=True)),
    }

    # -- the counter survives the Report + CLI round trip -------------------
    from repro.api.cli import main as cli_main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["analyze", "kocher_05", "--subsume",
                         "--prune", PRUNE, "--bound", str(BOUND),
                         "--json"])
    cli_report = json.loads(buf.getvalue())
    record["cli_end_to_end"] = {
        "target": "kocher_05", "exit_code": code,
        "states_subsumed":
            (cli_report.get("subsumption") or {}).get("states_subsumed", 0),
        "schema_version": cli_report.get("schema_version"),
    }

    record["findings_identical"] = not any(
        "findings diverge" in m for m in record["mismatches"])
    return record


def check_gates(record):
    failures = []
    if record["mismatches"]:
        failures.append(f"invariants violated: {record['mismatches']}")
    if len(record["strict_reduction_cases"]) < GATE_CASES_STRICT:
        failures.append(f"table fired on only "
                        f"{record['strict_reduction_cases']}")
    donna = record["donna"]
    if not donna["off"]["truncated"]:
        failures.append("donna plain run no longer truncates at bound "
                        f"{donna['bound']} — raise DONNA_BOUND so the "
                        f"gate keeps measuring an unreachable baseline")
    if donna["on"]["truncated"]:
        failures.append("donna subsumed run truncated")
    if donna["on"]["states_subsumed"] <= 0:
        failures.append("donna: table never fired")
    if donna["step_reduction"] < GATE_DONNA:
        failures.append(f"donna step reduction {donna['step_reduction']}")
    e2e = record["cli_end_to_end"]
    if e2e["states_subsumed"] <= 0 or e2e["exit_code"] not in (0, 1):
        failures.append(f"CLI end-to-end counter missing: {e2e}")
    return failures


def write_record(record, path=OUT):
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


# -- pytest entry point -------------------------------------------------------

def test_subsume_gates(benchmark):
    from conftest import once
    record = once(benchmark, run_benchmark)
    write_record(record)
    failures = check_gates(record)
    assert not failures, failures


def main() -> int:
    import os
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
    record = run_benchmark()
    path = write_record(record)
    t = record["totals"]
    print(f"redundant-state subsumption on the Kocher suite "
          f"(bound {BOUND}, prune={PRUNE}):")
    print(f"  machine steps: {t['off']['applied']:>8} (off) -> "
          f"{t['on']['applied']:>7} (on)  "
          f"[{round(t['off']['applied'] / max(t['on']['applied'], 1), 2)}x, "
          f"{t['on']['subsumed']} arms subsumed]")
    print(f"  schedules    : {t['off']['paths']:>8} -> "
          f"{t['on']['paths']:>7}")
    print(f"  strict-reduction cases: "
          f"{', '.join(record['strict_reduction_cases'])}")
    d = record["donna"]
    print(f"  donna-c @ bound {d['bound']}: {d['off']['applied_steps']} "
          f"steps (off, truncated={d['off']['truncated']}) -> "
          f"{d['on']['applied_steps']} (on, complete) "
          f"[{d['step_reduction']}x, "
          f"{d['on']['states_subsumed']} arms subsumed]")
    e2e = record["cli_end_to_end"]
    print(f"  CLI round trip: {e2e['target']} reports "
          f"states_subsumed={e2e['states_subsumed']} "
          f"(schema v{e2e['schema_version']})")
    print(f"  findings identical: {record['findings_identical']}")
    print(f"wrote {path}")
    failures = check_gates(record)
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
