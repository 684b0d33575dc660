"""Speculation-passing second opinion vs the pitchfork explorer.

The trajectory point for ``repro.sps``: run both backends on the full
question (``stop_at_first=False``, identical knobs) across the Kocher
v1 suite and the ``diffregress`` suite — the minimised repros of real
explorer bugs the differential sweep found — and record the agreement
verdict and each backend's deterministic counters side by side.

Hard gates (the flagged observation sets are deterministic, so the
gates are exact):

* **no disagreements** — on every case either the flagged sets are
  identical or a search budget explains the divergence
  (``explained-budget``); a divergence with both runs complete fails
  the benchmark, because it means one oracle is wrong;
* **diffregress stays caught** — every minimised regression case
  agrees with a *non-empty* flagged set: the bugs the sweep found stay
  found by both backends;
* **sps completeness** — the sequential product check finishes every
  Kocher case inside its default budgets (no truncation, no exhausted
  paths): the second opinion is a full answer, not a sample;
* **end-to-end** — ``repro analyze kocher_01 --cross-check --json``
  exits 1 (flagged, backends agreeing) and the report carries the
  schema-8 ``cross_check`` section with classification ``agree``.

Running this file as a script (what the CI perf-smoke job does) writes
``BENCH_sps.json``.

    PYTHONPATH=src python benchmarks/bench_sps.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent.parent / "BENCH_sps.json"


def _compare(case):
    from repro.api import AnalysisOptions
    from repro.sps.diff import compare
    return compare(case.program, case.config(),
                   AnalysisOptions.for_case(case), name=case.name)


def _case_entry(rec):
    return {
        "status": rec.status,
        "observations": list(rec.pf_obs),
        "pitchfork": {"complete": rec.pf_complete,
                      "wall": round(rec.pf_wall, 4)},
        "sps": {"complete": rec.sps_complete,
                "wall": round(rec.sps_wall, 4)},
    }


def run_benchmark():
    from repro.litmus import load_suite
    from repro.sps import explore_sps

    record = {"suites": ["kocher", "diffregress"], "cases": {},
              "disagreements": [], "explained_budget": [],
              "sps_incomplete": [], "diffregress": {}}

    kocher = load_suite("kocher")
    for case in kocher:
        rec = _compare(case)
        record["cases"][case.name] = _case_entry(rec)
        if rec.disagree:
            record["disagreements"].append(case.name)
        elif rec.explained:
            record["explained_budget"].append(case.name)
        if not rec.sps_complete:
            record["sps_incomplete"].append(case.name)

    for case in load_suite("diffregress"):
        rec = _compare(case)
        record["diffregress"][case.name] = _case_entry(rec)
        if rec.disagree:
            record["disagreements"].append(case.name)

    # -- wall time (informational only; no gate reads it) -------------------
    # Min-of-N on the full second-opinion sweep of the Kocher suite —
    # the run a --cross-check user pays for on top of the explorer.
    from _timing import measure

    def sps_sweep():
        from repro.api import AnalysisOptions
        for case in kocher:
            options = AnalysisOptions.for_case(case)
            explore_sps(case.program, case.config(), options,
                        stop_at_first=False)

    record["timing"] = {"sps_kocher_sweep": measure(sps_sweep)}

    # -- the verdict survives the CLI --json round trip ---------------------
    from repro.api.cli import main as cli_main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["analyze", "kocher_01", "--cross-check", "--json"])
    cli_report = json.loads(buf.getvalue())
    section = cli_report.get("cross_check") or {}
    record["cli_end_to_end"] = {
        "target": "kocher_01", "exit_code": code,
        "classification": section.get("classification"),
        "schema_version": cli_report.get("schema_version"),
    }
    return record


def check_gates(record):
    failures = []
    if record["disagreements"]:
        failures.append(f"backends disagree with both runs complete: "
                        f"{record['disagreements']}")
    if record["sps_incomplete"]:
        failures.append(f"sps truncated/exhausted on: "
                        f"{record['sps_incomplete']}")
    for name, entry in record["diffregress"].items():
        if entry["status"] != "agree" or not entry["observations"]:
            failures.append(f"regression case {name}: {entry['status']} "
                            f"with {len(entry['observations'])} obs")
    e2e = record["cli_end_to_end"]
    if (e2e["exit_code"] != 1 or e2e["classification"] != "agree"
            or e2e["schema_version"] != 8):
        failures.append(f"CLI cross-check end-to-end broken: {e2e}")
    return failures


def write_record(record, path=OUT):
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


# -- pytest entry point -------------------------------------------------------

def test_sps_gates(benchmark):
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
    statuses = [c["status"] for c in record["cases"].values()]
    agree = statuses.count("agree")
    print(f"speculation-passing second opinion on the Kocher suite:")
    print(f"  agreement: {agree}/{len(statuses)} agree, "
          f"{len(record['explained_budget'])} explained-budget, "
          f"{len(record['disagreements'])} disagree")
    pf_wall = sum(c["pitchfork"]["wall"] for c in record["cases"].values())
    sps_wall = sum(c["sps"]["wall"] for c in record["cases"].values())
    print(f"  wall (sum): pitchfork {pf_wall:.2f}s, sps {sps_wall:.2f}s")
    print(f"  diffregress: " + ", ".join(
        f"{name}={entry['status']}"
        for name, entry in sorted(record["diffregress"].items())))
    e2e = record["cli_end_to_end"]
    print(f"  CLI round trip: {e2e['target']} exit {e2e['exit_code']}, "
          f"classification {e2e['classification']} "
          f"(schema v{e2e['schema_version']})")
    print(f"wrote {path}")
    failures = check_gates(record)
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
