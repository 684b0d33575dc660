"""Serve-mode economics: warm daemon submits vs cold CLI processes.

The serve subsystem's claim is that analysis-as-a-service amortises
what one-shot CLI calls pay every time: interpreter + import start-up,
worker-pool spawn, and the exploration itself (via the persistent
result store).  This benchmark measures that claim on a 10-case batch:

* **cold** — one ``python -m repro analyze <case> --json`` subprocess
  per case: the pre-serve unit of work, starting from nothing;
* **warm** — the same batch resubmitted over one socket to a running
  daemon that has already seen the keys: answered from the in-memory
  tier, no pool traffic;
* **store** — the batch against a *freshly restarted* daemon over the
  same store directory: answered from disk, the pool never starts.

Gates (both hard — this is the PR's acceptance bar):

* findings identity — every daemon report is byte-identical (modulo
  wall-clock fields, :func:`repro.serve.strip_volatile`) to the cold
  CLI report for the same case: **100 %** of the batch;
* warm speedup — the warm batch completes **≥ 3×** faster than the
  cold batch.  (In practice the margin is orders of magnitude — warm
  hits skip process start-up *and* exploration — so shared-runner
  noise cannot flip the gate.)

Running as a script (the CI perf-smoke job) writes ``BENCH_serve.json``
and exits nonzero when a gate fails:

    PYTHONPATH=src python benchmarks/bench_serve.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CASES = [f"kocher_{i:02d}" for i in range(1, 11)]
SPEEDUP_GATE = 3.0
#: Warm walls are min-of-REPEATS (cheap; cold subprocess runs are
#: measured once — start-up cost is the thing being measured, noise
#: and all).
REPEATS = 3
OUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cold_run(case: str):
    """One pre-serve unit of work: a fresh CLI process, timed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "analyze", case, "--json"],
        capture_output=True, text=True, env=env)
    wall = time.perf_counter() - t0
    if proc.returncode not in (0, 1):            # 1 = violation found
        raise RuntimeError(f"cold analyze {case} failed "
                           f"(exit {proc.returncode}): {proc.stderr}")
    return wall, json.loads(proc.stdout)


def run_benchmark():
    from repro.serve import ServeClient, start_in_thread, strip_volatile

    record = {"cases": CASES, "speedup_gate": SPEEDUP_GATE,
              "repeats": REPEATS, "per_case": {}}

    # -- cold leg: one subprocess per case --------------------------------
    cold_wall = 0.0
    cold_reports = {}
    for case in CASES:
        wall, payload = _cold_run(case)
        cold_wall += wall
        cold_reports[case] = strip_volatile(payload)
        record["per_case"][case] = {"cold_wall": round(wall, 6)}
    record["cold_wall"] = round(cold_wall, 6)

    tmp = tempfile.mkdtemp(prefix="repro-bench-serve-")
    try:
        sock = os.path.join(tmp, "daemon.sock")
        store = os.path.join(tmp, "store")
        mismatches = []

        # -- fill + warm leg: one daemon, one client, one socket --------------
        handle = start_in_thread(socket_path=sock, store=store, workers=2)
        try:
            with ServeClient(socket_path=sock) as client:
                for case in CASES:                       # fill (computed)
                    report, _ = client.submit_and_wait(
                        {"kind": "name", "name": case})
                    if strip_volatile(report.to_dict()) != cold_reports[case]:
                        mismatches.append(case)
                warm_wall = None
                for _ in range(REPEATS):                 # warm (memory tier)
                    t0 = time.perf_counter()
                    for case in CASES:
                        client.submit_and_wait({"kind": "name", "name": case})
                    wall = time.perf_counter() - t0
                    warm_wall = wall if warm_wall is None \
                        else min(warm_wall, wall)
                stats = client.stats()
        finally:
            handle.stop()
        record["warm_wall"] = round(warm_wall, 6)
        record["warm_source_counts"] = stats["cache"]

        # -- store leg: restarted daemon, disk tier, pool never starts --------
        handle = start_in_thread(socket_path=sock, store=store, workers=2)
        try:
            with ServeClient(socket_path=sock) as client:
                t0 = time.perf_counter()
                for case in CASES:
                    report, cache = client.submit_and_wait(
                        {"kind": "name", "name": case})
                    if strip_volatile(report.to_dict()) != cold_reports[case]:
                        mismatches.append(f"{case} (store)")
                record["store_wall"] = round(time.perf_counter() - t0, 6)
                record["store_pool_started"] = handle.server.pool.started
        finally:
            handle.stop()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record["mismatches"] = mismatches
    record["findings_identical"] = not mismatches
    record["identity_rate"] = round(
        1.0 - len(set(m.split(" ")[0] for m in mismatches)) / len(CASES),
        3)
    record["speedup"] = round(cold_wall / max(warm_wall, 1e-9), 2)
    record["speedup_ok"] = record["speedup"] >= SPEEDUP_GATE
    record["ok"] = (record["findings_identical"] and record["speedup_ok"]
                    and record["store_pool_started"] is False)
    return record


def write_record(record, path=OUT):
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


# -- pytest entry point -------------------------------------------------------

def test_serve_warm_vs_cold(benchmark):
    """100% findings identity; warm batch >=3x faster than cold."""
    from conftest import once
    record = once(benchmark, run_benchmark)
    write_record(record)
    assert record["findings_identical"], record["mismatches"]
    assert record["speedup_ok"], record["speedup"]
    assert record["store_pool_started"] is False


def main() -> int:
    sys.path.insert(0, SRC)
    record = run_benchmark()
    path = write_record(record)
    print(f"serve warm-vs-cold ({len(CASES)} cases):")
    print(f"  cold  (one process per case): {record['cold_wall']:.3f}s")
    print(f"  warm  (resident daemon)     : {record['warm_wall']:.3f}s  "
          f"({record['speedup']}x, gate >= {SPEEDUP_GATE}x)")
    print(f"  store (restarted daemon)    : {record['store_wall']:.3f}s  "
          f"(pool started: {record['store_pool_started']})")
    print(f"  findings identity: {record['identity_rate']:.0%}"
          + (f"; MISMATCHES: {record['mismatches']}"
             if record["mismatches"] else ""))
    print(f"wrote {path}")
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
