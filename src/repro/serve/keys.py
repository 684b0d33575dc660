"""Stable, cross-process cache keys for analysis results.

The in-memory :class:`~repro.api.manager.AnalysisManager` cache keyed on
``(analysis, Project.fingerprint(), AnalysisOptions)`` worked because
frozen dataclasses hash consistently *within* one interpreter.  A disk
store shared between processes (and between daemon restarts) needs
more:

* **canonical options** — :func:`canonical_options` reduces an
  :class:`~repro.api.project.AnalysisOptions` to the sorted tuple of its
  *non-default* fields.  Two option objects constructed differently but
  equal field-wise map to the same key, and — because defaulted fields
  are omitted — adding a new option with a default value in a later
  schema does not invalidate every previously stored result;
* **content-addressed targets** — :func:`fingerprint_digest` renders the
  ``(program, initial config)`` pair into a canonical text (sorted
  registers, sorted memory cells, instruction listing) and hashes it
  with SHA-256.  The digest is independent of ``PYTHONHASHSEED``,
  interpreter version details, and dict construction order, so any
  process computes the same address for the same target;
* **one key string** — :func:`store_key` combines analysis name, target
  digest and canonical options into the hex name a
  :class:`~repro.serve.store.ResultStore` object is filed under;
* **a semantics epoch** — a defaulted option means whatever the
  current default is, and a result means whatever the current explorer
  computes.  :data:`SEMANTICS_EPOCH` names that meaning; it is part of
  every key and of every stored envelope, so a result computed under
  another epoch is a miss, never an answer.

:func:`strip_volatile` is the comparison normaliser used by the
differential gates (tests and ``benchmarks/bench_serve.py``): it zeroes
the wall-clock fields and drops the serve-injected ``details.cache``
section, after which a daemon-computed report must be *byte-identical*
to the in-process ``analyze()`` report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, fields
from typing import Any, Dict, Mapping, Tuple

__all__ = ["SEMANTICS_EPOCH", "canonical_options", "fingerprint_digest",
           "options_digest", "store_key", "strip_volatile"]

#: What a stored result means: bumped whenever a default option or the
#: explorer's search changes what an unchanged key would compute.
#: 1 — ``prune="full"`` became the default, and the store-address
#: timing fork became label-gated.
SEMANTICS_EPOCH = 1


def canonical_options(options) -> Tuple[Tuple[str, Any], ...]:
    """The sorted ``(name, value)`` tuple of non-default option fields.

    Hashable (sequence values are already normalised to tuples by
    ``AnalysisOptions.__post_init__``) and stable across processes.
    """
    out = []
    for f in fields(options):
        value = getattr(options, f.name)
        if f.default is not MISSING and value == f.default:
            continue
        out.append((f.name, value))
    return tuple(sorted(out))


def _render_value(value) -> str:
    """``val:label`` for a labelled machine value."""
    return f"{value.val!r}:{value.label.name}@{value.label.lattice}"


def _target_text(name: str, program, config) -> str:
    """A canonical, deterministic rendering of (program, initial config).

    Dict ordering never leaks in: registers sort by name, memory cells
    by address.  The reorder buffer and RSB of an *initial*
    configuration are empty, but their reprs are included so a
    non-initial configuration can never collide with the initial one.
    """
    lines = [f"name={name}", f"entry={program.entry}"]
    for pp, instr in sorted(program.items()):
        lines.append(f"{pp}: {instr!r}")
    lines.append(f"pc={config.pc}")
    for reg, value in sorted(config.regs.items(), key=lambda kv: kv[0].name):
        lines.append(f"reg {reg.name}={_render_value(value)}")
    for addr, value in sorted(config.mem.cells().items()):
        lines.append(f"mem {addr:#x}={_render_value(value)}")
    lines.append(f"buf={config.buf!r}")
    lines.append(f"rsb={config.rsb!r}")
    return "\n".join(lines)


#: Digests of projects built from registry records, by ``(name,
#: make_config)``, each with the record's ``program``.  The entry holds
#: both record objects, so neither can be collected and its identity
#: reused; a rebuilt registry's new records miss.
_RECORD_DIGESTS: Dict[Tuple[str, Any], Tuple[Any, str]] = {}


def fingerprint_digest(project) -> str:
    """SHA-256 hex digest of a project's (name, program, initial config).

    The cross-process form of :meth:`repro.api.project.Project
    .fingerprint`: equal digests ⇒ equal fingerprints ⇒ identical
    analysis results under equal options.

    A project built from a registry record (a litmus case or a Table 2
    cell: its configuration comes from the record's ``make_config``) is
    digested once per process; an ``asm`` project, whose configuration
    is a value, is digested on every call.
    """
    make_config = project._make_config
    if make_config is None:
        return _digest(project)
    memo_key = (project.name, make_config)
    hit = _RECORD_DIGESTS.get(memo_key)
    if hit is not None and hit[0] is project.program:
        return hit[1]
    digest = _digest(project)
    _RECORD_DIGESTS[memo_key] = (project.program, digest)
    return digest


def _digest(project) -> str:
    text = _target_text(project.name, project.program, project.config())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def options_digest(options) -> str:
    """SHA-256 hex digest of the canonical option tuple."""
    text = repr(canonical_options(options))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def store_key(analysis: str, fingerprint: str, options) -> str:
    """The content address of one ``(target, analysis, options)`` result.

    ``fingerprint`` is a :func:`fingerprint_digest`; ``options`` is an
    ``AnalysisOptions`` or an already-canonical tuple.  The key is the
    SHA-256 of the three parts and :data:`SEMANTICS_EPOCH`, so it is
    filename-safe and uniform.
    """
    canon = options if isinstance(options, tuple) \
        else canonical_options(options)
    text = f"epoch={SEMANTICS_EPOCH}\n{analysis}\n{fingerprint}\n{canon!r}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def strip_volatile(report_dict: Mapping[str, Any]) -> Dict[str, Any]:
    """A deep copy with run-to-run noise removed, for byte-identity
    comparisons between daemon-computed and in-process reports.

    Zeroes every wall-clock reading (top level, per phase, the
    first-violation latch, and the anytime consumption stats) and drops
    the serve layer's ``details.cache`` annotation.  Everything else —
    statuses, violations, counters, pruning accounting — must match
    exactly.
    """
    out = json.loads(json.dumps(dict(report_dict), sort_keys=True))
    out["wall_time"] = 0.0
    for phase in out.get("phases", ()):
        phase["wall_time"] = 0.0
    first_violation = out.get("first_violation")
    if isinstance(first_violation, dict):
        first_violation["wall_time"] = 0.0
    anytime = out.get("anytime")
    if isinstance(anytime, dict):
        anytime["budget_consumed"] = 0.0
        if anytime.get("first_violation_time") is not None:
            anytime["first_violation_time"] = 0.0
    telemetry = out.get("telemetry")
    if isinstance(telemetry, dict):
        # The heatmap/fork-level counters are deterministic for a fixed
        # configuration; wall_time is the section's only volatile field.
        telemetry["wall_time"] = 0.0
    cross_check = out.get("cross_check")
    if isinstance(cross_check, dict):
        # Observation sets and completeness flags are deterministic;
        # the per-backend wall times are the section's only volatile
        # fields.
        for key in list(cross_check):
            if key.endswith("_wall_time"):
                cross_check[key] = 0.0
    details = out.get("details")
    if isinstance(details, dict):
        details.pop("cache", None)
    return out
