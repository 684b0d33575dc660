"""A persistent, content-addressed store for analysis :class:`Report`s.

Results are filed under the :func:`~repro.serve.keys.store_key` of their
``(target fingerprint, analysis, options)`` triple::

    <root>/objects/<key[:2]>/<key>.json     one envelope per result
    <root>/index.jsonl                      listing/GC journal

Invariants the rest of the serve stack relies on:

* **atomic writes** — an envelope is written to a same-directory temp
  file and ``os.replace``d into place, so a reader never observes a
  half-written object and a crashed writer leaves at most a temp file
  (swept by :meth:`ResultStore.gc`);
* **corrupt reads are misses** — truncated/garbled JSON, an envelope
  whose recorded key does not match its filename, or a report that no
  longer round-trips raises nothing: :meth:`get` quarantines the object
  (unlinks it) and returns ``None``, so the caller recomputes instead
  of crashing;
* **schema-versioned** — the envelope records its own
  :data:`STORE_VERSION` and the embedded report carries the report
  ``schema_version``; objects written by a *newer* store or report
  schema read as misses rather than misparses.  Older report schemas
  are accepted exactly as :meth:`Report.from_dict` accepts them.  The
  envelope also records the :data:`~repro.serve.keys.SEMANTICS_EPOCH`
  it was computed under; an envelope of another epoch (or of none) is
  a miss, never an answer, though it stays listed until :meth:`gc`
  evicts it;
* **self-healing index** — ``index.jsonl`` is an append-only journal
  of the object directory, not the source of truth.  :meth:`put` writes
  the object first and then appends one JSON line in a single
  ``O_APPEND`` write, so a put costs the same however large the store.
  Reading folds the lines, the last line for a key winning.  A missing
  journal, an unparseable line or a torn last line means a rebuild by
  scanning ``objects/`` and a compacted atomic rewrite; that is safe
  because no line is written before its object.  A put into a store
  with no journal rebuilds rather than starting a one-line journal that
  would hide the entries already on disk.  :meth:`gc` and :meth:`clear`
  compact the journal.  A store written before the journal (with only
  the whole-index ``index.json``) has no journal, so it is rebuilt and
  lists every entry; the stale ``index.json`` is removed then.

The store is safe for concurrent readers and writer processes: an
object is replaced by an atomic rename (last writer wins — both writers
hold the same deterministic result, so the race is benign).  A line
appended while another process compacts the journal can drop out of
the listing until the next rebuild; it never changes an answer, which
:meth:`get` reads from ``objects/``.

:class:`ReportCache` puts an in-process memory tier in front of a
store; it is the one tier walk of the manager and the daemon.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..api.report import Report
from . import keys

__all__ = ["ResultStore", "ReportCache", "StoreStats", "STORE_VERSION"]

#: Version of the on-disk envelope shape.
STORE_VERSION = 1


@dataclass
class StoreStats:
    """Counters for one :class:`ResultStore` instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0        #: objects quarantined by failed reads
    evicted: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "corrupt": self.corrupt,
                "evicted": self.evicted}


class ResultStore:
    """Disk-backed result cache, content-addressed by
    :func:`~repro.serve.keys.store_key`.

        store = ResultStore("~/.cache/repro-store")
        store.put(key, report, target="kocher_01", analysis="pitchfork")
        report = store.get(key)        # None on miss/corruption
    """

    def __init__(self, root: str, max_entries: Optional[int] = None):
        self.root = os.path.abspath(os.path.expanduser(root))
        self.objects = os.path.join(self.root, "objects")
        self._index_path = os.path.join(self.root, "index.jsonl")
        self._legacy_index_path = os.path.join(self.root, "index.json")
        self.max_entries = max_entries
        self.stats = StoreStats()
        self._lock = threading.Lock()
        os.makedirs(self.objects, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    def path_for(self, key: str) -> str:
        return os.path.join(self.objects, key[:2], f"{key}.json")

    # -- read ----------------------------------------------------------------

    def get(self, key: str) -> Optional[Report]:
        """The stored report, or ``None`` (miss, corruption, or a newer
        schema than this process can parse, or another semantics
        epoch)."""
        envelope = self._read_envelope(key)
        if envelope is None or \
                envelope.get("semantics_epoch") != keys.SEMANTICS_EPOCH:
            self.stats.misses += 1
            return None
        try:
            report = Report.from_dict(envelope["report"])
        except (ValueError, KeyError, TypeError):
            self._quarantine(key)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return report

    def contains(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    def _read_envelope(self, key: str) -> Optional[Dict[str, Any]]:
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as fh:
                envelope = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            # Truncated by a crashed writer or corrupted on disk:
            # quarantine so the next writer replaces it cleanly.
            self._quarantine(key)
            return None
        if (not isinstance(envelope, dict)
                or envelope.get("store_version", 0) > STORE_VERSION
                or envelope.get("key") != key
                or "report" not in envelope):
            self._quarantine(key)
            return None
        return envelope

    def _quarantine(self, key: str) -> None:
        try:
            os.unlink(self.path_for(key))
            self.stats.corrupt += 1
        except OSError:  # pragma: no cover - already gone / perms
            pass

    # -- write ---------------------------------------------------------------

    def put(self, key: str, report: Report, *,
            target: str = "", analysis: str = "",
            options: Any = None) -> None:
        """Atomically file ``report`` under ``key``, then journal it."""
        envelope = {
            "store_version": STORE_VERSION,
            "semantics_epoch": keys.SEMANTICS_EPOCH,
            "key": key,
            "target": target or report.target,
            "analysis": analysis or report.analysis,
            "options": repr(options) if options is not None else None,
            "stored_at": time.time(),
            "report": report.to_dict(),
        }
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._atomic_write(path, json.dumps(envelope, sort_keys=True))
        self.stats.stores += 1
        line = _journal_line(key, {"target": envelope["target"],
                                   "analysis": envelope["analysis"],
                                   "status": report.status,
                                   "stored_at": envelope["stored_at"]})
        with self._lock:
            try:
                fd = os.open(self._index_path, os.O_WRONLY | os.O_APPEND)
            except FileNotFoundError:
                # Appending would start a journal that hides every
                # entry already on disk; the rebuild finds this one too.
                self._rebuild_journal()
            else:
                try:
                    os.write(fd, line.encode("utf-8"))
                finally:
                    os.close(fd)
        if self.max_entries is not None:
            self.gc(max_entries=self.max_entries)

    @staticmethod
    def _atomic_write(path: str, text: str) -> None:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - already renamed
                pass
            raise

    # -- the index and GC ----------------------------------------------------

    def _load_index(self) -> Dict[str, Dict[str, Any]]:
        """The journal folded to ``key -> meta``, rebuilt from
        ``objects/`` when it is missing or damaged."""
        try:
            with open(self._index_path, "rb") as fh:
                index = _fold_journal(fh.read())
        except OSError:
            index = None
        if index is None:
            index = self._rebuild_journal()
        return index

    def _rebuild_journal(self) -> Dict[str, Dict[str, Any]]:
        """Rescan ``objects/``, write the compacted journal and drop a
        legacy ``index.json`` (a store this process cannot write to is
        still listed)."""
        index = self._rebuild_index()
        try:
            self._write_index(index)
            os.unlink(self._legacy_index_path)
        except OSError:
            pass
        return index

    def _rebuild_index(self) -> Dict[str, Dict[str, Any]]:
        """Rescan ``objects/`` — the journal is only a record of it."""
        index: Dict[str, Dict[str, Any]] = {}
        for dirpath, _dirs, names in os.walk(self.objects):
            for name in names:
                if not name.endswith(".json") or name.startswith(".tmp-"):
                    continue
                key = name[:-len(".json")]
                envelope = self._read_envelope(key)
                if envelope is not None:
                    index[key] = {
                        "target": envelope.get("target", ""),
                        "analysis": envelope.get("analysis", ""),
                        "status": envelope.get("report", {}).get("status"),
                        "stored_at": envelope.get("stored_at", 0.0)}
        return index

    def _write_index(self, index: Mapping[str, Any]) -> None:
        """Atomically replace the journal with one line per entry."""
        self._atomic_write(self._index_path, "".join(
            _journal_line(key, meta) for key, meta in index.items()))

    def entries(self) -> List[Dict[str, Any]]:
        """Indexed entries, oldest first; each carries its ``key``."""
        with self._lock:
            index = self._load_index()
        rows = [{"key": key, **meta} for key, meta in index.items()]
        rows.sort(key=lambda row: (row.get("stored_at", 0.0), row["key"]))
        return rows

    def keys(self) -> List[str]:
        return [row["key"] for row in self.entries()]

    def __len__(self) -> int:
        return len(self.entries())

    def gc(self, max_entries: Optional[int] = None,
           max_age: Optional[float] = None) -> int:
        """Evict oldest-first down to ``max_entries`` and/or drop
        entries older than ``max_age`` seconds; sweep stale temp files
        and compact the journal.  Returns the number of objects
        removed."""
        rows = self.entries()
        doomed: List[str] = []
        if max_age is not None:
            cutoff = time.time() - max_age
            doomed.extend(r["key"] for r in rows
                          if r.get("stored_at", 0.0) < cutoff)
        if max_entries is not None and len(rows) > max_entries:
            survivors = [r for r in rows if r["key"] not in set(doomed)]
            doomed.extend(r["key"]
                          for r in survivors[:len(survivors) - max_entries])
        for dirpath, _dirs, names in os.walk(self.objects):
            for name in names:
                if name.startswith(".tmp-"):
                    try:
                        os.unlink(os.path.join(dirpath, name))
                    except OSError:  # pragma: no cover - racing writer
                        pass
        for key in doomed:
            try:
                os.unlink(self.path_for(key))
            except OSError:  # pragma: no cover - already gone
                pass
        self.stats.evicted += len(doomed)
        with self._lock:
            index = self._load_index()
            for key in doomed:
                index.pop(key, None)
            self._write_index(index)
        return len(doomed)

    def clear(self) -> None:
        """Drop every stored object (the journal is emptied)."""
        for key in self.keys():
            try:
                os.unlink(self.path_for(key))
            except OSError:  # pragma: no cover - already gone
                pass
        with self._lock:
            self._write_index({})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({self.root!r}, {len(self)} entries)"


def _journal_line(key: str, meta: Mapping[str, Any]) -> str:
    return json.dumps({"key": key, **meta}, sort_keys=True) + "\n"


def _fold_journal(data: bytes) -> Optional[Dict[str, Dict[str, Any]]]:
    """``key -> meta`` with the last line for a key winning, or
    ``None`` when a line does not parse or the last one is torn."""
    if data and not data.endswith(b"\n"):
        return None
    index: Dict[str, Dict[str, Any]] = {}
    for line in data.splitlines():
        try:
            row = json.loads(line)
        except ValueError:
            return None
        if not isinstance(row, dict) or not isinstance(row.get("key"), str):
            return None
        index[row.pop("key")] = row
    return index


class ReportCache:
    """The two cache tiers in front of an analysis: an in-process memory
    map over an optional :class:`ResultStore`, both keyed by
    :func:`~repro.serve.keys.store_key`.

    The one tier walk shared by :class:`~repro.api.manager
    .AnalysisManager` and the serve daemon.  A cached report answers
    every request with the same effective options, so the caller
    restates its ``*_ignored`` details for the request it answers
    (:func:`~repro.api.analyses.restate_ignored`).
    """

    def __init__(self, store: Optional[ResultStore] = None):
        self.store = store
        self._memory: Dict[str, Report] = {}
        self.memory_hits = 0
        self.store_hits = 0

    def get(self, key: str) -> Tuple[Optional[Report], Optional[str]]:
        """``(report, source)``: memory first, then the store (a store
        hit is copied into memory), with ``source`` ``"memory"`` or
        ``"store"``; ``(None, None)`` on a miss."""
        report = self._memory.get(key)
        if report is not None:
            self.memory_hits += 1
            return report, "memory"
        if self.store is not None:
            report = self.store.get(key)
            if report is not None:
                self.store_hits += 1
                self._memory[key] = report
                return report, "store"
        return None, None

    def put(self, key: str, report: Report, **meta: Any) -> None:
        """File ``report`` in memory and in the store (``meta`` is the
        store envelope's ``target``/``analysis``)."""
        self._memory[key] = report
        if self.store is not None:
            self.store.put(key, report, **meta)

    def __len__(self) -> int:
        return len(self._memory)
