"""ResultStore invariants: atomicity, corruption tolerance, GC — and
the AnalysisManager's adoption of the store as its disk cache tier.

The store's contract is "a bad object is a miss, never a crash":
truncated writes, garbled JSON, foreign schema versions and mislabelled
envelopes must all read as ``None`` (and quarantine themselves) so the
caller recomputes.  The index is an append-only journal of
``objects/``, not a source of truth: a put appends one line, and a
missing or damaged journal is rebuilt from the objects.
"""

import json
import os

import pytest

from repro.api import AnalysisManager, Project
from repro.serve import (ResultStore, STORE_VERSION, fingerprint_digest,
                         store_key, strip_volatile)


@pytest.fixture()
def report():
    return Project.from_litmus("kocher_01").run("pitchfork")


@pytest.fixture()
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


def _key(name="kocher_01", analysis="pitchfork", **opts):
    project = Project.from_litmus(name)
    return store_key(analysis, fingerprint_digest(project),
                     project.options.with_(**opts))


# -- round trips -------------------------------------------------------------


def test_put_get_roundtrip(store, report):
    key = _key()
    store.put(key, report, target="kocher_01", analysis="pitchfork")
    loaded = store.get(key)
    assert loaded is not None
    assert loaded.to_dict() == report.to_dict()
    assert store.stats.hits == 1 and store.stats.stores == 1


def test_miss_returns_none(store):
    assert store.get("0" * 64) is None
    assert store.stats.misses == 1


def test_contains(store, report):
    key = _key()
    assert not store.contains(key)
    store.put(key, report)
    assert store.contains(key)


def test_last_writer_wins(store, report):
    key = _key()
    store.put(key, report)
    store.put(key, report)
    assert len(store) == 1
    assert store.get(key).to_dict() == report.to_dict()


# -- corruption is a miss, never a crash -------------------------------------


def test_truncated_object_reads_as_miss_and_quarantines(store, report):
    key = _key()
    store.put(key, report)
    path = store.path_for(key)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[:len(text) // 2])        # a crashed writer's torso
    assert store.get(key) is None
    assert not os.path.exists(path)            # quarantined
    assert store.stats.corrupt == 1
    # The slot is reusable: a recompute stores and reads back cleanly.
    store.put(key, report)
    assert store.get(key).to_dict() == report.to_dict()


def test_garbage_bytes_read_as_miss(store, report):
    key = _key()
    store.put(key, report)
    with open(store.path_for(key), "wb") as fh:
        fh.write(b"\x00\xff not json")
    assert store.get(key) is None


def test_newer_store_version_reads_as_miss(store, report):
    key = _key()
    store.put(key, report)
    path = store.path_for(key)
    with open(path, encoding="utf-8") as fh:
        envelope = json.load(fh)
    envelope["store_version"] = STORE_VERSION + 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh)
    assert store.get(key) is None


def test_key_mismatch_reads_as_miss(store, report):
    """An envelope filed under the wrong name (copied, tampered) must
    not serve as that name's result."""
    key, other = _key(), _key("kocher_02")
    store.put(key, report)
    src = store.path_for(key)
    dst = store.path_for(other)
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    os.replace(src, dst)
    assert store.get(other) is None


def test_put_leaves_no_temp_files(store, report):
    store.put(_key(), report)
    strays = [name for _, _, names in os.walk(store.root)
              for name in names if name.startswith(".tmp-")]
    assert strays == []


# -- the index is a cache ----------------------------------------------------


def test_index_rebuilds_from_objects(store, report):
    key = _key()
    store.put(key, report, target="kocher_01", analysis="pitchfork")
    os.unlink(store._index_path)
    rows = store.entries()
    assert [row["key"] for row in rows] == [key]
    assert rows[0]["target"] == "kocher_01"


def test_corrupt_index_rebuilds(store, report):
    key = _key()
    store.put(key, report)
    with open(store._index_path, "w", encoding="utf-8") as fh:
        fh.write("{ nope")
    assert store.keys() == [key]


def _journal_lines(store):
    with open(store._index_path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def test_envelope_shape_and_version_are_unchanged(store, report):
    key = _key()
    store.put(key, report, target="kocher_01", analysis="pitchfork")
    with open(store.path_for(key), encoding="utf-8") as fh:
        envelope = json.load(fh)
    assert STORE_VERSION == 1
    assert sorted(envelope) == ["analysis", "key", "options", "report",
                                "semantics_epoch", "store_version",
                                "stored_at", "target"]
    assert envelope["store_version"] == 1 and envelope["key"] == key


def test_put_appends_one_line_without_reading_the_journal(
        store, report, monkeypatch):
    keys = [_key(bound=b) for b in (5, 6, 7)]
    store.put(keys[0], report)

    def no_load():
        raise AssertionError("put read the journal")
    monkeypatch.setattr(store, "_load_index", no_load)
    monkeypatch.setattr(store, "_rebuild_index", no_load)
    for n, key in enumerate(keys[1:], start=2):
        store.put(key, report)
        assert len(_journal_lines(store)) == n
    monkeypatch.undo()
    assert sorted(store.keys()) == sorted(keys)


def test_the_last_line_for_a_key_wins_and_gc_compacts(store, report):
    key = _key()
    store.put(key, report, target="first")
    store.put(key, report, target="second")
    assert len(_journal_lines(store)) == 2
    assert [row["target"] for row in store.entries()] == ["second"]
    assert store.gc() == 0
    assert len(_journal_lines(store)) == 1
    assert [row["target"] for row in store.entries()] == ["second"]


def test_put_into_a_store_without_a_journal_keeps_every_entry(store, report):
    keys = [_key(bound=b) for b in (5, 6)]
    for key in keys:
        store.put(key, report)
    os.unlink(store._index_path)
    late = _key(bound=7)
    store.put(late, report)
    assert sorted(store.keys()) == sorted(keys + [late])
    assert len(_journal_lines(store)) == 3


@pytest.mark.parametrize("damage", ["garbled-line", "torn-tail", "not-a-row"])
def test_damaged_journal_rebuilds(store, report, damage):
    keys = [_key(bound=b) for b in (5, 6, 7)]
    for key in keys:
        store.put(key, report)
    lines = _journal_lines(store)
    if damage == "garbled-line":
        lines[1] = "{ nope"
        text = "\n".join(lines) + "\n"
    elif damage == "torn-tail":
        text = "\n".join(lines)[:-5]
    else:
        lines[0] = json.dumps(["not", "a", "row"])
        text = "\n".join(lines) + "\n"
    with open(store._index_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    assert sorted(store.keys()) == sorted(keys)
    # The rebuild rewrote a compacted journal that now folds cleanly.
    assert len(_journal_lines(store)) == 3
    assert [json.loads(line)["key"] for line in _journal_lines(store)]


def test_legacy_index_json_store_lists_every_entry(store, report):
    """A store written before the journal has only ``index.json``; its
    listing comes from the objects, even where that index is stale."""
    keys = [_key(bound=b) for b in (5, 6, 7)]
    for key in keys:
        store.put(key, report, target="kocher_01")
    os.unlink(store._index_path)
    legacy = os.path.join(store.root, "index.json")
    with open(legacy, "w", encoding="utf-8") as fh:
        json.dump({keys[0]: {"target": "kocher_01", "analysis": "pitchfork",
                             "status": report.status,
                             "stored_at": 1.0}}, fh)
    reopened = ResultStore(store.root)
    assert sorted(reopened.keys()) == sorted(keys)
    assert not os.path.exists(legacy)
    assert len(_journal_lines(reopened)) == 3


# -- GC ----------------------------------------------------------------------


def test_gc_evicts_oldest_first(store, report):
    keys = [_key(bound=b) for b in (5, 6, 7)]
    for key in keys:
        store.put(key, report)
    # stored_at ties are broken by key; force a strict order instead.
    index = store._load_index()
    for i, key in enumerate(keys):
        index[key]["stored_at"] = float(i)
    store._write_index(index)
    assert store.gc(max_entries=1) == 2
    assert store.keys() == [keys[-1]]
    assert store.stats.evicted == 2


def test_gc_sweeps_stale_temp_files(store, report):
    key = _key()
    store.put(key, report)
    stray = os.path.join(os.path.dirname(store.path_for(key)),
                         ".tmp-dead.json")
    with open(stray, "w", encoding="utf-8") as fh:
        fh.write("{")
    store.gc()
    assert not os.path.exists(stray)
    assert store.contains(key)


def test_gc_max_age_drops_old_entries(store, report):
    old_key, new_key = _key(bound=5), _key(bound=6)
    store.put(old_key, report)
    store.put(new_key, report)
    index = store._load_index()
    index[old_key]["stored_at"] = 1.0          # the distant past
    store._write_index(index)
    assert store.gc(max_age=3600.0) == 1
    assert store.keys() == [new_key]


def test_unparseable_report_quarantined(store, report):
    """An envelope whose embedded report no longer round-trips is a
    miss, not a crash (e.g. a hand-edited or foreign object)."""
    key = _key()
    store.put(key, report)
    path = store.path_for(key)
    with open(path, encoding="utf-8") as fh:
        envelope = json.load(fh)
    envelope["report"] = {"nonsense": True}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh)
    assert store.get(key) is None
    assert not os.path.exists(path)


def test_max_entries_bounds_the_store(tmp_path, report):
    store = ResultStore(str(tmp_path / "store"), max_entries=2)
    for b in (5, 6, 7, 8):
        store.put(_key(bound=b), report)
    assert len(store) == 2


def test_clear(store, report):
    store.put(_key(), report)
    store.clear()
    assert len(store) == 0
    assert store.get(_key()) is None
    assert _journal_lines(store) == []


# -- the manager's disk tier -------------------------------------------------


def test_manager_disk_tier_survives_restart(tmp_path):
    root = str(tmp_path / "store")
    project = Project.from_litmus("kocher_02")

    first = AnalysisManager("pitchfork", store=root)
    report = first.run_one(project)
    info = first.cache_info()
    assert (info.hits, info.disk_hits, info.misses) == (0, 0, 1)
    assert info.stores == 1

    # A "restarted" manager (fresh memory cache, same store directory)
    # answers from disk without recomputing.
    second = AnalysisManager("pitchfork", store=root)
    again = second.run_one(project)
    info = second.cache_info()
    assert (info.hits, info.disk_hits, info.misses) == (0, 1, 0)
    assert again.to_dict() == report.to_dict()

    # And the disk hit primed the memory tier.
    second.run_one(project)
    assert second.cache_info().hits == 1


def test_another_semantics_epoch_recomputes(tmp_path, monkeypatch):
    """A store filled under epoch N answers nothing under epoch N+1: the
    key moves with the epoch, so the restarted manager recomputes."""
    from repro.serve import keys
    root = str(tmp_path / "store")
    project = Project.from_litmus("kocher_01")
    AnalysisManager("pitchfork", store=root).run_one(project)

    monkeypatch.setattr(keys, "SEMANTICS_EPOCH", keys.SEMANTICS_EPOCH + 1)
    later = AnalysisManager("pitchfork", store=root)
    later.run_one(project)
    info = later.cache_info()
    assert (info.hits, info.disk_hits, info.misses) == (0, 0, 1)
    assert info.stores == 1
    assert len(ResultStore(root).entries()) == 2


def test_envelope_of_another_epoch_reads_as_miss(store, report, monkeypatch):
    """Even filed under the very key asked for, an envelope written under
    another epoch (or before epochs existed) is a miss, never an answer."""
    from repro.serve import keys
    key = _key()
    store.put(key, report)
    monkeypatch.setattr(keys, "SEMANTICS_EPOCH", keys.SEMANTICS_EPOCH + 1)
    assert store.get(key) is None
    assert store.stats.misses == 1
    monkeypatch.undo()
    assert store.get(key) is not None

    path = store.path_for(key)
    with open(path, encoding="utf-8") as fh:
        envelope = json.load(fh)
    del envelope["semantics_epoch"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(envelope, fh)
    assert store.get(key) is None


def test_manager_store_accepts_instance(tmp_path):
    store = ResultStore(str(tmp_path / "store"))
    manager = AnalysisManager("pitchfork", store=store)
    manager.run_one(Project.from_litmus("kocher_01"))
    assert manager.store is store
    assert len(store) == 1


def test_manager_option_overrides_split_keys(tmp_path):
    """Different effective options → different store objects."""
    store = ResultStore(str(tmp_path / "store"))
    manager = AnalysisManager("pitchfork", store=store)
    project = Project.from_litmus("kocher_01")
    manager.run_one(project)
    manager.run_one(project, bound=7)
    assert len(store) == 2


def test_manager_corrupt_store_object_recomputes(tmp_path):
    root = str(tmp_path / "store")
    project = Project.from_litmus("kocher_01")
    first = AnalysisManager("pitchfork", store=root)
    report = first.run_one(project)

    store = ResultStore(root)
    key = store.keys()[0]
    with open(store.path_for(key), "w", encoding="utf-8") as fh:
        fh.write('{"store_version": 1, "key": "')   # torn write

    second = AnalysisManager("pitchfork", store=root)
    again = second.run_one(project)
    info = second.cache_info()
    assert (info.disk_hits, info.misses) == (0, 1)
    assert strip_volatile(again.to_dict()) == strip_volatile(report.to_dict())


def test_cache_info_dict_shape(tmp_path):
    manager = AnalysisManager("pitchfork", store=str(tmp_path / "s"))
    manager.run_one(Project.from_litmus("kocher_01"))
    assert manager.cache_info.to_dict() == {
        "hits": 0, "misses": 1, "size": 1, "disk_hits": 0, "stores": 1}
