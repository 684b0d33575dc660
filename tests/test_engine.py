"""Unit tests for the structural-sharing execution core (repro.engine)."""

import copy
import pickle

import pytest

from repro.asm import assemble
from repro.core import (Config, Machine, Memory, PUBLIC, Region, SECRET,
                        Value, run)
from repro.core.directives import Execute, Fetch, Retire
from repro.core.errors import StuckError
from repro.engine import (EMPTY_LOG, EngineStats, ExecutionEngine, Log,
                          MachineState)


class TestLog:
    def test_empty(self):
        assert len(EMPTY_LOG) == 0
        assert not EMPTY_LOG
        assert EMPTY_LOG.materialize() == ()

    def test_append_is_persistent(self):
        a = EMPTY_LOG.append(1)
        b = a.append(2)
        c = a.append(3)  # fork: b and c share a
        assert a.materialize() == (1,)
        assert b.materialize() == (1, 2)
        assert c.materialize() == (1, 3)

    def test_extend(self):
        log = EMPTY_LOG.extend([1, 2]).extend([3])
        assert log.materialize() == (1, 2, 3)
        assert len(log) == 3

    def test_materialize_uses_cached_ancestor(self):
        a = EMPTY_LOG.extend(range(100))
        a.materialize()
        b = a.append(100)
        assert b.materialize() == tuple(range(101))

    def test_iter_and_last(self):
        log = EMPTY_LOG.extend("xyz")
        assert list(log) == ["x", "y", "z"]
        assert log.last() == "z"
        with pytest.raises(IndexError):
            EMPTY_LOG.last()


class TestMachineState:
    def test_config_snapshot_is_the_config(self):
        cfg = Config.initial({"ra": 1}, Memory(), 1)
        assert cfg.snapshot() is cfg

    def test_fork_is_independent(self):
        cfg = Config.initial({"ra": 1}, Memory(), 1)
        s = MachineState(cfg)
        s.schedule = s.schedule.append("d1")
        s.delayed.add(3)
        t = s.fork()
        t.schedule = t.schedule.append("d2")
        t.delayed.add(4)
        assert s.schedule.materialize() == ("d1",)
        assert t.schedule.materialize() == ("d1", "d2")
        assert s.delayed == {3}
        assert t.delayed == {3, 4}


class TestOverlayMemory:
    def test_write_shares_base(self):
        base = Memory({i: Value(i) for i in range(100)})
        m2 = base.write(5, Value(99))
        assert base.read(5).val == 5
        assert m2.read(5).val == 99
        assert m2._base is base._base  # storage genuinely shared

    def test_compaction_preserves_contents(self):
        mem = Memory()
        for i in range(200):  # far past the compaction threshold
            mem = mem.write(i, Value(i, SECRET if i % 3 else PUBLIC))
        assert all(mem.read(i).val == i for i in range(200))
        assert len(mem.cells()) == 200

    def test_equality_and_hash_across_overlay_shapes(self):
        a = Memory({1: Value(1)}).write(2, Value(2))
        b = Memory({1: Value(1), 2: Value(2)})
        assert a == b
        assert hash(a) == hash(b)

    def test_regions_survive_writes(self):
        mem = Memory().with_region(Region("A", 0x40, 4, PUBLIC))
        mem = mem.write(0x41, Value(7))
        assert mem.region("A").base == 0x40
        assert mem.region_of(0x41).name == "A"


class TestValueInterning:
    def test_small_ints_shared(self):
        assert Value(7) is Value(7)
        assert Value(7, SECRET) is Value(7, SECRET)
        assert Value(7) is not Value(7, SECRET)

    def test_big_payloads_not_interned_but_equal(self):
        a, b = Value(10**9), Value(10**9)
        assert a == b

    def test_copy_and_pickle_preserve_identity_semantics(self):
        v = Value(7, SECRET)
        assert copy.copy(v) is v
        assert copy.deepcopy(v) is v
        assert pickle.loads(pickle.dumps(v)) == v
        # Unpickling must not corrupt the intern table.
        assert Value(0).val == 0 and Value(0).label is PUBLIC


class TestExecutionEngine:
    def _engine(self):
        machine = Machine(assemble("%ra = op mov, 1\nhalt"))
        return ExecutionEngine(machine), Config.initial({}, Memory(), 1)

    def test_is_a_machine_drop_in(self):
        engine, cfg = self._engine()
        result = run(engine, cfg, (Fetch(None), Execute(1), Retire()))
        assert result.final.reg("ra").val == 1
        assert engine.stats.steps == 3

    def test_trial_then_commit_hits_cache(self):
        engine, cfg = self._engine()
        cfg, _ = engine.step(cfg, Fetch(None))
        assert engine.can(cfg, Execute(1))          # trial executes
        engine.step(cfg, Execute(1))                # commit is a hit
        assert engine.stats.cache_hits == 1

    def test_stuck_results_cached(self):
        engine, cfg = self._engine()
        for _ in range(2):
            with pytest.raises(StuckError):
                engine.step(cfg, Execute(9))
        assert engine.stats.stuck_hits == 1

    def test_fetch_and_retire_bypass_cache(self):
        engine, cfg = self._engine()
        engine.step(cfg, Fetch(None))
        engine.step(cfg, Fetch(None))  # same (config, directive), no hit
        assert engine.stats.cache_hits == 0
        assert engine.stats.steps == 2

    def test_stats_snapshot_and_avoided(self):
        stats = EngineStats(steps=10, cache_hits=2, stuck_hits=1, reused=4)
        snap = stats.snapshot()
        assert snap == stats and snap is not stats
        assert stats.avoided == 7

