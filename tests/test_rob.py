"""Unit tests for the reorder buffer and register resolve function (Fig 3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import Config
from repro.core.memory import Memory
from repro.core.rob import (ReorderBuffer, resolve_operand, resolve_operands,
                            resolve_register)
from repro.core.transient import (TBr, TCallMarker, TFence, TJmpi, TJump,
                                  TLoad, TOp, TRetMarker, TStore, TValue)
from repro.core.values import BOTTOM, Reg, Value, operands, public, secret
from repro.engine.por import _operand_sources

RA, RB = Reg("ra"), Reg("rb")


def _buf(*instrs):
    buf = ReorderBuffer()
    for instr in instrs:
        _i, buf = buf.insert_next(instr)
    return buf


class TestBufferBasics:
    def test_empty_min_max_zero(self):
        buf = ReorderBuffer()
        assert buf.min_index() == 0 and buf.max_index() == 0

    def test_first_insert_at_one(self):
        i, buf = ReorderBuffer().insert_next(TValue(RA, public(1)))
        assert i == 1 and buf.min_index() == buf.max_index() == 1

    def test_contiguous_domain(self):
        buf = _buf(*(TValue(RA, public(k)) for k in range(5)))
        assert list(buf.indices()) == [1, 2, 3, 4, 5]

    def test_set_replaces(self):
        buf = _buf(TValue(RA, public(1)))
        buf2 = buf.set(1, TValue(RA, public(2)))
        assert buf2[1].value.val == 2 and buf[1].value.val == 1  # immutable

    def test_set_missing_raises(self):
        with pytest.raises(KeyError):
            ReorderBuffer().set(1, TValue(RA, public(1)))

    def test_remove_min_advances_base(self):
        buf = _buf(TValue(RA, public(1)), TValue(RB, public(2)))
        buf2 = buf.remove_min()
        assert buf2.min_index() == 2 and 1 not in buf2

    def test_indices_monotone_after_drain(self):
        """Drained buffers keep counting up (matches Fig 13's numbering)."""
        buf = _buf(TValue(RA, public(1)))
        buf = buf.remove_min()
        i, buf = buf.insert_next(TValue(RB, public(2)))
        assert i == 2

    def test_truncate_before(self):
        buf = _buf(*(TValue(RA, public(k)) for k in range(5)))
        buf2 = buf.truncate_before(3)
        assert list(buf2.indices()) == [1, 2]

    def test_truncate_to_empty_reuses_index(self):
        buf = _buf(TValue(RA, public(1)), TValue(RB, public(2)))
        buf = buf.remove_min()          # min is now 2
        buf = buf.truncate_before(2)    # empty
        i, _ = buf.insert_next(TValue(RA, public(3)))
        assert i == 2                   # reuses the squashed slot

    def test_truncate_beyond_max_noop(self):
        buf = _buf(TValue(RA, public(1)))
        assert buf.truncate_before(99) == buf

    def test_equality_and_hash(self):
        a = _buf(TValue(RA, public(1)))
        b = _buf(TValue(RA, public(1)))
        assert a == b and hash(a) == hash(b)

    def test_empty_buffers_equal(self):
        assert ReorderBuffer() == _buf(TValue(RA, public(1))).remove_min()

    def test_retire_empty_raises(self):
        with pytest.raises(KeyError):
            ReorderBuffer().remove_min()


class TestRegisterResolve:
    """The (buf +i ρ) function of Figure 3."""

    def test_falls_back_to_register_file(self):
        buf = ReorderBuffer()
        assert resolve_register(buf, 1, {RA: public(9)}, RA) == public(9)

    def test_latest_resolved_assignment_wins(self):
        buf = _buf(TValue(RA, public(1)), TValue(RA, public(2)))
        assert resolve_register(buf, 3, {RA: public(0)}, RA) == public(2)

    def test_only_assignments_before_i(self):
        buf = _buf(TValue(RA, public(1)), TValue(RA, public(2)))
        assert resolve_register(buf, 2, {RA: public(0)}, RA) == public(1)

    def test_unresolved_assignment_is_bottom(self):
        buf = _buf(TOp(RA, "add", operands(1, 2)))
        assert resolve_register(buf, 2, {RA: public(0)}, RA) is BOTTOM

    def test_unresolved_load_is_bottom(self):
        buf = _buf(TLoad(RA, operands(0x40), pp=1))
        assert resolve_register(buf, 2, {RA: public(0)}, RA) is BOTTOM

    def test_pending_assignment_shadows_older_resolved(self):
        """Fig 3: the *latest* assignment counts, even if unresolved."""
        buf = _buf(TValue(RA, public(1)), TOp(RA, "add", operands(1, 2)))
        assert resolve_register(buf, 3, {RA: public(0)}, RA) is BOTTOM

    def test_partially_resolved_load_provides_value(self):
        """Section 3.5's extension: a predicted-forward load resolves."""
        buf = _buf(TLoad(RA, operands(0x40), pp=1, pred=(secret(7), 0)))
        assert resolve_register(buf, 2, {RA: public(0)}, RA) == secret(7)

    def test_missing_register_raises(self):
        with pytest.raises(KeyError):
            resolve_register(ReorderBuffer(), 1, {}, RA)

    def test_stores_do_not_assign(self):
        buf = _buf(TStore(RA, operands(0x40)))
        assert resolve_register(buf, 2, {RA: public(5)}, RA) == public(5)

    def test_resolve_operand_value_identity(self):
        v = secret(3)
        assert resolve_operand(ReorderBuffer(), 1, {}, v) == v

    def test_resolve_operands_none_on_bottom(self):
        buf = _buf(TOp(RA, "add", operands(1, 2)))
        assert resolve_operands(buf, 2, {RA: public(0)}, (RA, RB)) is None

    def test_resolve_operands_all_good(self):
        buf = _buf(TValue(RA, public(1)))
        out = resolve_operands(buf, 2, {RB: public(2)}, operands("ra", "rb", 3))
        assert out == (public(1), public(2), public(3))


# ---------------------------------------------------------------------------
# The tight producer scan against a literal Fig 3 walk
# ---------------------------------------------------------------------------

def assigns(instr, reg):
    """Does this transient instruction have the form ``(reg = _)``?"""
    return isinstance(instr, (TOp, TValue, TLoad)) and instr.dest == reg


def reference_producer(buf, i, reg):
    """Fig 3's search, index by index: the youngest ``(reg = _)`` strictly
    before ``i``, as (index, instruction), or None."""
    for j in reversed(buf.indices()):
        if j < i and assigns(buf[j], reg):
            return j, buf[j]
    return None


def reference_resolve(buf, i, regs, reg):
    """``(buf +i ρ)(r)`` on top of :func:`reference_producer`."""
    hit = reference_producer(buf, i, reg)
    if hit is None:
        return regs[reg]
    instr = hit[1]
    if isinstance(instr, TValue):
        return instr.value
    if isinstance(instr, TLoad) and instr.pred is not None:
        return instr.pred[0]
    return BOTTOM


REGS = [Reg("ra"), Reg("rb"), Reg("rc")]
_regs = st.sampled_from(REGS)
_vals = st.builds(Value, st.integers(0, 3), st.sampled_from(
    [public(0).label, secret(0).label]))
_args = st.lists(st.one_of(_regs, _vals), max_size=2).map(tuple)
_pcs = st.integers(1, 9)

#: One strategy per transient kind: all ten forms of Table 1.
TRANSIENTS = st.one_of(
    st.builds(TOp, _regs, st.just("add"), _args),
    st.builds(TValue, _regs, _vals),
    st.builds(TValue, _regs, _vals, st.integers(1, 9), st.integers(0, 64),
              _pcs),
    st.builds(TBr, st.just("lt"), _args, _pcs, st.tuples(_pcs, _pcs)),
    st.builds(TJump, _pcs),
    st.builds(TLoad, _regs, _args, _pcs),
    st.builds(TLoad, _regs, _args, _pcs, st.tuples(_vals, st.integers(1, 9))),
    st.builds(TStore, st.one_of(_regs, _vals), _args,
              st.one_of(st.none(), _vals)),
    st.builds(TJmpi, _args, _pcs),
    st.just(TFence()), st.just(TCallMarker()), st.just(TRetMarker()),
)

#: Buffer histories: fetches, retires (draining when the count covers
#: the whole buffer) and rollbacks, so bases move and indices get reused.
_EDITS = st.lists(st.one_of(
    st.tuples(st.just("insert"), TRANSIENTS),
    st.tuples(st.just("retire"), st.integers(1, 4)),
    st.tuples(st.just("truncate"), st.integers(0, 12)),
), max_size=20)


def _history(edits):
    buf = ReorderBuffer()
    for kind, arg in edits:
        if kind == "insert":
            _i, buf = buf.insert_next(arg)
        elif kind == "retire":
            buf = buf.remove_min(min(arg, len(buf)))
        else:
            buf = buf.truncate_before(buf.min_index() + arg - 2)
    return buf


def _probe_indices(buf):
    """Every index in the buffer, below its base, at ``MAX + 1`` and
    beyond it."""
    lo, hi = buf.min_index(), buf.max_index()
    return range(lo - 2, hi + 4)


class TestProducerScan:
    @settings(max_examples=300, deadline=None)
    @given(_EDITS)
    def test_producer_before_matches_fig3_walk(self, edits):
        buf = _history(edits)
        for i in _probe_indices(buf):
            for reg in REGS:
                assert buf.producer_before(i, reg) == \
                    reference_producer(buf, i, reg)

    @settings(max_examples=300, deadline=None)
    @given(_EDITS, st.lists(_regs, unique=True))
    def test_resolve_register_matches_fig3(self, edits, defined):
        buf = _history(edits)
        regs = {reg: public(7) for reg in defined}
        for i in _probe_indices(buf):
            for reg in REGS:
                try:
                    want = reference_resolve(buf, i, regs, reg)
                except KeyError:
                    with pytest.raises(KeyError):
                        resolve_register(buf, i, regs, reg)
                    continue
                got = resolve_register(buf, i, regs, reg)
                assert got is want or got == want

    @settings(max_examples=300, deadline=None)
    @given(_EDITS, _args)
    def test_por_operand_sources_match_fig3_walk(self, edits, args):
        buf = _history(edits)
        config = Config.initial({}, Memory(), 1).with_(buf=buf)
        for i in _probe_indices(buf):
            want = set()
            for arg in args:
                if isinstance(arg, Reg):
                    hit = reference_producer(buf, i, arg)
                    want.add(("reg", arg.name) if hit is None
                             else ("buf", hit[0]))
            assert _operand_sources(config, i, args) == want

    def test_histories_cover_shifted_and_truncated_bases(self):
        drained = _history([("insert", TFence()), ("retire", 1),
                            ("insert", TValue(RA, public(1)))])
        assert drained.min_index() == 2
        assert drained.producer_before(3, RA) == (2, TValue(RA, public(1)))
        assert drained.producer_before(2, RA) is None
        assert drained.producer_before(0, RA) is None
        cut = _history([("insert", TValue(RA, public(1))),
                        ("insert", TValue(RA, public(2))),
                        ("truncate", 3)])
        assert list(cut.indices()) == [1]
        assert cut.producer_before(99, RA) == (1, TValue(RA, public(1)))
