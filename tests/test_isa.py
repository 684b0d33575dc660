"""Unit tests for physical instructions and concrete evaluation."""

import pytest

from repro.core.errors import ReproError
from repro.core import isa
from repro.core.isa import (Br, Call, Fence, Jmpi, Load, Op, OPCODES, Ret,
                            Store, WORD_BITS, next_of, sum_addr)
from repro.core.lattice import PUBLIC, SECRET
from repro.core.values import Reg, Value, operands, public, secret


@pytest.fixture()
def ev():
    """The module's evaluation functions: ``evaluate``, ``address``,
    ``truth`` and ``concretize``."""
    return isa


class TestOpcodes:
    def test_add_wraps(self, ev):
        big = (1 << WORD_BITS) - 1
        assert ev.evaluate("add", [public(big), public(2)]).val == 1

    def test_sub(self, ev):
        assert ev.evaluate("sub", [public(5), public(7)]).val == \
            (1 << WORD_BITS) - 2

    def test_mul_variadic(self, ev):
        assert ev.evaluate("mul", [public(2), public(3), public(4)]).val == 24

    def test_div_by_zero_is_zero(self, ev):
        assert ev.evaluate("div", [public(5), public(0)]).val == 0

    def test_signed_lt(self, ev):
        minus_one = (1 << WORD_BITS) - 1
        assert ev.evaluate("lt", [public(minus_one), public(0)]).val == 1

    def test_unsigned_ltu(self, ev):
        minus_one = (1 << WORD_BITS) - 1
        assert ev.evaluate("ltu", [public(minus_one), public(0)]).val == 0

    def test_sel_true(self, ev):
        assert ev.evaluate("sel", [public(1), public(10), public(20)]).val == 10

    def test_sel_false(self, ev):
        assert ev.evaluate("sel", [public(0), public(10), public(20)]).val == 20

    def test_mask(self, ev):
        assert ev.evaluate("mask", [public(1)]).val == (1 << WORD_BITS) - 1
        assert ev.evaluate("mask", [public(0)]).val == 0

    def test_succ_pred_inverse(self, ev):
        v = public(0x100)
        bumped = ev.evaluate("succ", [v])
        assert ev.evaluate("pred", [bumped]).val == 0x100

    def test_label_propagation(self, ev):
        out = ev.evaluate("add", [public(1), secret(2)])
        assert out.label == SECRET

    def test_label_all_public(self, ev):
        assert ev.evaluate("add", [public(1), public(2)]).label == PUBLIC

    def test_unknown_opcode(self, ev):
        with pytest.raises(ReproError):
            ev.evaluate("frobnicate", [public(1)])

    def test_arity_mismatch(self, ev):
        with pytest.raises(ReproError):
            ev.evaluate("sub", [public(1)])

    def test_every_opcode_evaluates(self, ev):
        for name, (arity, _fn) in OPCODES.items():
            args = [public(3)] * (arity if arity is not None else 2)
            result = ev.evaluate(name, args)
            assert isinstance(result.val, int)


class TestAddressModes:
    def test_sum_addr(self):
        assert sum_addr([0x40, 9]) == 0x49

    def test_evaluator_address_labels(self, ev):
        out = ev.address([public(0x40), secret(9)])
        assert out.val == 0x49 and out.label == SECRET


class TestEvaluatorMisc:
    def test_truth(self, ev):
        assert ev.truth(public(1)) and not ev.truth(public(0))

    def test_concretize(self, ev):
        assert ev.concretize(public(7)) == 7

    def test_concretize_non_int_raises(self, ev):
        with pytest.raises(ReproError):
            ev.concretize(Value("sym", PUBLIC))


class TestOneEvaluator:
    """Evaluation is not pluggable: no entry point takes an evaluator."""

    def test_machine_rejects_an_evaluator(self):
        from repro.core.machine import Machine
        from repro.litmus import find_case
        with pytest.raises(TypeError):
            Machine(find_case("kocher_01").program, evaluator=isa)

    def test_entry_points_reject_an_evaluator(self):
        from repro.api import Project
        from repro.pitchfork import analyze
        from repro.sps import explore_sps
        project = Project.from_litmus("kocher_01")
        with pytest.raises(TypeError):
            analyze(project.program, project.config(), evaluator=isa)
        with pytest.raises(TypeError):
            explore_sps(project.program, project.config(), evaluator=isa)


class TestInstructions:
    def test_next_of_sequential(self):
        assert next_of(Op(Reg("r"), "mov", operands(0), 5)) == 5
        assert next_of(Load(Reg("r"), operands(0x40), 6)) == 6
        assert next_of(Store(Reg("r"), operands(0x40), 7)) == 7
        assert next_of(Fence(8)) == 8

    def test_next_of_branch_raises(self):
        with pytest.raises(ReproError):
            next_of(Br("eq", operands(0, 0), 1, 2))

    def test_instructions_frozen(self):
        instr = Ret()
        with pytest.raises(Exception):
            instr.x = 1  # type: ignore[attr-defined]

    def test_call_fields(self):
        c = Call(5, 4)
        assert c.target == 5 and c.ret == 4
