"""The paper's primary contribution: a speculative out-of-order machine
with attacker directives, leakage observations, and speculative
constant-time (SCT).

Quick tour::

    from repro.core import (Machine, Config, Memory, Program,
                            fetch, execute, RETIRE, run)

    machine = Machine(program)
    config = Config.initial({"ra": 9}, memory, pc=1)
    result = run(machine, config, [fetch(True), fetch(), execute(2)])
    result.trace      # the leakage the attacker observes
"""

from .config import Config
from .directives import (Directive, Execute, Fetch, FETCH, RETIRE, Retire,
                         Schedule, execute, fetch, retire_count)
from .errors import (AssemblerError, CompileError, IllFormedProgramError,
                     ReproError, StuckError)
from .executor import RunResult, StepRecord, drain, is_well_formed, run
from .isa import (Br, Call, Fence, Instruction, Jmpi, Load, Op, OPCODES, Ret,
                  Store, WORD_BITS, sum_addr)
from .lattice import (Label, Lattice, PUBLIC, SECRET, TWO_POINT, get_lattice,
                      join_all)
from .machine import Machine, RSP, RTMP
from .memory import Memory, Region, layout
from .observations import (Fwd, Jump, Observation, Read, Rollback, Trace,
                           Write, addresses, is_secret_dependent,
                           secret_observations)
from .pretty import render_execution, render_trace
from .program import Program
from .rob import ReorderBuffer, resolve_operand, resolve_operands, resolve_register
from .rsb import ReturnStackBuffer
from .sct import (SCTCounterExample, SCTResult, check_pair, check_sct,
                  secret_variations)
from .sequential import (SequentialCT, check_sequential_ct, run_sequential)
from .transient import (TBr, TCallMarker, TFence, TJmpi, TJump, TLoad, TOp,
                        TRetMarker, TStore, TValue, Transient)
from .values import (BOTTOM, Operand, Operands, Reg, Value, operands, public,
                     secret)

__all__ = [name for name in dir() if not name.startswith("_")]
