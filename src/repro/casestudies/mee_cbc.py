"""OpenSSL MEE-CBC (authenticated encryption) — ✓ in C, ``f`` in FaCT.

The FaCT violation is Figure 10, reconstructed faithfully:

1. ``%r14`` initially holds the public record length ``len _out``; line 3
   loads ``_out[len-1]`` — fine, the length is public.
2. The FaCT compiler linearises the secret ``pad > maxpad`` branch into
   selects, so ``ret`` becomes a *secret-derived* 0/1 — and the register
   allocator has placed ``ret`` in ``%r14`` (``len`` is dead by then).
3. ``_sha1_update`` is called.  Its ``ret`` must load the return address
   from the stack; with forwarding-hazard exploration, that load may
   forward from a store *older* than the most recent one to that slot —
   the return address pushed by the earlier ``aesni_cbc_encrypt`` call.
4. Execution speculatively "returns" to line 3 and re-runs the load with
   ``%r14`` now holding the secret-derived ``ret``: the access touches
   ``_out[0]`` or ``_out[-1]`` depending on the secret — an SCT
   violation only findable with forwarding-hazard detection (the ``f``).

The C build of MEE-CBC is the Lucky13-patched constant-time code (mask
idiom, so no secret branches), but its record-header glue carries a
classic speculative bounds-check bypass — the paper's "violations … in
code ancillary to the core crypto routines".
"""

from __future__ import annotations

from ..asm import ProgramBuilder
from ..core.config import Config
from ..core.lattice import PUBLIC, SECRET
from ..core.memory import Memory, Region
from ..core.program import Program
from ..ctcomp import (ArrayDecl, Assign, BinOp, CallStmt, Const, Func, If,
                      Index, Module, Var, VarDecl, compile_module)
from .common import CaseStudy, CaseVariant

OUT_LEN = 8

# C-variant layout.
HDR = 0x30          # public record header (4 bytes)
IDX_CELL = 0x38     # attacker-influenced header index (public)
OUT = 0x40          # ciphertext+padding (secret)
SBOX = 0x100        # public table (the transmission channel)
STACK = 0xF0


def mee_fact_module() -> Module:
    """Figure 10 in MiniCT.  ``len`` and ``ret`` share %r14."""
    pad, maxpad, length = Var("pad"), Var("maxpad"), Var("len")
    return Module(
        name="mee-cbc-fact",
        arrays=(ArrayDecl("out", OUT_LEN, SECRET,
                          tuple(0x50 + k for k in range(OUT_LEN)),
                          base=OUT),),
        variables=(
            VarDecl("len", PUBLIC, OUT_LEN - 1, reg_hint="r14"),
            VarDecl("pad", SECRET, 0),
            VarDecl("maxpad", PUBLIC, 3),
            VarDecl("ret", SECRET, 1, reg_hint="r14"),
        ),
        funcs=(
            Func("main", (
                CallStmt("aesni_cbc_encrypt"),
                # line 3: pad = _out[len _out - 1]  (%r14 = len, public)
                Assign("pad", Index("out", BinOp("sub", length, Const(1)))),
                # ret's default; %r14 is dead as `len` after the load and
                # the allocator reuses it.
                Assign("ret", Const(1)),
                # lines 5-7: FaCT linearises this secret branch; ret
                # lands in %r14, overwriting the dead len.
                If(BinOp("gt", pad, maxpad),
                   then=(Assign("pad", Var("maxpad")),
                         Assign("ret", Const(0)))),
                CallStmt("sha1_update"),
            )),
            Func("aesni_cbc_encrypt", (Assign("maxpad", Var("maxpad")),)),
            Func("sha1_update", (Assign("maxpad", Var("maxpad")),)),
        ),
    )


def _c_program() -> Program:
    """Masked (Lucky13-patched) core plus branchy header glue."""
    b = ProgramBuilder()
    b.label("mee")
    # -- ancillary glue: validate an attacker-supplied header index.
    b.load("ridx", [IDX_CELL])
    b.br("ltu", ["ridx", 4], "use_hdr", "skip_hdr")
    b.label("use_hdr")
    b.load("rh", [HDR, "ridx"])          # speculative OOB reads `out`
    b.load("rs", [SBOX, "rh"])           # dependent access: the leak
    b.label("skip_hdr")
    # -- constant-time padding handling (mask idiom, as patched C does):
    b.load("rpad", [OUT + OUT_LEN - 1])  # public address, secret value
    b.op("rc", "gt", ["rpad", 3])
    b.op("rpad", "sel", ["rc", 3, "rpad"])
    b.op("rmac", "mul", ["rpad", 31])    # stand-in for the MAC compare
    b.halt()
    return b.build(entry="mee")


def _c_memory() -> Memory:
    mem = Memory()
    mem = mem.with_region(Region("hdr", HDR, 4, PUBLIC), [23, 3, 1, 0])
    mem = mem.with_region(Region("idx", IDX_CELL, 1, PUBLIC), [16])
    # `out` sits where the glue's out-of-bounds header read lands.
    mem = mem.with_region(Region("out", OUT, OUT_LEN, SECRET),
                          [0x50 + k for k in range(OUT_LEN)])
    mem = mem.with_region(Region("sbox", SBOX, 64, PUBLIC), None)
    mem = mem.with_region(Region("stack", STACK, 16, PUBLIC), None)
    return mem


def _c_config(program: Program) -> Config:
    regs = {"ridx": 0, "rh": 0, "rs": 0, "rpad": 0, "rc": 0, "rmac": 0,
            "rsp": STACK + 15}
    return Config.initial(regs, _c_memory(), pc=program.entry)


def case_study() -> CaseStudy:
    c_program = _c_program()
    fact_build = compile_module(mee_fact_module(), style="fact")
    return CaseStudy(
        name="OpenSSL MEE-CBC",
        description="MAC-then-encrypt CBC record processing; Fig 10's "
                    "speculative stale-return gadget in the FaCT build.",
        c=CaseVariant("mee-c", "c", c_program,
                      lambda: _c_config(c_program), expected="v1",
                      notes="Masked Lucky13 core; the header-validation "
                            "glue has a bounds-check-bypass gadget."),
        fact=CaseVariant("mee-fact", "fact", fact_build.program,
                         fact_build.initial_config, expected="f",
                         notes="Fig 10: %r14 reuse + return-address "
                               "forwarding from the older call frame."),
    )
