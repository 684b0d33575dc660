"""curve25519-donna — the clean row of Table 2.

"Pitchfork did not flag any SCT violations in the curve25519-donna
implementations; this is not surprising, as the curve25519-donna library
is a straightforward implementation of crypto primitives." (§4.2.2)

The port is a Montgomery-ladder step over a 5-limb field element: limb
additions/multiplications with public loop bounds and the classic
constant-time conditional swap keyed on a secret bit — branch-free in
the C source too (donna uses the mask idiom), which is why both build
modes come out identical in shape and clean under Pitchfork.
"""

from __future__ import annotations

from ..core.lattice import PUBLIC, SECRET
from ..ctcomp import (ArrayDecl, Assign, BinOp, Const, Func, Index, Module,
                      Select, StoreStmt, UnOp, Var, VarDecl, While,
                      compile_module)
from .common import CaseStudy, CaseVariant

LIMBS = 3


def donna_module() -> Module:
    """A ladder step: fsum, fdifference-ish, and cswap(secret bit)."""
    i, bit, tmp_f, tmp_g, mask = (Var("i"), Var("bit"), Var("tmp_f"),
                                  Var("tmp_g"), Var("mask"))
    body = (
        # fsum: h[i] = f[i] + g[i]   (public loop, secret data)
        Assign("i", Const(0)),
        While(BinOp("ltu", i, Const(LIMBS)), (
            StoreStmt("h", i, BinOp("add", Index("f", i), Index("g", i))),
            Assign("i", BinOp("add", i, Const(1))),
        )),
        # fscalar: h[i] = h[i] * 121665 (the curve constant)
        Assign("i", Const(0)),
        While(BinOp("ltu", i, Const(LIMBS)), (
            StoreStmt("h", i, BinOp("mul", Index("h", i), Const(121665))),
            Assign("i", BinOp("add", i, Const(1))),
        )),
        # cswap(f, g, bit): branch-free even in the C source.
        Assign("mask", UnOp("mask", bit)),
        Assign("i", Const(0)),
        While(BinOp("ltu", i, Const(LIMBS)), (
            Assign("tmp_f", Index("f", i)),
            Assign("tmp_g", Index("g", i)),
            StoreStmt("f", i, Select(bit, tmp_g, tmp_f)),
            StoreStmt("g", i, Select(bit, tmp_f, tmp_g)),
            Assign("i", BinOp("add", i, Const(1))),
        )),
    )
    return Module(
        name="curve25519-donna",
        arrays=(
            ArrayDecl("f", LIMBS, SECRET, tuple(range(1, LIMBS + 1))),
            ArrayDecl("g", LIMBS, SECRET, tuple(range(11, LIMBS + 11))),
            ArrayDecl("h", LIMBS, SECRET, None),
        ),
        variables=(
            VarDecl("i", PUBLIC, 0),
            VarDecl("bit", SECRET, 1),
            VarDecl("tmp_f", SECRET, 0),
            VarDecl("tmp_g", SECRET, 0),
            VarDecl("mask", SECRET, 0),
        ),
        funcs=(Func("main", body),),
    )


def case_study() -> CaseStudy:
    module = donna_module()
    c_build = compile_module(module, style="c")
    fact_build = compile_module(module, style="fact")
    return CaseStudy(
        name="curve25519-donna",
        description="Straight-line field arithmetic with ct-cswap; no "
                    "ancillary glue — clean in both build modes.",
        c=CaseVariant("donna-c", "c", c_build.program,
                      c_build.initial_config, expected="clean",
                      notes="The C source is already branch-free on "
                            "secrets (mask idiom)."),
        fact=CaseVariant("donna-fact", "fact", fact_build.program,
                         fact_build.initial_config, expected="clean"),
    )
