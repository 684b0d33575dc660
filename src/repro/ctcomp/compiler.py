"""The MiniCT compiler driver: C-style and FaCT-style pipelines.

``compile_module(module, style)`` type-checks and lowers a module.  The
two styles differ exactly where the paper's evaluation needs them to:

=========  ==========================  =================================
           secret ``if``               public ``if``
=========  ==========================  =================================
``c``      conditional branch          conditional branch
``fact``   linearised ct-selects       conditional branch
=========  ==========================  =================================

``fences=True`` applies the Fig 8 mitigation during lowering.
"""

from __future__ import annotations

from .ast import Module
from .lower import CompiledModule, Lowerer
from .typing import TypeReport, check_module


def compile_module(module: Module, style: str = "c",
                   fences: bool = False) -> CompiledModule:
    """Type-check and lower a module with the given pipeline."""
    check_module(module)  # raises on illegal flows / secret loops
    return Lowerer(module, style=style, fences=fences).lower()


def type_report(module: Module) -> TypeReport:
    """The security-type report (secret branches / secret indices)."""
    return check_module(module)
