"""No ``src/`` module imports a name it never uses.

The stdlib stand-in for a lint pass's F401: parse every module under
``src/`` with :mod:`ast`, collect the names its import statements bind,
and fail on any that nothing in the module reads.  A name counts as
read when it appears as an identifier, inside a string annotation, or
in ``__all__``.  Two kinds of import are exempt:

* ``__init__.py`` files, whose imports are the package's re-exports;
* import statements marked ``# noqa: F401`` on any of their lines,
  which are kept for a side effect (the litmus suites register
  themselves when imported).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _annotation_names(node, out):
    """Names inside string annotations such as ``"ResultStore"``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            out.update(n.id for n in ast.walk(expr)
                       if isinstance(n, ast.Name))


def _read_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            _annotation_names(node.annotation, used)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            _annotation_names(node.returns, used)
        elif isinstance(node, ast.AnnAssign):
            _annotation_names(node.annotation, used)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(elt.value for elt in getattr(node.value, "elts", ())
                        if isinstance(elt, ast.Constant))
    return used


def unused_imports(path: Path):
    """``(line, name)`` for every import in ``path`` nothing reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        span = lines[node.lineno - 1:node.end_lineno]
        if any("noqa: F401" in line for line in span):
            continue
        for alias in node.names:
            if alias.name != "*":
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = _read_names(tree)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_src_has_no_unused_imports():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path):
            found.append(f"{path.relative_to(SRC)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys  # noqa: F401\n"
                      "from typing import List, Optional\n\n\n"
                      "def f(x: \"Optional[int]\"):\n    return x\n")
    assert unused_imports(module) == [(1, "os"), (3, "List")]
