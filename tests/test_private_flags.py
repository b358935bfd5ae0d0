"""No private flags in the library's signatures.

A parameter or keyword argument named with a leading underscore is a
private switch that leaks across modules (a caller outside the defining
module has to know it exists).  Each function's contract should be keyed
by what its callers pass instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sl3maass"


def private_names(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, description) of every parameter and call keyword named with
    a leading underscore."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            found += [(node.lineno, f"parameter {p.arg}")
                      for p in params if p is not None and p.arg.startswith("_")]
        elif isinstance(node, ast.Call):
            found += [(node.lineno, f"keyword argument {k.arg}")
                      for k in node.keywords if k.arg is not None and k.arg.startswith("_")]
    return found


def test_private_names_are_found():
    tree = ast.parse("def f(x, _flag=False, *, _g=1): pass\n"
                     "f(1, _flag=True)\n"
                     "g = lambda _y: _y\n")
    assert [d for _, d in private_names(tree)] == [
        "parameter _flag", "parameter _g", "keyword argument _flag", "parameter _y"]


def test_no_private_parameters_or_keywords():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    offenders = [f"{path.name}:{line}: {what}"
                 for path in sources
                 for line, what in private_names(ast.parse(path.read_text(), str(path)))]
    assert offenders == []
