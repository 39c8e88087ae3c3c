"""The profile has one entry: each model module hands ``dimension.MODELS`` its grid and moments,
and one function of the package, the fit stage, calls ``rrr.profile``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spatialsdr"


def callers(source: str, name: str) -> list[str]:
    """The qualified names, in order, of the scopes of ``source`` whose own code, nested functions
    and classes aside, calls ``name`` or ``<anything>.name``; module-level calls as ``<module>``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append(scope)
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_no_model_module_defines_rank_fits():
    for module in ("sscm", "sem", "pfc"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert "rank_fits" not in {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}, module


def test_one_function_calls_the_profile_engine():
    found = {f"{path.stem}.{scope}" for path in PACKAGE.glob("*.py") for scope in callers(path.read_text(), "profile")}
    assert found == {"dimension._fit_kinds"}


def test_a_nested_or_attribute_call_is_found():
    source = "def a():\n    def b():\n        rrr.profile(1)\n    return profile\nclass C:\n    def d(self):\n        profile()\nprofile()\n"
    assert callers(source, "profile") == ["a.b", "C.d", "<module>"]
