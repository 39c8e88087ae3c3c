"""The profile has one entry: each model module hands ``dimension.MODELS`` its grid and moments,
and one function of the package, the fit stage, calls ``rrr.profile``.  A training reference is a
``SpatialSample``, and one Nadaraya-Watson rule serves prediction and the LOO search's rescue."""

import ast
from pathlib import Path

from spatialsdr.predictor import build_reference

from conftest import random_sample

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


def test_a_reference_is_a_sample_and_one_rule_predicts():
    source = (PACKAGE / "predictor.py").read_text()
    defined = {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not {"TrainingReference", "_loo_row"} & defined
    assert callers(source, "_nadaraya_watson") == ["predict_many", "_loo_pass"]
    sample = random_sample(12, 3, seed=1)
    assert build_reference("1k.FULL", sample) is sample
