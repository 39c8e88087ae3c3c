"""The profile has one entry: each model module hands ``dimension.MODELS`` its grid and the list of
its moments, and one function of the package, the fit stage, calls ``rrr.profile``.  A training
reference is a ``SpatialSample``, and one Nadaraya-Watson rule serves prediction and the LOO
search's rescue.  ``SdrFit.reduce`` is the one reduction, and ``rrr.profile`` reads each rank's
pick off one table of log-likelihoods.  ``dimension.select_cv`` is the one cross-validation fold
loop, and the LR rule's level is a module constant.  ``predictor.loo_search`` runs one joint LOO
pass for every job set: it takes no kernel switch, and its pass has no one-kernel-only branch."""

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


def test_a_whitening_returns_plain_moments():
    # no ExpCorrelation record anywhere, and no generator between a model module and the profile
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert "ExpCorrelation" not in {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}, path.stem
    for module in ("sscm", "sem"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert not any(isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(tree)), module


def test_sdrfit_reduce_is_the_one_reduction():
    for path in PACKAGE.glob("*.py"):
        defined = {node.name for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.FunctionDef)}
        assert "apply_reduction" not in defined, path.stem


def test_the_profile_engine_picks_from_its_table_without_a_nested_function():
    tree = ast.parse((PACKAGE / "rrr.py").read_text())
    [engine] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "profile"]
    nested = [node for node in ast.walk(engine) if isinstance(node, (ast.FunctionDef, ast.Lambda))]
    assert nested == [engine]


def definition(module: str, name: str):
    """The top-level definition of ``name`` in the package's ``module``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    [node] = [node for node in tree.body if getattr(node, "name", None) == name]
    return node


def test_no_module_defines_a_second_fold_loop():
    for path in PACKAGE.glob("*.py"):
        defined = {node.name for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.FunctionDef)}
        assert "_cv_selections" not in defined, path.stem


def test_the_rank_policy_step_cross_validates_through_select_cv():
    assert callers((PACKAGE / "dimension.py").read_text(), "select_cv") == ["select_ranks"]


def test_the_lr_rule_takes_no_level_and_no_sample_size():
    args = definition("dimension", "select_lr").args
    assert {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs} == {"logliks", "p", "r"}


def test_a_dim_selection_has_no_level_field():
    fields = {node.target.id for node in definition("dimension", "DimSelection").body if isinstance(node, ast.AnnAssign)}
    assert fields == {"criterion", "d_star", "trace"}


def test_the_loo_search_takes_the_references_alone():
    args = definition("predictor", "loo_search").args
    assert [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs] == ["refs"]
    assert args.vararg is None and args.kwarg is None


def test_the_fit_step_chooses_no_kernel_count_for_the_search():
    tree = ast.parse((PACKAGE / "dimension.py").read_text())
    names = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "arg", None)
             for node in ast.walk(tree)}
    assert "two_kernel" not in names


def test_the_loo_pass_has_no_one_kernel_only_branch():
    # an if statement on the h2 grid's size; the rescue's expression that picks a column's exponent may read it
    tests = [node.test for node in ast.walk(definition("predictor", "_loo_pass")) if isinstance(node, ast.If)]
    assert not [test for test in tests if "g2" in {getattr(node, "id", None) for node in ast.walk(test)}]
