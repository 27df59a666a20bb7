"""Every exported name resolves, so ``from slqkit import *`` and its
per-module forms never break on a stale entry of an ``__all__`` list."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import slqkit

MODULES = ["slqkit"] + [f"slqkit.{info.name}" for info in pkgutil.iter_modules(slqkit.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_only_errors_tests_for_a_bool():
    # The integer and finite-real rules live in slqkit.errors; a module that
    # tests isinstance(..., bool) itself restates one of them.
    offenders = []
    for path in sorted(Path(slqkit.__file__).parent.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "isinstance" and len(node.args) == 2:
                kinds = node.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_grid_states_the_process_path_rule():
    # "k is 1 or the batch's path count" lives in slqkit.grid._require_process;
    # a literal (1, n_paths) or [1, self.P.n_paths] elsewhere restates it.
    offenders = []
    for path in sorted(Path(slqkit.__file__).parent.glob("*.py")):
        if path.name == "grid.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Tuple, ast.List)) and len(node.elts) >= 2:
                first, second = node.elts[:2]
                if isinstance(first, ast.Constant) and first.value == 1 \
                        and "paths" in ast.unparse(second):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_three_functions_run_the_arm_pass():
    # One Euler driver, three passes over it: the public simulators'
    # recording, the completion-of-squares arms and the feedback pass, of
    # which every closed-loop cost is arm 0.  Another caller steps a closed
    # loop of its own.
    callers = []

    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, child.name)
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func).endswith("_arm_pass"):
                callers.append(f"{path.name}:{function}")
            visit(child, path, function)

    for path in sorted(Path(slqkit.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    assert sorted(callers) == ["evaluate.py:_completion_of_squares", "evaluate.py:_recorded",
                               "evaluate.py:_sweep_arms"]


def test_the_deterministic_sweep_takes_one_verdict():
    # The deterministic routes' stages are judged by the one batched verdict
    # of riccati._sweep, on the completed and the raising path alike; only the
    # regression route calls solvability, on a step's paths.
    source = Path(slqkit.__file__).with_name("riccati.py").read_text()
    calls = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            calls[node.name] = [ast.unparse(c.func) for c in ast.walk(node)
                                if isinstance(c, ast.Call)]
    assert calls["_sweep"].count("_verdicts") == 1
    assert [name for name, called in calls.items() if "solvability" in called] == [
        "solve_bsre_regression"]


def test_the_solvability_tolerance_is_stated_once():
    # pinv.SOLVE_TOL is the rule's tolerance; a numeric literal default for a
    # parameter named tol restates it, and can drift from it.
    offenders = []
    for path in sorted(Path(slqkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
            pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for arg, default in pairs:
                if isinstance(default, ast.UnaryOp):
                    default = default.operand
                if arg.arg == "tol" and isinstance(default, ast.Constant) \
                        and type(default.value) in (int, float):
                    offenders.append(f"{path.name}:{default.lineno}")
    assert offenders == []
