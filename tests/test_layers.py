"""Module layering: each module imports only modules below it, at the top.

A function-level import hides a dependency cycle from the reader and from
this check, so none is allowed.  ``__init__`` only re-exports and is exempt.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import faultiso

LAYERS = ("errors", "graph", "automata", "diagnosis", "synthesis", "runtime",
          "modelio", "dotexport", "gallery", "cli")
SRC = Path(faultiso.__file__).parent


def package_imports(node):
    """Modules of this package that an import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] if "." in alias.name else "__init__"
                for alias in node.names if alias.name.split(".")[0] == "faultiso"]
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            if parts[0] != "faultiso":
                return []
            parts = parts[1:]
        else:
            parts = node.module.split(".") if node.module else []
        return [parts[0]] if parts else [alias.name for alias in node.names]
    return []


def test_every_module_has_a_layer():
    assert {p.stem for p in SRC.glob("*.py")} - {"__init__"} == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_point_down(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        for target in package_imports(node):
            assert target in LAYERS[:LAYERS.index(module)], \
                f"{module} imports {target} at line {node.lineno}"


@pytest.mark.parametrize("module", LAYERS)
def test_no_function_level_imports(module):
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                assert not package_imports(node), \
                    f"{module}.{fn.name} imports the package at line {node.lineno}"


def test_unobservable_closure_is_taken_only_by_the_index():
    # every estimate step reads closures from LabeledPlant.index; the runtime
    # never takes a closure itself
    callers = set()
    for module in ("diagnosis", "runtime"):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                callers |= {f"{module}.{fn.name}" for node in ast.walk(fn)
                            if isinstance(node, ast.Call)
                            and getattr(node.func, "id", None) == "unobservable_reach"}
    assert callers == {"diagnosis.index"}


def test_runtime_switches_and_steps_in_one_place():
    # one function decides phase, verdict and decision in force, and one steps
    # the estimate, through observable_reach in both phases; the engine, the
    # closed loop, the simulator and the liveness check read only these two,
    # and nothing in the runtime names the diagnoser
    tree = ast.parse((SRC / "runtime.py").read_text(encoding="utf-8"))
    classifies, steps, diagnoser = set(), set(), []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "classify":
                classifies.add(getattr(top, "name", "<module>"))
            if getattr(node, "id", None) == "observable_reach":
                steps.add(getattr(top, "name", "<module>"))
            if "diagnoser" in (getattr(node, "id", None), getattr(node, "attr", None),
                               getattr(node, "name", None)):
                diagnoser.append(node.lineno)
    assert classifies == {"_engine_state", "initial_engine_state"}
    assert steps == {"_next_estimate"}
    assert diagnoser == [], f"runtime.py names the diagnoser at lines {diagnoser}"


def test_runtime_keys_nothing_by_identity():
    # a policy is a hashable value, so the engine memo keys on the policy
    # itself: nothing in the runtime calls id()
    tree = ast.parse((SRC / "runtime.py").read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "id"]
    assert calls == [], f"runtime.py calls id() at lines {calls}"
