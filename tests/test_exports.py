"""Every name a ``qmodes`` module exports in ``__all__`` exists on it,
every exported function or class of a layer module is used by the package,
and every definition of the text kernel serves its one entry point."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import qmodes

MODULES = ["qmodes"] + [f"qmodes.{info.name}" for info in pkgutil.iter_modules(qmodes.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


LAYERS = ["numerics", "interference", "schmidt", "coherence", "tunneling", "tomography"]
# closed forms of the paper, exported for readers whether or not the code calls them
PAPER_FORMULAS = {"form_factor", "v_from_k", "reduced_mass", "analytic_two_slit_weights", "two_slit_norm"}
SOURCES = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in Path(qmodes.__file__).parent.glob("*.py")}


def identifiers(node):
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def definitions(tree):
    """Top-level name -> identifiers its definition uses."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = identifiers(node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = identifiers(node.value)
    return out


def reachable(defs, roots):
    """The definitions in ``defs`` that ``roots`` use, directly or through others."""
    used = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name not in used:
            used.add(name)
            todo += [n for n in defs[name] if n in defs]
    return used


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_function_and_class_is_used_by_the_package(layer):
    # used: named by another qmodes module, or by a used definition of its own
    # module (a result type, an exception raised or a helper called there)
    defs = definitions(SOURCES[layer])
    elsewhere = set().union(*(identifiers(tree) for name, tree in SOURCES.items() if name != layer))
    used = reachable(defs, [name for name in defs if name in elsewhere])
    module = importlib.import_module(f"qmodes.{layer}")
    objects = {n: getattr(module, n) for n in module.__all__}
    exported = {n for n, obj in objects.items() if inspect.isfunction(obj) or inspect.isclass(obj)}
    assert sorted(exported - used - PAPER_FORMULAS) == []


def test_every_definition_of_the_text_kernel_serves_format_rows():
    defs = definitions(SOURCES["text"])
    assert sorted(set(defs) - reachable(defs, ["format_rows"]) - {"__all__"}) == []
