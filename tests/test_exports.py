"""Every name a ``qmodes`` module exports in ``__all__`` exists on it,
every exported function or class of a layer module is used by the package,
every module-level name a module defines is read somewhere in the package,
every definition of the text kernel serves its one entry point, every
default of an exported function or dataclass is set by some call in the
package, and the only dataclasses are the two parameter types."""

import ast
import dataclasses
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
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
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
    assert sorted(exported - used) == []


def reads(tree):
    """Names ``tree`` reads: loaded names and attributes, and imported names."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_every_module_level_name_is_read_in_the_package(module):
    # a name that nothing in src/ reads is code that runs for no one: a
    # package version kept in a second place, say, or a constant left behind
    read = set().union(*map(reads, SOURCES.values()))
    assert sorted(set(definitions(SOURCES[module])) - read - {"__all__"}) == []


def test_every_definition_of_the_text_kernel_serves_format_rows():
    defs = definitions(SOURCES["text"])
    assert sorted(set(defs) - reachable(defs, ["format_rows"]) - {"__all__"}) == []


# the one default no call in the package sets: the console entry point's argv
UNSET_DEFAULTS = {"cli.main(argv)"}


def calls(node, forwarded=frozenset()):
    """(call, the parameter names of the function it is made in) under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            args = child.args
            yield from calls(child, frozenset(a.arg for a in args.posonlyargs + args.args + args.kwonlyargs))
            continue
        if isinstance(child, ast.Call):
            yield child, forwarded
        yield from calls(child, forwarded)


CALLS = [entry for tree in SOURCES.values() for entry in calls(tree)]


def called_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def sets(call, forwarded, index, parameter):
    """Whether ``call`` passes ``parameter``, its function's ``index``-th, a
    value of its own: forwarding a parameter of the calling function is not."""
    values = [k.value for k in call.keywords if k.arg == parameter.name]
    if parameter.kind in (parameter.POSITIONAL_ONLY, parameter.POSITIONAL_OR_KEYWORD):
        values += call.args[index : index + 1]
    return any(not (isinstance(v, ast.Name) and v.id in forwarded) for v in values)


def test_every_default_of_a_public_function_is_set_by_some_call_in_the_package():
    # a default that no call sets is a knob: a second way to run the code that nothing runs;
    # a dataclass's constructor takes its fields, so a field's default is one too
    unset = set()
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for function_name in module.__all__:
            function = getattr(module, function_name)
            if not (inspect.isfunction(function) or dataclasses.is_dataclass(function)):
                continue
            named = [(call, forwarded) for call, forwarded in CALLS if called_name(call) == function_name]
            for index, parameter in enumerate(inspect.signature(function).parameters.values()):
                if parameter.default is not parameter.empty and not any(
                    sets(call, forwarded, index, parameter) for call, forwarded in named
                ):
                    unset.add(f"{name.removeprefix('qmodes.')}.{function_name}({parameter.name})")
    assert sorted(unset - UNSET_DEFAULTS) == []


def test_the_only_dataclasses_are_the_two_parameter_types():
    # a result is its values: a function returns numbers, arrays, tuples or a
    # dict, and only validated parameters are types
    found = {
        f"{module}.{node.name}"
        for module, tree in SOURCES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in identifiers(decorator) for decorator in node.decorator_list)
    }
    assert found == {"interference.SlitParams", "tunneling.DoubleWell"}
