"""Every name a ``qmodes`` module exports in ``__all__`` exists on it."""

import importlib
import pkgutil

import pytest

import qmodes

MODULES = ["qmodes"] + [f"qmodes.{info.name}" for info in pkgutil.iter_modules(qmodes.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
