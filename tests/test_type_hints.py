"""Every annotation in the package resolves.  Each module defers its
annotations (`from __future__ import annotations`), so a name that no
longer exists stays hidden until something evaluates it."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import ecic

MODULES = sorted(f"ecic.{m.name}" for m in pkgutil.iter_modules(ecic.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_annotation_resolves(name):
    module = importlib.import_module(name)
    defined = [  # unwrapped, so that cached functions are checked too
        obj for obj in map(inspect.unwrap, vars(module).values())
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == name
    ]
    assert defined
    for obj in defined:
        typing.get_type_hints(obj)
        if inspect.isclass(obj):
            for method in vars(obj).values():
                if inspect.isfunction(method):
                    typing.get_type_hints(method)
