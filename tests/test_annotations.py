"""Every annotation in the package resolves.

With ``from __future__ import annotations`` an annotation is a string,
evaluated only when a tool asks for it, as ``typing.get_type_hints`` and
``inspect.signature(..., eval_str=True)`` do.  A name that a module
imports only inside a function body is not in its globals then, so an
annotation that names it fails at that point and nowhere earlier.
"""

import importlib
import pkgutil
import typing

import pytest

import ltenergy


def annotated():
    """``(qualified name, object)`` for each function, class, method and
    property that an ``ltenergy`` module defines."""
    for info in pkgutil.iter_modules(ltenergy.__path__):
        module = importlib.import_module(f"ltenergy.{info.name}")

        def own(obj):
            return (callable(obj)
                    and getattr(obj, "__module__", None) == module.__name__)

        for obj in filter(own, vars(module).values()):
            qualname = f"{module.__name__}.{obj.__qualname__}"
            yield qualname, obj
            members = vars(obj).items() if isinstance(obj, type) else ()
            for name, member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if isinstance(member, property):
                    member = member.fget
                if own(member):
                    yield f"{qualname}.{name}", member


NAMES, OBJECTS = zip(*annotated())


def test_every_module_is_walked():
    walked = {name.split(".")[1] for name in NAMES}
    assert walked == {info.name for info in pkgutil.iter_modules(
        ltenergy.__path__)}
    assert "ltenergy.cli._axis_from_config" in NAMES


@pytest.mark.parametrize("obj", OBJECTS, ids=NAMES)
def test_annotations_resolve(obj):
    typing.get_type_hints(obj)
