"""``src/`` holds only what the command-line tool and the benchmark run.

Every public name of the library modules, and every public method and
property of their classes, must be read somewhere in the library itself
or in ``bench/``: a name that only the tests call belongs in the tests,
like the event-walk oracle in ``_event_reference``.
"""

import ast
import importlib
from pathlib import Path

import pytest

from ltenergy import analytic, power_model, sweep, traces

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ltenergy").glob("*.py"))
# Kept for the per-state energy ledger of ROADMAP item 2, whose rows it
# will key.
UNUSED_ALLOWED = {"RadioState"}


def names_read(paths):
    """Every name that the files load, as a bare name, an attribute or an
    import from a module."""
    read = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


@pytest.mark.parametrize("module", [power_model, analytic, sweep, traces],
                         ids=lambda module: module.__name__)
def test_every_export_is_read_outside_the_tests(module):
    sources = [p for p in SOURCES if p.name != "__init__.py"]
    read = names_read([*sources, *(ROOT / "bench").glob("*.py")])
    read |= span_targets()
    assert set(module.__all__) - read - UNUSED_ALLOWED == set()


def span_target_paths():
    """The ``(span name, module, attribute path)`` triples of
    ``bench/spans.py``'s ``TARGETS``, read from its source."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                           for t in node.targets))
    return ast.literal_eval(targets)


def span_targets():
    """Each part of the dotted attribute paths that ``bench/spans.py``
    wraps by name (``SweepResult.rows``), which it reads as strings."""
    return {part for _, _, path in span_target_paths()
            for part in path.split(".")}


@pytest.mark.parametrize("module, path", [
    (module, path) for _, module, path in span_target_paths()],
    ids=lambda value: value)
def test_every_span_target_resolves_to_a_callable(module, path):
    """A traced benchmark run reports a target that is gone as missing
    and drops its metrics, which only the smoke check would notice."""
    target = importlib.import_module(module)
    for part in path.split("."):
        target = getattr(target, part, None)
    assert callable(target), f"{module}.{path} is not a callable"


def test_every_public_method_is_read_outside_the_tests():
    methods = {
        f"{node.name}.{item.name}": item.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }
    read = names_read([*SOURCES, *(ROOT / "bench").glob("*.py")])
    read |= span_targets()
    assert methods
    assert sorted(m for m, name in methods.items() if name not in read) == []
