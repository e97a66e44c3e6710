"""The public names against their users.

Every function the traced benchmark wraps must exist, every ``__all__``
entry must resolve, and every name the package re-exports must be in its
module's ``__all__``.  Deleting a name that ``perfbench/trace_layers.py``
wraps would otherwise only show as a failed ``--trace 1`` run.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import ppcd

TRACE_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"
MODULES = ("ppcd.partitions", "ppcd.degrees", "ppcd.hooks", "ppcd.lie", "ppcd.ctbl", "ppcd.cli")


def _load_trace_layers():
    """Import the tracer module from its file, writing no bytecode next to it."""
    spec = importlib.util.spec_from_file_location("_ppcd_trace_layers", TRACE_LAYERS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _package_imports():
    """(module, name) for every ``from .module import name`` in ppcd/__init__.py."""
    tree = ast.parse(Path(ppcd.__file__).read_text())
    return [
        (f"ppcd.{node.module}", alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


TRACE_TARGETS = _load_trace_layers().TARGETS


def test_trace_targets_listed():
    assert TRACE_TARGETS


@pytest.mark.parametrize("span, module, attr", TRACE_TARGETS, ids=[t[0] for t in TRACE_TARGETS])
def test_trace_target_resolves(span, module, attr):
    assert callable(getattr(module, attr, None)), f"{span}: {module.__name__}.{attr} is gone"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_are_in_module_all():
    imports = _package_imports()
    assert imports
    stray = [(module, name) for module, name in imports
             if name not in importlib.import_module(module).__all__]
    assert not stray
