"""The public names against their users.

Every function the traced benchmark wraps must exist, every ``__all__``
entry must resolve, and the package exports each module's ``__all__``
by star import, so ``__all__`` is the one list of public names.
Deleting a name that ``perfbench/trace_layers.py`` wraps would
otherwise only show as a failed ``--trace 1`` run.  And
every call depends only on its arguments: no module reads the
environment, and no cache grows without bound unless it is listed with
its reason in ``UNBOUNDED_CACHES``.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import ppcd

TRACE_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "trace_layers.py"
SOURCES = sorted(Path(ppcd.__file__).parent.glob("*.py"))
ENV_READERS = {"environ", "environb", "getenv", "getenvb"}
UNBOUNDED_CACHES = {
    # keyed by (p^k, a) with k >= 1 and a < p: a handful of entries per
    # prime, each the quotients as flat bead moves and their conjugate
    # index, and the an-exact scan reuses them across n
    "partitions._multipartitions",
}
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


def test_package_exports_every_module_all():
    tree = ast.parse(Path(ppcd.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    assert all(isinstance(node, ast.ImportFrom) and node.level == 1
               and [alias.name for alias in node.names] == ["*"] for node in imports)
    modules = sorted(f"ppcd.{node.module}" for node in imports)
    assert modules == sorted(set(MODULES) - {"ppcd.cli"})
    for module in map(importlib.import_module, modules):
        stray = [name for name in module.__all__
                 if getattr(ppcd, name, None) is not getattr(module, name)]
        assert stray == [], module.__name__


def _source_ids():
    return [path.stem for path in SOURCES]


def _reads_environment(node) -> bool:
    if isinstance(node, ast.Attribute):
        return (isinstance(node.value, ast.Name) and node.value.id == "os"
                and node.attr in ENV_READERS)
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(alias.name in ENV_READERS for alias in node.names)
    return False


def _unbounded_cache(decorator) -> bool:
    """Whether a decorator is ``cache`` or an ``lru_cache`` without an integer maxsize."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache":
        return False
    if call is None:  # a bare @lru_cache leaves its bound unwritten
        return True
    sizes = [kw.value for kw in call.keywords if kw.arg == "maxsize"] + call.args[:1]
    return not (sizes and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int)


def test_sources_found():
    assert {"hooks", "partitions", "cli"} <= set(_source_ids())


@pytest.mark.parametrize("path", SOURCES, ids=_source_ids())
def test_no_module_reads_the_environment(path):
    tree = ast.parse(path.read_text())
    reads = [node.lineno for node in ast.walk(tree) if _reads_environment(node)]
    assert reads == [], f"{path.name} reads the environment at lines {reads}"


@pytest.mark.parametrize("path", SOURCES, ids=_source_ids())
def test_every_cache_is_bounded_or_listed(path):
    tree = ast.parse(path.read_text())
    unbounded = {
        f"{path.stem}.{node.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(_unbounded_cache(d) for d in node.decorator_list)
    }
    assert unbounded <= UNBOUNDED_CACHES, sorted(unbounded - UNBOUNDED_CACHES)
