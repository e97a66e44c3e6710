"""The public names against their users.

Every function the traced benchmark wraps must exist, every ``__all__``
entry must resolve, and the package exports each module's ``__all__``
by star import, so ``__all__`` is the one list of public names.
Deleting a name that ``perfbench/trace_layers.py`` wraps would
otherwise only show as a failed ``--trace 1`` run.  And
every call depends only on its arguments: no module reads the
environment, and no cache grows without bound unless it is listed with
its reason in ``UNBOUNDED_CACHES``.  Each public name that no CLI path
reaches is listed in ``NOT_ON_A_CLI_PATH`` with the check it backs.
The result records are NamedTuples, frozen, hashable and printed as
``Name(field=value, ...)``.
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
    # prime, each the quotients as a prefix tree of bead moves, their
    # conjugate index and the tree of the halves, and the an-exact scan
    # reuses them across n
    "partitions._multipartitions",
}
MODULES = ("ppcd.partitions", "ppcd.degrees", "ppcd.hooks", "ppcd.lie", "ppcd.ctbl", "ppcd.cli")
# The public names that no CLI path reaches, each with the check it backs;
# "criterion k" is acceptance criterion k in tests/test_acceptance.py.
NOT_ON_A_CLI_PATH = {
    "partitions.conjugate": "deg lambda = deg lambda', and the quasihook mirror rule",
    "partitions.divisible_hooks": "the James-Kerber weight identity, with e_core",
    "partitions.e_core": "Macdonald's test, and the James-Kerber weight identity",
    "partitions.e_core_by_removal": "the oracle of e_core",
    "partitions.hook_partition": "the brute-force hook test",
    "partitions.is_self_conjugate": "the brute-force extendable sets, the quasihook "
                                    "self-conjugacy rule and filter_ext_degree_sets",
    "degrees.binomial_coprime_lucas": "the Lucas check of the Legendre filter",
    "degrees.is_pprime_macdonald": "criterion 1, against degree_valuation",
    "hooks.count_pprime_partitions_formula": "criterion 10",
    "hooks.filter_ext_degree_sets": "the definition the exact extendable sets are tested against",
    "hooks.list_pprime_hooks": "the brute-force hook test",
    "hooks.quasihook": "criterion 4",
    "hooks.quasihook_monotone": "criterion 4",
    "lie.classical_grid": "criterion 6; its ok column is predicted from cyclotomic indices",
    "lie.exceptional_grid": "criterion 8",
    "lie.gl_order": "criterion 7, through semisimple_degree",
    "lie.semisimple_degree": "criterion 7",
    "ctbl.pgl2_degree_set": "criterion 9",
}


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


def _cli_reach() -> set[str]:
    """Every "module.name" of ppcd that a CLI path reaches, by syntax.

    The walk starts at ``cli.main``, ``cli.build_parser`` and each
    ``cli.cmd_*`` and follows every name a reached definition mentions:
    module-level names, relative imports and ``<mod>_mod.<name>``
    attributes of an imported module.
    """
    defs, aliases = {}, {}
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[path.stem, node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defs[path.stem, target.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    # "from . import ctbl as ctbl_mod" binds a module: (ctbl, None)
                    source = (node.module, alias.name) if node.module else (alias.name, None)
                    aliases[path.stem, alias.asname or alias.name] = source
    todo = [key for key in defs if key[0] == "cli"
            and (key[1] in ("main", "build_parser") or key[1].startswith("cmd_"))]
    seen = set()
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        if key in aliases:
            if aliases[key][1] is not None:
                todo.append(aliases[key])
            continue
        if key not in defs:
            continue
        for node in ast.walk(defs[key]):
            if isinstance(node, ast.Name):
                todo.append((key[0], node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                source = aliases.get((key[0], node.value.id))
                if source is not None and source[1] is None:
                    todo.append((source[0], node.attr))
    return {f"{module}.{name}" for module, name in seen}


def test_public_names_off_the_cli_paths_are_listed():
    public = {f"{name.removeprefix('ppcd.')}.{attr}"
              for name in MODULES if name != "ppcd.cli"
              for attr in importlib.import_module(name).__all__}
    assert "cli.main" in _cli_reach()
    assert sorted(public - _cli_reach()) == sorted(NOT_ON_A_CLI_PATH)


# one record of each result type, as the package builds them
RECORDS = {
    "AnBoundResult": lambda: ppcd.verify_An_bound(7, 5),
    "DegreeTable": lambda: ppcd.bundled_table("A5"),
    "DegreeFormula": lambda: ppcd.classical_unipotent_pair("B2-even", 2)[0],
    "CharacterWitness": lambda: ppcd.exceptional_pair_record("PSL2", 7, 7).chi1,
    "ExceptionalPairRecord": lambda: ppcd.exceptional_pair_record("PSL2", 7, 7),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_frozen_hashable_and_named(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for attr in (record._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
    assert hash(record) == hash(tuple(record))
    again = record._replace(**record._asdict())
    assert type(again) is type(record) and again == record
    # error messages embed str(record) in this form
    fields = ", ".join(f"{field}={value!r}" for field, value in record._asdict().items())
    assert str(record) == f"{name}({fields})"
