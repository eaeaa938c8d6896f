"""Module layering: each module imports only from earlier layers; source
rules that hold across modules, and the names perfbench traces."""

import ast
import importlib
import inspect
import re
from functools import cached_property
from pathlib import Path

import stbc_forge

PACKAGE = "stbc_forge"
SRC = Path(stbc_forge.__file__).parent

# lowest first; modules sharing a layer may not import each other;
# __main__ (python -m stbc_forge) runs the cli
LAYERS = (("f4",), ("pauli",), ("design",), ("constructions", "fdfgd"),
          ("signalset",), ("simulate", "diversity"), ("bundles",), ("cli",),
          ("__main__",))
RANK = {mod: r for r, layer in enumerate(LAYERS) for mod in layer}


def _package_imports(tree):
    """Package modules imported anywhere in tree, function bodies
    included, as (module, line)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module != PACKAGE and \
                    not (node.module or "").startswith(PACKAGE + "."):
                continue
            base = (node.module or "").removeprefix(PACKAGE).lstrip(".")
            if base:
                out.append((base.split(".")[0], node.lineno))
            else:  # from . import a, b
                out.extend((a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Import):
            out.extend((a.name.split(".")[1], node.lineno)
                       for a in node.names
                       if a.name.startswith(PACKAGE + "."))
    return out


def test_imports_follow_layers():
    # the package facade __init__ re-exports every layer
    paths = [p for p in sorted(SRC.glob("*.py")) if p.stem != "__init__"]
    assert {p.stem for p in paths} == set(RANK)
    bad = []
    for path in paths:
        mod = path.stem
        for dep, line in _package_imports(ast.parse(path.read_text())):
            if RANK[dep] >= RANK[mod]:
                bad.append("%s.py:%d imports %s" % (mod, line, dep))
    assert not bad, bad


def test_no_private_names_cross_modules():
    # an underscore name belongs to its own module: no package module
    # imports one from another
    bad = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith(PACKAGE)):
                bad.extend("%s.py:%d imports %s" % (path.stem, node.lineno,
                                                     a.name)
                           for a in node.names if a.name.startswith("_"))
    assert not bad, bad


def _unused_imports(tree):
    """Names bound by an import in tree and never read, as (name, line)."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.extend(((a.asname or a.name).split(".")[0], node.lineno)
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend((a.asname or a.name, node.lineno)
                         for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in bound if name not in read]


def test_no_unused_imports():
    # a package __init__ imports only to re-export
    tests = Path(__file__).parent
    paths = sorted(SRC.glob("*.py")) + sorted(tests.glob("*.py"))
    bad = ["%s:%d %s" % (p.relative_to(p.parents[1]), line, name)
           for p in paths if p.name != "__init__.py"
           for name, line in _unused_imports(ast.parse(p.read_text()))]
    assert not bad, bad


def test_simulate_sees_units_only_through_their_interface():
    # the decoder reads a unit's geometry through axes(), never its type,
    # so simulate imports no name from signalset
    tree = ast.parse((SRC / "simulate.py").read_text())
    assert "signalset" not in {dep for dep, _line in _package_imports(tree)}


# names NumPy 2.0 added: the ndarray attribute mT and these module functions
NUMPY_2_FUNCTIONS = {"concat", "astype", "unstack", "permute_dims",
                     "matrix_transpose", "vecdot", "bitwise_count", "isdtype",
                     "trapezoid", "cumulative_sum", "unique_values",
                     "unique_counts", "unique_inverse", "unique_all"}


def _numpy_2_names(tree):
    """Uses of a NumPy 2.0 name in tree, as (name, line): any .mT, and
    np.<name>, numpy.<name> or an import from numpy of a listed name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (
                node.attr == "mT" or node.attr in NUMPY_2_FUNCTIONS and
                isinstance(node.value, ast.Name) and
                node.value.id in ("np", "numpy")):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            out.extend((a.name, node.lineno) for a in node.names
                       if a.name in NUMPY_2_FUNCTIONS)
    return out


def test_source_runs_on_the_declared_numpy_floor():
    # no NumPy 2.0 name while pyproject.toml's numpy floor is below 2.0
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', pyproject)
    assert floor, "no numpy floor in pyproject.toml"
    if int(floor.group(1)) >= 2:
        return
    bad = ["%s.py:%d %s" % (p.stem, line, name)
           for p in sorted(SRC.glob("*.py"))
           for name, line in _numpy_2_names(ast.parse(p.read_text()))]
    assert not bad, bad


# traced names that the package no longer defines: perfbench's tracer
# skips them, so their per-layer metrics read 0 until the tracer traces
# the functions that replaced them
UNDEFINED_TRACED = {"channel_step", "ml_oracle", "ml_structured",
                    "STBCInstance.codeword"}


def _traced_names():
    """perfbench/tracing.py's traced names, read from its source without
    importing it: each FUNCTIONS attribute and each METHODS
    'class.attribute'."""
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id in (
                "FUNCTIONS", "METHODS"):
            width = 1 if node.targets[0].id == "FUNCTIONS" else 2
            names.extend(".".join(e.value for e in row.elts[:width])
                         for row in node.value.elts)
    return names


def _package_defines(name):
    """Whether a package module defines the traced function, or the class
    with the traced method, as the tracer looks them up."""
    mods = [importlib.import_module("%s.%s" % (PACKAGE, mod))
            for mod in RANK if mod != "__main__"]
    owners = {mod.__name__ for mod in mods}
    cls_name, _dot, attr = name.rpartition(".")
    for mod in mods:
        obj = getattr(mod, cls_name or attr, None)
        if getattr(obj, "__module__", None) not in owners:
            continue
        if not cls_name and inspect.isfunction(obj):
            return True
        if cls_name and inspect.isclass(obj):
            method = inspect.getattr_static(obj, attr, None)
            return inspect.isfunction(method) or isinstance(method,
                                                            cached_property)
    return False


def test_no_more_traced_names_go_undefined():
    # a refactor that renames or inlines a traced function silently zeroes
    # its per-layer metrics; the undefined set may shrink only by editing
    # perfbench and this set together
    names = _traced_names()
    assert len(names) > 30
    assert {n for n in names if not _package_defines(n)} == UNDEFINED_TRACED
