"""Module layering: each module imports only from earlier layers."""

import ast
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
