"""Module layering: each module imports only from earlier layers."""

import ast
from pathlib import Path

import stbc_forge

PACKAGE = "stbc_forge"
SRC = Path(stbc_forge.__file__).parent

# lowest first; modules sharing a layer may not import each other
LAYERS = (("f4",), ("pauli",), ("design",), ("constructions", "fdfgd"),
          ("signalset",), ("simulate", "diversity"), ("bundles",), ("cli",))
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
