"""No bplab module reaches into another module's private helpers.

Scans the package source for the two relative import forms it uses:
`from .<module> import _name`, and `from . import <module>` followed by
`<module>._name`. A module's own private names stay free to use inside it.
The package has no absolute `bplab` imports; cover them here if one is added.
"""

import ast
import pathlib

import bplab

PACKAGE = pathlib.Path(bplab.__file__).parent
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def references(source, modules=MODULES):
    """(line, module, name) for each use of a name of one of `modules`:
    `from .<module> import name`, or `<module>.name` after `from . import <module>`."""
    tree = ast.parse(source)
    aliases = {}                      # local name -> bplab module name
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                aliases.update({a.asname or a.name: a.name
                                for a in node.names if a.name in modules})
            elif node.module in modules:
                found += [(node.lineno, node.module, a.name) for a in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            found.append((node.lineno, aliases[node.value.id], node.attr))
    return found


def private_reach_ins(source):
    """(line, '<module>._name') for each private access to a bplab module."""
    return [(line, f"{module}.{name}") for line, module, name in references(source)
            if _is_private(name)]


def test_scanner_finds_each_form():
    source = (
        "from . import resonance, propagator as prop\n"
        "from .spectral import _smoothstep, lp_bump\n"
        "resonance._classify_masks(x); prop._helper\n"
        "resonance.annulus; resonance.__name__; self._cache; _local\n"
    )
    assert sorted(name for _, name in private_reach_ins(source)) == [
        "propagator._helper", "resonance._classify_masks", "spectral._smoothstep"]


def test_no_private_reach_ins_in_package():
    offenders = [f"{path.name}:{line}: {name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for line, name in private_reach_ins(path.read_text())]
    assert offenders == []
