"""Every public top-level function and class of bplab is reached from package
code: the CLI is the only front door, so a name that no other package code
refers to serves only the tests and belongs on their side.

A reference is resolved as tests/test_private_access.py resolves a reach-in:
`from .<module> import name`, or `from . import <module>` followed by
`<module>.name`. Inside the defining module a bare name counts too, except
inside the name's own definition. A local variable of another module that
shares the name is not a reference.
"""

import ast

from test_private_access import PACKAGE, references


def _public_definitions(tree):
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def _references(module, source, modules):
    """(module, name) pairs that the source of `module` refers to."""
    found = {(m, name) for _, m, name in references(source, modules)}
    for stmt in ast.parse(source).body:
        names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        found |= {(module, name) for name in names}
    return found


def unreachable(sources):
    """Sorted '<module>.<name>' of the public top-level functions and classes
    that no package code refers to, for sources {module name: source text}."""
    referenced = set()
    for module, source in sources.items():
        referenced |= _references(module, source, set(sources))
    return sorted(f"{m}.{name}" for m, source in sources.items()
                  for name in _public_definitions(ast.parse(source))
                  if (m, name) not in referenced)


def test_scanner_resolves_each_form():
    sources = {
        "a": ("def imported(): pass\n"
              "def attribute(): pass\n"
              "def bare(): pass\n"
              "def recursive(): return recursive()\n"
              "def phase(): pass\n"
              "class Unused: pass\n"
              "def _private(): pass\n"
              "def caller(): return bare()\n"),
        "b": ("from . import a as alias\n"
              "from .a import imported\n"
              "alias.attribute()\n"
              "def f():\n"
              "    phase = 1\n"
              "    return phase, caller\n"),
    }
    # bare names in b, such as its local `phase` and `caller`, reach nothing in a
    assert unreachable(sources) == ["a.Unused", "a.caller", "a.phase", "a.recursive", "b.f"]


def test_every_public_name_is_reached():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.stem != "__init__"}
    assert unreachable(sources) == []
