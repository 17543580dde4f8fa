"""Every public top-level function and class of bplab is reached from package
code: the CLI is the only front door, so a name that no other package code
refers to serves only the tests and belongs on their side.

A reference is resolved as tests/test_private_access.py resolves a reach-in:
`from .<module> import name`, or `from . import <module>` followed by
`<module>.name`. Inside the defining module a bare name counts too, except
inside the name's own definition. A local variable of another module that
shares the name is not a reference.

Likewise every field of a package @dataclass is read by package code
outside that class's __post_init__, as an attribute load `.name` or as a
string constant equal to the name (NormReport.row reads its fields through
NORM_REPORT_COLUMNS). Like the reference scan, this matches names only.
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


def _is_dataclass(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "id", getattr(decorator, "attr", None)) == "dataclass"


def unread_fields(sources):
    """Sorted '<module>.<class>.<field>' of the fields of top-level @dataclass
    classes that no package code reads outside the class's __post_init__."""
    fields, reads = [], set()          # reads: (name, (module, class) or None)
    for module, source in sources.items():
        tree = ast.parse(source)
        owner = {}                     # id of a node in a __post_init__ -> its class
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                    owner.update((id(n), (module, cls.name)) for n in ast.walk(fn))
            if any(_is_dataclass(d) for d in cls.decorator_list):
                fields += [(module, cls.name, stmt.target.id) for stmt in cls.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add((node.attr, owner.get(id(node))))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add((node.value, owner.get(id(node))))
    return sorted(f"{m}.{c}.{name}" for m, c, name in fields
                  if not any(r == name and where != (m, c) for r, where in reads))


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


def test_field_scanner_resolves_each_form():
    sources = {
        "a": ("from dataclasses import dataclass\n"
              "import dataclasses\n"
              "@dataclass\n"
              "class Report:\n"
              "    by_attribute: float\n"
              "    by_string: float\n"
              "    by_other_post_init: float\n"
              "    own_post_init: float\n"
              "    stored_only: float\n"
              "    unread: float = 0.0\n"
              "    def __post_init__(self):\n"
              "        self.own_post_init = abs(self.own_post_init)\n"
              "        self.stored_only = 1.0\n"
              "@dataclasses.dataclass(frozen=True)\n"
              "class Other:\n"
              "    frozen: int\n"
              "    def __post_init__(self):\n"
              "        self.frozen(self.by_other_post_init)\n"
              "class Plain:\n"
              "    annotated: int\n"
              "COLUMNS = ('by_string',)\n"),
        "b": ("def f(report):\n"
              "    return report.by_attribute\n"),
    }
    # a read in the class's own __post_init__ does not count, one in another
    # class's does; a store is no read, and a plain class is not scanned
    assert unread_fields(sources) == ["a.Other.frozen", "a.Report.own_post_init",
                                      "a.Report.stored_only", "a.Report.unread"]


def test_every_dataclass_field_is_read():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.stem != "__init__"}
    assert unread_fields(sources) == []
