"""Every public top-level function and class of bplab is reached from package
code: the CLI is the only front door, so a name that no other package code
refers to serves only the tests and belongs on their side.

A reference is resolved as tests/test_private_access.py resolves a reach-in:
`from .<module> import name`, or `from . import <module>` followed by
`<module>.name`. Inside the defining module a bare name counts too, except
inside the name's own definition. A local variable of another module that
shares the name is not a reference.

Likewise every field of a package @dataclass is read by package code
outside that class's __post_init__: as an attribute load `x.name` on an x
bound to the class (see _FieldReads), or by `getattr` on such an x and a
string constant equal to the name (NormReport.row reads its fields through
NORM_REPORT_COLUMNS). A load `.name` on any other object reads no field, so
a dead field is found even when other objects carry its name. Classes and
functions are matched by name only, like the reference scan.
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


def _named_class(node, classes):
    """The dataclass that an annotation or callee names: `C`, `mod.C`,
    `C | None` or the string 'C'; (C,) for `list[C]`; None for any other
    node."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _named_class(node.left, classes) or _named_class(node.right, classes)
    if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "list":
        item = _named_class(node.slice, classes)
        return (item,) if isinstance(item, str) else None
    name = getattr(node, "id", getattr(node, "attr", None))
    return name if name in classes else None


def _own_nodes(body):
    """The nodes of a scope's statements, without the bodies of the functions
    and classes defined in them."""
    found, todo = [], list(body)
    while todo:
        node = todo.pop()
        found.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return found


class _FieldReads:
    """The dataclass field reads of the package: a load `x.name` reads the
    field `name` of class C only when x is bound to C, as a parameter
    annotated C, as the first parameter of a method of C, by an assignment
    from a call of C or of a function annotated to return C, or as a field
    of such an x annotated C, or as the loop variable over a list of C so
    bound. A load on anything else reads no field; `getattr(x, ...)` on such
    an x reads each field of C that a string constant of the package names."""

    def __init__(self, sources):
        self.classes, self.fields, self.returns = {}, [], {}
        trees = {module: ast.parse(source) for module, source in sources.items()}
        for module, tree in trees.items():
            for cls in tree.body:
                if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list)):
                    self.classes[cls.name] = {     # field -> annotation
                        stmt.target.id: stmt.annotation for stmt in cls.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
                    self.fields += [(module, cls.name, name) for name in self.classes[cls.name]]
        for tree in trees.values():
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef) and fn.returns is not None:
                    self.returns[fn.name] = _named_class(fn.returns, self.classes)
        self.reads = set()          # (class, name or getattr, (module, class) or None)
        self.strings = set()
        for module, tree in trees.items():
            self._scope(module, tree.body, {}, None)

    def _type(self, node, env):
        """C for a node bound to the dataclass C, (C,) for one bound to a list of C."""
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Subscript):
            items = self._type(node.value, env)
            return items[0] if isinstance(items, tuple) else None
        if isinstance(node, ast.Call):
            return _named_class(node.func, self.classes) or \
                self.returns.get(getattr(node.func, "id", getattr(node.func, "attr", None)))
        if isinstance(node, ast.Attribute):
            owner = self._type(node.value, env)
            annotation = self.classes.get(owner, {}).get(node.attr)
            return None if annotation is None else _named_class(annotation, self.classes)
        return None

    def _scope(self, module, body, env, where, cls=None, fn=None):
        env = dict(env)
        if fn is not None:
            args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            for i, arg in enumerate(args):
                bound = _named_class(arg.annotation, self.classes) if arg.annotation else None
                env[arg.arg] = bound or (cls if i == 0 else None)
        nodes = _own_nodes(body)
        for _ in range(2):          # an assignment may read a name bound below it
            for node in nodes:
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name):
                    env[node.targets[0].id] = self._type(node.value, env)
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    env[node.target.id] = _named_class(node.annotation, self.classes)
                elif isinstance(node, (ast.For, ast.comprehension)) \
                        and isinstance(node.target, ast.Name):
                    items = self._type(node.iter, env)
                    env[node.target.id] = items[0] if isinstance(items, tuple) else None
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = self._type(node.value, env)
                if isinstance(owner, str):
                    self.reads.add((owner, node.attr, where))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
                owner = self._type(node.args[0], env)
                if isinstance(owner, str):
                    self.reads.add((owner, getattr, where))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                self.strings.add(node.value)
            elif isinstance(node, ast.ClassDef):
                self._scope(module, node.body, env, where, cls=node.name)
            elif isinstance(node, ast.FunctionDef):
                inner = (module, cls) if node.name == "__post_init__" and cls else where
                self._scope(module, node.body, env, inner, cls=cls, fn=node)

    def unread(self):
        return sorted(f"{m}.{c}.{name}" for m, c, name in self.fields
                      if not any(owner == c and where != (m, c)
                                 and (r == name or r is getattr and name in self.strings)
                                 for owner, r, where in self.reads))


def unread_fields(sources):
    """Sorted '<module>.<class>.<field>' of the fields of top-level @dataclass
    classes that no package code reads outside the class's __post_init__."""
    return _FieldReads(sources).unread()


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
              "    by_call: float\n"
              "    by_field: float\n"
              "    by_loop: float\n"
              "    own_post_init: float\n"
              "    stored_only: float\n"
              "    unread: float = 0.0\n"
              "    def __post_init__(self):\n"
              "        self.own_post_init = abs(self.own_post_init)\n"
              "        self.stored_only = 1.0\n"
              "    def row(self):\n"
              "        return [getattr(self, c) for c in COLUMNS]\n"
              "@dataclasses.dataclass(frozen=True)\n"
              "class Other:\n"
              "    frozen: int\n"
              "    report: 'Report | None'\n"
              "    def __post_init__(self):\n"
              "        self.frozen(make().by_other_post_init)\n"
              "    def read(self):\n"
              "        return self.report.by_field\n"
              "def make() -> Report:\n"
              "    return Report(*[0.0] * 8)\n"
              "class Plain:\n"
              "    annotated: int\n"
              "COLUMNS = ('by_string',)\n"),
        "b": ("from . import a\n"
              "def f(report: a.Report):\n"
              "    return report.by_attribute\n"
              "def g():\n"
              "    made = a.Report(*[0.0] * 8)\n"
              "    return made.by_call\n"
              "def h(reports: list[a.Report]):\n"
              "    return [r.by_loop for r in reports]\n"),
        # a dead field whose name other objects carry: the loads args.k and
        # params.k are not reads of Certificate.k
        "c": ("from dataclasses import dataclass\n"
              "@dataclass\n"
              "class Params:\n"
              "    k: float\n"
              "@dataclass\n"
              "class Certificate:\n"
              "    c: float\n"
              "    k: int\n"
              "def search() -> 'Params | None':\n"
              "    return Params(1.0)\n"
              "def certify(k) -> Certificate:\n"
              "    return Certificate(0.0, k)\n"
              "def cmd(args):\n"
              "    params = search()\n"
              "    cert = certify(args.k)\n"
              "    return cert.c, params.k\n"),
    }
    # a read in the class's own __post_init__ does not count, one in another
    # class's does; a store is no read, a load on an unbound name reads
    # nothing, a string reads a field only through getattr on its class, and
    # a plain class is not scanned
    assert unread_fields(sources) == ["a.Other.frozen", "a.Report.own_post_init",
                                      "a.Report.stored_only", "a.Report.unread",
                                      "c.Certificate.k"]


def test_every_dataclass_field_is_read():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.stem != "__init__"}
    assert unread_fields(sources) == []
