"""Every definition in src/binpart is reached from a command.

The roots are the console script in pyproject.toml and every module
statement that is neither a definition nor an import, such as an
`if __name__ == "__main__"` block.  Imports, the `binpart/__init__`
re-exports among them, reach nothing.  From the roots the guard follows
each name and attribute a reached definition mentions.  A module-level
function, class or constant is reached by its name or by an attribute of
that name; a method or property only by an attribute of its name, and a
dunder method together with its class.  A definition left over is code
no command runs.

A second guard reads the imports: a module that imports a name and never
mentions it carries a leftover of some deletion.  A third reads the
defaults: a parameter with a default that no call in src/binpart passes
is an option no command sets.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).parents[1]

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _mentions(*nodes) -> list[str]:
    """Names mentioned by nodes; an attribute `x.a` counts as a and as .a."""
    found = []
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                found.append(n.id)
            elif isinstance(n, ast.Attribute):
                found += [n.attr, "." + n.attr]
    return found


def _class_parts(cls: ast.ClassDef):
    """The methods a class defines apart, and the rest of the class."""
    methods = [stmt for stmt in cls.body
               if isinstance(stmt, FUNCTIONS) and not _is_dunder(stmt.name)]
    rest = [stmt for stmt in cls.body if stmt not in methods]
    return methods, cls.decorator_list + cls.bases + cls.keywords + rest


def unreached_definitions(root: Path) -> list[str]:
    """`module.name` of each definition in root/src/binpart that no root
    reaches; a method or property reads `module.Class.name`."""
    pending = re.findall(r'^\S+ = "binpart\.\w+:(\w+)"$',
                         (root / "pyproject.toml").read_text(), re.M)
    definitions = []  # (reported name, key it is reached by, mentions)
    for path in sorted((root / "src" / "binpart").glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                methods, rest = _class_parts(stmt)
                definitions.append((f"{module}.{stmt.name}", stmt.name,
                                    _mentions(*rest)))
                definitions += [(f"{module}.{stmt.name}.{m.name}", "." + m.name,
                                 _mentions(m)) for m in methods]
            elif isinstance(stmt, FUNCTIONS):
                definitions.append((f"{module}.{stmt.name}", stmt.name,
                                    _mentions(stmt)))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                definitions += [(f"{module}.{n.id}", n.id, _mentions(stmt))
                                for target in targets for n in ast.walk(target)
                                if isinstance(n, ast.Name)]
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                pending += _mentions(stmt)
    reached = set()
    while pending:
        key = pending.pop()
        if key not in reached:
            reached.add(key)
            pending += [mentioned for _, defined, mentions in definitions
                        if defined == key for mentioned in mentions]
    return sorted(name for name, key, _ in definitions if key not in reached)


def test_every_definition_is_reached_from_a_command():
    assert unreached_definitions(REPO) == []


def unused_imports(root: Path) -> list[str]:
    """`module.name` of each name a module in root/src/binpart imports and
    never mentions.  `__init__`, whose imports are the package's
    re-exports, and `from __future__ import annotations` are exempt."""
    unused = []
    for path in sorted((root / "src" / "binpart").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                names = [a.asname or a.name for a in stmt.names]
            else:
                continue
            unused += [f"{path.stem}.{name}" for name in names if name not in used]
    return sorted(unused)


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports(REPO) == []


def test_unused_import_guard_reports_a_leftover(tmp_path):
    package = tmp_path / "src" / "binpart"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .roots import root\n")
    (package / "roots.py").write_text(
        "from __future__ import annotations\n"
        "import mpmath.libmp\n"
        "from math import isqrt, sqrt as root_of\n\n"
        "def root(x):\n    return root_of(x)\n")
    assert unused_imports(tmp_path) == ["roots.isqrt", "roots.mpmath"]


# the console entry point: tests and the benchmark pass argv, a command never does
SET_OUTSIDE_SRC = {"cli.main.argv"}


def _defaulted_parameters(function):
    """(position, name) of each parameter of function that has a default;
    position None for a keyword-only one.  A method's self is not counted."""
    args = function.args
    positional = args.posonlyargs + args.args
    offset = 1 if positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    found = [(i - offset, a.arg) for i, a in enumerate(positional) if i >= first]
    found += [(None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return found


def _sets(call: ast.Call, position, name: str) -> bool:
    """Whether call passes the parameter at position (None: keyword-only)
    called name; a starred argument may pass any of them."""
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args))


def _functions(scope, prefix: str, cls: str | None = None):
    """(qualified name, name a call reaches it by, function) of each function
    defined in scope, nested ones included; a call reaches __init__ by its
    class's name and any other function by its own."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}.{node.name}", node.name)
        elif isinstance(node, FUNCTIONS):
            callee = cls if cls and node.name == "__init__" else node.name
            yield f"{prefix}.{node.name}", callee, node
            yield from _functions(node, f"{prefix}.{node.name}")


def unset_defaults(root: Path) -> list[str]:
    """`module.function.parameter` (`module.Class.method.parameter` for a
    method) of each parameter with a default in root/src/binpart that no
    call there passes, by position or by keyword.  A call `f(...)` or
    `x.f(...)` counts for every function named f."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((root / "src" / "binpart").glob("*.py"))}
    calls = {}  # callee name -> calls
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    unset = []
    for module, tree in trees.items():
        for qualified, callee, function in _functions(tree, module):
            unset += [f"{qualified}.{param}"
                      for position, param in _defaulted_parameters(function)
                      if not any(_sets(call, position, param)
                                 for call in calls.get(callee, ()))]
    return sorted(unset)


def test_every_defaulted_parameter_is_set_by_a_src_call():
    assert [name for name in unset_defaults(REPO)
            if name not in SET_OUTSIDE_SRC] == []


def test_unset_default_guard_reports_a_leftover(tmp_path):
    package = tmp_path / "src" / "binpart"
    package.mkdir(parents=True)
    (package / "rows.py").write_text(
        "def build(n, table=None, *, check=True, strict=False):\n"
        "    return n\n\n"
        "class Table:\n"
        "    def __init__(self, n, table=None):\n"
        "        self.n = n\n\n"
        "    def row(self, k, weights=None):\n"
        "        return k\n\n"
        "def run():\n"
        "    build(1, check=False)\n"
        "    Table(2, ()).row(3)\n")
    assert unset_defaults(tmp_path) == ["rows.Table.row.weights",
                                        "rows.build.strict", "rows.build.table"]
