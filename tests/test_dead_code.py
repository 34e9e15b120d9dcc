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
mentions it carries a leftover of some deletion.
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
