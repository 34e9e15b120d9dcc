"""Every module-level definition in src/binpart is reached from a command.

The roots are the console script in pyproject.toml and every module
statement that is neither a definition nor an import, such as an
`if __name__ == "__main__"` block.  Imports, the `binpart/__init__`
re-exports among them, reach nothing.  From the roots the guard follows
each name and attribute a reached definition mentions; a function, class
or constant left over is code no command runs.
"""

import ast
import re
from pathlib import Path

REPO = Path(__file__).parents[1]


def _mentions(node) -> list[str]:
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
            or isinstance(n, ast.Attribute)]


def unreached_definitions(root: Path) -> list[str]:
    """`module.name` of each definition in root/src/binpart that no root reaches."""
    pending = re.findall(r'^\S+ = "binpart\.\w+:(\w+)"$',
                         (root / "pyproject.toml").read_text(), re.M)
    definitions = []  # (module, name, defining statement)
    for path in sorted((root / "src" / "binpart").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                definitions.append((path.stem, stmt.name, stmt))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                definitions += [(path.stem, n.id, stmt) for target in targets
                                for n in ast.walk(target) if isinstance(n, ast.Name)]
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                pending += _mentions(stmt)
    reached = set()
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending += [mentioned for _, defined, stmt in definitions
                        if defined == name for mentioned in _mentions(stmt)]
    return sorted(f"{module}.{name}" for module, name, _ in definitions
                  if name not in reached)


def test_every_definition_is_reached_from_a_command():
    assert unreached_definitions(REPO) == []
