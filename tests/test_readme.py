import ast
import doctest
import re
from pathlib import Path

from binpart import sweeps

README = Path(__file__).parents[1] / "README.md"
SRC = Path(__file__).parents[1] / "src" / "binpart"


def test_readme_examples_run():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_claim_cost_table_lists_every_claim_at_its_default_range():
    rows = re.findall(r"^\| `([\w-]+)` \| (\d+)\.\.(\d+) \|", README.read_text(), re.M)
    assert [(claim, (int(lo), int(hi))) for claim, lo, hi in rows] == [
        (claim, default) for claim, (_, default) in sweeps.CLAIMS.items()]


def _bound_names(tree) -> set[str]:
    """Names a module binds: functions, classes, assigned names and imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def test_library_overview_names_only_what_the_package_binds():
    after = README.read_text().split("## Library overview\n", 1)[1]
    overview = after.split("\n## ", 1)[0]
    named = set(re.findall(r"`(_?[a-z][a-z0-9]*(?:_[a-z0-9]+)+)`", overview))
    bound = set().union(*(_bound_names(ast.parse(path.read_text()))
                          for path in SRC.glob("*.py")))
    assert named and sorted(named - bound) == []
