import doctest
import re
from pathlib import Path

from binpart import sweeps

README = Path(__file__).parents[1] / "README.md"


def test_readme_examples_run():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_claim_cost_table_lists_every_claim_at_its_default_range():
    rows = re.findall(r"^\| `([\w-]+)` \| (\d+)\.\.(\d+) \|", README.read_text(), re.M)
    assert [(claim, (int(lo), int(hi))) for claim, lo, hi in rows] == [
        (claim, default) for claim, (_, default) in sweeps.CLAIMS.items()]
