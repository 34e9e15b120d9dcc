import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from binpart import (
    DiagonalTable,
    build_partition_table,
    iter_triangle_rows,
)
from binpart.sweeps import SweepContext

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def table_2001():
    return build_partition_table(2001)


@pytest.fixture(scope="session")
def table_120(table_2001):
    return table_2001


@pytest.fixture(scope="session")
def triangle_120(table_2001):
    return tuple(row for _, row in iter_triangle_rows(120, 121, table_2001))


@pytest.fixture(scope="session")
def triangle_1000(table_2001):
    return tuple(row for _, row in iter_triangle_rows(1000, 1001, table_2001))


@pytest.fixture(scope="session")
def diagonal_2001(table_2001):
    return DiagonalTable(2001, table_2001)


@pytest.fixture(scope="session")
def sweep_ctx():
    """The tables `binpart verify` shares across claims, kept for the session."""
    return SweepContext()
