import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return bench.load_program()
