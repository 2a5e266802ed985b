import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402 - needs the path above


@pytest.fixture(scope="session")
def package():
    return run.load_package()
