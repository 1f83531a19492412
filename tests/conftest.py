from pathlib import Path

import pytest

from blissdf.verify import random_hamiltonian, random_psd_two_body  # noqa: F401 (shared by the tests)

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def fixture_fcidump() -> Path:
    return DATA_DIR / "tiny2.fcidump"
