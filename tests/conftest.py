from pathlib import Path

import numpy as np
import pytest

from blissdf import FactorSet
from blissdf.hamiltonian import effective_one_body
from blissdf.verify import random_hamiltonian, random_psd_two_body  # noqa: F401 (shared by the tests)

DATA_DIR = Path(__file__).parent / "data"


def packed_factors(stack) -> FactorSet:
    """The FactorSet of an (R, N, N) stack's upper triangles: row r is stack[r][np.triu_indices(N)]."""
    stack = np.asarray(stack, dtype=np.float64)
    rows, cols = np.triu_indices(stack.shape[-1])
    return FactorSet(stack[:, rows, cols], len(stack))


def closed_form_shift(ham, xi) -> tuple[float, float]:
    """(kappa*, ||h'_xi + t* I||_*) from eigvalsh, with t* = -median(eig h'_xi) and kappa* = t* - tr xi.

    h'_xi = h' + (N - n_e) xi; this is the independent oracle of the
    optimizer's closed-form kappa.
    """
    mu = np.linalg.eigvalsh(effective_one_body(ham) + (ham.n_orbitals - ham.n_electrons) * xi)
    m = float(np.median(mu))
    return -m - float(np.trace(xi)), float(np.abs(mu - m).sum())


@pytest.fixture
def fixture_fcidump() -> Path:
    return DATA_DIR / "tiny2.fcidump"
