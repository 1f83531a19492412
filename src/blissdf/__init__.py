"""Block-encoding scaling constant (lambda) reduction for electronic-structure
Hamiltonians.

The package combines a double tensor factorization of the two-body interaction
tensor with a block-invariant symmetry shift (BLISS), jointly optimized by
gradient descent so that the block-encoding scaling constant

    lambda = 1/2 * sum_r ||A_r||_*^2 + ||h'||_*

is minimized while the factorization stays (near-)exact. A dense fermionic
oracle verifies the underlying operator identities at small orbital counts.
"""

from blissdf.hamiltonian import (
    Hamiltonian,
    ShiftParams,
    apply_symmetry_shift,
    effective_one_body,
    symmetrize_one_body,
)
from blissdf.fcidump import FcidumpError, load_integrals, write_integrals
from blissdf.factorization import (
    FactorSet,
    IndefiniteTensorError,
    LambdaBreakdown,
    frobenius_error,
    initial_double_factorization,
    lambda_df,
    load_factor_set,
    nuclear_norm,
    reconstruct_two_body,
    save_factor_set,
)
from blissdf.optimizer import (
    ConfigError,
    NonFiniteCostError,
    OptimizationConfig,
    OptimizationReport,
    gradient,
    optimize,
    total_cost,
)

__version__ = "0.1.0"

__all__ = [
    "Hamiltonian",
    "ShiftParams",
    "apply_symmetry_shift",
    "effective_one_body",
    "frobenius_error",
    "reconstruct_two_body",
    "symmetrize_one_body",
    "FcidumpError",
    "load_integrals",
    "write_integrals",
    "FactorSet",
    "IndefiniteTensorError",
    "LambdaBreakdown",
    "initial_double_factorization",
    "lambda_df",
    "load_factor_set",
    "save_factor_set",
    "nuclear_norm",
    "ConfigError",
    "NonFiniteCostError",
    "OptimizationConfig",
    "OptimizationReport",
    "gradient",
    "optimize",
    "total_cost",
    "__version__",
]
