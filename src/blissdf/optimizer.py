"""Joint minimization of the block-encoding scaling constant.

The objective is the penalized scalar

    Total(kappa, xi, A) = c_approx * Err(kappa, xi, A) + lambda(kappa, xi, A)

where Err is the squared Frobenius deviation between the shifted two-body
tensor and its factorized reconstruction, and lambda is the block-encoding
scaling constant of the shifted Hamiltonian. Minimizing Total over the shift
(kappa, xi) and the factors A_r trades a tiny factorization residual for a
much smaller lambda.

Gradients are analytic. The nuclear norm is nondifferentiable at zero
eigenvalues; there the subgradient sum_t sign(lambda_t) u_t u_t^T with
sign(0) = 0 is used, which is valid for any orthonormal eigenbasis, so no
smoothing or perturbation is needed.

R may go up to N^2, but the initial double factorization has at most
N(N+1)/2 nonzero factors; the rest are exact zeros. An exactly-zero factor
has an exactly zero gradient, so Adam would leave it at zero forever: the
descent runs over the M nonzero factors only (the effective rank), and the
reported factors are padded back to R with zeros. All M factor norms and
their subgradients come from one batched eigh over the (M, N, N) stack.

The parameters (kappa, xi, A) live in one flat vector, and descent is one
plain Adam step on it, updating the moments in place; a frozen block has
its slice of the gradient zeroed, so it keeps its initial value bit for
bit. The run is fully deterministic for a fixed configuration.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from blissdf.factorization import (
    FactorSet,
    LambdaBreakdown,
    initial_double_factorization,
    lambda_df,
    nuclear_norms,
)
from blissdf.hamiltonian import (
    Hamiltonian,
    effective_rank,
    frobenius_error,
    shifted_effective_one_body,
    shifted_two_body,
    symmetrize_one_body,
)

PARAM_BLOCKS = ("kappa", "xi", "factors")

_REAL_FIELDS = (
    "c_approx",
    "learning_rate",
    "adam_beta1",
    "adam_beta2",
    "adam_epsilon",
    "rel_tol",
    "err_budget",
)


class ConfigError(ValueError):
    """Invalid optimization configuration (bad value or unknown key)."""


class NonFiniteCostError(ArithmeticError):
    """The cost became NaN or infinite during optimization."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        super().__init__(
            f"cost is non-finite at iteration {iteration}; "
            "reduce the learning rate or c_approx"
        )


@dataclass(frozen=True)
class OptimizationConfig:
    """Hyperparameters for the penalized descent.

    ``c_approx`` set to None selects an automatic weight,
    1e3 * (initial lambda) / max(initial Err, 1e-12), clamped to
    [1e2, 1e9], so the penalty dominates without flattening the lambda
    signal. ``err_budget`` is not enforced during descent; it defines which
    iterates count as feasible when the best one is selected afterwards.
    Real-valued fields must be finite numbers; NaN and infinities raise
    ConfigError.
    """

    c_approx: float | None = None
    max_iters: int = 10000
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    rel_tol: float = 1e-7
    patience: int = 200
    seed: int = 0
    err_budget: float = 1e-6

    def __post_init__(self):
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if name == "c_approx" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.c_approx is not None and not self.c_approx > 0:
            raise ConfigError(f"c_approx must be positive, got {self.c_approx}")
        if (
            isinstance(self.max_iters, bool)
            or not isinstance(self.max_iters, int)
            or self.max_iters < 1
        ):
            raise ConfigError(f"max_iters must be a positive integer, got {self.max_iters}")
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        for name in ("adam_beta1", "adam_beta2"):
            beta = getattr(self, name)
            if not 0.0 < beta < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {beta}")
        if not self.adam_epsilon > 0:
            raise ConfigError(f"adam_epsilon must be positive, got {self.adam_epsilon}")
        if self.rel_tol < 0:
            raise ConfigError(f"rel_tol must be nonnegative, got {self.rel_tol}")
        if (
            isinstance(self.patience, bool)
            or not isinstance(self.patience, int)
            or self.patience < 1
        ):
            raise ConfigError(f"patience must be a positive integer, got {self.patience}")
        if (
            isinstance(self.seed, bool)
            or not isinstance(self.seed, int)
            or not -(2**63) <= self.seed < 2**63
        ):
            raise ConfigError(f"seed must be a 64-bit integer, got {self.seed}")
        if self.err_budget < 0:
            raise ConfigError(f"err_budget must be nonnegative, got {self.err_budget}")

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizationConfig":
        """Build a config from a JSON-style dict; unknown keys are an error."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown config keys {unknown}; valid keys are {sorted(known)}"
            )
        return cls(**data)

    @classmethod
    def from_json(cls, path: str | Path) -> "OptimizationConfig":
        """Load a config from a JSON file."""
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of one optimization run.

    ``best_params`` is the feasible iterate (Err within err_budget of the
    initial Err) with the smallest lambda; the initial point itself is always
    feasible, so lambda never regresses past the initialization.
    ``total_trace`` has one row (total, err, lambda) per evaluated iterate,
    row 0 being the initialization. ``initial_breakdown`` is the lambda
    breakdown of that initialization, the unshifted double factorization.
    """

    best_params: tuple[float, np.ndarray, FactorSet]
    lambda_breakdown: LambdaBreakdown
    err_final: float
    total_trace: np.ndarray = field(repr=False)
    iterations_run: int
    stop_reason: str
    best_iteration: int
    initial_lambda: float
    initial_err: float
    initial_breakdown: LambdaBreakdown
    c_approx_used: float


def _pack(ham: Hamiltonian, params) -> tuple[np.ndarray, int]:
    """Check and symmetrize (kappa, xi, factors); return them as one flat vector.

    The flat vector stops at the last nonzero factor (see effective_rank): a
    trailing zero factor has an exactly zero gradient and adds nothing to the
    cost. The number R of factors given is returned with it.
    """
    kappa, xi, factors = params
    n = ham.n_orbitals
    xi = symmetrize_one_body(np.asarray(xi, dtype=np.float64))
    if xi.shape != (n, n):
        raise ValueError(f"xi shape {xi.shape} does not match N={n}")
    factors = np.asarray(getattr(factors, "factors", factors), dtype=np.float64)
    if factors.ndim != 3 or factors.shape[1:] != (n, n):
        raise ValueError(f"factors shape {factors.shape} does not match (R, {n}, {n})")
    rank = len(factors)
    factors = factors[: effective_rank(factors)]
    factors = 0.5 * (factors + factors.transpose(0, 2, 1))
    return np.concatenate(([float(kappa)], xi.ravel(), factors.ravel())), rank


def _blocks(theta: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Writable views (kappa, xi, factors) of theta: (1,), (N, N), (R, N, N)."""
    xi_end = 1 + n * n
    return theta[:1], theta[1:xi_end].reshape(n, n), theta[xi_end:].reshape(-1, n, n)


def _evaluate(
    ham: Hamiltonian,
    theta: np.ndarray,
    c_approx: float,
    grad: np.ndarray | None = None,
) -> tuple[float, float, float]:
    """Cost (total, err, lambda) at theta; fills ``grad`` with its gradient if given."""
    n = ham.n_orbitals
    kappa, xi, factors = _blocks(theta, n)
    kappa = float(kappa[0])
    rank = factors.shape[0]

    # Subtract in place: only two N^4 arrays are alive at once.
    flat = factors.reshape(rank, n * n)
    diff = shifted_two_body(ham.g, xi)
    diff -= (flat.T @ flat).reshape(n, n, n, n)
    err = float(np.vdot(diff, diff))

    h_eff = shifted_effective_one_body(ham, kappa, xi)
    if grad is None:
        factor_norms, one_body_norm = nuclear_norms(factors), nuclear_norms(h_eff)
    else:
        factor_norms, factor_subs = nuclear_norms(factors, subgradient=True)
        one_body_norm, one_body_sub = nuclear_norms(h_eff, subgradient=True)
    lam = float(0.5 * np.sum(factor_norms**2) + one_body_norm)
    total = c_approx * err + lam
    if grad is None:
        return total, err, lam

    grad_kappa, grad_xi, grad_factors = _blocks(grad, n)
    one_body_trace = float(np.trace(one_body_sub))
    grad_kappa[0] = one_body_trace

    xi_part = 2.0 * c_approx * np.einsum("abkk->ab", diff)
    xi_part += (n - ham.n_electrons) * one_body_sub + one_body_trace * np.eye(n)
    grad_xi[...] = symmetrize_one_body(xi_part)

    diff_mat = diff.reshape(n * n, n * n)
    factor_part = -4.0 * c_approx * (diff_mat @ flat.T).T.reshape(rank, n, n)
    factor_part += factor_norms[:, None, None] * factor_subs
    grad_factors[...] = 0.5 * (factor_part + factor_part.transpose(0, 2, 1))
    return total, err, lam


def total_cost(
    ham: Hamiltonian, params, c_approx: float
) -> tuple[float, float, float]:
    """Evaluate the penalized objective at (kappa, xi, factors).

    Args:
        ham: Unshifted Hamiltonian.
        params: Triple (kappa, xi, factors); xi and the factor matrices are
            symmetrized on entry, and the factors may be a FactorSet or a
            raw (R, N, N) array.
        c_approx: Penalty weight on the factorization residual.

    Returns:
        (total, err, lambda) with total = c_approx * err + lambda. Trailing
        zero factors are skipped, so a zero-padded factor stack gives the
        same bits as its unpadded prefix.
    """
    return _evaluate(ham, _pack(ham, params)[0], c_approx)


def gradient(ham: Hamiltonian, params, c_approx: float):
    """Analytic gradient of total_cost in all three parameter blocks.

    Returns:
        (d_kappa, d_xi, d_factors) with d_xi symmetric and d_factors of
        shape (R, N, N). At eigenvalue crossings of the nuclear norms the
        sign(0) = 0 subgradient is returned. Trailing zero factors are
        skipped and get exact zeros in d_factors, as in total_cost.
    """
    theta, rank = _pack(ham, params)
    n = ham.n_orbitals
    # theta's layout is a prefix of this R-factor one; the rest stays zero.
    grad = np.zeros(1 + n * n * (1 + rank))
    _evaluate(ham, theta, c_approx, grad[: theta.size])
    grad_kappa, grad_xi, grad_factors = _blocks(grad, n)
    return float(grad_kappa[0]), grad_xi, grad_factors


def _assess(
    ham: Hamiltonian, kappa: float, xi: np.ndarray, factor_set: FactorSet
) -> tuple[float, LambdaBreakdown]:
    """Err and lambda breakdown at one point, bitwise equal to its trace row."""
    err = frobenius_error(shifted_two_body(ham.g, xi), factor_set)
    return err, lambda_df(factor_set, shifted_effective_one_body(ham, kappa, xi))


def _resolve_c_approx(config, init_err: float, init_lambda: float) -> float:
    if config.c_approx is not None:
        return float(config.c_approx)
    auto = 1e3 * init_lambda / max(init_err, 1e-12)
    return float(min(max(auto, 1e2), 1e9))


def optimize(
    ham: Hamiltonian,
    rank: int,
    config: OptimizationConfig,
    free: tuple[str, ...] = PARAM_BLOCKS,
) -> OptimizationReport:
    """Minimize Total over the symmetry shift and the factor matrices.

    Starts from kappa = 0, xi = 0 and the eigendecomposition-based double
    factorization of the unshifted two-body tensor, then runs Adam with the
    configured hyperparameters. Descent stops when the best Total seen fails
    to improve by a relative rel_tol over a window of ``patience``
    iterations, or at max_iters.

    The returned parameters are the iterate with the smallest lambda among
    those whose Err stays within ``config.err_budget`` of the initial Err.
    The initial point is included, so the reported lambda never exceeds the
    initialization's.

    Args:
        ham: Hamiltonian to shift and factorize.
        rank: Number of factors R, 1 <= R <= N^2; at most N(N+1)/2 of them
            are nonzero, and the rest stay exact zeros.
        config: Hyperparameters; config.seed is recorded for provenance (the
            descent itself is deterministic and uses no randomness).
        free: Parameter blocks to update, a subset of ("kappa", "xi",
            "factors"). Frozen blocks keep their initial values exactly;
            the default frees everything.

    Returns:
        OptimizationReport; its lambda_breakdown and err_final are
        recomputed from best_params and match the trace row at
        best_iteration.

    Raises:
        NonFiniteCostError: If the cost evaluates to NaN or infinity.
        IndefiniteTensorError: Propagated from the initialization when the
            two-body tensor is not factorizable.
        ValueError: On an unknown ``free`` block name or an invalid rank.
    """
    unknown = set(free) - set(PARAM_BLOCKS)
    if unknown:
        raise ValueError(f"unknown free blocks {sorted(unknown)}; valid: {PARAM_BLOCKS}")

    n = ham.n_orbitals
    init_factors = initial_double_factorization(ham.g, rank)
    init_xi = np.zeros((n, n))
    init_err, init_breakdown = _assess(ham, 0.0, init_xi, init_factors)
    c_approx = _resolve_c_approx(config, init_err, init_breakdown.lambda_total)

    # _pack leaves the trailing exact-zero factors, which never move, out of theta.
    theta, _ = _pack(ham, (0.0, init_xi, init_factors))
    grad = np.empty_like(theta)
    frozen = [b for name, b in zip(PARAM_BLOCKS, _blocks(grad, n)) if name not in free]
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    beta1, beta2 = config.adam_beta1, config.adam_beta2
    lr, eps = config.learning_rate, config.adam_epsilon

    trace = []
    best_total = math.inf
    anchor_total = math.inf
    anchor_iter = 0
    best_lambda = math.inf
    best_theta = None
    best_iteration = 0
    stop_reason = "max_iters"

    for iteration in range(config.max_iters + 1):
        # The last iterate takes no step, so it needs no gradient.
        step_grad = grad if iteration < config.max_iters else None
        total, err, lam = _evaluate(ham, theta, c_approx, step_grad)
        if not (math.isfinite(total) and math.isfinite(err) and math.isfinite(lam)):
            raise NonFiniteCostError(iteration)
        trace.append((total, err, lam))

        if err <= init_err + config.err_budget and lam < best_lambda:
            best_lambda = lam
            best_theta = theta.copy()
            best_iteration = iteration

        if total < best_total:
            best_total = total
        if not math.isfinite(anchor_total) or (
            anchor_total - best_total
            >= config.rel_tol * max(abs(anchor_total), 1.0)
        ):
            anchor_total = best_total
            anchor_iter = iteration
        elif iteration - anchor_iter >= config.patience:
            stop_reason = "converged"
            break

        if iteration == config.max_iters:
            break

        for block in frozen:
            block[...] = 0.0
        step = iteration + 1
        bias1 = 1.0 - beta1**step
        bias2 = 1.0 - beta2**step
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad**2
        theta -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)

    best_kappa, best_xi, best_factors = _blocks(best_theta, n)
    best_kappa = float(best_kappa[0])
    padded = np.zeros((rank, n, n))
    padded[: len(best_factors)] = best_factors
    best_factor_set = FactorSet(factors=padded)
    err_final, breakdown = _assess(ham, best_kappa, best_xi, best_factor_set)

    return OptimizationReport(
        best_params=(best_kappa, best_xi, best_factor_set),
        lambda_breakdown=breakdown,
        err_final=err_final,
        total_trace=np.array(trace),
        iterations_run=len(trace) - 1,
        stop_reason=stop_reason,
        best_iteration=best_iteration,
        initial_lambda=init_breakdown.lambda_total,
        initial_err=init_err,
        initial_breakdown=init_breakdown,
        c_approx_used=c_approx,
    )
