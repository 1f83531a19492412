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

The descent runs in pair space (hamiltonian.PairSpace) over the M nonzero
initial factors (a zero factor has a zero gradient; the reported factors
are padded back to R with zeros), so nothing in it is N^4 sized. The one
flat parameter vector holds kappa, xi (N x N) and each factor's P =
N(N+1)/2 upper-triangle entries in plain A coordinates: the factor gradient
is that of one matrix entry, so Adam steps as on the full symmetric
matrices. With F the (M, P) packed factors, the residual is the P x P
matrix D = (pair block of g + shift) - F^T F, Err = sum_pq c_p c_q D_pq^2
with multiplicities c = 1 (i = j) or 2 (i < j), and the factor gradient is
-4 c_approx (F * c) D + Lambda_r S_r. The M unpacked factors and the
shifted h_eff share one eigh stack per evaluation, and a run
evaluates each trace row once: the initial and the best point's Err and
lambda breakdown are kept from their own rows, and the gradient is built
from the same eigh stack after the stop check, only when a step follows.
Descent is Adam, in place; a frozen block has its gradient zeroed, so it
keeps its initial value bit for bit.

optimize, total_cost and gradient run with BLAS at one thread. Each
evaluation is two phases over fixed blocks of 64 stack matrices, spread
over all available CPUs by one thread pool that persists across calls
(blissdf._parallel). In the first, each block unpacks its factors and runs
their eigh (factorization.nuclear_norms), while the calling thread forms
the residual F^T F. In the second, after the stop check, each block forms
its subgradients (factorization.sign_subgradients) and then, for its own
factor rows, the Err term (F_b * c) D, the packed and scaled subgradients
and, in optimize, the Adam step on its own contiguous slice of theta, m and
v. The last block, which holds h', also does kappa and xi. Adam is
elementwise, so its bits do not depend on the split, and the blocks do not
depend on the core count, so neither does any bit: the run is
deterministic for a fixed config. A row block of (F * c) D need not be bit
equal to the same rows of one whole gemm, so the block size is part of
what fixes the bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from blissdf._parallel import one_blas_thread
from blissdf.factorization import (
    FactorSet,
    LambdaBreakdown,
    initial_double_factorization,
    lambda_parts,
    nuclear_norms,
    sign_subgradients,
)
from blissdf.hamiltonian import (
    Hamiltonian,
    _symmetric_part,
    effective_one_body,
    effective_rank,
    pair_space,
    shifted_effective_one_body,
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


def _integer(low, high):
    return lambda x: not isinstance(x, bool) and isinstance(x, int) and low <= x < high


# Checked in this order, after every _REAL_FIELDS entry is a finite number.
_RULES = (
    ("c_approx", lambda x: x is None or x > 0, "be positive"),
    ("max_iters", _integer(1, math.inf), "be a positive integer"),
    ("learning_rate", lambda x: x > 0, "be positive"),
    ("adam_beta1", lambda x: 0.0 < x < 1.0, "lie in (0, 1)"),
    ("adam_beta2", lambda x: 0.0 < x < 1.0, "lie in (0, 1)"),
    ("adam_epsilon", lambda x: x > 0, "be positive"),
    ("rel_tol", lambda x: x >= 0, "be nonnegative"),
    ("patience", _integer(1, math.inf), "be a positive integer"),
    ("err_budget", lambda x: x >= 0, "be nonnegative"),
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
        for name, valid, rule in _RULES:
            value = getattr(self, name)
            if not valid(value):
                raise ConfigError(f"{name} must {rule}, got {value}")

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizationConfig":
        """Build a config from a JSON-style dict; unknown keys are an error."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; valid keys are {sorted(known)}")
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

    The vector holds kappa, xi and each factor's upper triangle, up to the last
    nonzero factor (see effective_rank): a trailing zero factor has an exactly
    zero gradient and adds nothing to the cost. R is returned with it.
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
    factors = pair_space(n).pack(_symmetric_part(factors, ((0, 2, 1),)))
    return np.concatenate(([float(kappa)], xi.ravel(), factors.ravel())), rank


def _blocks(theta: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Writable views (kappa, xi, factors) of theta: (1,), (N, N), (M, P)."""
    xi_end = 1 + n * n
    return theta[:1], theta[1:xi_end].reshape(n, n), theta[xi_end:].reshape(-1, n * (n + 1) // 2)


def _gradient_weights(n: int, c_approx: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Per-run constants of a gradient at weight c_approx: c_approx, -4 c_approx c_p and I_N."""
    return c_approx, -4.0 * c_approx * pair_space(n).mult, np.eye(n)


def _evaluate(ham: Hamiltonian, h_eff: np.ndarray, theta: np.ndarray):
    """(err, lambda, norms, fill_gradient) at theta, given ham's unshifted h'.

    ``norms`` are the eigh batch's nuclear norms: the M factors', then the
    shifted h''s. ``fill_gradient(weights, grad, then)`` writes the gradient
    of c_approx * err + lambda into ``grad`` from the same batch, whose
    eigenvectors it overwrites, so it runs at most once; ``weights`` come
    from _gradient_weights. It runs in the blocks of the batch's
    subgradients: each block writes the gradient of its factors' entries,
    the block holding h' also the kappa and xi entries, and then calls
    ``then(part)`` on the thread that wrote them, for each contiguous slice
    ``part`` of theta it finished. The arrays it needs live as long as it
    does. Nothing here is N^4 sized.
    """
    n = ham.n_orbitals
    space = pair_space(n)
    kappa, xi, factors = _blocks(theta, n)
    rank = len(factors)

    # One eigh stack: the M factors, each unpacked by its own block, then the
    # shifted h_eff. The P-sized residual runs on this thread alongside.
    stack = np.empty((rank + 1, n, n))
    stack[rank] = shifted_effective_one_body(h_eff, ham.n_electrons, float(kappa[0]), xi)
    err = diff = None

    def residual() -> None:
        nonlocal err, diff
        err, diff = space.residual(space.shifted(ham.g_pairs, xi), factors)

    def unpack(part: slice) -> None:
        rows = slice(part.start, min(part.stop, rank))
        space.unpack(factors[rows], out=stack[rows])

    norms, eigvals, eigvecs = nuclear_norms(stack, first=residual, fill=unpack)

    def fill_gradient(weights, grad: np.ndarray, then=lambda part: None) -> None:
        c_approx, err_scale, eye = weights
        grad_kappa, grad_xi, grad_factors = _blocks(grad, n)
        head, width = 1 + n * n, factors.shape[1]

        def block(part: slice) -> None:
            # Per entry of A_r: -4 c_approx sum_q c_q F_rq D_qp + Lambda_r (S_r)_p.
            rows = slice(part.start, min(part.stop, rank))
            # The (rows, P) terms are formed in the block's part of the spent eigh stack.
            out = grad_factors[rows]
            work = stack[rows].reshape(-1)[: out.size].reshape(out.shape)
            np.matmul(np.multiply(factors[rows], err_scale, out=work), diff, out=out)
            space.pack(eigvecs[rows], out=work)
            work *= norms[rows, None]
            out += work
            start = head + rows.start * width
            if part.stop > rank:  # the last block holds h''s subgradient
                one_body_trace = float(np.trace(eigvecs[rank]))
                grad_kappa[0] = one_body_trace
                # d Err / d xi_ab = 2 sum_k D_(ab),(kk): D's columns at the diagonal pairs.
                xi_part = 2.0 * c_approx * space.unpack(diff[:, space.diagonal].sum(axis=1))
                xi_part += (n - ham.n_electrons) * eigvecs[rank] + one_body_trace * eye
                # symmetrize_one_body's average, in place and without its bitwise check.
                np.multiply(np.add(xi_part, xi_part.T, out=grad_xi), 0.5, out=grad_xi)
                if rows.start:
                    then(slice(0, head))
                else:  # one block: the head and the factors are one slice
                    start = 0
            then(slice(start, head + rows.stop * width))

        sign_subgradients(eigvals, eigvecs, then=block, work=stack)

    return err, lambda_parts(norms[:rank], norms[rank])[0], norms, fill_gradient


@one_blas_thread()
def total_cost(ham: Hamiltonian, params, c_approx: float) -> tuple[float, float, float]:
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
    err, lam = _evaluate(ham, effective_one_body(ham), _pack(ham, params)[0])[:2]
    return float(c_approx) * err + lam, err, lam


@one_blas_thread()
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
    space = pair_space(n)
    grad = np.empty_like(theta)
    _evaluate(ham, effective_one_body(ham), theta)[3](_gradient_weights(n, float(c_approx)), grad)
    grad_kappa, grad_xi, grad_factors = _blocks(grad, n)
    d_factors = np.zeros((rank, n, n))
    d_factors[: len(grad_factors)] = space.unpack(grad_factors)
    return float(grad_kappa[0]), grad_xi, d_factors


def _adam_step(theta, grad, m, v, step: int, config: OptimizationConfig) -> None:
    """Adam step ``step`` (from 1) of theta with moments m and v, all in place; grad is scratch."""
    beta1, beta2 = config.adam_beta1, config.adam_beta2
    m *= beta1
    update = np.multiply(grad, 1.0 - beta1)  # the one temporary
    m += update
    v *= beta2
    grad *= grad
    grad *= 1.0 - beta2
    v += grad
    # theta -= lr * (m / bias1) / (sqrt(v / bias2) + eps), in place.
    np.sqrt(np.divide(v, 1.0 - beta2**step, out=grad), out=grad)
    grad += config.adam_epsilon
    np.divide(m, 1.0 - beta1**step, out=update)
    update *= config.learning_rate
    update /= grad
    theta -= update


@one_blas_thread()
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
        config: Hyperparameters. The descent is deterministic and uses no
            randomness.
        free: Parameter blocks to update, a subset of ("kappa", "xi",
            "factors"). Frozen blocks keep their initial values exactly;
            the default frees everything.

    Returns:
        OptimizationReport; its lambda_breakdown and err_final come from
        the evaluation that wrote the trace row at best_iteration, and its
        initial ones from row 0, so each matches its row bit for bit.

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
    space = pair_space(n)
    h_eff = effective_one_body(ham)  # independent of the shift, so computed once
    # theta starts at kappa = 0, xi = 0 and the M nonzero initial factors; the
    # trailing exact-zero ones never move and stay out of it.
    init = initial_double_factorization(ham.g_pairs, rank)
    theta = np.concatenate((np.zeros(1 + n * n), space.pack(init.factors[: init.effective_rank]).ravel()))
    del init
    # best_theta is written in place: a fresh copy per improvement, taken
    # while the evaluation's arrays are alive, raises the process peak RSS.
    grad, best_theta = np.empty_like(theta), np.empty_like(theta)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    # Each frozen block's span of theta, where its gradient is zeroed.
    head = 1 + n * n
    spans = zip(PARAM_BLOCKS, ((0, 1), (1, head), (head, theta.size)))
    frozen = [span for name, span in spans if name not in free]

    def descend(part: slice) -> None:
        """Adam step on theta[part] at this iteration, once its gradient is final."""
        for start, stop in frozen:
            grad[max(start, part.start) : min(stop, part.stop)] = 0.0
        _adam_step(theta[part], grad[part], m[part], v[part], iteration + 1, config)

    trace = []
    best_total = anchor_total = best_lambda = math.inf
    anchor_iter = best_iteration = 0
    stop_reason = "max_iters"

    for iteration in range(config.max_iters + 1):
        err, lam, norms, fill_gradient = _evaluate(ham, h_eff, theta)
        if iteration == 0:
            init_err, init_norms = err, norms
            # The automatic weight of OptimizationConfig, from the initial point.
            c_approx = float(config.c_approx or min(max(1e3 * lam / max(err, 1e-12), 1e2), 1e9))
            weights = _gradient_weights(n, c_approx)
        total = c_approx * err + lam
        if not (math.isfinite(total) and math.isfinite(err) and math.isfinite(lam)):
            raise NonFiniteCostError(iteration)
        trace.append((total, err, lam))

        if err <= init_err + config.err_budget and lam < best_lambda:
            best_lambda, best_err, best_norms = lam, err, norms
            best_theta[...] = theta
            best_iteration = iteration

        best_total = min(best_total, total)
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
        # Gradient and Adam step in one pass over the eigh stack's blocks:
        # each block steps its own slice of theta, as Adam is elementwise.
        fill_gradient(weights, grad, then=descend)
        del fill_gradient  # and with it the evaluation's arrays

    # Free the descent state, then unpack the best factors straight into the
    # zero-padded (R, N, N) output.
    del theta, grad, m, v, fill_gradient
    best_kappa, best_xi, best_factors = _blocks(best_theta, n)
    padded = np.zeros((rank, n, n))
    space.unpack(best_factors, out=padded[: len(best_factors)])
    padded.setflags(write=False)  # handed over to FactorSet without a copy
    init_breakdown = LambdaBreakdown.from_norms(init_norms[:-1], init_norms[-1], rank)

    return OptimizationReport(
        best_params=(float(best_kappa[0]), best_xi, FactorSet(factors=padded)),
        lambda_breakdown=LambdaBreakdown.from_norms(best_norms[:-1], best_norms[-1], rank),
        err_final=best_err,
        total_trace=np.array(trace),
        iterations_run=len(trace) - 1,
        stop_reason=stop_reason,
        best_iteration=best_iteration,
        initial_lambda=init_breakdown.lambda_total,
        initial_err=init_err,
        initial_breakdown=init_breakdown,
        c_approx_used=c_approx,
    )
