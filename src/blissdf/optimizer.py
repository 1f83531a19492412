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

lambda depends on kappa only through the one-body norm ||h'_xi + t I||_*,
with h'_xi = h' + (N - n_e) xi and t = kappa + tr xi. With e the ascending
eigenvalues of h'_xi, sum_i |e_i + t| is smallest at t = -m, m the midpoint
of the two middle entries of e (the middle entry at odd N). So optimize
does not step kappa: every evaluation takes t = -m from the eigenvalues it
already has and reports kappa = t - tr xi. total_cost and gradient take
kappa as given, t = kappa + tr xi. One code path serves both; only t
differs.

The descent runs in pair space (hamiltonian.PairSpace) over the M nonzero
initial factors (a zero factor has a zero gradient), and the reported
FactorSet keeps its M packed rows, so nothing in it is N^4 sized. The one
parameter array theta, (M + 1, P) with P = N(N+1)/2, is exactly what Adam
steps: rows 0..M-1 hold the factors' upper-triangle entries in plain A
coordinates and row M holds xi's, each in PairSpace.pack order, so row r of
theta belongs to matrix r of the eigh stack. Each entry's gradient is that
of one matrix entry, so Adam steps as on the full symmetric matrices. With
F = theta[:M] the packed factors, the residual is the P x P matrix
D = (pair block of g + shift) - F^T F, Err = sum_pq c_p c_q D_pq^2 with
multiplicities c = 1 (i = j) or 2 (i < j), and the factor gradient is
-4 c_approx (F * c) D + Lambda_r S_r. A run evaluates each trace row once:
the initial and the best point's Err and lambda breakdown are kept from
their own rows, and the gradient is built from the row's eigh batch after
the stop check, only when a step follows. Descent is Adam on all of theta,
in place.

The descent is one loop over a table of phases (_schedule), each a penalty
weight, a learning rate and the row at which it ends at the latest; _Descent
walks the table with the rest of the loop's state. An explicit c_approx is
one phase at the configured learning rate. c_approx None is a
quadratic-penalty continuation (Nocedal & Wright, Numerical Optimization,
ch. 17): a soft weight lets the shift and the factors move far from the
exact start, then the automatic stiff weight pulls Err back inside
err_budget, at the learning rate and at a tenth of it. A held stiff weight
at a start with Err near zero freezes every factor, since the first Adam
step raises Err far above it. Every phase ends on its stall, the soft one
at row max_iters // 2 at the latest, and the end of the last phase ends
the run. The patience window watches Total until a row after the soft
phase is feasible, and from then on the best feasible lambda, the reported
quantity. Each phase steps from the last row of the one before with a
fresh window and fresh Adam moments. The best feasible row is chosen
across all phases.

optimize, total_cost and gradient each build one workspace (_Objective)
and drop it when they return. It holds what every evaluation reuses: the
views of theta, kappa and its gradient, the (M + 1, N, N) eigh stack, the
pair index maps, h' and the current phase's penalty weight, so an
iteration runs only its arithmetic. The stack is the one array of its
size: the M unpacked factors and h'_xi, then their eigenvectors, then the
subgradients. What a row keeps, its Err and its batch's nuclear norms, is
fresh per evaluation, so later iterations cannot overwrite it.

The three run with BLAS at one thread, in two passes, each one run_blocks
call over the fixed 64-matrix blocks of the eigh stack that
blissdf._parallel cuts and spreads over all available CPUs: the calling
thread and a thread pool kept across calls take them from one shared list.
In evaluate(), each block unpacks its rows of theta, turns xi into h'_xi,
and runs their eigh while the calling thread forms the residual F^T F. In
gradient(), after the stop check, each block forms its subgradients
U sign(D) U^T (_sign_subgradients), then for its own factor rows the Err
term (F_b * c) D and the scaled subgradients in its own array, and calls
then(part, grad) with it and its eigh block's rows of theta: in optimize,
the Adam step on those rows of theta, m and v, so no theta-sized gradient
exists; in the public gradient, a copy into the theta-sized array whose
rows it returns. The last block holds h'_xi, so it keeps kappa's gradient
d_t on the workspace and forms xi's row packed:
2 c_approx sum_k D_(ij),(kk) + (N - n_e) sym(S_M) + d_t I. Adam is
elementwise and the blocks do not depend on the core count, so no bit does.
A row block of (F * c) D need not be bit equal to the same rows of one
whole gemm, so the block size is part of what fixes the bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from blissdf._parallel import one_blas_thread, run_blocks
from blissdf.factorization import (
    FactorSet,
    LambdaBreakdown,
    _checked,
    eigenvalue_norms,
    initial_double_factorization,
    lambda_parts,
)
from blissdf.hamiltonian import (
    Hamiltonian,
    _as_int,
    _as_real,
    _average,
    _symmetric_part,
    effective_one_body,
    pair_space,
)

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015 defaults).
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPSILON = 0.9, 0.999, 1e-8


# The real fields' rules, checked in this order after __post_init__ has read every field.
_RULES = (
    ("c_approx", lambda x: x is None or x > 0, "be positive"),
    ("learning_rate", lambda x: x > 0, "be positive"),
    ("rel_tol", lambda x: x >= 0, "be nonnegative"),
    ("err_budget", lambda x: x >= 0, "be nonnegative"),
)
_REAL_FIELDS = tuple(name for name, _, _ in _RULES)


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

    A positive ``c_approx`` holds that penalty weight for the whole run at
    ``learning_rate``, as one phase. None, the default, selects the penalty
    schedule of optimize, three phases: a soft weight, 10 * (initial lambda)
    / ||G||^2 with ||G||^2 the Err of zero factors, until its stall or
    iteration max_iters // 2; then the automatic weight 1e3 * (initial
    lambda) / max(initial Err, 1e-12), clamped to [1e2, 1e9], at
    learning_rate until its stall, and at learning_rate / 10 until its next.
    Without a two-body part (||G||^2 = 0) it is the automatic weight alone,
    as one phase. Every run stops at the latest after max_iters iterations.
    ``err_budget`` is not enforced during descent; it defines which iterates
    count as feasible, for the schedule's stop and for the best one selected
    afterwards. hamiltonian._as_real reads the real fields, _as_int reads
    max_iters and patience in [1, inf); each is stored as a Python number,
    or ConfigError names it: "max_iters must be in [1, inf), got 0".
    Adam's constants are fixed: beta1 = 0.9, beta2 = 0.999 and epsilon = 1e-8.
    """

    c_approx: float | None = None
    max_iters: int = 10000
    learning_rate: float = 1e-3
    rel_tol: float = 1e-7
    patience: int = 200
    err_budget: float = 1e-6

    def __post_init__(self):
        for name in _REAL_FIELDS:  # as Python numbers, so that to_dict() stays JSON
            value = getattr(self, name)
            if value is not None or name != "c_approx":
                object.__setattr__(self, name, _as_real(name, value, error=ConfigError))
        for name in ("max_iters", "patience"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name), 1, error=ConfigError))
        for name, valid, rule in _RULES:
            value = getattr(self, name)
            if not valid(value):
                raise ConfigError(f"{name} must {rule}, got {value}")

    @classmethod
    def from_dict(cls, data: dict, _source: str = "") -> "OptimizationConfig":
        """Build a config from a JSON-style dict; anything else, or an unknown key, is a ConfigError."""
        if not isinstance(data, dict):
            raise ConfigError(f"{_source}config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; valid keys are {sorted(known)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str | Path) -> "OptimizationConfig":
        """Load a config from a JSON file."""
        try:
            data = json.loads(Path(path).read_bytes())
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        return cls.from_dict(data, f"{path}: ")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class OptimizationReport:
    """Outcome of one optimization run.

    ``best_params`` is the feasible iterate (Err within err_budget of the
    initial Err) with the smallest lambda; the initial point itself is always
    feasible, so lambda never regresses past row 0. ``total_trace`` has one
    row (total, err, lambda) per evaluated iterate, row 0 being the initial
    factors and xi = 0 at the closed-form kappa, so its lambda is at most
    the unshifted one. ``initial_lambda``, ``initial_err`` and
    ``initial_breakdown`` are the unshifted double factorization (XDF,
    kappa = 0), from row 0's eigenvalues before the shift; the automatic
    weights are computed from them. ``phases`` holds (c_approx,
    learning_rate, first_iteration) for each phase the run entered, in
    order: trace rows from first_iteration to the next phase's are weighed
    with its c_approx and were reached by its steps (row 0 belongs to the
    first phase). ``stop_reason`` is "converged" when the run ends on a
    stall (see optimize), else "max_iters".
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
    phases: tuple[tuple[float, float, int], ...]

    @property
    def c_approx_used(self) -> float:
        """The last phase's penalty weight: the configured c_approx, or the automatic one."""
        return self.phases[-1][0]


def _pack(ham: Hamiltonian, params) -> tuple[np.ndarray, float]:
    """Check (kappa, xi, factor_set) and symmetrize xi; return (theta, kappa).

    theta is (M + 1, P): the FactorSet's packed rows, then xi packed as a
    factor (PairSpace.pack).
    """
    kappa, xi, factor_set = params
    n = ham.n_orbitals
    xi = _symmetric_part(_as_real("xi", xi, (n, n)))
    packed, kappa = _checked(factor_set, n).packed, float(_as_real("kappa", kappa))
    return np.vstack((packed, pair_space(n).pack(xi))), kappa


def _sign_subgradients(eigvals: np.ndarray, eigvecs: np.ndarray) -> None:
    """Write each matrix's U sign(D) U^T (sign(0) = 0) over its eigenvectors U, a (K, N, N) stack.

    One batched product per 32 matrices, so each of its two temporaries
    holds at most 32 matrices; a matrix's product is one gemm either way.
    """
    for start in range(0, len(eigvecs), 32):
        vecs = eigvecs[start : start + 32]
        vecs[...] = (vecs * np.sign(eigvals[start : start + 32])[..., None, :]) @ vecs.swapaxes(-1, -2)


class _Objective:
    """One call's workspace for Total = c_approx * Err + lambda at theta (see the module docstring)."""

    def __init__(self, ham: Hamiltonian, theta: np.ndarray, kappa: float | None = None):
        """With ``kappa`` None, every evaluation takes t = -m and keeps kappa = t - tr xi."""
        n = ham.n_orbitals
        self.space, self.n_shift, self.g_pairs = pair_space(n), n - ham.n_electrons, ham.g_pairs
        self.h_eff = effective_one_body(ham)
        self.theta, self.factors, self.xi = theta, theta[:-1], theta[-1]
        self.rank, self.closed_form, self.kappa = len(self.factors), kappa is None, kappa
        self.stack, self.batch = np.empty((self.rank + 1, n, n)), None

    def weigh(self, c_approx: float) -> None:
        """Fix the penalty weight of gradient(): c_approx and the residual's -4 c_approx c_p."""
        self.c_approx, self.err_scale = c_approx, -4.0 * c_approx * self.space.mult

    def evaluate(self) -> tuple[float, float, np.ndarray, float]:
        """(err, lambda, norms, unshifted) at theta; keeps the batch for gradient().

        norms holds the M factors' nuclear norms, then ||h'_xi + t I||_*;
        unshifted is ||h'_xi||_*, the one-body norm at t = 0.
        """
        space, rank, xi, stack = self.space, self.rank, self.xi, self.stack
        eigvals = np.empty(stack.shape[:-1])

        def block(part: slice) -> None:  # the eigenvectors overwrite the unpacked rows of theta
            space.unpack(self.theta[part], out=stack[part])
            if part.stop > rank:  # h'_xi = h' + (N - n_e) xi
                stack[rank] *= self.n_shift
                stack[rank] += self.h_eff
            eigvals[part], stack[part] = np.linalg.eigh(stack[part])

        def residual():  # the P-sized residual, on this thread beside the eigh blocks
            return space.residual(space.shifted(self.g_pairs, xi), self.factors)

        err, diff = run_blocks(block, rank + 1, residual)
        norms = eigenvalue_norms(eigvals)
        unshifted, one_body = norms.item(rank), eigvals[rank]
        trace_xi = float(np.add.reduce(xi[space.diagonal]))
        if self.closed_form:  # t = -m, from the ascending eigenvalues of h'_xi
            n = space.n
            t = -0.5 * (one_body.item((n - 1) // 2) + one_body.item(n // 2))
            self.kappa = t - trace_xi
        else:
            t = self.kappa + trace_xi
        one_body += t  # the eigenvalues of h'_xi + t I
        norms[rank] = eigenvalue_norms(one_body)
        self.batch = diff, norms, eigvals
        return err, lambda_parts(norms[:rank], norms[rank])[0], norms, unshifted

    def gradient(self, then=lambda part, grad: None) -> None:
        """Form the gradient at the last evaluate()'s theta once, block by block, from its batch.

        Each block calls ``then(part, grad)`` on its thread with its own
        array ``grad``, the gradient of the rows ``part`` of theta, which
        are the rows of its eigh block.
        """
        diff, norms, eigvals = self.batch
        self.batch = None  # the evaluation's arrays go with this call
        space, rank, factors, stack = self.space, self.rank, self.factors, self.stack

        def block(part: slice) -> None:
            _sign_subgradients(eigvals[part], stack[part])
            # Per entry of A_r: -4 c_approx sum_q c_q F_rq D_qp + Lambda_r (S_r)_p.
            rows = slice(part.start, min(part.stop, rank))
            grad = np.empty((part.stop - part.start, factors.shape[1]))
            out = grad[: rows.stop - rows.start]
            work = np.multiply(factors[rows], self.err_scale)
            np.matmul(work, diff, out)
            space.pack(stack[rows], out=work)
            work *= norms[rows, None]
            out += work
            del work  # before then(), which may take its own scratch
            if part.stop > rank:  # the last block holds h'_xi; xi's row is its last
                # d lambda / d t = tr U sign(D + t) U^T = sum_i sign(e_i + t), exactly; 0 at t = -m.
                d_t = self.d_kappa = float(np.add.reduce(np.sign(eigvals[rank])))
                # d Err / d xi is 2 sum_k D_(ij),(kk); of the three terms only S_M may be asymmetric, by rounding.
                xi_row = np.multiply(space.diagonal_sum(diff), 2.0 * self.c_approx, out=grad[-1])
                xi_row += self.n_shift * _average(space.pack(stack[rank]), space.pack(stack[rank].T))
                xi_row[space.diagonal] += d_t  # d t / d xi = I, for t = kappa + tr xi
            then(part, grad)

        run_blocks(block, rank + 1)


@one_blas_thread()
def total_cost(ham: Hamiltonian, params, c_approx: float) -> tuple[float, float, float]:
    """Evaluate the penalized objective at (kappa, xi, factor_set).

    Args:
        ham: Unshifted Hamiltonian.
        params: Triple (kappa, xi, factor_set); xi is symmetrized on entry.
        c_approx: Penalty weight on the factorization residual.

    Returns:
        (total, err, lambda) with total = c_approx * err + lambda, over the
        FactorSet's M packed rows.

    Raises, before any eigh:
        TypeError: If factor_set is not a FactorSet (see FactorSet(packed, rank)).
        ValueError: If hamiltonian._as_real refuses kappa, c_approx or xi
            as N x N, or the factors' N is not ham's.
    """
    c_approx = float(_as_real("c_approx", c_approx))
    err, lam = _Objective(ham, *_pack(ham, params)).evaluate()[:2]
    return c_approx * err + lam, err, lam


@one_blas_thread()
def gradient(ham: Hamiltonian, params, c_approx: float):
    """Analytic gradient of total_cost in all three parameter blocks; it raises as total_cost.

    Returns:
        (d_kappa, d_xi, d_factors) at total_cost's params, with d_xi
        symmetric and d_factors the (M, P) rows of the FactorSet's packed
        ones. d_factors[r, p] is the derivative by entry (a, b) of A_r
        alone, p the pair (a, b); packed entry p sets (a, b) and (b, a), so
        the derivative by it is c_p d_factors[r, p] (c_p = 1 if a = b, else
        2). At eigenvalue crossings of the nuclear norms the sign(0) = 0
        subgradient is returned.
    """
    c_approx = float(_as_real("c_approx", c_approx))
    objective = _Objective(ham, *_pack(ham, params))
    objective.weigh(c_approx)
    objective.evaluate()
    grad = np.empty_like(objective.theta)
    objective.gradient(then=lambda part, block: grad.__setitem__(part, block))
    return objective.d_kappa, objective.space.unpack(grad[-1]), grad[:-1]


@dataclass(frozen=True)
class _Phase:
    """One phase of the descent: a penalty weight, a learning rate and the row at which it ends at the latest."""

    c_approx: float
    learning_rate: float
    last_row: float = math.inf


def _adam_step(theta, grad, m, v, step: int, phase: _Phase) -> None:
    """Adam step ``step`` (from 1) of theta with moments m and v, all in place; grad is scratch."""
    beta1, beta2 = _ADAM_BETA1, _ADAM_BETA2
    m *= beta1
    update = np.multiply(grad, 1.0 - beta1)  # the one temporary
    m += update
    v *= beta2
    grad *= grad
    grad *= 1.0 - beta2
    v += grad
    # theta -= lr * (m / bias1) / (sqrt(v / bias2) + eps), in place.
    np.sqrt(np.divide(v, 1.0 - beta2**step, out=grad), out=grad)
    grad += _ADAM_EPSILON
    np.divide(m, 1.0 - beta1**step, out=update)
    update *= phase.learning_rate
    update /= grad
    theta -= update


def _schedule(config: OptimizationConfig, init_lambda: float, init_err: float, zero_err: float) -> tuple[_Phase, ...]:
    """Every phase the run may enter, in order; each ends on its stall, the soft one at max_iters // 2 at the latest.

    ``zero_err`` is ||G||^2, the Err of zero factors. An explicit c_approx
    is one phase, as is the automatic stiff weight when there is no
    two-body part to weigh softly. Otherwise the soft weight comes first,
    then the stiff weight at the learning rate and at a tenth of it.
    """
    lr = config.learning_rate
    if config.c_approx is not None:
        return (_Phase(float(config.c_approx), lr),)
    stiff = min(max(1e3 * init_lambda / max(init_err, 1e-12), 1e2), 1e9)
    if zero_err == 0.0:
        return (_Phase(stiff, lr),)
    soft = _Phase(10.0 * init_lambda / zero_err, lr, last_row=config.max_iters // 2)
    return soft, _Phase(stiff, lr), _Phase(stiff, lr / 10)


class _Descent:
    """optimize's state between rows: theta with Adam's moments, the phases, the patience window and the best row.

    record() takes each evaluated row in turn and walks the schedule, the
    _schedule table made at row 0: when a phase ends, on its stall or at
    its last_row, it enters the next phase from that row, and the end of
    the last phase, or row max_iters, stops the run. step() is the Adam
    step of the row's gradient. No array is allocated per row:
    best_theta is written in place, and a row keeps its own evaluation's
    norms.
    """

    def __init__(self, ham: Hamiltonian, rank: int, config: OptimizationConfig):
        n = ham.n_orbitals
        space = pair_space(n)
        self.zero_err = space.residual(ham.g_pairs.copy(), np.empty((0, len(space.mult))))[0]  # ||G||^2, F = 0
        # theta starts at the M nonzero initial factors and xi = 0; the trailing
        # exact-zero factors never move and stay out of it.
        packed = initial_double_factorization(ham.g_pairs, rank).packed
        theta = np.vstack((packed, np.zeros(packed.shape[1])))
        self.rank, self.config, self.theta = rank, config, theta
        self.objective = _Objective(ham, theta)
        # best_theta is written in place: a fresh copy per improvement, taken
        # while the evaluation's arrays are alive, raises the process peak RSS.
        self.best_theta = np.empty_like(theta)
        self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)
        self.trace, self.phases = [], []  # phases: (c_approx, learning_rate, first row) as entered
        self.best_lambda, self.best_iteration = math.inf, 0
        self.watch_lambda = False  # the window watches Total until a row after the soft phase is feasible

    def _enter(self, phase: _Phase, row: int) -> None:
        """Step from this row with ``phase``: zero Adam moments, step count 1 and a fresh window."""
        self.phases.append((phase.c_approx, phase.learning_rate, row + 1 if self.phases else 0))
        self.phase, self.start = phase, row
        self.objective.weigh(phase.c_approx)
        self.m.fill(0.0)
        self.v.fill(0.0)
        self._restart_window(row)

    def _restart_window(self, row: int) -> None:
        # A new weight's Totals are unknown until its first row; the best feasible lambda is known now.
        self.low = self.anchor = self.best_lambda if self.watch_lambda else math.inf
        self.anchor_row = row

    def record(self, err: float, lam: float, norms: np.ndarray, unshifted: float) -> bool:
        """Keep the next trace row, evaluate()'s at theta, and enter the next phase on its end; True to stop."""
        config, row = self.config, len(self.trace)
        if row == 0:
            self.init_err, self.init_breakdown = err, LambdaBreakdown.from_norms(norms[:-1], unshifted)
            # lambda0 and Err0 set the schedule's weights.
            self.schedule = _schedule(config, self.init_breakdown.lambda_total, err, self.zero_err)
            self._enter(self.schedule[0], row)
        total = self.phase.c_approx * err + lam
        if not (math.isfinite(total) and math.isfinite(err) and math.isfinite(lam)):
            raise NonFiniteCostError(row)
        self.trace.append((total, err, lam))

        feasible = err <= self.init_err + config.err_budget
        if feasible and lam < self.best_lambda:
            self.best_lambda, self.best_err, self.best_norms = lam, err, norms
            self.best_kappa, self.best_iteration = self.objective.kappa, row
            self.best_theta[...] = self.theta
        if feasible and len(self.phases) > 1 and not self.watch_lambda:
            self.watch_lambda = True
            self._restart_window(row)

        self.low = min(self.low, self.best_lambda if self.watch_lambda else total)
        if not math.isfinite(self.anchor) or (
            self.anchor - self.low >= config.rel_tol * max(abs(self.anchor), 1.0)
        ):
            self.anchor, self.anchor_row = self.low, row
        stalled = row - self.anchor_row >= config.patience
        ended = stalled or row == self.phase.last_row
        if ended and len(self.phases) == len(self.schedule):
            self.stop_reason = "converged"
        elif row == config.max_iters:
            self.stop_reason = "max_iters"
        else:
            if ended:
                self._enter(self.schedule[len(self.phases)], row)
            return False
        return True

    def step(self, part: slice, grad: np.ndarray) -> None:
        """Adam step on theta[part] from the last row with its final gradient ``grad``, spent here."""
        count = len(self.trace) - self.start  # from 1 in each phase
        _adam_step(self.theta[part], grad, self.m[part], self.v[part], count, self.phase)

    def report(self) -> OptimizationReport:
        best, norms = self.best_theta, self.best_norms
        # The factors keep their rows of best_theta; unpack gives xi its own array.
        best_xi = self.objective.space.unpack(best[-1])
        return OptimizationReport(
            best_params=(self.best_kappa, best_xi, FactorSet(best[:-1], self.rank)),
            lambda_breakdown=LambdaBreakdown.from_norms(norms[:-1], norms[-1]),
            err_final=self.best_err,
            total_trace=np.array(self.trace),
            iterations_run=len(self.trace) - 1,
            stop_reason=self.stop_reason,
            best_iteration=self.best_iteration,
            initial_lambda=self.init_breakdown.lambda_total,
            initial_err=self.init_err,
            initial_breakdown=self.init_breakdown,
            phases=tuple(self.phases),
        )


@one_blas_thread()
def optimize(
    ham: Hamiltonian,
    rank: int,
    config: OptimizationConfig,
) -> OptimizationReport:
    """Minimize Total over the symmetry shift and the factor matrices.

    Starts from xi = 0 and the eigendecomposition-based double factorization
    of the unshifted two-body tensor, then runs Adam on xi and the factors
    through the phases of the penalty schedule (see OptimizationConfig and
    the module docstring); an explicit ``config.c_approx`` is one phase.
    kappa is not stepped: each evaluation sets it to its closed form. A
    stall is ``patience`` iterations in which the watched value does not
    improve on its window's anchor by rel_tol * max(|anchor|, 1): Total, or
    in the schedule, once a row after the soft phase is feasible, the best
    feasible lambda. Each phase ends on its stall, the soft one at
    iteration max_iters // 2 at the latest; the next phase starts with
    fresh Adam moments and step count, and the end of the last one ends
    the run. The descent stops at the latest after max_iters iterations.

    The returned parameters are the iterate with the smallest lambda among
    those whose Err stays within ``config.err_budget`` of the initial Err,
    over all phases. The initial point is included, so the reported lambda
    never exceeds the initialization's.

    Args:
        ham: Hamiltonian to shift and factorize.
        rank: Number of factors R, an integer 1 <= R <= N^2; at most
            N(N+1)/2 of them are nonzero, and the rest stay exact zeros.
        config: Hyperparameters. The descent is deterministic and uses no
            randomness.

    Returns:
        OptimizationReport; its lambda_breakdown and err_final come from
        the evaluation that wrote the trace row at best_iteration, so they
        match that row bit for bit. Its initial ones are the unshifted
        double factorization, from row 0's eigenvalues before the shift.

    Raises:
        NonFiniteCostError: If the cost turns NaN or infinite, with no warning first.
        IndefiniteTensorError: Propagated from the initialization when the
            two-body tensor is not factorizable.
        TypeError: If config is not an OptimizationConfig, before any eigh.
        ValueError: On a non-integer or out-of-range rank, before any eigh.
    """
    if not isinstance(config, OptimizationConfig):
        raise TypeError(f"config must be an OptimizationConfig, got {type(config).__name__}")
    descent = _Descent(ham, rank, config)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging descent shows as NonFiniteCostError
        while not descent.record(*descent.objective.evaluate()):  # at the latest at row max_iters
            descent.objective.gradient(then=descent.step)
    return descent.report()
