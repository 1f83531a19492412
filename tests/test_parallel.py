import concurrent.futures
import os
import sys

import numpy as np
import pytest

from blissdf import _parallel, optimizer
from blissdf.factorization import nuclear_norms, sign_subgradients
from blissdf.optimizer import NonFiniteCostError, OptimizationConfig, optimize

from conftest import random_hamiltonian

CONTROLS = _parallel._blas_thread_controls()
needs_openblas = pytest.mark.skipif(
    CONTROLS is None, reason="numpy's BLAS exposes no known thread-count symbol"
)


def set_cpus(monkeypatch, count):
    """Make the process appear to run on ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def record_pools(monkeypatch) -> list:
    """Record the max_workers of every ThreadPoolExecutor that run_blocks starts."""
    sizes = []

    class Recorded(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorded)
    return sizes


def forbid_pools(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("run_blocks started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)


def loop_subgradients(eigvals, eigvecs):
    """The unpartitioned reference: U sign(D) U^T over 64-matrix chunks."""
    vecs, signs = eigvecs.copy(), np.sign(eigvals)[:, None, :]
    for lo in range(0, len(vecs), 64):
        part = vecs[lo : lo + 64]
        part[...] = (part * signs[lo : lo + 64]) @ part.swapaxes(-1, -2)
    return vecs


class TestRunBlocks:
    @pytest.mark.parametrize("cpus", [1, 2, 5])
    def test_every_block_runs_once_and_first_returns(self, monkeypatch, cpus):
        # More workers than cores and frequent thread switches: a block
        # handed out twice or lost would show in its count.
        set_cpus(monkeypatch, cpus)
        done = np.zeros(500, dtype=int)

        def block(index):
            done[index] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _parallel.one_blas_thread():
                assert _parallel.run_blocks(block, len(done), first=lambda: "first") == "first"
        finally:
            sys.setswitchinterval(interval)
        assert done.tolist() == [1] * len(done)

    def test_a_block_error_reaches_the_caller(self, monkeypatch):
        set_cpus(monkeypatch, 2)

        def block(index):
            if index == 2:
                raise ZeroDivisionError(index)

        with _parallel.one_blas_thread(), pytest.raises(ZeroDivisionError):
            _parallel.run_blocks(block, 3)


class TestPartitionedEigh:
    @needs_openblas
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_matches_one_eigh_call_and_the_loop(self, monkeypatch, cpus):
        # 150 matrices are 3 blocks of 64, 64 and 22. Each matrix's bits
        # must not depend on its block, its thread or the worker count.
        rng = np.random.default_rng(60)
        mats = rng.standard_normal((150, 7, 7))
        mats = mats + mats.transpose(0, 2, 1)
        mats[5] = np.diag(np.arange(7) - 3.0)  # a zero eigenvalue: sign(0) = 0
        want_vals, want_vecs = np.linalg.eigh(mats)
        want_subs = loop_subgradients(want_vals, want_vecs)

        set_cpus(monkeypatch, cpus)
        pools = record_pools(monkeypatch)
        with _parallel.one_blas_thread():
            norms, eigvals, eigvecs = nuclear_norms(mats)
            assert eigvals.tobytes() == want_vals.tobytes()
            assert eigvecs.tobytes() == want_vecs.tobytes()
            assert norms.tobytes() == np.abs(want_vals).sum(axis=-1).tobytes()
            subs = sign_subgradients(eigvals, eigvecs)
        assert subs.tobytes() == want_subs.tobytes()
        assert pools == ([] if cpus == 1 else [1, 1])

    def test_one_block_stack_runs_inline(self, monkeypatch):
        # N=8 at R=2N: a 17-matrix stack is one block, so even with two
        # CPUs and BLAS at one thread no pool is started.
        set_cpus(monkeypatch, 2)
        forbid_pools(monkeypatch)
        ham = random_hamiltonian(8, np.random.default_rng(61), n_electrons=8)
        report = optimize(ham, 16, OptimizationConfig(max_iters=5, rel_tol=0.0))
        assert report.iterations_run == 5


@needs_openblas
class TestBlasPin:
    def blas_threads(self):
        return CONTROLS[1]()

    def test_restored_after_return_and_pinned_from_the_initial_factorization(self, monkeypatch):
        seen = []
        original = optimizer.initial_double_factorization

        def recorded(*args):
            seen.append(self.blas_threads())
            return original(*args)

        monkeypatch.setattr(optimizer, "initial_double_factorization", recorded)
        before = self.blas_threads()
        CONTROLS[0](2)
        try:
            ham = random_hamiltonian(4, np.random.default_rng(62), n_electrons=4)
            optimize(ham, 16, OptimizationConfig(max_iters=3))
            assert seen == [1]
            assert self.blas_threads() == 2
        finally:
            CONTROLS[0](before)

    def test_restored_after_nonfinite_cost(self):
        before = self.blas_threads()
        CONTROLS[0](2)
        try:
            ham = random_hamiltonian(2, np.random.default_rng(32))
            cfg = OptimizationConfig(max_iters=300, learning_rate=1e160, c_approx=1.0)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NonFiniteCostError):
                    optimize(ham, 4, cfg)
            assert self.blas_threads() == 2
        finally:
            CONTROLS[0](before)


def test_without_openblas_symbol_runs_inline(monkeypatch):
    # Another BLAS build: no pin, one worker, and still a valid result.
    monkeypatch.setattr(_parallel, "_OPENBLAS_SYMBOLS", (("no_such_set", "no_such_get"),))
    assert _parallel._blas_thread_controls() is None
    set_cpus(monkeypatch, 2)
    forbid_pools(monkeypatch)
    ham = random_hamiltonian(12, np.random.default_rng(63), n_electrons=12)
    report = optimize(ham, 144, OptimizationConfig(max_iters=5, rel_tol=0.0))  # 79 matrices, 2 blocks
    assert report.iterations_run == 5
    assert np.all(np.isfinite(report.total_trace))
    assert report.lambda_breakdown.lambda_total <= report.initial_lambda
