import json
import os
import subprocess
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from blissdf import _parallel, factorization, optimizer, write_integrals
from blissdf.factorization import frobenius_error, initial_double_factorization, lambda_df, nuclear_norms
from blissdf.hamiltonian import effective_one_body
from blissdf.optimizer import NonFiniteCostError, OptimizationConfig, _sign_subgradients, optimize

from conftest import random_hamiltonian

CONTROLS = _parallel._blas_thread_controls()
needs_openblas = pytest.mark.skipif(
    CONTROLS is None, reason="numpy's BLAS exposes no known thread-count symbol"
)


def set_cpus(monkeypatch, count):
    """Make the process appear to run on ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def record_block_threads(monkeypatch, inline=False) -> list:
    """Record each run_blocks call of the factorization kernels and the optimizer.

    Each entry is (calling module, idents of the threads that ran its blocks,
    one per block). With ``inline``, a block that runs off its caller's thread fails.
    """
    calls = []
    original = _parallel.run_blocks

    def wrap(module):
        def recorded(fn, length, first=None):
            caller, threads = threading.get_ident(), []
            calls.append((module, threads))

            def block(part):
                if inline:
                    assert threading.get_ident() == caller, "run_blocks ran a block on another thread"
                threads.append(threading.get_ident())
                fn(part)

            return original(block, length, first)

        monkeypatch.setattr(module, "run_blocks", recorded)

    wrap(factorization)
    wrap(optimizer)
    return calls


def forbid_threads(monkeypatch) -> list:
    """record_block_threads, failing any block that runs off its caller's thread."""
    return record_block_threads(monkeypatch, inline=True)


def optimizer_blocks(calls) -> list:
    """Blocks per run_blocks call of the optimizer: one evaluate and one gradient per step."""
    return [len(threads) for module, threads in calls if module is optimizer]


def pool_threads() -> set:
    """Idents of the live threads of run_blocks' executors."""
    return {t.ident for t in threading.enumerate() if t.name.startswith("blissdf-block")}


def loop_subgradients(eigvals, eigvecs):
    """The unpartitioned reference: U sign(D) U^T over 64-matrix chunks."""
    vecs, signs = eigvecs.copy(), np.sign(eigvals)[:, None, :]
    for lo in range(0, len(vecs), 64):
        part = vecs[lo : lo + 64]
        part[...] = (part * signs[lo : lo + 64]) @ part.swapaxes(-1, -2)
    return vecs


class TestRunBlocks:
    @pytest.mark.parametrize(
        "length, starts",
        [(0, []), (1, [0]), (64, [0]), (65, [0, 64]), (150, [0, 64, 128])],
    )
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_fixed_slices_cover_every_item_once(self, monkeypatch, cpus, length, starts):
        set_cpus(monkeypatch, cpus)
        parts, done = [], np.zeros(length, dtype=int)

        def block(part):
            parts.append(part)
            done[part] += 1

        with _parallel.one_blas_thread():
            _parallel.run_blocks(block, length)
        want = [slice(start, min(start + 64, length)) for start in starts]
        assert sorted(parts, key=lambda part: part.start) == want
        assert done.tolist() == [1] * length

    @pytest.mark.parametrize("cpus", [1, 2, 5])
    def test_every_block_runs_once_and_first_returns(self, monkeypatch, cpus):
        # More workers than cores and frequent thread switches: a block
        # handed out twice or lost would show in its items' counts.
        set_cpus(monkeypatch, cpus)
        done = np.zeros(500 * 64, dtype=int)

        def block(part):
            done[part] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with _parallel.one_blas_thread():
                assert _parallel.run_blocks(block, len(done), first=lambda: "first") == "first"
        finally:
            sys.setswitchinterval(interval)
        assert done.tolist() == [1] * len(done)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_block_error_reaches_the_caller(self, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)

        def block(part):
            if part.start == 128:
                raise ZeroDivisionError(part)

        with _parallel.one_blas_thread(), pytest.raises(ZeroDivisionError):
            _parallel.run_blocks(block, 150)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_blocks_run_under_the_callers_error_state(self, monkeypatch, cpus):
        # numpy's error state is per thread; a pool job must not run under its thread's own.
        set_cpus(monkeypatch, cpus)
        states = []
        with _parallel.one_blas_thread(), np.errstate(over="raise", divide="ignore", invalid="warn", under="ignore"):
            want = np.geterr()
            _parallel.run_blocks(lambda part: states.append(np.geterr()), 150)
        assert states == [want] * 3

    def test_one_cpu_first_error_starts_no_block(self, monkeypatch):
        set_cpus(monkeypatch, 1)
        started = []

        def first():
            raise KeyError("first")

        with _parallel.one_blas_thread(), pytest.raises(KeyError, match="first"):
            _parallel.run_blocks(started.append, 5 * 64, first=first)
        assert started == []

    def test_one_cpu_runs_every_block_on_the_calling_thread(self, monkeypatch):
        set_cpus(monkeypatch, 1)
        threads = []
        with _parallel.one_blas_thread():
            _parallel.run_blocks(lambda part: threads.append(threading.get_ident()), 5 * 64)
        assert threads == [threading.get_ident()] * 5

    @needs_openblas
    def test_split_calls_share_one_pool(self, monkeypatch):
        # Each call's two blocks wait for each other, so two threads run
        # them: the caller and a pool thread that outlives the call.
        set_cpus(monkeypatch, 2)

        def split_call():
            barrier, threads = threading.Barrier(2, timeout=10), set()

            def block(part):
                threads.add(threading.get_ident())
                barrier.wait()

            with _parallel.one_blas_thread():
                _parallel.run_blocks(block, 65)
            return threads

        split_call()
        alive = {thread.ident for thread in threading.enumerate()}
        for _ in range(2):
            threads = split_call()
            assert {thread.ident for thread in threading.enumerate()} == alive
            assert threads - {threading.get_ident()} <= pool_threads()
            assert len(threads) == 2

    @needs_openblas
    def test_a_queued_job_keeps_no_block_data(self, monkeypatch):
        # The pool's one thread is busy, so the caller runs both blocks and
        # returns while its cancelled job is still queued. That job must not
        # keep the blocks, and with them their arrays, alive.
        set_cpus(monkeypatch, 2)
        started, release = threading.Event(), threading.Event()
        busy = _parallel._executor(1).submit(lambda: (started.set(), release.wait(10)))
        try:
            assert started.wait(10)

            class Data:
                pass

            data = Data()
            alive = weakref.ref(data)

            def block(part, data=data):
                pass

            with _parallel.one_blas_thread():
                _parallel.run_blocks(block, 65)
            assert not busy.done()  # the caller did not wait for its queued job
            del block, data
            assert alive() is None
        finally:
            release.set()

    @needs_openblas
    def test_first_error_waits_for_the_running_block(self, monkeypatch):
        # first raises while a pool thread is inside a block: the error
        # reaches the caller only after that block has finished, and no
        # block starts after it.
        set_cpus(monkeypatch, 2)
        started, finished, running = [], [], threading.Event()

        def block(part):
            started.append(part.start)
            running.set()
            time.sleep(0.2)
            finished.append(part.start)

        def first():
            assert running.wait(10)
            raise KeyError("first")

        with _parallel.one_blas_thread(), pytest.raises(KeyError):
            _parallel.run_blocks(block, 20 * 64, first=first)
        assert sorted(finished) == sorted(started)
        assert 0 < len(started) < 20

    @needs_openblas
    def test_block_error_waits_for_the_other_block(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        finished, running = [], threading.Event()

        def block(part):
            if part.start == 0:
                assert running.wait(10)
                raise ZeroDivisionError(part)
            running.set()
            time.sleep(0.2)
            finished.append(part.start)

        with _parallel.one_blas_thread(), pytest.raises(ZeroDivisionError):
            _parallel.run_blocks(block, 65)
        assert finished == [64]


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
        calls = record_block_threads(monkeypatch)
        with _parallel.one_blas_thread():
            assert nuclear_norms(mats).tobytes() == np.abs(want_vals).sum(axis=-1).tobytes()
            eigvals, subs = np.linalg.eigh(mats)
            _sign_subgradients(eigvals, subs)
        assert subs.tobytes() == want_subs.tobytes()
        # One call of three blocks, on the caller and at most cpus - 1 pool threads.
        [(module, threads)] = calls
        assert module is factorization and len(threads) == 3
        assert threading.get_ident() in threads
        assert len(set(threads)) <= cpus
        assert set(threads) - {threading.get_ident()} <= pool_threads()

    def test_one_block_stack_runs_inline(self, monkeypatch):
        # N=8 at R=2N: a 17-matrix stack is one block, so even with two
        # CPUs and BLAS at one thread every block runs on the caller.
        set_cpus(monkeypatch, 2)
        calls = forbid_threads(monkeypatch)
        ham = random_hamiltonian(8, np.random.default_rng(61), n_electrons=8)
        report = optimize(ham, 16, OptimizationConfig(max_iters=5, rel_tol=0.0))
        assert report.iterations_run == 5
        # Two calls per step and one for the last evaluation, each one block.
        assert optimizer_blocks(calls) == [1] * (2 * report.iterations_run + 1)


class TestPartitionedStep:
    """N=12 at R=N^2: M = 78 factors, so the fused gradient and Adam step runs in two blocks."""

    @pytest.fixture(scope="class")
    def ham(self):
        return random_hamiltonian(12, np.random.default_rng(64), n_electrons=12)

    def test_adam_steps_every_entry_of_theta_once_per_step(self, monkeypatch, ham):
        # theta is the M packed factor rows then xi's row, and nothing else: per
        # step the blocks' Adam slices must tile it exactly, xi's last entry
        # included, each slice the rows of its eigh block. One explicit weight,
        # so Adam's step count runs once through the run.
        steps, rows = {}, {}
        original = optimizer._adam_step

        def recorded(theta, grad, m, v, step, config):
            steps.setdefault(step, []).append((theta.ctypes.data, theta.size))
            first = (theta.ctypes.data - theta.base.ctypes.data) // theta.base[0].nbytes
            rows.setdefault(step, []).append((first, first + len(theta), theta.base.shape))
            original(theta, grad, m, v, step, config)

        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(optimizer, "_adam_step", recorded)
        report = optimize(ham, 144, OptimizationConfig(c_approx=1e4, max_iters=3, rel_tol=0.0))
        rank = initial_double_factorization(ham.g_pairs, 144).effective_rank
        assert sorted(steps) == list(range(1, report.iterations_run + 1))
        for slices in steps.values():
            slices.sort()
            assert len(slices) == 2
            assert all(a + 8 * size == b for (a, size), (b, _) in zip(slices, slices[1:]))
            assert sum(size for _, size in slices) == (rank + 1) * 78  # (M + 1) P, P = 78 at N = 12
        for blocks in rows.values():  # the eigh blocks: 64 factors, then the other factors and h'_xi
            assert sorted(blocks) == [(0, 64, (rank + 1, 78)), (64, rank + 1, (rank + 1, 78))]

    def test_bits_do_not_depend_on_the_cpu_count(self, monkeypatch, ham):
        config = OptimizationConfig(max_iters=6, rel_tol=0.0, learning_rate=1e-2, err_budget=1e9)
        runs = []
        for cpus in (1, 2, 5):
            set_cpus(monkeypatch, cpus)
            report = optimize(ham, 144, config)
            kappa, xi, factor_set = report.best_params
            runs.append((report.total_trace.tobytes(), kappa, xi.tobytes(), factor_set.factors.tobytes()))
        assert report.best_iteration > 0
        assert runs[0] == runs[1] == runs[2]

    def test_overflow_warnings_do_not_depend_on_the_cpu_count(self, monkeypatch):
        # A descent that overflows in the Adam step of both of its blocks
        # (79 rows), with warnings as errors: the step on a pool thread runs
        # under optimize's np.errstate, as on the calling thread, so the run
        # returns at either CPU count, with the same bits.
        ham = random_hamiltonian(12, np.random.default_rng(5), n_electrons=12)
        config = OptimizationConfig(max_iters=50, learning_rate=1e60, c_approx=1.0)
        traces = []
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                traces.append(optimize(ham, 144, config).total_trace.tobytes())
        assert traces[0] == traces[1]

    def test_row_norms_match_lambda_df_across_blocks(self, monkeypatch, ham):
        # The optimizer's eigh blocks hold 64 and 15 matrices, h' last;
        # nuclear_norms cuts the 78 factors into 64 and 14. A matrix's
        # norm must not depend on its block.
        set_cpus(monkeypatch, 2)
        calls = record_block_threads(monkeypatch)
        config = OptimizationConfig(max_iters=6, rel_tol=0.0, learning_rate=1e-2, err_budget=1e9)
        report = optimize(ham, 144, config)
        assert optimizer_blocks(calls) == [2] * (2 * report.iterations_run + 1)
        assert report.best_iteration > 0
        initial = lambda_df(initial_double_factorization(ham.g_pairs, 144), effective_one_body(ham))
        got = report.initial_breakdown
        assert (got.lambda_total, got.two_body_part, got.one_body_part) == (
            initial.lambda_total,
            initial.two_body_part,
            initial.one_body_part,
        )
        assert got.per_factor.tobytes() == initial.per_factor.tobytes()
        best = lambda_df(report.best_params[2], effective_one_body(ham))
        assert report.lambda_breakdown.per_factor.tobytes() == best.per_factor.tobytes()


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

    @pytest.fixture
    def at_two_threads(self):
        before = self.blas_threads()
        CONTROLS[0](2)
        yield
        CONTROLS[0](before)

    def test_kernels_give_the_bits_of_one_thread(self, at_two_threads):
        # From N = 20 (P = 210) up, an unpinned pair-space eigh and F^T F
        # change their last bits with the BLAS thread count; a full-rank
        # Err of about 1e-22 shows F^T F's.
        ham = random_hamiltonian(20, np.random.default_rng(67), n_electrons=20)
        full = initial_double_factorization(ham.g_pairs, 400)
        runs = []
        for threads in (1, 2):
            CONTROLS[0](threads)
            factor_set = initial_double_factorization(ham.g_pairs, 400)
            runs.append((factor_set.packed.tobytes(), frobenius_error(ham.g_pairs, full)))
            assert self.blas_threads() == threads
        assert runs[0] == runs[1]

    def test_library_lambda_is_the_optimizer_start(self, at_two_threads):
        # The README's library example: its second line repeats the first bit for bit.
        ham = random_hamiltonian(20, np.random.default_rng(68), n_electrons=20)
        start = lambda_df(initial_double_factorization(ham.g_pairs, 400), effective_one_body(ham))
        report = optimize(ham, 400, OptimizationConfig(max_iters=1))
        assert start.lambda_total == report.initial_breakdown.lambda_total

    def test_cli_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        inp, cfg = tmp_path / "in.fcidump", tmp_path / "config.json"
        write_integrals(inp, random_hamiltonian(20, np.random.default_rng(69), n_electrons=20))
        cfg.write_text(json.dumps({"max_iters": 3, "rel_tol": 0.0}))
        src = os.path.dirname(os.path.dirname(_parallel.__file__))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            out = tmp_path / threads
            for command, extra in (("factorize", []), ("optimize", ["--config", str(cfg)])):
                argv = [command, "--input", str(inp), "--rank", "400", "--out", str(out / command), *extra]
                proc = subprocess.run(
                    [sys.executable, "-m", "blissdf.cli", *argv], env=env, capture_output=True, text=True, timeout=120
                )
                assert proc.returncode == 0, proc.stderr
            files = [path for path in out.rglob("*.*") if path.name != "manifest.json"]
            outputs.append({path.relative_to(out): path.read_bytes() for path in files})
        assert len(outputs[0]) == 5 and outputs[0] == outputs[1]

    def test_restored_after_nonfinite_cost(self):
        before = self.blas_threads()
        CONTROLS[0](2)
        try:
            ham = random_hamiltonian(2, np.random.default_rng(32))
            cfg = OptimizationConfig(max_iters=300, learning_rate=1e160, c_approx=1.0)
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
    calls = forbid_threads(monkeypatch)
    ham = random_hamiltonian(12, np.random.default_rng(63), n_electrons=12)
    report = optimize(ham, 144, OptimizationConfig(max_iters=5, rel_tol=0.0))  # 79 matrices, 2 blocks
    assert report.iterations_run == 5
    assert optimizer_blocks(calls) == [2] * (2 * report.iterations_run + 1)
    assert np.all(np.isfinite(report.total_trace))
    assert report.lambda_breakdown.lambda_total <= report.initial_lambda


# Runs the CLI's main in-process, then prints its exit code, whether
# concurrent.futures was imported and how many pool threads are alive.
CLI_THEN_REPORT = """
import sys, threading
from blissdf import cli
code = cli.main(sys.argv[1:])
pool = [thread for thread in threading.enumerate() if thread.name.startswith("blissdf-block")]
print(code, "concurrent.futures" in sys.modules, len(pool))
"""


def optimize_in_subprocess(tmp_path, n, rank, cpus):
    """Run `blissdf optimize` for 5 steps on a random N-orbital input, under -X dev on ``cpus``."""
    inp, cfg = tmp_path / "in.fcidump", tmp_path / "config.json"
    write_integrals(inp, random_hamiltonian(n, np.random.default_rng(65), n_electrons=n))
    cfg.write_text(json.dumps({"max_iters": 5, "rel_tol": 0.0}))
    src = os.path.dirname(os.path.dirname(_parallel.__file__))
    out = tmp_path / "out"
    argv = ["optimize", "--input", str(inp), "--rank", str(rank), "--config", str(cfg), "--out", str(out)]
    return subprocess.run(
        [sys.executable, "-X", "dev", "-c", CLI_THEN_REPORT, *argv],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])),
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: os.sched_setaffinity(0, cpus),
    )


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity control")
class TestProcess:
    @needs_openblas
    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs two CPUs",
    )
    def test_split_run_exits_cleanly(self, tmp_path):
        # N=12 at R=N^2: 79 matrices, two blocks on two CPUs, so one pool
        # thread runs. Interpreter exit joins it: the process must still end
        # at once, and -X dev must find nothing to warn about.
        proc = optimize_in_subprocess(tmp_path, 12, 144, sorted(os.sched_getaffinity(0))[:2])
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == "0 True 1"

    def test_one_block_run_starts_no_pool(self, tmp_path):
        # N=8 at R=2N: 17 matrices, one block, so everything runs inline.
        proc = optimize_in_subprocess(tmp_path, 8, 16, os.sched_getaffinity(0))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False 0"
