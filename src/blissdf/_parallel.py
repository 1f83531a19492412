"""Fixed-block loops on all available CPUs, with BLAS pinned to one thread.

The partition lives here: run_blocks cuts range(length) into fixed slices
of _BLOCK items, so each block computes the same bits whichever thread runs
it and however many run. Callers write their block loop as fn(part) over
those slices. The threads only pay off with BLAS at one thread: otherwise
each block's BLAS threads compete for the same cores. So run_blocks uses
more than the calling thread only while numpy's bundled OpenBLAS reports
one thread, as inside one_blas_thread(). Without a known OpenBLAS symbol it
never does. The extra threads belong to one ThreadPoolExecutor per worker
count, made on the first split call and kept for the life of the process,
so a later call starts no thread. Jobs take the caller's np.errstate
(numpy's is per thread), so no warning depends on the core count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

import numpy as np

# Items per block of run_blocks; a caller's bits may depend on it.
_BLOCK = 64

# (set, get) thread-count functions of the OpenBLAS that numpy wheels bundle.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
)


@functools.cache
def _numpy_library():
    """numpy's core extension, whose symbol scope includes the BLAS it links."""
    core = getattr(np, "_core", None) or np.core  # numpy 2 renamed np.core
    try:
        return ctypes.CDLL(core._multiarray_umath.__file__)
    except OSError:
        return None


def _blas_thread_controls():
    """(set, get) for the BLAS thread count that numpy uses, or None if not found."""
    lib = _numpy_library()
    if lib is None:
        return None
    for set_name, get_name in _OPENBLAS_SYMBOLS:
        if hasattr(lib, set_name) and hasattr(lib, get_name):
            set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return set_threads, get_threads
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with BLAS at one thread; restore the previous count on exit.

    Usable as a decorator. Does nothing when no known OpenBLAS symbol is
    found. The count is process-wide, so threads that enter this at once
    share it.
    """
    controls = _blas_thread_controls()
    if controls is None:
        yield
        return
    set_threads, get_threads = controls
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def _workers() -> int:
    """Threads for run_blocks: the CPUs this process may use, or 1 unless BLAS is at one thread."""
    controls = _blas_thread_controls()
    if controls is None or controls[1]() != 1:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _executor(size: int):
    """A ThreadPoolExecutor of ``size`` threads, kept for the life of the process."""
    # Imported here: a run that never splits a stack does not load it.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(size, thread_name_prefix="blissdf-block")


def run_blocks(fn, length: int, first=None):
    """Call fn(part) on each fixed slice of range(length) and first(); return first()'s result.

    The slices hold _BLOCK items each, the last one possibly fewer. first
    runs on the calling thread, which then takes blocks from the same
    iterator as up to workers - 1 jobs on an executor that persists across
    calls, under the caller's np.errstate. With one block or one worker
    everything runs on the calling thread. Blocks must be independent; each
    writes its own part of outputs its caller allocated. If first or a block
    raises, no further block starts, and the first error is raised once every
    started block has finished, so no block writes after this returns or raises.
    """
    parts = [slice(start, min(start + _BLOCK, length)) for start in range(0, length, _BLOCK)]
    workers = 1 if len(parts) <= 1 else min(_workers(), len(parts))
    lock, blocks, errors = threading.Lock(), iter(parts), []

    def drain():
        while True:
            with lock:
                part = None if errors else next(blocks, None)
            if part is None:
                return
            try:
                fn(part)
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return

    def job(state: dict) -> None:  # numpy's error state is per thread: a job takes its caller's
        with np.errstate(**state):
            drain()

    jobs = [_executor(workers - 1).submit(job, np.geterr()) for _ in range(workers - 1)]
    result = None
    try:
        if first is not None:
            result = first()
    except BaseException as exc:
        with lock:
            errors.append(exc)
    drain()
    # No block is left to start: cancel each job no thread has taken up, so
    # the caller never waits on a busy pool, and wait for each running one.
    for future in jobs:
        if not future.cancel():
            future.result()
    # A cancelled job stays queued behind a busy thread and holds drain: it
    # must not keep fn, and with it the blocks' arrays, alive after this returns.
    fn = None
    if errors:
        raise errors[0]
    return result
