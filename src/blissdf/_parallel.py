"""Fixed-block loops on all available CPUs, with BLAS pinned to one thread.

A caller cuts its work into a fixed number of independent blocks, so each
block computes the same bits whichever thread runs it and however many run.
The threads only pay off with BLAS at one thread: otherwise each block's
BLAS threads compete for the same cores. So run_blocks uses more than the
calling thread only while numpy's bundled OpenBLAS reports one thread, as
inside one_blas_thread(). Without a known OpenBLAS symbol it never does.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

import numpy as np

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


def run_blocks(fn, count: int, first=None):
    """Call fn(0), ..., fn(count - 1) and first(); return first()'s result.

    first runs on the calling thread, which then takes blocks from the same
    queue as the workers - 1 extra threads. With one block or one worker
    everything runs inline and no thread starts. Blocks must be independent;
    each writes its own part of outputs its caller allocated.
    """
    workers = 1 if count <= 1 else min(_workers(), count)
    if workers == 1:
        result = None if first is None else first()
        for index in range(count):
            fn(index)
        return result

    # Imported here: a run that never splits a stack does not load it.
    from concurrent.futures import ThreadPoolExecutor

    lock, blocks = threading.Lock(), iter(range(count))

    def drain():
        while True:
            with lock:
                index = next(blocks, None)
            if index is None:
                return
            fn(index)

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        futures = [pool.submit(drain) for _ in range(workers - 1)]
        result = None if first is None else first()
        drain()
    for future in futures:
        future.result()
    return result
