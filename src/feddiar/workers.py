"""The process's worker threads: how many there are, their pool, and the
runner that shares a list of work items out among them.

Two kinds of work run here: the full-length spectral passes, shared out by
chunk (MFCC in the frontend; the Parseval energies and spectral
subtraction in the silence module), and a federated round's clients,
shared out by client for local training and by group model for the
held-out evaluation. Each runs on the calling thread and on pool threads,
MAX_WORKERS threads in all or as many as the process's CPU affinity mask
holds, if fewer (`taskset -c 0` gives one thread and no pool). Where
numpy's BLAS runs threads of its own (OpenBLAS does unless
OPENBLAS_NUM_THREADS=1), those already spread each matrix product over
the CPUs, and the work keeps to the calling thread.

Each thread takes the next item from one shared iterator and writes only
that item's outputs: a chunk's rows, or a client's slot. An item's bits do
not depend on the thread that runs it, so the outputs are the same on any
number of threads. numpy and scipy release the interpreter lock in the
FFT, BLAS and ufunc loops that take most of an item's time.

A pool thread does not inherit the caller's numpy error state (a context
variable in numpy 2): work that must run under `np.errstate` enters it
itself.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np

# Most threads that one run of work items takes, the calling one included.
# Each holds its own buffers (about 2.6 MB for chunks of 512-point
# transforms, about 5 MB for the training workspace of a fedsim client with
# 1.3k frames), so this cap, not the machine, bounds the memory of a run.
MAX_WORKERS = 2


@functools.cache
def _workers() -> int:
    """Threads per run: the CPUs in the process's affinity mask, up to
    MAX_WORKERS, but one where numpy's BLAS runs threads of its own. Those
    already spread each matrix product over the CPUs, and the two kinds of
    thread then compete for them."""
    if _blas_threads() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    return min(MAX_WORKERS, os.cpu_count() or 1)


def _blas_threads() -> int:
    """Threads of the OpenBLAS in numpy's wheel (scipy-openblas), or 1 where
    there is none to ask."""
    for path in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*"):
        get = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            return get()
    return 1


@functools.cache
def _pool(threads: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(threads, thread_name_prefix="feddiar-workers")


def run_shared(items: list, work) -> None:
    """Run work(shared) on this thread and on up to _workers() - 1 pool threads.

    shared is one iterator over items that all the calls share (a list
    iterator: one next() is one step under the interpreter lock), so each
    item goes to whichever call asks first, and every item is taken once,
    as in one serial loop. work must hold its own buffers and write only
    the outputs of the items it takes. It may call public functions, as a
    federated round's work calls `train_local` and `evaluate`, so that a
    tracer of them counts every call; a tracer that keeps one span stack
    for the process (perfbench's) then nests a pool thread's spans under
    whatever span is open, and its self times do not hold. With one worker
    or one item no thread is used. Returns when every call has; an
    exception of this thread's call is raised first, then those of the
    pool's calls in order.
    """
    shared = iter(items)
    helpers = min(_workers(), len(items)) - 1
    if helpers <= 0:
        work(shared)
        return
    futures = [_pool(_workers() - 1).submit(work, shared) for _ in range(helpers)]
    try:
        work(shared)
    finally:
        # A call still queued would find no item left; a running one may
        # still write into the outputs, so wait for it.
        running = [f for f in futures if not f.cancel()]
        wait(running)
    for f in running:
        f.result()
