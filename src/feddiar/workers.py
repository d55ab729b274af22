"""The process's worker threads: how many there are, their pool, and the
runner that shares a list of work items out among them.

Three kinds of work run here: the full-length spectral passes, shared out
by chunk (MFCC in the frontend; the Parseval energies and spectral
subtraction in the silence module); a federated round's clients, shared
out by client for local training and by group model for the held-out
evaluation; and synthesis, shared out by turn (a conversation's turns, or
each speaker's solo speech). Each runs on the calling thread and on pool
threads, MAX_WORKERS threads in all or as many as the process's CPU
affinity mask holds, if fewer (`taskset -c 0` gives one thread and no
pool). Where numpy's BLAS runs threads of its own (OpenBLAS does unless
OPENBLAS_NUM_THREADS=1), those already spread each matrix product over
the CPUs, and the work keeps to the calling thread. The CLI pins BLAS to
one thread while a command runs (`one_blas_thread`); a library caller
keeps its own setting.

Each thread takes the next item from one shared iterator and writes only
that item's outputs: a chunk's rows, a client's slot, or a turn's
waveform. An item's bits do not depend on the thread that runs it, so the
outputs are the same on any number of threads. numpy and scipy release
the interpreter lock in the FFT, BLAS and ufunc loops that take most of an
item's time.

Pool work runs in a copy of the caller's context (`contextvars`), so it
sees the caller's context variables, numpy's error state among them
(`np.errstate` is a context variable in numpy 2).
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np

# Most threads that one run of work items takes, the calling one included.
# Each holds its own buffers (about 2.6 MB for chunks of 512-point
# transforms, about 5 MB for the training workspace of a fedsim client with
# 1.3k frames, 3.5 times the turn's samples for a turn being synthesised),
# so this cap, not the machine, bounds the memory of a run.
MAX_WORKERS = 2


def _workers() -> int:
    """Threads per run: the CPUs in the process's affinity mask, up to
    MAX_WORKERS, but one where numpy's BLAS runs threads of its own. Those
    already spread each matrix product over the CPUs, and the two kinds of
    thread then compete for them. Read at each run, so that a run inside
    `one_blas_thread` takes the CPUs."""
    if _blas_threads() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    return min(MAX_WORKERS, os.cpu_count() or 1)


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """The OpenBLAS in numpy's wheel (scipy-openblas), or None where there
    is none to ask."""
    for path in (Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*"):
        lib = ctypes.CDLL(str(path))
        if getattr(lib, "scipy_openblas_get_num_threads64_", None) is not None:
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return lib
    return None


def _blas_threads() -> int:
    """Threads of numpy's OpenBLAS, or 1 where there is none to ask."""
    lib = _openblas()
    return 1 if lib is None else lib.scipy_openblas_get_num_threads64_()


@contextlib.contextmanager
def one_blas_thread():
    """Pin numpy's OpenBLAS to one thread inside the block, so that the
    runs there take the process's CPUs instead, and give the caller's
    thread count back after it."""
    lib = _openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


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
    whatever span is open, and its self times do not hold. Each pool call
    runs in a copy of the caller's context. With one worker or one item no
    thread is used. Returns when every call has; an exception of this
    thread's call is raised first, then those of the pool's calls in order.
    """
    shared = iter(items)
    threads = _workers()
    helpers = min(threads, len(items)) - 1
    if helpers <= 0:
        work(shared)
        return
    futures = [_pool(threads - 1).submit(contextvars.copy_context().run, work, shared)
               for _ in range(helpers)]
    try:
        work(shared)
    finally:
        # A call still queued would find no item left; a running one may
        # still write into the outputs, so wait for it.
        running = [f for f in futures if not f.cancel()]
        wait(running)
    for f in running:
        f.result()
