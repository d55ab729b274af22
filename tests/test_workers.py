"""The chunked spectral passes give the same bits on any number of threads."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import test_pipeline
from test_frontend import assert_bits_equal, bursty_signal

from feddiar import frontend, silence
from feddiar.errors import StageError
from feddiar.frontend import CHUNK_FRAMES, MAX_WORKERS, MfccConfig, compute_mfcc, frame_signal
from feddiar.pipeline import PipelineConfig, frontend_and_silence
from feddiar.silence import (
    SilenceConfig,
    estimate_noise_profile,
    parseval_energies,
    spectral_subtract,
)
from feddiar.synth import random_conversation_spec, synth_conversation

WORKERS = (1, 2, 3)

# Fewer chunks than 2 or 3 workers, as many, and one more; every input has a
# remainder (37 frames) that its last chunk takes over.
CHUNK_COUNTS = (1, 2, 3, 4)


def passes(frames, noise, index) -> list[np.ndarray]:
    return [
        compute_mfcc(frames, MfccConfig()).rows,
        parseval_energies(frames, frames.fft_size),
        spectral_subtract(frames, noise),
        spectral_subtract(frames, noise, index=index),
    ]


@pytest.mark.parametrize("chunks", CHUNK_COUNTS)
def test_passes_bit_equal_on_any_worker_count(monkeypatch, chunks) -> None:
    n = chunks * CHUNK_FRAMES + 37
    frames = frame_signal(bursty_signal(n, seed=chunks))
    noise = estimate_noise_profile(frames, SilenceConfig())
    # unsorted, with repeats, as many rows as frames
    index = np.random.default_rng(chunks).integers(0, n, size=n)
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # threads trade the interpreter lock often
    try:
        for workers in WORKERS:
            monkeypatch.setattr(frontend, "_workers", lambda: workers)
            results[workers] = passes(frames, noise, index)
    finally:
        sys.setswitchinterval(interval)
    for workers in WORKERS[1:]:
        for got, want in zip(results[workers], results[1]):
            assert_bits_equal(got, want)


class ChunkFailed(Exception):
    pass


@pytest.fixture(scope="module")
def long_conv():
    """About 50 s: the silence stage's subtraction takes several chunks."""
    spec = random_conversation_spec(num_speakers=2, seed=7, min_changes=12, max_changes=12)
    return synth_conversation(spec)[0]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("module", [frontend, silence])
def test_failure_in_a_pool_thread_arrives_as_the_stage_error(monkeypatch, long_conv,
                                                             workers, module) -> None:
    monkeypatch.setattr(frontend, "_workers", lambda: workers)
    real = module.spectrum_chunks
    failed = threading.Event()

    def failing(frames, fft_size, pre_emphasis=0.0, index=None, chunks=None):
        if chunks is not None:   # a pass shared out by chunks
            if workers > 1 and threading.current_thread() is threading.main_thread():
                assert failed.wait(30), "no pool thread took a chunk"
            else:
                failed.set()
                raise ChunkFailed("chunk failed")
        yield from real(frames, fft_size, pre_emphasis, index, chunks)

    monkeypatch.setattr(module, "spectrum_chunks", failing)
    with pytest.raises(StageError) as err:
        frontend_and_silence(long_conv, PipelineConfig())
    assert err.value.stage == module.__name__.rsplit(".", 1)[1]
    assert type(err.value.cause) is ChunkFailed
    assert str(err.value) == f"stage '{err.value.stage}' failed: chunk failed"


def test_memory_bounded_at_the_worker_cap(monkeypatch) -> None:
    monkeypatch.setattr(frontend, "_workers", lambda: MAX_WORKERS)
    test_pipeline.test_frontend_and_silence_memory_bounded_in_audio_length()


def workers_in_fresh_process(blas_threads: int) -> list[int]:
    """(BLAS threads, spectral-pass threads) as a fresh interpreter sees them."""
    src = str(Path(frontend.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=src)
    code = "from feddiar import frontend; print(frontend._blas_threads(), frontend._workers())"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return [int(v) for v in out.split()]


def test_one_thread_per_pass_where_blas_runs_threads() -> None:
    if workers_in_fresh_process(2)[0] != 2:
        pytest.skip("numpy's BLAS cannot be asked for its thread count")
    assert workers_in_fresh_process(2) == [2, 1]
    assert workers_in_fresh_process(1) == [1, min(MAX_WORKERS, len(os.sched_getaffinity(0)))]
