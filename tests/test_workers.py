"""The chunked spectral passes, the federated rounds and synthesis give the
same bits on any number of threads."""

import contextvars
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import test_pipeline
from test_frontend import (
    CHUNK_EDGE_COUNTS,
    assert_bits_equal,
    bursty_signal,
    noisy_signal,
    reference_compute_mfcc,
)

from feddiar import cli, federated, frontend, silence, workers
from feddiar.cli import main
from feddiar.errors import InvalidSpec, StageError, TrainingDiverged
from feddiar.federated import FederatedConfig, build_network, run_experiment
from feddiar.frontend import (
    CHUNK_FRAMES,
    FrameSequence,
    MfccConfig,
    compute_mfcc,
    frame_signal,
)
from feddiar.identifier import ModelArch
from feddiar.pipeline import PipelineConfig, frontend_and_silence
from feddiar.silence import SilenceConfig, estimate_noise_profile, spectral_subtract
from feddiar.synth import (
    random_conversation_spec,
    speaker_frame_corpus,
    synth_conversation,
    synth_corpus,
)
from feddiar.workers import MAX_WORKERS

WORKERS = (1, 2, 3)

# Fewer chunks than 2 or 3 workers, as many, and one more; every input has a
# remainder (37 frames) that its last chunk takes over.
CHUNK_COUNTS = (1, 2, 3, 4)


def passes(frames, noise, index) -> list[np.ndarray]:
    return [
        compute_mfcc(frames, MfccConfig()).rows,
        frames.energies,
        spectral_subtract(frames, noise),
        spectral_subtract(frames, noise, index=index),
    ]


@pytest.mark.parametrize("chunks", CHUNK_COUNTS)
def test_passes_bit_equal_on_any_worker_count(monkeypatch, chunks) -> None:
    n = chunks * CHUNK_FRAMES + 37
    sig = bursty_signal(n, seed=chunks)
    noise = estimate_noise_profile(frame_signal(sig), SilenceConfig())
    # unsorted, with repeats, as many rows as frames
    index = np.random.default_rng(chunks).integers(0, n, size=n)
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # threads trade the interpreter lock often
    try:
        for count in WORKERS:
            monkeypatch.setattr(workers, "_workers", lambda: count)
            # a new sequence per run, whose energies no earlier run computed
            results[count] = passes(frame_signal(sig), noise, index)
    finally:
        sys.setswitchinterval(interval)
    for count in WORKERS[1:]:
        for got, want in zip(results[count], results[1]):
            assert_bits_equal(got, want)


@pytest.mark.parametrize("sample_rate", [8000, 16000])
@pytest.mark.parametrize("num_frames", CHUNK_EDGE_COUNTS)
def test_mfcc_of_the_frame_view_bit_equal_to_a_dense_copy(monkeypatch, sample_rate,
                                                          num_frames) -> None:
    # every chunk of frame_signal's overlapping frames, and of a dense copy
    # of them (the framing of its rows laid end to end), takes the
    # once-per-sample pre-emphasis, with the whole-matrix pass's bits
    frames = frame_signal(noisy_signal(num_frames, sample_rate, seed=num_frames))
    assert len(frames) == num_frames
    rows = np.array(frames.frames)
    dense = FrameSequence(rows.ravel(), frames.frame_len_samples,
                          frames.frame_len_samples, frames.sample_rate_hz)
    assert len(dense) == num_frames
    spans = []
    real = frontend._window_span

    def window_span(frames, start, stop, *args):
        spans.append(stop - start)
        real(frames, start, stop, *args)

    monkeypatch.setattr(frontend, "_window_span", window_span)
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for count in WORKERS:
            monkeypatch.setattr(workers, "_workers", lambda: count)
            results[count] = [compute_mfcc(frames, MfccConfig()).rows,
                              compute_mfcc(dense, MfccConfig()).rows]
    finally:
        sys.setswitchinterval(interval)
    # the span path served every chunk of both, at any frame count
    assert sum(spans) == 2 * num_frames * len(WORKERS)
    want = reference_compute_mfcc(rows, sample_rate, frontend.PRE_EMPHASIS)
    for count in WORKERS:
        for got in results[count]:
            assert_bits_equal(got, want)


class ChunkFailed(Exception):
    pass


@pytest.fixture(scope="module")
def long_conv():
    """About 50 s: the silence stage's subtraction takes several chunks."""
    spec = random_conversation_spec(num_speakers=2, seed=7, min_changes=12, max_changes=12)
    return synth_conversation(spec)[0]


@pytest.mark.parametrize("count", WORKERS)
@pytest.mark.parametrize("module", [frontend, silence])
def test_failure_in_a_pool_thread_arrives_as_the_stage_error(monkeypatch, long_conv,
                                                             count, module) -> None:
    monkeypatch.setattr(workers, "_workers", lambda: count)
    real = module.spectrum_chunks
    failed = threading.Event()

    def failing(frames, pre_emphasis=0.0, index=None, chunks=None):
        if chunks is not None:   # a pass shared out by chunks
            if count > 1 and threading.current_thread() is threading.main_thread():
                assert failed.wait(30), "no pool thread took a chunk"
            else:
                failed.set()
                raise ChunkFailed("chunk failed")
        yield from real(frames, pre_emphasis, index, chunks)

    monkeypatch.setattr(module, "spectrum_chunks", failing)
    with pytest.raises(StageError) as err:
        frontend_and_silence(long_conv, PipelineConfig())
    assert err.value.stage == module.__name__.rsplit(".", 1)[1]
    assert type(err.value.cause) is ChunkFailed
    assert str(err.value) == f"stage '{err.value.stage}' failed: chunk failed"


# (mode, flags): one client per speaker, every speaker's frames dealt to
# every client, one pooled client (no pool thread), and three clients in
# one group of three, as many as the most threads.
FEDSIM_RUNS = {
    "non_iid": ["--mode", "non_iid"],
    "iid": ["--mode", "iid"],
    "centralized": ["--mode", "centralized"],
    "3-clients": ["--num-clients", "3"],
}


@pytest.mark.parametrize("run", sorted(FEDSIM_RUNS))
def test_fedsim_bit_equal_on_any_worker_count(monkeypatch, tmp_path, capsys, run) -> None:
    outputs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for count in WORKERS:
            monkeypatch.setattr(workers, "_workers", lambda: count)
            out = tmp_path / str(count)
            assert main(["fedsim", "--num-speakers", "4", "--group-size", "2",
                         "--rounds", "3", "--local-epochs", "2", "--lr0", "0.05",
                         "--hidden", "16,8", *FEDSIM_RUNS[run], "--out-dir", str(out)]) == 0
            outputs[count] = [(out / name).read_bytes()
                              for name in ("fed_history.csv", "fed_model.npz")]
    finally:
        sys.setswitchinterval(interval)
    capsys.readouterr()
    for count in WORKERS[1:]:
        assert outputs[count] == outputs[1]


def synthesised() -> list[np.ndarray]:
    """Samples and truth of a conversation with more turns than threads and
    of a two-conversation corpus, and each speaker's solo frames."""
    spec = random_conversation_spec(num_speakers=3, seed=4, min_changes=5, max_changes=5)
    out = []
    for audio, truth in [synth_conversation(spec), *synth_corpus(2, 2, seed=6)]:
        out.append(audio.samples)
        out.append(np.array(truth.change_points_sec))
        out.append(np.array([(t.speaker_id, t.start_sec, t.end_sec) for t in truth.turns]))
    solo = speaker_frame_corpus(3, seed=2, seconds_per_speaker=1.5)
    return out + [solo[s] for s in sorted(solo)]


def test_synthesis_bit_equal_on_any_worker_count(monkeypatch) -> None:
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for count in WORKERS:
            monkeypatch.setattr(workers, "_workers", lambda: count)
            results[count] = synthesised()
    finally:
        sys.setswitchinterval(interval)
    for count in WORKERS[1:]:
        assert len(results[count]) == len(results[1])
        for got, want in zip(results[count], results[1]):
            assert np.array_equal(got, want)


def fed_network(rounds=2, lr0=0.05):
    cfg = FederatedConfig(num_clients=4, group_size=2, rounds=rounds, lr0=lr0)
    corpus = speaker_frame_corpus(4, 0, seconds_per_speaker=2.0)
    return cfg, build_network(corpus, cfg, ModelArch(12, (16,), 4), 0)


def train_on_a_pool_thread(monkeypatch, on_pool_thread):
    """Make federated.train_local call on_pool_thread() in the first pool
    thread that takes a client, while the calling thread waits for one."""
    real = federated.train_local
    taken = threading.Event()

    def train_local(*args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            assert taken.wait(30), "no pool thread took a client"
        elif not taken.is_set():
            taken.set()
            on_pool_thread()
        return real(*args, **kwargs)

    monkeypatch.setattr(federated, "train_local", train_local)


def test_diverging_round_on_pool_threads_warns_nothing(monkeypatch) -> None:
    # numpy's error state is a context variable that threads do not inherit
    monkeypatch.setattr(workers, "_workers", lambda: 2)
    train_on_a_pool_thread(monkeypatch, lambda: None)
    cfg, state = fed_network(lr0=1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged, match="weights"):
            run_experiment(state, cfg, seed=0)


CALLER = contextvars.ContextVar("caller")


def test_pool_work_sees_the_callers_context(monkeypatch) -> None:
    monkeypatch.setattr(workers, "_workers", lambda: 2)
    # each thread holds its item until the other has taken one
    both_taken = threading.Barrier(2, timeout=30)
    seen = []

    def work(items):
        for _ in items:
            seen.append((threading.current_thread().name, CALLER.get("unset")))
            both_taken.wait()

    token = CALLER.set("test")
    try:
        workers.run_shared([0, 1], work)
    finally:
        CALLER.reset(token)
    assert sorted(value for _, value in seen) == ["test", "test"]
    assert any(name.startswith("feddiar-workers") for name, _ in seen)


class ClientFailed(Exception):
    pass


@pytest.mark.parametrize("count", WORKERS)
def test_failure_in_a_pool_thread_reaches_the_caller(monkeypatch, count) -> None:
    monkeypatch.setattr(workers, "_workers", lambda: count)
    cfg, state = fed_network()
    want = run_experiment(state, cfg, seed=0).history

    def fail():
        raise ClientFailed("client failed")

    if count > 1:
        train_on_a_pool_thread(monkeypatch, fail)
    else:
        monkeypatch.setattr(federated, "train_local", lambda *a, **k: fail())
    with pytest.raises(ClientFailed, match="client failed"):
        run_experiment(fed_network()[1], cfg, seed=0)
    monkeypatch.undo()
    monkeypatch.setattr(workers, "_workers", lambda: count)
    assert run_experiment(fed_network()[1], cfg, seed=0).history == want


def test_memory_bounded_at_the_worker_cap(monkeypatch) -> None:
    monkeypatch.setattr(workers, "_workers", lambda: MAX_WORKERS)
    test_pipeline.test_frontend_and_silence_memory_bounded_in_audio_length()


def workers_in_fresh_process(blas_threads: int) -> list[int]:
    """(BLAS threads, worker threads) as a fresh interpreter sees them."""
    src = str(Path(workers.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=src)
    code = "from feddiar import workers; print(workers._blas_threads(), workers._workers())"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return [int(v) for v in out.split()]


def test_one_thread_per_pass_where_blas_runs_threads() -> None:
    if workers_in_fresh_process(2)[0] != 2:
        pytest.skip("numpy's BLAS cannot be asked for its thread count")
    assert workers_in_fresh_process(2) == [2, 1]
    assert workers_in_fresh_process(1) == [1, min(MAX_WORKERS, len(os.sched_getaffinity(0)))]


@pytest.mark.parametrize("fails", [False, True])
def test_cli_runs_on_one_blas_thread_and_gives_the_count_back(monkeypatch, tmp_path,
                                                               capsys, fails) -> None:
    lib = workers._openblas()
    if lib is None:
        pytest.skip("numpy's BLAS cannot be asked for its thread count")
    caller = workers._blas_threads()
    lib.scipy_openblas_set_num_threads64_(2)
    if workers._blas_threads() != 2:
        lib.scipy_openblas_set_num_threads64_(caller)
        pytest.skip("numpy's BLAS runs one thread at most here")
    seen = []
    real = cli.synth_conversation

    def synth_conversation(spec):
        seen.append((workers._blas_threads(), workers._workers()))
        if fails:
            raise InvalidSpec("bad spec")
        return real(spec)

    monkeypatch.setattr(cli, "synth_conversation", synth_conversation)
    try:
        code = main(["synth", "--min-changes", "1", "--max-changes", "1",
                     "--out-dir", str(tmp_path)])
        after = workers._blas_threads()
    finally:
        lib.scipy_openblas_set_num_threads64_(caller)
    capsys.readouterr()
    assert code == (1 if fails else 0)
    assert seen == [(1, min(MAX_WORKERS, len(os.sched_getaffinity(0))))]
    assert after == 2
    assert workers._workers() == (1 if caller > 1 else seen[0][1])
