import re

import numpy as np
import pytest

from scipy.fft import dct

from feddiar import frontend
from feddiar.errors import InvalidConfig, InvalidInput, InvalidSpec
from feddiar.frontend import (
    CHUNK_FRAMES,
    FRAME_MS,
    HOP_MS,
    LOG_FLOOR,
    NUM_MEL_FILTERS,
    PRE_EMPHASIS,
    AudioSignal,
    FrameSequence,
    MfccConfig,
    chunk_bounds,
    compute_mfcc,
    frame_signal,
    load_wav,
    mel_filterbank,
    save_wav,
    spectrum_chunks,
)


def tone(duration_sec=1.0, freq=440.0, sr=16000, amp=0.3):
    t = np.arange(int(duration_sec * sr)) / sr
    return AudioSignal(amp * np.sin(2 * np.pi * freq * t), sr)


def test_frame_count_one_second() -> None:
    # 16000 samples, 400-sample frames, 160-sample hop.
    sig = tone(1.0)
    frames = frame_signal(sig)
    assert len(frames) == (16000 - 400) // 160 + 1 == 98
    assert frames.frames.shape == (98, 400)


def test_frame_onsets_spacing() -> None:
    frames = frame_signal(tone(0.5))
    onsets = frames.frame_onsets_sec()
    assert onsets[0] == 0.0
    assert np.allclose(np.diff(onsets), 0.010)


def test_signal_shorter_than_frame_rejected() -> None:
    sig = AudioSignal(np.zeros(399), 16000)
    with pytest.raises(InvalidInput, match="399 samples < one 400-sample frame"):
        frame_signal(sig)


def test_signal_exactly_one_frame() -> None:
    sig = AudioSignal(np.zeros(400), 16000)
    assert len(frame_signal(sig)) == 1


@pytest.mark.parametrize("rate", [1, 20, 50])
def test_sample_rate_whose_hop_holds_no_sample_rejected(rate) -> None:
    with pytest.raises(InvalidInput, match=f"sample rate {rate} Hz is too low"):
        frame_signal(AudioSignal(np.zeros(1000), rate))
    # 51 Hz is the lowest rate with a one-sample 10 ms hop
    assert frame_signal(AudioSignal(np.zeros(1000), 51)).hop_samples == 1


def test_wav_round_trip(tmp_path) -> None:
    sig = tone(0.25)
    path = tmp_path / "t.wav"
    save_wav(path, sig)
    back = load_wav(path)
    assert back.sample_rate_hz == 16000
    assert np.max(np.abs(back.samples - sig.samples)) <= 1.0 / 32768


def test_full_scale_sample_maps_near_one(tmp_path) -> None:
    # 1.0 clips to int16 32767 on write; comes back as 32767/32768.
    sig = AudioSignal(np.ones(400), 16000)
    path = tmp_path / "fs.wav"
    save_wav(path, sig)
    back = load_wav(path)
    assert back.samples[0] == pytest.approx(32767.0 / 32768.0)
    assert abs(back.samples[0] - 1.0) < 1e-4


def test_stereo_downmix_is_channel_mean(tmp_path) -> None:
    import wave

    path = tmp_path / "st.wav"
    left = np.full(100, 0.5)
    right = np.full(100, -0.5)
    inter = np.empty(200, dtype=np.int16)
    inter[0::2] = (left * 32768).astype(np.int16)
    inter[1::2] = (right * 32768).astype(np.int16)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(2)
        fh.setsampwidth(2)
        fh.setframerate(16000)
        fh.writeframes(inter.tobytes())
    back = load_wav(path)
    assert back.samples.shape == (100,)
    assert np.allclose(back.samples, 0.0)


def test_load_rejects_garbage(tmp_path) -> None:
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a riff header at all")
    with pytest.raises(InvalidSpec, match="bad.wav: file does not start with RIFF id"):
        load_wav(path)


def test_load_rejects_non_16bit(tmp_path) -> None:
    import wave

    path = tmp_path / "b8.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(1)
        fh.setframerate(16000)
        fh.writeframes(bytes(range(200)))
    message = f"^{re.escape(str(path))}: expected 16-bit PCM, got 8-bit$"
    with pytest.raises(InvalidSpec, match=message):
        load_wav(path)


def test_mel_filterbank_shape_and_coverage() -> None:
    fb = mel_filterbank(26, 512, 16000)
    assert fb.shape == (26, 257)
    assert np.all(fb >= 0)
    # every filter has some mass
    assert np.all(fb.sum(axis=1) > 0)


def test_mfcc_shape_and_determinism() -> None:
    cfg = MfccConfig()
    frames = frame_signal(tone(1.0))
    a = compute_mfcc(frames, cfg)
    b = compute_mfcc(frames, cfg)
    assert a.rows.shape == (98, 12)
    assert np.array_equal(a.rows, b.rows)
    assert a.frame_times_sec.shape == (98,)


def test_mfcc_all_zero_signal_rows_identical() -> None:
    # log floor keeps the computation finite; every frame is the same.
    cfg = MfccConfig()
    frames = frame_signal(AudioSignal(np.zeros(16000), 16000))
    feats = compute_mfcc(frames, cfg)
    assert np.all(np.isfinite(feats.rows))
    assert np.allclose(feats.rows, feats.rows[0])


def test_mfcc_distinguishes_tones() -> None:
    cfg = MfccConfig()
    a = compute_mfcc(frame_signal(tone(0.5, 300.0)), cfg)
    b = compute_mfcc(frame_signal(tone(0.5, 2500.0)), cfg)
    assert np.linalg.norm(a.rows.mean(axis=0) - b.rows.mean(axis=0)) > 1.0


def test_fft_size_next_power_of_two() -> None:
    frames = frame_signal(tone(0.1))
    assert (frames.frame_len_samples, frames.fft_size) == (400, 512)
    assert frame_signal(tone(0.1, sr=8000)).fft_size == 256


@pytest.mark.parametrize("num_coefficients", [0, NUM_MEL_FILTERS + 1])
def test_num_coefficients_outside_mel_filters_rejected(num_coefficients) -> None:
    with pytest.raises(InvalidConfig):
        MfccConfig(num_coefficients=num_coefficients)
    MfccConfig(num_coefficients=NUM_MEL_FILTERS)


# -- chunked passes against the whole-matrix oracle --------------------------

# Frame counts around one and two chunks, and longer inputs with a short
# remainder that the last chunk takes over.
CHUNK_EDGE_COUNTS = (1, CHUNK_FRAMES - 1, CHUNK_FRAMES, CHUNK_FRAMES + 1,
                     2 * CHUNK_FRAMES - 1, 2 * CHUNK_FRAMES, 2 * CHUNK_FRAMES + 1,
                     4 * CHUNK_FRAMES + 40, 6 * CHUNK_FRAMES + 7)


def reference_frame_signal(signal: AudioSignal) -> np.ndarray:
    """The materialised frame matrix: one gathered copy of every frame."""
    frame_len = round(FRAME_MS * signal.sample_rate_hz / 1000)
    hop = round(HOP_MS * signal.sample_rate_hz / 1000)
    num_frames = (len(signal.samples) - frame_len) // hop + 1
    idx = np.arange(frame_len)[None, :] + hop * np.arange(num_frames)[:, None]
    return signal.samples[idx]


def reference_compute_mfcc(frames: np.ndarray, sample_rate_hz: int, pre_emphasis: float,
                           num_coefficients: int = 12) -> np.ndarray:
    """MFCC rows in one pass over a whole frame matrix."""
    frame_len = frames.shape[1]
    fft_size = 1 << (frame_len - 1).bit_length()
    x = frames
    if pre_emphasis > 0.0:
        x = np.concatenate([x[:, :1], x[:, 1:] - pre_emphasis * x[:, :-1]], axis=1)
    x = x * np.hamming(frame_len)
    spectrum = np.abs(np.fft.rfft(x, n=fft_size, axis=1))
    fb = mel_filterbank(NUM_MEL_FILTERS, fft_size, sample_rate_hz)
    log_mel = np.log(np.maximum(spectrum @ fb.T, LOG_FLOOR))
    rows = dct(log_mel, type=2, axis=1, norm="ortho")[:, 1:num_coefficients + 1]
    return np.ascontiguousarray(rows)


def bursty_signal(num_frames: int, seed: int = 0, sr: int = 16000) -> AudioSignal:
    """Noise whose loudness changes every 10 ms, with near-silent stretches."""
    rng = np.random.default_rng(seed)
    n = 400 + 160 * (num_frames - 1) + int(rng.integers(0, 160))
    envelope = np.repeat(rng.uniform(0.0, 1.0, size=n // 160 + 1) ** 4, 160)[:n]
    return AudioSignal(rng.standard_normal(n) * envelope, sr)


def noisy_signal(num_frames: int, sample_rate: int, seed: int) -> AudioSignal:
    """Noise of changing loudness that frames into num_frames frames."""
    frame_len = round(FRAME_MS * sample_rate / 1000)
    hop = round(HOP_MS * sample_rate / 1000)
    rng = np.random.default_rng(seed)
    n = frame_len + hop * (num_frames - 1) + int(rng.integers(0, hop))
    return AudioSignal(rng.standard_normal(n) * rng.uniform(0.0, 1.0, n) ** 4, sample_rate)


# The transform length of each kind of framing, and a sample rate whose
# 25 ms frames take it: padded (400 samples), exact (256) and odd (one
# sample, a one-point transform without a Nyquist bin)
FRAMING_RATES = {512: 16000, 256: 10240, 1: 51}


def assert_bits_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def test_chunk_bounds_cover_frames_in_order() -> None:
    for n in (0, *CHUNK_EDGE_COUNTS, 4 * CHUNK_FRAMES):
        bounds = chunk_bounds(n)
        assert [a for a, _ in bounds[1:]] == [b for _, b in bounds[:-1]]
        if n:
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            assert all(min(n, CHUNK_FRAMES) <= b - a < 2 * CHUNK_FRAMES for a, b in bounds)


@pytest.mark.parametrize("num_frames", CHUNK_EDGE_COUNTS)
def test_frame_signal_is_read_only_view_of_gathered_frames(num_frames) -> None:
    sig = bursty_signal(num_frames)
    frames = frame_signal(sig)
    assert len(frames) == num_frames
    assert np.shares_memory(frames.frames, sig.samples)
    assert not frames.frames.flags.writeable
    assert_bits_equal(np.ascontiguousarray(frames.frames), reference_frame_signal(sig))


# compute_mfcc pre-emphasises at frontend.PRE_EMPHASIS; with the constant
# set to 0 its chunk loop also runs spectrum_chunks's other branch
@pytest.mark.parametrize("pre_emphasis", [0.0, PRE_EMPHASIS])
@pytest.mark.parametrize("num_frames", CHUNK_EDGE_COUNTS)
def test_chunked_mfcc_bit_equal_to_whole_matrix(num_frames, pre_emphasis, monkeypatch) -> None:
    monkeypatch.setattr(frontend, "PRE_EMPHASIS", pre_emphasis)
    sig = bursty_signal(num_frames, seed=num_frames)
    got = compute_mfcc(frame_signal(sig), MfccConfig())
    want = reference_compute_mfcc(reference_frame_signal(sig), 16000, pre_emphasis)
    assert_bits_equal(got.rows, want)
    assert_bits_equal(got.frame_times_sec, np.arange(num_frames) * 160 / 16000)


@pytest.mark.parametrize("pre_emphasis", [0.0, PRE_EMPHASIS])
def test_chunked_mfcc_bit_equal_on_dense_frame_sequence(pre_emphasis, monkeypatch) -> None:
    # any frame matrix is the framing of its rows laid end to end, with the
    # hop equal to the frame length
    monkeypatch.setattr(frontend, "PRE_EMPHASIS", pre_emphasis)
    rows = np.random.default_rng(8).standard_normal((3 * CHUNK_FRAMES + 7, 400))
    frames = FrameSequence(rows.ravel(), 400, 400, 16000)
    assert_bits_equal(np.ascontiguousarray(frames.frames), rows)
    assert_bits_equal(compute_mfcc(frames, MfccConfig()).rows,
                      reference_compute_mfcc(rows, 16000, pre_emphasis))


@pytest.mark.parametrize("pre_emphasis", [0.0, 0.97])
@pytest.mark.parametrize("fft_size", FRAMING_RATES)
def test_spectrum_chunks_bit_equal_to_padding_rfft(fft_size, pre_emphasis) -> None:
    # spectrum_chunks transforms a zero-tailed buffer; numpy pads each row
    # itself when n exceeds the row length
    frames = frame_signal(noisy_signal(2 * CHUNK_FRAMES + 40, FRAMING_RATES[fft_size],
                                       seed=fft_size))
    assert frames.fft_size == fft_size
    x = frames.frames
    if pre_emphasis > 0.0:
        x = np.concatenate([x[:, :1], x[:, 1:] - pre_emphasis * x[:, :-1]], axis=1)
    window = np.hamming(frames.frame_len_samples)
    assert_bits_equal(frames.window, window)
    want = np.abs(np.fft.rfft(x * window, n=fft_size, axis=1))
    index = np.random.default_rng(fft_size).permutation(len(frames))[:CHUNK_FRAMES + 3]
    for idx, rows in ((None, want), (index, want[index])):
        if idx is not None and pre_emphasis > 0.0:
            # pre-emphasis takes whole passes only
            with pytest.raises(InvalidConfig):
                next(spectrum_chunks(frames, pre_emphasis, idx))
            continue
        got = np.empty_like(rows)
        for start, mag in spectrum_chunks(frames, pre_emphasis, idx):
            got[start:start + len(mag)] = mag
        assert_bits_equal(got, rows)


def test_energies_are_computed_once_and_refuse_writes() -> None:
    frames = frame_signal(bursty_signal(CHUNK_FRAMES + 9))
    energies = frames.energies
    assert frames.energies is energies
    assert not energies.flags.writeable
    with pytest.raises(ValueError):
        energies[0] = 1.0
    with pytest.raises(ValueError):
        energies *= 2.0
    with pytest.raises(AttributeError):     # a frozen dataclass
        frames.energies = np.zeros(len(frames))
    assert frames.energies is energies


@pytest.mark.parametrize("num_samples, frame_len, hop", [
    (400, 400, 0),      # no hop
    (400, 400, -160),
    (800, 400, 401),    # a gap between frames
    (399, 400, 160),    # not one frame
])
def test_frame_sequence_refuses_what_the_span_path_cannot_serve(num_samples, frame_len,
                                                                hop) -> None:
    with pytest.raises(InvalidConfig):
        FrameSequence(np.zeros(num_samples), frame_len, hop, 16000)


@pytest.mark.parametrize("sample_rate, frame_len, hop", [(8000, 200, 80), (16000, 400, 160)])
def test_frame_signal_frames_the_signal_it_is_given(sample_rate, frame_len, hop) -> None:
    sig = tone(0.5, sr=sample_rate)
    frames = frame_signal(sig)
    assert frames.samples is sig.samples
    assert (frames.frame_len_samples, frames.hop_samples) == (frame_len, hop)
    assert len(frames) == (len(sig.samples) - frame_len) // hop + 1
    assert_bits_equal(np.ascontiguousarray(frames.frames), reference_frame_signal(sig))


# Offsets of a block in the full pass, and block lengths from one chunk on
BLOCK_STARTS = (0, 1, 77, CHUNK_FRAMES + 5)
BLOCK_FRAMES = (CHUNK_FRAMES, CHUNK_FRAMES + 1, 2 * CHUNK_FRAMES + 3)


@pytest.mark.parametrize("num_frames", BLOCK_FRAMES)
@pytest.mark.parametrize("first", BLOCK_STARTS)
def test_mfcc_of_a_block_equals_rows_of_the_full_pass(first, num_frames) -> None:
    # a block of a recording is the framing of a slice of its samples; with
    # at least CHUNK_FRAMES frames its rows keep the full pass's bits
    sig = bursty_signal(3 * CHUNK_FRAMES + 20, seed=first + num_frames)
    full = frame_signal(sig)
    hop, frame_len = full.hop_samples, full.frame_len_samples
    span = sig.samples[first * hop:(first + num_frames - 1) * hop + frame_len]
    block = FrameSequence(span, frame_len, hop, sig.sample_rate_hz)
    assert len(block) == num_frames
    assert_bits_equal(compute_mfcc(block, MfccConfig()).rows,
                      compute_mfcc(full, MfccConfig()).rows[first:first + num_frames])
