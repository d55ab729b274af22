import numpy as np
import pytest

from scipy.fft import dct

from feddiar import frontend
from feddiar.errors import (
    InvalidConfig,
    MalformedWav,
    SampleRateTooLow,
    SignalTooShort,
    UnsupportedEncoding,
)
from feddiar.frontend import (
    CHUNK_FRAMES,
    FRAME_MS,
    HOP_MS,
    LOG_FLOOR,
    NUM_MEL_FILTERS,
    PRE_EMPHASIS,
    AudioSignal,
    FeatureMatrix,
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
    with pytest.raises(SignalTooShort):
        frame_signal(sig)


def test_signal_exactly_one_frame() -> None:
    sig = AudioSignal(np.zeros(400), 16000)
    assert len(frame_signal(sig)) == 1


@pytest.mark.parametrize("rate", [1, 20, 50])
def test_sample_rate_whose_hop_holds_no_sample_rejected(rate) -> None:
    with pytest.raises(SampleRateTooLow, match=f"sample rate {rate} Hz"):
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
    with pytest.raises(MalformedWav):
        load_wav(path)


def test_load_rejects_non_16bit(tmp_path) -> None:
    import wave

    path = tmp_path / "b8.wav"
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(1)
        fh.setframerate(16000)
        fh.writeframes(bytes(range(200)))
    with pytest.raises(UnsupportedEncoding):
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


def reference_frame_signal(signal: AudioSignal) -> FrameSequence:
    """The materialised frame matrix: one gathered copy of every frame."""
    frame_len = round(FRAME_MS * signal.sample_rate_hz / 1000)
    hop = round(HOP_MS * signal.sample_rate_hz / 1000)
    num_frames = (len(signal.samples) - frame_len) // hop + 1
    idx = np.arange(frame_len)[None, :] + hop * np.arange(num_frames)[:, None]
    return FrameSequence(signal.samples[idx], frame_len, hop, signal.sample_rate_hz)


def reference_compute_mfcc(frames: FrameSequence, pre_emphasis: float,
                           num_coefficients: int = 12) -> FeatureMatrix:
    """MFCC in one pass over the whole frame matrix."""
    fft_size = 1 << (frames.frame_len_samples - 1).bit_length()
    x = frames.frames
    if pre_emphasis > 0.0:
        x = np.concatenate([x[:, :1], x[:, 1:] - pre_emphasis * x[:, :-1]], axis=1)
    x = x * np.hamming(frames.frame_len_samples)
    spectrum = np.abs(np.fft.rfft(x, n=fft_size, axis=1))
    fb = mel_filterbank(NUM_MEL_FILTERS, fft_size, frames.sample_rate_hz)
    log_mel = np.log(np.maximum(spectrum @ fb.T, LOG_FLOOR))
    rows = dct(log_mel, type=2, axis=1, norm="ortho")[:, 1:num_coefficients + 1]
    return FeatureMatrix(rows=np.ascontiguousarray(rows),
                         frame_times_sec=frames.frame_onsets_sec())


def bursty_signal(num_frames: int, seed: int = 0, sr: int = 16000) -> AudioSignal:
    """Noise whose loudness changes every 10 ms, with near-silent stretches."""
    rng = np.random.default_rng(seed)
    n = 400 + 160 * (num_frames - 1) + int(rng.integers(0, 160))
    envelope = np.repeat(rng.uniform(0.0, 1.0, size=n // 160 + 1) ** 4, 160)[:n]
    return AudioSignal(rng.standard_normal(n) * envelope, sr)


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
    assert_bits_equal(np.ascontiguousarray(frames.frames),
                      reference_frame_signal(sig).frames)


# compute_mfcc pre-emphasises at frontend.PRE_EMPHASIS; with the constant
# set to 0 its chunk loop also runs spectrum_chunks's other branch
@pytest.mark.parametrize("pre_emphasis", [0.0, PRE_EMPHASIS])
@pytest.mark.parametrize("num_frames", CHUNK_EDGE_COUNTS)
def test_chunked_mfcc_bit_equal_to_whole_matrix(num_frames, pre_emphasis, monkeypatch) -> None:
    monkeypatch.setattr(frontend, "PRE_EMPHASIS", pre_emphasis)
    sig = bursty_signal(num_frames, seed=num_frames)
    got = compute_mfcc(frame_signal(sig), MfccConfig())
    want = reference_compute_mfcc(reference_frame_signal(sig), pre_emphasis)
    assert_bits_equal(got.rows, want.rows)
    assert_bits_equal(got.frame_times_sec, want.frame_times_sec)


@pytest.mark.parametrize("pre_emphasis", [0.0, PRE_EMPHASIS])
def test_chunked_mfcc_bit_equal_on_dense_frame_sequence(pre_emphasis, monkeypatch) -> None:
    monkeypatch.setattr(frontend, "PRE_EMPHASIS", pre_emphasis)
    rng = np.random.default_rng(8)
    frames = FrameSequence(rng.standard_normal((3 * CHUNK_FRAMES + 7, 400)), 400, 160, 16000)
    assert_bits_equal(compute_mfcc(frames, MfccConfig()).rows,
                      reference_compute_mfcc(frames, pre_emphasis).rows)


@pytest.mark.parametrize("pre_emphasis", [0.0, 0.97])
@pytest.mark.parametrize("fft_size", [400, 511, 512, 1024])   # exact, odd, padded
def test_spectrum_chunks_bit_equal_to_padding_rfft(fft_size, pre_emphasis) -> None:
    # spectrum_chunks transforms a zero-tailed buffer; numpy pads each row
    # itself when n exceeds the row length
    sig = bursty_signal(2 * CHUNK_FRAMES + 40, seed=fft_size)
    frames = frame_signal(sig)
    x = frames.frames
    if pre_emphasis > 0.0:
        x = np.concatenate([x[:, :1], x[:, 1:] - pre_emphasis * x[:, :-1]], axis=1)
    want = np.abs(np.fft.rfft(x * np.hamming(400), n=fft_size, axis=1))
    index = np.random.default_rng(fft_size).permutation(len(frames))[:CHUNK_FRAMES + 3]
    for idx, rows in ((None, want), (index, want[index])):
        got = np.empty_like(rows)
        for start, mag in spectrum_chunks(frames, fft_size, pre_emphasis, idx):
            got[start:start + len(mag)] = mag
        assert_bits_equal(got, rows)
