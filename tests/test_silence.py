import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_frontend import (
    CHUNK_EDGE_COUNTS,
    assert_bits_equal,
    bursty_signal,
    reference_frame_signal,
)

from feddiar.errors import DimensionMismatch, TooFewFrames
from feddiar.frontend import CHUNK_FRAMES, AudioSignal, FrameSequence, MfccConfig, frame_signal
from feddiar.silence import (
    ENERGY_FLOOR,
    NoiseProfile,
    QuasiSilenceRegion,
    SilenceConfig,
    detect_quasi_silences,
    estimate_noise_profile,
    silent_frame_mask,
    spectral_subtract,
    write_region_csv,
)


def repeated_frame_sequence(frame, n):
    frames = np.tile(frame, (n, 1))
    return FrameSequence(frames, frame.shape[0], frame.shape[0] // 2, 16000)


def test_noise_profile_needs_ten_frames() -> None:
    frame = np.random.default_rng(0).standard_normal(400)
    with pytest.raises(TooFewFrames):
        estimate_noise_profile(repeated_frame_sequence(frame, 9), SilenceConfig())
    estimate_noise_profile(repeated_frame_sequence(frame, 10), SilenceConfig())


def test_noise_profile_shape() -> None:
    frame = np.random.default_rng(1).standard_normal(400)
    prof = estimate_noise_profile(repeated_frame_sequence(frame, 20), SilenceConfig())
    assert prof.magnitude_spectrum_estimate.shape == (257,)
    assert np.all(prof.magnitude_spectrum_estimate >= 0)
    assert prof.frames_used == 2


def test_exact_cancellation_gives_zero_energy() -> None:
    # every frame equals the noise estimate, so the residual vanishes
    frame = 0.1 * np.random.default_rng(2).standard_normal(400)
    seq = repeated_frame_sequence(frame, 20)
    prof = estimate_noise_profile(seq, SilenceConfig())
    energy = spectral_subtract(seq, prof)
    assert energy.shape == (20,)
    assert np.max(energy) < 1e-18


def test_zero_profile_keeps_full_spectrum_energy() -> None:
    sig = AudioSignal(0.3 * np.sin(2 * np.pi * 440 * np.arange(8000) / 16000), 16000)
    seq = frame_signal(sig, MfccConfig())
    zero = NoiseProfile(np.zeros(257), 0)
    energy = spectral_subtract(seq, zero)
    assert np.all(energy > 0)


def test_profile_dimension_checked() -> None:
    frame = np.random.default_rng(3).standard_normal(400)
    seq = repeated_frame_sequence(frame, 12)
    with pytest.raises(DimensionMismatch):
        spectral_subtract(seq, NoiseProfile(np.zeros(100), 0))


def test_detects_single_quiet_stretch() -> None:
    track = np.concatenate([np.full(50, 1.0), np.full(30, 1e-9), np.full(50, 1.0)])
    regions = detect_quasi_silences(track, SilenceConfig())
    assert len(regions) == 1
    assert (regions[0].start_frame, regions[0].end_frame) == (50, 79)
    assert len(regions[0]) == 30
    assert regions[0].mean_energy_db < -60.0


def test_short_quiet_runs_dropped() -> None:
    track = np.concatenate([np.full(50, 1.0), np.full(5, 1e-9), np.full(50, 1.0)])
    assert detect_quasi_silences(track, SilenceConfig()) == []


def test_all_zero_track_is_one_region() -> None:
    regions = detect_quasi_silences(np.zeros(40), SilenceConfig())
    assert len(regions) == 1
    assert (regions[0].start_frame, regions[0].end_frame) == (0, 39)


def test_constant_loud_track_has_no_silence() -> None:
    assert detect_quasi_silences(np.ones(200), SilenceConfig()) == []


def test_regions_disjoint_sorted_and_long_enough() -> None:
    rng = np.random.default_rng(4)
    track = np.abs(rng.standard_normal(500)) + 0.5
    for start in (40, 160, 300, 420):
        track[start:start + rng.integers(8, 40)] = 1e-10
    cfg = SilenceConfig()
    regions = detect_quasi_silences(track, cfg)
    last_end = -1
    for r in regions:
        assert r.start_frame > last_end
        assert r.end_frame >= r.start_frame
        assert len(r) >= cfg.min_region_frames
        last_end = r.end_frame
    mask = silent_frame_mask(regions, 500)
    assert mask.sum() == sum(len(r) for r in regions)


def test_region_csv(tmp_path) -> None:
    track = np.concatenate([np.full(20, 1.0), np.full(15, 1e-9), np.full(20, 1.0)])
    regions = detect_quasi_silences(track, SilenceConfig())
    path = tmp_path / "r.csv"
    write_region_csv(path, regions, hop_sec=0.010)
    lines = path.read_text().splitlines()
    assert lines[0] == "start_sec,end_sec,mean_energy_db"
    start, end, _ = lines[1].split(",")
    assert float(start) == pytest.approx(0.20)
    assert float(end) == pytest.approx(0.35)


# -- chunked passes and vectorised run finding against the old code ---------

def reference_magnitude_spectra(frames: FrameSequence, fft_size: int) -> np.ndarray:
    windowed = frames.frames * np.hamming(frames.frame_len_samples)
    return np.abs(np.fft.rfft(windowed, n=fft_size, axis=1))


def reference_noise_profile(frames: FrameSequence, cfg: SilenceConfig) -> NoiseProfile:
    """Noise profile from the full (frames x bins) spectra."""
    spectra = reference_magnitude_spectra(frames, MfccConfig().resolve_fft_size(16000))
    energies = np.mean(spectra ** 2, axis=1)
    k = max(1, int(np.floor(cfg.noise_percentile * len(frames))))
    quietest = np.argsort(energies, kind="stable")[:k]
    return NoiseProfile(spectra[quietest].mean(axis=0), k)


def reference_spectral_subtract(frames: FrameSequence, noise: NoiseProfile) -> np.ndarray:
    spectra = reference_magnitude_spectra(frames, MfccConfig().resolve_fft_size(16000))
    residual = np.maximum(spectra - noise.magnitude_spectrum_estimate, 0.0)
    return np.mean(residual ** 2, axis=1)


def reference_detect_quasi_silences(energy_track, cfg: SilenceConfig):
    """Run finding by a Python loop over every frame."""
    energy = np.asarray(energy_track, dtype=np.float64)
    peak = np.percentile(energy, 95.0)
    if peak <= ENERGY_FLOOR:
        silent = np.ones(energy.size, dtype=bool)
    else:
        snr_db = 10.0 * np.log10(peak / np.maximum(energy, ENERGY_FLOOR))
        silent = snr_db >= cfg.threshold_db
    regions = []
    start = None
    for i, flag in enumerate(np.append(silent, False)):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if i - start >= cfg.min_region_frames:
                mean_e = float(np.mean(energy[start:i]))
                regions.append(QuasiSilenceRegion(
                    start_frame=start,
                    end_frame=i - 1,
                    mean_energy_db=10.0 * np.log10(max(mean_e, ENERGY_FLOOR)),
                ))
            start = None
    return regions


def check_silence_stage_bit_equal(chunked: FrameSequence, dense: FrameSequence,
                                  cfg: SilenceConfig = SilenceConfig()) -> None:
    noise = estimate_noise_profile(chunked, cfg)
    want_noise = reference_noise_profile(dense, cfg)
    assert noise.frames_used == want_noise.frames_used
    assert_bits_equal(noise.magnitude_spectrum_estimate, want_noise.magnitude_spectrum_estimate)
    energy = spectral_subtract(chunked, noise)
    assert_bits_equal(energy, reference_spectral_subtract(dense, want_noise))
    assert detect_quasi_silences(energy, cfg) == reference_detect_quasi_silences(energy, cfg)


@pytest.mark.parametrize("num_frames", [n for n in CHUNK_EDGE_COUNTS if n >= 10])
def test_chunked_silence_stage_bit_equal_to_whole_matrix(num_frames) -> None:
    sig = bursty_signal(num_frames, seed=num_frames)
    check_silence_stage_bit_equal(frame_signal(sig, MfccConfig()),
                                  reference_frame_signal(sig, MfccConfig()))


@pytest.mark.parametrize("noise_percentile", [0.1, 0.9])   # 0.9: quietest in 2 chunks
def test_chunked_silence_stage_bit_equal_on_dense_frame_sequence(noise_percentile) -> None:
    rng = np.random.default_rng(9)
    loudness = rng.uniform(0.0, 1.0, size=(3 * CHUNK_FRAMES + 7, 1)) ** 4
    frames = FrameSequence(rng.standard_normal((3 * CHUNK_FRAMES + 7, 400)) * loudness,
                           400, 160, 16000)
    check_silence_stage_bit_equal(frames, frames,
                                  SilenceConfig(noise_percentile=noise_percentile))


@settings(max_examples=200, deadline=None)
@given(
    runs=st.lists(st.tuples(st.booleans(), st.integers(1, 30)), min_size=1, max_size=30),
    seed=st.integers(0, 2**32 - 1),
    min_region_frames=st.integers(1, 15),
    threshold_db=st.sampled_from([10.0, 40.0, 60.0]),
)
def test_vectorised_run_finding_matches_loop(runs, seed, min_region_frames, threshold_db) -> None:
    rng = np.random.default_rng(seed)
    quiet = np.concatenate([np.full(length, flag) for flag, length in runs])
    # loud frames near 1, quiet ones spread over many decades around the threshold
    energy = np.where(quiet, 10.0 ** rng.uniform(-12.0, -2.0, quiet.size),
                      rng.uniform(0.5, 2.0, quiet.size))
    if rng.random() < 0.1:
        energy[:] = 0.0
    cfg = SilenceConfig(threshold_db=threshold_db, min_region_frames=min_region_frames)
    assert detect_quasi_silences(energy, cfg) == reference_detect_quasi_silences(energy, cfg)
