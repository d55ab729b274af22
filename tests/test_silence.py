import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_frontend import (
    CHUNK_EDGE_COUNTS,
    assert_bits_equal,
    bursty_signal,
    reference_frame_signal,
)

from feddiar import silence
from feddiar.errors import DimensionMismatch, TooFewFrames
from feddiar.frontend import (
    CHUNK_FRAMES,
    AudioSignal,
    FrameSequence,
    frame_signal,
    spectrum_chunks,
)
from feddiar.silence import (
    CANDIDATE_FLOOR,
    CANDIDATE_MARGIN,
    ENERGY_FLOOR,
    MIN_FRAMES_FOR_NOISE,
    NoiseProfile,
    QuasiSilenceRegion,
    SilenceConfig,
    detect_quasi_silences,
    estimate_noise_profile,
    find_quasi_silences,
    parseval_energies,
    silent_frame_mask,
    spectral_subtract,
    write_region_csv,
)
from feddiar.synth import random_conversation_spec, synth_conversation


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


def test_silence_transforms_whole_frames() -> None:
    # 40 ms frames hold 640 samples: a 1024-point transform, where 512
    # points would leave each frame's tail out
    samples = bursty_signal(60, seed=4).samples
    frames = FrameSequence(sliding_window_view(samples, 640)[::160], 640, 160, 16000)
    noise = estimate_noise_profile(frames, SilenceConfig())
    assert noise.magnitude_spectrum_estimate.shape == (513,)
    assert frames.fft_size == 1024
    cut = frames.frames.copy()
    cut[:, 600:] = 0.0
    assert not np.array_equal(spectral_subtract(replace(frames, frames=cut), noise),
                              spectral_subtract(frames, noise))


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
    seq = frame_signal(sig)
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

# transform size of the 400-sample frames that the references are given
REFERENCE_FFT_SIZE = 512


def reference_magnitude_spectra(frames: FrameSequence, fft_size: int) -> np.ndarray:
    windowed = frames.frames * np.hamming(frames.frame_len_samples)
    return np.abs(np.fft.rfft(windowed, n=fft_size, axis=1))


def reference_noise_profile(frames: FrameSequence, cfg: SilenceConfig) -> NoiseProfile:
    """Noise profile from the full (frames x bins) spectra."""
    spectra = reference_magnitude_spectra(frames, REFERENCE_FFT_SIZE)
    energies = np.mean(spectra ** 2, axis=1)
    k = max(1, int(np.floor(cfg.noise_percentile * len(frames))))
    quietest = np.argsort(energies, kind="stable")[:k]
    return NoiseProfile(spectra[quietest].mean(axis=0), k)


def reference_spectral_subtract(frames: FrameSequence, noise: NoiseProfile) -> np.ndarray:
    spectra = reference_magnitude_spectra(frames, REFERENCE_FFT_SIZE)
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
    check_silence_stage_bit_equal(frame_signal(sig),
                                  reference_frame_signal(sig))


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


# -- the noise profile ranks frames by Parseval energy, then re-ranks exactly --

def frames_around_kth(group: np.ndarray, noise_percentile: float, seed: int) -> FrameSequence:
    """3 * CHUNK_FRAMES + 7 frames in shuffled order in which the k-th quietest
    falls in the middle of `group`: k - len(group) // 2 all-zero frames lie
    below it, loud random frames above it."""
    rng = np.random.default_rng(seed)
    n = 3 * CHUNK_FRAMES + 7
    k = int(np.floor(noise_percentile * n))
    below = k - len(group) // 2
    loud = rng.standard_normal((n - below - len(group), group.shape[1]))
    rows = np.vstack([np.zeros((below, group.shape[1])), group, loud])
    return FrameSequence(rows[rng.permutation(n)], group.shape[1], 160, 16000)


def fft_energies(frames: FrameSequence) -> np.ndarray:
    return np.mean(reference_magnitude_spectra(frames, 512) ** 2, axis=1)


def near_tie_group(seed: int, size: int = 40) -> np.ndarray:
    """Random frames scaled to one FFT energy, and their time-reversed copies
    (equal energies in exact arithmetic): the FFT and Parseval's sums round
    them apart in a few ulps, each in its own way."""
    base = np.random.default_rng(seed).standard_normal((size // 2, 400))
    base *= 0.01 / np.sqrt(fft_energies(FrameSequence(base, 400, 160, 16000)))[:, None]
    return np.vstack([base, base[:, ::-1]])


@pytest.mark.parametrize("fft_size", [511, 512, 1024])   # odd, padded
def test_parseval_energies_match_fft_energies(fft_size) -> None:
    frames = frame_signal(bursty_signal(3 * CHUNK_FRAMES + 7, seed=8))
    spectra = np.abs(np.fft.rfft(frames.frames * np.hamming(400), n=fft_size, axis=1))
    want = np.mean(spectra ** 2, axis=1)
    np.testing.assert_allclose(parseval_energies(frames, fft_size), want, rtol=1e-13)


@pytest.mark.parametrize("noise_percentile", [0.1, 0.9])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scale", [1.0, 1e-157])    # 1e-157: subnormal energies
def test_rerank_exact_where_parseval_and_fft_order_disagree(noise_percentile, seed,
                                                             scale) -> None:
    frames = frames_around_kth(scale * near_tie_group(seed), noise_percentile, seed)
    cfg = SilenceConfig(noise_percentile=noise_percentile)
    k = int(np.floor(noise_percentile * len(frames)))
    by_fft = np.argsort(fft_energies(frames), kind="stable")[:k]
    by_parseval = np.argsort(parseval_energies(frames, 512), kind="stable")[:k]
    assert set(by_fft.tolist()) != set(by_parseval.tolist())   # the inputs bite
    check_silence_stage_bit_equal(frames, frames, cfg)


@pytest.mark.parametrize("noise_percentile", [0.1, 0.9])
@pytest.mark.parametrize("scale", [0.0, 1e-170])
def test_rerank_exact_on_zero_and_underflowing_frames(noise_percentile, scale) -> None:
    # 1e-170: every square underflows, so all energies tie at 0 while the
    # spectra differ, and the lower frames must win
    rng = np.random.default_rng(5)
    group = scale * rng.standard_normal((60, 400)) * 10.0 ** rng.uniform(-2, 2, (60, 1))
    frames = frames_around_kth(group, noise_percentile, seed=6)
    check_silence_stage_bit_equal(frames, frames, SilenceConfig(noise_percentile=noise_percentile))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("noise_percentile", [0.1, 0.9])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_noise_profile_on_non_finite_frames_matches_old_code(noise_percentile, bad) -> None:
    rng = np.random.default_rng(7)
    n = 3 * CHUNK_FRAMES + 7
    rows = rng.standard_normal((n, 400)) * rng.uniform(0, 1, (n, 1)) ** 4
    rows[rng.choice(len(rows), size=120, replace=False), rng.integers(0, 400)] = bad
    frames = FrameSequence(rows, 400, 160, 16000)
    cfg = SilenceConfig(noise_percentile=noise_percentile)
    noise = estimate_noise_profile(frames, cfg)
    want = reference_noise_profile(frames, cfg)
    assert noise.frames_used == want.frames_used
    assert_bits_equal(noise.magnitude_spectrum_estimate, want.magnitude_spectrum_estimate)


def transformed_rows(monkeypatch, run) -> list[int]:
    """Rows of each spectrum pass that the silence module makes in run().
    The calls that share one iterator of chunks, one per thread, are one pass."""
    calls, passes = [], []
    lock = threading.Lock()

    def counting(frames, fft_size, pre_emphasis=0.0, index=None, chunks=None):
        with lock:
            if chunks is None or not any(c is chunks for c in passes):
                passes.append(chunks)
                calls.append(len(frames) if index is None else len(index))
        return spectrum_chunks(frames, fft_size, pre_emphasis, index, chunks)

    with monkeypatch.context() as m:
        m.setattr(silence, "spectrum_chunks", counting)
        run()
    return calls


def candidate_count(frames: FrameSequence, k: int) -> int:
    energies = parseval_energies(frames, 512)
    kth = np.sort(energies)[k - 1]
    return int(np.count_nonzero(energies <= kth * (1 + CANDIDATE_MARGIN) + CANDIDATE_FLOOR))


@pytest.fixture(scope="module")
def three_minute_frames() -> FrameSequence:
    spec = random_conversation_spec(num_speakers=4, seed=11, min_changes=60, max_changes=60)
    audio, _ = synth_conversation(spec)
    assert audio.duration_sec > 120.0
    return frame_signal(audio)


def test_noise_profile_transforms_only_candidates(monkeypatch, three_minute_frames) -> None:
    frames = three_minute_frames
    cfg = SilenceConfig()
    k = int(np.floor(cfg.noise_percentile * len(frames)))
    assert candidate_count(frames, k) == k
    assert sum(transformed_rows(monkeypatch, lambda: estimate_noise_profile(frames, cfg))) == 2 * k


@pytest.mark.parametrize("noise_percentile", [0.1, 0.9])
def test_noise_profile_row_budget_on_near_ties(monkeypatch, noise_percentile) -> None:
    frames = frames_around_kth(near_tie_group(0), noise_percentile, seed=0)
    cfg = SilenceConfig(noise_percentile=noise_percentile)
    k = int(np.floor(noise_percentile * len(frames)))
    candidates = candidate_count(frames, k)
    assert k < candidates < len(frames)
    assert sum(transformed_rows(monkeypatch, lambda: estimate_noise_profile(frames, cfg))) <= 2 * candidates


# -- quasi-silences from Parseval bounds, against the full subtraction pass --

def region_bits(regions: list[QuasiSilenceRegion]) -> list[tuple[int, int, bytes]]:
    return [(r.start_frame, r.end_frame, np.float64(r.mean_energy_db).tobytes())
            for r in regions]


def silent_mask(track: np.ndarray, cfg: SilenceConfig) -> np.ndarray:
    peak = np.percentile(track, 95.0)
    if peak <= ENERGY_FLOOR:
        return np.ones(track.shape, dtype=bool)
    return 10.0 * np.log10(peak / np.maximum(track, ENERGY_FLOOR)) >= cfg.threshold_db


def check_quasi_silences_exact(frames: FrameSequence, noise: NoiseProfile,
                               cfg: SilenceConfig) -> None:
    """Regions equal to the full pass's, and so are the decisions behind them:
    the peak, the silent mask and the silent frames' energies. (A peak one
    ulp off rarely moves a region, so the track is checked as well.)"""
    seen = []

    def recording(track, cfg):
        seen.append(track.copy())
        return detect_quasi_silences(track, cfg)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(silence, "detect_quasi_silences", recording)
        got = find_quasi_silences(frames, noise, cfg)
    want_track = spectral_subtract(frames, noise)
    assert region_bits(got) == region_bits(detect_quasi_silences(want_track, cfg))
    track, = seen
    assert_bits_equal(np.percentile(track, 95.0), np.percentile(want_track, 95.0))
    silent = silent_mask(want_track, cfg)
    assert np.array_equal(silent_mask(track, cfg), silent)
    assert_bits_equal(track[silent], want_track[silent])


def residual_bounds(frames: FrameSequence, noise: NoiseProfile) -> tuple[np.ndarray, np.ndarray]:
    """The widened Parseval bounds on the residual energy, as documented in
    find_quasi_silences."""
    energy = parseval_energies(frames, 512)
    noise_rms = math.sqrt(np.mean(noise.magnitude_spectrum_estimate ** 2))
    root = np.maximum(np.sqrt(energy) * (1 - CANDIDATE_MARGIN)
                      - noise_rms * (1 + CANDIDATE_MARGIN), 0.0)
    lower = root ** 2 * (1 - CANDIDATE_MARGIN) - CANDIDATE_FLOOR
    return lower, energy * (1 + CANDIDATE_MARGIN) + CANDIDATE_FLOOR


def percentile_candidates(frames: FrameSequence, noise: NoiseProfile) -> np.ndarray:
    """Frames whose bounds meet the window of the 95th percentile's ranks."""
    lower, upper = residual_bounds(frames, noise)
    n = len(frames)
    rank = 0.95 * (n - 1)
    k0 = max(math.floor(rank - CANDIDATE_MARGIN * n), 0)
    k1 = min(math.floor(rank + CANDIDATE_MARGIN * n) + 1, n - 1)
    return (lower <= np.sort(upper)[k1]) & (upper >= np.sort(lower)[k0])


@pytest.fixture(scope="module")
def conversations() -> list[FrameSequence]:
    """Dense frames of three short conversations, which tests edit copies of."""
    out = []
    for seed in range(3):
        spec = random_conversation_spec(num_speakers=2 + seed, seed=seed,
                                        min_changes=4, max_changes=8)
        frames = frame_signal(synth_conversation(spec)[0])
        out.append(FrameSequence(np.array(frames.frames), 400, 160, 16000))
    return out


def frames_with_ties_at_peak(seed: int, scale: float) -> FrameSequence:
    """Near-tied frames (see near_tie_group) across the ranks that
    np.percentile(.., 95) interpolates between."""
    return frames_around_kth(scale * near_tie_group(seed), 0.95, seed)


def edited_frames(conv: FrameSequence, seed: int, start: float, length: int,
                  edit: str) -> FrameSequence:
    if edit == "ties at the peak":
        return frames_with_ties_at_peak(seed, 1.0)
    length = min(length, len(conv))
    first = int(start * (len(conv) - length))
    rows = conv.frames[first:first + length].copy()
    rng = np.random.default_rng([seed, first, length])
    if edit == "all zero":
        rows[:] = 0.0
    elif edit == "constant":
        rows[:] = rows[0]
    elif edit == "constant, a few loud":    # peak at the floor, bounds above it
        rows[:] = rows[0]
        rows[rng.choice(length, size=length // 30, replace=False)] *= 10.0
    elif edit == "zero stretch":
        a, b = np.sort(rng.integers(0, length + 1, size=2))
        rows[a:b] = 0.0
    elif edit in ("nan", "inf"):
        hit = rng.choice(length, size=max(1, length // 50), replace=False)
        rows[hit, rng.integers(0, 400)] = np.nan if edit == "nan" else -np.inf
    elif edit == "subnormal":
        rows *= 1e-160
    elif edit == "huge":       # squares near overflow
        rows *= 1e153
    return FrameSequence(rows, 400, 160, 16000)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2),
    start=st.floats(0.0, 1.0),
    length=st.one_of(st.integers(1, 2 * CHUNK_FRAMES - 1), st.integers(1, 10**5)),
    edit=st.sampled_from(["none", "all zero", "constant", "constant, a few loud",
                          "zero stretch", "nan", "inf", "subnormal", "huge",
                          "ties at the peak"]),
    profile=st.sampled_from(["estimated", "halved", "zero", "negative"]),
    threshold_db=st.sampled_from([1.0, 30.0, 60.0, 80.0]),
    noise_percentile=st.sampled_from([0.1, 0.9]),
)
# a whole conversation with bounds as tight as rounding: each of the peak's
# ranks decides its bits
@example(seed=0, start=0.0, length=10**5, edit="none", profile="zero",
         threshold_db=60.0, noise_percentile=0.1)
@example(seed=0, start=0.5, length=3000, edit="constant, a few loud", profile="estimated",
         threshold_db=60.0, noise_percentile=0.1)
# a negative profile breaks the upper bound, so every frame is subtracted
@example(seed=0, start=0.0, length=10**5, edit="none", profile="negative",
         threshold_db=1.0, noise_percentile=0.1)
def test_find_quasi_silences_equals_full_subtraction(conversations, seed, start, length, edit,
                                                     profile, threshold_db,
                                                     noise_percentile) -> None:
    frames = edited_frames(conversations[seed], seed, start, length, edit)
    cfg = SilenceConfig(threshold_db=threshold_db, noise_percentile=noise_percentile)
    source = frames if len(frames) >= MIN_FRAMES_FOR_NOISE else conversations[seed]
    noise = estimate_noise_profile(source, cfg)
    if profile != "estimated":
        factor = {"halved": 0.5, "zero": 0.0, "negative": -30.0}[profile]
        noise = NoiseProfile(factor * noise.magnitude_spectrum_estimate, noise.frames_used)
    check_quasi_silences_exact(frames, noise, cfg)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scale", [1.0, 1e-157])    # 1e-157: subnormal energies
def test_find_quasi_silences_exact_on_ties_at_the_peak(seed, scale) -> None:
    # The quietest frames are all-zero, so the profile is zero and the bounds
    # are as tight as rounding: without their margin, or without one of the
    # peak's ranks, the peak changes.
    frames = frames_with_ties_at_peak(seed, scale)
    noise = estimate_noise_profile(frames, SilenceConfig())
    assert not noise.magnitude_spectrum_estimate.any()
    track = spectral_subtract(frames, noise)
    lower, upper = residual_bounds(frames, noise)
    assert np.all(lower <= track) and np.all(track <= upper)
    by_track = np.argsort(track, kind="stable")
    by_parseval = np.argsort(parseval_energies(frames, 512), kind="stable")
    k0 = math.floor(0.95 * (len(frames) - 1))
    assert set(by_track[k0:k0 + 2].tolist()) != set(by_parseval[k0:k0 + 2].tolist())
    for threshold_db in (1.0, 30.0, 60.0, 80.0):
        check_quasi_silences_exact(frames, noise, SilenceConfig(threshold_db=threshold_db))


@pytest.mark.parametrize("size", [0, 1, CHUNK_FRAMES - 1, CHUNK_FRAMES + 1, 2 * CHUNK_FRAMES - 1,
                                  2 * CHUNK_FRAMES + 1, 4 * CHUNK_FRAMES + 40])
def test_spectral_subtract_index_equals_full_pass_rows(size) -> None:
    frames = frame_signal(bursty_signal(3 * CHUNK_FRAMES + 7, seed=size))
    noise = estimate_noise_profile(frames, SilenceConfig())
    # unsorted, with repeats
    index = np.random.default_rng(size).integers(0, len(frames), size=size)
    assert_bits_equal(spectral_subtract(frames, noise, index=index),
                      spectral_subtract(frames, noise)[index])


def test_find_quasi_silences_transforms_silent_and_peak_frames_only(
        monkeypatch, three_minute_frames) -> None:
    frames = three_minute_frames
    cfg = SilenceConfig()
    noise = estimate_noise_profile(frames, cfg)
    track = spectral_subtract(frames, noise)
    peak = np.percentile(track, 95.0)
    silent = 10.0 * np.log10(peak / np.maximum(track, ENERGY_FLOOR)) >= cfg.threshold_db
    candidates = percentile_candidates(frames, noise)
    regions = []
    rows = transformed_rows(monkeypatch,
                            lambda: regions.extend(find_quasi_silences(frames, noise, cfg)))
    assert region_bits(regions) == region_bits(detect_quasi_silences(track, cfg))
    assert len(rows) == 1
    assert rows[0] <= np.count_nonzero(silent | candidates)
    assert rows[0] <= 0.25 * len(frames)
