import dataclasses
import tracemalloc

import numpy as np
import pytest

from feddiar import synth
from feddiar.errors import InvalidSpec
from feddiar.seeding import substream
from feddiar.synth import (
    AM_DEPTH,
    BAND_GAINS,
    ENVELOPE_FLOOR,
    MAX_CHANGES,
    MAX_SPEAKERS,
    SAMPLE_RATE_HZ,
    TURN_RMS,
    SynthSpec,
    TurnInterval,
    _turn_samples,
    _turn_waveform,
    make_profiles,
    random_conversation_spec,
    speaker_frame_corpus,
    synth_conversation,
    synth_corpus,
)


def spec_for(turns, num_speakers=2, seed=0, **kwargs):
    return SynthSpec(num_speakers=num_speakers, turns=tuple(turns),
                     speaker_profiles=make_profiles(num_speakers, seed),
                     seed=seed, **kwargs)


def change_count(spec):
    speakers = [s for s, _ in spec.turns]
    return sum(a != b for a, b in zip(speakers, speakers[1:]))


def test_single_speaker_no_change_points() -> None:
    spec = spec_for([(0, 2.0)], num_speakers=1)
    assert change_count(spec) == 0
    audio, truth = synth_conversation(spec)
    assert truth.change_points_sec == []
    assert audio.duration_sec > 2.0


def test_alternating_turns_three_change_points() -> None:
    spec = spec_for([(0, 1.5), (1, 1.5), (0, 1.5), (1, 1.5)])
    assert change_count(spec) == 3
    _, truth = synth_conversation(spec)
    assert len(truth.change_points_sec) == 3
    assert truth.change_points_sec == sorted(truth.change_points_sec)


def test_same_speaker_adjacency_not_a_change() -> None:
    spec = spec_for([(0, 1.0), (0, 1.0), (1, 1.0)])
    _, truth = synth_conversation(spec)
    assert len(truth.change_points_sec) == 1


def test_change_points_sit_in_quiet_gaps() -> None:
    spec = spec_for([(0, 1.5), (1, 1.5), (0, 1.5)])
    audio, truth = synth_conversation(spec)
    sr = audio.sample_rate_hz
    for cp in truth.change_points_sec:
        i = int(round(cp * sr))
        neighborhood = audio.samples[max(0, i - 50):i + 50]
        assert np.max(np.abs(neighborhood)) < 0.01


def test_turn_levels_and_gap_levels() -> None:
    spec = spec_for([(0, 2.0), (1, 2.0)])
    audio, truth = synth_conversation(spec)
    sr = audio.sample_rate_hz
    first = truth.turns[0]
    mid = audio.samples[int((first.start_sec + 0.3) * sr):int((first.end_sec - 0.3) * sr)]
    rms = float(np.sqrt(np.mean(mid ** 2)))
    assert 0.05 < rms < 0.2
    lead = audio.samples[:int(truth.turns[0].start_sec * sr) - 50]
    assert np.max(np.abs(lead)) < 1e-3


def test_truth_turns_cover_requested_durations() -> None:
    spec = spec_for([(0, 1.2), (1, 0.8)])
    _, truth = synth_conversation(spec)
    assert len(truth.turns) == 2
    assert isinstance(truth.turns[0], TurnInterval)
    for (speaker, dur), turn in zip(spec.turns, truth.turns):
        assert turn.speaker_id == speaker
        assert turn.end_sec - turn.start_sec == pytest.approx(dur, abs=0.01)


def test_synthesis_deterministic() -> None:
    spec = spec_for([(0, 1.0), (1, 1.0)], seed=9)
    a_audio, a_truth = synth_conversation(spec)
    b_audio, b_truth = synth_conversation(spec)
    assert np.array_equal(a_audio.samples, b_audio.samples)
    assert a_truth.change_points_sec == b_truth.change_points_sec


def test_invalid_specs_rejected() -> None:
    profiles = make_profiles(2, 0)
    bad = [
        SynthSpec(0, ((0, 1.0),), profiles),
        SynthSpec(2, (), profiles),
        SynthSpec(2, ((2, 1.0),), profiles),
        SynthSpec(2, ((0, -1.0),), profiles),
        SynthSpec(2, ((0, 1.0),), profiles, gap_sec=-0.1),
        SynthSpec(2, ((0, 1.0),), profiles, sample_rate_hz=500),
        SynthSpec(2, ((0, 1.0),), profiles[:1]),
    ]
    for spec in bad:
        with pytest.raises(InvalidSpec):
            synth_conversation(spec)


def test_conversation_beyond_memory_rejected() -> None:
    # 1e12 s gaps: 4.8e16 samples fit one array's index range but not the
    # machine, and numpy refuses the allocation before making it
    spec = spec_for([(0, 1.0), (1, 1.0)], gap_sec=1e12)
    with pytest.raises(InvalidSpec, match="48000000000032000 samples"):
        synth_conversation(spec)


def test_profiles_distinct_and_seeded() -> None:
    a = make_profiles(4, seed=1)
    b = make_profiles(4, seed=1)
    assert a == b
    f0s = [p.f0_hz for p in a]
    assert len(set(f0s)) == 4
    assert all(80.0 < f0 < 200.0 for f0 in f0s)


def test_random_spec_change_count_in_range() -> None:
    for seed in range(6):
        spec = random_conversation_spec(num_speakers=3, seed=seed)
        assert 3 <= change_count(spec) <= 20
        assert all(t[0] in range(3) for t in spec.turns)
        _, truth = synth_conversation(spec)
        assert len(truth.change_points_sec) == change_count(spec)


def test_random_spec_validation() -> None:
    with pytest.raises(InvalidSpec):
        random_conversation_spec(num_speakers=1, seed=0)
    with pytest.raises(InvalidSpec):
        random_conversation_spec(num_speakers=2, seed=0, min_changes=5, max_changes=4)


def test_random_spec_refuses_huge_counts_before_drawing(monkeypatch) -> None:
    # the top speaker's pitch stays below the Nyquist frequency, jitter
    # included, and the next rung of the ladder would reach it
    assert MAX_SPEAKERS == 360
    top = synth.F0_BASE_HZ + synth.F0_STEP_HZ * (MAX_SPEAKERS - 1)
    assert top + 3.0 < SAMPLE_RATE_HZ / 2 <= top + synth.F0_STEP_HZ
    spec = random_conversation_spec(num_speakers=MAX_SPEAKERS)
    assert len(spec.speaker_profiles) == MAX_SPEAKERS

    def unreachable(*args, **kwargs):
        raise AssertionError("drew before refusing")

    # 10**12 speakers or changes used to run make_profiles or the layout
    # loop without end
    monkeypatch.setattr(synth, "make_profiles", unreachable)
    monkeypatch.setattr(synth, "substream", unreachable)
    for kwargs in [dict(num_speakers=MAX_SPEAKERS + 1), dict(num_speakers=10**12),
                   dict(min_changes=1, max_changes=MAX_CHANGES + 1),
                   dict(min_changes=10**12, max_changes=10**12)]:
        with pytest.raises(InvalidSpec):
            random_conversation_spec(**kwargs)


def test_speaker_corpus_refuses_huge_counts_before_drawing(monkeypatch) -> None:
    def unreachable(*args, **kwargs):
        raise AssertionError("drew before refusing")

    # fedsim with 10**12 speakers used to run make_profiles without end
    monkeypatch.setattr(synth, "make_profiles", unreachable)
    monkeypatch.setattr(synth, "substream", unreachable)
    for num_speakers in [MAX_SPEAKERS + 1, 10**12]:
        with pytest.raises(InvalidSpec, match=f"at most {MAX_SPEAKERS} speakers"):
            speaker_frame_corpus(num_speakers, seed=0)


def test_corpus_seeded_and_varied() -> None:
    corpus = synth_corpus(3, 2, seed=5)
    again = synth_corpus(3, 2, seed=5)
    assert len(corpus) == 3
    for (a_audio, a_truth), (b_audio, b_truth) in zip(corpus, again):
        assert np.array_equal(a_audio.samples, b_audio.samples)
        assert a_truth.change_points_sec == b_truth.change_points_sec
    assert not np.array_equal(corpus[0][0].samples[:1000], corpus[1][0].samples[:1000])


def test_speaker_frame_corpus_shapes() -> None:
    corpus = speaker_frame_corpus(3, seed=2, seconds_per_speaker=2.0)
    assert sorted(corpus) == [0, 1, 2]
    for rows in corpus.values():
        assert rows.ndim == 2
        assert rows.shape[1] == 12
        assert rows.shape[0] > 100
    again = speaker_frame_corpus(3, seed=2, seconds_per_speaker=2.0)
    assert all(np.array_equal(corpus[k], again[k]) for k in corpus)
    assert not np.allclose(corpus[0].mean(axis=0), corpus[1].mean(axis=0), atol=0.1)


def whole_expression_turn(profile, duration_sec, sample_rate_hz, rng) -> np.ndarray:
    """The turn waveform written as whole array expressions, the oracle for
    the in-place `_turn_waveform`."""
    n = max(1, int(round(duration_sec * sample_rate_hz)))
    t = np.arange(n) / sample_rate_hz

    vibrato = 0.004 * np.sin(2.0 * np.pi * 4.6 * t + rng.uniform(0.0, 2.0 * np.pi))
    base_phase = 2.0 * np.pi * profile.f0_hz * (t + vibrato)
    k_max = max(1, min(36, int((sample_rate_hz / 2.0 - 300.0) // profile.f0_hz)))
    x = np.zeros(n)
    for k in range(1, k_max + 1):
        x += np.sin(k * base_phase + rng.uniform(0.0, 2.0 * np.pi)) / k
    x += 0.35 * rng.standard_normal(n)

    spectrum = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate_hz)
    envelope = np.full(freqs.shape, ENVELOPE_FLOOR)
    for center, width, gain in zip(profile.band_centers_hz,
                                   profile.band_widths_hz, BAND_GAINS):
        envelope += gain * np.exp(-0.5 * ((freqs - center) / width) ** 2)
    x = np.fft.irfft(spectrum * envelope, n)

    am_rate = rng.uniform(3.2, 4.8)
    x *= 1.0 + AM_DEPTH * np.sin(2.0 * np.pi * am_rate * t + rng.uniform(0.0, 2.0 * np.pi))

    rms = float(np.sqrt(np.mean(x * x)))
    if rms > 0.0:
        x *= TURN_RMS / rms
    return x


def rendered_turn(profile, duration_sec, sample_rate_hz, rng) -> np.ndarray:
    out = np.empty(_turn_samples(duration_sec, sample_rate_hz))
    _turn_waveform(profile, sample_rate_hz, rng, out)
    return out


# Sample counts: one, two, odd, and primes, whose transforms take
# pocketfft's Bluestein path.
@pytest.mark.parametrize("sample_rate_hz", [8000, 16000])
@pytest.mark.parametrize("samples", [1, 2, 4993, 12007, 24001, 32003])
def test_turn_waveform_bits_equal_whole_expressions(sample_rate_hz, samples) -> None:
    profiles = make_profiles(4, seed=samples) + (
        # high voices: a few harmonics below Nyquist - 300 Hz, or only one
        dataclasses.replace(make_profiles(1, seed=1)[0], f0_hz=1900.0),
        dataclasses.replace(make_profiles(1, seed=2)[0], f0_hz=5000.0))
    duration = samples / sample_rate_hz
    for seed, profile in enumerate(profiles):
        got = rendered_turn(profile, duration, sample_rate_hz, substream(seed, "turn"))
        want = whole_expression_turn(profile, duration, sample_rate_hz,
                                     substream(seed, "turn"))
        assert got.shape == (samples,)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seconds", [2.0, 16.0])
def test_turn_waveform_memory_peak_within_five_outputs(seconds) -> None:
    # Two turns rendered at once then hold less than one whole-expression
    # render did (8 outputs' worth).
    profile = make_profiles(2, seed=3)[1]
    rendered_turn(profile, seconds, 16000, substream(0, "warm"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        wave = rendered_turn(profile, seconds, 16000, substream(0, "turn"))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 5 * wave.nbytes
