"""Synthetic conversation generator with exact ground truth.

Each speaker is a harmonic source (distinct pitch, slight vibrato, noise
floor) shaped by a three-band spectral envelope, so different speakers
occupy measurably different MFCC distributions while frames within one turn
still vary through amplitude modulation. Turns are concatenated with
near-silent gaps (-80 dB noise) and the true change points sit at the gap
midpoints between turns of different speakers. Consecutive turns may share
a speaker: those pauses must not be counted as changes, which is what makes
false-detection rates meaningful.

Each turn, and each speaker's solo speech, draws from its own substream, so
the turns of a conversation render on the pool of `feddiar.workers`, one
turn per item, and the samples are the same on any number of threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import workers
from .errors import InvalidSpec
from .frontend import AudioSignal
from .seeding import substream

GAP_NOISE_AMPLITUDE = 1e-4      # -80 dB re full scale
TURN_RMS = 0.1
AM_DEPTH = 0.5
ENVELOPE_FLOOR = 0.02
SAMPLE_RATE_HZ = 16000
# gain of each of a speaker's three spectral bands, lowest band first
BAND_GAINS = (1.0, 0.63, 0.4)

# Layout of random_conversation_spec: the share of turn boundaries that are
# non-switching pauses, and the range of turn durations.
SAME_SPEAKER_PROB = 0.15
MIN_TURN_SEC = 1.2
MAX_TURN_SEC = 2.8

# Speaker i's pitch is F0_BASE_HZ + F0_STEP_HZ * i (+-3 Hz), so MAX_SPEAKERS
# (360) pitches lie below the Nyquist frequency.
F0_BASE_HZ = 90.0
F0_STEP_HZ = 22.0
MAX_SPEAKERS = math.ceil((SAMPLE_RATE_HZ / 2 - F0_BASE_HZ) / F0_STEP_HZ)
# MAX_CHANGES + 2 turns of MIN_TURN_SEC take more float64 samples than the
# 2^56 bytes a 64-bit CPU lets a process address (57-bit virtual addresses,
# half of them the kernel's).
MAX_CHANGES = 2**56 // (8 * round(MIN_TURN_SEC * SAMPLE_RATE_HZ)) - 1


@dataclass(frozen=True)
class SpeakerProfile:
    f0_hz: float
    band_centers_hz: tuple[float, float, float]
    band_widths_hz: tuple[float, float, float]


@dataclass(frozen=True)
class TurnInterval:
    speaker_id: int
    start_sec: float
    end_sec: float


@dataclass(frozen=True)
class GroundTruth:
    change_points_sec: list[float]
    turns: list[TurnInterval]


@dataclass(frozen=True)
class SynthSpec:
    num_speakers: int
    turns: tuple[tuple[int, float], ...]
    speaker_profiles: tuple[SpeakerProfile, ...]
    gap_sec: float = 0.4
    sample_rate_hz: int = SAMPLE_RATE_HZ
    seed: int = 0


def make_profiles(num_speakers: int, seed: int = 0) -> tuple[SpeakerProfile, ...]:
    """Distinct per-speaker envelopes: spread pitches, jittered band layout."""
    profiles = []
    for i in range(num_speakers):
        rng = substream(seed, "profile", i)
        f0 = F0_BASE_HZ + F0_STEP_HZ * i + float(rng.uniform(-3.0, 3.0))
        centers = (float(rng.uniform(320.0, 880.0)),
                   float(rng.uniform(950.0, 2100.0)),
                   float(rng.uniform(2300.0, 3400.0)))
        widths = (float(rng.uniform(70.0, 140.0)),
                  float(rng.uniform(90.0, 180.0)),
                  float(rng.uniform(120.0, 220.0)))
        profiles.append(SpeakerProfile(f0_hz=f0, band_centers_hz=centers,
                                       band_widths_hz=widths))
    return tuple(profiles)


def _validate(spec: SynthSpec) -> None:
    if spec.num_speakers < 1:
        raise InvalidSpec("need at least one speaker")
    if not spec.turns:
        raise InvalidSpec("need at least one turn")
    if len(spec.speaker_profiles) < spec.num_speakers:
        raise InvalidSpec("missing speaker profiles")
    if len(set(spec.speaker_profiles)) != len(spec.speaker_profiles):
        raise InvalidSpec("speaker profiles must be pairwise distinct")
    if spec.sample_rate_hz < 1000:
        raise InvalidSpec("sample rate must be at least 1000 Hz")
    # the gap's sample count must be finite too: 1e308 s overflows it
    if not 0.0 <= spec.gap_sec * spec.sample_rate_hz < math.inf:
        raise InvalidSpec("gap_sec must be non-negative and finite")
    for profile in spec.speaker_profiles:
        values = (profile.f0_hz, *profile.band_centers_hz, *profile.band_widths_hz)
        if not all(math.isfinite(v) for v in values):
            raise InvalidSpec(f"speaker profile values must be finite: {profile}")
        if profile.f0_hz <= 0.0:
            raise InvalidSpec(f"f0_hz must be positive, got {profile.f0_hz}")
    for speaker, duration in spec.turns:
        if not 0 <= speaker < spec.num_speakers:
            raise InvalidSpec(f"turn references speaker {speaker}")
        if not 0.0 < duration * spec.sample_rate_hz < math.inf:
            raise InvalidSpec("turn durations must be positive and finite")
    # the samples must fit one numpy array: a gap of 1e14 s does not
    total = (sum(_turn_samples(d, spec.sample_rate_hz) for _, d in spec.turns)
             + (len(spec.turns) + 1) * int(round(spec.gap_sec * spec.sample_rate_hz)))
    if 8 * total > np.iinfo(np.intp).max:     # 8 bytes per float64 sample
        raise InvalidSpec(f"a conversation of {total} samples is too long")


def _turn_samples(duration_sec: float, sample_rate_hz: int) -> int:
    return max(1, int(round(duration_sec * sample_rate_hz)))


def _turn_waveform(profile: SpeakerProfile, sample_rate_hz: int,
                   rng: np.random.Generator, out: np.ndarray) -> None:
    """Render one turn of the speaker's speech, at TURN_RMS, into `out`.

    The signal is 0.004 * sin(2 pi 4.6 t + a) of vibrato, the harmonics
    sin(k 2 pi f0 (t + vibrato) + b_k) / k, plus 0.35 white noise, shaped
    by the spectral envelope and amplitude-modulated by 1 + AM_DEPTH *
    sin(2 pi am_rate t + c). Each term is computed in place, one operation
    at a time in the order of that formula, so that the bits are those of
    the whole expressions while no more than 2.5 turn lengths of float64
    are held besides `out`; the random values are drawn in the order they
    appear.
    """
    n = out.shape[0]
    t = np.arange(n, dtype=np.float64)
    t /= sample_rate_hz

    phase = np.multiply(2.0 * np.pi * 4.6, t)
    phase += rng.uniform(0.0, 2.0 * np.pi)
    np.sin(phase, out=phase)
    phase *= 0.004
    phase += t
    del t
    phase *= 2.0 * np.pi * profile.f0_hz
    k_max = max(1, min(36, int((sample_rate_hz / 2.0 - 300.0) // profile.f0_hz)))
    x = out
    x[:] = 0.0
    term = np.empty(n)
    for k in range(1, k_max + 1):
        np.multiply(k, phase, out=term)
        term += rng.uniform(0.0, 2.0 * np.pi)
        np.sin(term, out=term)
        term /= k
        x += term
    del phase
    rng.standard_normal(out=term)
    term *= 0.35
    x += term
    del term

    spectrum = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate_hz)
    envelope = np.full(freqs.shape, ENVELOPE_FLOOR)
    band = np.empty_like(freqs)
    for center, width, gain in zip(profile.band_centers_hz,
                                   profile.band_widths_hz, BAND_GAINS):
        np.subtract(freqs, center, out=band)
        band /= width
        band **= 2
        band *= -0.5
        np.exp(band, out=band)
        band *= gain
        envelope += band
    del freqs, band
    spectrum *= envelope
    del envelope
    np.fft.irfft(spectrum, n, out=x)
    del spectrum

    am_rate = rng.uniform(3.2, 4.8)
    am = np.arange(n, dtype=np.float64)
    am /= sample_rate_hz
    am *= 2.0 * np.pi * am_rate
    am += rng.uniform(0.0, 2.0 * np.pi)
    np.sin(am, out=am)
    am *= AM_DEPTH
    am += 1.0
    x *= am

    np.multiply(x, x, out=am)
    rms = float(np.sqrt(np.mean(am)))
    if rms > 0.0:
        x *= TURN_RMS / rms


def _render(turns: list[tuple[SpeakerProfile, int, tuple]],
            outs: list[np.ndarray]) -> None:
    """Render each (profile, sample_rate_hz, substream tags) turn into its
    array of `outs`, on the calling thread and the pool, one turn per item;
    each item writes only its own array."""
    def work(shared) -> None:
        for i in shared:
            profile, sr, tags = turns[i]
            _turn_waveform(profile, sr, substream(*tags), outs[i])

    workers.run_shared(list(range(len(turns))), work)


def synth_conversation(spec: SynthSpec) -> tuple[AudioSignal, GroundTruth]:
    """Render a spec to audio plus exact change points and turn intervals.

    The turns render straight into their spans of the samples, laid out
    from the spec's durations: gap, turn, gap, ..., turn, gap."""
    _validate(spec)
    sr = spec.sample_rate_hz
    gap_n = int(round(spec.gap_sec * sr))
    lengths = [_turn_samples(duration, sr) for _, duration in spec.turns]
    starts = list(itertools.accumulate((n + gap_n for n in lengths[:-1]), initial=gap_n))
    total = starts[-1] + lengths[-1] + gap_n
    try:
        # numpy refuses more than the machine's memory at once, before
        # touching any of it
        samples = np.empty(total)
    except MemoryError as exc:
        raise InvalidSpec(f"a conversation of {total} samples does not fit in memory") from exc
    _render([(spec.speaker_profiles[speaker], sr, (spec.seed, "audio", i))
             for i, (speaker, _) in enumerate(spec.turns)],
            [samples[start:start + n] for start, n in zip(starts, lengths)])

    gap_starts = [start - gap_n for start in starts] + [starts[-1] + lengths[-1]]
    for index, start in enumerate(gap_starts):
        rng = substream(spec.seed, "gap", index)
        samples[start:start + gap_n] = GAP_NOISE_AMPLITUDE * rng.standard_normal(gap_n)

    turns: list[TurnInterval] = []
    change_points: list[float] = []
    for i, ((speaker, _), start, n) in enumerate(zip(spec.turns, starts, lengths)):
        turns.append(TurnInterval(speaker_id=speaker, start_sec=start / sr,
                                  end_sec=(start + n) / sr))
        if i + 1 < len(spec.turns) and spec.turns[i + 1][0] != speaker:
            change_points.append((start + n + gap_n / 2.0) / sr)

    audio = AudioSignal(samples=samples, sample_rate_hz=sr)
    return audio, GroundTruth(change_points_sec=change_points, turns=turns)


def random_conversation_spec(
    num_speakers: int = 4,
    seed: int = 0,
    min_changes: int = 3,
    max_changes: int = 20,
    gap_sec: float = 0.4,
) -> SynthSpec:
    """Draw a conversation layout with the target change-point count range.

    About SAME_SPEAKER_PROB of the turn boundaries are non-switching pauses,
    so a detector that fires at every silence pays for it in false detections.

    InvalidSpec, before anything is drawn, for speakers not in
    2..MAX_SPEAKERS (360; more would reach the Nyquist frequency) and
    changes not in 1..MAX_CHANGES (about 4.7e11; more could never be
    allocated, even in the shortest turns).
    """
    if not 2 <= num_speakers <= MAX_SPEAKERS:
        raise InvalidSpec(f"a conversation needs 2 to {MAX_SPEAKERS} speakers, "
                          f"got {num_speakers}")
    if not 1 <= min_changes <= max_changes:
        raise InvalidSpec("bad change-point range")
    if max_changes > MAX_CHANGES:
        raise InvalidSpec(f"at most {MAX_CHANGES} changes, got {max_changes}")
    rng = substream(seed, "spec")
    n_changes = int(rng.integers(min_changes, max_changes + 1))
    speakers = [int(rng.integers(num_speakers))]
    changes = 0
    while changes < n_changes:
        if rng.random() < SAME_SPEAKER_PROB:
            speakers.append(speakers[-1])
        else:
            offset = int(rng.integers(1, num_speakers))
            speakers.append((speakers[-1] + offset) % num_speakers)
            changes += 1
    durations = rng.uniform(MIN_TURN_SEC, MAX_TURN_SEC, size=len(speakers))
    return SynthSpec(
        num_speakers=num_speakers,
        turns=tuple((s, float(d)) for s, d in zip(speakers, durations)),
        speaker_profiles=make_profiles(num_speakers, seed),
        gap_sec=gap_sec,
        seed=seed,
    )


def synth_corpus(num_conversations: int, num_speakers: int, seed: int,
                 **spec_kwargs) -> list[tuple[AudioSignal, GroundTruth]]:
    """Seed-pinned corpus; conversation i uses substream(seed, "conv", i)."""
    out = []
    for i in range(num_conversations):
        conv_seed = int(substream(seed, "conv", i).integers(0, 2**31 - 1))
        spec = random_conversation_spec(num_speakers=num_speakers,
                                        seed=conv_seed, **spec_kwargs)
        out.append(synth_conversation(spec))
    return out


def speaker_frame_corpus(
    num_speakers: int,
    seed: int,
    seconds_per_speaker: float = 8.0,
) -> dict[int, np.ndarray]:
    """Per-speaker MFCC frame banks from solo synthetic speech.

    The solo waveforms render on the pool, one speaker per item; their
    MFCCs are taken on this thread in speaker order, since `compute_mfcc`
    shares out its own chunks. InvalidSpec, before any profile is drawn,
    for more than MAX_SPEAKERS speakers."""
    from .frontend import MfccConfig, compute_mfcc, frame_signal

    if num_speakers > MAX_SPEAKERS:
        raise InvalidSpec(f"a corpus holds at most {MAX_SPEAKERS} speakers, "
                          f"got {num_speakers}")
    profiles = make_profiles(num_speakers, seed)
    cfg = MfccConfig()
    corpus: dict[int, np.ndarray] = {}
    n = _turn_samples(seconds_per_speaker, SAMPLE_RATE_HZ)
    waves = [np.empty(n) for _ in range(num_speakers)]
    _render([(profiles[speaker], SAMPLE_RATE_HZ, (seed, "solo", speaker))
             for speaker in range(num_speakers)], waves)
    for speaker, wave in enumerate(waves):
        audio = AudioSignal(samples=wave, sample_rate_hz=SAMPLE_RATE_HZ)
        features = compute_mfcc(frame_signal(audio), cfg)
        corpus[speaker] = features.rows
    return corpus
