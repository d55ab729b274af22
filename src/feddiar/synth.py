"""Synthetic conversation generator with exact ground truth.

Each speaker is a harmonic source (distinct pitch, slight vibrato, noise
floor) shaped by a three-band spectral envelope, so different speakers
occupy measurably different MFCC distributions while frames within one turn
still vary through amplitude modulation. Turns are concatenated with
near-silent gaps (-80 dB noise) and the true change points sit at the gap
midpoints between turns of different speakers. Consecutive turns may share
a speaker: those pauses must not be counted as changes, which is what makes
false-detection rates meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .frontend import AudioSignal
from .seeding import substream

GAP_NOISE_AMPLITUDE = 1e-4      # -80 dB re full scale
TURN_RMS = 0.1
AM_DEPTH = 0.5
ENVELOPE_FLOOR = 0.02
SAMPLE_RATE_HZ = 16000

# Layout of random_conversation_spec: the share of turn boundaries that are
# non-switching pauses, and the range of turn durations.
SAME_SPEAKER_PROB = 0.15
MIN_TURN_SEC = 1.2
MAX_TURN_SEC = 2.8


@dataclass(frozen=True)
class SpeakerProfile:
    f0_hz: float
    band_centers_hz: tuple[float, float, float]
    band_widths_hz: tuple[float, float, float]
    band_gains: tuple[float, float, float] = (1.0, 0.63, 0.4)


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

    def num_change_points(self) -> int:
        speakers = [s for s, _ in self.turns]
        return sum(1 for a, b in zip(speakers, speakers[1:]) if a != b)


def make_profiles(num_speakers: int, seed: int = 0) -> tuple[SpeakerProfile, ...]:
    """Distinct per-speaker envelopes: spread pitches, jittered band layout."""
    profiles = []
    for i in range(num_speakers):
        rng = substream(seed, "profile", i)
        f0 = 90.0 + 22.0 * i + float(rng.uniform(-3.0, 3.0))
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
    for speaker, duration in spec.turns:
        if not 0 <= speaker < spec.num_speakers:
            raise InvalidSpec(f"turn references speaker {speaker}")
        if duration <= 0.0:
            raise InvalidSpec("turn durations must be positive")


def _turn_waveform(profile: SpeakerProfile, duration_sec: float,
                   sample_rate_hz: int, rng: np.random.Generator) -> np.ndarray:
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
                                   profile.band_widths_hz,
                                   profile.band_gains):
        envelope += gain * np.exp(-0.5 * ((freqs - center) / width) ** 2)
    x = np.fft.irfft(spectrum * envelope, n)

    am_rate = rng.uniform(3.2, 4.8)
    x *= 1.0 + AM_DEPTH * np.sin(2.0 * np.pi * am_rate * t + rng.uniform(0.0, 2.0 * np.pi))

    rms = float(np.sqrt(np.mean(x * x)))
    if rms > 0.0:
        x *= TURN_RMS / rms
    return x


def synth_conversation(spec: SynthSpec) -> tuple[AudioSignal, GroundTruth]:
    """Render a spec to audio plus exact change points and turn intervals."""
    _validate(spec)
    sr = spec.sample_rate_hz
    gap_n = int(round(spec.gap_sec * sr))

    def gap_piece(index: int) -> np.ndarray:
        rng = substream(spec.seed, "gap", index)
        return GAP_NOISE_AMPLITUDE * rng.standard_normal(gap_n)

    pieces = [gap_piece(0)]
    cursor = gap_n
    turns: list[TurnInterval] = []
    change_points: list[float] = []
    for i, (speaker, duration) in enumerate(spec.turns):
        rng = substream(spec.seed, "audio", i)
        wave = _turn_waveform(spec.speaker_profiles[speaker], duration, sr, rng)
        pieces.append(wave)
        turns.append(TurnInterval(speaker_id=speaker,
                                  start_sec=cursor / sr,
                                  end_sec=(cursor + wave.shape[0]) / sr))
        cursor += wave.shape[0]
        if i + 1 < len(spec.turns):
            if spec.turns[i + 1][0] != speaker:
                change_points.append((cursor + gap_n / 2.0) / sr)
            pieces.append(gap_piece(i + 1))
            cursor += gap_n
    pieces.append(gap_piece(len(spec.turns)))

    samples = np.concatenate(pieces)
    audio = AudioSignal(samples=samples, sample_rate_hz=sr,
                        source_id=f"synth-{spec.seed}")
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
    """
    if num_speakers < 2:
        raise InvalidSpec("a conversation needs at least two speakers")
    if not 1 <= min_changes <= max_changes:
        raise InvalidSpec("bad change-point range")
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
    """Per-speaker MFCC frame banks from solo synthetic speech."""
    from .frontend import MfccConfig, compute_mfcc, frame_signal

    profiles = make_profiles(num_speakers, seed)
    cfg = MfccConfig()
    corpus: dict[int, np.ndarray] = {}
    for speaker in range(num_speakers):
        rng = substream(seed, "solo", speaker)
        wave = _turn_waveform(profiles[speaker], seconds_per_speaker,
                              SAMPLE_RATE_HZ, rng)
        audio = AudioSignal(samples=wave, sample_rate_hz=SAMPLE_RATE_HZ,
                            source_id=f"solo-{speaker}")
        features = compute_mfcc(frame_signal(audio), cfg)
        corpus[speaker] = features.rows
    return corpus
