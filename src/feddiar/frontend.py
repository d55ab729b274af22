"""Audio loading, framing, and 12-D MFCC extraction.

The feature pipeline is: pre-emphasis -> Hamming window -> magnitude
spectrum -> mel filterbank -> log (floored) -> DCT-II, keeping cepstral
coefficients 1..12. Coefficient 0 carries frame energy and is dropped;
energy handling lives in the silence module.
"""

from __future__ import annotations

import csv
import struct
import wave
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct

from .errors import InvalidConfig, MalformedWav, SignalTooShort, UnsupportedEncoding

PCM16_FULL_SCALE = 32768.0


@dataclass(frozen=True)
class AudioSignal:
    """Mono audio with samples normalized to [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int
    source_id: str = ""

    @property
    def duration_sec(self) -> float:
        return len(self.samples) / self.sample_rate_hz


@dataclass(frozen=True)
class FrameSequence:
    """Fixed-length sample windows; frame i starts at i * hop_samples."""

    frames: np.ndarray          # shape (num_frames, frame_len_samples)
    frame_len_samples: int
    hop_samples: int
    sample_rate_hz: int

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def hop_sec(self) -> float:
        return self.hop_samples / self.sample_rate_hz

    def frame_onsets_sec(self) -> np.ndarray:
        return np.arange(len(self)) * self.hop_samples / self.sample_rate_hz


@dataclass(frozen=True)
class MfccConfig:
    num_coefficients: int = 12
    num_mel_filters: int = 26
    fft_size: int | None = None      # None: next power of two >= frame length
    pre_emphasis: float = 0.97
    frame_ms: float = 25.0
    hop_ms: float = 10.0
    log_floor: float = 1e-10

    def frame_len(self, sample_rate_hz: int) -> int:
        return int(round(self.frame_ms * sample_rate_hz / 1000.0))

    def hop_len(self, sample_rate_hz: int) -> int:
        return int(round(self.hop_ms * sample_rate_hz / 1000.0))

    def resolve_fft_size(self, sample_rate_hz: int) -> int:
        if self.fft_size is not None:
            return self.fft_size
        n = 1
        while n < self.frame_len(sample_rate_hz):
            n *= 2
        return n

    def validate(self, sample_rate_hz: int) -> None:
        if self.num_coefficients > self.num_mel_filters:
            raise InvalidConfig("num_coefficients must not exceed num_mel_filters")
        if self.resolve_fft_size(sample_rate_hz) < self.frame_len(sample_rate_hz):
            raise InvalidConfig("fft_size smaller than frame length")
        if not 0.0 <= self.pre_emphasis < 1.0:
            raise InvalidConfig("pre_emphasis must lie in [0, 1)")
        if self.log_floor <= 0.0:
            raise InvalidConfig("log_floor must be positive")


@dataclass(frozen=True)
class FeatureMatrix:
    """One feature row per frame, plus the frame onset times."""

    rows: np.ndarray             # shape (num_frames, d)
    frame_times_sec: np.ndarray  # shape (num_frames,)
    d: int = field(default=0)

    def __post_init__(self):
        if self.d == 0:
            object.__setattr__(self, "d", int(self.rows.shape[1]))

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def hop_sec(self) -> float:
        if len(self.frame_times_sec) < 2:
            return 0.0
        return float(self.frame_times_sec[1] - self.frame_times_sec[0])


def load_wav(path) -> AudioSignal:
    """Read a 16-bit PCM RIFF/WAVE file as a normalized mono signal.

    Stereo input is downmixed by channel mean. Raises MalformedWav for
    container problems and UnsupportedEncoding for non-PCM-16 payloads.
    """
    try:
        with wave.open(str(path), "rb") as wf:
            n_channels = wf.getnchannels()
            samp_width = wf.getsampwidth()
            rate = wf.getframerate()
            n_frames = wf.getnframes()
            raw = wf.readframes(n_frames)
    except wave.Error as exc:
        if "unknown format" in str(exc).lower():
            raise UnsupportedEncoding(str(exc)) from exc
        raise MalformedWav(str(exc)) from exc
    except (EOFError, struct.error) as exc:
        raise MalformedWav(str(exc)) from exc

    if samp_width != 2:
        raise UnsupportedEncoding(f"expected 16-bit PCM, got {8 * samp_width}-bit")
    if n_channels not in (1, 2):
        raise UnsupportedEncoding(f"expected mono or stereo, got {n_channels} channels")

    data = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    if n_channels == 2:
        data = data.reshape(-1, 2).mean(axis=1)
    samples = data / PCM16_FULL_SCALE
    return AudioSignal(samples=samples, sample_rate_hz=rate, source_id=str(path))


def save_wav(path, signal: AudioSignal) -> None:
    """Write a mono 16-bit PCM WAV (samples clipped to full scale)."""
    pcm = np.clip(np.round(signal.samples * PCM16_FULL_SCALE), -32768, 32767)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(signal.sample_rate_hz)
        wf.writeframes(pcm.astype("<i2").tobytes())


def frame_signal(signal: AudioSignal, cfg: MfccConfig) -> FrameSequence:
    """Slice the signal into fixed frames; a trailing partial frame is dropped."""
    frame_len = cfg.frame_len(signal.sample_rate_hz)
    hop = cfg.hop_len(signal.sample_rate_hz)
    n = len(signal.samples)
    if n < frame_len:
        raise SignalTooShort(f"{n} samples < one {frame_len}-sample frame")
    num_frames = (n - frame_len) // hop + 1
    idx = np.arange(frame_len)[None, :] + hop * np.arange(num_frames)[:, None]
    return FrameSequence(
        frames=signal.samples[idx],
        frame_len_samples=frame_len,
        hop_samples=hop,
        sample_rate_hz=signal.sample_rate_hz,
    )


def mel_filterbank(num_filters: int, fft_size: int, sample_rate_hz: int) -> np.ndarray:
    """Triangular mel filterbank over rfft bins, shape (num_filters, fft_size//2 + 1)."""
    low_mel = 0.0
    high_mel = 2595.0 * np.log10(1.0 + (sample_rate_hz / 2.0) / 700.0)
    mel_points = np.linspace(low_mel, high_mel, num_filters + 2)
    hz_points = 700.0 * (10.0 ** (mel_points / 2595.0) - 1.0)
    bins = np.floor((fft_size + 1) * hz_points / sample_rate_hz).astype(int)

    fb = np.zeros((num_filters, fft_size // 2 + 1))
    for j in range(num_filters):
        left, center, right = bins[j], bins[j + 1], bins[j + 2]
        for i in range(left, center):
            fb[j, i] = (i - left) / max(center - left, 1)
        for i in range(center, right):
            fb[j, i] = (right - i) / max(right - center, 1)
    return fb


def compute_mfcc(frames: FrameSequence, cfg: MfccConfig) -> FeatureMatrix:
    """Extract one MFCC row per frame (coefficients 1..num_coefficients)."""
    cfg.validate(frames.sample_rate_hz)
    fft_size = cfg.resolve_fft_size(frames.sample_rate_hz)

    x = frames.frames
    if cfg.pre_emphasis > 0.0:
        # first sample of each frame is kept as-is
        x = np.concatenate([x[:, :1], x[:, 1:] - cfg.pre_emphasis * x[:, :-1]], axis=1)
    x = x * np.hamming(frames.frame_len_samples)

    spectrum = np.abs(np.fft.rfft(x, n=fft_size, axis=1))
    fb = mel_filterbank(cfg.num_mel_filters, fft_size, frames.sample_rate_hz)
    mel_energies = spectrum @ fb.T
    log_mel = np.log(np.maximum(mel_energies, cfg.log_floor))
    cepstra = dct(log_mel, type=2, axis=1, norm="ortho")
    rows = cepstra[:, 1:cfg.num_coefficients + 1]

    return FeatureMatrix(
        rows=np.ascontiguousarray(rows),
        frame_times_sec=frames.frame_onsets_sec(),
    )


def write_feature_csv(path, features: FeatureMatrix) -> None:
    """Dump features as CSV: time_sec, c1..cd."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_sec"] + [f"c{i + 1}" for i in range(features.d)])
        for t, row in zip(features.frame_times_sec, features.rows):
            writer.writerow([f"{t:.6f}"] + [repr(float(v)) for v in row])
