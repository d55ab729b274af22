"""Audio loading, framing, and 12-D MFCC extraction.

The feature pipeline is: pre-emphasis -> Hamming window -> magnitude
spectrum -> mel filterbank -> log (floored) -> DCT-II, keeping cepstral
coefficients 1..12. Coefficient 0 carries frame energy and is dropped;
energy handling lives in the silence module.

Memory does not grow with audio length beyond the outputs.
`frame_signal` returns a read-only strided view of the samples, not a
frame matrix, and every spectral pass (`spectrum_chunks`: here for MFCC,
in the silence module for the frames that its noise profile re-ranks and
those that its spectral subtraction needs) walks the frames in chunks
through work buffers that each call allocates once and overwrites with
`out=` for every chunk. A chunk holds CHUNK_FRAMES frames; the last one
also takes the remainder, so that no chunk is a small matrix unless the
whole input is: BLAS multiplies small matrices with other kernels, whose rounding
differs. The results are then bit-identical to one pass over the whole
frame matrix. Holding the buffers for a whole call also keeps the number
of large allocations, and with them page faults, independent of the
audio length. Since no large block is freed here, glibc's dynamic mmap
threshold is left at its default; code that runs later must not count on
a frontend pass having raised it (identifier training keeps its own
workspace for that reason).
"""

from __future__ import annotations

import struct
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct

from .errors import InvalidConfig, MalformedWav, SignalTooShort, UnsupportedEncoding

PCM16_FULL_SCALE = 32768.0

# Frames per chunk of every spectral pass (the last chunk holds up to twice
# as many, see above).
CHUNK_FRAMES = 256


def next_power_of_two(n: int) -> int:
    """The smallest power of two at or above n (1 for n <= 1)."""
    p = 1
    while p < n:
        p *= 2
    return p


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

    frames: np.ndarray          # shape (num_frames, frame_len_samples); may be a view
    frame_len_samples: int
    hop_samples: int
    sample_rate_hz: int

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def hop_sec(self) -> float:
        return self.hop_samples / self.sample_rate_hz

    @property
    def fft_size(self) -> int:
        """Transform length of the silence stage: next power of two >= frame length."""
        return next_power_of_two(self.frame_len_samples)

    def frame_onsets_sec(self) -> np.ndarray:
        return np.arange(len(self)) * self.hop_samples / self.sample_rate_hz



@dataclass(frozen=True)
class MfccConfig:
    num_coefficients: int = 12
    num_mel_filters: int = 26
    fft_size: int | None = None      # MFCC transform; None: next power of two >= frame length
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
        return next_power_of_two(self.frame_len(sample_rate_hz))

    def validate(self, sample_rate_hz: int) -> None:
        if self.num_coefficients < 1:
            raise InvalidConfig("num_coefficients must be at least 1")
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

    def __len__(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return int(self.rows.shape[1])

    @property
    def hop_sec(self) -> float:
        if len(self.frame_times_sec) < 2:
            return 0.0
        return float(self.frame_times_sec[1] - self.frame_times_sec[0])


def load_wav(path) -> AudioSignal:
    """Read a 16-bit PCM RIFF/WAVE file as a normalized mono signal.

    Stereo input is downmixed by channel mean. Raises MalformedWav, naming
    the file, for container problems and UnsupportedEncoding for non-PCM-16
    payloads.
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
        raise MalformedWav(f"{path}: {exc}") from exc
    except (EOFError, struct.error) as exc:
        # EOFError carries no message
        raise MalformedWav(f"{path}: truncated WAV header "
                           f"({str(exc) or type(exc).__name__})") from exc

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
    """Slice the signal into fixed frames; a trailing partial frame is dropped.

    The frames are a read-only strided view of the samples: no copy is made.
    """
    frame_len = cfg.frame_len(signal.sample_rate_hz)
    hop = cfg.hop_len(signal.sample_rate_hz)
    n = len(signal.samples)
    if n < frame_len:
        raise SignalTooShort(f"{n} samples < one {frame_len}-sample frame")
    return FrameSequence(
        frames=sliding_window_view(signal.samples, frame_len)[::hop],
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


def chunk_bounds(n: int) -> list[tuple[int, int]]:
    """(start, stop) of each chunk of n frames; the last takes the remainder."""
    cuts = list(range(0, n - CHUNK_FRAMES + 1, CHUNK_FRAMES)) or [0]
    return list(zip(cuts, cuts[1:] + [n])) if n else []


def spectrum_chunks(
    frames: FrameSequence,
    fft_size: int,
    pre_emphasis: float = 0.0,
    index: np.ndarray | None = None,
):
    """Magnitude spectra of Hamming-windowed frames, chunk by chunk.

    Yields (start, mag) where row j of mag is |rfft| (n = fft_size) of frame
    start + j, or of frame index[start + j] when an index is given. With
    pre_emphasis > 0 each frame is first pre-emphasised, keeping its first
    sample as-is. mag is a view of a buffer that the next chunk overwrites.
    """
    n = len(frames) if index is None else len(index)
    bounds = chunk_bounds(n)
    rows = max((stop - start for start, stop in bounds), default=0)
    frame_len = frames.frame_len_samples
    window = np.hamming(frame_len)
    # Zero-tailed, so that rfft transforms fft_size samples as they lie
    # instead of padding a copy of each row (same bits, a quarter faster).
    x = np.zeros((rows, max(frame_len, fft_size)))
    spectrum = np.empty((rows, fft_size // 2 + 1), dtype=np.complex128)
    mag = np.empty((rows, fft_size // 2 + 1))
    for start, stop in bounds:
        xc = x[:stop - start, :frame_len]
        if index is None:
            block = frames.frames[start:stop]
        else:   # not np.take: it would first copy a strided view whole
            block = frames.frames[index[start:stop]]
        if pre_emphasis > 0.0:
            np.multiply(block[:, :-1], pre_emphasis, out=xc[:, 1:])
            np.subtract(block[:, 1:], xc[:, 1:], out=xc[:, 1:])
            xc[:, 0] = block[:, 0]
            xc *= window
        else:
            np.multiply(block, window, out=xc)
        sc = np.fft.rfft(x[:stop - start], n=fft_size, axis=1, out=spectrum[:stop - start])
        yield start, np.abs(sc, out=mag[:stop - start])


def compute_mfcc(frames: FrameSequence, cfg: MfccConfig) -> FeatureMatrix:
    """Extract one MFCC row per frame (coefficients 1..num_coefficients)."""
    cfg.validate(frames.sample_rate_hz)
    fft_size = cfg.resolve_fft_size(frames.sample_rate_hz)
    fb = mel_filterbank(cfg.num_mel_filters, fft_size, frames.sample_rate_hz)

    rows = np.empty((len(frames), cfg.num_coefficients))
    mel = np.empty((min(2 * CHUNK_FRAMES - 1, len(frames)), cfg.num_mel_filters))
    for start, spectrum in spectrum_chunks(frames, fft_size, cfg.pre_emphasis):
        log_mel = np.matmul(spectrum, fb.T, out=mel[:len(spectrum)])
        np.maximum(log_mel, cfg.log_floor, out=log_mel)
        np.log(log_mel, out=log_mel)
        cepstra = dct(log_mel, type=2, axis=1, norm="ortho")
        rows[start:start + len(spectrum)] = cepstra[:, 1:cfg.num_coefficients + 1]

    return FeatureMatrix(rows=rows, frame_times_sec=frames.frame_onsets_sec())

