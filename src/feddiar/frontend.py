"""Audio loading, framing, and 12-D MFCC extraction.

The feature pipeline is: pre-emphasis -> Hamming window -> magnitude
spectrum -> mel filterbank -> log (floored) -> DCT-II, keeping cepstral
coefficients 1..12. Coefficient 0 carries frame energy and is dropped;
energy handling lives in the silence module. Frames are FRAME_MS long
every HOP_MS, and every transform, MFCC and silence stage alike, has
`FrameSequence.fft_size` points: the next power of two at or above the
frame length.

Memory does not grow with audio length beyond the outputs.
`frame_signal` returns a read-only strided view of the samples, not a
frame matrix, and every spectral pass (`spectrum_chunks`: here for MFCC,
in the silence module for the frames that its noise profile re-ranks and
those that its spectral subtraction needs; the Parseval energies there
need no transform) walks the frames in chunks through work buffers that
each call allocates once and overwrites with `out=` for every chunk. A
chunk holds CHUNK_FRAMES frames; the last one also takes the remainder, so
that no chunk is a small matrix unless the whole input is: BLAS multiplies
small matrices with other kernels, whose rounding differs. The results are
then bit-identical to one pass over the whole frame matrix. Holding the
buffers for a whole call also keeps the number of large allocations, and
with them page faults, independent of the audio length. Since no large
block is freed here, glibc's dynamic mmap threshold is left at its
default; code that runs later must not count on a frontend pass having
raised it (identifier training keeps its own workspace for that reason).

The full-length passes (MFCC here; the Parseval energies and spectral
subtraction of the silence module) share their chunks out among the
process's worker threads (see the workers module): each thread takes the
next chunk of `chunk_bounds`, holds its own buffers and writes only that
chunk's output rows. A chunk's bits do not depend on the thread that
transforms it, so the outputs are the same on any number of threads.
"""

from __future__ import annotations

import struct
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct

from .errors import (
    InvalidConfig,
    MalformedWav,
    SampleRateTooLow,
    SignalTooShort,
    UnsupportedEncoding,
)
from .workers import run_shared

PCM16_FULL_SCALE = 32768.0

# MFCC front end: frame geometry, mel filters, pre-emphasis and the floor
# under the mel energies before the log.
FRAME_MS = 25.0
HOP_MS = 10.0
NUM_MEL_FILTERS = 26
PRE_EMPHASIS = 0.97
LOG_FLOOR = 1e-10

# Frames per chunk of every spectral pass (the last chunk holds up to twice
# as many, see above).
CHUNK_FRAMES = 128

# Rows of each gathered copy of indexed frames (see spectrum_chunks).
GATHER_ROWS = 32


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
        """Transform length of every spectral pass: next power of two >= frame length."""
        return next_power_of_two(self.frame_len_samples)

    def frame_onsets_sec(self) -> np.ndarray:
        return np.arange(len(self)) * self.hop_samples / self.sample_rate_hz



@dataclass(frozen=True)
class MfccConfig:
    num_coefficients: int = 12

    def __post_init__(self):
        if not 1 <= self.num_coefficients <= NUM_MEL_FILTERS:
            raise InvalidConfig(
                f"num_coefficients must lie in [1, {NUM_MEL_FILTERS}] (the mel filters)")


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


def frame_signal(signal: AudioSignal) -> FrameSequence:
    """Slice the signal into FRAME_MS frames every HOP_MS; a trailing partial
    frame is dropped.

    The frames are a read-only strided view of the samples: no copy is made.
    Raises SampleRateTooLow where the hop rounds to no samples.
    """
    rate = signal.sample_rate_hz
    frame_len = int(round(FRAME_MS * rate / 1000.0))
    hop = int(round(HOP_MS * rate / 1000.0))
    if min(frame_len, hop) < 1:
        raise SampleRateTooLow(f"sample rate {rate} Hz is too low: a {HOP_MS:g} ms "
                               f"hop must hold at least one sample")
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


def chunk_rows(n: int) -> int:
    """Rows of a buffer that holds any chunk of n frames. It is the same for
    every n from 2 * CHUNK_FRAMES - 1 on, so that peak memory does not step
    with the remainder."""
    return min(n, 2 * CHUNK_FRAMES - 1)


def spectrum_chunks(
    frames: FrameSequence,
    fft_size: int,
    pre_emphasis: float = 0.0,
    index: np.ndarray | None = None,
    chunks=None,
):
    """Magnitude spectra of Hamming-windowed frames, chunk by chunk.

    Yields (start, mag) where row j of mag is |rfft| (n = fft_size, at least
    the frame length) of frame start + j, or of frame index[start + j] when
    an index is given. With pre_emphasis > 0 each frame is first
    pre-emphasised, keeping its first sample as-is. mag is a view of a
    buffer that the next chunk overwrites. chunks, when given, is an
    iterator over chunk_bounds(n) (n frames, or len(index)) that yields the
    chunks to transform, as `workers.run_shared` shares it; by default, all.
    """
    n = len(frames) if index is None else len(index)
    rows = chunk_rows(n)
    frame_len = frames.frame_len_samples
    window = np.hamming(frame_len)
    # Zero-tailed, so that rfft transforms fft_size samples as they lie
    # instead of padding a copy of each row (same bits, a quarter faster).
    x = np.zeros((rows, fft_size))
    spectrum = np.empty((rows, fft_size // 2 + 1), dtype=np.complex128)
    mag = np.empty((rows, fft_size // 2 + 1))
    for start, stop in chunk_bounds(n) if chunks is None else chunks:
        # Indexed frames are gathered (not with np.take: it would first copy
        # a strided view whole) GATHER_ROWS at a time, so that no copy of a
        # whole chunk adds to each thread's buffers.
        step = stop - start if index is None else GATHER_ROWS
        for a in range(start, stop, step):
            b = min(a + step, stop)
            block = frames.frames[a:b] if index is None else frames.frames[index[a:b]]
            xc = x[a - start:b - start, :frame_len]
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
    fft_size = frames.fft_size
    fb = mel_filterbank(NUM_MEL_FILTERS, fft_size, frames.sample_rate_hz)

    rows = np.empty((len(frames), cfg.num_coefficients))

    def work(chunks):
        mel = np.empty((chunk_rows(len(frames)), NUM_MEL_FILTERS))
        for start, spectrum in spectrum_chunks(frames, fft_size, PRE_EMPHASIS,
                                               chunks=chunks):
            log_mel = np.matmul(spectrum, fb.T, out=mel[:len(spectrum)])
            np.maximum(log_mel, LOG_FLOOR, out=log_mel)
            np.log(log_mel, out=log_mel)
            cepstra = dct(log_mel, type=2, axis=1, norm="ortho")
            rows[start:start + len(spectrum)] = cepstra[:, 1:cfg.num_coefficients + 1]

    run_shared(chunk_bounds(len(frames)), work)
    return FeatureMatrix(rows=rows, frame_times_sec=frames.frame_onsets_sec())

