"""Noise estimation, spectral subtraction, and quasi-silence detection.

A quasi-silence is any sustained low-energy pause, whether or not it
coincides with a speaker switch. Detected regions anchor the change-point
search windows in the segmentation module.

Spectra come from `frontend.spectrum_chunks`, CHUNK_FRAMES frames at a
time through buffers allocated once per call, so memory stays flat in the
audio length and results equal a whole-matrix pass bit for bit.
`parseval_energies` and `spectral_subtract`, whole or indexed, share their
chunks out among threads as the MFCC pass does (see the workers module),
with the same bits on any number of threads; the noise profile's passes
over its few candidate frames, and its ordered sum of their spectra, stay
on the calling thread. Each transform has `FrameSequence.fft_size`
points, the next power of two at or above the frame length, as the MFCC
transform has. No step transforms every frame. The noise profile ranks
the frames by energy without an FFT: by Parseval's identity the mean of
|rfft|^2 follows from each windowed frame's sum of squares and its first
and Nyquist bins. Only the frames within a small margin of the quietest
noise_percentile are transformed, to rank them by their exact FFT
energies and to sum the spectra of the quietest, so the profile equals
the one from a full-spectrum ranking bit for bit.

`find_quasi_silences` subtracts the noise only where the residual energy
can decide a region. The same Parseval energy E_X bounds a frame's
residual energy r from both sides, with E_N the noise profile's mean
square: ((sqrt(E_X) - sqrt(E_N))+)^2 <= r <= E_X, widened by the
candidate margins. The 95th-percentile peak's two order statistics lie
between the bounds' order statistics of the same ranks, and a silent
frame's lower bound is below the peak's upper bound less threshold_db.
Frames whose bounds reach either are subtracted exactly (on speech,
about the silent frames plus a few near the peak); every other frame
takes one of its bounds as a placeholder, which lies on the same side of
the peak's window and above the silence threshold, as its exact value
does. The peak, the silent frames and their energies, and so the regions,
equal those of the full pass bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, TooFewFrames
from .frontend import FrameSequence, chunk_bounds, chunk_rows, spectrum_chunks
from .workers import run_shared

ENERGY_FLOOR = 1e-12

# Margins of the noise-profile candidate set (see estimate_noise_profile):
# relative to the k-th smallest Parseval energy, four orders of magnitude
# above the rounding it covers, and absolute, for squares that underflow.
CANDIDATE_MARGIN = 1e-9
CANDIDATE_FLOOR = float(np.finfo(np.float64).tiny)

MIN_FRAMES_FOR_NOISE = 10

# The quasi-silence threshold is relative to this percentile of the
# residual energies (see detect_quasi_silences).
PEAK_PERCENTILE = 95.0


@dataclass(frozen=True)
class SilenceConfig:
    threshold_db: float = 60.0       # frames this far below the peak are quasi-silent
    min_region_frames: int = 10
    noise_percentile: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.threshold_db < math.inf:
            raise InvalidConfig("threshold_db must be positive and finite")
        if not 0.0 < self.noise_percentile < 1.0:
            raise InvalidConfig("noise_percentile must lie in (0, 1)")


@dataclass(frozen=True)
class NoiseProfile:
    magnitude_spectrum_estimate: np.ndarray   # per rfft bin, >= 0
    frames_used: int


@dataclass(frozen=True)
class QuasiSilenceRegion:
    start_frame: int
    end_frame: int        # inclusive
    mean_energy_db: float

    def __len__(self) -> int:
        return self.end_frame - self.start_frame + 1


def parseval_energies(frames: FrameSequence, fft_size: int) -> np.ndarray:
    """mean(|rfft(w * frame, n=fft_size)|^2) of every frame, without an FFT.

    w is the Hamming window and fft_size at least the frame length. With x
    the windowed frame zero-padded to fft_size samples, as rfft pads it,
    Parseval's identity over the full spectrum and its conjugate symmetry
    give sum over the rfft bins of |X_k|^2 = (N sum x^2 + X_0^2 + X_{N/2}^2) / 2
    for N = fft_size, where X_0 = sum x and X_{N/2} = sum (-1)^n x (absent
    for odd N). With f the frame, sum x^2 is f^2 @ w^2 and (X_0, X_{N/2}) is
    f @ (w, (-1)^n w). The result differs from the FFT's only by rounding.
    """
    window = np.hamming(frames.frame_len_samples)
    ends = np.stack([window, window], axis=1)
    ends[1::2, 1] *= -1.0
    if fft_size % 2:
        ends[:, 1] = 0.0
    square_window = window * window
    rows = chunk_rows(len(frames))
    energies = np.empty(len(frames))

    def work(chunks):
        f = np.empty((rows, frames.frame_len_samples))
        edge = np.empty((rows, 2))
        for start, stop in chunks:
            fc = f[:stop - start]
            fc[...] = frames.frames[start:stop]
            ec = np.matmul(fc, ends, out=edge[:stop - start])
            np.square(ec, out=ec)
            np.square(fc, out=fc)
            out = np.matmul(fc, square_window, out=energies[start:stop])
            out *= fft_size
            out += ec[:, 0]
            out += ec[:, 1]

    run_shared(chunk_bounds(len(frames)), work)
    energies /= 2 * (fft_size // 2 + 1)
    return energies


def estimate_noise_profile(frames: FrameSequence, cfg: SilenceConfig) -> NoiseProfile:
    """Per-bin mean magnitude over the quietest noise_percentile of frames.

    The k quietest frames are those first in a stable sort of the FFT
    energies mean(|rfft|^2), ties going to the lower frame, and their
    spectra are summed in that order. FFT energies are computed only for
    the candidates: the frames whose `parseval_energies` are at most the
    k-th smallest times (1 + CANDIDATE_MARGIN), plus CANDIDATE_FLOOR.

    Why the profile stays exact: a frame's two energies differ only by
    rounding, relative to its energy, plus absolute errors far below
    CANDIDATE_FLOOR where squares underflow. The relative part is bounded
    by about frame_len * eps for the sum of squares and O(eps log N) for
    the FFT, below 1e-13 for frames of a few hundred samples; measured, it
    is about 1e-15. Some frame among the k quietest by Parseval energy is
    at least as loud by FFT energy as any frame among the k quietest by FFT
    energy, so each of the latter is within twice the rounding of the k-th
    smallest Parseval energy, and a candidate. A stable sort of the
    candidates, taken in frame order, then puts the same k frames first, in
    the same order, as a sort of all frames. If any Parseval energy is NaN
    or inf, every frame is a candidate.
    """
    if len(frames) < MIN_FRAMES_FOR_NOISE:
        raise TooFewFrames(f"need >= {MIN_FRAMES_FOR_NOISE} frames, got {len(frames)}")

    fft_size = frames.fft_size
    k = max(1, int(np.floor(cfg.noise_percentile * len(frames))))
    approx = parseval_energies(frames, fft_size)
    if np.isfinite(approx).all():
        kth = np.partition(approx, k - 1)[k - 1]
        candidates = np.flatnonzero(approx <= kth * (1.0 + CANDIDATE_MARGIN) + CANDIDATE_FLOOR)
    else:
        candidates = np.arange(len(frames))
    energies = np.empty(len(candidates))
    for start, spectra in spectrum_chunks(frames, fft_size, index=candidates):
        np.square(spectra, out=spectra)
        np.mean(spectra, axis=1, out=energies[start:start + len(spectra)])

    quietest = candidates[np.argsort(energies, kind="stable")[:k]]
    # Summed row by row in `quietest` order, as a mean over axis 0 would be.
    total = np.zeros(fft_size // 2 + 1)
    for _, spectra in spectrum_chunks(frames, fft_size, index=quietest):
        for row in spectra:
            total += row
    return NoiseProfile(magnitude_spectrum_estimate=total / k, frames_used=k)


def spectral_subtract(
    frames: FrameSequence,
    noise: NoiseProfile,
    index: np.ndarray | None = None,
) -> np.ndarray:
    """Residual energy per frame after subtracting the noise magnitude profile.

    Bins are floored at zero; the result is the mean squared residual
    magnitude of each frame, or of frame index[j] at j when an index is
    given (each row is computed on its own, so the values are the same).
    """
    fft_size = frames.fft_size
    profile = noise.magnitude_spectrum_estimate
    bins = fft_size // 2 + 1
    if profile.shape[0] != bins:
        raise DimensionMismatch(f"profile has {profile.shape[0]} bins, frames have {bins}")
    energy = np.empty(len(frames) if index is None else len(index))

    def work(chunks):
        for start, spectra in spectrum_chunks(frames, fft_size, index=index, chunks=chunks):
            np.subtract(spectra, profile, out=spectra)
            np.maximum(spectra, 0.0, out=spectra)
            np.square(spectra, out=spectra)
            np.mean(spectra, axis=1, out=energy[start:start + len(spectra)])

    run_shared(chunk_bounds(len(energy)), work)
    return energy


def detect_quasi_silences(energy_track: np.ndarray, cfg: SilenceConfig) -> list[QuasiSilenceRegion]:
    """Runs of frames at least threshold_db below the 95th-percentile energy.

    The peak reference is a percentile rather than the maximum so a single
    spiky frame cannot shift the threshold. Only runs of at least
    min_region_frames become regions. An all-silent track (peak at the
    energy floor) yields one region spanning everything.
    """
    energy = np.asarray(energy_track, dtype=np.float64)
    if energy.size == 0:
        raise ValueError("empty energy track")

    peak = np.percentile(energy, PEAK_PERCENTILE)
    if peak <= ENERGY_FLOOR:
        silent = np.ones(energy.size, dtype=bool)
    else:
        snr_db = 10.0 * np.log10(peak / np.maximum(energy, ENERGY_FLOOR))
        silent = snr_db >= cfg.threshold_db

    # Edges of the silent runs: starts at even, (exclusive) ends at odd positions.
    edges = np.flatnonzero(np.diff(silent, prepend=False, append=False))
    regions: list[QuasiSilenceRegion] = []
    for start, stop in zip(edges[::2].tolist(), edges[1::2].tolist()):
        if stop - start >= cfg.min_region_frames:
            mean_e = float(np.mean(energy[start:stop]))
            regions.append(QuasiSilenceRegion(
                start_frame=start,
                end_frame=stop - 1,
                mean_energy_db=10.0 * np.log10(max(mean_e, ENERGY_FLOOR)),
            ))
    return regions


def find_quasi_silences(
    frames: FrameSequence,
    noise: NoiseProfile,
    cfg: SilenceConfig,
) -> list[QuasiSilenceRegion]:
    """detect_quasi_silences(spectral_subtract(frames, noise), cfg),
    subtracting only the frames whose residual energy can change the regions.

    The other frames get a placeholder from Parseval bounds on their
    residual energy r = mean(((|X| - N)+)^2), where X is the frame's rfft
    and N the noise profile. With E_X = mean |X|^2 (`parseval_energies`)
    and E_N = mean N^2:
    - r <= E_X, as (|X| - N)+ <= |X| bin by bin. In floating point too:
      rounding is monotone, so the computed r is at most the computed FFT
      energy, and that differs from E_X only by rounding (see
      estimate_noise_profile).
    - r >= ((sqrt(E_X) - sqrt(E_N))+)^2, by Minkowski's inequality, as
      |X| <= (|X| - N)+ + N bin by bin. FFT and subtraction rounding move
      sqrt(r) by a few ulps of sqrt(E_X) + sqrt(E_N).
    Both bounds are widened by CANDIDATE_MARGIN relative (covering these
    errors many times over) and CANDIDATE_FLOOR absolute (underflow).

    np.percentile(r, 95) interpolates between the order statistics of two
    ranks k0 < k1 (taken a little wide, against rounding of the rank), and
    every order statistic lies between those of the lower and upper
    bounds, so both values lie in the window [lo_(k0), hi_(k1)]. Exact
    residuals are computed for the frames whose bounds meet the window,
    and for those with lo <= max(hi_(k1) * 10^(-threshold_db / 10),
    ENERGY_FLOOR), widened: every frame that can be silent. Every other
    frame lies wholly below or above the window, and takes its bound on
    that side (hi below, lo above). So the track keeps the peak's two
    order statistics at their ranks, with the same values, every silent
    frame keeps its exact energy, and every placeholder is above the
    silence threshold: the regions equal the oracle's, mean_energy_db
    included, bit for bit. If there are no frames, a profile bin is
    negative or NaN, a Parseval energy is not finite (an FFT energy can
    overflow only where Parseval's sum of squares, which is at least as
    large, does too), or the peak's lower bound is at or below
    ENERGY_FLOOR, where every frame may count as silent, every frame is
    subtracted.
    """
    def every_frame():
        return detect_quasi_silences(spectral_subtract(frames, noise), cfg)

    profile = noise.magnitude_spectrum_estimate
    n = len(frames)
    if n == 0 or not (profile >= 0.0).all():
        return every_frame()
    upper = parseval_energies(frames, frames.fft_size)
    if not np.isfinite(upper).all():
        return every_frame()

    noise_rms = math.sqrt(float(np.mean(np.square(profile))))
    lower = np.sqrt(upper)
    lower *= 1.0 - CANDIDATE_MARGIN
    lower -= noise_rms * (1.0 + CANDIDATE_MARGIN)
    np.maximum(lower, 0.0, out=lower)
    np.square(lower, out=lower)
    lower *= 1.0 - CANDIDATE_MARGIN
    lower -= CANDIDATE_FLOOR
    upper *= 1.0 + CANDIDATE_MARGIN
    upper += CANDIDATE_FLOOR

    rank = PEAK_PERCENTILE / 100.0 * (n - 1)
    k0 = max(math.floor(rank - CANDIDATE_MARGIN * n), 0)
    k1 = min(math.floor(rank + CANDIDATE_MARGIN * n) + 1, n - 1)
    window_lo = np.partition(lower, k0)[k0]
    window_hi = np.partition(upper, k1)[k1]
    if window_lo <= ENERGY_FLOOR:
        return every_frame()

    quiet = max(window_hi * 10.0 ** (-cfg.threshold_db / 10.0), ENERGY_FLOOR)
    exact = (lower <= window_hi) & (upper >= window_lo)
    exact |= lower <= quiet * (1.0 + CANDIDATE_MARGIN) + CANDIDATE_FLOOR
    idx = np.flatnonzero(exact)
    track = np.where(upper < window_lo, upper, lower)
    track[idx] = spectral_subtract(frames, noise, index=idx)
    return detect_quasi_silences(track, cfg)


def silent_frame_mask(regions: list[QuasiSilenceRegion], num_frames: int) -> np.ndarray:
    """Boolean mask marking frames covered by any quasi-silence region."""
    mask = np.zeros(num_frames, dtype=bool)
    for r in regions:
        mask[r.start_frame:r.end_frame + 1] = True
    return mask


def write_region_csv(path, regions: list[QuasiSilenceRegion], hop_sec: float) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["start_sec", "end_sec", "mean_energy_db"])
        for r in regions:
            writer.writerow([
                f"{r.start_frame * hop_sec:.6f}",
                f"{(r.end_frame + 1) * hop_sec:.6f}",
                f"{r.mean_energy_db:.3f}",
            ])
