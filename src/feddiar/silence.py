"""Noise estimation, spectral subtraction, and quasi-silence detection.

A quasi-silence is any sustained low-energy pause, whether or not it
coincides with a speaker switch. Detected regions anchor the change-point
search windows in the segmentation module.

The frames are a `frontend.FrameSequence`: the samples of one signal, its
frame geometry, and the window, transform length and Parseval energies
that every step here reads from it (the energies computed once per
sequence). Spectra come from `frontend.spectrum_chunks`, CHUNK_FRAMES
frames at a time through buffers allocated once per call, so memory stays
flat in the audio length and results equal a whole-matrix pass bit for
bit. `spectral_subtract`, whole or indexed, shares its chunks out among
threads as the MFCC pass does (see the workers module), with the same
bits on any number of threads; the noise profile's passes over its few
candidate frames, and its ordered sum of their spectra, stay on the
calling thread. No step transforms every frame. The noise profile ranks
the frames by their Parseval energies, which need no FFT. Only the frames
within a small margin of the quietest noise_percentile are transformed,
to rank them by their exact FFT energies and to sum the spectra of the
quietest, so the profile equals the one from a full-spectrum ranking bit
for bit.

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

from .errors import InvalidConfig, InvalidInput
from .frontend import FrameSequence, chunk_bounds, spectrum_chunks
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
        if self.min_region_frames < 1:
            raise InvalidConfig("min_region_frames must be at least 1")


@dataclass(frozen=True)
class QuasiSilenceRegion:
    start_frame: int
    end_frame: int        # inclusive
    mean_energy_db: float

    def __len__(self) -> int:
        return self.end_frame - self.start_frame + 1


def estimate_noise_profile(frames: FrameSequence, cfg: SilenceConfig) -> np.ndarray:
    """Per-bin mean magnitude over the quietest noise_percentile of frames:
    the noise profile, one non-negative value per rfft bin, shape
    (fft_size // 2 + 1,).

    The k quietest frames are those first in a stable sort of the FFT
    energies mean(|rfft|^2), ties going to the lower frame, and their
    spectra are summed in that order. FFT energies are computed only for
    the candidates: the frames whose Parseval energies (`frames.energies`)
    are at most the k-th smallest times (1 + CANDIDATE_MARGIN), plus
    CANDIDATE_FLOOR.

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
        raise InvalidInput(f"need >= {MIN_FRAMES_FOR_NOISE} frames, got {len(frames)}")

    k = max(1, int(np.floor(cfg.noise_percentile * len(frames))))
    approx = frames.energies
    if np.isfinite(approx).all():
        kth = np.partition(approx, k - 1)[k - 1]
        candidates = np.flatnonzero(approx <= kth * (1.0 + CANDIDATE_MARGIN) + CANDIDATE_FLOOR)
    else:
        candidates = np.arange(len(frames))
    energies = np.empty(len(candidates))
    for start, spectra in spectrum_chunks(frames, index=candidates):
        np.square(spectra, out=spectra)
        np.mean(spectra, axis=1, out=energies[start:start + len(spectra)])

    quietest = candidates[np.argsort(energies, kind="stable")[:k]]
    # Summed row by row in `quietest` order, as a mean over axis 0 would be.
    total = np.zeros(frames.fft_size // 2 + 1)
    for _, spectra in spectrum_chunks(frames, index=quietest):
        for row in spectra:
            total += row
    return total / k


def spectral_subtract(
    frames: FrameSequence,
    noise: np.ndarray,
    index: np.ndarray | None = None,
) -> np.ndarray:
    """Residual energy per frame after subtracting the noise magnitude profile.

    Bins are floored at zero; the result is the mean squared residual
    magnitude of each frame, or of frame index[j] at j when an index is
    given (each row is computed on its own, so the values are the same).
    """
    bins = frames.fft_size // 2 + 1
    if noise.shape[0] != bins:
        raise InvalidInput(f"profile has {noise.shape[0]} bins, frames have {bins}")
    energy = np.empty(len(frames) if index is None else len(index))

    def work(chunks):
        for start, spectra in spectrum_chunks(frames, index=index, chunks=chunks):
            np.subtract(spectra, noise, out=spectra)
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
        raise InvalidInput("empty energy track")

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
    noise: np.ndarray,
    cfg: SilenceConfig,
) -> list[QuasiSilenceRegion]:
    """detect_quasi_silences(spectral_subtract(frames, noise), cfg),
    subtracting only the frames whose residual energy can change the regions.

    The other frames get a placeholder from Parseval bounds on their
    residual energy r = mean(((|X| - N)+)^2), where X is the frame's rfft
    and N the noise profile. With E_X = mean |X|^2 (`frames.energies`) and
    E_N = mean N^2:
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
    included, bit for bit. If a profile bin is negative or NaN, a Parseval
    energy is not finite (an FFT energy can overflow only where Parseval's
    sum of squares, which is at least as large, does too), or the peak's
    lower bound is at or below ENERGY_FLOOR, where every frame may count
    as silent, every frame is subtracted.
    """
    def every_frame():
        return detect_quasi_silences(spectral_subtract(frames, noise), cfg)

    n = len(frames)
    if not (noise >= 0.0).all():
        return every_frame()
    energies = frames.energies
    if not np.isfinite(energies).all():
        return every_frame()

    noise_rms = math.sqrt(float(np.mean(np.square(noise))))
    lower = np.sqrt(energies)
    lower *= 1.0 - CANDIDATE_MARGIN
    lower -= noise_rms * (1.0 + CANDIDATE_MARGIN)
    np.maximum(lower, 0.0, out=lower)
    np.square(lower, out=lower)
    lower *= 1.0 - CANDIDATE_MARGIN
    lower -= CANDIDATE_FLOOR
    upper = energies * (1.0 + CANDIDATE_MARGIN)
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
    track = lower       # in place: one per-frame vector fewer held below
    np.copyto(track, upper, where=upper < window_lo)
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
