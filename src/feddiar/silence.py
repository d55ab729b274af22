"""Noise estimation, spectral subtraction, and quasi-silence detection.

A quasi-silence is any sustained low-energy pause, whether or not it
coincides with a speaker switch. Detected regions anchor the change-point
search windows in the segmentation module.

Spectra come from `frontend.spectrum_chunks`, CHUNK_FRAMES frames at a
time through buffers allocated once per call, so memory stays flat in the
audio length and results equal a whole-matrix pass bit for bit. The noise
profile takes per-frame energies from one chunked pass and then
recomputes the spectra of only the quietest noise_percentile of the
frames; spectral subtraction is a second chunked pass.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, TooFewFrames
from .frontend import FrameSequence, MfccConfig, spectrum_chunks

ENERGY_FLOOR = 1e-12

MIN_FRAMES_FOR_NOISE = 10


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


def estimate_noise_profile(
    frames: FrameSequence,
    cfg: SilenceConfig,
    mfcc_cfg: MfccConfig | None = None,
) -> NoiseProfile:
    """Per-bin mean magnitude over the quietest noise_percentile of frames."""
    if len(frames) < MIN_FRAMES_FOR_NOISE:
        raise TooFewFrames(f"need >= {MIN_FRAMES_FOR_NOISE} frames, got {len(frames)}")

    fft_size = (mfcc_cfg or MfccConfig()).resolve_fft_size(frames.sample_rate_hz)
    energies = np.empty(len(frames))
    for start, spectra in spectrum_chunks(frames, fft_size):
        np.square(spectra, out=spectra)
        np.mean(spectra, axis=1, out=energies[start:start + len(spectra)])

    k = max(1, int(np.floor(cfg.noise_percentile * len(frames))))
    quietest = np.argsort(energies, kind="stable")[:k]
    # Summed row by row in `quietest` order, as a mean over axis 0 would be.
    total = np.zeros(fft_size // 2 + 1)
    for _, spectra in spectrum_chunks(frames, fft_size, index=quietest):
        for row in spectra:
            total += row
    return NoiseProfile(magnitude_spectrum_estimate=total / k, frames_used=k)


def spectral_subtract(
    frames: FrameSequence,
    noise: NoiseProfile,
    mfcc_cfg: MfccConfig | None = None,
) -> np.ndarray:
    """Residual energy per frame after subtracting the noise magnitude profile.

    Bins are floored at zero; the result is the mean squared residual
    magnitude of each frame.
    """
    fft_size = (mfcc_cfg or MfccConfig()).resolve_fft_size(frames.sample_rate_hz)
    profile = noise.magnitude_spectrum_estimate
    bins = fft_size // 2 + 1
    if profile.shape[0] != bins:
        raise DimensionMismatch(f"profile has {profile.shape[0]} bins, frames have {bins}")
    energy = np.empty(len(frames))
    for start, spectra in spectrum_chunks(frames, fft_size):
        np.subtract(spectra, profile, out=spectra)
        np.maximum(spectra, 0.0, out=spectra)
        np.square(spectra, out=spectra)
        np.mean(spectra, axis=1, out=energy[start:start + len(spectra)])
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

    peak = np.percentile(energy, 95.0)
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
