"""Noise estimation, spectral subtraction, and quasi-silence detection.

A quasi-silence is any sustained low-energy pause, whether or not it
coincides with a speaker switch. Detected regions anchor the change-point
search windows in the segmentation module.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, TooFewFrames
from .frontend import FrameSequence, MfccConfig

ENERGY_FLOOR = 1e-12

MIN_FRAMES_FOR_NOISE = 10


@dataclass(frozen=True)
class SilenceConfig:
    threshold_db: float = 60.0       # frames this far below the peak are quasi-silent
    min_region_frames: int = 10
    noise_percentile: float = 0.1

    def __post_init__(self):
        if self.threshold_db <= 0:
            raise InvalidConfig("threshold_db must be positive")
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


def _magnitude_spectra(frames: FrameSequence, fft_size: int) -> np.ndarray:
    windowed = frames.frames * np.hamming(frames.frame_len_samples)
    return np.abs(np.fft.rfft(windowed, n=fft_size, axis=1))


def estimate_noise_profile(
    frames: FrameSequence,
    cfg: SilenceConfig,
    mfcc_cfg: MfccConfig | None = None,
) -> NoiseProfile:
    """Per-bin mean magnitude over the quietest noise_percentile of frames."""
    if len(frames) < MIN_FRAMES_FOR_NOISE:
        raise TooFewFrames(f"need >= {MIN_FRAMES_FOR_NOISE} frames, got {len(frames)}")

    fft_size = (mfcc_cfg or MfccConfig()).resolve_fft_size(frames.sample_rate_hz)
    spectra = _magnitude_spectra(frames, fft_size)
    energies = np.mean(spectra ** 2, axis=1)

    k = max(1, int(np.floor(cfg.noise_percentile * len(frames))))
    quietest = np.argsort(energies, kind="stable")[:k]
    profile = spectra[quietest].mean(axis=0)
    return NoiseProfile(magnitude_spectrum_estimate=profile, frames_used=k)


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
    spectra = _magnitude_spectra(frames, fft_size)
    if spectra.shape[1] != noise.magnitude_spectrum_estimate.shape[0]:
        raise DimensionMismatch(
            f"profile has {noise.magnitude_spectrum_estimate.shape[0]} bins, "
            f"frames have {spectra.shape[1]}"
        )
    residual = np.maximum(spectra - noise.magnitude_spectrum_estimate, 0.0)
    return np.mean(residual ** 2, axis=1)


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

    regions: list[QuasiSilenceRegion] = []
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
