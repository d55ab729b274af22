"""Quasi-silence-anchored speaker change detection.

Around each detected quasi-silence an analysis window is placed. A smaller
scan window starts at its left edge and is repeatedly split into sub-window
pairs whose divergence is evaluated:

* on a detection the scan window slides forward by slide_frames,
* on a miss it grows by grow_frames, never beyond the analysis window.

The "bic" method accepts the best split when its delta BIC is positive.
The "t2" method ranks splits by the cheap T^2 statistic and spends a single
delta BIC evaluation to confirm the best one; it slides after any T^2
detection even when the confirmation rejects.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammaincinv

from .divergence import ComputeCounter, delta_bic, hotelling_t2
from .errors import InvalidConfig, WindowTooSmall
from .frontend import FeatureMatrix
from .silence import QuasiSilenceRegion

METHOD_BIC = "bic"
METHOD_T2 = "t2"


@dataclass(frozen=True)
class SegConfig:
    window_frames: int = 125
    stride_fraction: float = 0.6
    analysis_window_sec: float = 1.75
    slide_frames: int | None = None     # None: window_frames // 2
    grow_frames: int | None = None      # None: window_frames // 4
    method: str = METHOD_T2
    t2_threshold: float | None = None   # None: chi-squared(d) 95th percentile

    def __post_init__(self):
        if self.window_frames < 4:
            raise InvalidConfig("window_frames must be at least 4")
        if not 0.0 < self.stride_fraction <= 1.0:
            raise InvalidConfig("stride_fraction must lie in (0, 1]")
        if not 0.0 < self.analysis_window_sec < math.inf:
            raise InvalidConfig("analysis_window_sec must be positive and finite")
        # a step of 0 would rescan the same window forever
        if self.slide_frames is not None and self.slide_frames < 1:
            raise InvalidConfig("slide_frames must be at least 1")
        if self.grow_frames is not None and self.grow_frames < 1:
            raise InvalidConfig("grow_frames must be at least 1")
        if self.t2_threshold is not None and not math.isfinite(self.t2_threshold):
            raise InvalidConfig("t2_threshold must be finite")
        if self.method not in (METHOD_BIC, METHOD_T2):
            raise InvalidConfig(f"unknown method '{self.method}'")

    @property
    def slide(self) -> int:
        return self.slide_frames if self.slide_frames is not None else max(1, self.window_frames // 2)

    @property
    def grow(self) -> int:
        return self.grow_frames if self.grow_frames is not None else max(1, self.window_frames // 4)

    def resolve_t2_threshold(self, d: int) -> float:
        if self.t2_threshold is not None:
            return self.t2_threshold
        # the chi-squared(d) quantile from the regularized lower incomplete
        # gamma function, without importing scipy.stats (most of a CLI
        # process's import time); bit for bit chi2.ppf(0.95, d)
        return float(2.0 * gammaincinv(d / 2.0, 0.95))


@dataclass(frozen=True)
class ChangePoint:
    frame_index: int
    time_sec: float
    divergence_value: float
    anchor_silence: int       # index into the quasi-silence list

    def as_row(self, method: str) -> list:
        return [f"{self.time_sec:.6f}", self.frame_index,
                repr(self.divergence_value), method]


@dataclass(frozen=True)
class ChangePointList:
    points: list[ChangePoint] = field(default_factory=list)
    config_used: SegConfig | None = None

    def __len__(self) -> int:
        return len(self.points)

    def frame_indices(self) -> list[int]:
        return [p.frame_index for p in self.points]

    def times_sec(self) -> list[float]:
        return [p.time_sec for p in self.points]


def _min_subwindow(method: str, d: int) -> int:
    # T^2 needs a well-posed pooled covariance; BIC fits need two rows a side
    return d + 2 if method == METHOD_T2 else 2


def _split_positions(n: int, stride_fraction: float, min_sub: int) -> list[int]:
    stride = max(1, int(round(stride_fraction * n)))
    splits = [i for i in range(stride, n, stride) if min_sub <= i <= n - min_sub]
    if not splits:
        splits = [n // 2]
    return splits


def scan_window(
    window,
    stride_fraction: float,
    method: str,
    counter: ComputeCounter | None = None,
) -> tuple[int, float]:
    """Evaluate the divergence at every stride-generated split of a window.

    Method "bic" scores a split by delta BIC with the default BicConfig,
    "t2" by Hotelling's T^2. Returns (best_split_index, best_value); ties go
    to the split nearest the window center, then to the lower index.
    """
    w = np.asarray(window, dtype=np.float64)
    if w.ndim == 1:
        w = w[:, None]
    n, d = w.shape
    min_sub = _min_subwindow(method, d)
    if n < 2 * min_sub:
        raise WindowTooSmall(f"window of {n} rows cannot host two {min_sub}-row sub-windows")

    best_idx = -1
    best_val = -np.inf
    best_center_dist = np.inf
    for split in _split_positions(n, stride_fraction, min_sub):
        left, right = w[:split], w[split:]
        if method == METHOD_BIC:
            value = delta_bic(left, right, counter=counter)
        else:
            value = hotelling_t2(left, right, counter)
        dist = abs(split - n / 2.0)
        if value > best_val or (value == best_val and dist < best_center_dist):
            best_idx, best_val, best_center_dist = split, value, dist
    return best_idx, best_val


def _dedup(points: list[ChangePoint], min_gap: int) -> list[ChangePoint]:
    """Merge points closer than min_gap frames, keeping the strongest."""
    if not points:
        return []
    ordered = sorted(points, key=lambda p: (p.frame_index, -p.divergence_value))
    merged = [ordered[0]]
    for p in ordered[1:]:
        if p.frame_index - merged[-1].frame_index < min_gap:
            if p.divergence_value > merged[-1].divergence_value:
                merged[-1] = p
        else:
            merged.append(p)
    return merged


def _segment(
    features: FeatureMatrix,
    silences: list[QuasiSilenceRegion],
    cfg: SegConfig,
    counter: ComputeCounter | None,
) -> ChangePointList:
    n_frames = len(features)
    hop = features.hop_sec
    if not silences or n_frames < 2 or hop <= 0.0:
        return ChangePointList(points=[], config_used=cfg)

    rows = features.rows
    d = features.d
    n_aw = max(1, int(round(cfg.analysis_window_sec / hop)))
    min_sub = _min_subwindow(cfg.method, d)
    # A split is detected when its score clears the gate; t2 then spends one
    # delta BIC to confirm it, while bic scored it with delta BIC already.
    gate = cfg.resolve_t2_threshold(d) if cfg.method == METHOD_T2 else 0.0

    raw: list[ChangePoint] = []
    for silence_idx, region in enumerate(silences):
        center = (region.start_frame + region.end_frame + 1) // 2
        aw_start = max(0, center - n_aw // 2)
        aw_end = min(n_frames, aw_start + n_aw)

        w_start = aw_start
        w_len = cfg.window_frames
        while w_start + w_len <= aw_end and w_len <= n_aw:
            if w_len < 2 * min_sub:
                w_len += cfg.grow
                continue
            window = rows[w_start:w_start + w_len]
            best_idx, best_val = scan_window(
                window, cfg.stride_fraction, cfg.method, counter)
            detected = best_val > gate
            if detected and (cfg.method == METHOD_BIC or delta_bic(
                    window[:best_idx], window[best_idx:], counter=counter) > 0.0):
                frame = w_start + best_idx
                raw.append(ChangePoint(
                    frame_index=frame,
                    time_sec=float(features.frame_times_sec[frame]),
                    divergence_value=best_val,
                    anchor_silence=silence_idx,
                ))
            # the window moves on after any detection, confirmed or not
            if detected:
                w_start += cfg.slide
            else:
                w_len += cfg.grow

    return ChangePointList(points=_dedup(raw, cfg.slide), config_used=cfg)


def segment_bic(
    features: FeatureMatrix,
    silences: list[QuasiSilenceRegion],
    cfg: SegConfig,
    counter: ComputeCounter | None = None,
) -> ChangePointList:
    """Change-point detection scoring every split with delta BIC."""
    if cfg.method != METHOD_BIC:
        cfg = replace(cfg, method=METHOD_BIC)
    return _segment(features, silences, cfg, counter)


def segment_t2(
    features: FeatureMatrix,
    silences: list[QuasiSilenceRegion],
    cfg: SegConfig,
    counter: ComputeCounter | None = None,
) -> ChangePointList:
    """Change-point detection with T^2 scanning and one delta BIC confirmation."""
    if cfg.method != METHOD_T2:
        cfg = replace(cfg, method=METHOD_T2)
    return _segment(features, silences, cfg, counter)


def write_change_point_csv(path, points: ChangePointList) -> None:
    method = points.config_used.method if points.config_used else ""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_sec", "frame_index", "divergence_value", "method"])
        for p in points.points:
            writer.writerow(p.as_row(method))
