"""Greedy agglomerative clustering of speech segments.

Merge cost between two clusters is the delta BIC of their concatenated
feature rows. While any pair of clusters has a negative cost, the cheapest
pair merges; ties break on the lowest (a, b) id pair so runs are
reproducible. Segments shorter than min_segment_frames carry too little
evidence for a stable covariance and are left out as noise.

A cluster is held as its sufficient statistics (n, mean, centred scatter
sum (x - mean)(x - mean)^T) plus its cached log|C|, the cumulative-statistics
BIC of Cettolo & Vescovi (ICASSP 2003): a merge adds statistics with the
parallel update S_ab = S_a + S_b + (n_a n_b / n_ab) dd^T, d = mean_b - mean_a,
instead of stacking rows. Pair costs are evaluated in batches with
divergence.stacked_log_det and equal merge_cost (delta_bic of the
concatenated rows) up to rounding. A k x k cost matrix holds the upper
triangle; after a merge only the merged cluster's row is recomputed.
Each pair cost counts one merge_cost_count; the covariance and delta BIC
counters are left to the oracles.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .divergence import BicConfig, ComputeCounter, delta_bic, stacked_log_det
from .errors import DimensionMismatch, NoSegments, WindowTooSmall


@dataclass(frozen=True)
class Segment:
    start_frame: int
    end_frame: int          # exclusive
    rows: np.ndarray        # view into the feature matrix

    def __post_init__(self):
        if self.start_frame >= self.end_frame:
            raise ValueError("segment must span at least one frame")

    @property
    def n_frames(self) -> int:
        return self.end_frame - self.start_frame

    def bounds_sec(self, hop_sec: float) -> tuple[float, float]:
        return self.start_frame * hop_sec, self.end_frame * hop_sec


@dataclass(frozen=True)
class ClusterSet:
    clusters: list[list[int]]                   # member segment indices, sorted
    assignments: list[int | None]               # per-segment cluster id; None = noise
    merge_trace: list[tuple[int, int, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.clusters)

    def noise_segments(self) -> list[int]:
        return [i for i, a in enumerate(self.assignments) if a is None]


def merge_cost(
    a: np.ndarray,
    b: np.ndarray,
    cfg: BicConfig | None = None,
    counter: ComputeCounter | None = None,
) -> float:
    """Delta BIC between the concatenated rows of two clusters."""
    return delta_bic(a, b, cfg or BicConfig(), counter)


# pairs priced per batch: bounds the (pairs, d, d) temporaries to a few MB
PAIR_BATCH = 2048
DEFAULT_MIN_SEGMENT_FRAMES = 25


def cluster_segments(
    segments: list[Segment],
    cfg: BicConfig | None = None,
    min_segment_frames: int = DEFAULT_MIN_SEGMENT_FRAMES,
    counter: ComputeCounter | None = None,
) -> ClusterSet:
    """Greedily merge segment clusters while the cheapest pair attracts.

    Returns cluster membership over the eligible segments plus the ordered
    merge trace; too-short segments get assignment None.
    """
    if not segments:
        raise NoSegments("no segments to cluster")
    cfg = cfg or BicConfig()

    eligible = [i for i, s in enumerate(segments) if s.n_frames >= min_segment_frames]
    assignments: list[int | None] = [None] * len(segments)
    if not eligible:
        return ClusterSet(clusters=[], assignments=assignments, merge_trace=[])

    # stable ids: position in the eligible list; a merge keeps the lower id
    k = len(eligible)
    members: dict[int, list[int]] = {cid: [seg] for cid, seg in enumerate(eligible)}
    trace: list[tuple[int, int, float]] = []
    if k >= 2:
        n, mean, scatter = _segment_stats([segments[i].rows for i in eligible])
        log_det = stacked_log_det(n, mean, scatter)
        penalty_scale = 0.5 * cfg.lambda_ * cfg.resolve_delta_k(mean.shape[1])

        def merged(a, b):
            n_ab = n[a] + n[b]
            diff = mean[b] - mean[a]
            mean_ab = mean[a] + (n[b] / n_ab)[..., None] * diff
            scatter_ab = (scatter[a] + scatter[b]
                          + (n[a] * n[b] / n_ab)[..., None, None]
                          * diff[..., :, None] * diff[..., None, :])
            return n_ab, mean_ab, scatter_ab

        def pair_costs(a, b):
            n_ab, mean_ab, scatter_ab = merged(a, b)
            value = (0.5 * n_ab * stacked_log_det(n_ab, mean_ab, scatter_ab)
                     - 0.5 * n[a] * log_det[a]
                     - 0.5 * n[b] * log_det[b]
                     - penalty_scale * np.log(n_ab))
            if counter is not None:
                counter.merge_cost_count += len(value)
            # a NaN cost (-inf log-determinants on both sides) never attracts
            return np.where(np.isnan(value), np.inf, value)

        costs = np.full((k, k), np.inf)
        rows_a, rows_b = np.triu_indices(k, 1)
        for lo in range(0, len(rows_a), PAIR_BATCH):
            a, b = rows_a[lo:lo + PAIR_BATCH], rows_b[lo:lo + PAIR_BATCH]
            costs[a, b] = pair_costs(a, b)

        while True:
            # first minimum in row-major order: the lowest (a, b) among ties
            a, b = divmod(int(np.argmin(costs)), k)
            best_cost = float(costs[a, b])
            if not best_cost < 0.0:
                break
            members[a] = members[a] + members.pop(b)
            n[a], mean[a], scatter[a] = merged(a, b)
            log_det[a] = stacked_log_det(n[a:a + 1], mean[a:a + 1],
                                         scatter[a:a + 1])[0]
            costs[b, :] = costs[:, b] = np.inf
            trace.append((a, b, best_cost))
            others = np.array([c for c in members if c != a], dtype=np.intp)
            if not len(others):
                break
            lower, upper = np.minimum(others, a), np.maximum(others, a)
            costs[lower, upper] = pair_costs(lower, upper)

    ordered = sorted(members.values(), key=lambda m: min(m))
    clusters = [sorted(m) for m in ordered]
    for label, m in enumerate(clusters):
        for seg in m:
            assignments[seg] = label
    return ClusterSet(clusters=clusters, assignments=assignments, merge_trace=trace)


def _segment_stats(windows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, mean, centred scatter) stacks of segment feature rows."""
    rows = [np.asarray(w, dtype=np.float64) for w in windows]
    rows = [w[:, None] if w.ndim == 1 else w for w in rows]
    if len({w.shape[1] for w in rows}) > 1:
        raise DimensionMismatch("segments differ in feature dimension")
    if min(len(w) for w in rows) < 2:
        raise WindowTooSmall("each clustered segment needs >= 2 rows")
    n = np.array([len(w) for w in rows], dtype=np.float64)
    mean = np.stack([w.mean(axis=0) for w in rows])
    scatter = np.stack([(w - m).T @ (w - m) for w, m in zip(rows, mean)])
    return n, mean, scatter


def cluster_rows(segments: list[Segment], cluster: list[int]) -> np.ndarray:
    """Concatenated feature rows of one cluster's member segments."""
    return np.vstack([np.asarray(segments[i].rows, dtype=np.float64) for i in cluster])


def write_cluster_csv(path, segments: list[Segment], clusters: ClusterSet,
                      hop_sec: float) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["segment_start_sec", "segment_end_sec", "cluster_id"])
        for i, seg in enumerate(segments):
            start, end = seg.bounds_sec(hop_sec)
            label = clusters.assignments[i]
            writer.writerow([f"{start:.6f}", f"{end:.6f}",
                             label if label is not None else "noise"])
