"""Greedy agglomerative clustering of speech segments.

Merge cost between two clusters is the delta BIC of their concatenated
feature rows. While any pair of clusters has a negative cost, the cheapest
pair merges; ties break on the lowest (a, b) id pair so runs are
reproducible. Segments shorter than min_segment_frames carry too little
evidence for a stable covariance and are left out as noise.

merge_greedy never sees rows. It holds a cluster as its sufficient
statistics (n, mean, centred scatter S, the divergence.window_stats of its
rows) and its cached log|C|, the cumulative-statistics BIC of Cettolo &
Vescovi (ICASSP 2003): a merge adds statistics, S_ab = S_a + S_b +
(n_a n_b / n_ab) dd^T with d = mean_b - mean_a. Pair costs are priced in
batches with divergence.stacked_log_det and equal merge_cost (delta_bic of
the concatenated rows) up to rounding. A k x k cost matrix holds the upper
triangle; after a merge only the merged cluster's row is recomputed. Beside
it, a k x k array keeps each priced pair's log|C_ab|, which becomes the
merged cluster's log|C| when the pair merges: no factorisation repeats it.

Most pairs are never priced. With C = S / n, w_a = n_a / n_ab and
C_ab = M + w_a w_b dd^T, M = w_a C_a + w_b C_b, the matrix determinant lemma
gives log|C_ab| = log|M| + log(1 + w_a w_b d^T M^-1 d), and log det is
concave, so log|M| >= w_a log|C_a| + w_b log|C_b|; and d^T M^-1 d >=
|d|^2 / lambda_max(M), lambda_max(M) <= w_a lambda_max(C_a) + w_b
lambda_max(C_b). Where neither cluster is ridged (a ridge on the merged
covariance only raises its log-determinant), the unpenalised cost is
therefore at least
0.5 n_ab log(1 + w_a w_b |d|^2 / (w_a lambda_max(C_a) + w_b lambda_max(C_b))).
Each cluster keeps lambda_max of its covariance (one batched eigvalsh at the
start, one eigvalsh per merge), and a pair whose bound clears the penalty
by a margin (see _settled) keeps the cost +inf. A pair of positive cost
never merges, so the merges, their order and their costs are those of
pricing every pair. Each priced pair counts one merge_cost_count; the
covariance and delta BIC counters are left to the oracles.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .divergence import (
    BicConfig,
    ComputeCounter,
    delta_bic,
    stacked_log_det,
    stacked_ridge,
    window_stats,
)
from .errors import InvalidInput

# Relative margin by which a merge-cost bound must clear its threshold
# before it settles a pair (see _settled and _top_eigenvalues): the bounds
# and the cost they stand in for carry rounding of a few ulps per
# eigenvalue and logarithm, many orders of magnitude below it.
BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class Segment:
    start_frame: int
    end_frame: int          # exclusive
    rows: np.ndarray        # view into the feature matrix

    def __post_init__(self):
        if self.start_frame >= self.end_frame:
            raise InvalidInput("segment must span at least one frame")

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
    merge trace; too-short segments get assignment None, and with no
    eligible segment (or none at all) the set is empty.
    """
    eligible = [i for i, s in enumerate(segments) if s.n_frames >= min_segment_frames]
    groups, trace = [[p] for p in range(len(eligible))], []
    if len(eligible) >= 2:
        stats = [window_stats(segments[i].rows) for i in eligible]
        if len({mean.shape for _, mean, _ in stats}) > 1:
            raise InvalidInput("segments differ in feature dimension")
        n, mean, scatter = map(np.array, zip(*stats))
        if n.min() < 2:
            raise InvalidInput("each clustered segment needs >= 2 rows")
        groups, trace = merge_greedy(n, mean, scatter, cfg or BicConfig(), counter)
    clusters = [[eligible[p] for p in group] for group in groups]
    label = {seg: c for c, members in enumerate(clusters) for seg in members}
    assignments = [label.get(i) for i in range(len(segments))]
    return ClusterSet(clusters=clusters, assignments=assignments, merge_trace=trace)


def merge_greedy(n, mean: np.ndarray, scatter: np.ndarray, cfg: BicConfig,
                 counter: ComputeCounter | None):
    """The greedy merge of k clusters given as (k,) sizes, (k, d) means and
    (k, d, d) centred scatters, which it leaves as they are. Returns each
    final cluster's members as sorted stack positions, ordered by the
    lowest, and the merge trace of (a, b, cost); the merge keeps id a < b."""
    n, mean, scatter = (np.array(x, dtype=np.float64) for x in (n, mean, scatter))
    k = len(n)
    members, trace = {cid: [cid] for cid in range(k)}, []
    log_det = stacked_log_det(n, mean, scatter)
    top = _top_eigenvalues(n, mean, scatter)
    penalty_scale = 0.5 * cfg.lambda_ * cfg.resolve_delta_k(mean.shape[1])
    # the upper triangle: each pair's cost, +inf where it is not priced,
    # and its log|C_ab|, which a merged cluster keeps as its log|C|
    costs = np.full((k, k), np.inf)
    pair_log_det = np.empty((k, k))

    def merged(a, b):
        n_ab = n[a] + n[b]
        diff = mean[b] - mean[a]
        mean_ab = mean[a] + (n[b] / n_ab)[..., None] * diff
        scatter_ab = (scatter[a] + scatter[b]
                      + (n[a] * n[b] / n_ab)[..., None, None]
                      * diff[..., :, None] * diff[..., None, :])
        return n_ab, mean_ab, scatter_ab

    def price(a, b):
        """Write the costs of the pairs (a, b) that the bound leaves open."""
        open_ = ~_settled(n, mean, top, penalty_scale, a, b)
        a, b = a[open_], b[open_]
        if not len(a):
            return
        n_ab, mean_ab, scatter_ab = merged(a, b)
        pair_log_det[a, b] = stacked_log_det(n_ab, mean_ab, scatter_ab)
        value = (0.5 * n_ab * pair_log_det[a, b]
                 - 0.5 * n[a] * log_det[a]
                 - 0.5 * n[b] * log_det[b]
                 - penalty_scale * np.log(n_ab))
        if counter is not None:
            counter.merge_cost_count += len(value)
        # a NaN cost (-inf log-determinants on both sides) never attracts
        costs[a, b] = np.where(np.isnan(value), np.inf, value)

    rows_a, rows_b = np.triu_indices(k, 1)
    for lo in range(0, len(rows_a), PAIR_BATCH):
        price(rows_a[lo:lo + PAIR_BATCH], rows_b[lo:lo + PAIR_BATCH])

    while True:
        # first minimum in row-major order: the lowest (a, b) among ties
        a, b = divmod(int(np.argmin(costs)), k)
        best_cost = float(costs[a, b])
        if not best_cost < 0.0:
            break
        members[a] = members[a] + members.pop(b)
        n[a], mean[a], scatter[a] = merged(a, b)
        log_det[a] = pair_log_det[a, b]
        top[a] = _top_eigenvalues(n[a:a + 1], mean[a:a + 1], scatter[a:a + 1])[0]
        costs[b, :] = costs[:, b] = np.inf
        trace.append((a, b, best_cost))
        others = np.array([c for c in members if c != a], dtype=np.intp)
        if not len(others):
            break
        lower, upper = np.minimum(others, a), np.maximum(others, a)
        costs[lower, upper] = np.inf
        price(lower, upper)
    return [sorted(members[c]) for c in sorted(members)], trace


def _settled(n, mean, top, penalty_scale, a, b) -> np.ndarray:
    """Pairs (a, b) whose cost the lower bound shows to be positive.

    The bound 0.5 n_ab log(1 + w_a w_b |d|^2 / (w_a top_a + w_b top_b)),
    w = n / n_ab, must clear the penalty by BOUND_MARGIN of the
    penalty plus d per row: the cost sums n_ab * d logarithms of
    eigenvalues, each far closer to exact than that.
    """
    n_ab = n[a] + n[b]
    w_a, w_b = n[a] / n_ab, n[b] / n_ab
    diff = mean[b] - mean[a]
    bound = 0.5 * n_ab * np.log1p(w_a * w_b * np.einsum("ki,ki->k", diff, diff)
                                  / (w_a * top[a] + w_b * top[b]))
    penalty = penalty_scale * np.log(n_ab)
    return bound - penalty > BOUND_MARGIN * (penalty + mean.shape[1] * n_ab)


def _top_eigenvalues(n, mean, scatter) -> np.ndarray:
    """lambda_max of each MLE covariance that stacked_log_det certainly leaves
    unridged (its smallest eigenvalue clears the ridge by BOUND_MARGIN
    of lambda_max, far beyond the rounding of eigvalsh and of the Cholesky
    ridge test), and +inf for every other one, which makes each of its
    pair bounds 0."""
    cov, ridge, zero_variance = stacked_ridge(n, mean, scatter)
    eig = np.linalg.eigvalsh(cov)
    clear = ~zero_variance & (eig[:, 0] - ridge > BOUND_MARGIN * eig[:, -1])
    return np.where(clear, eig[:, -1], np.inf)


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
