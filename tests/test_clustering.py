import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feddiar import clustering
from feddiar.clustering import (
    BOUND_MARGIN,
    ClusterSet,
    Segment,
    cluster_rows,
    cluster_segments,
    merge_cost,
    merge_greedy,
    write_cluster_csv,
)
from feddiar.divergence import BicConfig, ComputeCounter, gaussian_fit
from feddiar.errors import InvalidInput


def make_segment(start, rows):
    return Segment(start, start + rows.shape[0], rows)


def gaussian_segments(means, n_per=40, d=12, seed=0):
    rng = np.random.default_rng(seed)
    segs = []
    cursor = 0
    for m in means:
        rows = m + rng.standard_normal((n_per, d))
        segs.append(make_segment(cursor, rows))
        cursor += n_per + 10
    return segs


def test_segment_validation() -> None:
    rows = np.zeros((5, 2))
    seg = Segment(10, 15, rows)
    assert seg.n_frames == 5
    assert seg.bounds_sec(0.010) == (pytest.approx(0.10), pytest.approx(0.15))
    with pytest.raises(InvalidInput, match="segment must span at least one frame"):
        Segment(15, 10, rows)
    with pytest.raises(InvalidInput, match="segment must span at least one frame"):
        Segment(10, 10, rows)


def test_single_segment_single_cluster() -> None:
    segs = gaussian_segments([0.0])
    result = cluster_segments(segs)
    assert len(result) == 1
    assert result.clusters == [[0]]
    assert result.merge_trace == []


def test_no_segments_give_the_empty_cluster_set() -> None:
    result = cluster_segments([])
    assert (result.clusters, result.assignments, result.merge_trace) == ([], [], [])


def test_same_speaker_segments_all_merge() -> None:
    segs = gaussian_segments([0.0, 0.0, 0.0, 0.0], seed=1)
    result = cluster_segments(segs)
    assert len(result) == 1
    assert sorted(result.clusters[0]) == [0, 1, 2, 3]
    assert len(result.merge_trace) == 3


def test_alternating_speakers_two_pure_clusters() -> None:
    means = [0.0 if i % 2 == 0 else 6.0 for i in range(8)]
    segs = gaussian_segments(means, seed=2)
    result = cluster_segments(segs)
    assert len(result) == 2
    groups = [sorted(c) for c in result.clusters]
    assert groups == [[0, 2, 4, 6], [1, 3, 5, 7]]


def test_merge_cost_symmetric() -> None:
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 4))
    b = 2.0 + rng.standard_normal((35, 4))
    assert abs(merge_cost(a, b) - merge_cost(b, a)) < 1e-12


def test_short_segments_marked_noise() -> None:
    rng = np.random.default_rng(4)
    long_a = make_segment(0, rng.standard_normal((40, 12)))
    short = make_segment(50, rng.standard_normal((5, 12)))
    long_b = make_segment(60, rng.standard_normal((40, 12)))
    result = cluster_segments([long_a, short, long_b], min_segment_frames=25)
    assert [i for i, a in enumerate(result.assignments) if a is None] == [1]
    clustered = sorted(i for c in result.clusters for i in c)
    assert clustered == [0, 2]


def test_every_eligible_segment_in_exactly_one_cluster() -> None:
    means = [0.0, 5.0, 0.0, 10.0, 5.0, 0.0]
    segs = gaussian_segments(means, seed=5)
    result = cluster_segments(segs)
    seen = sorted(i for c in result.clusters for i in c)
    assert seen == list(range(6))
    for idx, cid in enumerate(result.assignments):
        assert idx in result.clusters[cid]


def test_assignments_and_rows_consistent() -> None:
    segs = gaussian_segments([0.0, 6.0, 0.0], seed=6)
    result = cluster_segments(segs)
    for members in result.clusters:
        rows = cluster_rows(segs, members)
        assert rows.shape[0] == sum(segs[i].n_frames for i in members)


def test_clustering_deterministic() -> None:
    means = [0.0, 4.0, 0.0, 4.0, 8.0]
    segs = gaussian_segments(means, seed=7)
    a = cluster_segments(segs)
    b = cluster_segments(segs)
    assert a.clusters == b.clusters
    assert a.merge_trace == b.merge_trace


def test_cluster_csv_includes_noise_rows(tmp_path) -> None:
    rng = np.random.default_rng(8)
    segs = [make_segment(0, rng.standard_normal((40, 12))),
            make_segment(50, rng.standard_normal((5, 12)))]
    result = cluster_segments(segs, min_segment_frames=25)
    path = tmp_path / "c.csv"
    write_cluster_csv(path, segs, result, hop_sec=0.010)
    lines = path.read_text().splitlines()
    assert lines[0] == "segment_start_sec,segment_end_sec,cluster_id"
    assert len(lines) == 3
    assert lines[2].endswith(",noise")


def test_clustering_statistics_are_each_segments_gaussian_fit(monkeypatch) -> None:
    # one row reduction serves both: each segment's mean and covariance are
    # those gaussian_fit gives its rows, to the last bit
    rng = np.random.default_rng(11)
    segs = [make_segment(start, rng.standard_normal((size, 12)) + shift)
            for start, size, shift in [(0, 26, 0.0), (30, 97, 5.0), (130, 400, 0.0),
                                       (540, 1000, 5.0)]]
    calls = []
    real = clustering.stacked_log_det

    def spy(n, mean, scatter):
        calls.append((n.copy(), mean.copy(), scatter.copy()))
        return real(n, mean, scatter)

    monkeypatch.setattr(clustering, "stacked_log_det", spy)
    cluster_segments(segs)
    n, mean, scatter = calls[0]
    for i, seg in enumerate(segs):
        fit = gaussian_fit(seg.rows)
        assert n[i] == fit.n
        assert np.array_equal(mean[i], fit.mean)
        assert np.array_equal(scatter[i] / n[i], fit.covariance)


def test_merge_greedy_clusters_statistics_given_without_rows() -> None:
    # clusters handed over as Gaussian models (size, mean, covariance): three
    # of one model and three of a model far from it
    d, size = 12, 200.0
    base = np.random.default_rng(12).standard_normal((d, d))
    cov = base @ base.T / d + np.eye(d)
    n = np.full(6, size)
    mean = np.repeat([np.zeros(d), np.full(d, 8.0)], 3, axis=0)
    scatter = np.stack([size * cov] * 6)
    given = [x.copy() for x in (n, mean, scatter)]
    groups, trace = merge_greedy(n, mean, scatter, BicConfig(), None)
    assert groups == [[0, 1, 2], [3, 4, 5]]
    # equal models merge at minus the penalty, the largest merged size first
    assert [m[:2] for m in trace] == [(0, 1), (0, 2), (3, 4), (3, 5)]
    assert all(cost < 0.0 for _, _, cost in trace)
    assert all(np.array_equal(x, y) for x, y in zip((n, mean, scatter), given))


def reference_cluster_segments(segments, cfg=None, min_segment_frames=25,
                               counter=None) -> ClusterSet:
    """The greedy loop on stacked rows: every pair cost is a merge_cost
    (delta BIC) of the concatenated member rows. Oracle for cluster_segments."""
    cfg = cfg or BicConfig()
    eligible = [i for i, s in enumerate(segments) if s.n_frames >= min_segment_frames]
    assignments = [None] * len(segments)
    members = {cid: [seg] for cid, seg in enumerate(eligible)}
    rows = {cid: np.asarray(segments[seg].rows, dtype=np.float64)
            for cid, seg in enumerate(eligible)}
    costs = {}
    trace = []
    while len(members) >= 2:
        ids = sorted(members)
        best_pair = None
        best_cost = np.inf
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if (a, b) not in costs:
                    costs[(a, b)] = merge_cost(rows[a], rows[b], cfg, counter)
                if costs[(a, b)] < best_cost:
                    best_cost, best_pair = costs[(a, b)], (a, b)
        if best_cost >= 0.0 or best_pair is None:
            break
        a, b = best_pair
        members[a] = members[a] + members[b]
        rows[a] = np.vstack([rows[a], rows[b]])
        del members[b], rows[b]
        costs = {k: v for k, v in costs.items() if a not in k and b not in k}
        trace.append((a, b, best_cost))
    clusters = [sorted(m) for m in sorted(members.values(), key=min)]
    for label, m in enumerate(clusters):
        for seg in m:
            assignments[seg] = label
    return ClusterSet(clusters=clusters, assignments=assignments, merge_trace=trace)


MIN_FRAMES = 12
KINDS = ("speaker", "speaker", "short", "collinear", "constant")


def draw_segments(seed, kinds, lambda_=1.0):
    """Segments of mixed speakers, too-short runs, rank-one rows (ridge) and
    all-equal rows (zero covariance), all of one feature dimension. A twin
    is two segments of equal covariance whose means lie apart along its top
    eigenvector, so that the pair's lower bound is its exact unpenalised
    cost. The shift puts that cost (at lambda_) half the bound's margin
    below zero, so the pair merges unless the bound wrongly settles it."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    segs, cursor = [], 0
    for kind in kinds:
        n = int(rng.integers(MIN_FRAMES, 45))
        if kind == "speaker":
            rows = rng.choice([0.0, 2.0, 6.0]) + rng.standard_normal((n, d))
        elif kind == "short":
            n = int(rng.integers(1, MIN_FRAMES))
            rows = rng.standard_normal((n, d))
        elif kind == "collinear":
            rows = rng.standard_normal((n, 1)) * rng.standard_normal(d) + rng.uniform(-3, 3)
        elif kind == "twin":
            rows = rng.standard_normal((n, d))
            eigenvalues, vectors = np.linalg.eigh(np.cov(rows.T, bias=True).reshape(d, d))
            cfg = BicConfig(lambda_=lambda_)
            penalty = 0.5 * lambda_ * cfg.resolve_delta_k(d) * math.log(2 * n)
            target = penalty - 0.5 * BOUND_MARGIN * (penalty + d * 2 * n)
            shift = math.sqrt(4 * eigenvalues[-1] * math.expm1(max(target, 0.0) / n))
            segs.append(make_segment(cursor, rows))
            cursor += n + 5
            rows = rows + shift * vectors[:, -1]
        else:
            rows = np.full((n, d), rng.uniform(-5, 5))
        segs.append(make_segment(cursor, rows))
        cursor += n + 5
    return segs


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(st.sampled_from(KINDS), min_size=1, max_size=9))
def test_statistics_clustering_matches_row_oracle(seed, kinds) -> None:
    segs = draw_segments(seed, kinds)
    got = cluster_segments(segs, min_segment_frames=MIN_FRAMES)
    ref = reference_cluster_segments(segs, min_segment_frames=MIN_FRAMES)
    assert got.clusters == ref.clusters
    assert got.assignments == ref.assignments
    assert [m[:2] for m in got.merge_trace] == [m[:2] for m in ref.merge_trace]
    # A ridged covariance leaves rounding of a few 1e-9 per row on a cost
    # (the row oracle itself moves that much when its two inputs swap
    # places), hence the absolute floor per row of the merged pair.
    sizes = [s.n_frames for s in segs if s.n_frames >= MIN_FRAMES]
    for (a, b, cost), (_, _, ref_cost) in zip(got.merge_trace, ref.merge_trace):
        sizes[a] += sizes[b]
        assert math.isclose(cost, ref_cost, rel_tol=1e-9, abs_tol=1e-8 * sizes[a])


def priced_and_settled(segs, cfg=None, min_segment_frames=25, counter=None):
    """Cluster, and list every pair the greedy loop visits as (rows of one
    cluster, rows of the other, whether the lower bound settled it). The
    loop visits the initial upper triangle, then after each merge the
    merged cluster against the alive others; the merge trace replays the
    members that each visit saw."""
    visits = []
    real = clustering._settled

    def spy(n, mean, top, penalty_scale, a, b):
        settled = real(n, mean, top, penalty_scale, a, b)
        visits.append((a.copy(), b.copy(), settled.copy(), n[a].copy(), n[b].copy()))
        return settled

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "_settled", spy)
        result = cluster_segments(segs, cfg, min_segment_frames, counter)
    eligible = [i for i, s in enumerate(segs) if s.n_frames >= min_segment_frames]
    members = {cid: [seg] for cid, seg in enumerate(eligible)}
    initial = len(eligible) * (len(eligible) - 1) // 2
    merges = iter(result.merge_trace)
    pairs, seen = [], 0
    for a, b, settled, n_a, n_b in visits:
        if seen >= initial:
            x, y, _ = next(merges)
            members[x] = members[x] + members.pop(y)
        seen += len(a)
        for i, j, s, size_i, size_j in zip(a, b, settled, n_a, n_b):
            rows_i, rows_j = cluster_rows(segs, members[i]), cluster_rows(segs, members[j])
            assert (len(rows_i), len(rows_j)) == (size_i, size_j)
            pairs.append((rows_i, rows_j, bool(s)))
    # no visit follows a merge that leaves one cluster
    assert len(list(merges)) == (len(result.clusters) == 1 and len(eligible) > 1)
    return result, pairs


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(st.sampled_from(KINDS + ("twin",)), min_size=1, max_size=9),
       st.sampled_from([0.0, 1.0, 2.0]))
@example(0, ["twin"], 1.0)
@example(1, ["speaker", "twin", "collinear", "twin"], 1.0)
def test_pairs_the_bound_settles_never_merge(seed, kinds, lambda_) -> None:
    segs = draw_segments(seed, kinds, lambda_)
    cfg = BicConfig(lambda_=lambda_)
    _, pairs = priced_and_settled(segs, cfg, min_segment_frames=MIN_FRAMES)
    for rows_a, rows_b, settled in pairs:
        if settled:
            assert merge_cost(rows_a, rows_b, cfg) >= 0.0


def test_twin_pair_inside_the_margin_is_priced_and_merges() -> None:
    # the twin's exact cost is half the bound's margin below zero
    segs = draw_segments(3, ["twin"])
    counter = ComputeCounter()
    result, pairs = priced_and_settled(segs, min_segment_frames=MIN_FRAMES,
                                       counter=counter)
    assert [settled for _, _, settled in pairs] == [False]
    assert counter.merge_cost_count == 1
    assert [m[:2] for m in result.merge_trace] == [(0, 1)]
    assert result.merge_trace[0][2] < 0.0


def test_merge_cost_count_is_pairs_evaluated() -> None:
    means = [0.0 if i % 2 == 0 else 6.0 for i in range(8)]
    segs = gaussian_segments(means, seed=2)
    counter = ComputeCounter()
    result, pairs = priced_and_settled(segs, counter=counter)
    k, merges = 8, len(result.merge_trace)
    assert merges == 6
    # the loop visits the initial upper triangle, then the merged cluster's
    # row against the alive - 1 others after each merge; it prices the
    # visited pairs that the lower bound leaves open
    visited = k * (k - 1) // 2 + sum(k - 1 - m - 1 for m in range(merges))
    assert len(pairs) == visited == 49
    priced = sum(not settled for _, _, settled in pairs)
    assert counter.merge_cost_count == priced == 34
    # only pairs across the two means are settled: a same-mean pair is
    # cheap enough to merge
    for rows_a, rows_b, settled in pairs:
        if settled:
            assert abs(rows_a.mean() - rows_b.mean()) > 3.0
    assert (counter.covariance_count, counter.delta_bic_count, counter.t2_count) == (0, 0, 0)
    oracle = ComputeCounter()
    reference_cluster_segments(segs, counter=oracle)
    assert oracle.delta_bic_count == visited


def test_unpriceable_segments_rejected() -> None:
    rng = np.random.default_rng(9)
    segs = [make_segment(0, rng.standard_normal((1, 3))),
            make_segment(5, rng.standard_normal((30, 3)))]
    with pytest.raises(InvalidInput, match="each clustered segment needs >= 2 rows"):
        cluster_segments(segs, min_segment_frames=1)
    assert cluster_segments(segs[:1], min_segment_frames=1).clusters == [[0]]
    mixed = [make_segment(0, rng.standard_normal((30, 3))),
             make_segment(40, rng.standard_normal((30, 4)))]
    with pytest.raises(InvalidInput, match="segments differ in feature dimension"):
        cluster_segments(mixed)
