import numpy as np
import pytest
from scipy.stats import chi2

from feddiar.divergence import ComputeCounter
from feddiar.errors import WindowTooSmall
from feddiar.frontend import FeatureMatrix
from feddiar.segmentation import (
    SegConfig,
    scan_window,
    segment_bic,
    segment_t2,
    write_change_point_csv,
)
from feddiar.silence import QuasiSilenceRegion


def feature_matrix(rows, hop_sec=0.010):
    times = np.arange(rows.shape[0]) * hop_sec
    return FeatureMatrix(np.asarray(rows, dtype=np.float64), times)


def two_part_rows(n_left, n_right, d=12, gap=4.0, seed=0):
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((n_left, d))
    right = gap + rng.standard_normal((n_right, d))
    return np.vstack([left, right])


def gapped_rows(num_turns=2, turn_frames=300, gap_frames=20, d=12, seed=0):
    # Speech blocks alternate between two speaker-like distributions; gap
    # frames carry the low-energy near-constant rows real pauses produce,
    # which is what lets a split near the turn boundary confirm.
    rng = np.random.default_rng(seed)
    quiet = np.zeros(d)
    quiet[0] = -30.0
    blocks, silences, cursor = [], [], 0
    for k in range(num_turns):
        blocks.append(4.0 * (k % 2) + rng.standard_normal((turn_frames, d)))
        cursor += turn_frames
        if k < num_turns - 1:
            blocks.append(quiet + 0.1 * rng.standard_normal((gap_frames, d)))
            silences.append(QuasiSilenceRegion(cursor, cursor + gap_frames - 1, -55.0))
            cursor += gap_frames
    return np.vstack(blocks), silences


def test_config_validation() -> None:
    with pytest.raises(Exception):
        SegConfig(window_frames=3)
    with pytest.raises(Exception):
        SegConfig(stride_fraction=0.0)
    with pytest.raises(Exception):
        SegConfig(stride_fraction=1.5)
    cfg = SegConfig(window_frames=120, stride_fraction=0.5)
    assert cfg.slide == 60
    assert cfg.grow == 30


def test_default_t2_threshold_is_chi2_quantile() -> None:
    cfg = SegConfig()
    for d in range(1, 65):
        assert cfg.resolve_t2_threshold(d) == float(chi2.ppf(0.95, d))
    assert SegConfig(t2_threshold=5.0).resolve_t2_threshold(12) == 5.0


def test_scan_finds_planted_boundary() -> None:
    window = two_part_rows(60, 60)
    idx, val = scan_window(window, stride_fraction=0.1, method="t2")
    assert abs(idx - 60) <= 12
    assert val > chi2.ppf(0.95, 12)


def test_scan_full_stride_evaluates_midpoint_only() -> None:
    window = two_part_rows(40, 40, d=2)
    counter = ComputeCounter()
    idx, _ = scan_window(window, stride_fraction=1.0, method="t2", counter=counter)
    assert idx == 40
    assert counter.t2_count == 1
    counter = ComputeCounter()
    idx, _ = scan_window(window, stride_fraction=1.0, method="bic", counter=counter)
    assert idx == 40
    assert counter.delta_bic_count == 1
    assert counter.covariance_count == 3


def test_scan_tie_breaks_toward_center() -> None:
    # constant rows give a flat zero divergence everywhere
    window = np.zeros((20, 1))
    idx, val = scan_window(window, stride_fraction=0.2, method="t2")
    assert val == 0.0
    assert idx == 8


def test_scan_rejects_tiny_window() -> None:
    with pytest.raises(WindowTooSmall):
        scan_window(np.zeros((3, 2)), stride_fraction=0.5, method="bic")


def test_segment_detects_change_at_silence() -> None:
    rows, silences = gapped_rows()
    feats = feature_matrix(rows)
    midpoint = (silences[0].start_frame + silences[0].end_frame + 1) // 2
    points = segment_t2(feats, silences, SegConfig())
    assert len(points) >= 1
    nearest = min(abs(i - midpoint) for i in points.frame_indices())
    assert nearest <= 30


def test_segment_no_silences_no_points() -> None:
    feats = feature_matrix(two_part_rows(200, 200))
    points = segment_t2(feats, [], SegConfig())
    assert len(points) == 0
    assert points.frame_indices() == []


def test_segment_stationary_stream_quiet() -> None:
    rng = np.random.default_rng(1)
    feats = feature_matrix(rng.standard_normal((600, 12)))
    silences = [QuasiSilenceRegion(150, 170, -80.0),
                QuasiSilenceRegion(380, 400, -80.0)]
    bic_points = segment_bic(feats, silences, SegConfig(method="bic"))
    assert len(bic_points) == 0


def test_points_sorted_and_separated_by_slide() -> None:
    rows, silences = gapped_rows(num_turns=4, turn_frames=260, seed=2)
    feats = feature_matrix(rows)
    cfg = SegConfig()
    points = segment_t2(feats, silences, cfg)
    idx = points.frame_indices()
    assert len(points) >= 2
    assert idx == sorted(idx)
    assert all(b - a >= cfg.slide for a, b in zip(idx, idx[1:]))
    for region in silences:
        midpoint = (region.start_frame + region.end_frame + 1) // 2
        assert min(abs(i - midpoint) for i in idx) <= 30


def test_method_coerced_and_recorded() -> None:
    rows, silences = gapped_rows(seed=3)
    feats = feature_matrix(rows)
    cfg = SegConfig(method="bic")
    points = segment_t2(feats, silences, cfg)
    assert points.config_used.method == "t2"
    points_b = segment_bic(feats, silences, SegConfig(method="t2"))
    assert points_b.config_used.method == "bic"


def test_times_match_frame_indices() -> None:
    rows, silences = gapped_rows(seed=4)
    feats = feature_matrix(rows)
    points = segment_t2(feats, silences, SegConfig())
    assert len(points) >= 1
    for p in points.points:
        assert p.time_sec == pytest.approx(p.frame_index * 0.010)


def test_segmentation_deterministic() -> None:
    rows, silences = gapped_rows(seed=5)
    feats = feature_matrix(rows)
    a = segment_t2(feats, silences, SegConfig())
    b = segment_t2(feats, silences, SegConfig())
    assert len(a) >= 1
    assert a.frame_indices() == b.frame_indices()
    assert [p.divergence_value for p in a.points] == [p.divergence_value for p in b.points]


def test_change_point_csv(tmp_path) -> None:
    rows, silences = gapped_rows(seed=6)
    feats = feature_matrix(rows)
    points = segment_t2(feats, silences, SegConfig())
    assert len(points) >= 1
    path = tmp_path / "cp.csv"
    write_change_point_csv(path, points)
    lines = path.read_text().splitlines()
    assert lines[0] == "time_sec,frame_index,divergence_value,method"
    assert len(lines) == len(points) + 1
    assert lines[1].endswith(",t2")
