import pytest

from feddiar.errors import InvalidInput
from feddiar.metrics import (
    corpus_scores,
    f_from_rates,
    id_scores,
    match_change_points,
    seg_scores,
)


def test_matching_hand_example() -> None:
    m = match_change_points([10.0, 20.0, 30.0], [10.1, 25.0], collar_sec=0.5)
    assert m.matched_pairs == [(10.0, 10.1)]
    assert m.n_matched == 1
    s = seg_scores(m)
    assert s.fdr == pytest.approx(1.0 / 2.0)
    assert s.mdr == pytest.approx(2.0 / 3.0)
    assert s.f_seg == pytest.approx(0.4)


def test_collar_boundary_inclusive() -> None:
    m = match_change_points([10.0], [10.5], collar_sec=0.5)
    assert m.n_matched == 1
    m = match_change_points([10.0], [10.501], collar_sec=0.5)
    assert m.matched_pairs == []


def test_matching_is_one_to_one() -> None:
    m = match_change_points([10.0], [9.9, 10.1], collar_sec=0.5)
    assert m.n_matched == 1
    assert seg_scores(m).fdr == pytest.approx(0.5)


def test_each_detection_takes_nearest_free_truth() -> None:
    m = match_change_points([10.0, 10.4], [10.1, 10.2], collar_sec=0.5)
    assert m.n_matched == 2
    assert m.matched_pairs == [(10.0, 10.1), (10.4, 10.2)]


def test_unsorted_inputs_rejected() -> None:
    with pytest.raises(InvalidInput, match="true change points must be sorted"):
        match_change_points([20.0, 10.0], [1.0], collar_sec=0.5)
    with pytest.raises(InvalidInput, match="detected change points must be sorted"):
        match_change_points([1.0], [20.0, 10.0], collar_sec=0.5)


def test_empty_sides_conventions() -> None:
    none_detected = seg_scores(match_change_points([1.0, 2.0], [], collar_sec=0.5))
    assert none_detected.fdr == 0.0
    assert none_detected.mdr == 1.0
    no_truth = seg_scores(match_change_points([], [1.0], collar_sec=0.5))
    assert no_truth.mdr == 0.0
    assert no_truth.fdr == 1.0


def test_f_from_rates_values() -> None:
    assert f_from_rates(0.0, 0.0) == 1.0
    assert f_from_rates(0.2, 0.1) == pytest.approx(0.847059, abs=1e-6)
    assert f_from_rates(1.0, 1.0) == 0.0
    assert f_from_rates(1.0, 0.0) == 0.0


def test_corpus_pools_counts_not_ratios() -> None:
    a = match_change_points([10.0, 20.0, 30.0], [10.1, 25.0], collar_sec=0.5)
    b = match_change_points([5.0, 15.0], [5.1, 15.1], collar_sec=0.5)
    scores = corpus_scores([a, b])
    assert scores.purity == pytest.approx(3.0 / 4.0)
    assert scores.coverage == pytest.approx(3.0 / 5.0)


def test_corpus_empty_rejected_and_degenerate_is_perfect() -> None:
    with pytest.raises(InvalidInput, match="no conversations to score"):
        corpus_scores([])
    empty = match_change_points([], [], collar_sec=0.5)
    scores = corpus_scores([empty])
    assert scores.purity == 1.0
    assert scores.coverage == 1.0


def test_id_scores_with_rejections() -> None:
    s = id_scores([0, 1, None, 2], [0, 2, 1, 2])
    assert s.far == pytest.approx(1.0 / 3.0)
    assert s.frr == pytest.approx(2.0 / 4.0)
    assert s.f_id == pytest.approx(f_from_rates(s.far, s.frr))


def test_id_scores_all_wrong_is_zero() -> None:
    s = id_scores([1, 0], [0, 1])
    assert s.far == 1.0
    assert s.frr == 1.0
    assert s.f_id == 0.0


def test_id_scores_all_rejected() -> None:
    s = id_scores([None, None], [0, 1])
    assert s.far == 0.0
    assert s.frr == 1.0


def test_id_scores_perfect() -> None:
    s = id_scores([3, 1, 2], [3, 1, 2])
    assert (s.far, s.frr, s.f_id) == (0.0, 0.0, 1.0)


def test_id_scores_length_mismatch() -> None:
    with pytest.raises(InvalidInput, match="1 predictions vs 2 truths"):
        id_scores([0], [0, 1])
