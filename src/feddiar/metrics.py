"""Detection and identification scoring.

Change points are matched greedily in time order: each detected point takes
the nearest still-unmatched true point within the collar. From the matching
come the false-detection and miss rates and their harmonic-mean F score;
corpus-level purity and coverage sum matched counts across conversations
before dividing. Identification is scored per cluster, where a None
prediction counts as a rejection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidConfig, InvalidInput

DEFAULT_COLLAR_SEC = 0.5


@dataclass(frozen=True)
class MatchResult:
    true_points: list[float]
    detected_points: list[float]
    matched_pairs: list[tuple[float, float]]

    @property
    def n_matched(self) -> int:
        return len(self.matched_pairs)


@dataclass(frozen=True)
class SegScores:
    fdr: float
    mdr: float
    f_seg: float


@dataclass(frozen=True)
class CorpusScores:
    purity: float
    coverage: float


@dataclass(frozen=True)
class IdScores:
    far: float
    frr: float
    f_id: float


def _require_sorted(values, name: str) -> list[float]:
    out = [float(v) for v in values]
    if any(a > b for a, b in zip(out, out[1:])):
        raise InvalidInput(f"{name} change points must be sorted")
    return out


def match_change_points(true_points, detected_points,
                        collar_sec: float = DEFAULT_COLLAR_SEC) -> MatchResult:
    """Greedy one-to-one matching of detections to true change points."""
    if not collar_sec >= 0.0:
        raise InvalidConfig("collar_sec must be non-negative")
    true_sorted = _require_sorted(true_points, "true")
    detected_sorted = _require_sorted(detected_points, "detected")
    unmatched = list(enumerate(true_sorted))
    pairs: list[tuple[float, float]] = []
    for det in detected_sorted:
        best_slot = None
        best_dist = None
        for slot, (idx, t) in enumerate(unmatched):
            dist = abs(t - det)
            if dist <= collar_sec and (best_dist is None or dist < best_dist):
                best_slot, best_dist = slot, dist
        if best_slot is not None:
            _, t = unmatched.pop(best_slot)
            pairs.append((t, det))
    return MatchResult(true_points=true_sorted, detected_points=detected_sorted,
                       matched_pairs=pairs)


def f_from_rates(fdr: float, mdr: float) -> float:
    """Harmonic-mean F of the two hit rates; 0 when both rates are total."""
    denom = 2.0 - fdr - mdr
    if denom == 0.0:
        return 0.0
    return 2.0 * (1.0 - fdr) * (1.0 - mdr) / denom


def seg_scores(m: MatchResult) -> SegScores:
    """False-detection rate, miss rate, and their F score for one matching."""
    n_det = len(m.detected_points)
    n_true = len(m.true_points)
    n_hit = m.n_matched
    fdr = (n_det - n_hit) / n_det if n_det else 0.0
    mdr = (n_true - n_hit) / n_true if n_true else 0.0
    return SegScores(fdr=fdr, mdr=mdr, f_seg=f_from_rates(fdr, mdr))


def corpus_scores(results: list[MatchResult]) -> CorpusScores:
    """Purity and coverage from summed per-conversation tallies."""
    if not results:
        raise InvalidInput("no conversations to score")
    matched = sum(m.n_matched for m in results)
    detected = sum(len(m.detected_points) for m in results)
    true = sum(len(m.true_points) for m in results)
    purity = matched / detected if detected else 1.0
    coverage = matched / true if true else 1.0
    return CorpusScores(purity=purity, coverage=coverage)


def change_point_scores(true_points, detected_points, collar_sec: float) -> dict:
    """fdr, mdr, f_seg, purity and coverage of one conversation's detections,
    the change-point fields of report.json and of `eval`."""
    match = match_change_points(true_points, detected_points, collar_sec)
    seg, corpus = seg_scores(match), corpus_scores([match])
    return {"fdr": seg.fdr, "mdr": seg.mdr, "f_seg": seg.f_seg,
            "purity": corpus.purity, "coverage": corpus.coverage}


def id_scores(predictions, truths) -> IdScores:
    """Cluster-level identification rates; a None prediction is a rejection.

    FAR counts wrong assignments among the assigned clusters; FRR counts
    every cluster that did not end up under its true speaker, rejections
    included.
    """
    preds = list(predictions)
    trues = list(truths)
    if len(preds) != len(trues):
        raise InvalidInput(f"{len(preds)} predictions vs {len(trues)} truths")
    total = len(trues)
    assigned = [(p, t) for p, t in zip(preds, trues) if p is not None]
    wrong = sum(1 for p, t in assigned if p != t)
    not_recovered = sum(1 for p, t in zip(preds, trues) if p != t)
    far = wrong / len(assigned) if assigned else 0.0
    frr = not_recovered / total if total else 0.0
    return IdScores(far=far, frr=frr, f_id=f_from_rates(far, frr))
