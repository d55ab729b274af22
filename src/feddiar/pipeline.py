"""End-to-end diarization: frontend, silence, segmentation, clustering,
identification, scoring.

Stages run in fixed order and every failure is re-raised as a StageError
naming the stage, so CLI users see where a run died. The first three stages
also run alone, through frontend_and_silence and find_change_points, for a
caller that needs only change points. Results carry the
compute counters and a flat JSON-ready report whose field order is stable,
making equal-seed runs byte-comparable.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .clustering import (
    DEFAULT_MIN_SEGMENT_FRAMES,
    ClusterSet,
    Segment,
    cluster_rows,
    cluster_segments,
)
from .divergence import BicConfig, ComputeCounter
from .errors import InvalidConfig, InvalidInput, InvalidSpec, StageError
from .frontend import (
    AudioSignal,
    FeatureMatrix,
    MfccConfig,
    compute_mfcc,
    frame_signal,
)
from .identifier import ModelWeights, predict_cluster
from .metrics import (
    DEFAULT_COLLAR_SEC,
    change_point_scores,
    f_from_rates,
    id_scores,
    match_change_points,
    seg_scores,
)
from .segmentation import (
    METHOD_BIC,
    METHOD_T2,
    ChangePointList,
    SegConfig,
    segment_bic,
    segment_t2,
)
from .silence import (
    QuasiSilenceRegion,
    SilenceConfig,
    estimate_noise_profile,
    find_quasi_silences,
    silent_frame_mask,
)
from .synth import GroundTruth, TurnInterval


@dataclass(frozen=True)
class PipelineConfig:
    mfcc: MfccConfig = field(default_factory=MfccConfig)
    silence: SilenceConfig = field(default_factory=SilenceConfig)
    seg: SegConfig = field(default_factory=SegConfig)
    bic: BicConfig = field(default_factory=BicConfig)
    min_segment_frames: int = DEFAULT_MIN_SEGMENT_FRAMES
    collar_sec: float = DEFAULT_COLLAR_SEC

    def __post_init__(self):
        # a segment of one row has no covariance to cluster on
        if self.min_segment_frames < 2:
            raise InvalidConfig("min_segment_frames must be at least 2")
        # report.json holds the config, and JSON has no NaN or Infinity
        if not 0.0 <= self.collar_sec < math.inf:
            raise InvalidConfig("collar_sec must be non-negative and finite")


@dataclass(frozen=True)
class ClusterLabel:
    cluster_id: int
    speaker_id: int
    confidence: float


@dataclass
class DiarizationResult:
    change_points: ChangePointList
    segments: list[Segment]
    clusters: ClusterSet
    labels: list[ClusterLabel]
    features: FeatureMatrix
    report: dict = field(default_factory=dict)


@contextmanager
def _stage(name: str):
    """Re-raise a failure inside the block as a StageError naming the stage."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


def frontend_and_silence(
    audio: AudioSignal,
    cfg: PipelineConfig,
) -> tuple[FeatureMatrix, list[QuasiSilenceRegion]]:
    """MFCC features and quasi-silences of one recording.

    Failures are raised as StageError of stage 'frontend' or 'silence'. The
    frames are a view of the samples and every spectral pass is chunked, so
    memory beyond the outputs does not grow with the audio length.
    """
    with _stage("frontend"):
        frames = frame_signal(audio)
        features = compute_mfcc(frames, cfg.mfcc)
    with _stage("silence"):
        noise = estimate_noise_profile(frames, cfg.silence)
        silences = find_quasi_silences(frames, noise, cfg.silence)
    return features, silences


def build_segments(
    features: FeatureMatrix,
    silences: list[QuasiSilenceRegion],
    change_points: ChangePointList,
) -> list[Segment]:
    """Maximal non-silent frame runs, split at detected change points."""
    speech = ~silent_frame_mask(silences, len(features))
    # Edges of the speech runs: starts at even, (exclusive) ends at odd positions.
    edges = np.flatnonzero(np.diff(speech, prepend=False, append=False))
    cps = sorted({p.frame_index for p in change_points.points})
    segments: list[Segment] = []
    for i, j in zip(edges[::2].tolist(), edges[1::2].tolist()):
        bounds = [i] + [c for c in cps if i < c < j] + [j]
        for a, b in zip(bounds, bounds[1:]):
            segments.append(Segment(start_frame=a, end_frame=b,
                                    rows=features.rows[a:b]))
    return segments


def find_change_points(
    features: FeatureMatrix,
    silences: list[QuasiSilenceRegion],
    seg_cfg: SegConfig,
    counter: ComputeCounter | None,
) -> ChangePointList:
    """The segmentation stage: segment_bic or segment_t2, as seg_cfg.method
    says. A failure is raised as StageError of stage 'segmentation'."""
    segmenter = segment_bic if seg_cfg.method == METHOD_BIC else segment_t2
    with _stage("segmentation"):
        return segmenter(features, silences, seg_cfg, counter)


def _identify(model: ModelWeights | None, segments, clusters: ClusterSet):
    if model is None:
        return []
    labels = []
    for cid, members in enumerate(clusters.clusters):
        speaker, confidence = predict_cluster(model, cluster_rows(segments, members))
        labels.append(ClusterLabel(cluster_id=cid, speaker_id=speaker,
                                   confidence=confidence))
    return labels


def true_cluster_speakers(
    segments: list[Segment],
    clusters: ClusterSet,
    truth: GroundTruth,
    hop_sec: float,
) -> list[int | None]:
    """Dominant ground-truth speaker per cluster by overlapped time.

    The lowest speaker id wins a tie, and a cluster that overlaps no turn
    for a positive time gets None. Positive overlaps are summed per speaker
    segment by segment, turn by turn, the order of a loop over the pairs.
    """
    starts = np.array([t.start_sec for t in truth.turns], dtype=np.float64)
    ends = np.array([t.end_sec for t in truth.turns], dtype=np.float64)
    # object ids keep any integer exact and cost one slot per distinct id
    ids, speaker = np.unique(np.array([t.speaker_id for t in truth.turns], dtype=object),
                             return_inverse=True)
    out: list[int | None] = []
    for members in clusters.clusters:
        frames = np.array([(segments[i].start_frame, segments[i].end_frame)
                           for i in members]).reshape(-1, 2)
        bounds = frames * hop_sec
        # fmin/fmax pass over a NaN turn bound, as the builtins min/max do
        shared = np.fmin(bounds[:, 1:], ends) - np.fmax(bounds[:, :1], starts)
        hit = shared > 0.0
        if not hit.any():
            out.append(None)
            continue
        totals = np.bincount(np.broadcast_to(speaker, shared.shape)[hit],
                             weights=shared[hit], minlength=len(ids))
        out.append(ids[np.argmax(totals)])
    return out


def _scores(truth: GroundTruth | None, change_points: ChangePointList,
            segments: list[Segment], clusters: ClusterSet, labels: list[ClusterLabel],
            hop_sec: float, collar_sec: float) -> dict:
    """The report's score fields. The change-point scores need a truth; the
    identification scores also need labelled clusters that overlap its
    turns. A field that is not scored is None."""
    scores = dict.fromkeys(("fdr", "mdr", "f_seg", "purity", "coverage", "far", "frr", "f_id"))
    if truth is None:
        return scores
    scores.update(change_point_scores(truth.change_points_sec, change_points.times_sec(),
                                      collar_sec))
    truths = true_cluster_speakers(segments, clusters, truth, hop_sec) if labels else []
    pairs = [(lab.speaker_id, t) for lab, t in zip(labels, truths) if t is not None]
    if pairs:
        ids = id_scores([p for p, _ in pairs], [t for _, t in pairs])
        scores.update(far=ids.far, frr=ids.frr, f_id=ids.f_id)
    return scores


def run_pipeline(
    audio: AudioSignal,
    cfg: PipelineConfig,
    model: ModelWeights | None = None,
    truth: GroundTruth | None = None,
) -> DiarizationResult:
    """Fixed-order diarization run; scoring only happens when truth is given."""
    counter = ComputeCounter()
    features, silences = frontend_and_silence(audio, cfg)
    change_points = find_change_points(features, silences, cfg.seg, counter)
    with _stage("clustering"):
        segments = build_segments(features, silences, change_points)
        clusters = cluster_segments(segments, cfg.bic, cfg.min_segment_frames, counter)
    with _stage("identification"):
        labels = _identify(model, segments, clusters)
    with _stage("metrics"):
        scores = _scores(truth, change_points, segments, clusters, labels,
                         features.hop_sec, cfg.collar_sec)
    report = {**scores,
              "delta_bic_count": counter.delta_bic_count,
              "t2_count": counter.t2_count,
              "covariance_count": counter.covariance_count,
              "merge_cost_count": counter.merge_cost_count,
              "config": asdict(cfg)}
    return DiarizationResult(change_points=change_points, segments=segments,
                             clusters=clusters, labels=labels,
                             features=features, report=report)


def report_json(result: DiarizationResult) -> str:
    return json.dumps(result.report, sort_keys=True, indent=2) + "\n"


def export_rttm(result: DiarizationResult, file_id: str, path) -> None:
    """One RTTM line per labeled segment interval, in onset order; InvalidSpec
    when file_id is empty or holds whitespace, which would split its field."""
    if file_id.split() != [file_id]:
        raise InvalidSpec(f"an RTTM file id must be one non-empty word, got {file_id!r}")
    hop = result.features.hop_sec
    by_cluster = {lab.cluster_id: lab for lab in result.labels}
    lines = []
    for cid, members in enumerate(result.clusters.clusters):
        label = by_cluster.get(cid)
        if label is None:
            continue
        for seg_idx in members:
            seg = result.segments[seg_idx]
            onset = seg.start_frame * hop
            duration = seg.n_frames * hop
            lines.append((onset,
                          f"SPEAKER {file_id} 1 {onset:.3f} {duration:.3f} "
                          f"<NA> <NA> spk{label.speaker_id} <NA> <NA>"))
    lines.sort(key=lambda line: line[0])
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for _, line in lines))


def parse_rttm(path) -> list[tuple[str, float, float, str]]:
    """(file_id, onset, duration, speaker) per line; inverse of export_rttm.
    InvalidSpec, naming the file and the line, when a line is not a SPEAKER
    line of ten fields with a finite onset and duration."""
    out = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            try:
                onset, duration = float(parts[3]), float(parts[4])
            except (IndexError, ValueError):
                onset = duration = math.nan
            if (parts[0] != "SPEAKER" or len(parts) != 10
                    or not (math.isfinite(onset) and math.isfinite(duration))):
                raise InvalidSpec(f"{path}: bad rttm line: {line.rstrip()}")
            out.append((parts[1], onset, duration, parts[7]))
    return out


def truth_to_dict(truth: GroundTruth) -> dict:
    return {
        "change_points_sec": list(truth.change_points_sec),
        "turns": [[t.speaker_id, t.start_sec, t.end_sec] for t in truth.turns],
    }


def truth_from_dict(d: dict) -> GroundTruth:
    """The ground truth of a JSON payload; InvalidSpec when it is malformed or
    holds a NaN or infinite time (Python's json reads both)."""
    try:
        truth = GroundTruth(
            change_points_sec=[float(x) for x in d["change_points_sec"]],
            turns=[TurnInterval(speaker_id=int(s), start_sec=float(a), end_sec=float(b))
                   for s, a, b in d["turns"]],
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidSpec(f"malformed ground truth: {type(exc).__name__} {exc}") from exc
    for t in [*truth.change_points_sec,
              *(bound for turn in truth.turns for bound in (turn.start_sec, turn.end_sec))]:
        if not math.isfinite(t):
            raise InvalidSpec(f"ground truth times must be finite, got {t}")
    return truth


@dataclass(frozen=True)
class SweepRow:
    window: int
    stride: float
    method: str
    fdr: float
    mdr: float
    f_score: float        # F of the averaged rates (table style)
    f_score_mean: float   # average of per-conversation F
    delta_bic_count: int
    t2_count: int
    covariance_count: int


def prepare_conversations(corpus, cfg: PipelineConfig):
    """Shared frontend/silence pass so every sweep cell sees identical inputs."""
    return [(*frontend_and_silence(audio, cfg), truth) for audio, truth in corpus]


# the grid of sweep.csv: analysis windows in frames, strides as a fraction
# of the window, and segmentation methods
SWEEP_WINDOWS = (100, 125, 150)
SWEEP_STRIDES = (0.2, 0.4, 0.6, 0.8)
SWEEP_METHODS = (METHOD_BIC, METHOD_T2)


def sweep(corpus, cfg: PipelineConfig | None = None) -> list[SweepRow]:
    """Grid over window length, stride fraction, and method, paired on one corpus."""
    if not corpus:
        raise InvalidInput("sweep needs at least one conversation")
    cfg = cfg or PipelineConfig()
    prepared = prepare_conversations(corpus, cfg)
    rows = []
    for window in SWEEP_WINDOWS:
        for stride in SWEEP_STRIDES:
            for method in SWEEP_METHODS:
                seg_cfg = replace(cfg.seg, window_frames=window,
                                  stride_fraction=stride, method=method)
                counter = ComputeCounter()
                fdrs, mdrs, fs = [], [], []
                for features, silences, truth in prepared:
                    points = find_change_points(features, silences, seg_cfg, counter)
                    scores = seg_scores(match_change_points(
                        truth.change_points_sec, points.times_sec(),
                        cfg.collar_sec))
                    fdrs.append(scores.fdr)
                    mdrs.append(scores.mdr)
                    fs.append(scores.f_seg)
                mean_fdr = float(np.mean(fdrs))
                mean_mdr = float(np.mean(mdrs))
                rows.append(SweepRow(
                    window=window, stride=stride, method=method,
                    fdr=mean_fdr, mdr=mean_mdr,
                    f_score=f_from_rates(mean_fdr, mean_mdr),
                    f_score_mean=float(np.mean(fs)),
                    delta_bic_count=counter.delta_bic_count,
                    t2_count=counter.t2_count,
                    covariance_count=counter.covariance_count,
                ))
    return rows


def write_sweep_csv(path, rows: list[SweepRow]) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "stride", "method", "fdr", "mdr", "f_score",
                         "f_score_mean", "delta_bic_count", "t2_count",
                         "covariance_count"])
        for r in rows:
            writer.writerow([r.window, f"{r.stride:g}", r.method,
                             f"{r.fdr:.6f}", f"{r.mdr:.6f}", f"{r.f_score:.6f}",
                             f"{r.f_score_mean:.6f}", r.delta_bic_count,
                             r.t2_count, r.covariance_count])
