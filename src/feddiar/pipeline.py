"""End-to-end diarization: frontend, silence, segmentation, clustering,
identification, scoring.

Stages run in fixed order and every failure is re-raised as a StageError
naming the stage, so CLI users see where a run died. Results carry the
compute counters and a flat JSON-ready report whose field order is stable,
making equal-seed runs byte-comparable.
"""

from __future__ import annotations

import json
import math
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
from .errors import EmptyCorpus, InvalidConfig, InvalidSpec, IoFailure, StageError
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
    MatchResult,
    corpus_scores,
    f_from_rates,
    id_scores,
    match_change_points,
    seg_scores,
)
from .segmentation import (
    METHOD_BIC,
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
        # report.json holds the config, and JSON has no NaN or Infinity
        if not 0.0 <= self.collar_sec < math.inf:
            raise InvalidConfig("collar_sec must be non-negative and finite")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ClusterLabel:
    cluster_id: int
    speaker_id: int
    confidence: float


@dataclass
class DiarizationResult:
    change_points: ChangePointList
    silences: list[QuasiSilenceRegion]
    segments: list[Segment]
    clusters: ClusterSet
    labels: list[ClusterLabel]
    counter: ComputeCounter
    features: FeatureMatrix
    match: MatchResult | None = None
    report: dict = field(default_factory=dict)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
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
    def frontend():
        frames = frame_signal(audio)
        return frames, compute_mfcc(frames, cfg.mfcc)

    frames, features = _stage("frontend", frontend)

    def silence():
        noise = estimate_noise_profile(frames, cfg.silence)
        return find_quasi_silences(frames, noise, cfg.silence)

    return features, _stage("silence", silence)


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
    """Dominant ground-truth speaker per cluster by overlapped time."""
    out: list[int | None] = []
    for members in clusters.clusters:
        overlap: dict[int, float] = {}
        for seg_idx in members:
            seg = segments[seg_idx]
            s0, s1 = seg.start_frame * hop_sec, seg.end_frame * hop_sec
            for turn in truth.turns:
                shared = min(s1, turn.end_sec) - max(s0, turn.start_sec)
                if shared > 0.0:
                    overlap[turn.speaker_id] = overlap.get(turn.speaker_id, 0.0) + shared
        if overlap:
            best = max(sorted(overlap), key=lambda k: overlap[k])
            out.append(best)
        else:
            out.append(None)
    return out


def _build_report(
    cfg: PipelineConfig,
    counter: ComputeCounter,
    match: MatchResult | None,
    far_frr_f: tuple[float, float, float] | None,
) -> dict:
    if match is not None:
        seg = seg_scores(match)
        corpus = corpus_scores([match])
        fdr, mdr, f_seg = seg.fdr, seg.mdr, seg.f_seg
        purity, coverage = corpus.purity, corpus.coverage
    else:
        fdr = mdr = f_seg = purity = coverage = None
    far, frr, f_id = far_frr_f if far_frr_f is not None else (None, None, None)
    return {
        "fdr": fdr,
        "mdr": mdr,
        "f_seg": f_seg,
        "purity": purity,
        "coverage": coverage,
        "far": far,
        "frr": frr,
        "f_id": f_id,
        "delta_bic_count": counter.delta_bic_count,
        "t2_count": counter.t2_count,
        "covariance_count": counter.covariance_count,
        "merge_cost_count": counter.merge_cost_count,
        "config": cfg.to_dict(),
    }


def run_pipeline(
    audio: AudioSignal,
    cfg: PipelineConfig,
    model: ModelWeights | None = None,
    truth: GroundTruth | None = None,
) -> DiarizationResult:
    """Fixed-order diarization run; scoring only happens when truth is given."""
    counter = ComputeCounter()
    features, silences = frontend_and_silence(audio, cfg)

    segmenter = segment_bic if cfg.seg.method == METHOD_BIC else segment_t2
    change_points = _stage("segmentation", segmenter, features, silences,
                           cfg.seg, counter)

    def clustering_stage():
        segments = build_segments(features, silences, change_points)
        if not segments:
            return segments, ClusterSet(clusters=[], assignments=[], merge_trace=[])
        return segments, cluster_segments(segments, cfg.bic,
                                          cfg.min_segment_frames, counter)

    segments, clusters = _stage("clustering", clustering_stage)
    labels = _stage("identification", _identify, model, segments, clusters)

    def metrics_stage():
        if truth is None:
            return None, None
        match = match_change_points(truth.change_points_sec,
                                    change_points.times_sec(), cfg.collar_sec)
        far_frr_f = None
        if labels:
            truths = true_cluster_speakers(segments, clusters, truth,
                                           features.hop_sec)
            pairs = [(lab.speaker_id, t)
                     for lab, t in zip(labels, truths) if t is not None]
            if pairs:
                ids = id_scores([p for p, _ in pairs], [t for _, t in pairs])
                far_frr_f = (ids.far, ids.frr, ids.f_id)
        return match, far_frr_f

    match, far_frr_f = _stage("metrics", metrics_stage)
    report = _build_report(cfg, counter, match, far_frr_f)
    return DiarizationResult(change_points=change_points, silences=silences,
                             segments=segments, clusters=clusters,
                             labels=labels, counter=counter, features=features,
                             match=match, report=report)


def report_json(result: DiarizationResult) -> str:
    return json.dumps(result.report, sort_keys=True, indent=2) + "\n"


def export_rttm(result: DiarizationResult, file_id: str, path) -> None:
    """One RTTM line per labeled segment interval."""
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
            lines.append(
                f"SPEAKER {file_id} 1 {onset:.3f} {duration:.3f} "
                f"<NA> <NA> spk{label.speaker_id} <NA> <NA>")
    lines.sort(key=lambda s: float(s.split()[3]))
    try:
        with open(path, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def parse_rttm(path) -> list[tuple[str, float, float, str]]:
    """(file_id, onset, duration, speaker) per line; inverse of export_rttm."""
    out = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] != "SPEAKER" or len(parts) != 10:
                raise IoFailure(f"bad rttm line: {line.rstrip()}")
            out.append((parts[1], float(parts[3]), float(parts[4]), parts[7]))
    return out


def truth_to_dict(truth: GroundTruth) -> dict:
    return {
        "change_points_sec": list(truth.change_points_sec),
        "turns": [[t.speaker_id, t.start_sec, t.end_sec] for t in truth.turns],
    }


def truth_from_dict(d: dict) -> GroundTruth:
    try:
        return GroundTruth(
            change_points_sec=[float(x) for x in d["change_points_sec"]],
            turns=[TurnInterval(speaker_id=int(s), start_sec=float(a), end_sec=float(b))
                   for s, a, b in d["turns"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed ground truth: {type(exc).__name__} {exc}") from exc


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


def sweep(
    corpus,
    cfg: PipelineConfig | None = None,
    windows=(100, 125, 150),
    strides=(0.2, 0.4, 0.6, 0.8),
    methods=(METHOD_BIC, "t2"),
) -> list[SweepRow]:
    """Grid over window length, stride fraction, and method, paired on one corpus."""
    if not corpus:
        raise EmptyCorpus("sweep needs at least one conversation")
    cfg = cfg or PipelineConfig()
    prepared = prepare_conversations(corpus, cfg)
    rows = []
    for window in windows:
        for stride in strides:
            for method in methods:
                seg_cfg = replace(cfg.seg, window_frames=window,
                                  stride_fraction=stride, method=method)
                segmenter = segment_bic if method == METHOD_BIC else segment_t2
                counter = ComputeCounter()
                fdrs, mdrs, fs = [], [], []
                for features, silences, truth in prepared:
                    points = _stage("segmentation", segmenter, features,
                                    silences, seg_cfg, counter)
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
