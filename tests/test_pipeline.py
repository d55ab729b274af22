import functools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feddiar import pipeline
from feddiar.clustering import ClusterSet, Segment
from feddiar.divergence import BicConfig
from feddiar.errors import FeddiarError, InvalidInput, InvalidSpec, StageError
from feddiar.federated import FederatedConfig
from feddiar.frontend import AudioSignal, FeatureMatrix, FrameSequence, MfccConfig
from feddiar.identifier import ModelArch, init_model, train_local
from feddiar.pipeline import (
    ClusterLabel,
    DiarizationResult,
    PipelineConfig,
    build_segments,
    export_rttm,
    frontend_and_silence,
    parse_rttm,
    prepare_conversations,
    report_json,
    run_pipeline,
    sweep,
    true_cluster_speakers,
    truth_from_dict,
    truth_to_dict,
    write_sweep_csv,
)
from feddiar.segmentation import ChangePoint, ChangePointList, SegConfig
from feddiar.silence import QuasiSilenceRegion, SilenceConfig, silent_frame_mask
from feddiar.synth import (
    GroundTruth,
    TurnInterval,
    random_conversation_spec,
    speaker_frame_corpus,
    synth_conversation,
    synth_corpus,
)

REPORT_KEYS = {"fdr", "mdr", "f_seg", "purity", "coverage", "far", "frr",
               "f_id", "delta_bic_count", "t2_count", "covariance_count",
               "merge_cost_count", "config"}
REPORT_CONFIG_KEYS = {"mfcc", "silence", "seg", "bic", "min_segment_frames",
                      "collar_sec"}


def feature_matrix(n, d=12, hop_sec=0.010):
    rows = np.zeros((n, d))
    return FeatureMatrix(rows, np.arange(n) * hop_sec)


def change_list(indices, hop_sec=0.010):
    points = [ChangePoint(i, i * hop_sec, 1.0) for i in indices]
    return ChangePointList(points, None)


def test_build_segments_splits_at_changes_and_silences() -> None:
    feats = feature_matrix(100)
    silences = [QuasiSilenceRegion(40, 49, -80.0)]
    segs = build_segments(feats, silences, change_list([70]))
    bounds = [(s.start_frame, s.end_frame) for s in segs]
    assert bounds == [(0, 40), (50, 70), (70, 100)]
    assert all(s.rows.shape[0] == s.n_frames for s in segs)


def test_build_segments_ignores_changes_inside_silence() -> None:
    feats = feature_matrix(100)
    silences = [QuasiSilenceRegion(40, 49, -80.0)]
    segs = build_segments(feats, silences, change_list([45]))
    assert [(s.start_frame, s.end_frame) for s in segs] == [(0, 40), (50, 100)]


def test_build_segments_all_silent_is_empty() -> None:
    feats = feature_matrix(50)
    segs = build_segments(feats, [QuasiSilenceRegion(0, 49, -80.0)], change_list([]))
    assert segs == []


def reference_build_segments(features, silences, change_points):
    """The frame-by-frame walk that build_segments replaced."""
    n = len(features)
    mask = silent_frame_mask(silences, n)
    cps = sorted({p.frame_index for p in change_points.points})
    bounds_out = []
    i = 0
    while i < n:
        if mask[i]:
            i += 1
            continue
        j = i
        while j < n and not mask[j]:
            j += 1
        bounds = [i] + [c for c in cps if i < c < j] + [j]
        bounds_out += list(zip(bounds, bounds[1:]))
        i = j
    return bounds_out


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 120),
       regions=st.lists(st.tuples(st.integers(0, 119), st.integers(0, 15)), max_size=6),
       cps=st.lists(st.integers(0, 125), max_size=8))
def test_build_segments_matches_frame_walk(n, regions, cps) -> None:
    feats = FeatureMatrix(np.arange(2.0 * n).reshape(n, 2), np.arange(n) * 0.01)
    silences = [QuasiSilenceRegion(s, min(s + k, n - 1), -80.0)
                for s, k in regions if s < n]
    segs = build_segments(feats, silences, change_list(cps))
    assert ([(s.start_frame, s.end_frame) for s in segs]
            == reference_build_segments(feats, silences, change_list(cps)))
    for s in segs:
        assert np.array_equal(s.rows, feats.rows[s.start_frame:s.end_frame])


def test_true_cluster_speakers_majority_overlap() -> None:
    rows = np.zeros((100, 12))
    segments = [Segment(0, 100, rows),      # 0.0 .. 1.0 sec
                Segment(150, 200, rows[:50])]
    clusters = ClusterSet(clusters=[[0], [1]], assignments=[0, 1])
    truth = GroundTruth(
        change_points_sec=[1.1],
        turns=[TurnInterval(0, 0.0, 0.7), TurnInterval(1, 0.7, 1.2),
               TurnInterval(0, 1.4, 2.1)])
    got = true_cluster_speakers(segments, clusters, truth, hop_sec=0.010)
    # first cluster: 0.7 s of speaker 0 beats 0.3 s of speaker 1
    assert got == [0, 0]


def test_true_cluster_speakers_no_overlap_is_none() -> None:
    segments = [Segment(500, 550, np.zeros((50, 12)))]
    clusters = ClusterSet(clusters=[[0]], assignments=[0])
    truth = GroundTruth(change_points_sec=[], turns=[TurnInterval(0, 0.0, 1.0)])
    assert true_cluster_speakers(segments, clusters, truth, 0.010) == [None]


def loop_true_cluster_speakers(segments, clusters, truth, hop_sec):
    """Oracle: the pair-by-pair loop that true_cluster_speakers replaced."""
    out = []
    for members in clusters.clusters:
        overlap = {}
        for seg_idx in members:
            seg = segments[seg_idx]
            s0, s1 = seg.start_frame * hop_sec, seg.end_frame * hop_sec
            for turn in truth.turns:
                shared = min(s1, turn.end_sec) - max(s0, turn.start_sec)
                if shared > 0.0:
                    overlap[turn.speaker_id] = overlap.get(turn.speaker_id, 0.0) + shared
        out.append(max(sorted(overlap), key=lambda k: overlap[k]) if overlap else None)
    return out


# bounds on the frame grid, so that segments and turns often share an end
# (shared time 0) and overlaps often tie; ids negative, beyond int64, and
# 2**63 + 1, which float64 would round onto 2**63
TURN_BOUND = st.one_of(st.integers(0, 40).map(lambda k: k * 0.010), st.just(math.nan))
SPEAKER_ID = st.sampled_from([-(2 ** 70), -3, 0, 1, 2, 2 ** 63, 2 ** 63 + 1, 10 ** 30])


@settings(max_examples=300, deadline=None)
@given(spans=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 15)), min_size=1, max_size=6),
       groups=st.lists(st.integers(0, 3), min_size=6, max_size=6),
       turns=st.lists(st.tuples(SPEAKER_ID, TURN_BOUND, TURN_BOUND), max_size=8))
def test_true_cluster_speakers_matches_pair_loop(spans, groups, turns) -> None:
    rows = np.zeros((15, 12))
    segments = [Segment(s, s + n, rows[:n]) for s, n in spans]
    # cluster 3 may hold no segment at all
    members = [[i for i in range(len(segments)) if groups[i] == c] for c in range(4)]
    clusters = ClusterSet(clusters=members, assignments=groups[:len(segments)])
    truth = GroundTruth(change_points_sec=[],
                        turns=[TurnInterval(s, a, b) for s, a, b in turns])
    got = true_cluster_speakers(segments, clusters, truth, 0.010)
    assert got == loop_true_cluster_speakers(segments, clusters, truth, 0.010)
    assert all(type(g) is int for g in got if g is not None)


def test_true_cluster_speakers_tie_and_touching_turns() -> None:
    segments = [Segment(100, 200, np.zeros((100, 12)))]      # 1.0 .. 2.0 sec
    clusters = ClusterSet(clusters=[[0]], assignments=[0])
    truth = GroundTruth(change_points_sec=[], turns=[
        TurnInterval(9, 0.0, 1.0),          # ends where the segment starts
        TurnInterval(5, 1.5, 2.0), TurnInterval(-2, 1.0, 1.5),
        TurnInterval(7, 2.0, 3.0)])         # starts where the segment ends
    # speakers 5 and -2 tie at 0.5 s; the lower id wins
    assert true_cluster_speakers(segments, clusters, truth, 0.010) == [-2]


def test_pipeline_smoke_with_truth(small_conv) -> None:
    audio, truth = small_conv
    result = run_pipeline(audio, PipelineConfig(), truth=truth)
    assert set(result.report) == REPORT_KEYS
    assert result.report["f_seg"] is not None
    assert 0.0 <= result.report["fdr"] <= 1.0
    assert result.report["far"] is None          # no model supplied
    assert result.report["f_id"] is None
    assert result.report["covariance_count"] > 0
    assert len(result.segments) >= 2
    assert len(result.clusters.clusters) >= 1
    assert result.labels == []


def test_pipeline_without_truth_has_no_scores(small_conv) -> None:
    audio, _ = small_conv
    result = run_pipeline(audio, PipelineConfig())
    assert result.report["fdr"] is None
    assert result.report["purity"] is None
    assert result.report["delta_bic_count"] >= 0


def test_pipeline_silent_input_yields_empty_result() -> None:
    audio = AudioSignal(np.zeros(48000), 16000)
    result = run_pipeline(audio, PipelineConfig())
    assert len(result.change_points) == 0
    assert result.segments == []
    assert result.clusters.clusters == []
    assert result.labels == []


def test_pipeline_report_bytes_reproducible(small_conv) -> None:
    audio, truth = small_conv
    a = report_json(run_pipeline(audio, PipelineConfig(), truth=truth))
    b = report_json(run_pipeline(audio, PipelineConfig(), truth=truth))
    assert a == b
    parsed = json.loads(a)
    assert set(parsed) == REPORT_KEYS
    assert set(parsed["config"]) == REPORT_CONFIG_KEYS


def test_pipeline_with_pretrained_model_scores_identification(small_conv) -> None:
    audio, truth = small_conv
    corpus = speaker_frame_corpus(2, seed=7, seconds_per_speaker=8.0)
    frames = np.vstack([corpus[0], corpus[1]])
    labels = np.array([0] * len(corpus[0]) + [1] * len(corpus[1]))
    model = init_model(ModelArch(12, (64, 64), 2), seed=7)
    model, _ = train_local(model, frames, labels, lr=0.005, epochs=60)
    result = run_pipeline(audio, PipelineConfig(), model=model, truth=truth)
    assert result.labels
    assert result.report["f_seg"] > 0.7
    assert result.report["f_id"] is not None
    assert result.report["f_id"] > 0.7


def test_stage_error_names_failing_stage() -> None:
    audio = AudioSignal(np.zeros(100), 16000)   # shorter than one frame
    with pytest.raises(StageError) as err:
        run_pipeline(audio, PipelineConfig())
    assert err.value.stage == "frontend"


def test_frontend_and_silence_names_failing_stage() -> None:
    with pytest.raises(StageError) as err:
        frontend_and_silence(AudioSignal(np.zeros(100), 16000), PipelineConfig())
    assert err.value.stage == "frontend"
    with pytest.raises(StageError) as err:   # 9 frames: too few for a noise profile
        frontend_and_silence(AudioSignal(np.zeros(400 + 8 * 160), 16000), PipelineConfig())
    assert err.value.stage == "silence"


@pytest.mark.parametrize("stage, first_call", [
    ("frontend", "frame_signal"),
    ("silence", "estimate_noise_profile"),
    ("segmentation", "segment_t2"),
    ("clustering", "build_segments"),
    ("identification", "predict_cluster"),
    ("metrics", "change_point_scores"),
])
def test_every_stage_names_itself(stage, first_call, small_conv, monkeypatch) -> None:
    audio, truth = small_conv
    model = init_model(ModelArch(12, (4,), 2), seed=0)

    def broken(*args, **kwargs):
        raise RuntimeError(f"{first_call} is broken")

    monkeypatch.setattr(pipeline, first_call, broken)
    with pytest.raises(StageError) as err:
        run_pipeline(audio, PipelineConfig(), model=model, truth=truth)
    assert err.value.stage == stage
    assert str(err.value) == f"stage '{stage}' failed: {first_call} is broken"


def test_frontend_and_silence_computes_the_energies_once(monkeypatch, small_conv) -> None:
    # the noise profile and find_quasi_silences both read them
    real = FrameSequence.energies.func
    calls = []

    def counting(frames):
        calls.append(len(frames))
        return real(frames)

    spy = functools.cached_property(counting)
    spy.__set_name__(FrameSequence, "energies")
    monkeypatch.setattr(FrameSequence, "energies", spy)
    features, silences = frontend_and_silence(small_conv[0], PipelineConfig())
    assert silences
    assert calls == [len(features)]


def traced_peak_and_outputs(seconds: float) -> tuple[int, int]:
    """(peak traced bytes of frontend_and_silence, bytes of its outputs)."""
    rng = np.random.default_rng(0)
    n = int(seconds * 16000)
    loudness = np.repeat(rng.uniform(0.0, 1.0, size=n // 1600 + 1) ** 4, 1600)[:n]
    audio = AudioSignal(rng.standard_normal(n) * loudness, 16000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        features, silences = frontend_and_silence(audio, PipelineConfig())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert silences
    return peak, features.rows.nbytes + features.frame_times_sec.nbytes


def test_frontend_and_silence_memory_bounded_in_audio_length() -> None:
    # A frames x frame_len matrix would be 19 MB at 60 s and 77 MB at 240 s;
    # one full magnitude spectrum 12 and 49 MB. The chunk buffers take ~5 MB.
    peak_short, out_short = traced_peak_and_outputs(60.0)
    peak_long, out_long = traced_peak_and_outputs(240.0)
    assert peak_short - out_short < 8e6
    assert peak_long - out_long < 8e6
    # what grows beyond the outputs is a few per-frame vectors (8 bytes each)
    assert peak_long - peak_short < out_long - out_short + 1e6


def test_rttm_export_hand_case(tmp_path) -> None:
    feats = feature_matrix(300)
    result = DiarizationResult(
        change_points=change_list([]),
        segments=[Segment(0, 250, np.zeros((250, 12)))],
        clusters=ClusterSet(clusters=[[0]], assignments=[0]),
        labels=[ClusterLabel(0, 0, 0.9)], features=feats)
    path = tmp_path / "o.rttm"
    export_rttm(result, "f", path)
    line = path.read_text().splitlines()
    assert line == ["SPEAKER f 1 0.000 2.500 <NA> <NA> spk0 <NA> <NA>"]
    parsed = parse_rttm(path)
    assert parsed == [("f", 0.0, 2.5, "spk0")]


def test_rttm_empty_result_round_trip(tmp_path) -> None:
    result = DiarizationResult(
        change_points=change_list([]), segments=[],
        clusters=ClusterSet(clusters=[], assignments=[]), labels=[],
        features=feature_matrix(10))
    path = tmp_path / "e.rttm"
    export_rttm(result, "f", path)
    assert path.read_text() == ""
    assert parse_rttm(path) == []


@pytest.mark.parametrize("line", [
    "SPEAKER f 1 0.000 2.500 <NA> <NA> spk0 <NA>",          # nine fields
    "SPEAKER a 1 x 1.0 <NA> <NA> spk0 <NA> <NA>",           # an onset that is no number
    "SPEAKER a 1 nan 1.0 <NA> <NA> spk0 <NA> <NA>",
    "SPEAKER a 1 0.0 nan <NA> <NA> spk0 <NA> <NA>",
])
def test_rttm_parse_refuses_a_bad_line_naming_the_file_and_line(tmp_path, line) -> None:
    path = tmp_path / "bad.rttm"
    path.write_text("SPEAKER f 1 0.000 2.500 <NA> <NA> spk0 <NA> <NA>\n" + line + "\n")
    with pytest.raises(InvalidSpec) as err:
        parse_rttm(path)
    assert str(err.value) == f"{path}: bad rttm line: {line}"


@pytest.mark.parametrize("file_id", ["", "my talk", "my\ttalk", "talk\n"])
def test_rttm_refuses_a_file_id_that_is_not_one_word(tmp_path, file_id) -> None:
    result = DiarizationResult(
        change_points=change_list([]), segments=[],
        clusters=ClusterSet(clusters=[], assignments=[]), labels=[],
        features=feature_matrix(10))
    with pytest.raises(InvalidSpec):
        export_rttm(result, file_id, tmp_path / "o.rttm")
    assert not (tmp_path / "o.rttm").exists()


def test_rttm_lines_sorted_by_onset(tmp_path, small_conv) -> None:
    audio, truth = small_conv
    corpus = speaker_frame_corpus(2, seed=7, seconds_per_speaker=4.0)
    frames = np.vstack([corpus[0], corpus[1]])
    labels = np.array([0] * len(corpus[0]) + [1] * len(corpus[1]))
    model, _ = train_local(init_model(ModelArch(12, (16,), 2), seed=1),
                           frames, labels, lr=0.01, epochs=30)
    result = run_pipeline(audio, PipelineConfig(), model=model)
    path = tmp_path / "s.rttm"
    export_rttm(result, "conv", path)
    onsets = [row[1] for row in parse_rttm(path)]
    assert onsets == sorted(onsets)


def test_truth_dict_round_trip() -> None:
    spec = random_conversation_spec(num_speakers=2, seed=3)
    _, truth = synth_conversation(spec)
    back = truth_from_dict(truth_to_dict(truth))
    assert back.change_points_sec == truth.change_points_sec
    assert back.turns == truth.turns


@pytest.mark.parametrize("payload, bad", [
    ({"change_points_sec": [1.0, math.nan, math.inf], "turns": [[0, 0.0, 2.0]]}, "nan"),
    ({"change_points_sec": [1.0], "turns": [[0, 0.0, 1.0], [1, -math.inf, math.nan]]},
     "-inf"),
])
def test_truth_with_a_non_finite_time_is_refused(payload, bad) -> None:
    # one such turn used to overlap every segment, and was scored against
    with pytest.raises(InvalidSpec, match=f"finite, got {bad}$"):
        truth_from_dict(payload)


def small_grid(monkeypatch, windows, methods) -> None:
    """Shrink the sweep grid to the given windows and methods at stride 0.5."""
    monkeypatch.setattr(pipeline, "SWEEP_WINDOWS", windows)
    monkeypatch.setattr(pipeline, "SWEEP_STRIDES", (0.5,))
    monkeypatch.setattr(pipeline, "SWEEP_METHODS", methods)


def test_sweep_row_grid(monkeypatch, small_conv) -> None:
    small_grid(monkeypatch, (60, 80), ("bic", "t2"))
    rows = sweep([small_conv])
    assert len(rows) == 4
    combos = {(r.window, r.stride, r.method) for r in rows}
    assert combos == {(60, 0.5, "bic"), (60, 0.5, "t2"),
                      (80, 0.5, "bic"), (80, 0.5, "t2")}
    for r in rows:
        assert 0.0 <= r.fdr <= 1.0
        assert 0.0 <= r.mdr <= 1.0
        assert r.covariance_count > 0
        if r.method == "bic":
            assert r.t2_count == 0
        else:
            assert r.t2_count > 0


def test_sweep_csv(monkeypatch, tmp_path, small_conv) -> None:
    small_grid(monkeypatch, (60,), ("t2",))
    rows = sweep([small_conv])
    path = tmp_path / "sw.csv"
    write_sweep_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == ("window,stride,method,fdr,mdr,f_score,f_score_mean,"
                        "delta_bic_count,t2_count,covariance_count")
    assert len(lines) == 2


def test_sweep_needs_a_conversation() -> None:
    with pytest.raises(InvalidInput, match="sweep needs at least one conversation"):
        sweep([])


def test_sweep_names_failing_segmentation(monkeypatch, small_conv) -> None:
    small_grid(monkeypatch, (60,), ("t2",))
    # 1e308 s is finite, but its frame count overflows
    cfg = PipelineConfig(seg=SegConfig(analysis_window_sec=1e308))
    with pytest.raises(StageError) as err:
        sweep([small_conv], cfg)
    assert err.value.stage == "segmentation"


# Values that stalled a run (a zero step) or wrote NaN or Infinity into its
# outputs; each is now refused when the config is built or checked.
def synth_bad_first_turn(duration=1.0, **profile_fields):
    """Synthesise a two-speaker conversation whose first turn lasts
    `duration` seconds and whose first speaker's profile takes the fields."""
    spec = random_conversation_spec(num_speakers=2)
    first = replace(spec.speaker_profiles[0], **profile_fields)
    return synth_conversation(replace(
        spec, turns=((0, duration), *spec.turns[1:]),
        speaker_profiles=(first, *spec.speaker_profiles[1:])))


REJECTED_CONFIGS = {
    "slide_frames 0": lambda: SegConfig(slide_frames=0),
    "grow_frames 0": lambda: SegConfig(grow_frames=0),
    "grow_frames -1": lambda: SegConfig(grow_frames=-1),
    "analysis_window_sec 0": lambda: SegConfig(analysis_window_sec=0.0),
    "analysis_window_sec nan": lambda: SegConfig(analysis_window_sec=math.nan),
    "analysis_window_sec inf": lambda: SegConfig(analysis_window_sec=math.inf),
    "t2_threshold nan": lambda: SegConfig(t2_threshold=math.nan),
    "t2_threshold -inf": lambda: SegConfig(t2_threshold=-math.inf),
    "threshold_db nan": lambda: SilenceConfig(threshold_db=math.nan),
    "threshold_db inf": lambda: SilenceConfig(threshold_db=math.inf),
    "lambda nan": lambda: BicConfig(lambda_=math.nan),
    "lambda inf": lambda: BicConfig(lambda_=math.inf),
    "collar_sec inf": lambda: PipelineConfig(collar_sec=math.inf),
    "num_coefficients 0": lambda: MfccConfig(num_coefficients=0),
    "lr0 nan": lambda: FederatedConfig(2, 2, 1, lr0=math.nan),
    "lr0 inf": lambda: FederatedConfig(2, 2, 1, lr0=math.inf),
    "num_clients 0": lambda: FederatedConfig(0, 1, 1),
    "gap_sec nan": lambda: synth_conversation(
        random_conversation_spec(num_speakers=2, gap_sec=math.nan)),
    "gap_sec 1e308": lambda: synth_conversation(
        random_conversation_spec(num_speakers=2, gap_sec=1e308)),
    "gap_sec 1e300": lambda: synth_conversation(
        random_conversation_spec(num_speakers=2, gap_sec=1e300)),
    "gap_sec 1e14": lambda: synth_conversation(
        random_conversation_spec(num_speakers=2, gap_sec=1e14)),
    "seed -1": lambda: random_conversation_spec(num_speakers=2, seed=-1),
    # past what numpy's int64 draws take (they used to raise ValueError)
    "num_speakers 1e20": lambda: random_conversation_spec(num_speakers=10**20),
    "max_changes 1e20": lambda: random_conversation_spec(min_changes=1, max_changes=10**20),
    "min_region_frames -3": lambda: SilenceConfig(min_region_frames=-3),
    "min_region_frames 0": lambda: SilenceConfig(min_region_frames=0),
    # a one-row segment has no covariance
    "min_segment_frames 1": lambda: PipelineConfig(min_segment_frames=1),
    "min_segment_frames -4": lambda: PipelineConfig(min_segment_frames=-4),
    "turn duration nan": lambda: synth_bad_first_turn(math.nan),
    "turn duration inf": lambda: synth_bad_first_turn(math.inf),
    "turn duration 1e308": lambda: synth_bad_first_turn(1e308),
    "turn duration 1e300": lambda: synth_bad_first_turn(1e300),
    "f0_hz 0": lambda: synth_bad_first_turn(f0_hz=0.0),
    "f0_hz -100": lambda: synth_bad_first_turn(f0_hz=-100.0),
    "f0_hz nan": lambda: synth_bad_first_turn(f0_hz=math.nan),
    "band_widths_hz nan": lambda: synth_bad_first_turn(
        band_widths_hz=(math.nan, 120.0, 160.0)),
    "band_centers_hz inf": lambda: synth_bad_first_turn(
        band_centers_hz=(500.0, math.inf, 2800.0)),
}


@pytest.mark.parametrize("case", sorted(REJECTED_CONFIGS))
def test_config_rejects_stalling_and_non_finite_values(case) -> None:
    with pytest.raises(FeddiarError):
        REJECTED_CONFIGS[case]()


def test_prepare_conversations_shares_frontend(small_conv) -> None:
    prepared = prepare_conversations([small_conv], PipelineConfig())
    assert len(prepared) == 1
    features, silences, truth = prepared[0]
    assert features.rows.shape[1] == 12
    assert all(r.end_frame >= r.start_frame for r in silences)
    assert truth.change_points_sec
