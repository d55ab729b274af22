"""Speaker diarization with quasi-silence segmentation, greedy BIC
clustering, and federated speaker identification."""

from .clustering import ClusterSet, Segment, cluster_segments, merge_cost
from .divergence import (
    BicConfig,
    ComputeCounter,
    delta_bic,
    gaussian_fit,
    gaussian_log_likelihood,
    hotelling_t2,
)
from .errors import FeddiarError, StageError
from .federated import (
    ClientDevice,
    FederatedConfig,
    FederatedNetworkState,
    GroupAssignment,
    aggregate,
    build_network,
    form_groups,
    lr_schedule,
    partition_iid,
    partition_non_iid,
    run_round,
)
from .frontend import (
    AudioSignal,
    FeatureMatrix,
    FrameSequence,
    MfccConfig,
    compute_mfcc,
    frame_signal,
    load_wav,
    save_wav,
)
from .identifier import (
    AdamState,
    Embedding,
    EmbeddingBank,
    ModelArch,
    ModelWeights,
    cosine_similarity,
    embed_segment,
    forward,
    init_model,
    online_update,
    predict_cluster,
    train_local,
)
from .metrics import (
    IdScores,
    MatchResult,
    SegScores,
    corpus_scores,
    id_scores,
    match_change_points,
    seg_scores,
)
from .pipeline import (
    DiarizationResult,
    PipelineConfig,
    export_rttm,
    frontend_and_silence,
    run_pipeline,
    sweep,
)
from .segmentation import ChangePoint, ChangePointList, SegConfig, scan_window, segment_bic, segment_t2
from .silence import QuasiSilenceRegion, SilenceConfig, detect_quasi_silences
from .synth import GroundTruth, SynthSpec, random_conversation_spec, synth_conversation

__version__ = "0.1.0"
