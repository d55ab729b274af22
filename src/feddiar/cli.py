"""Command-line entry points.

Every subcommand reads an optional key=value config file; explicit flags win
over file values, which win over library defaults. The output directory
comes from --out-dir, falling back to the FEDDIAR_OUT environment variable,
then the working directory. Failures print a stage-attributed message and
exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import workers
from .clustering import write_cluster_csv
from .divergence import BicConfig
from .errors import FeddiarError, InvalidConfig, InvalidSpec
from .federated import (
    FederatedConfig,
    aggregate,
    build_network,
    run_experiment,
    write_history_csv,
)
from .frontend import MfccConfig, load_wav, save_wav
from .identifier import ModelArch, load_checkpoint, save_checkpoint
from .metrics import DEFAULT_COLLAR_SEC, change_point_scores
from .pipeline import (
    PipelineConfig,
    export_rttm,
    find_change_points,
    frontend_and_silence,
    report_json,
    run_pipeline,
    sweep,
    truth_from_dict,
    truth_to_dict,
    write_sweep_csv,
)
from .segmentation import SegConfig, write_change_point_csv
from .silence import SilenceConfig, write_region_csv
from .synth import (
    random_conversation_spec,
    speaker_frame_corpus,
    synth_conversation,
    synth_corpus,
)

OUT_DIR_ENV = "FEDDIAR_OUT"


def load_config_file(path) -> dict[str, str]:
    """Line-oriented `key = value` pairs; # starts a comment."""
    with open(path, encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise InvalidConfig(f"config file {path} is not UTF-8 text: {exc}") from exc
    out: dict[str, str] = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"bad config line: {raw.rstrip()}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _merge_opts(args: argparse.Namespace) -> dict:
    """Config-file values overlaid by the flags set; a file key that is
    neither a flag nor a file key of the command is refused."""
    skip = {"command", "func", "file_keys", "config", "out_dir", "audio", "model",
            "truth", "detected", "prefix"}
    opts: dict = {}
    if getattr(args, "config", None):
        opts.update(load_config_file(args.config))
        known = set(vars(args)) - skip | set(args.file_keys)
        for key in opts:
            if key not in known:
                raise InvalidConfig(f"config file {args.config}: "
                                    f"{args.command} has no option {key!r}")
    for key, value in vars(args).items():
        if key not in skip and value is not None:
            opts[key] = value
    return opts


def _get(opts: dict, key: str, cast, default=None):
    value = opts.get(key)
    if value is None:
        return default
    try:
        return cast(value)
    except ValueError as exc:
        raise InvalidConfig(f"bad value for {key}: {value!r}") from exc


def _given(opts: dict, **fields) -> dict:
    """Keyword arguments for only the fields whose key the user set, so that
    every other field keeps its library default. Each field maps to its
    cast, or to (key, cast) where the option key differs from the name."""
    out = {}
    for name, spec in fields.items():
        key, cast = spec if isinstance(spec, tuple) else (name, spec)
        if key in opts:
            out[name] = _get(opts, key, cast)
    return out


def _int_tuple(value) -> tuple[int, ...]:
    return tuple(int(v) for v in str(value).split(","))


def _rttm_id(audio_path) -> str:
    """The RTTM file id of a WAV: its stem, each whitespace character as _."""
    return "".join("_" if c.isspace() else c for c in Path(audio_path).stem)


def _load_truth(path):
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:
            raise InvalidSpec(f"{path} is not a JSON ground truth: {exc}") from exc
    return truth_from_dict(payload)


# Every key that _pipeline_config reads, flag or not.
PIPELINE_KEYS = ("num_coefficients", "threshold_db", "min_region_frames",
                 "noise_percentile", "window_frames", "stride_fraction",
                 "analysis_window_sec", "slide_frames", "grow_frames", "method",
                 "t2_threshold", "lambda", "delta_k", "min_seg_frames", "collar_sec")


def _pipeline_config(opts: dict) -> PipelineConfig:
    return PipelineConfig(
        mfcc=MfccConfig(**_given(opts, num_coefficients=int)),
        silence=SilenceConfig(**_given(
            opts, threshold_db=float, min_region_frames=int,
            noise_percentile=float)),
        seg=SegConfig(**_given(
            opts, window_frames=int, stride_fraction=float,
            analysis_window_sec=float, slide_frames=int, grow_frames=int,
            method=str, t2_threshold=float)),
        bic=BicConfig(**_given(opts, lambda_=("lambda", float), delta_k=int)),
        **_given(opts, min_segment_frames=("min_seg_frames", int),
                 collar_sec=float),
    )


def _out_dir(args) -> Path:
    target = getattr(args, "out_dir", None) or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_synth(args) -> int:
    opts = _merge_opts(args)
    out = _out_dir(args)
    spec = random_conversation_spec(**_given(
        opts, num_speakers=int, seed=int, min_changes=int, max_changes=int,
        gap_sec=float))
    audio, truth = synth_conversation(spec)
    prefix = args.prefix or "conversation"
    save_wav(out / f"{prefix}.wav", audio)
    with open(out / f"{prefix}.truth.json", "w") as fh:
        json.dump(truth_to_dict(truth), fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {prefix}.wav ({audio.duration_sec:.1f} s, "
          f"{len(truth.change_points_sec)} change points) to {out}")
    return 0


def _load(args):
    """The output directory, pipeline config and recording of an audio command."""
    return _out_dir(args), _pipeline_config(_merge_opts(args)), load_wav(args.audio)


def _run(args):
    """_load, then the whole pipeline with the truth and model the command took."""
    out, cfg, audio = _load(args)
    truth = _load_truth(args.truth) if getattr(args, "truth", None) else None
    model = load_checkpoint(args.model) if getattr(args, "model", None) else None
    return out, run_pipeline(audio, cfg, model=model, truth=truth)


def _cmd_segment(args) -> int:
    # the stages that the two files need, and no clustering to fail
    out, cfg, audio = _load(args)
    features, silences = frontend_and_silence(audio, cfg)
    points = find_change_points(features, silences, cfg.seg, None)
    write_change_point_csv(out / "change_points.csv", points)
    write_region_csv(out / "silences.csv", silences, features.hop_sec)
    print(f"{len(points)} change points, {len(silences)} quasi-silences")
    return 0


def _cmd_cluster(args) -> int:
    out, result = _run(args)
    write_change_point_csv(out / "change_points.csv", result.change_points)
    write_cluster_csv(out / "clusters.csv", result.segments, result.clusters,
                      result.features.hop_sec)
    print(f"{len(result.segments)} segments into "
          f"{len(result.clusters)} clusters")
    return 0


def _cmd_identify(args) -> int:
    out, result = _run(args)
    with open(out / "labels.csv", "w") as fh:
        fh.write("cluster_id,speaker_id,confidence\n")
        for lab in result.labels:
            fh.write(f"{lab.cluster_id},{lab.speaker_id},{lab.confidence:.6f}\n")
    export_rttm(result, _rttm_id(args.audio), out / "diarization.rttm")
    print(f"labeled {len(result.labels)} clusters")
    return 0


def _cmd_diarize(args) -> int:
    out, result = _run(args)
    write_change_point_csv(out / "change_points.csv", result.change_points)
    write_cluster_csv(out / "clusters.csv", result.segments, result.clusters,
                      result.features.hop_sec)
    if result.labels:
        export_rttm(result, _rttm_id(args.audio), out / "diarization.rttm")
    text = report_json(result)
    with open(out / "report.json", "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


def _cmd_sweep(args) -> int:
    opts = _merge_opts(args)
    out = _out_dir(args)
    cfg = _pipeline_config(opts)
    corpus = synth_corpus(
        num_conversations=_get(opts, "num_conversations", int, 6),
        num_speakers=_get(opts, "num_speakers", int, 4),
        seed=_get(opts, "seed", int, 0),
    )
    rows = sweep(corpus, cfg)
    write_sweep_csv(out / "sweep.csv", rows)
    print(f"wrote {len(rows)} sweep rows to {out / 'sweep.csv'}")
    return 0


def _cmd_fedsim(args) -> int:
    opts = _merge_opts(args)
    out = _out_dir(args)
    seed = _get(opts, "seed", int, 0)
    num_speakers = _get(opts, "num_speakers", int, 8)
    num_clients = _get(opts, "num_clients", int, num_speakers)
    group_size = _get(opts, "group_size", int, 2)
    tuning = _given(opts, local_epochs=int, lr0=float, lr_decay=float, mode=str)
    cfg = FederatedConfig(num_clients=num_clients, group_size=group_size,
                          rounds=_get(opts, "rounds", int, 20), **tuning)
    corpus = speaker_frame_corpus(num_speakers, seed)
    arch = ModelArch(num_classes=num_speakers,
                     **_given(opts, hidden_sizes=("hidden", _int_tuple)))
    state = build_network(corpus, cfg, arch, seed)
    state = run_experiment(state, cfg, seed)
    write_history_csv(out / "fed_history.csv", state.history)
    final = aggregate([c.model for c in state.clients],
                      [c.n_i for c in state.clients])
    save_checkpoint(out / "fed_model.npz", final)
    last = state.history[-1]
    print(f"{cfg.mode} g={cfg.group_size}: round {last.round} "
          f"accuracy {last.accuracy:.3f} loss {last.loss:.3f}")
    return 0


def _cmd_eval(args) -> int:
    opts = _merge_opts(args)
    truth = _load_truth(args.truth)
    with open(args.detected) as fh:
        try:
            detected = [float(row["time_sec"]) for row in csv.DictReader(fh)]
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"{args.detected} lacks numeric time_sec values") from exc
    bad = [t for t in detected if not math.isfinite(t)]
    if bad:
        raise InvalidSpec(f"{args.detected}: time_sec values must be finite, got {bad[0]}")
    payload = change_point_scores(truth.change_points_sec, sorted(detected),
                                  _get(opts, "collar_sec", float, DEFAULT_COLLAR_SEC))
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _add_common(p: argparse.ArgumentParser, audio: bool = False) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out-dir", help=f"output directory (or ${OUT_DIR_ENV})")
    if audio:
        p.add_argument("--audio", required=True, help="input WAV (PCM-16)")
        p.add_argument("--method", choices=["bic", "t2"])
        p.add_argument("--window-frames", dest="window_frames", type=int)
        p.add_argument("--stride-fraction", dest="stride_fraction", type=float)
        p.add_argument("--t2-threshold", dest="t2_threshold", type=float)
        p.add_argument("--threshold-db", dest="threshold_db", type=float)
        p.add_argument("--min-seg-frames", dest="min_seg_frames", type=int)
        p.add_argument("--collar-sec", dest="collar_sec", type=float)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it as
    it was, so one parser serves every call. Each command's `file_keys`
    are the config-file keys it reads beyond its flags."""
    parser = argparse.ArgumentParser(
        prog="feddiar",
        description="Speaker diarization with quasi-silence segmentation, "
                    "BIC clustering, and federated identification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic conversation")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--prefix", help="output file prefix")
    p.add_argument("--num-speakers", dest="num_speakers", type=int)
    p.add_argument("--min-changes", dest="min_changes", type=int)
    p.add_argument("--max-changes", dest="max_changes", type=int)
    p.set_defaults(func=_cmd_synth, file_keys=("gap_sec",))

    p = sub.add_parser("segment", help="detect speaker change points")
    _add_common(p, audio=True)
    p.set_defaults(func=_cmd_segment, file_keys=PIPELINE_KEYS)

    p = sub.add_parser("cluster", help="segment and cluster")
    _add_common(p, audio=True)
    p.set_defaults(func=_cmd_cluster, file_keys=PIPELINE_KEYS)

    p = sub.add_parser("identify", help="label clusters with a trained model")
    _add_common(p, audio=True)
    p.add_argument("--model", required=True, help="checkpoint from fedsim")
    p.set_defaults(func=_cmd_identify, file_keys=PIPELINE_KEYS)

    p = sub.add_parser("diarize", help="full pipeline with JSON report")
    _add_common(p, audio=True)
    p.add_argument("--model", help="optional identifier checkpoint")
    p.add_argument("--truth", help="ground-truth json for scoring")
    # read nowhere; accepted because the diarize-short benchmark workload passes it
    p.add_argument("--seed", type=int, help="ignored")
    p.set_defaults(func=_cmd_diarize, file_keys=PIPELINE_KEYS)

    p = sub.add_parser("sweep", help="window/stride/method grid on synthetic corpus")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--num-conversations", dest="num_conversations", type=int)
    p.add_argument("--num-speakers", dest="num_speakers", type=int)
    p.set_defaults(func=_cmd_sweep, file_keys=PIPELINE_KEYS)

    p = sub.add_parser("fedsim", help="federated training simulation")
    _add_common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--mode", choices=["non_iid", "iid", "centralized"])
    p.add_argument("--num-speakers", dest="num_speakers", type=int)
    p.add_argument("--num-clients", dest="num_clients", type=int)
    p.add_argument("--group-size", dest="group_size", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--local-epochs", dest="local_epochs", type=int)
    p.add_argument("--lr0", type=float)
    p.add_argument("--lr-decay", dest="lr_decay", type=float)
    p.add_argument("--hidden", help="hidden layer sizes, comma separated (64,64)")
    p.set_defaults(func=_cmd_fedsim, file_keys=())

    p = sub.add_parser("eval", help="score detected change points against truth")
    _add_common(p)
    p.add_argument("--truth", required=True)
    p.add_argument("--detected", required=True, help="change_points.csv")
    p.add_argument("--collar-sec", dest="collar_sec", type=float)
    p.set_defaults(func=_cmd_eval, file_keys=())

    return parser


def main(argv=None) -> int:
    """Run one command. numpy's OpenBLAS keeps to one thread while it runs,
    so that the shared-out work takes the CPUs (see `feddiar.workers`);
    the caller's BLAS thread count is given back on return."""
    args = build_parser().parse_args(argv)
    try:
        with workers.one_blas_thread():
            return args.func(args)
    except (FeddiarError, OSError, MemoryError) as exc:
        # numpy refuses an allocation beyond the machine's memory at once,
        # before touching any of it
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
