"""The four pinned workloads.

Each workload makes its inputs from the seed in `setup()` (synthesis,
model training, WAV writing, warm-up) and then runs one closed-loop
operation per `op()` call. An op returns its latency samples (one per
conversation, sweep or round) and one Item per checked output: the digest
compared with the recorded reference, the file that must be
byte-identical across repeats, quality scores and the ComputeCounter
totals the program reported.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# Program functions are called through their modules so that the
# tracer's patches apply to these calls too.
from feddiar import cli, federated, identifier, pipeline, synth
from feddiar.federated import FederatedConfig
from feddiar.frontend import AudioSignal, save_wav
from feddiar.identifier import ModelArch, init_model, save_checkpoint

NUM_SPEAKERS = 4
# The diarize workloads share one speaker set, so one checkpoint trained in
# set-up identifies them; the seed draws the conversations (turn order,
# durations, signal). Which speakers take part changes the greedy
# clustering path, and with it the cost, far more than the layout does.
SPEAKER_SEED = 0
# diarize-long is one pinned conversation layout; the seed draws only its
# signal. With one conversation per op, a seed-drawn layout (213-247 s,
# 7.8k-10.7k delta_bic calls) would swamp the timings.
LONG_LAYOUT_SEED = 0
# Sweep conversations all get this many changes, so the corpus length (and
# the sweep's cost) does not swing with the seed.
SWEEP_CHANGES = 10
ID_TRAIN_EPOCHS = 100
ID_TRAIN_LR = 0.01
FED_ACCURACY_TOLERANCE = 0.02   # absolute, against the recorded reference


@dataclass
class Item:
    latency_s: float
    audio_sec: float
    digest: str = ""                 # outputs compared with the reference
    artifact: bytes = b""            # must repeat byte for byte within a run
    quality: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    error: str | None = None


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _seed_int(seed: int, *tags: int) -> int:
    return int(np.random.default_rng([seed, *tags]).integers(0, 2**31 - 1))


def _conversation(layout_seed: int, signal_seed: int, changes: int, speakers: int):
    """A conversation over the shared speaker set: the layout (turn order and
    durations) comes from `layout_seed`, the waveforms from `signal_seed`."""
    spec = synth.random_conversation_spec(num_speakers=speakers, seed=layout_seed,
                                          min_changes=changes, max_changes=changes)
    spec = replace(spec, speaker_profiles=synth.make_profiles(speakers, SPEAKER_SEED),
                   seed=signal_seed)
    return synth.synth_conversation(spec)


def _train_identifier(speakers: int, seconds: float):
    """Centralized identifier for the shared speaker set."""
    corpus = synth.speaker_frame_corpus(speakers, SPEAKER_SEED,
                                        seconds_per_speaker=seconds)
    frames = np.vstack([corpus[s] for s in sorted(corpus)])
    labels = np.concatenate([np.full(len(corpus[s]), s) for s in sorted(corpus)])
    model = init_model(ModelArch(12, (64, 64), speakers), SPEAKER_SEED)
    model, _ = identifier.train_local(model, frames, labels, lr=ID_TRAIN_LR,
                                      epochs=ID_TRAIN_EPOCHS)
    return model


def _counters(report: dict) -> dict:
    return {k: int(report[k]) for k in
            ("covariance_count", "delta_bic_count", "t2_count")}


def _result_outputs(result) -> dict:
    return {"change_points": result.change_points.frame_indices(),
            "assignments": result.clusters.assignments,
            "labels": [lab.speaker_id for lab in result.labels]}


class DiarizeShort:
    name = "diarize-short"
    why = ("eight ~1-min 4-speaker conversations through cli.main diarize; "
           "frontend and silence dominate and the cli layer is measured only here")
    sizes = {"full": dict(conversations=8, changes=20, speakers=NUM_SPEAKERS,
                          solo_sec=8.0),
             "tiny": dict(conversations=2, changes=3, speakers=2, solo_sec=2.0)}

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.seed, self.out_dir = seed, out_dir
        self.p = self.sizes[size]

    def setup(self) -> None:
        p, seed = self.p, self.seed
        self.convs = []
        for i in range(p["conversations"]):
            conv_seed = _seed_int(seed, i)
            audio, truth = _conversation(conv_seed, conv_seed, p["changes"], p["speakers"])
            conv_dir = self.out_dir / f"conv{i}"
            conv_dir.mkdir(parents=True, exist_ok=True)
            wav, truth_path = conv_dir / "audio.wav", conv_dir / "truth.json"
            save_wav(wav, audio)
            truth_path.write_text(json.dumps(pipeline.truth_to_dict(truth)))
            self.convs.append((conv_dir, wav, truth_path, audio.duration_sec))
        self.model_path = self.out_dir / "model.npz"
        save_checkpoint(self.model_path,
                        _train_identifier(p["speakers"], p["solo_sec"]))
        self._diarize(*self.convs[0][:3])

    @property
    def audio_sec(self) -> float:
        return sum(c[3] for c in self.convs)

    @property
    def conversations(self) -> int:
        return len(self.convs)

    def _diarize(self, conv_dir, wav, truth_path) -> int:
        argv = ["diarize", "--audio", str(wav), "--model", str(self.model_path),
                "--truth", str(truth_path), "--out-dir", str(conv_dir),
                "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def op(self) -> tuple[list[Item], list[float]]:
        items = []
        for conv_dir, wav, truth_path, seconds in self.convs:
            start = time.perf_counter()
            code = self._diarize(conv_dir, wav, truth_path)
            item = Item(latency_s=time.perf_counter() - start, audio_sec=seconds)
            if code != 0:
                item.error = f"diarize exited {code}"
            else:
                self._read_outputs(conv_dir, item)
            items.append(item)
        return items, [it.latency_s for it in items]

    @staticmethod
    def _read_outputs(conv_dir: Path, item: Item) -> None:
        item.artifact = (conv_dir / "report.json").read_bytes()
        report = json.loads(item.artifact)
        with open(conv_dir / "change_points.csv") as fh:
            points = [int(r["frame_index"]) for r in csv.DictReader(fh)]
        with open(conv_dir / "clusters.csv") as fh:
            assignments = [None if r["cluster_id"] == "noise" else int(r["cluster_id"])
                           for r in csv.DictReader(fh)]
        rttm = pipeline.parse_rttm(conv_dir / "diarization.rttm")
        item.digest = digest({"change_points": points, "assignments": assignments,
                              "labels": [int(spk[3:]) for *_, spk in rttm]})
        item.quality = {"f_seg": report["f_seg"], "f_id": report["f_id"]}
        item.counters = _counters(report)


class DiarizeLong:
    name = "diarize-long"
    why = ("one pinned ~4-min conversation through run_pipeline; greedy clustering "
           "takes most of the time and the frame matrix sets peak memory")
    sizes = {"full": dict(changes=80, speakers=NUM_SPEAKERS, solo_sec=8.0,
                          warm_sec=20.0),
             "tiny": dict(changes=4, speakers=2, solo_sec=2.0, warm_sec=4.0)}

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.seed, self.out_dir = seed, out_dir
        self.p = self.sizes[size]
        self.conversations = 1

    def setup(self) -> None:
        p = self.p
        self.audio, self.truth = _conversation(LONG_LAYOUT_SEED, _seed_int(self.seed, 0),
                                               p["changes"], p["speakers"])
        self.model = _train_identifier(p["speakers"], p["solo_sec"])
        self.cfg = pipeline.PipelineConfig()
        sr = self.audio.sample_rate_hz
        head = AudioSignal(self.audio.samples[:int(p["warm_sec"] * sr)], sr)
        pipeline.run_pipeline(head, self.cfg, model=self.model)

    @property
    def audio_sec(self) -> float:
        return self.audio.duration_sec

    def op(self) -> tuple[list[Item], list[float]]:
        start = time.perf_counter()
        result = pipeline.run_pipeline(self.audio, self.cfg, model=self.model,
                                       truth=self.truth)
        item = Item(latency_s=time.perf_counter() - start, audio_sec=self.audio_sec)
        item.artifact = pipeline.report_json(result).encode()
        item.digest = digest(_result_outputs(result))
        item.quality = {"f_seg": result.report["f_seg"], "f_id": result.report["f_id"]}
        item.counters = _counters(result.report)
        return [item], [item.latency_s]


class Sweep:
    name = "sweep"
    why = ("the 24-cell window x stride x {bic,t2} grid over 20 conversations; "
           "segmentation and divergence dominate, no clustering or identifier")
    sizes = {"full": dict(conversations=20, speakers=NUM_SPEAKERS,
                          spec=dict(min_changes=SWEEP_CHANGES, max_changes=SWEEP_CHANGES)),
             "tiny": dict(conversations=2, speakers=2,
                          spec=dict(min_changes=3, max_changes=3))}

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.seed, self.out_dir = seed, out_dir
        self.p = self.sizes[size]

    def setup(self) -> None:
        p = self.p
        self.corpus = synth.synth_corpus(p["conversations"], p["speakers"],
                                         self.seed, **p["spec"])
        self.cfg = pipeline.PipelineConfig()
        pipeline.sweep(self.corpus[:1], self.cfg)

    @property
    def audio_sec(self) -> float:
        return sum(audio.duration_sec for audio, _ in self.corpus)

    @property
    def conversations(self) -> int:
        return len(self.corpus)

    def op(self) -> tuple[list[Item], list[float]]:
        start = time.perf_counter()
        rows = pipeline.sweep(self.corpus, self.cfg)
        item = Item(latency_s=time.perf_counter() - start, audio_sec=self.audio_sec)
        path = self.out_dir / "sweep.csv"
        pipeline.write_sweep_csv(path, rows)
        item.artifact = path.read_bytes()
        item.digest = digest(item.artifact.decode())
        item.quality = {"f_seg": float(np.mean([r.f_score_mean for r in rows]))}
        item.counters = {k: sum(getattr(r, k) for r in rows) for k in
                         ("covariance_count", "delta_bic_count", "t2_count")}
        return [item], [item.latency_s]


class Fedsim:
    name = "fedsim"
    why = ("criterion-10 federated run, 8 clients in groups of 2 for 20 rounds; "
           "only identifier training and federated averaging run")
    sizes = {"full": dict(speakers=8, solo_sec=16.0, clients=8, group=2,
                          rounds=20, epochs=8),
             "tiny": dict(speakers=3, solo_sec=2.0, clients=3, group=1,
                          rounds=2, epochs=1)}

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.seed, self.out_dir = seed, out_dir
        self.p = p = self.sizes[size]
        self.cfg = FederatedConfig(num_clients=p["clients"], group_size=p["group"],
                                   rounds=p["rounds"], local_epochs=p["epochs"],
                                   lr0=0.1, lr_decay=0.9, mode="non_iid")
        self.arch = ModelArch(12, (64, 64), p["speakers"])
        self.conversations = 0

    def setup(self) -> None:
        self.corpus = synth.speaker_frame_corpus(
            self.p["speakers"], self.seed, seconds_per_speaker=self.p["solo_sec"])
        warm = replace(self.cfg, rounds=1)
        federated.run_experiment(
            federated.build_network(self.corpus, warm, self.arch, self.seed),
            warm, self.seed)

    @property
    def audio_sec(self) -> float:
        return self.p["speakers"] * self.p["solo_sec"]

    @staticmethod
    @contextlib.contextmanager
    def _round_timer(round_s: list):
        """Time each run_round call that run_experiment makes."""
        inner = federated.run_round

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                round_s.append(time.perf_counter() - start)

        federated.run_round = timed
        try:
            yield
        finally:
            federated.run_round = inner

    def op(self) -> tuple[list[Item], list[float]]:
        round_s: list[float] = []
        start = time.perf_counter()
        with self._round_timer(round_s):
            state = federated.build_network(self.corpus, self.cfg, self.arch, self.seed)
            state = federated.run_experiment(state, self.cfg, self.seed)
        item = Item(latency_s=time.perf_counter() - start, audio_sec=self.audio_sec)
        path = self.out_dir / "fed_history.csv"
        federated.write_history_csv(path, state.history)
        item.artifact = path.read_bytes()
        item.quality = {"fed_accuracy": state.history[-1].accuracy}
        item.counters = {"covariance_count": 0, "delta_bic_count": 0, "t2_count": 0}
        return [item], round_s


WORKLOADS = {w.name: w for w in (DiarizeShort, DiarizeLong, Sweep, Fedsim)}
