import contextlib
import io
import json
import os
import re
import signal
import struct
import subprocess
import sys
import tempfile
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import feddiar
from feddiar import cli
from feddiar.cli import load_config_file, main
from feddiar.frontend import AudioSignal, save_wav
from feddiar.identifier import ModelArch, init_model, load_checkpoint, save_checkpoint
from feddiar.pipeline import parse_rttm
from feddiar.synth import random_conversation_spec, synth_conversation


def run_cli(*argv):
    return main(list(argv))


def test_synth_writes_wav_and_truth(tmp_path) -> None:
    rc = run_cli("synth", "--out-dir", str(tmp_path), "--prefix", "conv",
                 "--num-speakers", "2", "--seed", "3")
    assert rc == 0
    assert (tmp_path / "conv.wav").exists()
    truth = json.loads((tmp_path / "conv.truth.json").read_text())
    assert truth["change_points_sec"]
    assert truth["turns"]


def test_segment_then_eval_round_trip(tmp_path, capsys) -> None:
    assert run_cli("synth", "--out-dir", str(tmp_path), "--prefix", "c",
                   "--num-speakers", "2", "--seed", "5") == 0
    capsys.readouterr()
    assert run_cli("segment", "--out-dir", str(tmp_path),
                   "--audio", str(tmp_path / "c.wav")) == 0
    assert (tmp_path / "change_points.csv").exists()
    assert (tmp_path / "silences.csv").exists()
    capsys.readouterr()
    assert run_cli("eval", "--truth", str(tmp_path / "c.truth.json"),
                   "--detected", str(tmp_path / "change_points.csv")) == 0
    scores = json.loads(capsys.readouterr().out)
    assert set(scores) == {"fdr", "mdr", "f_seg", "purity", "coverage"}
    assert 0.0 <= scores["f_seg"] <= 1.0


def test_diarize_writes_report(tmp_path, capsys) -> None:
    assert run_cli("synth", "--out-dir", str(tmp_path), "--prefix", "c",
                   "--num-speakers", "2", "--seed", "11") == 0
    capsys.readouterr()
    rc = run_cli("diarize", "--out-dir", str(tmp_path),
                 "--audio", str(tmp_path / "c.wav"),
                 "--truth", str(tmp_path / "c.truth.json"))
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert printed == on_disk
    assert on_disk["f_seg"] is not None
    assert (tmp_path / "change_points.csv").exists()
    assert (tmp_path / "clusters.csv").exists()


def test_out_dir_env_fallback(tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("FEDDIAR_OUT", str(tmp_path))
    assert run_cli("synth", "--prefix", "envcase", "--num-speakers", "2",
                   "--seed", "1") == 0
    assert (tmp_path / "envcase.wav").exists()


def test_config_file_and_flag_precedence(tmp_path) -> None:
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nnum_speakers=2\nseed=4\nmin_changes=3\n")
    assert run_cli("synth", "--out-dir", str(tmp_path), "--config", str(cfg),
                   "--prefix", "a") == 0
    assert run_cli("synth", "--out-dir", str(tmp_path), "--config", str(cfg),
                   "--prefix", "b", "--seed", "6") == 0
    assert run_cli("synth", "--out-dir", str(tmp_path), "--prefix", "d",
                   "--num-speakers", "2", "--seed", "4") == 0
    a = (tmp_path / "a.truth.json").read_bytes()
    b = (tmp_path / "b.truth.json").read_bytes()
    d = (tmp_path / "d.truth.json").read_bytes()
    assert a == d            # config seed applied
    assert a != b            # flag overrode the config seed


def test_load_config_file_parsing(tmp_path) -> None:
    cfg = tmp_path / "x.cfg"
    cfg.write_text("alpha = 1\n# skip\n\nbeta=two words\n")
    assert load_config_file(cfg) == {"alpha": "1", "beta": "two words"}


def test_fedsim_writes_history_and_model(tmp_path, capsys) -> None:
    rc = run_cli("fedsim", "--out-dir", str(tmp_path), "--num-speakers", "3",
                 "--rounds", "2", "--local-epochs", "1", "--group-size", "3",
                 "--hidden", "16,8", "--seed", "0")
    assert rc == 0
    lines = (tmp_path / "fed_history.csv").read_text().splitlines()
    assert lines[0] == "round,mode,group_size,accuracy,loss,lr"
    assert len(lines) == 3
    assert load_checkpoint(tmp_path / "fed_model.npz").arch.hidden_sizes == (16, 8)
    assert "non_iid" in capsys.readouterr().out


def test_fedsim_centralized_forces_single_client(tmp_path) -> None:
    rc = run_cli("fedsim", "--out-dir", str(tmp_path), "--num-speakers", "3",
                 "--rounds", "1", "--mode", "centralized",
                 "--num-clients", "5", "--group-size", "4", "--seed", "0")
    assert rc == 0
    row = (tmp_path / "fed_history.csv").read_text().splitlines()[1]
    assert row.startswith("0,centralized,1,")


def test_identify_requires_model_and_labels_clusters(tmp_path, capsys) -> None:
    assert run_cli("synth", "--out-dir", str(tmp_path), "--prefix", "c",
                   "--num-speakers", "2", "--seed", "2") == 0
    assert run_cli("fedsim", "--out-dir", str(tmp_path), "--num-speakers", "2",
                   "--rounds", "2", "--local-epochs", "2", "--group-size", "2",
                   "--lr0", "0.05", "--seed", "2") == 0
    capsys.readouterr()
    rc = run_cli("identify", "--out-dir", str(tmp_path),
                 "--audio", str(tmp_path / "c.wav"),
                 "--model", str(tmp_path / "fed_model.npz"))
    assert rc == 0
    labels = (tmp_path / "labels.csv").read_text().splitlines()
    assert labels[0] == "cluster_id,speaker_id,confidence"
    assert len(labels) >= 2
    assert (tmp_path / "diarization.rttm").exists()


def test_identify_rttm_of_a_wav_name_with_spaces_round_trips(tmp_path, capsys) -> None:
    # the stem "my talk" used to give 11-field lines, sorted by the constant
    # 1 instead of the onset, which parse_rttm refused
    assert run_cli("synth", "--out-dir", str(tmp_path), "--prefix", "my talk",
                   "--num-speakers", "2", "--seed", "2") == 0
    assert run_cli("fedsim", "--out-dir", str(tmp_path), "--num-speakers", "2",
                   "--rounds", "2", "--local-epochs", "2", "--group-size", "2",
                   "--lr0", "0.05", "--seed", "2") == 0
    capsys.readouterr()
    assert run_cli("identify", "--out-dir", str(tmp_path),
                   "--audio", str(tmp_path / "my talk.wav"),
                   "--model", str(tmp_path / "fed_model.npz")) == 0
    rows = parse_rttm(tmp_path / "diarization.rttm")
    assert len(rows) > 1 and {row[0] for row in rows} == {"my_talk"}
    onsets = [row[1] for row in rows]
    assert onsets == sorted(onsets)


def test_sweep_writes_full_grid(tmp_path, capsys) -> None:
    rc = run_cli("sweep", "--out-dir", str(tmp_path),
                 "--num-conversations", "1", "--num-speakers", "2",
                 "--seed", "0")
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("window,stride,method,")
    assert len(lines) == 25          # 3 windows x 4 strides x 2 methods


def test_missing_input_reports_error(tmp_path, capsys) -> None:
    rc = run_cli("segment", "--out-dir", str(tmp_path),
                 "--audio", str(tmp_path / "absent.wav"))
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_value_reports_error(tmp_path, capsys) -> None:
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a bare line without equals\n")
    rc = run_cli("synth", "--out-dir", str(tmp_path), "--config", str(cfg))
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bad")
    save_wav(root / "a.wav", AudioSignal(
        0.1 * np.random.default_rng(0).standard_normal(16000), 16000))
    (root / "not_json.json").write_text("change_points_sec: [1.0]\n")
    (root / "empty.json").write_text("{}")
    (root / "truth.json").write_text(json.dumps(
        {"change_points_sec": [0.5], "turns": [[0, 0.0, 0.5], [1, 0.5, 1.0]]}))
    (root / "points.csv").write_text("time_sec,frame_index\n0.5,50\n")
    (root / "bad_value.cfg").write_text("window_frames = many\n")
    (root / "bad_hidden.cfg").write_text("hidden = 64,wide\n")
    (root / "zero_slide.cfg").write_text("slide_frames = 0\n")
    # quasi-silences, so that segmentation scans windows
    save_wav(root / "speech.wav", synth_conversation(random_conversation_spec(
        num_speakers=2, seed=1, min_changes=1, max_changes=1))[0])
    (root / "nan_gap.cfg").write_text("gap_sec = nan\n")
    (root / "not_utf8.cfg").write_bytes(b"\xff\xfe\x00bad")
    (root / "two_bytes.wav").write_bytes(b"RI")
    (root / "typo.cfg").write_text("treshold_db = 5\n")
    (root / "thr30.cfg").write_text("threshold_db = 30\n")
    (root / "seed.cfg").write_text("seed = 3\n")
    (root / "negative_region.cfg").write_text("min_region_frames = -3\n")
    # a 10 ms hop rounds to no samples at 1 Hz
    save_wav(root / "rate1.wav", AudioSignal(np.zeros(100), 1))
    # a RIFF/WAVE file of 32-bit IEEE float samples, format tag 3
    fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
    data = np.zeros(160, dtype="<f4").tobytes()
    (root / "float.wav").write_bytes(
        b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data)) + b"WAVE"
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        + b"data" + struct.pack("<I", len(data)) + data)
    # 16-bit PCM files of 4000 declared data bytes, cut inside a sample
    # (mono), inside a frame (stereo) and at a frame boundary (stereo)
    for name, channels, size in [("cut_mono.wav", 1, 1001), ("cut_stereo.wav", 2, 1002),
                                 ("short_stereo.wav", 2, 1000)]:
        with wave.open(str(root / name), "wb") as wf:
            wf.setnchannels(channels)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(bytes(4000))
        (root / name).write_bytes((root / name).read_bytes()[:44 + size])
    for name, channels, width in [("pcm8.wav", 1, 1), ("three_channels.wav", 3, 2)]:
        with wave.open(str(root / name), "wb") as wf:
            wf.setnchannels(channels)
            wf.setsampwidth(width)
            wf.setframerate(16000)
            wf.writeframes(bytes(channels * width * 800))
    return root


BAD_INVOCATIONS = {
    "window too small": ["segment", "--audio", "{root}/a.wav", "--window-frames", "2"],
    "zero rounds": ["fedsim", "--rounds", "0"],
    "truth not json": ["diarize", "--audio", "{root}/a.wav",
                       "--truth", "{root}/not_json.json"],
    "truth without keys": ["diarize", "--audio", "{root}/a.wav",
                           "--truth", "{root}/empty.json"],
    "negative collar": ["eval", "--truth", "{root}/truth.json",
                        "--detected", "{root}/points.csv", "--collar-sec", "-1"],
    "config value not a number": ["segment", "--audio", "{root}/a.wav",
                                  "--config", "{root}/bad_value.cfg"],
    "hidden sizes not numbers": ["fedsim", "--rounds", "1",
                                 "--config", "{root}/bad_hidden.cfg"],
    "hidden flag not numbers": ["fedsim", "--rounds", "1", "--hidden", "64,wide"],
    "zero slide (used to hang)": ["segment", "--audio", "{root}/speech.wav",
                                  "--config", "{root}/zero_slide.cfg"],
    "nan gap": ["synth", "--config", "{root}/nan_gap.cfg"],
    "no iid clients": ["fedsim", "--rounds", "1", "--num-speakers", "2",
                       "--mode", "iid", "--num-clients", "0"],
    "negative local epochs": ["fedsim", "--rounds", "1", "--num-speakers", "2",
                              "--local-epochs", "-3"],
    "diverging lr0 (used to write nan)": ["fedsim", "--rounds", "2", "--num-speakers", "2",
                                          "--lr0", "1e308"],
    "config not utf-8": ["synth", "--config", "{root}/not_utf8.cfg"],
    "truncated wav": ["segment", "--audio", "{root}/two_bytes.wav"],
    "misspelt config key (used to run the defaults)": [
        "segment", "--audio", "{root}/a.wav", "--config", "{root}/typo.cfg"],
    "config key of another command": ["synth", "--config", "{root}/thr30.cfg"],
    "seed key of a command that draws nothing": [
        "segment", "--audio", "{root}/a.wav", "--config", "{root}/seed.cfg"],
    "sample rate too low to frame": ["segment", "--audio", "{root}/rate1.wav"],
    "speaker count past int64": ["synth", "--num-speakers", str(10**20)],
    "change count past int64": ["synth", "--min-changes", "1", "--max-changes", str(10**20)],
    "sweep speaker count past int64": ["sweep", "--num-speakers", str(10**20)],
    "speaker count past the pitch ladder (used to hang)": [
        "synth", "--num-speakers", str(10**12)],
    "change count past the address space (used to hang)": [
        "synth", "--min-changes", str(10**12), "--max-changes", str(10**12)],
    "negative min_region_frames (used to run)": [
        "cluster", "--audio", "{root}/a.wav", "--config", "{root}/negative_region.cfg"],
    "one-frame segments (used to run)": ["cluster", "--audio", "{root}/a.wav",
                                         "--min-seg-frames", "1"],
}


def run_python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's feddiar."""
    src = str(Path(feddiar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def run_cli_process(argv, out_dir) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, so that warnings reach stderr."""
    return run_python("-m", "feddiar.cli", *argv, "--out-dir", str(out_dir))


@pytest.mark.parametrize("case", sorted(BAD_INVOCATIONS))
def test_bad_input_exits_1_without_traceback(case, bad_inputs, tmp_path) -> None:
    argv = [a.format(root=bad_inputs) for a in BAD_INVOCATIONS[case]]
    proc = run_cli_process(argv, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert any(line.startswith("error: ") and line[len("error: "):].strip()
               for line in proc.stderr.splitlines()), proc.stderr
    assert "Traceback" not in proc.stderr


def test_import_leaves_out_scipy_stats() -> None:
    # scipy.stats took about half of a CLI process's import time
    proc = run_python("-c", "import sys, feddiar.cli; print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def readme_config_entries() -> dict[str, set[str] | None]:
    """The report.json `config` entries that the README lists: each
    section's keys, or None for a plain value."""
    lines = (Path(feddiar.__file__).resolve().parents[2] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("`config` holds"))
    bullets: list[str] = []
    for line in lines[start + 1:]:
        if line.startswith("- "):
            bullets.append(line)
        elif line.startswith("  ") and bullets:
            bullets[-1] += line
        elif bullets:
            break
    entries = {}
    for bullet in bullets:
        name, _, keys = bullet[2:].partition(":")
        entries[name.strip("`")] = set(re.findall(r"`(\w+)`", keys)) if keys else None
    return entries


def test_report_config_holds_the_documented_keys(bad_inputs, tmp_path, capsys) -> None:
    assert main(["diarize", "--audio", str(bad_inputs / "speech.wav"),
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    config = json.loads((tmp_path / "report.json").read_text())["config"]
    documented = readme_config_entries()
    assert set(config) == set(documented)
    for name, keys in documented.items():
        if keys is None:
            assert not isinstance(config[name], dict), name
        else:
            assert set(config[name]) == keys, name


def test_unknown_config_key_names_key_and_file(bad_inputs, tmp_path, capsys) -> None:
    config = bad_inputs / "typo.cfg"
    assert main(["segment", "--audio", str(bad_inputs / "a.wav"), "--config", str(config),
                 "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'treshold_db'" in err and str(config) in err
    assert not list(tmp_path.iterdir())


def test_successive_calls_parse_independently(tmp_path, capsys) -> None:
    wav = tmp_path / "c.wav"
    save_wav(wav, synth_conversation(random_conversation_spec(
        num_speakers=2, seed=1, min_changes=1, max_changes=1))[0])

    def segment(name, *flags) -> bytes:
        out = tmp_path / name
        assert main(["segment", "--audio", str(wav), "--out-dir", str(out), *flags]) == 0
        return (out / "silences.csv").read_bytes()

    default = segment("a")
    assert segment("b", "--threshold-db", "20") != default
    assert segment("c") == default
    capsys.readouterr()


def test_diverging_fedsim_prints_only_its_error(tmp_path) -> None:
    # numpy's overflow warnings used to come first
    proc = run_cli_process(["fedsim", "--lr0", "1e308", "--rounds", "2",
                            "--num-speakers", "2"], tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: round 0: "), proc.stderr


@pytest.mark.parametrize("gap_sec", ["1e300", "1e14", "1e12"])
def test_huge_gap_is_refused_with_one_error_line(tmp_path, gap_sec) -> None:
    # numpy's "Maximum allowed dimension exceeded", "array is too big" and
    # "Unable to allocate 1.44 EiB" (1e12 s) used to escape as tracebacks;
    # numpy refuses each before allocating anything
    config = tmp_path / "gap.cfg"
    config.write_text(f"gap_sec = {gap_sec}\n")
    proc = run_cli_process(["synth", "--config", str(config)], tmp_path / "out")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


def malformed_checkpoint(path: Path, case: str) -> None:
    """A file at path that save_checkpoint did not write, of the given case."""
    if case == "text file":
        path.write_text("not a checkpoint\n")
        return
    save_checkpoint(path, init_model(ModelArch(12, (4,), 2), seed=0))
    with np.load(path) as data:
        arrays = dict(data)
    arch = json.loads(bytes(arrays["arch"]).decode())
    if case == "no arch":
        del arrays["arch"]
    elif case == "no w0":
        del arrays["w0"]
    elif case == "arch not json":
        arrays["arch"] = np.frombuffer(b"{not json", dtype=np.uint8)
    elif case == "hidden sizes a string":
        arch["hidden_sizes"] = "4"
        arrays["arch"] = np.frombuffer(json.dumps(arch).encode(), dtype=np.uint8)
    elif case == "hidden size zero":
        arch["hidden_sizes"] = [0]
        arrays["arch"] = np.frombuffer(json.dumps(arch).encode(), dtype=np.uint8)
    elif case == "tanh activation":
        arch["activation"] = "tanh"
        arrays["arch"] = np.frombuffer(json.dumps(arch).encode(), dtype=np.uint8)
    elif case == "object array":
        arrays["w0"] = np.array([None, 1], dtype=object)
    elif case == "nan w0":
        arrays["w0"] = np.full_like(arrays["w0"], np.nan)
    elif case == "inf w0":
        arrays["w0"][0, 0] = np.inf
    elif case == "complex w0":
        arrays["w0"] = arrays["w0"].astype(np.complex128)
    elif case == "w0 wrong shape":
        arrays["w0"] = np.zeros((3, 4))
    np.savez(path, **arrays)


@pytest.mark.parametrize("case", ["text file", "no arch", "no w0", "arch not json",
                                  "hidden sizes a string", "hidden size zero",
                                  "tanh activation", "object array", "nan w0",
                                  "inf w0", "complex w0", "w0 wrong shape"])
def test_malformed_checkpoint_is_refused_with_one_error_line(bad_inputs, tmp_path,
                                                             case) -> None:
    # ValueError, KeyError, JSONDecodeError and TypeError used to escape;
    # NaN, inf and complex weights used to exit 0 with nan confidences
    # and weights whose shapes do not chain gave a message without the file
    model = tmp_path / "model.npz"
    malformed_checkpoint(model, case)
    proc = run_cli_process(["identify", "--audio", str(bad_inputs / "a.wav"),
                            "--model", str(model)], tmp_path / "out")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {model} "), proc.stderr


def test_unwritable_rttm_is_refused_with_one_error_line_naming_it(bad_inputs,
                                                                 tmp_path) -> None:
    # a directory where identify writes its RTTM file
    model = tmp_path / "model.npz"
    save_checkpoint(model, init_model(ModelArch(12, (4,), 2), seed=0))
    rttm = tmp_path / "out" / "diarization.rttm"
    rttm.mkdir(parents=True)
    proc = run_cli_process(["identify", "--audio", str(bad_inputs / "speech.wav"),
                            "--model", str(model)], tmp_path / "out")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert str(rttm) in lines[0]


def test_float_wav_is_refused_with_one_error_line_naming_it(bad_inputs, tmp_path) -> None:
    # the message of the wave module's "unknown format" used to lose the file
    wav = bad_inputs / "float.wav"
    proc = run_cli_process(["segment", "--audio", str(wav)], tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert lines == [f"error: {wav}: unknown format: 3"], proc.stderr


@pytest.mark.parametrize("name, message", [
    ("cut_mono.wav", "data chunk holds 1001 bytes, its header declares 4000"),
    ("cut_stereo.wav", "data chunk holds 1002 bytes, its header declares 4000"),
    ("short_stereo.wav", "data chunk holds 1000 bytes, its header declares 4000"),
    ("pcm8.wav", "expected 16-bit PCM, got 8-bit"),
    ("three_channels.wav", "expected mono or stereo, got 3 channels"),
])
def test_bad_wav_payload_is_refused_with_one_error_line_naming_it(bad_inputs, tmp_path,
                                                                  name, message) -> None:
    # a cut data chunk used to end in a numpy traceback, and the payload
    # checks did not name the file
    wav = bad_inputs / name
    proc = run_cli_process(["segment", "--audio", str(wav)], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: {wav}: {message}"], proc.stderr


def test_segment_runs_no_clustering(bad_inputs, tmp_path, monkeypatch, capsys) -> None:
    # segment writes what the stages up to segmentation give, so a fault in
    # clustering, which cluster reports, cannot fail it
    def argv(command, out_dir):
        return [command, "--audio", str(bad_inputs / "speech.wav"), "--out-dir", str(out_dir)]

    assert main(argv("segment", tmp_path / "plain")) == 0

    def broken(*args, **kwargs):
        raise RuntimeError("clustering is broken")

    monkeypatch.setattr("feddiar.pipeline.build_segments", broken)
    monkeypatch.setattr("feddiar.pipeline.cluster_segments", broken)
    assert main(argv("segment", tmp_path / "patched")) == 0
    for name in ("change_points.csv", "silences.csv"):
        assert ((tmp_path / "patched" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes())
    capsys.readouterr()
    assert main(argv("cluster", tmp_path / "cluster")) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: stage 'clustering' failed"), lines


@pytest.mark.parametrize("command", ["diarize", "eval"])
@pytest.mark.parametrize("truth", ['{"change_points_sec": [NaN], "turns": [[0, 0.0, 1.0]]}',
                                   '{"change_points_sec": [], "turns": [[0, 0.0, Infinity]]}',
                                   '{"change_points_sec": [], "turns": [[Infinity, 0.0, 1.0]]}'])
def test_non_finite_truth_is_refused_with_one_error_line(bad_inputs, tmp_path, command,
                                                         truth) -> None:
    # Python's json reads NaN and Infinity; such a truth used to be scored against
    path = tmp_path / "truth.json"
    path.write_text(truth)
    inputs = {"diarize": ["--audio", str(bad_inputs / "a.wav")],
              "eval": ["--detected", str(bad_inputs / "points.csv")]}[command]
    proc = run_cli_process([command, "--truth", str(path), *inputs], tmp_path / "out")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_detected_time_is_refused_with_one_error_line(tmp_path, bad) -> None:
    # float() reads all three; such a change point used to be scored
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"change_points_sec": [1.0, 2.0],
                                 "turns": [[0, 0.0, 1.0], [1, 1.0, 2.0], [0, 2.0, 3.0]]}))
    detected = tmp_path / "points.csv"
    detected.write_text(f"time_sec\n{bad}\n1.0\n")
    proc = run_cli_process(["eval", "--truth", str(truth), "--detected", str(detected)],
                           tmp_path / "out")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


# Hostile values for any flag or config key: every invocation must exit 0,
# or exit 1 with an `error:` line (or 2, where argparse refuses a flag's
# type); no exception may escape and no run may hang.
HOSTILE_VALUES = ("0", "-1", "nan", "inf", "-inf", "1e308", "", "x")

PIPELINE_KEYS = ("num_coefficients", "threshold_db", "min_region_frames",
                 "noise_percentile", "window_frames", "stride_fraction",
                 "analysis_window_sec", "slide_frames", "grow_frames", "method",
                 "t2_threshold", "lambda", "delta_k", "min_seg_frames", "collar_sec")
AUDIO_FLAG_KEYS = ("method", "window_frames", "stride_fraction",
                   "t2_threshold", "threshold_db", "min_seg_frames", "collar_sec")
AUDIO = {"audio": "{root}/c.wav"}
MODEL = {"model": "{root}/model.npz"}
FEDSIM_KEYS = ("seed", "mode", "num_speakers", "num_clients", "group_size",
               "rounds", "local_epochs", "lr0", "lr_decay", "hidden")


# subcommand -> (base options, keys it reads, keys that also have a flag);
# the base options keep every run small: one sweep conversation, one round
HOSTILE_TARGETS = {
    "synth": ({"num_speakers": "2", "min_changes": "1", "max_changes": "1"},
              ("seed", "num_speakers", "min_changes", "max_changes", "gap_sec"),
              ("seed", "num_speakers", "min_changes", "max_changes")),
    "segment": (AUDIO, PIPELINE_KEYS, AUDIO_FLAG_KEYS),
    "cluster": (AUDIO, PIPELINE_KEYS, AUDIO_FLAG_KEYS),
    "identify": ({**AUDIO, **MODEL}, PIPELINE_KEYS, AUDIO_FLAG_KEYS),
    # diarize still accepts --seed and ignores it
    "diarize": ({**AUDIO, **MODEL, "truth": "{root}/c.truth.json"},
                PIPELINE_KEYS + ("seed",), AUDIO_FLAG_KEYS + ("seed",)),
    "sweep": ({"num_conversations": "1", "num_speakers": "2", "seed": "0"},
              PIPELINE_KEYS + ("num_conversations", "num_speakers", "seed"),
              ("num_conversations", "num_speakers", "seed")),
    "fedsim": ({"rounds": "1", "num_speakers": "2", "hidden": "4", "seed": "0"},
               FEDSIM_KEYS, FEDSIM_KEYS),
    "eval": ({"truth": "{root}/c.truth.json", "detected": "{root}/points.csv"},
             ("collar_sec",), ("collar_sec",)),
}


@pytest.mark.parametrize("key", PIPELINE_KEYS)
def test_every_pipeline_key_is_read(key, bad_inputs, tmp_path, capsys) -> None:
    # the keys that the CLI accepts are these, and a value that none of
    # them takes fails where the key is read, not as an unknown key
    assert sorted(cli.PIPELINE_KEYS) == sorted(PIPELINE_KEYS)
    config = tmp_path / "x.cfg"
    config.write_text(f"{key} = x\n")
    assert main(["segment", "--audio", str(bad_inputs / "a.wav"), "--config", str(config),
                 "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "has no option" not in err


@pytest.fixture(scope="module")
def hostile_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out-dir", str(root), "--prefix", "c", "--seed", "1",
                     "--num-speakers", "2", "--min-changes", "1",
                     "--max-changes", "1"]) == 0
    save_checkpoint(root / "model.npz", init_model(ModelArch(num_classes=2), 0))
    (root / "points.csv").write_text("time_sec,frame_index\n0.5,50\n")
    return root


def hostile_argv(root, out_dir, command, key, via, value) -> list[str]:
    base, _, _ = HOSTILE_TARGETS[command]
    opts = {k: v.format(root=root) for k, v in base.items() if k != key}
    argv = [command, "--out-dir", str(out_dir)]
    for k, v in opts.items():
        argv += [f"--{k.replace('_', '-')}", v]
    if via == "flag":
        return argv + [f"--{key.replace('_', '-')}={value}"]
    config = Path(out_dir) / "hostile.cfg"
    config.write_text(f"{key} = {value}\n")
    return argv + ["--config", str(config)]


@st.composite
def hostile_invocations(draw):
    command = draw(st.sampled_from(sorted(HOSTILE_TARGETS)))
    _, keys, flag_keys = HOSTILE_TARGETS[command]
    key = draw(st.sampled_from(keys))
    via = draw(st.sampled_from(["flag", "config"] if key in flag_keys else ["config"]))
    return command, key, via, draw(st.sampled_from(HOSTILE_VALUES))


class Hang(BaseException):
    """Not an Exception, so that no stage wrapper can turn it into an error."""


def _alarm(signum, frame):
    raise Hang("run did not finish in 30 s")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=hostile_invocations())
def test_hostile_values_exit_cleanly(case, hostile_inputs) -> None:
    command, key, via, value = case
    with tempfile.TemporaryDirectory() as out_dir:
        argv = hostile_argv(hostile_inputs, out_dir, command, key, via, value)
        err = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(30)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            # argparse rejects a flag value its type or choices cannot take,
            # before the program runs (exit 2, documented in the README)
            assert via == "flag" and exc.code == 2, (argv, err.getvalue())
            assert "error: argument" in err.getvalue()
            return
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 1), argv
        if code == 1:
            assert err.getvalue().startswith("error:"), (argv, err.getvalue())
        report = Path(out_dir) / "report.json"
        if code == 0 and report.exists():
            json.loads(report.read_text(), parse_constant=_reject_constant)
