"""Runs one workload closed-loop and reports its metrics.

One process, one caller: each op starts when the previous one returns.
`--trace 0` sets the workload up SETUPS times (the median is `setup_s`),
each followed by ops for `--seconds / SETUPS`, and reports the end-to-end
metrics.
`--trace 1` sets up once under the tracer (for `synth.busy_s`), runs
untraced ops for half the time and traced ops for the other half, and
reports the per-layer metrics, the tracing overhead and the wall time no
span covers. Every op's outputs are checked; the last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

import tracing
import workloads
from run import BLAS_ENV
from workloads import FED_ACCURACY_TOLERANCE, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
OUT_ROOT = ROOT / ".perfbench-out"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
SETUPS = 3

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("rtf", "s/s", "lower", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_p90_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

LAYERS = ("frontend", "silence", "segmentation", "divergence", "clustering",
          "identifier", "federated", "metrics", "pipeline", "cli")

# name, unit, better
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("frontend.busy_s", "s", "lower"),
        ("frontend.load_wav_s", "s", "lower"),
        ("frontend.frames", "count", "lower"),
        ("frontend.frame_matrix_mb", "MB", "lower"),
        ("silence.busy_s", "s", "lower"),
        ("silence.regions", "count", "lower"),
        ("segmentation.busy_s", "s", "lower"),
        ("segmentation.scans", "count", "lower"),
        ("segmentation.change_points", "count", "lower"),
        ("segmentation.hit_ratio", "frac", "higher"),
        ("divergence.busy_s", "s", "lower"),
        ("divergence.fit_calls", "count", "lower"),
        ("divergence.fit_us", "us", "lower"),
        ("divergence.covariance_count", "count", "lower"),
        ("divergence.delta_bic_count", "count", "lower"),
        ("divergence.t2_count", "count", "lower"),
        ("divergence.rows_touched", "count", "lower"),
        ("clustering.busy_s", "s", "lower"),
        ("clustering.segments", "count", "lower"),
        ("clustering.clusters", "count", "lower"),
        ("clustering.merges", "count", "lower"),
        ("clustering.delta_bic_count", "count", "lower"),
        ("identifier.predict_s", "s", "lower"),
        ("identifier.train_s", "s", "lower"),
        ("identifier.eval_s", "s", "lower"),
        ("identifier.train_calls", "count", "lower"),
        ("identifier.eval_calls", "count", "lower"),
        ("identifier.frame_epochs", "count", "lower"),
        ("federated.busy_s", "s", "lower"),
        ("federated.aggregate_s", "s", "lower"),
        ("federated.aggregate_calls", "count", "lower"),
        ("federated.bytes_aggregated_mb", "MB", "lower"),
        ("metrics.busy_s", "s", "lower"),
        ("metrics.f_seg", "frac", "higher"),
        ("metrics.f_id", "frac", "higher"),
        ("federated.accuracy", "frac", "higher"),
        ("synth.busy_s", "s", "lower"),
        ("bench.uncovered_s", "s", "lower"),
        ("bench.uncovered_frac", "frac", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "frac", "lower"),
        ("trace.spans_per_op", "count", "lower"),
    ]
)

COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 12


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def environment(args, workload) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "audio_sec": round(workload.audio_sec, 3),
        "conversations": workload.conversations,
    }


def load_reference(workload: str, seed: int, size: str) -> dict | None:
    if size != "full" or not REFERENCE_PATH.exists():
        return None
    refs = json.loads(REFERENCE_PATH.read_text())
    return refs.get(workload, {}).get(str(seed))


class Checker:
    """Counts checked outputs and the ones that are wrong."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.first: dict[int, bytes] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)

    def check(self, index: int, item: workloads.Item) -> None:
        self.record(item.error or self._compare(index, item))

    def _compare(self, index: int, item: workloads.Item) -> str | None:
        if self.first.setdefault(index, item.artifact) != item.artifact:
            return f"item {index}: output differs from the first repeat"
        ref = self.reference
        if ref is None:
            return None
        if "fed_accuracy" in ref:
            got = item.quality["fed_accuracy"]
            if abs(got - ref["fed_accuracy"]) > FED_ACCURACY_TOLERANCE:
                return f"fed_accuracy {got} vs reference {ref['fed_accuracy']}"
        elif item.digest != ref["digests"][index]:
            return f"item {index}: outputs differ from the reference"
        return None


def run_ops(workload, seconds: float, checker: Checker, tracer=None):
    """Closed loop: ops back to back for `seconds`. The next op starts only
    if one more op as long as the last still fits; the first always runs."""
    walls, rtfs, samples, quality = [], [], [], []
    counters = []
    start = time.perf_counter()
    n = 0
    while n == 0 or time.perf_counter() - start + walls[-1] <= seconds:
        if tracer is not None:
            tracer.run = f"op-{n}"
        op_start = time.perf_counter()
        with tracer.span("bench", "bench.op") if tracer else contextlib.nullcontext():
            items, lat = workload.op()
        wall = time.perf_counter() - op_start
        walls.append(wall)
        rtfs.append(wall / sum(it.audio_sec for it in items))
        samples.extend(lat)
        for i, item in enumerate(items):
            checker.check(i, item)
            quality.append(item.quality)
        counters.append({k: sum(it.counters.get(k, 0) for it in items)
                         for k in ("covariance_count", "delta_bic_count", "t2_count")})
        n += 1
    return {"walls": walls, "rtfs": rtfs, "samples": samples,
            "quality": quality, "counters": counters}


def mean_quality(quality: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    for q in quality:
        for key, value in q.items():
            if value is not None:
                values.setdefault(key, []).append(value)
    return {key: float(np.mean(v)) for key, v in values.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_times, ops) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(ops["walls"]),
        "rtf": statistics.median(ops["rtfs"]),
        "latency_p50_s": float(np.percentile(ops["samples"], 50)),
        "latency_p90_s": float(np.percentile(ops["samples"], 90)),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer, setup_spans, traced, untraced, checker) -> dict:
    """Per-op averages over the traced ops, plus overhead and cross-checks."""
    spans = [s for s in tracer.closed_spans() if s.run.startswith("op-")]
    n_ops = len(traced["walls"])
    by_id = {s.id: s for s in spans}
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    totals = tracing.layer_totals(spans)

    def layer(name, key):
        return totals.get(name, {}).get(key, 0.0) / n_ops

    def of(name):
        return by_name.get(name, [])

    def dur(name):
        return sum(s.end - s.start for s in of(name)) / n_ops

    def count(name):
        return len(of(name)) / n_ops

    def attr(name, key):
        return sum(s.attrs[key] for s in of(name) if s.attrs) / n_ops

    out = {f"{name}.self_s": layer(name, "self_s") for name in LAYERS}
    for name in ("frontend", "silence", "segmentation", "divergence", "clustering",
                 "federated", "metrics"):
        out[f"{name}.busy_s"] = layer(name, "busy_s")
    fits = count("divergence.gaussian_fit")
    points = (attr("segmentation.segment_t2", "points")
              + attr("segmentation.segment_bic", "points"))
    scans = count("segmentation.scan_window")
    out.update({
        "frontend.load_wav_s": dur("frontend.load_wav"),
        "frontend.frames": attr("frontend.compute_mfcc", "frames"),
        "frontend.frame_matrix_mb": attr("frontend.frame_signal", "frame_bytes") / 1e6,
        "silence.regions": attr("silence.detect_quasi_silences", "regions"),
        "segmentation.scans": scans,
        "segmentation.change_points": points,
        "segmentation.hit_ratio": points / scans if scans else 0.0,
        "divergence.fit_calls": fits,
        "divergence.fit_us": dur("divergence.gaussian_fit") / fits * 1e6 if fits else 0.0,
        "divergence.covariance_count": float(np.mean([c["covariance_count"] for c in traced["counters"]])),
        "divergence.delta_bic_count": float(np.mean([c["delta_bic_count"] for c in traced["counters"]])),
        "divergence.t2_count": float(np.mean([c["t2_count"] for c in traced["counters"]])),
        "divergence.rows_touched": (attr("divergence.delta_bic", "rows")
                                    + attr("divergence.hotelling_t2", "rows")),
        "clustering.segments": attr("clustering.cluster_segments", "segments"),
        "clustering.clusters": attr("clustering.cluster_segments", "clusters"),
        "clustering.merges": attr("clustering.cluster_segments", "merges"),
        "clustering.delta_bic_count": sum(
            1 for s in of("divergence.delta_bic")
            if tracing.has_ancestor(s, by_id, "clustering")) / n_ops,
        "identifier.predict_s": dur("identifier.predict_cluster"),
        "identifier.train_s": dur("identifier.train_local"),
        "identifier.eval_s": dur("identifier.evaluate"),
        "identifier.train_calls": count("identifier.train_local"),
        "identifier.eval_calls": count("identifier.evaluate"),
        "identifier.frame_epochs": attr("identifier.train_local", "frame_epochs"),
        "federated.aggregate_s": dur("federated.aggregate"),
        "federated.aggregate_calls": count("federated.aggregate"),
        "federated.bytes_aggregated_mb": attr("federated.aggregate", "bytes") / 1e6,
        "synth.busy_s": tracing.layer_totals(setup_spans).get("synth", {}).get("busy_s", 0.0),
        "bench.uncovered_s": layer("bench", "self_s"),
        "bench.uncovered_frac": layer("bench", "self_s") / statistics.mean(traced["walls"]),
        "trace.overhead_s": statistics.median(traced["walls"]) - statistics.median(untraced["walls"]),
        "trace.overhead_frac": (statistics.median(traced["walls"])
                                / statistics.median(untraced["walls"]) - 1.0),
        "trace.spans_per_op": len(spans) / n_ops,
    })
    q = mean_quality(traced["quality"] + untraced["quality"])
    out["metrics.f_seg"] = q.get("f_seg", 0.0)
    out["metrics.f_id"] = q.get("f_id", 0.0)
    out["federated.accuracy"] = q.get("fed_accuracy", 0.0)

    # the program's ComputeCounter must count exactly the calls made
    for run, counter in enumerate(traced["counters"]):
        seen = {key: sum(1 for s in of(name) if s.run == f"op-{run}") for key, name in (
            ("covariance_count", "divergence.gaussian_fit"),
            ("delta_bic_count", "divergence.delta_bic"),
            ("t2_count", "divergence.hotelling_t2"))}
        checker.record(None if seen == counter else
                       f"op-{run}: counters {counter} but calls {seen}")
    return out


def run(argv, out_root: Path = OUT_ROOT) -> dict:
    args = parse_args(argv)
    out_dir = out_root / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, args.size, out_dir)
    checker = Checker(load_reference(args.workload, args.seed, args.size))

    if not args.trace:
        # Set-ups alternate with measurement windows, so the ops sample the
        # machine's speed over a longer stretch than one window would.
        setup_times, ops = [], {}
        for _ in range(SETUPS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            window = run_ops(workload, args.seconds / SETUPS, checker)
            ops = {k: ops.get(k, []) + v for k, v in window.items()}
        metrics = end_to_end(setup_times, ops)
        units = {n: u for n, u, _, _ in END_TO_END}
        quality = mean_quality(ops["quality"])
        spans_path = None
    else:
        tracer = tracing.Tracer()
        with tracer.installed():
            workload.setup()
        setup_spans = tracer.closed_spans()
        untraced = run_ops(workload, args.seconds / 2, checker)
        with tracer.installed():
            traced = run_ops(workload, args.seconds / 2, checker, tracer)
        metrics = per_layer(tracer, setup_spans, traced, untraced, checker)
        units = {n: u for n, u, _ in PER_LAYER}
        quality = {}
        spans_path = out_dir / "spans.jsonl"
        tracer.write_jsonl(spans_path, {"env": environment(args, workload)})

    failed = len(checker.failures)
    result = {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    record = {"env": environment(args, workload), "result": result,
              "extra": {"failed_frac": failed / checker.attempted, **quality},
              "failures": checker.failures,
              "reference": "recorded" if checker.reference else "none for this seed",
              "spans": str(spans_path) if spans_path else None}
    (out_dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description="feddiar benchmark (see perfbench/README.md)")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload at toy scale (smoke test)")
    return p.parse_args(argv)


def print_record(record: dict) -> None:
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"reference: {record['reference']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, m in record["result"]["metrics"].items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    for name, value in record["extra"].items():
        print(f"{name:32s} {value:14.6g} frac")
    if record["spans"]:
        print(f"spans written to {record['spans']}")
    print(json.dumps(record["result"]))
