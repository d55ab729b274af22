"""In-memory spans around the public functions of each feddiar layer.

The program itself records nothing. A Tracer replaces the listed
functions with timing wrappers wherever a feddiar module holds a
reference to them (modules bind each other's functions by name, so
`pipeline.segment_t2` and `segmentation.segment_t2` are both patched),
and puts the originals back when the `installed()` block ends.

A span is (id, name, layer, start, end, parent, run, attrs). `parent` is
the id of the enclosing span or -1, `run` labels the benchmark phase
(`setup`, `op-3`, ...), and `attrs` holds sizes read from the arguments
or the result. A span's self time is its duration minus the durations of
its direct children; calls are nested and single-threaded, so children
never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int
    run: str
    attrs: dict | None


def _rows(a) -> int:
    return int(getattr(a, "shape", (len(a),))[0])


def _divergence_rows(args, kwargs, result):
    return {"rows": _rows(args[0]) + _rows(args[1])}


def _model_bytes(model) -> int:
    return sum(w.nbytes for w in model.weights) + sum(b.nbytes for b in model.biases)


# (module, function, probe). The layer is the module's last name part; a
# probe turns (args, kwargs, result) into the span's size attributes.
TRACED = [
    ("feddiar.cli", "main", None),
    ("feddiar.frontend", "load_wav", None),
    ("feddiar.frontend", "frame_signal",
     lambda a, k, r: {"frame_bytes": int(r.frames.nbytes)}),
    ("feddiar.frontend", "compute_mfcc", lambda a, k, r: {"frames": len(r)}),
    ("feddiar.silence", "estimate_noise_profile", None),
    ("feddiar.silence", "spectral_subtract", None),
    ("feddiar.silence", "detect_quasi_silences", lambda a, k, r: {"regions": len(r)}),
    ("feddiar.segmentation", "segment_bic", lambda a, k, r: {"points": len(r)}),
    ("feddiar.segmentation", "segment_t2", lambda a, k, r: {"points": len(r)}),
    ("feddiar.segmentation", "scan_window", None),
    ("feddiar.divergence", "gaussian_fit", None),
    ("feddiar.divergence", "delta_bic", _divergence_rows),
    ("feddiar.divergence", "hotelling_t2", _divergence_rows),
    ("feddiar.clustering", "cluster_segments",
     lambda a, k, r: {"segments": len(a[0]), "clusters": len(r),
                      "merges": len(r.merge_trace)}),
    ("feddiar.clustering", "merge_cost", None),
    ("feddiar.identifier", "predict_cluster", None),
    ("feddiar.identifier", "train_local",
     lambda a, k, r: {"frame_epochs": _rows(a[1]) * int(k.get("epochs", 1))}),
    ("feddiar.identifier", "evaluate", None),
    ("feddiar.federated", "build_network", None),
    ("feddiar.federated", "run_experiment", None),
    ("feddiar.federated", "run_round", None),
    ("feddiar.federated", "form_groups", None),
    ("feddiar.federated", "aggregate",
     lambda a, k, r: {"bytes": len(a[0]) * _model_bytes(r)}),
    ("feddiar.metrics", "match_change_points", None),
    ("feddiar.metrics", "seg_scores", None),
    ("feddiar.metrics", "corpus_scores", None),
    ("feddiar.metrics", "id_scores", None),
    ("feddiar.pipeline", "run_pipeline", None),
    ("feddiar.pipeline", "sweep", None),
    ("feddiar.pipeline", "prepare_conversations", None),
    ("feddiar.pipeline", "build_segments", None),
    ("feddiar.synth", "synth_conversation", None),
    ("feddiar.synth", "synth_corpus", None),
    ("feddiar.synth", "speaker_frame_corpus", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.run = "setup"
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, name, layer, start, parent, attrs) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[sid] = Span(sid, name, layer, start, end, parent, self.run, attrs)

    def wrap(self, layer: str, name: str, fn, probe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = perf_counter()
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    attrs = probe(args, kwargs, result)
                return result
            finally:
                self._close(sid, name, layer, start, parent, attrs)
        return traced

    @contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself, e.g. the root of one op."""
        sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, layer, start, parent, None)

    @contextmanager
    def installed(self):
        """Patch every target in every loaded feddiar module; restore on exit."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "feddiar" or n.startswith("feddiar.")]
        patched = []
        try:
            for module_name, func_name, probe in TRACED:
                original = getattr(importlib.import_module(module_name), func_name)
                layer = module_name.rsplit(".", 1)[-1]
                wrapper = self.wrap(layer, f"{layer}.{func_name}", original, probe)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def closed_spans(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def write_jsonl(self, path, header: dict) -> None:
        """One header line (the run's environment record), then one span a line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.closed_spans():
                fh.write(json.dumps(s._asdict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: summed self time, and busy time (the inclusive time of
    spans whose parent belongs to another layer, so nesting within one
    layer is not counted twice)."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        t = out.setdefault(s.layer, {"self_s": 0.0, "busy_s": 0.0})
        t["self_s"] += own[s.id]
        parent = by_id.get(s.parent)
        if parent is None or parent.layer != s.layer:
            t["busy_s"] += s.end - s.start
    return out


def has_ancestor(span: Span, by_id: dict[int, Span], layer: str) -> bool:
    p = by_id.get(span.parent)
    while p is not None:
        if p.layer == layer:
            return True
        p = by_id.get(p.parent)
    return False
