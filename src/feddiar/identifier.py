"""Feed-forward speaker identifier over MFCC frames.

A small ReLU network ending in a linear layer whose pre-softmax activations
double as segment embeddings. Training is plain backprop with Adam on
cross-entropy against one-hot labels. The online update treats each segment
cluster as one candidate epoch, gated by the normalized cosine similarity
between the cluster's embeddings and the banked embeddings of the predicted
speaker.

All math is numpy; weights are treated as immutable (training updates
copies it owns and returns them in a new ModelWeights) so callers can hold
references across rounds safely.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .clustering import ClusterSet, Segment, cluster_rows
from .errors import InvalidConfig, InvalidInput, InvalidSpec

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
DEFAULT_BANK_CAP = 200
# the only hidden-layer activation; checkpoints record it by this name
ACTIVATION = "relu"


@dataclass(frozen=True)
class ModelArch:
    input_dim: int = 12
    hidden_sizes: tuple[int, ...] = (64, 64)
    num_classes: int = 2

    def __post_init__(self):
        if not self.hidden_sizes:
            raise InvalidConfig("at least one hidden layer required")
        if self.num_classes < 2:
            raise InvalidConfig("need at least two classes")
        if self.input_dim < 1 or any(h < 1 for h in self.hidden_sizes):
            raise InvalidConfig("layer sizes must be positive")
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_dim, *self.hidden_sizes, self.num_classes]


@dataclass(frozen=True)
class ModelWeights:
    arch: ModelArch
    weights: tuple[np.ndarray, ...]     # one (fan_in, fan_out) matrix per layer
    biases: tuple[np.ndarray, ...]
    version: int = 0

    def __post_init__(self):
        sizes = self.arch.layer_sizes
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise InvalidInput("layer count does not match arch")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
                raise InvalidInput(f"layer {i} shape {w.shape} does not chain")

    def bumped(self, new_weights, new_biases) -> "ModelWeights":
        return ModelWeights(arch=self.arch,
                            weights=tuple(new_weights),
                            biases=tuple(new_biases),
                            version=self.version + 1)


@dataclass
class AdamState:
    """Adam's step count and moments: `m` the first, `v` the second, each one
    array per parameter, the weights and then the biases."""

    step: int
    m: list[np.ndarray]
    v: list[np.ndarray]

    @classmethod
    def for_model(cls, model: ModelWeights) -> "AdamState":
        params = (*model.weights, *model.biases)
        return cls(step=0, m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


@dataclass(frozen=True)
class Embedding:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise InvalidInput("embedding entries must be finite")
        object.__setattr__(self, "values", v)


class EmbeddingBank:
    """Per-speaker FIFO store of training-data embeddings."""

    def __init__(self, bank_cap: int = DEFAULT_BANK_CAP):
        if bank_cap < 1:
            raise InvalidConfig("bank_cap must be positive")
        self.bank_cap = bank_cap
        self._store: dict[int, list[Embedding]] = {}

    def add(self, speaker_id: int, embedding: Embedding) -> None:
        entries = self._store.setdefault(int(speaker_id), [])
        entries.append(embedding)
        if len(entries) > self.bank_cap:
            del entries[:len(entries) - self.bank_cap]

    def get(self, speaker_id: int) -> list[Embedding]:
        return list(self._store.get(int(speaker_id), []))


def init_model(arch: ModelArch, seed) -> ModelWeights:
    """Fan-in-scaled symmetric uniform init, deterministic per seed."""
    rng = np.random.default_rng(seed)
    sizes = arch.layer_sizes
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return ModelWeights(arch=arch, weights=tuple(weights), biases=tuple(biases))


def _forward_batch(model: ModelWeights, x: np.ndarray) -> np.ndarray:
    """Logits (pre-softmax outputs) of a batch of frames."""
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
    return a @ model.weights[-1] + model.biases[-1]


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _check_training_data(model: ModelWeights, frames, labels):
    frames = np.asarray(frames, dtype=np.float64)
    labels = np.asarray(labels)
    if frames.ndim != 2 or frames.shape[1] != model.arch.input_dim:
        raise InvalidInput(f"frames shape {frames.shape}")
    if frames.shape[0] == 0:
        raise InvalidInput("no training frames")
    if labels.shape != (frames.shape[0],):
        raise InvalidInput("labels must align with frames")
    if labels.min() < 0 or labels.max() >= model.arch.num_classes:
        raise InvalidInput(
            f"labels must lie in [0, {model.arch.num_classes})")
    return frames, labels.astype(np.int64)


class _Workspace:
    """Buffers for batched forward and backward passes, allocated once.

    Sized for batches of `rows` frames. Each pass writes every intermediate
    with `out=` or in place, in the same operation order as the plain
    expressions (z = a @ w + b, softmax, delta = (delta @ w.T) * (z > 0)),
    so the results are bit-identical to them while a training step
    allocates only the small temporaries of the label gather.

    All buffers are views of one block. A single large block, once freed,
    raises glibc's dynamic mmap and trim thresholds above its own size, so
    the next call reuses heap pages. As many separate buffers, each under
    the threshold, they would be trimmed and faulted in afresh on every
    call unless earlier, unrelated code had happened to raise it.
    """

    def __init__(self, arch: ModelArch, rows: int):
        hidden = [(rows, h) for h in arch.hidden_sizes]
        sizes = arch.layer_sizes
        weights = list(zip(sizes, sizes[1:]))
        biases = [(o,) for o in sizes[1:]]
        params = weights + biases
        (logits, row_stat, self.pres, self.acts, self.deltas, self.masks,
         self.grad_w, self.grad_b, scratch_a, scratch_b) = _carve(
            [(rows, arch.num_classes)], [(rows, 1)],
            hidden, hidden, hidden, hidden, weights, biases, params, params)
        self.logits, self.row_stat = logits[0], row_stat[0]
        self.scratch = list(zip(scratch_a, scratch_b))   # Adam temporaries per parameter
        self.row_ids = np.arange(rows)

    def gradients(self, weights, biases, x: np.ndarray, labels: np.ndarray):
        """Mean cross-entropy gradients on (x, labels), in the grad buffers."""
        a = x
        for layer, (w, b) in enumerate(zip(weights[:-1], biases[:-1])):
            z = np.matmul(a, w, out=self.pres[layer])
            z += b
            a = np.maximum(z, 0.0, out=self.acts[layer])
        delta = np.matmul(a, weights[-1], out=self.logits)
        delta += biases[-1]

        # softmax in place, then its cross-entropy gradient
        delta -= np.max(delta, axis=-1, keepdims=True, out=self.row_stat)
        np.exp(delta, out=delta)
        delta /= np.sum(delta, axis=-1, keepdims=True, out=self.row_stat)
        delta[self.row_ids, labels] -= 1.0
        delta /= x.shape[0]

        for layer in range(len(weights) - 1, -1, -1):
            a = self.acts[layer - 1] if layer > 0 else x
            np.matmul(a.T, delta, out=self.grad_w[layer])
            np.sum(delta, axis=0, out=self.grad_b[layer])
            if layer > 0:
                prev = np.matmul(delta, weights[layer].T, out=self.deltas[layer - 1])
                # a 0/1 float mask multiplies exactly as a cast boolean one
                prev *= np.greater(self.pres[layer - 1], 0.0, out=self.masks[layer - 1])
                delta = prev
        return self.grad_w, self.grad_b


def _carve(*groups) -> list[list[np.ndarray]]:
    """Float64 arrays of the shapes in each group, as views of one block."""
    counts = [[math.prod(shape) for shape in group] for group in groups]
    block = np.empty(sum(map(sum, counts)))
    out, start = [], 0
    for group, group_counts in zip(groups, counts):
        out.append([])
        for shape, count in zip(group, group_counts):
            out[-1].append(block[start:start + count].reshape(shape))
            start += count
    return out


def gradients(model: ModelWeights, frames: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy gradients for every weight matrix and bias."""
    frames, labels = _check_training_data(model, frames, labels)
    work = _Workspace(model.arch, frames.shape[0])
    grad_w, grad_b = work.gradients(model.weights, model.biases, frames, labels)
    # copies, so that holding the gradients does not hold the workspace
    return [g.copy() for g in grad_w], [g.copy() for g in grad_b]


def _adam_step(value, grad, m, v, step, lr, t1, t2):
    """Adam update of value, m and v in place; t1 and t2 are scratch.

    Same operation order as m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    value - lr m_hat / (sqrt(v_hat) + eps).
    """
    m *= ADAM_BETA1
    m += np.multiply(grad, 1.0 - ADAM_BETA1, out=t1)
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=t1)
    t1 *= grad
    v += t1
    np.divide(m, 1.0 - ADAM_BETA1 ** step, out=t1)
    t1 *= lr
    np.divide(v, 1.0 - ADAM_BETA2 ** step, out=t2)
    np.sqrt(t2, out=t2)
    t2 += ADAM_EPS
    t1 /= t2
    value -= t1


def train_local(
    model: ModelWeights,
    frames: np.ndarray,
    labels: np.ndarray,
    opt: AdamState | None = None,
    lr: float = 1e-3,
    epochs: int = 1,
) -> tuple[ModelWeights, AdamState]:
    """Full-batch Adam on cross-entropy, one step per epoch.

    Bit-reproducible. The parameters are updated in copies owned by this
    call, and every per-step array lives in one workspace allocated up
    front, so the number of allocations does not grow with steps.
    """
    frames, labels = _check_training_data(model, frames, labels)
    frames = np.ascontiguousarray(frames)
    opt = opt or AdamState.for_model(model)

    params = [p.copy() for p in (*model.weights, *model.biases)]
    new_w, new_b = params[:len(model.weights)], params[len(model.weights):]
    work = _Workspace(model.arch, frames.shape[0])
    for _ in range(epochs):
        grad_w, grad_b = work.gradients(new_w, new_b, frames, labels)
        opt.step += 1
        for p, g, m, v, (t1, t2) in zip(params, grad_w + grad_b, opt.m, opt.v,
                                        work.scratch):
            _adam_step(p, g, m, v, opt.step, lr, t1, t2)
    return model.bumped(new_w, new_b), opt


def evaluate(model: ModelWeights, frames: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(mean cross-entropy, accuracy) on a labeled frame set."""
    frames, labels = _check_training_data(model, frames, labels)
    logits = _forward_batch(model, frames)
    # log-sum-exp form avoids under/overflow in the probabilities
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    log_probs = shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    loss = float(-np.mean(log_probs[np.arange(len(labels)), labels]))
    acc = float(np.mean(np.argmax(logits, axis=1) == labels))
    return loss, acc


def _row_logits(model: ModelWeights, rows: np.ndarray, empty: str) -> np.ndarray:
    """Logits of a segment's or cluster's frames, one row a frame (a 1-D row
    is one frame); InvalidInput with the message `empty` when there are none."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.shape[0] == 0:
        raise InvalidInput(empty)
    if rows.shape[1] != model.arch.input_dim:
        raise InvalidInput(f"rows have dimension {rows.shape[1]}")
    return _forward_batch(model, rows)


def embed_segment(model: ModelWeights, rows: np.ndarray) -> Embedding:
    """Mean pre-softmax output over a segment's frames."""
    logits = _row_logits(model, rows, "cannot embed an empty segment")
    return Embedding(values=logits.mean(axis=0))


def cosine_similarity(td: list[Embedding], cd: list[Embedding]) -> float:
    """Average pairwise cosine between two embedding sets (banked vs cluster)."""
    if not td or not cd:
        raise InvalidInput("similarity needs a non-empty embedding set")
    t = np.vstack([e.values for e in td])
    c = np.vstack([e.values for e in cd])
    if t.shape[1] != c.shape[1]:
        raise InvalidInput("embedding dimensions differ")
    t_norm = np.linalg.norm(t, axis=1)
    c_norm = np.linalg.norm(c, axis=1)
    if np.any(t_norm == 0.0) or np.any(c_norm == 0.0):
        raise InvalidInput("zero-norm embedding has no direction")
    cosines = (t / t_norm[:, None]) @ (c / c_norm[:, None]).T
    return float(cosines.mean())


def predict_cluster(model: ModelWeights, rows: np.ndarray) -> tuple[int, float]:
    """Speaker id by frame-averaged softmax; ties resolve to the lowest id."""
    logits = _row_logits(model, rows, "cannot predict an empty cluster")
    mean_probs = softmax(logits).mean(axis=0)
    speaker = int(np.argmax(mean_probs))
    return speaker, float(mean_probs[speaker])


@dataclass(frozen=True)
class UpdateDecision:
    cluster_id: int
    speaker_id: int
    similarity: float
    updated: bool


def online_update(
    model: ModelWeights,
    segments: list[Segment],
    clusters: ClusterSet,
    bank: EmbeddingBank,
    tau: float = 0.5,
    lr: float = 1e-3,
    opt: AdamState | None = None,
) -> tuple[ModelWeights, list[UpdateDecision]]:
    """One gated self-training pass over a clustering of new audio.

    Per cluster: predict the speaker, compare the cluster's segment
    embeddings against that speaker's bank entries, and when the mean
    cosine clears tau run a single epoch on the cluster's frames under the
    predicted label and bank its embeddings. A cluster whose speaker has an
    empty bank scores nan and never opens the gate.
    """
    opt = opt or AdamState.for_model(model)
    decisions: list[UpdateDecision] = []
    for cid, member_ids in enumerate(clusters.clusters):
        rows = cluster_rows(segments, member_ids)
        speaker, _ = predict_cluster(model, rows)
        cluster_embeddings = [embed_segment(model, segments[i].rows) for i in member_ids]
        banked = bank.get(speaker)
        similarity = cosine_similarity(banked, cluster_embeddings) if banked else float("nan")
        updated = bool(similarity >= tau)
        if updated:
            labels = np.full(rows.shape[0], speaker, dtype=np.int64)
            model, opt = train_local(model, rows, labels, opt=opt, lr=lr, epochs=1)
            for emb in cluster_embeddings:
                bank.add(speaker, emb)
        decisions.append(UpdateDecision(cluster_id=cid, speaker_id=speaker,
                                        similarity=similarity, updated=updated))
    return model, decisions


def save_checkpoint(path, model: ModelWeights) -> None:
    """Portable npz checkpoint; round-trips bit-exactly."""
    arch_json = json.dumps({
        "input_dim": model.arch.input_dim,
        "hidden_sizes": list(model.arch.hidden_sizes),
        "num_classes": model.arch.num_classes,
        "activation": ACTIVATION,
    })
    payload = {"arch": np.frombuffer(arch_json.encode(), dtype=np.uint8),
               "version": np.int64(model.version)}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        payload[f"w{i}"] = w
        payload[f"b{i}"] = b
    np.savez(path, **payload)


def load_checkpoint(path) -> ModelWeights:
    """The model of a save_checkpoint file; InvalidSpec, naming the file,
    when it is not one (not an npz, a missing array, malformed arch JSON, an
    unsupported activation, an arch that ModelArch refuses, a weight or bias
    that is not a finite float64 array, weights whose shapes do not chain)."""
    try:
        with np.load(path) as data:
            arch_json = json.loads(bytes(data["arch"]).decode())
            if arch_json.get("activation") != ACTIVATION:
                raise InvalidSpec(f"{path} is not a model checkpoint: unsupported "
                                  f"activation {arch_json.get('activation')!r}")
            arch = ModelArch(input_dim=int(arch_json["input_dim"]),
                             hidden_sizes=tuple(arch_json["hidden_sizes"]),
                             num_classes=int(arch_json["num_classes"]))
            n_layers = len(arch.layer_sizes) - 1
            weights = tuple(data[f"w{i}"] for i in range(n_layers))
            biases = tuple(data[f"b{i}"] for i in range(n_layers))
            version = int(data["version"])
        if not all(a.dtype == np.float64 and np.isfinite(a).all() for a in weights + biases):
            raise InvalidSpec(f"{path} is not a model checkpoint: "
                              "a weight or bias is not a finite float64 array")
        # in the try: ModelWeights refuses shapes that do not chain with
        # InvalidInput, a ValueError
        return ModelWeights(arch=arch, weights=weights, biases=biases, version=version)
    except (AttributeError, EOFError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile) as exc:
        raise InvalidSpec(f"{path} is not a model checkpoint: "
                          f"{type(exc).__name__} {exc}") from exc
