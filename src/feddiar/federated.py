"""Federated training simulation over speaker-labeled frame sets.

Each round: clients train locally at the scheduled learning rate, a fresh
random grouping is drawn, one arbitrator per group averages its members'
parameters weighted by sample count, and the group model is broadcast back
to the members. Groups re-randomize every round, which is the only path by
which information crosses group boundaries. Raw frames never leave their
client; only ModelWeights move.

A round's clients are independent until aggregation, as in FedAvg: each
trains in copies of the shared parameters with its own AdamState. So
their local training runs on the process's worker threads (see the
workers module), as does the evaluation of the round's group models.
Grouping, aggregation and the divergence checks run on the calling
thread once the training threads have returned, in the order of a serial
round. The history and the models are the same bits on any number of
threads. Clients are addressed by their position in the state's list.

Modes: non_iid gives each client a single speaker's frames, iid deals every
speaker's frames evenly across clients, centralized pools everything into
one client in a group of one (the upper-baseline configuration; the config
sets num_clients and group_size to 1). Isolated training is the degenerate
group_size=1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidConfig, InvalidInput, TrainingDiverged
from .identifier import (
    AdamState,
    ModelArch,
    ModelWeights,
    evaluate,
    init_model,
    train_local,
)
from .seeding import substream
from .workers import run_shared

MODES = ("non_iid", "iid", "centralized")
# share of each speaker's frames held out for the per-round evaluation
HOLDOUT_FRACTION = 0.2


@dataclass
class ClientDevice:
    frames: np.ndarray
    labels: np.ndarray
    model: ModelWeights
    opt_state: AdamState

    @property
    def n_i(self) -> int:
        return int(self.frames.shape[0])


@dataclass(frozen=True)
class GroupAssignment:
    groups: list[list[int]]
    arbitrators: list[int]

    def __post_init__(self):
        for g, arb in zip(self.groups, self.arbitrators):
            if arb not in g:
                raise InvalidInput("arbitrator must belong to its group")


@dataclass(frozen=True)
class FederatedConfig:
    num_clients: int
    group_size: int
    rounds: int
    local_epochs: int = 1
    lr0: float = 1.0
    lr_decay: float = 0.9
    mode: str = "non_iid"

    def __post_init__(self):
        if self.mode == "centralized":
            object.__setattr__(self, "num_clients", 1)
            object.__setattr__(self, "group_size", 1)
        if self.num_clients < 1:
            raise InvalidConfig("num_clients must be at least 1")
        if self.group_size < 1:
            raise InvalidConfig("group_size must be at least 1")
        if self.rounds < 1:
            raise InvalidConfig("rounds must be at least 1")
        if self.local_epochs < 0:
            raise InvalidConfig("local_epochs must not be negative")
        if not 0.0 < self.lr0 < math.inf:
            raise InvalidConfig("lr0 must be positive and finite")
        if not 0.0 < self.lr_decay <= 1.0:
            raise InvalidConfig("lr_decay must lie in (0, 1]")
        if self.mode not in MODES:
            raise InvalidConfig(f"unknown mode '{self.mode}'")


@dataclass(frozen=True)
class RoundRecord:
    round: int
    mode: str
    group_size: int
    accuracy: float
    loss: float
    lr: float


@dataclass(frozen=True)
class FederatedNetworkState:
    clients: list[ClientDevice]
    round: int
    history: list[RoundRecord]
    eval_frames: np.ndarray
    eval_labels: np.ndarray


def partition_non_iid(corpus: dict[int, np.ndarray], num_clients: int):
    """One speaker per client, in ascending speaker-id order."""
    speakers = sorted(corpus)
    if num_clients > len(speakers):
        raise InvalidConfig(
            f"{num_clients} clients but only {len(speakers)} speakers")
    out = []
    for speaker in speakers[:num_clients]:
        frames = np.asarray(corpus[speaker], dtype=np.float64)
        labels = np.full(frames.shape[0], speaker, dtype=np.int64)
        out.append((frames, labels))
    return out


def partition_iid(corpus: dict[int, np.ndarray], num_clients: int, seed: int):
    """Deal every speaker's frames across clients, within one frame per class."""
    datasets = [([], []) for _ in range(num_clients)]
    for speaker in sorted(corpus):
        frames = np.asarray(corpus[speaker], dtype=np.float64)
        if frames.shape[0] < num_clients:
            raise InvalidInput(
                f"speaker {speaker} has {frames.shape[0]} frames "
                f"for {num_clients} clients")
        rng = substream(seed, "iid", speaker)
        shuffled = frames[rng.permutation(frames.shape[0])]
        for client, chunk in enumerate(np.array_split(shuffled, num_clients)):
            datasets[client][0].append(chunk)
            datasets[client][1].append(
                np.full(chunk.shape[0], speaker, dtype=np.int64))
    return [(np.vstack(f), np.concatenate(l)) for f, l in datasets]


def form_groups(client_ids, group_size: int, round: int, seed: int) -> GroupAssignment:
    """Random grouping for one round; sizes stay within one of each other."""
    ids = list(client_ids)
    n = len(ids)
    if group_size < 1 or group_size > n:
        raise InvalidConfig(f"group_size {group_size} for {n} clients")
    rng = substream(seed, "groups", round)
    order = [ids[i] for i in rng.permutation(n)]
    num_groups = n // group_size
    base, extra = divmod(n, num_groups)
    groups: list[list[int]] = []
    pos = 0
    for g in range(num_groups):
        size = base + (1 if g >= num_groups - extra else 0)
        groups.append(order[pos:pos + size])
        pos += size
    arbitrators = [g[int(rng.integers(len(g)))] for g in groups]
    return GroupAssignment(groups=groups, arbitrators=arbitrators)


def aggregate(models: list[ModelWeights], counts) -> ModelWeights:
    """Sample-count-weighted parameter average; weights sum to one."""
    if not models:
        raise InvalidInput("nothing to aggregate")
    counts = [int(c) for c in counts]
    if len(counts) != len(models):
        raise InvalidInput("one count per model required")
    if any(c <= 0 for c in counts):
        raise InvalidInput("counts must be positive")
    arch = models[0].arch
    for m in models[1:]:
        if m.arch != arch:
            raise InvalidInput("cannot aggregate differing architectures")
    if len(models) == 1:
        return models[0]
    total = float(sum(counts))
    shares = [c / total for c in counts]
    new_w = []
    new_b = []
    for layer in range(len(models[0].weights)):
        new_w.append(sum(s * m.weights[layer] for s, m in zip(shares, models)))
        new_b.append(sum(s * m.biases[layer] for s, m in zip(shares, models)))
    version = max(m.version for m in models)
    return ModelWeights(arch=arch, weights=tuple(new_w), biases=tuple(new_b),
                        version=version)


def lr_schedule(round: int, cfg: FederatedConfig) -> float:
    """Geometric decay from the initial rate."""
    if round < 0:
        raise InvalidInput("round must be non-negative")
    return cfg.lr0 * cfg.lr_decay ** round


# A learning rate far too large overflows; TrainingDiverged reports that, so
# numpy's overflow and invalid-value warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def run_round(state: FederatedNetworkState, cfg: FederatedConfig, seed: int) -> FederatedNetworkState:
    """Local training, grouping, per-group aggregation, evaluation.

    The clients train on the process's worker threads, each in copies of
    its parameters and its own AdamState, so the round's results are the
    same on any number of threads. Raises TrainingDiverged when a group's
    averaged weights or the round's held-out loss are not finite (a
    learning rate far too large), so that no NaN reaches the history.
    """
    lr = lr_schedule(state.round, cfg)
    clients = list(state.clients)

    def train(items):
        for i, client in items:
            model, opt = client.model, client.opt_state
            if cfg.local_epochs > 0 and client.n_i > 0:
                model, opt = train_local(model, client.frames, client.labels,
                                         opt=opt, lr=lr, epochs=cfg.local_epochs)
            clients[i] = replace(client, model=model, opt_state=opt)

    run_shared(list(enumerate(state.clients)), train)

    groups = form_groups(range(len(clients)), cfg.group_size, state.round, seed).groups
    models = []
    group_of = [0] * len(clients)
    for g, group in enumerate(groups):
        merged = aggregate([clients[i].model for i in group],
                           [clients[i].n_i for i in group])
        if not all(np.isfinite(p).all() for p in (*merged.weights, *merged.biases)):
            raise TrainingDiverged(f"round {state.round}: aggregated weights are "
                                   f"not finite at learning rate {lr:g}")
        for i in group:
            clients[i].model = merged
            group_of[i] = g
        models.append(merged)

    # Group members share their group's model: evaluate it once.
    scores = [None] * len(models)

    def score(items):
        for g, model in items:
            scores[g] = evaluate(model, state.eval_frames, state.eval_labels)

    run_shared(list(enumerate(models)), score)
    losses, accs = zip(*(scores[g] for g in group_of))
    record = RoundRecord(round=state.round, mode=cfg.mode, group_size=cfg.group_size,
                         accuracy=float(np.mean(accs)), loss=float(np.mean(losses)),
                         lr=lr)
    if not math.isfinite(record.loss):
        raise TrainingDiverged(f"round {state.round}: held-out loss is "
                               f"{record.loss} at learning rate {lr:g}")
    return replace(state, clients=clients, round=state.round + 1,
                   history=state.history + [record])


def holdout_split(corpus: dict[int, np.ndarray], seed: int):
    """Stratified train/eval split; every speaker keeps at least one eval frame."""
    train: dict[int, np.ndarray] = {}
    eval_frames = []
    eval_labels = []
    for speaker in sorted(corpus):
        frames = np.asarray(corpus[speaker], dtype=np.float64)
        n = frames.shape[0]
        if n < 2:
            raise InvalidInput(f"speaker {speaker} has {n} frames")
        rng = substream(seed, "eval", speaker)
        order = rng.permutation(n)
        n_eval = max(1, int(round(HOLDOUT_FRACTION * n)))
        if n_eval >= n:
            n_eval = n - 1
        eval_frames.append(frames[order[:n_eval]])
        eval_labels.append(np.full(n_eval, speaker, dtype=np.int64))
        train[speaker] = frames[order[n_eval:]]
    return train, np.vstack(eval_frames), np.concatenate(eval_labels)


def build_network(
    corpus: dict[int, np.ndarray],
    cfg: FederatedConfig,
    arch: ModelArch,
    seed: int,
) -> FederatedNetworkState:
    """Initial state: partitioned data, one shared init, stratified eval set."""
    train_corpus, eval_frames, eval_labels = holdout_split(corpus, seed)
    if cfg.mode == "non_iid":
        datasets = partition_non_iid(train_corpus, cfg.num_clients)
    elif cfg.mode == "iid":
        datasets = partition_iid(train_corpus, cfg.num_clients, seed)
    else:
        pooled_frames = np.vstack(
            [train_corpus[s] for s in sorted(train_corpus)])
        pooled_labels = np.concatenate(
            [np.full(train_corpus[s].shape[0], s, dtype=np.int64)
             for s in sorted(train_corpus)])
        datasets = [(pooled_frames, pooled_labels)]

    shared_init = init_model(arch, substream(seed, "init"))
    clients = [
        ClientDevice(frames=frames, labels=labels,
                     model=shared_init, opt_state=AdamState.for_model(shared_init))
        for frames, labels in datasets
    ]
    return FederatedNetworkState(clients=clients, round=0, history=[],
                                 eval_frames=eval_frames, eval_labels=eval_labels)


def run_experiment(state: FederatedNetworkState, cfg: FederatedConfig, seed: int) -> FederatedNetworkState:
    for _ in range(cfg.rounds):
        state = run_round(state, cfg, seed)
    return state


def write_history_csv(path, history: list[RoundRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "mode", "group_size", "accuracy", "loss", "lr"])
        for r in history:
            writer.writerow([r.round, r.mode, r.group_size,
                             f"{r.accuracy:.6f}", f"{r.loss:.6f}", f"{r.lr:.10g}"])
