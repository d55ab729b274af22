import math
from dataclasses import replace

import numpy as np
import pytest

from feddiar import federated
from feddiar.errors import InvalidConfig, InvalidInput, TrainingDiverged
from feddiar.federated import (
    FederatedConfig,
    aggregate,
    build_network,
    form_groups,
    holdout_split,
    lr_schedule,
    partition_iid,
    partition_non_iid,
    run_experiment,
    run_round,
    write_history_csv,
)
from feddiar.identifier import ModelArch, ModelWeights, evaluate, init_model
from feddiar.synth import speaker_frame_corpus


def small_corpus(num_speakers=4, seed=0):
    return speaker_frame_corpus(num_speakers, seed, seconds_per_speaker=2.0)


def test_non_iid_one_speaker_per_client() -> None:
    corpus = small_corpus()
    datasets = partition_non_iid(corpus, 4)
    assert len(datasets) == 4
    for speaker, (frames, labels) in enumerate(datasets):
        assert np.all(labels == speaker)
        assert frames.shape[0] == labels.shape[0]


def test_non_iid_rejects_more_clients_than_speakers() -> None:
    corpus = {i: np.zeros((10, 12)) for i in range(12)}
    with pytest.raises(InvalidConfig, match="13 clients but only 12 speakers"):
        partition_non_iid(corpus, 13)


def test_iid_splits_every_class_across_clients() -> None:
    rng = np.random.default_rng(0)
    corpus = {0: rng.standard_normal((100, 12)), 1: rng.standard_normal((100, 12))}
    datasets = partition_iid(corpus, 2, seed=1)
    for frames, labels in datasets:
        assert frames.shape[0] == 100
        assert int((labels == 0).sum()) == 50
        assert int((labels == 1).sum()) == 50


def test_iid_rejects_too_few_frames() -> None:
    corpus = {0: np.zeros((3, 12))}
    with pytest.raises(InvalidInput, match="speaker 0 has 3 frames for 4 clients"):
        partition_iid(corpus, 4, seed=0)


def test_groups_of_two_from_seven_clients() -> None:
    ga = form_groups(range(7), 2, round=0, seed=0)
    sizes = sorted(len(g) for g in ga.groups)
    assert sizes == [2, 2, 3]
    members = sorted(i for g in ga.groups for i in g)
    assert members == list(range(7))
    for group, arb in zip(ga.groups, ga.arbitrators):
        assert arb in group


def test_group_size_equal_to_clients_is_one_group() -> None:
    ga = form_groups(range(6), 6, round=2, seed=0)
    assert len(ga.groups) == 1
    assert sorted(ga.groups[0]) == list(range(6))


def test_groups_deterministic_per_round() -> None:
    a = form_groups(range(8), 2, round=3, seed=9)
    b = form_groups(range(8), 2, round=3, seed=9)
    c = form_groups(range(8), 2, round=4, seed=9)
    assert a.groups == b.groups
    assert a.arbitrators == b.arbitrators
    assert a.groups != c.groups or a.arbitrators != c.arbitrators


def test_bad_group_sizes_rejected() -> None:
    with pytest.raises(InvalidConfig, match="group_size 0 for 4 clients"):
        form_groups(range(4), 0, round=0, seed=0)
    with pytest.raises(InvalidConfig, match="group_size 5 for 4 clients"):
        form_groups(range(4), 5, round=0, seed=0)


def test_aggregate_single_model_unchanged() -> None:
    model = init_model(ModelArch(12, (4,), 2), seed=0)
    agg = aggregate([model], [17])
    for w0, w1 in zip(model.weights, agg.weights):
        assert np.array_equal(w0, w1)


def test_aggregate_weighted_mean() -> None:
    arch = ModelArch(12, (4,), 2)
    a = init_model(arch, seed=1)
    b = init_model(arch, seed=2)
    agg = aggregate([a, b], [1, 3])
    for wa, wb, wg in zip(a.weights, b.weights, agg.weights):
        assert np.max(np.abs(wg - (0.25 * wa + 0.75 * wb))) < 1e-12
    even = aggregate([a, b], [5, 5])
    for wa, wb, wg in zip(a.weights, b.weights, even.weights):
        assert np.allclose(wg, 0.5 * (wa + wb))


def test_aggregate_validation() -> None:
    arch = ModelArch(12, (4,), 2)
    a = init_model(arch, seed=3)
    with pytest.raises(InvalidInput, match="nothing to aggregate"):
        aggregate([], [])
    with pytest.raises(InvalidInput, match="one count per model required"):
        aggregate([a], [1, 2])
    with pytest.raises(InvalidInput, match="counts must be positive"):
        aggregate([a], [0])
    other = init_model(ModelArch(12, (5,), 2), seed=3)
    with pytest.raises(InvalidInput, match="cannot aggregate differing architectures"):
        aggregate([a, other], [1, 1])


def test_lr_schedule_geometric() -> None:
    cfg = FederatedConfig(num_clients=2, group_size=2, rounds=5,
                          lr0=0.5, lr_decay=0.9)
    assert lr_schedule(0, cfg) == 0.5
    assert lr_schedule(3, cfg) == pytest.approx(0.5 * 0.9 ** 3)
    flat = FederatedConfig(num_clients=2, group_size=2, rounds=5,
                           lr0=0.5, lr_decay=1.0)
    vals = [lr_schedule(r, flat) for r in range(5)]
    assert vals == [0.5] * 5
    decayed = [lr_schedule(r, cfg) for r in range(5)]
    assert all(x >= y for x, y in zip(decayed, decayed[1:]))


def fed_setup(num_speakers=4, group_size=4, rounds=1, local_epochs=1, seed=0):
    cfg = FederatedConfig(num_clients=num_speakers, group_size=group_size,
                          rounds=rounds, local_epochs=local_epochs,
                          lr0=0.05, lr_decay=0.9)
    corpus = small_corpus(num_speakers, seed)
    arch = ModelArch(12, (16,), num_speakers)
    return cfg, build_network(corpus, cfg, arch, seed)


def test_negative_local_epochs_refused() -> None:
    with pytest.raises(InvalidConfig):
        FederatedConfig(num_clients=2, group_size=2, rounds=1, local_epochs=-3)


def test_diverging_round_raises_instead_of_recording_nan() -> None:
    cfg, state = fed_setup()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="weights"):
            run_round(state, replace(cfg, lr0=1e308), seed=0)


def test_non_finite_held_out_loss_raises(monkeypatch) -> None:
    # finite weights whose logits overflow give a NaN loss (fedsim --lr0 1e308
    # with two speakers)
    cfg, state = fed_setup()
    monkeypatch.setattr(federated, "evaluate", lambda model, frames, labels: (math.nan, 0.5))
    with pytest.raises(TrainingDiverged, match="loss"):
        run_round(state, cfg, seed=0)


def test_build_network_shared_init_and_eval_set() -> None:
    cfg, state = fed_setup()
    first = state.clients[0].model
    for client in state.clients[1:]:
        for w0, w1 in zip(first.weights, client.model.weights):
            assert np.array_equal(w0, w1)
    assert state.eval_frames.shape[0] == state.eval_labels.shape[0]
    assert set(np.unique(state.eval_labels)) == {0, 1, 2, 3}


def test_holdout_split_stratified_disjoint() -> None:
    corpus = small_corpus()
    train, eval_frames, eval_labels = holdout_split(corpus, seed=5)
    for speaker, frames in corpus.items():
        n_eval = int((eval_labels == speaker).sum())
        assert n_eval >= 1
        assert train[speaker].shape[0] + n_eval == frames.shape[0]
    assert eval_frames.shape[0] == eval_labels.shape[0]


def test_centralized_pools_everything() -> None:
    corpus = small_corpus()
    total = sum(v.shape[0] for v in corpus.values())
    cfg = FederatedConfig(num_clients=1, group_size=1, rounds=1, mode="centralized")
    state = build_network(corpus, cfg, ModelArch(12, (8,), 4), seed=0)
    assert len(state.clients) == 1
    held_out = state.eval_frames.shape[0]
    assert state.clients[0].n_i == total - held_out


def test_centralized_config_is_one_client_in_a_group_of_one() -> None:
    # a library caller's group_size used to reach form_groups, which refused it
    corpus = small_corpus()
    histories = []
    for num_clients, group_size in [(3, 2), (1, 1)]:
        cfg = FederatedConfig(num_clients=num_clients, group_size=group_size,
                              rounds=2, mode="centralized")
        state = build_network(corpus, cfg, ModelArch(12, (8,), 4), seed=0)
        histories.append(run_experiment(state, cfg, seed=0).history)
        assert (cfg.num_clients, cfg.group_size) == (1, 1)
    assert len(histories[0]) == 2
    assert histories[0] == histories[1]


def test_round_with_zero_epochs_aggregates_unchanged_weights() -> None:
    cfg, state = fed_setup(local_epochs=0)
    arch = state.clients[0].model.arch
    for i, client in enumerate(state.clients):
        client.model = init_model(arch, seed=100 + i)
    expected = aggregate([c.model for c in state.clients],
                         [c.n_i for c in state.clients])
    out = run_round(state, cfg, seed=0)
    for client in out.clients:
        for w0, w1 in zip(expected.weights, client.model.weights):
            assert np.max(np.abs(w0 - w1)) < 1e-12


def test_single_group_round_synchronizes_clients() -> None:
    cfg, state = fed_setup(group_size=4, local_epochs=1)
    out = run_round(state, cfg, seed=0)
    first = out.clients[0].model
    for client in out.clients[1:]:
        for w0, w1 in zip(first.weights, client.model.weights):
            assert np.array_equal(w0, w1)
        for b0, b1 in zip(first.biases, client.model.biases):
            assert np.array_equal(b0, b1)


def test_history_records_round_and_lr() -> None:
    cfg, state = fed_setup(rounds=3)
    out = run_experiment(state, cfg, seed=0)
    assert [r.round for r in out.history] == [0, 1, 2]
    assert [r.lr for r in out.history] == pytest.approx([lr_schedule(i, cfg) for i in range(3)])
    assert all(0.0 <= r.accuracy <= 1.0 for r in out.history)
    assert all(r.mode == "non_iid" and r.group_size == 4 for r in out.history)


def test_training_beats_shared_init_on_holdout() -> None:
    cfg, state = fed_setup(group_size=4, rounds=8, local_epochs=4)
    base_loss, _ = evaluate(state.clients[0].model, state.eval_frames, state.eval_labels)
    out = run_experiment(state, cfg, seed=0)
    final_loss, final_acc = evaluate(out.clients[0].model, state.eval_frames,
                                     state.eval_labels)
    assert final_loss < base_loss
    assert final_acc > 0.5


def test_history_csv(tmp_path) -> None:
    cfg, state = fed_setup(rounds=2)
    out = run_experiment(state, cfg, seed=0)
    path = tmp_path / "h.csv"
    write_history_csv(path, out.history)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,mode,group_size,accuracy,loss,lr"
    assert len(lines) == 3
    assert lines[1].startswith("0,non_iid,4,")


def test_experiment_deterministic() -> None:
    cfg, s1 = fed_setup(group_size=2, rounds=3, local_epochs=2)
    _, s2 = fed_setup(group_size=2, rounds=3, local_epochs=2)
    o1 = run_experiment(s1, cfg, seed=0)
    o2 = run_experiment(s2, cfg, seed=0)
    for c1, c2 in zip(o1.clients, o2.clients):
        for w1, w2 in zip(c1.model.weights, c2.model.weights):
            assert np.array_equal(w1, w2)
    assert [r.accuracy for r in o1.history] == [r.accuracy for r in o2.history]


@pytest.mark.parametrize("mode, num_clients, group_size", [
    ("non_iid", 4, 2),
    ("iid", 3, 2),          # clients of uneven size, all in one group
    ("iid", 3, 1),
    ("centralized", 1, 1),
])
def test_history_equals_per_client_evaluation(monkeypatch, mode, num_clients, group_size) -> None:
    corpus = small_corpus()
    cfg = FederatedConfig(num_clients=num_clients, group_size=group_size, rounds=3,
                          local_epochs=2, lr0=0.1, mode=mode)
    state = build_network(corpus, cfg, ModelArch(12, (16,), 4), seed=2)
    if mode == "iid":
        assert len({c.n_i for c in state.clients}) > 1
    calls = []

    def counted_evaluate(model, frames, labels):
        calls.append(model)
        return evaluate(model, frames, labels)

    monkeypatch.setattr(federated, "evaluate", counted_evaluate)
    for _ in range(cfg.rounds):
        calls.clear()
        state = run_round(state, cfg, seed=2)
        per_client = [evaluate(c.model, state.eval_frames, state.eval_labels)
                      for c in state.clients]
        record = state.history[-1]
        assert record.loss == float(np.mean([loss for loss, _ in per_client]))
        assert record.accuracy == float(np.mean([acc for _, acc in per_client]))
        # one evaluation per group model
        assert len(calls) == len({id(c.model) for c in state.clients})
        assert len(calls) == num_clients // group_size
