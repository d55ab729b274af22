import copy
import json
import re
import warnings

import numpy as np
import pytest

from feddiar.clustering import Segment, cluster_segments
from feddiar.errors import InvalidConfig, InvalidInput, InvalidSpec
from feddiar.identifier import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    Embedding,
    EmbeddingBank,
    ModelArch,
    ModelWeights,
    _forward_batch,
    cosine_similarity,
    embed_segment,
    evaluate,
    gradients,
    init_model,
    load_checkpoint,
    online_update,
    predict_cluster,
    save_checkpoint,
    softmax,
    train_local,
)


def zero_model(arch):
    weights = tuple(np.zeros((a, b)) for a, b in zip(arch.layer_sizes, arch.layer_sizes[1:]))
    biases = tuple(np.zeros(b) for b in arch.layer_sizes[1:])
    return ModelWeights(arch, weights, biases)


def two_blob_data(n_per=60, d=12, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_per, d)) - 2.0
    b = rng.standard_normal((n_per, d)) + 2.0
    frames = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per)
    return frames, labels


def test_arch_validation() -> None:
    with pytest.raises(InvalidConfig, match="layer sizes must be positive"):
        ModelArch(input_dim=0, hidden_sizes=(4,), num_classes=2)
    with pytest.raises(InvalidConfig, match="layer sizes must be positive"):
        ModelArch(input_dim=12, hidden_sizes=(0,), num_classes=2)
    with pytest.raises(InvalidConfig, match="need at least two classes"):
        ModelArch(input_dim=12, hidden_sizes=(4,), num_classes=0)


def test_init_seeded_and_bounded() -> None:
    arch = ModelArch(12, (8,), 3)
    a = init_model(arch, seed=5)
    b = init_model(arch, seed=5)
    c = init_model(arch, seed=6)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))
    # layer bound is 1/sqrt(fan_in)
    assert np.max(np.abs(a.weights[0])) <= 1 / np.sqrt(12)
    assert np.max(np.abs(a.weights[1])) <= 1 / np.sqrt(8)
    assert a.version == 0


def test_softmax_shift_invariant_simplex() -> None:
    z = np.array([0.5, -1.0, 3.0])
    p = softmax(z)
    assert p.sum() == pytest.approx(1.0)
    assert np.all(p > 0)
    assert np.allclose(softmax(z + 100.0), p)
    assert np.allclose(softmax(np.array([1000.0, 0.0])), [1.0, 0.0])


def test_cross_entropy_hand_value() -> None:
    # all-zero weights give uniform class probabilities, so the loss is
    # exactly ln(num_classes) regardless of the input
    zeroed = zero_model(ModelArch(4, (5,), 3))
    frames = np.random.default_rng(0).standard_normal((6, 4))
    labels = np.array([0, 1, 2, 0, 1, 2])
    assert evaluate(zeroed, frames, labels)[0] == pytest.approx(np.log(3.0))


def test_gradients_match_finite_differences() -> None:
    arch = ModelArch(12, (4,), 3)
    model = init_model(arch, seed=0)
    rng = np.random.default_rng(1)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal((1, 12))
        y = np.array([int(rng.integers(0, 3))])
        grad_w, grad_b = gradients(model, x, y)
        fd_max = 0.0
        diff_max = 0.0
        for li in range(len(model.weights)):
            for arr, grad in ((model.weights[li], grad_w[li]),
                              (model.biases[li], grad_b[li])):
                it = np.nditer(arr, flags=["multi_index"])
                for _v in it:
                    ix = it.multi_index
                    orig = arr[ix]
                    arr[ix] = orig + h
                    lp = evaluate(model, x, y)[0]
                    arr[ix] = orig - h
                    lm = evaluate(model, x, y)[0]
                    arr[ix] = orig
                    fd = (lp - lm) / (2 * h)
                    fd_max = max(fd_max, abs(fd))
                    diff_max = max(diff_max, abs(fd - grad[ix]))
        worst = max(worst, diff_max / max(fd_max, 1e-12))
    assert worst < 1e-4


def test_train_lr_zero_is_identity() -> None:
    frames, labels = two_blob_data()
    model = init_model(ModelArch(12, (8,), 2), seed=2)
    trained, _ = train_local(model, frames, labels, lr=0.0, epochs=3)
    for w0, w1 in zip(model.weights, trained.weights):
        assert np.array_equal(w0, w1)
    for b0, b1 in zip(model.biases, trained.biases):
        assert np.array_equal(b0, b1)
    assert trained.version == model.version + 1


def test_train_separates_two_blobs() -> None:
    frames, labels = two_blob_data(seed=3)
    model = init_model(ModelArch(12, (8,), 2), seed=3)
    trained, _ = train_local(model, frames, labels, lr=0.01, epochs=200)
    _, acc = evaluate(trained, frames, labels)
    assert acc >= 0.99


def test_train_deterministic_without_rng() -> None:
    frames, labels = two_blob_data(seed=4)
    model = init_model(ModelArch(12, (8,), 2), seed=4)
    a, _ = train_local(model, frames, labels, lr=0.01, epochs=5)
    b, _ = train_local(model, frames, labels, lr=0.01, epochs=5)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


# float labels used to be truncated (0.5, 1.9, 2.99 scored as 0, 1, 2), a NaN
# one ended in numpy's IndexError after a cast warning, strings in a
# UFuncTypeError
@pytest.mark.parametrize("func", [train_local, evaluate, gradients])
def test_non_integer_labels_refused(func) -> None:
    model = init_model(ModelArch(12, (8,), 3), seed=8)
    frames = np.random.default_rng(8).standard_normal((4, 12))
    for labels in [np.array([0.5, 1.9, 2.99, 0.0]), np.array([0.0, 1.0, np.nan, 2.0]),
                   np.array(["0", "1", "2", "0"]), np.array([True, False, True, False])]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match=f"dtype {labels.dtype}"):
                func(model, frames, labels)


def test_embed_single_frame_is_logits() -> None:
    model = init_model(ModelArch(12, (8,), 4), seed=5)
    frame = np.full(12, 0.3)
    logits = _forward_batch(model, frame[None, :])[0]
    emb = embed_segment(model, frame.reshape(1, -1))
    assert np.allclose(emb.values, logits)
    with pytest.raises(InvalidInput, match="cannot embed an empty segment"):
        embed_segment(model, np.zeros((0, 12)))


def test_cosine_hand_cases() -> None:
    v = Embedding(np.array([1.0, 2.0, 3.0]))
    assert cosine_similarity([v], [v]) == pytest.approx(1.0)
    e1 = Embedding(np.array([1.0, 0.0]))
    e2 = Embedding(np.array([0.0, 1.0]))
    assert cosine_similarity([e1], [e2]) == pytest.approx(0.0)
    both = Embedding(np.array([1.0, 1.0]))
    got = cosine_similarity([e1, e2], [both])
    assert got == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)


def test_cosine_error_paths() -> None:
    z = Embedding(np.array([0.0, 0.0]))
    ok = Embedding(np.array([1.0, 0.0]))
    with pytest.raises(InvalidInput, match="zero-norm embedding"):
        cosine_similarity([z], [ok])
    with pytest.raises(InvalidInput, match="non-empty embedding set"):
        cosine_similarity([], [ok])
    with pytest.raises(InvalidInput, match="embedding dimensions differ"):
        cosine_similarity([ok], [Embedding(np.array([1.0, 0.0, 0.0]))])


def test_predict_cluster_tie_picks_lowest() -> None:
    model = zero_model(ModelArch(12, (8,), 5))
    rows = np.random.default_rng(6).standard_normal((10, 12))
    speaker, confidence = predict_cluster(model, rows)
    assert speaker == 0
    assert confidence == pytest.approx(0.2)
    with pytest.raises(InvalidInput, match="cannot predict an empty cluster"):
        predict_cluster(model, np.zeros((0, 12)))


def test_bank_fifo_eviction() -> None:
    bank = EmbeddingBank(bank_cap=3)
    for i in range(4):
        bank.add(0, Embedding(np.array([float(i), 1.0])))
    kept = [e.values[0] for e in bank.get(0)]
    assert kept == [1.0, 2.0, 3.0]
    assert bank.get(1) == []


def segments_and_clusters(seed=7):
    rng = np.random.default_rng(seed)
    segs = [Segment(0, 40, rng.standard_normal((40, 12)) - 2.0),
            Segment(50, 90, rng.standard_normal((40, 12)) + 2.0)]
    clusters = cluster_segments(segs)
    return segs, clusters


def test_online_update_gate_closed_is_identity() -> None:
    segs, clusters = segments_and_clusters()
    model = init_model(ModelArch(12, (8,), 2), seed=8)
    bank = EmbeddingBank()
    for spk in (0, 1):
        bank.add(spk, Embedding(np.ones(2)))
    updated, decisions = online_update(model, segs, clusters, bank, tau=1.5)
    for w0, w1 in zip(model.weights, updated.weights):
        assert np.array_equal(w0, w1)
    assert all(not d.updated for d in decisions)
    assert updated.version == model.version


def test_online_update_gate_open_trains_each_cluster_once() -> None:
    segs, clusters = segments_and_clusters()
    model = init_model(ModelArch(12, (8,), 2), seed=9)
    bank = EmbeddingBank()
    for spk in (0, 1):
        bank.add(spk, Embedding(np.ones(2)))
    before = len(bank.get(0)) + len(bank.get(1))
    updated, decisions = online_update(model, segs, clusters, bank, tau=-1.0)
    assert len(decisions) == len(clusters)
    assert all(d.updated for d in decisions)
    assert updated.version == model.version + len(clusters)
    assert len(bank.get(0)) + len(bank.get(1)) == before + len(segs)


def test_online_update_empty_bank_never_opens() -> None:
    segs, clusters = segments_and_clusters()
    model = init_model(ModelArch(12, (8,), 2), seed=10)
    updated, decisions = online_update(model, segs, clusters, EmbeddingBank(), tau=-1.0)
    assert all(not d.updated for d in decisions)
    assert all(np.isnan(d.similarity) for d in decisions)
    assert updated.version == model.version


def test_checkpoint_round_trip(tmp_path) -> None:
    model = init_model(ModelArch(12, (16, 8), 4), seed=11)
    trained, _ = train_local(model, *two_blob_data(n_per=20, seed=11), epochs=2)
    path = tmp_path / "m.npz"
    save_checkpoint(path, trained)
    back = load_checkpoint(path)
    assert back.arch == trained.arch
    assert back.version == trained.version
    for w0, w1 in zip(trained.weights, back.weights):
        assert np.array_equal(w0, w1)
    for b0, b1 in zip(trained.biases, back.biases):
        assert np.array_equal(b0, b1)


def test_checkpoint_rejects_unknown_activation(tmp_path) -> None:
    path = tmp_path / "m.npz"
    save_checkpoint(path, init_model(ModelArch(12, (4,), 2), seed=0))
    with np.load(path) as data:
        payload = dict(data)
    arch = json.loads(bytes(payload["arch"]).decode())
    assert arch["activation"] == "relu"
    payload["arch"] = np.frombuffer(
        json.dumps(dict(arch, activation="tanh")).encode(), dtype=np.uint8)
    np.savez(path, **payload)
    with pytest.raises(InvalidSpec, match=f"^{re.escape(str(path))} is not a model "
                                          "checkpoint: unsupported activation 'tanh'$"):
        load_checkpoint(path)


def test_adam_state_shapes() -> None:
    arch = ModelArch(12, (8,), 2)
    model = init_model(arch, seed=12)
    opt = AdamState.for_model(model)
    assert opt.step == 0
    shapes = [p.shape for p in model.weights + model.biases]
    assert [m.shape for m in opt.m] == shapes
    assert [v.shape for v in opt.v] == shapes


# -- allocation-stable training against the allocating oracle ---------------

def reference_forward_batch(model: ModelWeights, x: np.ndarray):
    acts, pres, a = [x], [], x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ w + b
        pres.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    return acts, pres, a @ model.weights[-1] + model.biases[-1]


def reference_gradients(model: ModelWeights, frames: np.ndarray, labels: np.ndarray):
    """Backprop with fresh arrays for every intermediate."""
    n = frames.shape[0]
    acts, pres, logits = reference_forward_batch(model, frames)
    delta = softmax(logits)
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grad_w = [np.empty(0)] * len(model.weights)
    grad_b = [np.empty(0)] * len(model.biases)
    for layer in range(len(model.weights) - 1, -1, -1):
        grad_w[layer] = acts[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (pres[layer - 1] > 0.0)
    return grad_w, grad_b


def reference_adam_step(value, grad, m, v, step, lr):
    m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
    v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1 ** step)
    v_hat = v / (1.0 - ADAM_BETA2 ** step)
    return value - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def reference_train_local(model, frames, labels, opt, lr, epochs):
    """Full-batch Adam training that builds new parameter arrays at every step."""
    new_w, new_b = list(model.weights), list(model.biases)
    for _ in range(epochs):
        work = ModelWeights(model.arch, tuple(new_w), tuple(new_b))
        grad_w, grad_b = reference_gradients(work, frames, labels)
        opt.step += 1
        layers = len(new_w)
        for i in range(layers):
            new_w[i] = reference_adam_step(new_w[i], grad_w[i], opt.m[i], opt.v[i],
                                           opt.step, lr)
            # the moments of the biases follow those of the weights
            j = layers + i
            new_b[i] = reference_adam_step(new_b[i], grad_b[i], opt.m[j], opt.v[j],
                                           opt.step, lr)
    return model.bumped(new_w, new_b), opt


def assert_arrays_bit_equal(got, want) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def multi_class_data(n, arch, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, arch.num_classes, size=n)
    frames = rng.standard_normal((n, arch.input_dim)) + labels[:, None]
    return frames, labels


@pytest.mark.parametrize("hidden", [(8,), (64, 64), (16, 12, 8)])
def test_gradients_bit_equal_to_reference(hidden) -> None:
    arch = ModelArch(12, hidden, 4)
    model = init_model(arch, seed=21)
    frames, labels = multi_class_data(37, arch, seed=22)
    assert_arrays_bit_equal(sum(gradients(model, frames, labels), []),
                            sum(reference_gradients(model, frames, labels), []))


# The ids keep the names these cases had when train_local also took a batch
# size and a shuffling rng.
@pytest.mark.parametrize("n", [90, 1], ids=["90-None-False", "1-None-False"])
@pytest.mark.parametrize("hidden", [(8,), (64, 64)])
def test_train_local_bit_equal_to_reference(n, hidden) -> None:
    arch = ModelArch(12, hidden, 3)
    model = init_model(arch, seed=23)
    frames, labels = multi_class_data(n, arch, seed=24)
    # start from a non-fresh optimizer state, as in federated rounds
    warm_model, warm_opt = train_local(model, frames, labels, lr=0.05, epochs=1)
    ref_opt = copy.deepcopy(warm_opt)

    got, opt = train_local(warm_model, frames, labels, opt=warm_opt, lr=0.05, epochs=3)
    want, want_opt = reference_train_local(warm_model, frames, labels, ref_opt, lr=0.05,
                                           epochs=3)
    assert_arrays_bit_equal(got.weights + got.biases, want.weights + want.biases)
    assert opt.step == want_opt.step
    for name in ("m", "v"):
        assert_arrays_bit_equal(getattr(opt, name), getattr(want_opt, name))
    assert got.version == want.version


@pytest.mark.parametrize("epochs", [2, 0])
def test_train_local_leaves_input_model_untouched(epochs) -> None:
    arch = ModelArch(12, (8,), 2)
    model = init_model(arch, seed=26)
    before = [p.copy() for p in model.weights + model.biases]
    frames, labels = two_blob_data(n_per=10, seed=26)
    trained, _ = train_local(model, frames, labels, lr=0.1, epochs=epochs)
    assert_arrays_bit_equal(model.weights + model.biases, before)
    for p in trained.weights + trained.biases:
        assert not any(np.shares_memory(p, q) for q in model.weights + model.biases)
