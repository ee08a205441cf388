import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

import recipeforge
from recipeforge import corpus as cp
from recipeforge import mask_diffusion as md
from recipeforge import netcore
from recipeforge import quantity_diffusion as qd
from recipeforge.errors import NumericError
from helpers import gradcheck, random_models, use_layer_reference

DESK = Path(recipeforge.__file__).parent / "data" / "desk"


def test_init_deterministic():
    a = netcore.init_network([4, 8, 2], seed=7)
    b = netcore.init_network([4, 8, 2], seed=7)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    c = netcore.init_network([4, 8, 2], seed=8)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_rejects_bad_sizes():
    with pytest.raises(ValueError):
        netcore.init_network([4], seed=0)
    with pytest.raises(ValueError):
        netcore.init_network([4, 0, 2], seed=0)


def test_init_minimal_net():
    net = netcore.init_network([1, 1], seed=0)
    assert net.weights[0].shape == (1, 1)
    assert net.biases[0].shape == (1,)


def test_forward_zero_net_outputs_zero():
    net = netcore.init_network([3, 4, 2], seed=0)
    for w in net.weights:
        w[:] = 0.0
    assert np.all(netcore.forward(net, np.ones(3)) == 0.0)


def test_forward_identity_linear_passthrough():
    # no hidden layer: a single linear map with identity weights
    net = netcore.init_network([3, 3], seed=0)
    net.weights[0][:] = np.eye(3)
    net.biases[0][:] = 0.0
    x = np.array([0.3, -1.2, 4.0])
    np.testing.assert_allclose(netcore.forward(net, x), x)


def test_forward_hand_computed_221():
    # z1 = W0 x + b0 = (0.3, -0.3); a1 = tanh(z1); y = 0.7 a1_0 - 0.4 a1_1 + 0.05
    net = netcore.init_network([2, 2, 1], seed=0)
    net.weights[0][:] = [[0.5, -0.25], [0.1, 0.3]]
    net.biases[0][:] = [0.1, -0.2]
    net.weights[1][:] = [[0.7, -0.4]]
    net.biases[1][:] = [0.05]
    y = netcore.forward(net, np.array([0.2, -0.4]))
    expected = 1.1 * math.tanh(0.3) + 0.05
    np.testing.assert_allclose(y, [expected], rtol=1e-12)


def test_forward_dimension_mismatch():
    net = netcore.init_network([3, 2], seed=0)
    with pytest.raises(ValueError):
        netcore.forward(net, np.ones(4))


def test_forward_batched_matches_single():
    net = netcore.init_network([5, 7, 3], seed=1)
    xs = np.random.default_rng(2).standard_normal((6, 5))
    batched = netcore.forward(net, xs)
    for i in range(6):
        np.testing.assert_allclose(batched[i], netcore.forward(net, xs[i]))


def grad_of(net, x, cot):
    return netcore.gradient(net, netcore.activations(net, x), cot)


def test_gradient_zero_cotangent():
    net = netcore.init_network([3, 4, 2], seed=3)
    grad = grad_of(net, np.ones(3), np.zeros(2))
    assert grad.shape == net.theta.shape and np.all(grad == 0)


def test_gradient_linear_least_squares():
    # single linear layer with squared loss: dW = (pred - y) x
    net = netcore.init_network([3, 1], seed=4)
    x = np.array([0.5, -1.0, 2.0])
    y = 0.7
    pred = float(netcore.forward(net, x)[0])
    grad = grad_of(net, x, np.array([pred - y]))
    # theta layout: w0 (row-major), then b0
    np.testing.assert_allclose(grad[:3], (pred - y) * x, rtol=1e-12)
    np.testing.assert_allclose(grad[3:], [pred - y], rtol=1e-12)


def test_gradient_matches_finite_differences():
    net = netcore.init_network([4, 6, 3], seed=5)
    assert gradcheck(net, seed=0, h=1e-5) < 1e-5


def test_gradient_batched_sums_over_batch():
    net = netcore.init_network([3, 4, 2], seed=6)
    xs = np.random.default_rng(0).standard_normal((5, 3))
    cots = np.random.default_rng(1).standard_normal((5, 2))
    batched = grad_of(net, xs, cots)
    manual = sum(grad_of(net, xs[i], cots[i]) for i in range(5))
    np.testing.assert_allclose(batched, manual, rtol=1e-10)


def test_gradient_rejects_cotangent_of_wrong_shape():
    net = netcore.init_network([3, 4, 2], seed=6)
    with pytest.raises(ValueError):
        grad_of(net, np.ones((5, 3)), np.ones((5, 3)))


def test_weights_and_biases_are_views_of_theta():
    net = netcore.init_network([3, 4, 2], seed=6)
    assert net.theta.size == 4 * 3 + 4 + 2 * 4 + 2
    np.testing.assert_array_equal(
        net.theta, np.concatenate([net.weights[0].ravel(), net.biases[0],
                                   net.weights[1].ravel(), net.biases[1]]))
    net.theta[:] = 0.0
    assert not any(w.any() for w in net.weights + net.biases)
    net.biases[1][:] = 1.0
    np.testing.assert_array_equal(net.theta[-2:], [1.0, 1.0])
    with pytest.raises(AttributeError):
        net.theta = np.zeros_like(net.theta)  # a rebind would orphan the views
    with pytest.raises(ValueError):
        netcore.Network([3, 4, 2], np.zeros(5))


def test_optimizer_zero_gradient_keeps_parameters():
    net = netcore.init_network([2, 3, 1], seed=7)
    before = [w.copy() for w in net.weights]
    state = netcore.init_optimizer(net)
    netcore.optimizer_step(net, np.zeros_like(net.theta), state)
    assert state.step == 1
    for w, b in zip(net.weights, before):
        np.testing.assert_array_equal(w, b)


def test_optimizer_descends_against_constant_gradient():
    net = netcore.init_network([1, 1], seed=8)
    net.weights[0][:] = 0.0
    state = netcore.init_optimizer(net, learning_rate=1e-2)
    grad = np.array([2.0, 0.0])  # dw, db
    for _ in range(200):
        netcore.optimizer_step(net, grad, state)
    assert net.weights[0][0, 0] < -1e-3  # moves opposite the gradient sign


def test_optimizer_quadratic_bowl_loss_decreases():
    # f(w) = (w * 1 + b)^2 with x = 1: loss strictly decreases for 100 steps
    net = netcore.init_network([1, 1], seed=9)
    net.weights[0][0, 0] = 0.8
    net.biases[0][0] = 0.0
    state = netcore.init_optimizer(net, learning_rate=1e-3)
    x = np.array([1.0])
    losses = []
    for _ in range(100):
        out = float(netcore.forward(net, x)[0])
        losses.append(out * out)
        netcore.optimizer_step(net, grad_of(net, x, np.array([2 * out])), state)
    diffs = np.diff(losses)
    assert np.all(diffs < 0)


def test_optimizer_rejects_nonfinite_gradient():
    net = netcore.init_network([1, 1], seed=10)
    state = netcore.init_optimizer(net)
    with pytest.raises(NumericError):
        netcore.optimizer_step(net, np.array([np.nan, 0.0]), state)


def test_gradcheck_fresh_net_small_error():
    net = netcore.init_network([8, 16, 16, 8], seed=11)
    assert gradcheck(net, seed=1) < 1e-4


def test_gradcheck_detects_corrupted_gradients(monkeypatch):
    net = netcore.init_network([4, 8, 4], seed=12)
    true_gradient = netcore.gradient

    def corrupted(n, acts, cot):
        return 1.05 * true_gradient(n, acts, cot)

    monkeypatch.setattr(netcore, "gradient", corrupted)
    assert gradcheck(net, seed=2) > 1e-2


def test_gradcheck_zero_net_guarded():
    net = netcore.init_network([2, 2, 1], seed=13)
    for w in net.weights:
        w[:] = 0.0
    assert gradcheck(net, seed=3) < 1e-6


def test_sin_regression_reaches_low_mse():
    # 1 hidden layer, 50 points of y = sin(x), mse < 1e-2 within 5000 steps
    rng = np.random.default_rng(14)
    xs = np.linspace(-math.pi, math.pi, 50)[:, None]
    ys = np.sin(xs)
    net = netcore.init_network([1, 32, 1], seed=14)
    state = netcore.init_optimizer(net, learning_rate=1e-2)
    mse = None
    for step in range(5000):
        acts = netcore.activations(net, xs)
        resid = acts[-1] - ys
        mse = float((resid ** 2).mean())
        if mse < 1e-2:
            break
        netcore.optimizer_step(net, netcore.gradient(net, acts, 2 * resid / len(xs)), state)
    assert mse < 1e-2


def test_time_embedding_values():
    emb = netcore.time_embedding(0.0, 1.0)
    np.testing.assert_allclose(emb, [0.0, 0.0, 1.0], atol=1e-15)
    emb = netcore.time_embedding(np.array([25.0, 50.0]), 100.0)
    np.testing.assert_allclose(emb[0], [0.25, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(emb[1], [0.5, 0.0, -1.0], atol=1e-12)


def test_checkpoint_round_trip():
    net = netcore.init_network([3, 5, 2], seed=15)
    clone = netcore.net_from_dict(netcore.net_to_dict(net), "net.json", 3, 2)
    assert clone.sizes == net.sizes
    np.testing.assert_array_equal(clone.theta, net.theta)
    for a, b in zip(clone.weights + clone.biases, net.weights + net.biases):
        np.testing.assert_array_equal(a, b)


def train_both(tmp_path, tag, corpus=None, threads=1):
    """Train both models 200 steps at test scale, with learning-rate decay
    and a parameter average, on corpus (by default a 300-recipe synthetic
    one), at the given threads; returns the two models and their checkpoints."""
    if corpus is None:
        spec = dataclasses.replace(cp.load_synth_spec(DESK / "synth_spec.json"), count=300)
        corpus = cp.synthesize_corpus(spec, seed=3)
    cfg = netcore.TrainConfig(steps=200, batch_size=32, learning_rate=3e-3,
                              final_learning_rate=3e-4, ema_decay=0.95, hidden_width=16,
                              hidden_depth=2, val_interval=50, val_draws=64)
    mask = md.train_mask_model(corpus, md.linear_schedule(20), cfg, seed=4, threads=threads)
    qty = qd.train_quantity_model(corpus, qd.SDESpec(steps=20), cfg, seed=5, threads=threads)
    md.save_mask_model(tmp_path / f"mask-{tag}.json", mask)
    qd.save_quantity_model(tmp_path / f"qty-{tag}.json", qty)
    return (mask, qty), [(tmp_path / f"{m}-{tag}.json").read_bytes() for m in ("mask", "qty")]


def test_training_is_bit_identical_to_the_per_layer_reference(tmp_path):
    # the flat side prepares its steps in a forked producer (2 usable cores
    # patched in); the reference runs them in turn, in this process
    forks, fork = [], os.fork
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        mp.setattr(os, "fork", lambda: forks.append(1) or fork())
        models, ckpts = train_both(tmp_path, "flat", threads=2)
    assert len(forks) == 2
    with pytest.MonkeyPatch.context() as mp:
        use_layer_reference(mp)
        ref_models, ref_ckpts = train_both(tmp_path, "layer")
    for model, ref in zip(models, ref_models):
        assert np.array_equal(model.net.theta, ref.net.theta)
        assert len(model.history) == len(ref.history) == 6  # 0, 50, ..., 200, averaged
        for (step, loss), (ref_step, ref_loss) in zip(model.history, ref.history):
            assert step == ref_step and np.array_equal(loss, ref_loss)
    assert ckpts == ref_ckpts


def test_without_a_validation_split_training_validates_on_the_first_256_train_rows(tmp_path):
    spec = dataclasses.replace(cp.load_synth_spec(DESK / "synth_spec.json"), count=300)
    synth = cp.synthesize_corpus(spec, seed=3)
    train = synth.grams
    alone = cp.Corpus(synth.vocabulary, train, [cp.TRAIN] * len(train))
    tagged = cp.Corpus(synth.vocabulary, np.concatenate([train, train[:256]]),
                       [cp.TRAIN] * len(train) + [cp.VALIDATION] * 256)
    models, ckpts = train_both(tmp_path, "alone", alone)
    tagged_models, tagged_ckpts = train_both(tmp_path, "tagged", tagged)
    for model, tagged_model in zip(models, tagged_models):
        assert model.history == tagged_model.history
    assert ckpts == tagged_ckpts


def test_checkpoint_layout_is_header_model_fields_net_and_seed_lineage(tmp_path):
    mask, qty = random_models()
    md.save_mask_model(tmp_path / "mask.json", mask, [1, 2])
    qd.save_quantity_model(tmp_path / "qty.json", qty)
    header, tail = ["schema_version", "kind", "K", "vocab_fingerprint"], ["net", "seed_lineage"]
    assert list(json.loads((tmp_path / "mask.json").read_text())) == \
        header + ["schedule", "base_logits"] + tail
    assert list(json.loads((tmp_path / "qty.json").read_text())) == header + ["sde", "codec"] + tail
