import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from recipeforge import mask_diffusion as md
from recipeforge import netcore
from recipeforge.corpus import Corpus, IngredientVocabulary
from recipeforge.errors import DataError
from recipeforge.mask_diffusion import (MaskDiffusionModel, NoiseSchedule, _kl_bernoulli,
                                        _posterior_prob, linear_schedule)
from helpers import forward_step_kernel, marginal_kernel, reverse_prob


def make_model(schedule, K, seed=0, width=8):
    net = netcore.init_network([K + 3, width, K], seed=seed)
    return MaskDiffusionModel(schedule=schedule, net=net, K=K, base_logits=np.zeros(K))


# ---------------------------------------------------------------------------
# kernels

def test_forward_step_kernel_values():
    assert forward_step_kernel(1, 0.0) == 1.0       # no-noise identity
    assert forward_step_kernel(1, 1.0) == 0.5       # full randomization
    assert abs(forward_step_kernel(0, 0.2) - 0.1) < 1e-15
    with pytest.raises(ValueError):
        forward_step_kernel(1, 1.5)


def test_schedule_invariants():
    sched = linear_schedule(10, 0.02, 0.5)
    assert sched.T == 10
    assert sched.alpha_bar[0] == 1.0
    assert np.all(np.diff(sched.alpha_bar) < 0)
    with pytest.raises(ValueError):
        NoiseSchedule(betas=np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        NoiseSchedule(betas=np.array([1.0, 1.0]))  # alpha_bar stalls at 0


def test_marginal_kernel_t0_returns_x0():
    sched = linear_schedule(5)
    assert marginal_kernel(1, 0, sched) == 1.0
    assert marginal_kernel(0, 0, sched) == 0.0


def test_marginal_kernel_two_step_enumeration():
    # beta = (0.5, 0.5), x0 = 1: enumerate the chain over x1
    sched = NoiseSchedule(betas=np.array([0.5, 0.5]))
    p = 0.0
    for x1 in (0, 1):
        p_x1 = forward_step_kernel(1, 0.5) if x1 == 1 else 1 - forward_step_kernel(1, 0.5)
        p += p_x1 * forward_step_kernel(x1, 0.5)
    got = marginal_kernel(1, 2, sched)
    assert abs(got - p) < 1e-15
    assert abs(got - 0.625) < 1e-15


def test_marginal_kernel_stationary_limit():
    sched = NoiseSchedule(betas=np.full(200, 0.2))
    assert abs(marginal_kernel(1, 200, sched) - 0.5) < 1e-15
    assert abs(marginal_kernel(0, 200, sched) - 0.5) < 1e-15


def test_marginal_kernel_range_check():
    sched = linear_schedule(5)
    with pytest.raises(ValueError):
        marginal_kernel(1, 6, sched)


def test_kernel_consistency_identity():
    # marginal(x0, t) = sum_u step(u, beta_t) P(x_{t-1}=u | x0), exactly
    rng = np.random.default_rng(0)
    for _ in range(200):
        T = int(rng.integers(2, 12))
        sched = NoiseSchedule(betas=rng.uniform(0.01, 0.99, T))
        t = int(rng.integers(1, T + 1))
        x0 = int(rng.integers(0, 2))
        prev1 = marginal_kernel(x0, t - 1, sched)
        composed = prev1 * forward_step_kernel(1, sched.betas[t - 1]) \
            + (1 - prev1) * forward_step_kernel(0, sched.betas[t - 1])
        assert abs(composed - marginal_kernel(x0, t, sched)) < 1e-12


# ---------------------------------------------------------------------------
# posterior: the schedule's table post[t - 1, x_t, x0] and the formula it is built from

def brute_posterior(x_t, x0, t, sched):
    # normalize P(x_t | x_{t-1}) P(x_{t-1} | x0) over x_{t-1} in {0, 1}
    probs = {}
    for x_prev in (0, 1):
        like = forward_step_kernel(x_prev, sched.betas[t - 1])
        like = like if x_t == 1 else 1 - like
        prior = marginal_kernel(x0, t - 1, sched)
        prior = prior if x_prev == 1 else 1 - prior
        probs[x_prev] = like * prior
    z = probs[0] + probs[1]
    return probs[1] / z


def test_posterior_matches_brute_force_enumeration():
    sched = NoiseSchedule(betas=np.array([0.5, 0.5]))
    got = sched.post[1, 1, 1]
    assert abs(got - brute_posterior(1, 1, 2, sched)) < 1e-12
    assert abs(got - 0.9) < 1e-12
    rng = np.random.default_rng(1)
    for _ in range(100):
        T = int(rng.integers(2, 10))
        sched = NoiseSchedule(betas=rng.uniform(0.01, 0.99, T))
        t = int(rng.integers(2, T + 1))
        x_t, x0 = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        assert abs(sched.post[t - 1, x_t, x0] - brute_posterior(x_t, x0, t, sched)) < 1e-12


def test_posterior_normalization():
    rng = np.random.default_rng(2)
    for _ in range(100):
        T = int(rng.integers(2, 10))
        sched = NoiseSchedule(betas=rng.uniform(0.01, 0.99, T))
        t = int(rng.integers(2, T + 1))
        beta, ab = sched.betas[t - 1], sched.alpha_bar[t - 1]
        for x_t, x0 in itertools.product((0, 1), repeat=2):
            like1 = forward_step_kernel(1, beta)
            like0 = forward_step_kernel(0, beta)
            l1 = like1 if x_t == 1 else 1 - like1
            l0 = like0 if x_t == 1 else 1 - like0
            m = marginal_kernel(x0, t - 1, sched)
            p1 = l1 * m / (l1 * m + l0 * (1 - m))
            assert abs(p1 + (l0 * (1 - m)) / (l1 * m + l0 * (1 - m)) - 1.0) < 1e-12
            assert abs(sched.post[t - 1, x_t, x0] - p1) < 1e-12


def test_posterior_zero_beta_is_point_mass():
    # the deterministic-step limit of the posterior formula
    for x_t in (0, 1):
        for x0 in (0, 1):
            assert _posterior_prob(x_t, x0, 0.0, 0.7) == float(x_t)


def test_posterior_tiny_beta_continuity():
    sched = NoiseSchedule(betas=np.array([1e-9, 1e-9]))
    for b in (0, 1):
        assert abs(sched.post[1, b, b] - b) < 1e-6


def test_reverse_prob_reduces_to_p_hat_at_t1():
    # alpha_bar_prev = 1: reconstruction distribution is Bern(p_hat)
    for x_t in (0.0, 1.0):
        for p_hat in (0.1, 0.5, 0.93):
            assert abs(reverse_prob(x_t, p_hat, 0.02, 1.0) - p_hat) < 1e-12


@st.composite
def schedules(draw):
    """T in 1..200 and betas in (0, 1]. beta = 1 ends the chain (alpha_bar
    reaches 0), so only the last step may take it; a beta below about 1e-16
    leaves alpha_bar unchanged in float64."""
    T = draw(st.integers(1, 200))
    betas = draw(st.lists(st.floats(min_value=1e-15, max_value=1.0, exclude_max=True),
                          min_size=T - 1, max_size=T - 1))
    betas.append(draw(st.floats(min_value=1e-15, max_value=1.0)))
    try:
        return NoiseSchedule(betas=np.array(betas))
    except ValueError:
        assume(False)  # alpha_bar underflowed to 0 before the last step


@settings(max_examples=60, deadline=None)
@given(schedules())
def test_posterior_table_is_the_posterior_formula(sched):
    assert sched.post.shape == (sched.T, 2, 2)
    assert ((sched.post >= 0.0) & (sched.post <= 1.0)).all()
    for t in range(1, sched.T + 1):
        for x_t, x0 in itertools.product((0, 1), repeat=2):
            exact = _posterior_prob(float(x_t), float(x0), sched.betas[t - 1],
                                    sched.alpha_bar[t - 1])
            assert sched.post[t - 1, x_t, x0] == exact


@settings(max_examples=60, deadline=None)
@given(schedules(), st.data())
def test_sampler_reverse_kernel_is_the_formula(sched, data):
    t = data.draw(st.integers(1, sched.T))
    x_t = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=8)))
    p_hat = np.array(data.draw(st.lists(st.floats(md._PCLIP, 1.0 - md._PCLIP),
                                        min_size=len(x_t), max_size=len(x_t))))
    exact = reverse_prob(x_t, p_hat, sched.betas[t - 1], sched.alpha_bar[t - 1])
    assert md._reverse_pi(sched, t, x_t, p_hat).tobytes() == exact.tobytes()


def test_posterior_terms_read_the_table_per_cell():
    sched = linear_schedule(7)
    rng = np.random.default_rng(0)
    t = rng.integers(1, 8, size=5)
    x_t, x0 = (rng.random((2, 5, 4)) < 0.5).astype(float)
    pi0, pi1, q_true = md._posterior_terms(sched, t, x_t, x0)
    beta_t, ab_prev = sched.betas[t - 1][:, None], sched.alpha_bar[t - 1][:, None]
    assert np.array_equal(pi0, _posterior_prob(x_t, 0.0, beta_t, ab_prev))
    assert np.array_equal(pi1, _posterior_prob(x_t, 1.0, beta_t, ab_prev))
    assert np.array_equal(q_true, _posterior_prob(x_t, x0, beta_t, ab_prev))


# ---------------------------------------------------------------------------
# ELBO

def enumerate_negative_elbo(model, x0):
    """Exact negative ELBO by summation over all latent paths."""
    sched = model.schedule
    T = sched.T

    def p_hat(x_t, t):
        return float(md._predict_p_hat(model, np.array([[float(x_t)]]), np.array([t]))[0, 0])

    def q_step(x_t, x_prev, beta):
        p1 = forward_step_kernel(x_prev, beta)
        return p1 if x_t == 1 else 1 - p1

    def p_rev(x_prev, x_t, t):
        pi = reverse_prob(float(x_t), p_hat(x_t, t), sched.betas[t - 1], sched.alpha_bar[t - 1])
        return pi if x_prev == 1 else 1 - pi

    total = 0.0
    for path in itertools.product((0, 1), repeat=T):
        states = (x0,) + path
        q = 1.0
        for t in range(1, T + 1):
            q *= q_step(states[t], states[t - 1], sched.betas[t - 1])
        val = -np.log(0.5)
        for t in range(1, T + 1):
            val -= np.log(p_rev(states[t - 1], states[t], t))
            val += np.log(q_step(states[t], states[t - 1], sched.betas[t - 1]))
        total += q * val
    return total


def test_elbo_matches_path_enumeration_toy():
    sched = NoiseSchedule(betas=np.array([0.3, 0.6]))
    model = make_model(sched, K=1, seed=42)
    for x0 in (0, 1):
        exact = enumerate_negative_elbo(model, x0)
        draws = md._elbo_terms(model, np.full((30000, 1), x0), np.random.default_rng(1))
        se = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - exact) < 4 * se + 1e-9


def test_elbo_near_zero_for_saturated_delta_model():
    sched = linear_schedule(8, 0.02, 0.3)
    model = make_model(sched, K=4, seed=3)
    for w in model.net.weights:
        w[:] = 0.0
    model.net.biases[-1][:] = 30.0  # denoiser pinned at x0 = all-ones
    loss = md._validation_loss(model, np.ones((1, 4)), seed=0, draws=500)
    # only the constant terminal-prior KL remains; every per-step KL
    # term vanishes when the denoiser matches x0 exactly
    x0 = np.ones((1, 4))
    qT = sched.alpha_bar[-1] * x0 + (1 - sched.alpha_bar[-1]) / 2
    prior = float(_kl_bernoulli(qT, np.full_like(qT, 0.5)).sum())
    assert 0.0 <= loss - prior < 1e-5


def test_elbo_positive_for_random_model():
    sched = linear_schedule(10)
    model = make_model(sched, K=5, seed=9)
    assert md._validation_loss(model, np.array([[1, 0, 1, 1, 0]]), seed=2, draws=200) > 0


def test_elbo_rejects_wrong_length():
    model = make_model(linear_schedule(5), K=3)
    with pytest.raises(ValueError):
        md._validation_loss(model, np.ones((1, 4)), seed=0, draws=1)


def test_elbo_gradient_matches_finite_differences():
    sched = linear_schedule(10)
    K = 5
    net = netcore.init_network([K + 3, 8, K], seed=3)
    rng = np.random.default_rng(0)
    x0 = (rng.random((4, K)) < 0.5).astype(float)
    t = rng.integers(1, 11, size=4)
    ab_t = sched.alpha_bar[t][:, None]
    x_t = (rng.random(x0.shape) < ab_t * x0 + (1 - ab_t) / 2).astype(float)
    inputs = md._model_inputs(x_t, t, sched)
    beta_t = sched.betas[t - 1][:, None]
    ab_prev = sched.alpha_bar[t - 1][:, None]
    pi1 = _posterior_prob(x_t, 1.0, beta_t, ab_prev)
    pi0 = _posterior_prob(x_t, 0.0, beta_t, ab_prev)
    q_true = _posterior_prob(x_t, x0, beta_t, ab_prev)
    # the evidence term of the denoiser training runs (its base logits are 0 here)
    evidence = (2 * x_t - 1) * sched.evidence[t][:, None]

    def loss_of(net):
        s = np.clip(expit(netcore.forward(net, inputs) + evidence), md._PCLIP, 1 - md._PCLIP)
        pi = np.clip(s * pi1 + (1 - s) * pi0, md._PCLIP, 1 - md._PCLIP)
        return float(_kl_bernoulli(q_true, pi).sum() * sched.T / 4)

    s = np.clip(expit(netcore.forward(net, inputs) + evidence), md._PCLIP, 1 - md._PCLIP)
    pi = np.clip(s * pi1 + (1 - s) * pi0, md._PCLIP, 1 - md._PCLIP)
    dkl = -q_true / pi + (1 - q_true) / (1 - pi)
    cot = dkl * (pi1 - pi0) * s * (1 - s) * (sched.T / 4)
    flat = netcore.gradient(net, netcore.activations(net, inputs), cot)
    theta = net.theta
    h = 1e-6
    worst = 0.0
    for i in np.random.default_rng(1).choice(theta.size, 30, replace=False):
        orig = theta[i]
        theta[i] = orig + h
        fp = loss_of(net)
        theta[i] = orig - h
        fm = loss_of(net)
        theta[i] = orig
        num = (fp - fm) / (2 * h)
        worst = max(worst, abs(num - flat[i]) / (abs(num) + abs(flat[i]) + 1e-12))
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# training and sampling

def delta_corpus(mask_bits, n=240):
    K = len(mask_bits)
    vocab = IngredientVocabulary.from_ids([f"i{j:02d}" for j in range(K)])
    w = np.asarray(mask_bits, dtype=float) * 100.0
    return Corpus(vocabulary=vocab, grams=np.tile(w, (n, 1)), splits=["train"] * n)


def test_train_delta_recovery_and_determinism():
    corpus = delta_corpus([1, 0, 1, 1, 0, 0])
    sched = linear_schedule(40, 0.02, 0.3)
    cfg = netcore.TrainConfig(steps=4000, batch_size=32, learning_rate=3e-3,
                              hidden_width=16, hidden_depth=2, val_interval=4000)
    model = md.train_mask_model(corpus, sched, cfg, seed=5)
    assert model.history[-1][1] < model.history[0][1]  # val -ELBO decreased
    target = np.array([1, 0, 1, 1, 0, 0], dtype=np.uint8)
    samples = md.sample_masks(model, 2000, seed=8)
    hit = (samples == target).all(axis=1).mean()
    assert hit >= 0.99
    # determinism of training and sampling
    model2 = md.train_mask_model(corpus, sched, cfg, seed=5)
    for a, b in zip(model.net.weights, model2.net.weights):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(md.sample_masks(model, 1, 123), md.sample_masks(model, 1, 123))


def test_sampling_varies_with_seed_for_diffuse_model():
    model = make_model(linear_schedule(10), K=8, seed=21)
    assert not np.array_equal(md.sample_masks(model, 50, seed=1),
                              md.sample_masks(model, 50, seed=2))


def test_train_two_equiprobable_masks():
    K = 6
    vocab = IngredientVocabulary.from_ids([f"i{j}" for j in range(K)])
    a = np.array([1, 1, 1, 0, 0, 0], dtype=float) * 80
    b = np.array([0, 0, 0, 1, 1, 1], dtype=float) * 80
    corpus = Corpus(vocabulary=vocab, grams=np.tile([a, b], (200, 1)), splits=["train"] * 400)
    sched = linear_schedule(40, 0.02, 0.3)
    cfg = netcore.TrainConfig(steps=20000, batch_size=32, learning_rate=2e-3,
                              final_learning_rate=5e-5, ema_decay=0.999,
                              hidden_width=32, hidden_depth=2, val_interval=20000)
    model = md.train_mask_model(corpus, sched, cfg, seed=6)
    samples = md.sample_masks(model, 5000, seed=11)
    fa = (samples == (a > 0).astype(np.uint8)).all(axis=1).mean()
    fb = (samples == (b > 0).astype(np.uint8)).all(axis=1).mean()
    assert abs(fa - 0.5) < 0.03
    assert abs(fb - 0.5) < 0.03


def test_train_rejects_empty_corpus():
    vocab = IngredientVocabulary.from_ids(["a", "b"])
    corpus = Corpus(vocabulary=vocab, grams=np.zeros((0, 2)), splits=[])
    with pytest.raises(DataError):
        md.train_mask_model(corpus, linear_schedule(10), netcore.TrainConfig(steps=10), seed=0)


def test_sample_t0_returns_prior_draw():
    # with T = 0 each chain is its uniform start; only all-zero starts are redrawn
    sched = linear_schedule(0)
    model = make_model(sched, K=8, seed=1)
    samples = md.sample_masks(model, 4000, seed=3)
    rngs = netcore.block_rngs(3, netcore.MASKS, range(63))  # the last block is cut to 32 rows
    prior = np.concatenate([rng.random((netcore.BLOCK, 8)) for rng in rngs])[:4000] < 0.5
    drawn = prior.any(axis=1)
    assert 0 < (~drawn).sum() < 40
    np.testing.assert_array_equal(samples[drawn], prior[drawn])
    assert samples.any(axis=1).all() and abs(samples.mean() - 0.5) < 0.02
    np.testing.assert_array_equal(samples, md.sample_masks(model, 4000, seed=3))


def test_sample_threads_do_not_change_output():
    sched = linear_schedule(10)
    model = make_model(sched, K=5, seed=2)
    a = md.sample_masks(model, 600, seed=4, chunk_size=128, threads=1)
    b = md.sample_masks(model, 600, seed=4, chunk_size=128, threads=4)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("blocks, m", [(4, 64), (3, 5)])
def test_sample_chunk_blocks_are_their_single_generator_chunks(blocks, m):
    # K = 3 from an untrained net: about one chain in eight ends all-zero and
    # is resampled from its own block's generator
    model = make_model(linear_schedule(10), K=3, seed=7)
    together, discarded = md._sample_chunk(
        model, blocks * m, netcore.block_rngs(9, netcore.MASKS, range(blocks)))
    alone = [md._sample_chunk(model, m, netcore.block_rngs(9, netcore.MASKS, range(c, c + 1)))
             for c in range(blocks)]
    np.testing.assert_array_equal(together, np.concatenate([x for x, _ in alone]))
    assert discarded == sum(d for _, d in alone) > 0


def test_sample_discards_empty_masks():
    sched = linear_schedule(0)
    model = make_model(sched, K=2, seed=3)
    samples = md.sample_masks(model, 3000, seed=5)  # prior would emit 25% empties
    assert samples.any(axis=1).all()


def test_checkpoint_round_trip(tmp_path):
    corpus = delta_corpus([1, 0, 1])
    sched = linear_schedule(6, 0.05, 0.4)
    cfg = netcore.TrainConfig(steps=50, batch_size=16, hidden_width=8, hidden_depth=2,
                              val_interval=50)
    model = md.train_mask_model(corpus, sched, cfg, seed=7)
    path = tmp_path / "mask.json"
    md.save_mask_model(path, model)
    clone = md.load_mask_model(path)
    assert clone.K == model.K
    assert clone.vocab_fingerprint == model.vocab_fingerprint
    np.testing.assert_allclose(clone.schedule.betas, model.schedule.betas)
    np.testing.assert_array_equal(md.sample_masks(clone, 40, seed=9),
                                  md.sample_masks(model, 40, seed=9))


@pytest.fixture(scope="module")
def saved_mask_model(tmp_path_factory):
    corpus = delta_corpus([1, 0, 1])
    cfg = netcore.TrainConfig(steps=10, batch_size=8, hidden_width=4, hidden_depth=1,
                              val_interval=10)
    path = tmp_path_factory.mktemp("ckpt") / "mask.json"
    md.save_mask_model(path, md.train_mask_model(corpus, linear_schedule(4), cfg, seed=1))
    return path


@pytest.mark.parametrize("field, edit", [
    ("schema_version", lambda d: d.update(schema_version=2)),
    ("net.sizes", lambda d: d["net"]["sizes"].__setitem__(0, 5)),
    ("net.sizes", lambda d: d["net"]["sizes"].__setitem__(-1, 4)),
    ("base_logits", lambda d: d["base_logits"].pop()),
    ("net.weights[1]", lambda d: d["net"]["weights"][1].__setitem__(0, float("nan"))),
    ("net.biases[0]", lambda d: d["net"]["biases"][0].__setitem__(0, float("inf"))),
    ("schedule.beta", lambda d: d["schedule"]["beta"].__setitem__(0, float("nan"))),
    ("schedule.beta", lambda d: d["schedule"].pop("beta")),
    ("net.sizes", lambda d: d["net"].pop("sizes")),
    ("net.weights", lambda d: d["net"].pop("weights")),
    ("net.biases", lambda d: d["net"].pop("biases")),
], ids=["schema", "input_size", "output_size", "base_logits_length", "nan_weight", "inf_bias",
        "nan_beta", "no_beta", "no_sizes", "no_weights", "no_biases"])
def test_load_rejects_bad_checkpoint(saved_mask_model, tmp_path, field, edit):
    doc = json.loads(saved_mask_model.read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=rf"bad\.json: field {re.escape(field)}"):
        md.load_mask_model(bad)
