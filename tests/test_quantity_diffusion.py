import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipeforge import netcore
from recipeforge import quantity_diffusion as qd
from recipeforge.corpus import Corpus, IngredientVocabulary, SynthIngredient, SynthSpec, synthesize_corpus
from recipeforge.errors import DataError, NumericError
from helpers import perturb


def make_codec(K, mu=4.0, sd=0.5):
    return qd.WeightCodec(log_mean=np.full(K, mu), log_std=np.full(K, sd))


def make_model(K=4, seed=0, sde=None):
    sde = sde or qd.SDESpec()
    net = netcore.init_network([2 * K + 3, 8, K], seed=seed)
    return qd.QuantityScoreModel(sde=sde, net=net, codec=make_codec(K), K=K)


# ---------------------------------------------------------------------------
# codec

def test_encode_at_log_mean_gives_zero():
    codec = make_codec(3, mu=math.log(150.0))
    z = qd.encode_weights(np.array([150.0, 0.0, 150.0]), codec)
    np.testing.assert_allclose(z, [0.0, 0.0, 0.0], atol=1e-12)


def test_encode_absent_is_zero():
    codec = make_codec(2)
    assert qd.encode_weights(np.array([0.0, 55.0]), codec)[0] == 0.0


def test_encode_decode_round_trip_within_half_gram():
    rng = np.random.default_rng(0)
    codec = qd.WeightCodec(log_mean=rng.uniform(1, 5, 6), log_std=rng.uniform(0.1, 0.6, 6))
    for _ in range(50):
        w = np.where(rng.random(6) < 0.7, np.round(rng.uniform(2, 400, 6)), 0.0)
        if not w.any():
            continue
        back = qd.decode_weights(qd.encode_weights(w, codec), w > 0, codec)
        assert np.abs(back - w).max() <= 0.5


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.one_of(st.just(0.0), st.floats(1.0, 5000.0)), min_size=4, max_size=4),
                min_size=1, max_size=8),
       st.floats(0.0, 8.0), st.floats(0.05, 2.0))
def test_decode_encode_round_trip_property(rows, mu, sd):
    grams = np.array(rows)
    codec = make_codec(4, mu=mu, sd=sd)
    back = qd.decode_weights(qd.encode_weights(grams, codec), grams > 0, codec)
    assert back.shape == grams.shape
    np.testing.assert_array_equal(back > 0, grams > 0)
    assert np.abs(back - grams).max() <= 0.5 + 1e-9


def test_decode_zero_is_rounded_exp_mean():
    codec = make_codec(2, mu=math.log(42.4))
    g = qd.decode_weights(np.zeros(2), np.array([1, 0], dtype=np.uint8), codec)
    assert g[0] == 42.0
    assert g[1] == 0.0


def test_decode_empty_mask_gives_empty_recipe():
    codec = make_codec(3)
    g = qd.decode_weights(np.zeros(3), np.zeros(3, dtype=np.uint8), codec)
    assert not g.any()


def test_decode_extreme_z_is_finite():
    codec = make_codec(1, mu=4.0, sd=0.5)
    g = qd.decode_weights(np.array([10.0]), np.array([1], dtype=np.uint8), codec)
    assert np.isfinite(g[0]) and g[0] > 1000


def test_decode_floors_at_one_gram():
    codec = make_codec(1, mu=0.0, sd=1.0)
    g = qd.decode_weights(np.array([-8.0]), np.array([1], dtype=np.uint8), codec)
    assert g[0] == 1.0


def test_decode_rejects_non_finite():
    codec = make_codec(1)
    with pytest.raises(DataError):
        qd.decode_weights(np.array([np.nan]), np.array([1], dtype=np.uint8), codec)


def test_codec_floors_tiny_std():
    codec = qd.WeightCodec(log_mean=np.zeros(2), log_std=np.array([0.0, 0.5]))
    assert codec.log_std[0] == 1e-3


# ---------------------------------------------------------------------------
# forward perturbation

def test_perturb_small_t_is_near_identity():
    sde = qd.SDESpec()
    x0 = np.array([1.5, -0.7, 0.2])
    out = perturb(x0, 1e-3, sde, seed=1)
    assert np.abs(out - x0).max() < 0.1


def test_perturb_t1_matches_standard_normal_moments():
    sde = qd.SDESpec()
    x0 = np.full(100_000, 1.7)
    out = perturb(x0, 1.0, sde, seed=2)
    assert abs(out.mean()) < 0.02
    assert abs(out.var() - 1.0) < 0.03


def test_perturb_deterministic_and_range_checked():
    sde = qd.SDESpec()
    x0 = np.ones(5)
    np.testing.assert_array_equal(perturb(x0, 0.5, sde, seed=3),
                                  perturb(x0, 0.5, sde, seed=3))
    with pytest.raises(ValueError):
        perturb(x0, 0.0, sde, seed=0)
    with pytest.raises(ValueError):
        perturb(x0, 1.5, sde, seed=0)


def test_vp_marginal_variance_identity():
    # Var[x_t] = 1 - ab + ab Var[x0], checked within 3 standard errors
    sde = qd.SDESpec()
    rng = np.random.default_rng(4)
    x0 = rng.normal(0.0, 2.0, size=200_000)
    for t in (0.2, 0.5, 0.9):
        ab = float(sde.alpha_bar(t))
        out = perturb(x0, t, sde, seed=5)
        expected = 1.0 - ab + ab * 4.0
        se = expected * math.sqrt(2.0 / x0.size)
        assert abs(out.var() - expected) < 3 * se


# ---------------------------------------------------------------------------
# denoising score matching loss

def test_dsm_zero_for_exact_conditional_score(monkeypatch):
    # a network output that makes score = -x - out / sigma the exact
    # conditional score of x0 gives a validation DSM of zero
    model = make_model(K=3)
    x0 = np.tile([0.4, -1.0, 0.0], (64, 1))
    masks = np.tile([1.0, 1.0, 0.0], (64, 1))

    def exact_out(net, inputs):
        ab = model.sde.alpha_bar(inputs[:, 6])[:, None]  # column 2K holds t
        return (ab * inputs[:, :3] - np.sqrt(ab) * x0 * masks) / np.sqrt(1.0 - ab)

    monkeypatch.setattr(qd.netcore, "forward", exact_out)
    assert qd._validation_dsm(model, x0, masks, seed=0) < 1e-20


def test_dsm_zero_score_expectation(monkeypatch):
    # with score = 0 the expected loss at time t is n_active / (1 - ab)
    model = make_model(K=5)
    n = 20000
    masks = np.tile([1.0, 1.0, 1.0, 0.0, 0.0], (n, 1))

    def zero_score_out(net, inputs):  # out = -sigma x makes the score 0
        ab = model.sde.alpha_bar(inputs[:, 10])[:, None]
        return -np.sqrt(1.0 - ab) * inputs[:, :5]

    monkeypatch.setattr(qd.netcore, "forward", zero_score_out)
    got = qd._validation_dsm(model, np.zeros((n, 5)), masks, seed=1)
    inv = 1.0 / (1.0 - model.sde.alpha_bar(np.linspace(0.1, 0.95, n)))
    se = math.sqrt(6.0 * (inv ** 2).sum()) / n  # per row: chi-square(3) * inv
    assert abs(got - 3.0 * inv.mean()) < 3 * se


def test_dsm_all_masked_returns_zero():
    model = make_model(K=4)
    assert qd._validation_dsm(model, np.zeros((8, 4)), np.zeros((8, 4)), seed=0) == 0.0


def test_dsm_gradient_matches_finite_differences():
    sde = qd.SDESpec()
    K = 4
    net = netcore.init_network([2 * K + 3, 8, K], seed=5)
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((3, K))
    masks = (rng.random((3, K)) < 0.7).astype(float)
    x0 *= masks
    t = rng.uniform(0.05, 1.0, size=3)
    eps = rng.standard_normal((3, K)) * masks
    ab = sde.alpha_bar(t)[:, None]
    sigma = np.sqrt(1.0 - ab)
    x_t = np.sqrt(ab) * x0 + sigma * eps
    emb = netcore.time_embedding(t, 1.0)
    inputs = np.concatenate([x_t, masks, emb], axis=1)
    target_resid = eps - sigma * x_t

    def loss_of(n):
        out = netcore.forward(n, inputs)
        r = (out - target_resid) * masks
        return float((r ** 2 / (1.0 - ab)).sum() / 3)

    out = netcore.forward(net, inputs)
    resid = (out - target_resid) * masks
    cot = 2.0 * resid / (1.0 - ab) / 3
    flat = netcore.gradient(net, netcore.activations(net, inputs), cot)
    theta = net.theta
    h = 1e-6
    worst = 0.0
    for i in np.random.default_rng(3).choice(theta.size, 30, replace=False):
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
# reverse-time sampling against analytic oracles, which ignore the grid's terms

def test_reverse_sampler_recovers_analytic_gaussian():
    sde = qd.SDESpec()

    def score(x, mask, t, terms):
        ab = float(sde.alpha_bar(t))
        var = ab * 0.25 + 1.0 - ab
        return -(x - math.sqrt(ab) * 2.0) / var

    rng = np.random.default_rng(6)
    x = qd.reverse_integrate(score, np.ones((4000, 1)), sde, [rng])[:, 0]
    assert abs(x.mean() - 2.0) < 0.05
    assert abs(x.var() - 0.25) < 0.03


def test_reverse_sampler_recovers_two_component_mixture():
    sde = qd.SDESpec()
    mus = np.array([-2.0, 2.0])
    var0 = 0.25

    def score(x, mask, t, terms):
        ab = float(sde.alpha_bar(t))
        means = math.sqrt(ab) * mus
        var = ab * var0 + 1.0 - ab
        d = x[..., None] - means
        logp = -0.5 * d * d / var
        logp -= logp.max(axis=-1, keepdims=True)
        g = np.exp(logp)
        g /= g.sum(axis=-1, keepdims=True)
        return (g * (-d / var)).sum(axis=-1)

    rng = np.random.default_rng(7)
    x = qd.reverse_integrate(score, np.ones((10_000, 1)), sde, [rng])[:, 0]
    mass_high = (x > 0).mean()
    assert abs(mass_high - 0.5) < 0.05
    assert abs(x[x > 0].mean() - 2.0) < 0.1
    assert abs(x[x < 0].mean() + 2.0) < 0.1


def test_reverse_sample_deterministic_per_seed_and_mask():
    model = make_model(K=4, seed=8)
    mask = np.array([1, 0, 1, 1], dtype=np.uint8)
    a = qd.reverse_sample_batch(model, mask, seed=9)
    b = qd.reverse_sample_batch(model, mask, seed=9)
    assert a.shape == (1, 4)
    np.testing.assert_array_equal(a, b)
    c = qd.reverse_sample_batch(model, mask, seed=10)
    assert not np.array_equal(a, c)


def test_reverse_sample_pins_masked_coordinates():
    model = make_model(K=4, seed=11)
    mask = np.array([1, 0, 0, 1], dtype=np.uint8)
    g = qd.reverse_sample_batch(model, mask, seed=12)[0]
    assert g[1] == 0.0 and g[2] == 0.0
    assert g[0] >= 1.0 and g[3] >= 1.0


def test_reverse_sample_batch_thread_determinism():
    model = make_model(K=3, seed=13)
    masks = (np.random.default_rng(0).random((300, 3)) < 0.7).astype(np.uint8)
    masks[masks.sum(axis=1) == 0, 0] = 1
    a = qd.reverse_sample_batch(model, masks, seed=14, chunk_size=64, threads=1)
    b = qd.reverse_sample_batch(model, masks, seed=14, chunk_size=64, threads=4)
    assert a.shape == (300, 3)
    np.testing.assert_array_equal(a, b)


def test_reverse_integrate_blocks_are_their_single_generator_runs():
    # at the desk spec's sizes (30 ingredients, 32 hidden units) a 64-row
    # block gets the same bits inside the 256-row products, so lockstep
    # integration gives the solo runs bit for bit; with fewer outputs than
    # about 20, OpenBLAS may round blocks differently in the last bits
    K, m = 30, 64
    net = netcore.init_network([2 * K + 3, 32, 32, 32, K], seed=16)
    model = qd.QuantityScoreModel(sde=qd.SDESpec(steps=50), net=net, codec=make_codec(K), K=K)
    masks = (np.random.default_rng(17).random((4 * m, K)) < 0.4).astype(float)

    def rngs(blocks: range) -> list[np.random.Generator]:
        return netcore.block_rngs(18, netcore.QUANTITIES, blocks)

    together = qd.reverse_integrate(model.score, masks, model.sde, rngs(range(4)))
    alone = [qd.reverse_integrate(model.score, masks[c * m:(c + 1) * m], model.sde,
                                  rngs(range(c, c + 1))) for c in range(4)]
    assert together.tobytes() == np.concatenate(alone).tobytes()
    with pytest.raises(ValueError, match="equal blocks"):
        qd.reverse_integrate(model.score, masks[:-1], model.sde, rngs(range(4)))


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 5.0), st.floats(0.0, 40.0), st.floats(1e-5, 0.5),
       st.sampled_from([1, 2, 3, 17, 500]))
def test_each_step_gets_the_score_terms_of_its_scalar_time(beta_min, spread, t_eps, steps):
    # the step grid computes every step's terms at once; each must be the
    # bits _score_terms gives at that step's time alone
    sde = qd.SDESpec(beta_min=beta_min, beta_max=beta_min + spread, steps=steps, t_eps=t_eps)
    seen = []

    def recording(x, mask, t, terms):
        seen.append((t, terms))
        return np.zeros_like(x)

    qd.reverse_integrate(recording, np.ones((2, 3)), sde, [np.random.default_rng(0)])
    assert [t for t, _ in seen] == np.linspace(1.0, t_eps, steps + 1)[:-1].tolist()
    for t, (embedding, neg_sigma) in seen:
        want_embedding, want_neg_sigma = qd._score_terms(sde, t)
        assert embedding.tobytes() == want_embedding.tobytes()
        assert np.asarray(neg_sigma).tobytes() == np.asarray(want_neg_sigma).tobytes()


def test_reverse_integrate_reports_non_finite_state():
    sde = qd.SDESpec(steps=200)

    def exploding(x, mask, t, terms):
        with np.errstate(over="ignore"):
            return 50.0 * x ** 3 + 10.0

    rng = np.random.default_rng(15)
    with pytest.raises(NumericError, match="step"):
        qd.reverse_integrate(exploding, np.ones((8, 2)), sde, [rng])


# ---------------------------------------------------------------------------
# training

def delta_corpus():
    vocab = IngredientVocabulary.from_ids(["beef", "bun", "cheese", "onion"])
    w = np.array([150.0, 75.0, 25.0, 10.0])
    return Corpus(vocabulary=vocab, grams=np.tile(w, (300, 1)),
                  splits=["train"] * 270 + ["validation"] * 30), w


def test_train_delta_corpus_recovery():
    corpus, w = delta_corpus()
    cfg = netcore.TrainConfig(steps=3000, batch_size=64, learning_rate=1e-3,
                              hidden_width=32, hidden_depth=3, val_interval=3000)
    model = qd.train_quantity_model(corpus, qd.SDESpec(), cfg, seed=16)
    assert model.history[-1][1] < model.history[0][1]
    mask = (w > 0).astype(np.uint8)
    samples = qd.reverse_sample_batch(model, np.tile(mask, (100, 1)), seed=17)
    rel = np.abs(samples - w)[:, mask == 1] / w[mask == 1]
    assert (rel.max(axis=1) <= 0.25).mean() >= 0.9


def lognormal_spec(n=1500):
    ings = [
        SynthIngredient("beef", 0.6, 5.0, 0.30),
        SynthIngredient("bun", 0.7, 4.3, 0.20),
        SynthIngredient("cheese", 0.5, 3.2, 0.30),
        SynthIngredient("lettuce", 0.5, 3.0, 0.25),
        SynthIngredient("onion", 0.4, 3.4, 0.35),
        SynthIngredient("tomato", 0.5, 3.7, 0.25),
    ]
    return SynthSpec(ingredients=ings, pairs=[], planted=[], count=n)


def test_train_lognormal_moment_recovery():
    spec = lognormal_spec()
    corpus = synthesize_corpus(spec, seed=18)
    cfg = netcore.TrainConfig(steps=8000, batch_size=64, learning_rate=1e-3,
                              hidden_width=32, hidden_depth=3, val_interval=8000)
    model = qd.train_quantity_model(corpus, qd.SDESpec(), cfg, seed=19)
    masks = (corpus.rows("train") > 0).astype(np.uint8)
    samples = qd.reverse_sample_batch(model, masks[:2500], seed=20)
    W, M = samples, (samples > 0).astype(np.uint8)
    vocab = corpus.vocabulary
    for ing in spec.ingredients:
        i = vocab.index_of(ing.ingredient_id)
        logs = np.log(W[M[:, i] == 1, i])
        assert abs(logs.mean() - ing.weight_log_mean) < 0.1
        assert abs(logs.std() - ing.weight_log_sd) < 0.1


def test_train_rejects_empty_corpus():
    vocab = IngredientVocabulary.from_ids(["a"])
    corpus = Corpus(vocabulary=vocab, grams=np.zeros((0, 1)), splits=[])
    with pytest.raises(DataError):
        qd.train_quantity_model(corpus, qd.SDESpec(), netcore.TrainConfig(steps=5), seed=0)


def test_checkpoint_round_trip(tmp_path):
    corpus, w = delta_corpus()
    cfg = netcore.TrainConfig(steps=100, batch_size=32, hidden_width=8, hidden_depth=2,
                              val_interval=100)
    model = qd.train_quantity_model(corpus, qd.SDESpec(steps=50), cfg, seed=21)
    path = tmp_path / "qty.json"
    qd.save_quantity_model(path, model)
    clone = qd.load_quantity_model(path)
    assert clone.K == model.K and clone.sde.steps == 50
    np.testing.assert_allclose(clone.codec.log_mean, model.codec.log_mean)
    mask = (w > 0).astype(np.uint8)
    np.testing.assert_array_equal(qd.reverse_sample_batch(clone, mask, seed=22),
                                  qd.reverse_sample_batch(model, mask, seed=22))


@pytest.mark.parametrize("field, edit", [
    ("schema_version", lambda d: d.pop("schema_version")),
    ("net.sizes", lambda d: d["net"]["sizes"].__setitem__(0, 8)),
    ("codec.log_mean", lambda d: d["codec"]["log_mean"].append(1.0)),
    ("codec.log_std", lambda d: d["codec"]["log_std"].__setitem__(2, float("nan"))),
    ("net.weights[0]", lambda d: d["net"]["weights"][0].__setitem__(3, float("-inf"))),
    ("sde", lambda d: d["sde"].update(beta_max=float("inf"))),
    ("sde.steps", lambda d: d["sde"].pop("steps")),
    ("codec.log_std", lambda d: d["codec"].pop("log_std")),
    ("codec.log_mean", lambda d: d.update(codec=[1.0, 2.0])),
], ids=["schema", "input_size", "codec_length", "nan_codec", "inf_weight", "inf_sde",
        "no_sde_steps", "no_log_std", "codec_not_object"])
def test_load_rejects_bad_checkpoint(tmp_path, field, edit):
    model = make_model(K=4)
    good = tmp_path / "good.json"
    qd.save_quantity_model(good, model)
    assert qd.load_quantity_model(good).K == 4
    doc = json.loads(good.read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=rf"bad\.json: field {re.escape(field)}"):
        qd.load_quantity_model(bad)
