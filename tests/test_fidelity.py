import os

import numpy as np
import pytest

from recipeforge import fidelity as fd
from recipeforge import mask_diffusion as md
from recipeforge import netcore
from recipeforge import quantity_diffusion as qd
from recipeforge.corpus import Corpus, IngredientVocabulary
from recipeforge.errors import DataError, NumericError


def corpus_from_masks(masks, grams=100.0):
    masks = np.asarray(masks, dtype=np.uint8)
    vocab = IngredientVocabulary.from_ids([f"i{j:02d}" for j in range(masks.shape[1])])
    return Corpus(vocabulary=vocab, grams=masks * grams, splits=["train"] * len(masks))


def test_marginal_error_identical_sets_is_zero():
    masks = (np.random.default_rng(0).random((50, 6)) < 0.6).astype(np.uint8)
    masks[masks.sum(axis=1) == 0, 0] = 1
    corpus = corpus_from_masks(masks)
    assert fd.marginal_error(masks, corpus.grams > 0) == 0.0


def test_marginal_error_opposite_inclusion():
    a = np.zeros((20, 3), dtype=np.uint8)
    a[:, 0] = 1
    b = np.zeros((20, 3), dtype=np.uint8)
    b[:, 1] = 1
    assert fd.marginal_error(a, b) == 1.0


def test_marginal_error_symmetric():
    rng = np.random.default_rng(1)
    a = (rng.random((40, 5)) < 0.5).astype(np.uint8)
    b = (rng.random((60, 5)) < 0.7).astype(np.uint8)
    assert fd.marginal_error(a, b) == fd.marginal_error(b, a)


def test_marginal_error_empty_inputs():
    with pytest.raises(DataError):
        fd.marginal_error(np.zeros((0, 3), dtype=np.uint8), np.ones((2, 3), dtype=np.uint8))


def test_length_distance_identical_and_disjoint():
    a = np.array([[1, 1, 0], [1, 0, 0]], dtype=np.uint8)
    assert fd.length_distance(a, a) == 0.0
    b = np.array([[1, 1, 1], [1, 1, 1]], dtype=np.uint8)
    assert fd.length_distance(a, b) == 1.0


def test_length_distance_symmetric_and_bounded():
    rng = np.random.default_rng(2)
    a = (rng.random((100, 8)) < 0.4).astype(np.uint8)
    b = (rng.random((80, 8)) < 0.6).astype(np.uint8)
    d = fd.length_distance(a, b)
    assert d == fd.length_distance(b, a)
    assert 0.0 <= d <= 1.0


def test_pairwise_correlations_co_present_pair():
    masks = np.array([[1, 1, 0], [1, 1, 1], [0, 0, 1], [1, 1, 0], [0, 0, 0]], dtype=np.uint8)
    corr = fd.pairwise_correlations(masks)
    assert corr[0, 1] == pytest.approx(1.0)
    assert corr[0, 0] == pytest.approx(1.0)


def test_pairwise_correlations_exclusive_pair():
    masks = np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=np.uint8)
    corr = fd.pairwise_correlations(masks)
    assert corr[0, 1] == pytest.approx(-1.0)


def test_pairwise_correlations_zero_variance_convention():
    masks = np.array([[1, 1], [1, 0], [1, 1]], dtype=np.uint8)
    corr = fd.pairwise_correlations(masks)
    assert corr[0, 0] == 0.0  # constant column
    assert corr[0, 1] == 0.0


def test_pairwise_correlations_independent_pair_small():
    rng = np.random.default_rng(3)
    masks = (rng.random((10_000, 2)) < 0.5).astype(np.uint8)
    corr = fd.pairwise_correlations(masks)
    assert abs(corr[0, 1]) < 0.05


def test_pairwise_correlations_order_invariant():
    rng = np.random.default_rng(4)
    masks = (rng.random((200, 4)) < 0.5).astype(np.uint8)
    corr1 = fd.pairwise_correlations(masks)
    corr2 = fd.pairwise_correlations(masks[::-1])
    np.testing.assert_allclose(corr1, corr2)


def test_pairwise_correlations_needs_two_recipes():
    with pytest.raises(DataError):
        fd.pairwise_correlations(np.ones((1, 3), dtype=np.uint8))


def test_top_correlated_pairs_ranking():
    corr = np.eye(4)
    corr[0, 1] = corr[1, 0] = 0.9
    corr[2, 3] = corr[3, 2] = -0.7
    corr[0, 2] = corr[2, 0] = 0.1
    pairs = fd.top_correlated_pairs(corr, k=2)
    assert pairs == [(0, 1), (2, 3)]


def patterns(*codes, K=10) -> np.ndarray:
    """The presence rows whose bits are the binary digits of codes, a (len(codes), K) mask set."""
    return ((np.asarray(codes)[:, None] >> np.arange(K)) & 1).astype(np.uint8)


def test_mode_recall_is_the_least_frequency_ratio_of_the_frequent_patterns():
    # corpus of 200: pattern 1023 holds 25%, 513 holds 2% and 6 exactly 1%; the
    # other 144 patterns hold 0.5% each and are not modes
    rare = [c for c in range(1024) if c not in (1023, 513, 6)][:144]
    corpus = patterns(*[1023] * 50, *[513] * 4, *[6] * 2, *rare)
    # 100 samples: 1023 at 30% (ratio 1.2), 513 at 1% (0.5), 6 at 1% (1.0)
    samples = patterns(*[1023] * 30, 513, 6, *rare[:68])
    assert fd.mode_recall(samples, corpus) == 0.5
    assert fd.mode_recall(patterns(*[1023] * 30, *[513] * 4, 6, *rare[:65]), corpus) == 1.0
    # a frequent pattern never drawn
    assert fd.mode_recall(patterns(*[1023] * 30, *[6] * 70), corpus) == 0.0
    # the corpus's own frequencies
    assert fd.mode_recall(corpus, corpus) == 1.0


def test_mode_recall_is_none_without_a_pattern_at_one_percent():
    corpus = patterns(*range(101))  # each pattern holds 1 row in 101, under 1%
    assert fd.mode_recall(patterns(1, 2, 3), corpus) is None
    assert fd.mode_recall(patterns(1, 2, 3), patterns(*range(100))) == 0.0


def trained_delta_quantity_model():
    vocab = IngredientVocabulary.from_ids(["beef", "bun"])
    w = np.array([150.0, 75.0])
    corpus = Corpus(vocabulary=vocab, grams=np.tile(w, (200, 1)),
                    splits=["train"] * 150 + ["validation"] * 50)
    cfg = netcore.TrainConfig(steps=1500, batch_size=32, learning_rate=1e-3,
                              hidden_width=16, hidden_depth=2, val_interval=1500)
    model = qd.train_quantity_model(corpus, qd.SDESpec(steps=200), cfg, seed=5)
    return model, corpus


def test_quantity_mae_delta_recovery():
    model, corpus = trained_delta_quantity_model()
    mae = fd.quantity_mae(model, corpus.rows("validation"), seed=6)
    assert mae < 5.0


def test_quantity_mae_untrained_is_worse():
    model, corpus = trained_delta_quantity_model()
    untrained = qd.QuantityScoreModel(sde=model.sde,
                                      net=netcore.init_network([7, 16, 2], seed=9),
                                      codec=qd.WeightCodec(log_mean=np.zeros(2),
                                                           log_std=np.ones(2)),
                                      K=2)
    trained_mae = fd.quantity_mae(model, corpus.rows("validation"), seed=7)
    untrained_mae = fd.quantity_mae(untrained, corpus.rows("validation"), seed=7)
    assert untrained_mae > 5 * trained_mae


def test_quantity_mae_empty_held_out():
    model, _ = trained_delta_quantity_model()
    with pytest.raises(DataError):
        fd.quantity_mae(model, np.zeros((0, 2)), seed=0)


def test_fidelity_report_self_test(tmp_path):
    # corpus-as-samples sanity: distances vanish when the sampler is the corpus
    rng = np.random.default_rng(8)
    masks = (rng.random((120, 5)) < 0.6).astype(np.uint8)
    masks[masks.sum(axis=1) == 0, 0] = 1
    present = corpus_from_masks(masks).grams > 0
    assert fd.marginal_error(present, present) == 0.0
    assert fd.length_distance(present, present) == 0.0
    corr = fd.pairwise_correlations(present)
    np.testing.assert_allclose(corr, fd.pairwise_correlations(present))


def untrained_models_and_corpus(K=5):
    rng = np.random.default_rng(10)
    masks = (rng.random((80, K)) < 0.5).astype(np.uint8)
    masks[masks.sum(axis=1) == 0, 0] = 1
    vocab = IngredientVocabulary.from_ids([f"i{j:02d}" for j in range(K)])
    corpus = Corpus(vocabulary=vocab, grams=masks * rng.uniform(20.0, 200.0, masks.shape),
                    splits=["train"] * 60 + ["validation"] * 20)
    mask_model = md.MaskDiffusionModel(schedule=md.linear_schedule(10),
                                       net=netcore.init_network([K + 3, 8, K], seed=1), K=K,
                                       base_logits=np.zeros(K))
    quantity_model = qd.QuantityScoreModel(
        sde=qd.SDESpec(steps=30), net=netcore.init_network([2 * K + 3, 8, K], seed=2),
        codec=qd.WeightCodec(log_mean=np.full(K, 4.0), log_std=np.full(K, 0.5)), K=K)
    return mask_model, quantity_model, corpus


def test_fidelity_report_is_the_same_for_any_thread_count(monkeypatch):
    mask_model, quantity_model, corpus = untrained_models_and_corpus()
    forks = {}
    fork = os.fork

    def counting():
        forks[threads] = forks.get(threads, 0) + 1
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", counting)
    reports = {}
    for threads in (1, 2, 3):
        reports[threads] = fd.fidelity_report(mask_model, quantity_model, corpus, 300, seed=4,
                                              threads=threads)
    serial = reports[1]
    assert serial.to_dict() == reports[2].to_dict() == reports[3].to_dict()
    assert serial.to_dict()["mode_recall"] == serial.mode_recall > 0
    assert serial.quantity_mae_grams is not None
    # threads = 2 draws windows in a forked worker process
    assert 1 not in forks and forks[2] >= 1


def test_fidelity_report_rejects_models_that_differ_in_size():
    # both models carry the same (empty) fingerprint
    mask_model, _, corpus = untrained_models_and_corpus(K=5)
    _, quantity_model, _ = untrained_models_and_corpus(K=6)
    with pytest.raises(DataError, match="mask and quantity models disagree on vocabulary size"):
        fd.fidelity_report(mask_model, quantity_model, corpus, 50, seed=4)


def test_fidelity_report_raises_the_quantity_error_with_threads():
    mask_model, quantity_model, corpus = untrained_models_and_corpus()
    quantity_model.net.weights[-1][:] = 1e307
    with pytest.raises(NumericError):
        fd.fidelity_report(mask_model, quantity_model, corpus, 300, seed=4, threads=2)
