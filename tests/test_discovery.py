import functools
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recipeforge import discovery as dc
from recipeforge import mask_diffusion as md
from recipeforge import netcore
from recipeforge import quantity_diffusion as qd
from recipeforge import scoring
from recipeforge.corpus import Corpus, IngredientVocabulary, load_synth_spec, synthesize_corpus
from recipeforge.errors import DataError, NumericError
from helpers import random_models

DESK_SPEC = Path(dc.__file__).parent / "data" / "desk" / "synth_spec.json"
VOCAB = IngredientVocabulary.from_ids(["beef", "bun", "cheese", "onion"])
PLANT_W = np.array([150.0, 75.0, 25.0, 0.0])


def recipe(weights) -> np.ndarray:
    return np.asarray(weights, dtype=float)


def batch_of(rows) -> np.ndarray:
    return np.stack(rows)


@pytest.fixture(scope="module")
def trained_models():
    corpus = Corpus(vocabulary=VOCAB, grams=np.tile(PLANT_W, (240, 1)), splits=["train"] * 240)
    mask_cfg = netcore.TrainConfig(steps=3000, batch_size=32, learning_rate=3e-3,
                                   hidden_width=16, hidden_depth=2, val_interval=3000)
    mask_model = md.train_mask_model(corpus, md.linear_schedule(30, 0.02, 0.3), mask_cfg, seed=1)
    qty_cfg = netcore.TrainConfig(steps=1500, batch_size=32, learning_rate=1e-3,
                                  hidden_width=16, hidden_depth=2, val_interval=1500)
    qty_model = qd.train_quantity_model(corpus, qd.SDESpec(steps=200), qty_cfg, seed=2)
    return mask_model, qty_model, corpus


def small_corpus():
    rows = [
        [150.0, 75.0, 25.0, 0.0],
        [150.0, 75.0, 0.0, 0.0],
        [0.0, 75.0, 25.0, 10.0],
        [300.0, 80.0, 0.0, 0.0],
        [150.0, 0.0, 25.0, 10.0],
    ]
    return Corpus(vocabulary=VOCAB, grams=rows, splits=["train"] * 5)


# ---------------------------------------------------------------------------
# generation

def test_generate_batch_empty_count(trained_models):
    mask_model, qty_model, _ = trained_models
    batch = dc.generate_batch(mask_model, qty_model, 0, seed=3)
    assert len(batch) == 0


def test_generate_batch_deterministic(trained_models):
    mask_model, qty_model, _ = trained_models
    a = dc.generate_batch(mask_model, qty_model, 40, seed=4)
    b = dc.generate_batch(mask_model, qty_model, 40, seed=4)
    assert a.shape == (40, VOCAB.K)
    np.testing.assert_array_equal(a, b)


@functools.cache
def stream() -> np.ndarray:
    """Rows 0 to 255 of random_models' sample stream of seed 5, drawn in one
    window."""
    return dc.generate_batch(*random_models(), 256, seed=5, chunk_size=256)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 200), st.integers(1, 300), st.sampled_from([1, 2]))
@example(count=100, chunk=64, threads=2)
def test_stream_row_is_the_same_for_any_count_chunk_and_thread_count(count, chunk, threads):
    # a last block is drawn in full and cut; conditional masks pad it with
    # all-zero rows, which draw nothing
    mask_model, qty_model = random_models()
    given_masks = (stream() > 0).astype(np.uint8)[::-1]  # any masks, here the stream's reversed
    kw = {"chunk_size": chunk, "threads": threads}
    grams = dc.generate_batch(mask_model, qty_model, count, seed=5, **kw)
    masks = md.sample_masks(mask_model, count, seed=5, **kw)
    weights = qd.reverse_sample_batch(qty_model, given_masks[:count], seed=5, **kw)
    assert grams.tobytes() == stream()[:count].tobytes()
    assert masks.tobytes() == (stream()[:count] > 0).astype(np.uint8).tobytes()
    assert weights.tobytes() == qd.reverse_sample_batch(qty_model, given_masks, 5)[:count].tobytes()


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 200), st.integers(1, 300))
@example(count=130, chunk=64)
def test_joint_sampling_equals_its_two_halves(count, chunk):
    mask_model, qty_model = random_models()
    grams = dc.generate_batch(mask_model, qty_model, count, seed=5, chunk_size=chunk)
    masks = md.sample_masks(mask_model, count, seed=5, chunk_size=chunk)
    assert masks.tobytes() == (grams > 0).astype(np.uint8).tobytes()
    assert qd.reverse_sample_batch(qty_model, masks, seed=5).tobytes() == grams.tobytes()


@pytest.mark.parametrize("batch_chunk, chunk, budget", [(2048, 8, 21), (64, 100, 150)])
def test_generate_batch_rows_are_the_rediscover_stream(batch_chunk, chunk, budget):
    # batch row i is rediscover's draw i for a count that is not a multiple
    # of either chunk size, also within a last block the budget cuts short
    mask_model, qty_model = random_models()
    grams = dc.generate_batch(mask_model, qty_model, budget, seed=5, chunk_size=batch_chunk)
    for i in range(budget):
        out = dc.rediscover(mask_model, qty_model, grams[i],
                            budget=budget, seed=5, chunk_size=chunk)
        first = min(j for j in range(i + 1) if scoring.sds(grams[j], grams[i]) == 0)
        assert out.found and out.index == first and out.draws == first + 1
        np.testing.assert_array_equal(out.recipe, grams[first])


def test_rediscover_windows_double_from_one_chunk(monkeypatch):
    mask_model, qty_model = random_models()
    grams = dc.generate_batch(mask_model, qty_model, 64, seed=6, chunk_size=64)
    rows = []
    real = dc._sample_chunk

    def sample_chunk(model, n, rngs):
        rows.append(n)
        return real(model, n, rngs)

    monkeypatch.setattr(dc, "_sample_chunk", sample_chunk)
    # an early match computes its own chunk only
    assert dc.rediscover(mask_model, qty_model, grams[3], 1100, 6).found
    assert rows == [64]
    rows.clear()
    assert not dc.rediscover(mask_model, qty_model, np.zeros(mask_model.K), 1100, 6).found
    assert rows == [64, 128, 256, 512, 192]


def test_rediscover_window_does_not_change_the_outcome(monkeypatch):
    # 1,100 draws in 64-row chunks: windows of 1, 2, 4, 8 and 3 chunks
    mask_model, qty_model = random_models()
    grams = dc.generate_batch(mask_model, qty_model, 1152, seed=6, chunk_size=64)
    refs = [grams[3], grams[700], grams[1099], np.zeros(mask_model.K)]
    windowed = [dc.rediscover(mask_model, qty_model, r, 1100, 6) for r in refs]
    monkeypatch.setattr(dc, "_WINDOW_ROWS", 64)
    for ref, out in zip(refs, windowed):
        one = dc.rediscover(mask_model, qty_model, ref, 1100, 6)
        assert (out.found, out.index, out.draws) == (one.found, one.index, one.draws)
        np.testing.assert_array_equal(out.recipe, one.recipe)
    assert [o.found for o in windowed] == [True, True, True, False]


def test_rediscover_earlier_hit_wins_over_a_later_blow_up(monkeypatch):
    # the quantity sampler of blocks 4 and 5 fails; the third window holds
    # blocks 3-6, and draw 205, in block 3, has no earlier match
    mask_model, qty_model = random_models()
    real = dc.reverse_integrate

    def reverse_integrate(score_fn, masks, sde, rngs):
        for rng in rngs:
            key = rng.bit_generator.seed_seq.spawn_key
            if key in ((netcore.QUANTITIES, 4), (netcore.QUANTITIES, 5)):
                raise NumericError(f"blow-up in block {key[1]}")
        return real(score_fn, masks, sde, rngs)

    grams = dc.generate_batch(mask_model, qty_model, 512, seed=6)
    monkeypatch.setattr(dc, "reverse_integrate", reverse_integrate)
    assert min(j for j in range(206) if scoring.sds(grams[j], grams[205]) == 0) == 205
    out = dc.rediscover(mask_model, qty_model, grams[205], 512, 6)
    assert out.found and out.index == 205
    np.testing.assert_array_equal(out.recipe, grams[205])
    with pytest.raises(NumericError, match="block 4$"):
        dc.rediscover(mask_model, qty_model, np.zeros(mask_model.K), 512, 6)


def test_generate_batch_raises_numeric_error_when_grams_overflow():
    # finite weights, 3,000 times too large: the score is finite, its decoded grams are not
    mask_model, qty_model = random_models()
    for w in qty_model.net.weights:
        w *= 3000.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="decoded grams overflow to inf"):
            dc.generate_batch(mask_model, qty_model, 64, seed=1, chunk_size=64)


def test_generate_batch_rejects_vocabulary_mismatch(trained_models):
    mask_model, qty_model, _ = trained_models
    other = qd.QuantityScoreModel(sde=qty_model.sde, net=qty_model.net,
                                  codec=qty_model.codec, K=qty_model.K,
                                  vocab_fingerprint="different")
    with pytest.raises(DataError):
        dc.generate_batch(mask_model, other, 5, seed=0)


# ---------------------------------------------------------------------------
# novelty

def test_novelty_of_corpus_recipe_is_zero():
    corpus = small_corpus()
    assert dc.novelty(corpus.grams[0], corpus) == 0


def test_novelty_after_removing_one_ingredient():
    corpus = small_corpus()
    reduced = recipe([150.0, 75.0, 0.0, 0.0])  # first recipe minus cheese
    assert dc.novelty(reduced, corpus) <= 1


def test_novelty_matches_brute_force_minimum():
    corpus = small_corpus()
    rng = np.random.default_rng(5)
    for _ in range(30):
        w = np.where(rng.random(4) < 0.7, rng.uniform(5, 400, 4), 0.0)
        if not (w > 0).any():
            w[0] = 100.0
        r = recipe(w)
        expected = min(scoring.sds(r, c) for c in corpus.grams)
        assert dc.novelty(r, corpus) == expected
    many = [recipe(np.where(rng.random(4) < 0.6, rng.uniform(5, 400, 4), 0.0) + [1, 0, 0, 0])
            for _ in range(25)]
    got = dc.novelty_many(np.stack(many), corpus, block=7)
    for r, g in zip(many, got):
        assert g == min(scoring.sds(r, c) for c in corpus.grams)


def test_novelty_empty_corpus():
    corpus = Corpus(vocabulary=VOCAB, grams=np.zeros((0, VOCAB.K)), splits=[])
    with pytest.raises(DataError):
        dc.novelty(recipe([100.0, 0, 0, 0]), corpus)


def corpus_of(rows) -> Corpus:
    rows = np.asarray(rows, dtype=float)
    vocab = IngredientVocabulary.from_ids([f"i{k}" for k in range(rows.shape[1])])
    return Corpus(vocabulary=vocab, grams=rows, splits=["train"] * len(rows))


def brute_force_novelty(samples, corpus_rows) -> list[int]:
    return [min(int(scoring._sds_rows(s, w)) for w in corpus_rows) for s in samples]


# few distinct amounts, with exact 2x ratios (1/2, 4.5/9) and near misses (2/3)
GRAMS = st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0, 4.5, 9.0])


@st.composite
def novelty_cases(draw):
    """(samples, corpus rows, block): samples mix random rows with exact
    copies of corpus rows, the corpus has duplicate rows, and block is 1,
    n, n + 1 or arbitrary, so n is below, equal to or not a multiple of it."""
    K = draw(st.integers(1, 5))
    row = st.lists(GRAMS, min_size=K, max_size=K)
    corpus_rows = draw(st.lists(row, min_size=1, max_size=10))
    corpus_rows += draw(st.lists(st.sampled_from(corpus_rows), max_size=3))
    samples = draw(st.lists(row | st.sampled_from(corpus_rows), max_size=12))
    n = len(samples)
    block = draw(st.sampled_from([1, max(n, 1), n + 1]) | st.integers(1, 2 * n + 2))
    return np.array(samples, dtype=float).reshape(n, K), np.array(corpus_rows), block


@settings(max_examples=300, deadline=None)
@given(novelty_cases())
@example((np.array([[2.0], [0.0], [7.0]]), np.array([[1.0], [1.0], [0.0]]), 2))  # K = 1
# Hamming-nearest rows tied at H = 0 whose first is at SDS 1 and the next at 0
@example((np.array([[1.0, 2.0, 0.0]]), np.array([[1.0, 4.0, 0.0], [1.0, 2.0, 0.0]]), 1))
# in one block, such a tie in both orders, and for the first sample two rows at H = 1,
# exactly the bound u = 1, whose SDS (1) cannot lower it
@example((np.array([[1.0, 2.0, 0.0, 0.0], [1.0, 2.0, 0.0, 3.0]]),
          np.array([[1.0, 8.0, 0.0, 0.0], [1.0, 2.0, 5.0, 0.0], [1.0, 2.0, 0.0, 3.0],
                    [1.0, 2.0, 0.0, 0.0], [1.0, 8.0, 0.0, 3.0]]), 2))
def test_novelty_many_equals_brute_force_minimum(case):
    samples, corpus_rows, block = case
    got = dc.novelty_many(samples, corpus_of(corpus_rows), block=block)
    assert got.dtype.kind == "i"
    assert got.tolist() == brute_force_novelty(samples, corpus_rows)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_novelty_many_exact_when_every_pair_is_a_candidate(data):
    """One shared presence pattern and every pair at ratio >= 2: the
    Hamming bound is 0 everywhere and prunes nothing, so every pair is
    evaluated, in several slices when the block is small."""
    K = data.draw(st.integers(1, 6))
    pattern = data.draw(st.lists(st.booleans(), min_size=K, max_size=K).filter(any))
    n, N = data.draw(st.integers(1, 20)), data.draw(st.integers(1, 15))
    levels = st.lists(st.sampled_from([1.0, 4.0, 16.0]), min_size=K, max_size=K)
    corpus_rows = np.array([data.draw(levels) for _ in range(N)]) * pattern
    samples = np.array([data.draw(levels) for _ in range(n)]) * 2.0 * pattern
    got = dc.novelty_many(samples, corpus_of(corpus_rows), block=data.draw(st.integers(1, n)))
    assert got.tolist() == brute_force_novelty(samples, corpus_rows) == [sum(pattern)] * n


def dense_bytes(n, N, K) -> int:
    """Temporaries of the dense kernel: 19 bytes per (sample, row, ingredient) cell."""
    return n * N * K * 19


def traced_peak(samples, corpus) -> int:
    tracemalloc.start()
    try:
        dc.novelty_many(samples, corpus)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_novelty_many_memory_at_realistic_sparsity():
    spec = load_synth_spec(DESK_SPEC)
    spec.count = 20_000
    corpus = synthesize_corpus(spec, seed=11)
    spec.count = 256
    samples = synthesize_corpus(spec, seed=12).grams
    assert traced_peak(samples, corpus) <= dense_bytes(256, 20_000, corpus.vocabulary.K) / 4


def test_novelty_many_checks_few_pairs_at_realistic_sparsity(monkeypatch):
    spec = load_synth_spec(DESK_SPEC)
    corpus = synthesize_corpus(spec, seed=11)
    samples = synthesize_corpus(spec, seed=12).grams[:256]
    checked = []

    def counting(a, b):
        checked.append(len(a))
        return scoring._sds_rows(a, b)

    monkeypatch.setattr(dc, "_sds_rows", counting)
    dc.novelty_many(samples, corpus)
    assert sum(checked) < 0.05 * len(samples) * len(corpus)


def test_novelty_many_memory_when_every_pair_is_a_candidate():
    rng = np.random.default_rng(13)
    n, N, K = 256, 1_000, 30
    corpus_rows = rng.uniform(1.0, 1.5, (N, K))
    samples = rng.uniform(4.0, 6.0, (n, K))
    corpus = corpus_of(corpus_rows)
    assert traced_peak(samples, corpus) <= dense_bytes(n, N, K)
    assert (dc.novelty_many(samples, corpus) == K).all()


# ---------------------------------------------------------------------------
# rediscovery

def test_rediscover_budget_zero(trained_models):
    mask_model, qty_model, _ = trained_models
    out = dc.rediscover(mask_model, qty_model, PLANT_W, budget=0, seed=6)
    assert not out.found and out.index is None


def test_rediscover_finds_planted_recipe(trained_models):
    mask_model, qty_model, _ = trained_models
    out = dc.rediscover(mask_model, qty_model, PLANT_W, budget=50, seed=7)
    assert out.found
    assert scoring.sds(out.recipe, PLANT_W) == 0
    # the reported index is verifiable through the deterministic stream
    again = dc.rediscover(mask_model, qty_model, PLANT_W, budget=50, seed=7)
    assert again.index == out.index


def test_rediscover_not_found_for_unmatched_reference(trained_models):
    mask_model, qty_model, _ = trained_models
    ref = recipe([0.0, 0.0, 25.0, 10.0])  # never generated by the delta models
    out = dc.rediscover(mask_model, qty_model, ref, budget=64, seed=8)
    assert not out.found and out.draws == 64


# ---------------------------------------------------------------------------
# selections

def impact_table(tmp_path):
    f = tmp_path / "impact.csv"
    f.write_text(
        "ingredient_id,land_m2_per_kg,eutro_gPO4eq_per_kg,water_L_per_kg,ghg_kgCO2eq_per_kg\n"
        "beef,100.0,200.0,1500.0,60.0\n"
        "bun,4.0,13.0,650.0,1.6\n"
        "cheese,88.0,98.0,5600.0,21.0\n"
        "onion,0.4,1.6,345.0,0.5\n")
    return scoring.load_impact_table(f, VOCAB)


def nutrient_table(tmp_path):
    fields = scoring.NUTRIENT_FIELDS
    rows = {
        "beef": {"kcal_per_100g": 250, "total_protein_foods_oz_per_100g": 3.5,
                 "saturated_fat_g_per_100g": 7.3, "unsaturated_fat_g_per_100g": 8.5,
                 "protein_g_per_100g": 26, "fat_g_per_100g": 17,
                 "sodium_mg_per_100g": 72},
        "bun": {"kcal_per_100g": 295, "refined_grains_oz_per_100g": 1.8,
                "whole_grains_oz_per_100g": 0.25, "sodium_mg_per_100g": 480,
                "added_sugars_g_per_100g": 5.5, "saturated_fat_g_per_100g": 1.5,
                "unsaturated_fat_g_per_100g": 3.5, "protein_g_per_100g": 9.8,
                "carbohydrate_g_per_100g": 52, "fat_g_per_100g": 4.8},
        "cheese": {"kcal_per_100g": 403, "dairy_cup_per_100g": 1.0,
                   "sodium_mg_per_100g": 621, "saturated_fat_g_per_100g": 21,
                   "unsaturated_fat_g_per_100g": 9.4, "protein_g_per_100g": 24.9,
                   "carbohydrate_g_per_100g": 1.3, "fat_g_per_100g": 33},
        "onion": {"kcal_per_100g": 40, "total_vegetables_cup_per_100g": 0.44,
                  "carbohydrate_g_per_100g": 9.3, "protein_g_per_100g": 1.1,
                  "sodium_mg_per_100g": 4, "unsaturated_fat_g_per_100g": 0.1,
                  "fat_g_per_100g": 0.1},
    }
    lines = ["ingredient_id," + ",".join(fields)]
    for ing in VOCAB.ids:
        vals = rows[ing]
        lines.append(ing + "," + ",".join(str(vals.get(f, 0.0)) for f in fields))
    f = tmp_path / "nutrients.csv"
    f.write_text("\n".join(lines) + "\n")
    return scoring.load_nutrient_table(f, VOCAB)


def test_discover_novel_min_zero_is_most_repeated():
    corpus = small_corpus()
    common = recipe([150.0, 75.0, 25.0, 0.0])
    rare = recipe([0.0, 75.0, 25.0, 10.0])
    batch = batch_of([rare] + [common] * 4)
    result = dc.discover_novel(batch, dc.novelty_many(batch, corpus), min_sds=0)
    np.testing.assert_array_equal(result.selected, common)
    assert result.group_count == 4
    assert result.popularity == pytest.approx(0.8)


def test_discover_novel_unsatisfiable():
    corpus = small_corpus()
    batch = batch_of([corpus.grams[0]] * 3)
    with pytest.raises(DataError):
        dc.discover_novel(batch, dc.novelty_many(batch, corpus), min_sds=VOCAB.K + 1)


def test_discover_novel_planted_cluster():
    corpus = small_corpus()
    novel = recipe([40.0, 0.0, 90.0, 55.0])  # far from every corpus recipe
    boring = corpus.grams[0]
    batch = batch_of([boring] * 6 + [novel] * 3)
    result = dc.discover_novel(batch, dc.novelty_many(batch, corpus), min_sds=3)
    np.testing.assert_array_equal(result.selected, novel)
    assert result.novelty_sds == dc.novelty(novel, corpus) >= 3
    assert result.group_count == 3


def test_discover_novel_reports_the_founder_novelty():
    corpus = small_corpus()
    near = recipe([150.0, 75.0, 25.0, 10.0])  # corpus row 0 plus onion: novelty 1
    batch = batch_of([corpus.grams[0], recipe([40.0, 0.0, 90.0, 55.0]), near, near])
    result = dc.discover_novel(batch, dc.novelty_many(batch, corpus), min_sds=1)
    np.testing.assert_array_equal(result.selected, near)
    assert result.novelty_sds == dc.novelty(near, corpus) == 1


def lowest_impact_decile(batch, table, required=()):
    """select-sustainable's rule: the lowest-impact decile of the rows holding required."""
    rows = dc.rows_with(batch, VOCAB, set(required))
    return dc.select_top(batch, -scoring.env_impact_scores(batch[rows], table), 0.1,
                         "sustainable", rows)


def test_lowest_decile_of_an_identical_batch(tmp_path):
    table = impact_table(tmp_path)
    r = recipe([150.0, 75.0, 25.0, 0.0])
    result = lowest_impact_decile(batch_of([r] * 5), table)
    np.testing.assert_array_equal(result.selected, r)
    assert (result.row, result.group_count, result.total_samples) == (0, 1, 5)
    assert "row" not in result.to_dict(VOCAB)


def test_lowest_decile_prefers_the_low_impact_cluster(tmp_path):
    table = impact_table(tmp_path)
    heavy = recipe([400.0, 75.0, 80.0, 0.0])   # beef and cheese heavy
    light = recipe([0.0, 75.0, 0.0, 40.0])     # bun and onion only
    batch = batch_of([heavy] * 12 + [light] * 8)
    result = lowest_impact_decile(batch, table)
    np.testing.assert_array_equal(result.selected, light)
    assert result.row == 12 and result.group_count == 2


def test_required_ingredients(tmp_path):
    table = impact_table(tmp_path)
    with_beef = recipe([100.0, 75.0, 0.0, 20.0])
    without = recipe([0.0, 75.0, 0.0, 20.0])
    batch = batch_of([without] * 15 + [with_beef] * 5)
    np.testing.assert_array_equal(dc.rows_with(batch, VOCAB, set()), np.arange(20))
    result = lowest_impact_decile(batch, table, {"beef"})
    assert result.selected[VOCAB.index_of("beef")] > 0
    with pytest.raises(DataError, match=r"no sample in the batch contains all of \['cheese'\]"):
        dc.rows_with(batch, VOCAB, {"cheese"})
    with pytest.raises(DataError, match="select.required: ingredient 'tofu' is not in the "
                                        "vocabulary"):
        dc.rows_with(batch, VOCAB, {"beef", "tofu"})


def test_the_decile_is_taken_within_the_required_rows(tmp_path):
    # no beef row is in the batch's lowest-impact decile, yet the constraint
    # is met: the decile is of the beef rows alone
    table = impact_table(tmp_path)
    light = recipe([0.0, 75.0, 0.0, 20.0])
    beef = recipe([200.0, 75.0, 0.0, 20.0])
    lean = recipe([60.0, 75.0, 0.0, 20.0])
    batch = batch_of([light] * 15 + [beef] * 3 + [lean] * 2)
    scores = scoring.env_impact_scores(batch, table)
    assert (np.argsort(scores, kind="stable")[:2] < 15).all()
    result = lowest_impact_decile(batch, table, {"beef"})
    np.testing.assert_array_equal(result.selected, lean)
    assert (result.row, result.group_count, result.total_samples) == (18, 1, 20)


def test_fraction_one_is_the_most_repeated_sample(tmp_path):
    table = nutrient_table(tmp_path)
    a = recipe([150.0, 75.0, 25.0, 0.0])
    b = recipe([0.0, 75.0, 0.0, 60.0])
    batch = batch_of([b] + [a] * 3 + [b])
    result = dc.select_top(batch, scoring.hei_totals(batch, table), 1.0, "nutritious")
    np.testing.assert_array_equal(result.selected, a)
    assert (result.row, result.group_count, result.popularity) == (1, 3, 0.6)


def test_top_fraction_by_hei(tmp_path):
    table = nutrient_table(tmp_path)
    # onion-rich recipe scores a far higher HEI than the beef-cheese one
    healthy = recipe([0.0, 60.0, 0.0, 200.0])
    greasy = recipe([250.0, 60.0, 80.0, 0.0])
    assert scoring.hei_totals(healthy, table)[0] > scoring.hei_totals(greasy, table)[0]
    batch = batch_of([greasy] * 18 + [healthy] * 2)
    result = dc.select_top(batch, scoring.hei_totals(batch, table), 0.1, "nutritious")
    np.testing.assert_array_equal(result.selected, healthy)
    assert result.group_count == 2 and result.rule == "nutritious"


def test_select_top_rejects_a_zero_fraction():
    batch = batch_of([recipe([150.0, 75.0, 0.0, 0.0])])
    with pytest.raises(DataError, match=r"select.top_fraction is 0.0, expected .* \(0, 1\]"):
        dc.select_top(batch, np.zeros(1), 0.0, "top")


def test_personalized_top_half_for_both_profiles(tmp_path):
    table = nutrient_table(tmp_path)
    teen = scoring.PersonProfile(age=15, sex="male", height_cm=180, weight_kg=80,
                                 activity="active")
    senior = scoring.PersonProfile(age=70, sex="female", height_cm=170, weight_kg=70,
                                   activity="moderate")
    balanced = recipe([120.0, 75.0, 15.0, 50.0])
    salty = recipe([0.0, 75.0, 200.0, 0.0])
    assert scoring.personalized_scores(balanced, teen, table)[0] \
        > scoring.personalized_scores(salty, teen, table)[0]
    batch = batch_of([salty] * 2 + [balanced] * 8)
    for profile in (teen, senior):
        scores = scoring.personalized_scores(batch, profile, table)
        result = dc.select_top(batch, scores, 0.5, "personalized")
        np.testing.assert_array_equal(result.selected, balanced)
