import hashlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipeforge import corpus as cp
from recipeforge import netcore, scoring
from recipeforge import quantity_diffusion as qd
from recipeforge.errors import DataError, read_json
from helpers import expected_marginals


DESK = Path(cp.__file__).parent / "data" / "desk"


def write_lines(path, lines):
    path.write_text("\n".join(json.dumps(obj) for obj in lines) + "\n")


def test_load_two_line_file(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, [
        {"ingredients": [{"id": "beef", "grams": 200}, {"id": "bun", "grams": 80}]},
        {"ingredients": [{"id": "beef", "grams": 150}]},
    ])
    corpus = cp.load_corpus(f)
    assert len(corpus) == 2
    assert corpus.vocabulary.ids == ["beef", "bun"]
    np.testing.assert_array_equal(corpus.grams > 0, [[True, True], [True, False]])
    np.testing.assert_array_equal(corpus.grams[1], [150.0, 0.0])


def test_load_rejects_zero_grams(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, [{"ingredients": [{"id": "beef", "grams": 0}]}])
    with pytest.raises(DataError) as err:
        cp.load_corpus(f)
    assert str(err.value) == f"{f}: line 1: grams of 'beef' is 0, expected a finite number in (0, inf)"


POSITIVE = "expected a finite number in (0, inf)"


@pytest.mark.parametrize("record, message", [
    ({"ingredients": [{"grams": 5}]}, "ingredient 0 must be an object with a string 'id'"),
    ({"ingredients": [{"id": None, "grams": 5}]}, "ingredient 0 must be an object with a string 'id'"),
    ({"ingredients": ["beef"]}, "ingredient 0 must be an object with a string 'id'"),
    ({"ingredients": [{"id": "beef", "grams": True}]}, f"grams of 'beef' is True, {POSITIVE}"),
    ({"ingredients": [{"id": "beef", "grams": "5"}]}, f"grams of 'beef' is '5', {POSITIVE}"),
    ({"ingredients": [{"id": "beef"}]}, f"grams of 'beef' is None, {POSITIVE}"),
    ({"ingredients": [{"id": "beef", "grams": float("nan")}]}, f"grams of 'beef' is nan, {POSITIVE}"),
    ({"ingredients": [{"id": "beef", "grams": 10 ** 400}]},
     f"grams of 'beef' is 1{'0' * 36}..., {POSITIVE}"),
    ({"ingredients": [{"id": "beef", "grams": 1}, {"id": "beef", "grams": 2}]},
     "duplicate ingredient id 'beef'"),
    ({"ingredients": []}, "empty recipe is not trainable"),
    ({"ingredients": [{"id": "beef", "grams": 1}], "split": "test"}, "unknown split tag 'test'"),
    ({"recipe": []}, "record must be an object with an 'ingredients' list"),
    (["beef"], "record must be an object with an 'ingredients' list"),
], ids=["no_id", "null_id", "bare_string", "bool_grams", "string_grams", "no_grams",
        "nan_grams", "huge_int_grams", "duplicate_id", "empty", "bad_split", "no_ingredients", "not_an_object"])
def test_load_rejects_bad_record_naming_file_and_line(tmp_path, record, message):
    f = tmp_path / "c.jsonl"
    write_lines(f, [{"ingredients": [{"id": "beef", "grams": 1}]}, record])
    with pytest.raises(DataError) as err:
        cp.load_corpus(f)
    assert str(err.value) == f"{f}: line 2: {message}"


def test_load_rejects_malformed_json(tmp_path):
    f = tmp_path / "c.jsonl"
    f.write_text('{"ingredients": [}\n')
    with pytest.raises(DataError, match=r"c\.jsonl: line 1: invalid JSON"):
        cp.load_corpus(f)


def test_load_rejects_unknown_id_with_vocabulary(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, [{"ingredients": [{"id": "tofu", "grams": 10}]}])
    vocab = cp.IngredientVocabulary.from_ids(["beef", "bun"])
    with pytest.raises(DataError, match=r"c\.jsonl: line 1: unknown ingredient id 'tofu'"):
        cp.load_corpus(f, vocab)


def test_load_rejects_empty_file(tmp_path):
    f = tmp_path / "c.jsonl"
    f.write_text("")
    with pytest.raises(DataError):
        cp.load_corpus(f)


def test_load_keeps_split_tags(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, [
        {"ingredients": [{"id": "beef", "grams": 100}], "split": "validation"},
        {"ingredients": [{"id": "beef", "grams": 100}]},
    ])
    corpus = cp.load_corpus(f)
    assert corpus.splits == ["validation", "train"]


@pytest.mark.parametrize("read", [cp.load_corpus, read_json], ids=["corpus", "json"])
def test_input_that_is_not_utf8_names_the_file(tmp_path, read):
    f = tmp_path / "utf16.jsonl"
    f.write_bytes(b"\xff\xfe" + '{"ingredients": []}'.encode("utf-16-le"))
    with pytest.raises(DataError,
                       match=r"utf16\.jsonl: not UTF-8 text \(invalid start byte at byte 0\)"):
        read(f)


CACHED_RECORDS = [
    {"ingredients": [{"id": "beef", "grams": 150.25}, {"id": "bun", "grams": 80}]},
    {"ingredients": [{"id": "bun", "grams": 1e-3}], "split": "validation"},
    {"ingredients": [{"id": "tofu", "grams": 95}, {"id": "beef", "grams": 1e5}]},
]


def _no_parse(*args):
    raise AssertionError("parsed although the cache holds this file")


def _assert_same_corpus(a, b):
    assert a.grams.dtype == b.grams.dtype and a.grams.tobytes() == b.grams.tobytes()
    assert a.splits == b.splits and a.vocabulary == b.vocabulary


@pytest.mark.parametrize("vocab", [None, cp.IngredientVocabulary(
    (("beef", "Beef patty"), ("bun", "Bun"), ("lettuce", "Lettuce"), ("tofu", "Tofu")))],
    ids=["vocabulary_from_file", "supplied_vocabulary"])
def test_cache_hit_equals_a_parse(tmp_path, monkeypatch, vocab):
    f, cache = tmp_path / "c.jsonl", tmp_path / "cache"
    write_lines(f, CACHED_RECORDS)
    parsed = cp.load_corpus(f, vocab)
    _assert_same_corpus(cp.load_corpus(f, vocab, cache_dir=cache), parsed)
    monkeypatch.setattr(cp, "_parse_corpus", _no_parse)
    _assert_same_corpus(cp.load_corpus(f, vocab, cache_dir=cache), parsed)
    key = vocab.fingerprint() if vocab else "auto"
    assert [e.name for e in cache.iterdir()] == \
        [f"corpus-{hashlib.sha256(f.read_bytes()).hexdigest()}-{key}.npz"]


def test_cache_misses_an_edited_file(tmp_path):
    f, cache = tmp_path / "c.jsonl", tmp_path / "cache"
    write_lines(f, CACHED_RECORDS)
    cp.load_corpus(f, cache_dir=cache)
    write_lines(f, CACHED_RECORDS[:2])
    _assert_same_corpus(cp.load_corpus(f, cache_dir=cache), cp.load_corpus(f))
    assert len(list(cache.iterdir())) == 2


def test_cache_keeps_one_entry_per_vocabulary(tmp_path, monkeypatch):
    f, cache = tmp_path / "c.jsonl", tmp_path / "cache"
    write_lines(f, CACHED_RECORDS)
    vocabs = [None, cp.IngredientVocabulary.from_ids(["beef", "bun", "tofu"]),
              cp.IngredientVocabulary.from_ids(["beef", "bun", "lettuce", "tofu"])]
    parsed = [cp.load_corpus(f, v) for v in vocabs]
    for v in vocabs:
        cp.load_corpus(f, v, cache_dir=cache)
    assert len(list(cache.iterdir())) == 3
    monkeypatch.setattr(cp, "_parse_corpus", _no_parse)
    for v, want in zip(vocabs, parsed):
        _assert_same_corpus(cp.load_corpus(f, v, cache_dir=cache), want)


def _checksummed_garbage(entry):
    """A well-formed entry whose grams no longer match their checksum."""
    with np.load(entry) as z:
        arrays = dict(z)
    arrays["grams"] = arrays["grams"] * 2
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def _bare_npy(entry):
    """A plain .npy array where an .npz archive belongs."""
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


@pytest.mark.parametrize("corrupt", [
    lambda e: e.read_bytes()[: len(e.read_bytes()) // 2],
    lambda e: b"",
    lambda e: b"not an npz file" * 10,
    lambda e: e.read_bytes().replace(b"grams.npy", b"grime.npy"),
    _checksummed_garbage,
    _bare_npy,
], ids=["truncated", "empty", "garbage", "member_missing", "checksum_mismatch", "bare_npy"])
def test_cache_reparses_and_rewrites_a_bad_entry(tmp_path, monkeypatch, corrupt):
    f, cache = tmp_path / "c.jsonl", tmp_path / "cache"
    write_lines(f, CACHED_RECORDS)
    parsed = cp.load_corpus(f)
    cp.load_corpus(f, cache_dir=cache)
    (entry,) = cache.iterdir()
    entry.write_bytes(corrupt(entry))
    _assert_same_corpus(cp.load_corpus(f, cache_dir=cache), parsed)
    assert list(cache.iterdir()) == [entry]
    monkeypatch.setattr(cp, "_parse_corpus", _no_parse)
    _assert_same_corpus(cp.load_corpus(f, cache_dir=cache), parsed)


def test_cache_entry_must_hold_the_vocabulary_ids(tmp_path):
    f, cache = tmp_path / "c.jsonl", tmp_path / "cache"
    write_lines(f, CACHED_RECORDS)
    mine = cp.IngredientVocabulary.from_ids(["apple", "beef", "bun", "tofu"])
    other = cp.IngredientVocabulary.from_ids(["beef", "bun", "tofu", "zucchini"])
    cp.load_corpus(f, other, cache_dir=cache)
    (entry,) = cache.iterdir()
    entry.rename(str(entry).replace(other.fingerprint(), mine.fingerprint()))
    _assert_same_corpus(cp.load_corpus(f, mine, cache_dir=cache), cp.load_corpus(f, mine))


@pytest.mark.parametrize("content, vocab, message", [
    ('{"ingredients": [}\n', None, "line 1: invalid JSON"),
    ('{"ingredients": [{"id": "tofu", "grams": 10}]}\n', ["beef"],
     "line 1: unknown ingredient id 'tofu'"),
    ('{"ingredients": [{"id": "beef", "grams": -1}]}\n', None,
     "line 1: grams of 'beef' is -1, expected a finite number in (0, inf)"),
    ("\n \n", None, "empty corpus file"),
], ids=["invalid_json", "unknown_id", "negative_grams", "empty"])
def test_cache_leaves_no_entry_for_a_bad_corpus(tmp_path, content, vocab, message):
    f, cache = tmp_path / "c.jsonl", tmp_path / "cache"
    f.write_text(content)
    vocab = cp.IngredientVocabulary.from_ids(vocab) if vocab else None
    with pytest.raises(DataError) as plain:
        cp.load_corpus(f, vocab)
    with pytest.raises(DataError) as cached:
        cp.load_corpus(f, vocab, cache_dir=cache)
    assert str(cached.value) == str(plain.value)
    assert str(plain.value).startswith(f"{f}: {message}")
    assert not cache.exists() or not any(cache.iterdir())


def test_build_vocabulary_dedups(tmp_path):
    f = tmp_path / "c.jsonl"
    write_lines(f, [
        {"ingredients": [{"id": "beef", "grams": 100}, {"id": "bun", "grams": 50}]},
        {"ingredients": [{"id": "beef", "grams": 80}]},
    ])
    vocab = cp.load_corpus(f).vocabulary
    assert vocab.K == 2
    assert vocab.ids == ["beef", "bun"]


def test_build_vocabulary_empty_file_errors(tmp_path):
    f = tmp_path / "c.jsonl"
    f.write_text("\n")
    with pytest.raises(DataError):
        cp.load_corpus(f)


def test_vocabulary_order_independent(tmp_path):
    f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_lines(f1, [{"ingredients": [{"id": "bun", "grams": 1}, {"id": "beef", "grams": 1}]}])
    write_lines(f2, [{"ingredients": [{"id": "beef", "grams": 1}, {"id": "bun", "grams": 1}]}])
    assert cp.load_corpus(f1).vocabulary.ids == cp.load_corpus(f2).vocabulary.ids


def test_vocabulary_index_is_sorted_rank():
    vocab = cp.IngredientVocabulary.from_ids(["tomato", "beef", "onion"])
    assert vocab.ids == ["beef", "onion", "tomato"]
    assert [vocab.index_of(i) for i in vocab.ids] == [0, 1, 2]
    with pytest.raises(KeyError):
        vocab.index_of("bun")


def test_vocabulary_file_round_trip(tmp_path):
    vocab = cp.IngredientVocabulary((("beef", "Beef patty"), ("bun", "bun")))
    f = tmp_path / "v.json"
    cp.write_vocabulary(f, vocab)
    loaded = cp.load_vocabulary(f)
    assert loaded.entries == vocab.entries


def test_recipe_vector_round_trip_simple():
    vocab = cp.IngredientVocabulary.from_ids(["beef", "bun"])
    corpus = cp.Corpus(vocabulary=vocab, grams=[[200.0, 0.0]], splits=["train"])
    assert corpus.grams.dtype == np.float64
    np.testing.assert_array_equal(corpus.grams > 0, [[True, False]])
    np.testing.assert_array_equal(corpus.rows("train"), [[200.0, 0.0]])
    assert corpus.rows("validation").shape == (0, 2)
    assert vocab.items(corpus.grams[0]) == [("beef", 200.0)]


def test_decode_zeroes_stray_weights_off_mask():
    codec = qd.WeightCodec(log_mean=np.full(2, np.log(200.0)), log_std=np.ones(2))
    grams = qd.decode_weights(np.array([0.0, 7.0]), np.array([1, 0]), codec)
    np.testing.assert_array_equal(grams, [200.0, 0.0])


def test_all_zero_mask_is_valid_but_degenerate():
    vocab = cp.IngredientVocabulary.from_ids(["beef", "bun"])
    corpus = cp.Corpus(vocabulary=vocab, grams=np.zeros((1, 2)), splits=["train"])
    assert not (corpus.grams > 0).any() and not vocab.items(corpus.grams[0])


def test_recipe_invariant_enforced():
    # the grams matrix is (n, K) over the vocabulary, finite and nonnegative
    vocab = cp.IngredientVocabulary.from_ids(["beef", "bun"])
    for grams, message in [([[1.0, 2.0, 3.0]], "matrix over the vocabulary"),
                           ([1.0, 2.0], "matrix over the vocabulary"),
                           ([[1.0, np.nan]], "finite and nonnegative"),
                           ([[np.inf, 1.0]], "finite and nonnegative"),
                           ([[-1.0, 5.0]], "finite and nonnegative")]:
        with pytest.raises(DataError, match=message):
            cp.Corpus(vocabulary=vocab, grams=grams, splits=["train"])


def test_corpus_rejects_bad_split_tags():
    vocab = cp.IngredientVocabulary.from_ids(["beef"])
    with pytest.raises(DataError, match=r"unknown split tags: \['test'\]"):
        cp.Corpus(vocabulary=vocab, grams=[[1.0], [2.0]], splits=["train", "test"])
    with pytest.raises(DataError, match="one split tag per recipe"):
        cp.Corpus(vocabulary=vocab, grams=[[1.0], [2.0]], splits=["train"])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1000.0), min_size=1, max_size=12))
def test_round_trip_identity_property(raw):
    weights = np.array([w if w > 1e-6 else 0.0 for w in raw])
    vocab = cp.IngredientVocabulary.from_ids([f"i{j:02d}" for j in range(len(weights))])
    r = weights
    if (r > 0).any():  # an empty recipe is not a valid corpus line
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "c.jsonl"
            cp.write_corpus(path, cp.Corpus(vocabulary=vocab, grams=[r], splits=["train"]))
            r = cp.load_corpus(path, vocab).grams[0]
    assert vocab.items(r) == [(i, w) for i, w in zip(vocab.ids, weights) if w > 0]
    np.testing.assert_array_equal(r, weights)


def small_spec(n=2000, pairs=(), planted=()):
    # marginals chosen so an all-absent draw is vanishingly rare; the
    # empty-mask redraw would otherwise tilt the marginals measurably
    ings = [
        cp.SynthIngredient("beef", 0.5, 5.0, 0.3),
        cp.SynthIngredient("bun", 0.9, 4.3, 0.2),
        cp.SynthIngredient("cheese", 0.35, 3.2, 0.3),
        cp.SynthIngredient("lettuce", 0.5, 3.0, 0.4),
        cp.SynthIngredient("onion", 0.3, 3.4, 0.4),
        cp.SynthIngredient("salt", 0.85, 1.1, 0.5),
        cp.SynthIngredient("tomato", 0.5, 3.7, 0.35),
    ]
    return cp.SynthSpec(ingredients=ings, pairs=list(pairs), planted=list(planted), count=n)


def test_synthesize_deterministic():
    spec = small_spec(n=500)
    a = cp.synthesize_corpus(spec, seed=42)
    b = cp.synthesize_corpus(spec, seed=42)
    assert len(a) == len(b) == 500
    np.testing.assert_array_equal(a.grams, b.grams)
    c = cp.synthesize_corpus(spec, seed=43)
    assert any(not np.array_equal(ra, rc) for ra, rc in zip(a.grams, c.grams))


# sha256 of the desk corpus's grams and of its split tags joined by newlines,
# recorded at commit 127397e. Every pipeline starts from this draw, so a change
# to synthesize_corpus that moves a bit of it moves every downstream output.
DESK_SYNTH_PINS = {
    1: "a0ce9930aa3d972c5e4bc29a024325385bebd9fd0656b499732cc234b711ace3",
    5: "74c42020e3b2ad1ef0c2a9acbf66577fb456c21f89c3720d7021d290025360be",
    123456: "cd7bdcc9818d185b414ac97b1b0dff38325c902e2c0288a3a530cb29792fc947",
}
DESK_SPLITS_PIN = "44848e036f84b1fac76abe960b34f92919e806574286625f885d5ae223e22ce8"


@pytest.mark.parametrize("seed", sorted(DESK_SYNTH_PINS))
def test_desk_synth_corpus_bits_are_pinned(seed):
    corpus = cp.synthesize_corpus(cp.load_synth_spec(DESK / "synth_spec.json"), seed)
    assert hashlib.sha256(np.ascontiguousarray(corpus.grams).tobytes()).hexdigest() \
        == DESK_SYNTH_PINS[seed]
    assert hashlib.sha256("\n".join(corpus.splits).encode()).hexdigest() == DESK_SPLITS_PIN


def test_synthesize_marginal_within_binomial_ci():
    # p = 0.5, n = 10,000: 99% CI half-width = 2.576 * sqrt(0.25/n) = 0.0129
    spec = small_spec(n=10_000)
    corpus = cp.synthesize_corpus(spec, seed=7)
    masks = corpus.grams > 0
    beef = corpus.vocabulary.index_of("beef")
    assert abs(masks[:, beef].mean() - 0.5) < 0.02


def test_synthesize_planted_frequency():
    planted = ({"beef": 150.0, "bun": 80.0}, 0.1)
    spec = small_spec(n=10_000, planted=[planted])
    corpus = cp.synthesize_corpus(spec, seed=9)
    target_mask = np.zeros(7, dtype=bool)
    target_mask[corpus.vocabulary.index_of("beef")] = True
    target_mask[corpus.vocabulary.index_of("bun")] = True
    weights = corpus.grams
    masks = weights > 0
    exact = ((masks == target_mask).all(axis=1)
             & (weights[:, corpus.vocabulary.index_of("beef")] == 150.0)).sum()
    assert 900 <= exact <= 1100


def test_synthesize_marginals_converge_to_spec():
    # module invariant at n = 50,000 with planted-mixture adjustment
    planted = ({"beef": 150.0, "bun": 80.0}, 0.08)
    spec = small_spec(n=50_000, pairs=[("lettuce", "tomato", 0.6)], planted=[planted])
    corpus = cp.synthesize_corpus(spec, seed=3)
    masks = corpus.grams > 0
    np.testing.assert_array_less(np.abs(masks.mean(0) - expected_marginals(spec)), 0.01)


def test_synthesize_planted_pair_correlation():
    spec = small_spec(n=20_000, pairs=[("lettuce", "tomato", 0.8)])
    corpus = cp.synthesize_corpus(spec, seed=5)
    masks = corpus.grams > 0
    i = corpus.vocabulary.index_of("lettuce")
    j = corpus.vocabulary.index_of("tomato")
    phi = np.corrcoef(masks[:, i], masks[:, j])[0, 1]
    assert abs(phi - 0.8) < 0.03


def test_synthesize_negative_correlation():
    spec = small_spec(n=20_000, pairs=[("beef", "tomato", -0.5)])
    corpus = cp.synthesize_corpus(spec, seed=6)
    masks = corpus.grams > 0
    i = corpus.vocabulary.index_of("beef")
    j = corpus.vocabulary.index_of("tomato")
    phi = np.corrcoef(masks[:, i], masks[:, j])[0, 1]
    assert abs(phi - (-0.5)) < 0.03


def test_synthesize_rejects_infeasible_correlation():
    spec = small_spec(pairs=[("cheese", "onion", -0.9)])  # marginals 0.35/0.3
    with pytest.raises(DataError):
        cp.synthesize_corpus(spec, seed=0)


@pytest.mark.parametrize("log_mean, how", [(-800.0, "underflow to 0"), (1000.0, "overflow to inf")])
def test_synthesize_rejects_grams_that_underflow_or_overflow(log_mean, how):
    # exp(-800) is 0.0 and exp(1000) is inf in float64
    spec = small_spec(n=50)
    spec.ingredients[2].weight_log_mean = log_mean
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError) as e:
            cp.synthesize_corpus(spec, seed=0)
    assert str(e.value) == (f"field ingredients[2].weight_log_mean is {log_mean!r}: "
                            f"grams drawn for cheese {how}")


# subnormal, huge, integral and ordinary grams, and absent cells
_WRITTEN_GRAMS = st.one_of(st.just(0.0), st.floats(5e-324, 2e-308), st.floats(1e300, 1.7e308),
                           st.integers(1, 10**6).map(float), st.floats(0.0, 1e4))


@settings(max_examples=100, deadline=None)
@given(st.sets(st.text(min_size=1, max_size=6), min_size=1, max_size=5).flatmap(
           lambda ids: st.tuples(st.just(sorted(ids)), st.lists(st.tuples(
               st.lists(_WRITTEN_GRAMS, min_size=len(ids), max_size=len(ids)),
               st.sampled_from([cp.TRAIN, cp.VALIDATION])), min_size=1, max_size=6))),
       st.booleans(), st.sampled_from([1, 97]))
def test_write_corpus_writes_json_dumps_bytes(table, include_split, repeats):
    # ids are any text: quotes, backslashes, control and non-ASCII characters;
    # 97 repeats of up to 6 rows cross the writer's 256-row blocks at varied offsets
    ids, rows = table
    rows = rows * repeats
    corpus = cp.Corpus(vocabulary=cp.IngredientVocabulary(tuple((i, i) for i in ids)),
                       grams=[g for g, _ in rows], splits=[s for _, s in rows])
    want = "".join(json.dumps({"ingredients": [{"id": i, "grams": g}
                                               for i, g in zip(ids, grams) if g > 0],
                               **({"split": split} if include_split else {})}) + "\n"
                   for grams, split in rows)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "c.jsonl"
        cp.write_corpus(path, corpus, include_split=include_split)
        assert path.read_bytes() == want.encode()


def test_synthesize_split_partition():
    spec = small_spec(n=1000)
    corpus = cp.synthesize_corpus(spec, seed=1, val_fraction=0.2)
    assert corpus.splits.count("validation") == 200
    assert corpus.splits.count("train") == 800


def test_corpus_file_round_trip(tmp_path):
    spec = small_spec(n=50)
    corpus = cp.synthesize_corpus(spec, seed=2)
    f = tmp_path / "c.jsonl"
    cp.write_corpus(f, corpus)
    loaded = cp.load_corpus(f, corpus.vocabulary)
    assert loaded.splits == corpus.splits
    np.testing.assert_array_equal(loaded.grams, corpus.grams)


def test_synth_spec_json_round_trip(tmp_path):
    doc = {
        "count": 10,
        "ingredients": [
            {"id": "beef", "marginal": 0.5, "weight_log_mean": 5.0, "weight_log_sd": 0.3},
            {"id": "bun", "marginal": 0.9, "weight_log_mean": 4.3, "weight_log_sd": 0.2},
        ],
        "pairs": [{"a": "beef", "b": "bun", "correlation": 0.2}],
        "planted": [{"frequency": 0.2, "ingredients": [{"id": "beef", "grams": 150}]}],
    }
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(doc))
    spec = cp.load_synth_spec(f)
    assert len(spec.ingredients) == 2 and spec.count == 10
    assert spec.pairs == [("beef", "bun", 0.2)]
    corpus = cp.synthesize_corpus(spec, seed=0)
    assert len(corpus) == 10


@pytest.mark.parametrize("key, doc", [
    ("pairs", {"pairs": [{"a": "beef", "b": "tofu", "correlation": 0.2}]}),
    ("planted", {"planted": [{"frequency": 0.2, "ingredients": [{"id": "tofu", "grams": 90}]}]}),
])
def test_synth_spec_rejects_unknown_ingredient_ids(tmp_path, key, doc):
    doc.update(count=10, ingredients=[
        {"id": "beef", "marginal": 0.5, "weight_log_mean": 5.0, "weight_log_sd": 0.3},
        {"id": "bun", "marginal": 0.9, "weight_log_mean": 4.3, "weight_log_sd": 0.2}])
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=rf"field {key} names unknown ingredients: \['tofu'\]"):
        cp.load_synth_spec(f)


@pytest.mark.parametrize("read", [
    cp.load_vocabulary,
    cp.load_synth_spec,
    lambda p: scoring.load_impact_table(DESK / "impact_table.csv", cp.IngredientVocabulary.from_ids(
        ln.split(",")[0] for ln in (DESK / "impact_table.csv").read_text().splitlines()[1:]), p),
    lambda p: netcore.read_checkpoint(p, "mask_model", lambda k: k + 3),
], ids=["vocabulary", "synth_spec", "impact_norms", "checkpoint"])
def test_json_inputs_name_the_file_when_they_do_not_parse(tmp_path, read):
    f = tmp_path / "broken.json"
    f.write_text('[{"id": "beef", ')
    with pytest.raises(DataError, match=r"broken\.json: invalid JSON \(Expecting"):
        read(f)


@pytest.mark.parametrize("entries, message", [
    ([{"id": None}, {"id": "beef"}], "entry 0 field id must be a string, got None"),
    ([{"id": "beef"}, {"id": 7}], "entry 1 field id must be a string, got 7"),
    ([{"id": "beef", "name": 3}], "entry 0 field name must be a string, got 3"),
], ids=["null_id", "int_id", "int_name"])
def test_load_vocabulary_requires_string_id_and_name(tmp_path, entries, message):
    f = tmp_path / "v.json"
    f.write_text(json.dumps(entries))
    with pytest.raises(DataError, match=rf"v\.json: {message}$"):
        cp.load_vocabulary(f)


@pytest.mark.parametrize("entries, message", [
    ([{"id": "bun"}, {"id": "beef"}], "vocabulary ids must be unique and sorted"),
    ([], "vocabulary must contain at least one ingredient"),
], ids=["unsorted", "empty"])
def test_load_vocabulary_errors_name_the_file(tmp_path, entries, message):
    f = tmp_path / "v.json"
    f.write_text(json.dumps(entries))
    with pytest.raises(DataError, match=rf"^{re.escape(str(f))}: {message}$"):
        cp.load_vocabulary(f)


def spec_doc(**changes):
    doc = {"count": 10, "ingredients": [
        {"id": "beef", "marginal": 0.5, "weight_log_mean": 5.0, "weight_log_sd": 0.3},
        {"id": "bun", "marginal": 0.9, "weight_log_mean": 4.3, "weight_log_sd": 0.2}]}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("doc, message", [
    (spec_doc(ingredients=[{"id": 7, "marginal": 0.5, "weight_log_mean": 5.0,
                            "weight_log_sd": 0.3}]),
     "field ingredients[0].id is 7, expected a string"),
    (spec_doc(pairs=[{"a": None, "b": "bun", "correlation": 0.2}]),
     "field pairs[0].a is None, expected a string"),
    (spec_doc(pairs=[{"a": "beef", "b": 1, "correlation": 0.2}]),
     "field pairs[0].b is 1, expected a string"),
    (spec_doc(planted=[{"frequency": 0.2, "ingredients": [{"id": True, "grams": 90}]}]),
     "field planted[0].ingredients[0].id is True, expected a string"),
], ids=["ingredient_id", "pair_a", "pair_b", "planted_id"])
def test_synth_spec_requires_string_ids(tmp_path, doc, message):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(DataError) as err:
        cp.load_synth_spec(f)
    assert str(err.value) == f"{f}: {message}"


@pytest.mark.parametrize("doc, message", [
    ({key: v for key, v in spec_doc().items() if key != "count"},
     "field count is missing"),
    (spec_doc(count="ten"), "field count is 'ten', expected an integer"),
    ([spec_doc()], "synth spec must be a JSON object"),
    (spec_doc(count=0), r"field count is 0, expected an integer in \[1, inf\)$"),
    (spec_doc(pairs=[{"a": "beef", "b": "tofu", "correlation": 0.2}]),
     "synth spec field pairs names unknown ingredients"),
], ids=["missing_count", "bad_count", "not_an_object", "zero_count", "unknown_pair_id"])
def test_synth_spec_errors_name_the_file(tmp_path, doc, message):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=rf"^{re.escape(str(f))}: {message}"):
        cp.load_synth_spec(f)


# each numeric field of a synth spec, the path to it in spec_doc's document
# and the values it takes
NUMBER_FIELDS = {
    "count": (("count",), "an integer in [1, inf)"),
    "ingredients[0].marginal": (("ingredients", 0, "marginal"), "a finite number in [0, 1]"),
    "ingredients[1].weight_log_mean": (("ingredients", 1, "weight_log_mean"), "a finite number"),
    "ingredients[0].weight_log_sd": (("ingredients", 0, "weight_log_sd"),
                                     "a finite number in (0, inf)"),
    "pairs[0].correlation": (("pairs", 0, "correlation"), "a finite number in (-1, 1)"),
    "planted[0].frequency": (("planted", 0, "frequency"), "a finite number in (0, 1]"),
    "planted[0].ingredients[0].grams": (("planted", 0, "ingredients", 0, "grams"),
                                        "a finite number in (0, inf)"),
}


def expected_number(field):
    return NUMBER_FIELDS[field][1]


@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_synth_spec_rejects_booleans_as_numbers(tmp_path, field):
    doc = spec_doc(pairs=[{"a": "beef", "b": "bun", "correlation": 0.2}],
                   planted=[{"frequency": 0.2, "ingredients": [{"id": "beef", "grams": 150}]}])
    *parents, key = NUMBER_FIELDS[field][0]
    node = doc
    for part in parents:
        node = node[part]
    node[key] = True
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(DataError) as err:
        cp.load_synth_spec(f)
    assert str(err.value) == f"{f}: field {field} is True, expected {expected_number(field)}"


@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_synth_spec_rejects_strings_as_numbers(tmp_path, field):
    doc = spec_doc(pairs=[{"a": "beef", "b": "bun", "correlation": 0.2}],
                   planted=[{"frequency": 0.2, "ingredients": [{"id": "beef", "grams": 150}]}])
    *parents, key = NUMBER_FIELDS[field][0]
    node = doc
    for part in parents:
        node = node[part]
    node[key] = str(node[key])
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(DataError) as err:
        cp.load_synth_spec(f)
    assert str(err.value) == (f"{f}: field {field} is {node[key]!r}, "
                              f"expected {expected_number(field)}")


def test_synth_spec_count_must_be_integral(tmp_path):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec_doc(count=10.7)))
    with pytest.raises(DataError) as err:
        cp.load_synth_spec(f)
    assert str(err.value) == f"{f}: field count is 10.7, expected an integer in [1, inf)"
    f.write_text(json.dumps(spec_doc(count=10.0)))
    assert cp.load_synth_spec(f).count == 10
