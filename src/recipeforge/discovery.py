"""Generation and selection pipelines.

A batch of generated recipes is one (n, K) grams matrix; an ingredient
is present where its grams are > 0. _draw is the one draw of the sample
stream: chunk c couples the two models, a mask from the (seed, c)
generators, then weights given the mask. generate_batch draws a batch
chunk by chunk; rediscovery draws the stream until a row matches a
reference at SDS = 0, a window of chunks at a time: the first window is
one chunk and each next one doubles, up to a fixed row count, so memory
is constant in the budget and an early match costs about what it costs
chunk by chunk. The selections reproduce the discovery recipes:
novelty-filtered repetition counting, lowest-decile environmental,
top-fraction nutrition and personalized selection; each returns the
founder of a group of the batch, a (K,) grams row. The CLI writes the
group tables, landscape included, from these scorers and group_recipes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import netcore
from .corpus import Corpus
from .errors import DataError, NumericError, number
from .mask_diffusion import MaskDiffusionModel, _sample_chunk
from .quantity_diffusion import QuantityScoreModel, decode_weights, reverse_integrate
from .scoring import (HEIComponentStandard, ImpactTable, NutrientTable, PersonProfile,
                      _sds_rows, env_impact_scores, group_recipes, hei_totals,
                      personalized_scores, sds)

# distinct stream for quantity noise so mask and weight chunks never share
# a seed sequence
_QTY_STREAM = 0x9E3779B9
# rows of stream chunks rediscover samples in lockstep, at most, per window
_WINDOW_ROWS = 512


@dataclass
class DiscoveryResult:
    selected: np.ndarray = field(repr=False)  # the founder's (K,) grams, to_dict's ingredients
    rule: str
    group_count: int
    total_samples: int
    popularity: float
    novelty_sds: int | None = None
    env_score: float | None = None
    hei_total: float | None = None

    def to_dict(self, vocabulary) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.repr}
        doc["ingredients"] = [{"id": i, "grams": g} for i, g in vocabulary.items(self.selected)]
        return doc


def check_models(mask_model: MaskDiffusionModel, quantity_model: QuantityScoreModel) -> None:
    """DataError unless the two models share a vocabulary fingerprint and size."""
    if mask_model.vocab_fingerprint != quantity_model.vocab_fingerprint:
        raise DataError("mask and quantity models were trained on different vocabularies")
    if mask_model.K != quantity_model.K:
        raise DataError("mask and quantity models disagree on vocabulary size")


def generate_batch(mask_model: MaskDiffusionModel, quantity_model: QuantityScoreModel,
                   count: int, seed: int, *, chunk_size: int = 2048,
                   threads: int = 1) -> np.ndarray:
    """Draw count complete recipes, a (count, K) grams matrix: chunk c of
    chunk_size rows (the last one cut to count) is _draw of stream chunk c,
    so the batch is the same for a fixed seed and chunk size at any thread
    count."""
    check_models(mask_model, quantity_model)
    return netcore.map_chunks(
        count, chunk_size, threads,
        lambda c, rows: _draw(mask_model, quantity_model, seed, range(c, c + 1),
                              rows.stop - rows.start))


def _draw(mask_model: MaskDiffusionModel, quantity_model: QuantityScoreModel, seed: int,
          chunks: range, n: int) -> np.ndarray:
    """The (n, K) grams of the given stream chunks, drawn in lockstep as
    len(chunks) equal blocks: block j is what chunk c = chunks[j] draws
    alone, masks from chunk_rng(seed, c), then weights given them from the
    independent chunk_rng(seed + _QTY_STREAM, c)."""
    masks, _ = _sample_chunk(mask_model, n, [netcore.chunk_rng(seed, c) for c in chunks])
    z = reverse_integrate(quantity_model.chunk_score(masks), masks, quantity_model.sde,
                          [netcore.chunk_rng(seed + _QTY_STREAM, c) for c in chunks])
    return decode_weights(z, masks, quantity_model.codec)


def novelty(grams: np.ndarray, corpus: Corpus) -> int:
    """Minimum SDS between a (K,) grams row and any corpus row."""
    if np.shape(grams) != (corpus.vocabulary.K,):
        raise DataError("recipe does not match corpus vocabulary")
    return int(novelty_many(np.asarray(grams, dtype=float)[None, :], corpus)[0])


def novelty_many(samples: np.ndarray, corpus: Corpus, block: int = 256) -> np.ndarray:
    """Novelty of each row of an (n, K) grams matrix, block rows at a time.

    Exact, but only a few (sample, corpus row) pairs are checked in full.
    SDS(a, b) >= H(a, b), the Hamming distance between the two presence masks,
    because presence in exactly one recipe is one of the terms SDS counts and
    the ratio term only adds. Per block, H comes from one matrix product,
    |a| + |b| - 2 a.b on 0/1 float32s: exact, because every value is an integer
    <= K, and half the bytes of float64. The exact SDS to each sample's
    Hamming-nearest corpus row is an upper bound u on its novelty, and a row j
    can only lower it if H(sample, j) < u; SDS is computed for those pairs
    alone and reduced with a running minimum. Candidate pairs are evaluated in
    slices of at most block * N / 8, so even when every pair is a candidate a
    block holds less memory than a dense (block, N, K) SDS.
    """
    if len(corpus) == 0:
        raise DataError("novelty undefined against an empty corpus")
    W = corpus.grams
    P = (W > 0).astype(np.float32)
    sizes = P.sum(axis=1)
    N = len(W)
    step = max(1, block * N // 8)
    out = np.zeros(len(samples), dtype=int)
    for lo in range(0, len(samples), block):
        S = samples[lo:lo + block]
        Ps = (S > 0).astype(np.float32)
        ham = Ps @ P.T
        ham *= -2.0
        ham += Ps.sum(axis=1)[:, None]
        ham += sizes
        best = _sds_rows(S, W[ham.argmin(axis=1)])
        pairs = np.flatnonzero(ham < best[:, None])
        del ham
        for c in range(0, pairs.size, step):
            rows, cols = np.divmod(pairs[c:c + step], N)
            np.minimum.at(best, rows, _sds_rows(S[rows], W[cols]))
        out[lo:lo + block] = best
    return out


@dataclass
class RediscoveryOutcome:
    found: bool
    index: int | None
    recipe: np.ndarray | None  # (K,) grams row of the first match
    draws: int


def rediscover(mask_model: MaskDiffusionModel, quantity_model: QuantityScoreModel,
               reference: np.ndarray, budget: int, seed: int, *,
               chunk_size: int = 64) -> RediscoveryOutcome:
    """Stream samples until one matches the (K,) reference grams row at
    SDS = 0.

    The stream is made of whole chunks of chunk_size, chunk c drawn from
    the (seed, c) generators, so the i-th sample depends only on (models,
    seed, chunk_size): it is row i of generate_batch at the same seed and
    chunk size whenever that batch's count is a multiple of chunk_size.
    Chunks are computed a window at a time: the chunks of a window are
    sampled in lockstep, one network call per step for all of them, then
    decoded and compared in stream order. The first window is one chunk
    and each next window doubles, up to _WINDOW_ROWS rows, so a search
    that ends early computes few chunks past its match, a long one pays
    the per-step cost once per _WINDOW_ROWS rows, and memory stays
    constant in the budget. A chunk's draws in a window equal its draws
    alone to the bit when the network product gives its rows the same
    BLAS kernel inside the window as alone, as it does at 64-row chunks
    of the desk models. With fewer than about 20 outputs, or chunks of
    fewer than about 40 rows, the product can differ in the last bits,
    so draw i equals generate_batch's row i only up to that rounding.
    Returns the first matching stream index, or not-found once the
    budget is exhausted.
    """
    check_models(mask_model, quantity_model)
    if np.shape(reference) != (mask_model.K,):
        raise DataError("reference recipe does not match model vocabulary")
    chunks = range(-(-budget // chunk_size))
    most = max(1, _WINDOW_ROWS // chunk_size)
    first, size = 0, 1
    while first < len(chunks):
        window = chunks[first:first + size]
        try:
            found = _first_match(mask_model, quantity_model, reference, budget, seed, chunk_size,
                                 window)
        except NumericError:
            # one chunk at a time: an earlier chunk's match still wins, and
            # the error raised is the first failing chunk's
            for c in window:
                found = _first_match(mask_model, quantity_model, reference, budget, seed,
                                     chunk_size, range(c, c + 1))
                if found is not None:
                    break
        if found is not None:
            return found
        first, size = first + size, min(2 * size, most)
    return RediscoveryOutcome(found=False, index=None, recipe=None, draws=budget)


def _first_match(mask_model: MaskDiffusionModel, quantity_model: QuantityScoreModel,
                 reference: np.ndarray, budget: int, seed: int, chunk_size: int,
                 chunks: range) -> RediscoveryOutcome | None:
    """The first match to reference among the draws of the given stream
    chunks within the budget, or None."""
    lo = chunks[0] * chunk_size
    grams = _draw(mask_model, quantity_model, seed, chunks, len(chunks) * chunk_size)[:budget - lo]
    hits = np.flatnonzero(sds(grams, reference) == 0)
    if not hits.size:
        return None
    index = lo + int(hits[0])
    return RediscoveryOutcome(found=True, index=index, recipe=grams[hits[0]], draws=index + 1)


def _select(batch: np.ndarray, keep: np.ndarray, rule: str) -> tuple[DiscoveryResult, int]:
    """The largest SDS-0 group among batch[keep] as a result under rule,
    and its founder's row in batch."""
    kept = batch[keep]
    best = group_recipes(kept)[0]
    result = DiscoveryResult(selected=kept[best.founder_index], rule=rule, group_count=best.count,
                             total_samples=len(batch), popularity=best.count / len(batch))
    return result, int(keep[best.founder_index])


def _top_fraction(batch: np.ndarray, top_fraction: float, score_of) -> np.ndarray:
    """Rows of the top_fraction of batch (at least one) by score_of(batch), in row order."""
    if len(batch) == 0:
        raise DataError("batch is empty")
    number(top_fraction, "select.top_fraction", "(0, 1]")
    k = max(1, math.ceil(top_fraction * len(batch)))
    return np.sort(np.argsort(-score_of(batch), kind="stable")[:k])


def discover_novel(batch: np.ndarray, nov: np.ndarray, min_sds: int) -> DiscoveryResult:
    """Most repeated row of the (n, K) grams batch among those whose
    novelty in nov, one int per row as novelty_many gives it, is >= min_sds."""
    if len(batch) == 0:
        raise DataError("batch is empty")
    keep = np.flatnonzero(nov >= min_sds)
    if not keep.size:
        raise DataError(f"no sample has novelty >= {min_sds}")
    result, row = _select(batch, keep, f"discover_novel(min_sds={min_sds})")
    result.novelty_sds = int(nov[row])
    return result


def select_sustainable(batch: np.ndarray, table: ImpactTable,
                       required: set[str] | None = None) -> DiscoveryResult:
    """Most repeated sample within the lowest-impact decile.

    Sorting alone does not define a repeat set, so the candidates are
    restricted to the lowest-scoring 10 percent (at least one sample)
    before grouping. A required-ingredient constraint is applied first
    and the decile taken within the constrained subset, so a constraint
    is unsatisfiable only when no sample in the whole batch meets it.
    """
    if len(batch) == 0:
        raise DataError("batch is empty")
    try:
        idx = [table.vocabulary.index_of(r) for r in required or ()]
    except KeyError as e:
        raise DataError(f"select.required: ingredient {e.args[0]!r} is not in the "
                        "vocabulary") from None
    candidates = np.flatnonzero((batch[:, idx] > 0).all(axis=1))
    if not candidates.size:
        raise DataError(f"no sample in the batch contains all of {sorted(required)}")
    keep = candidates[_top_fraction(batch[candidates], 0.1,
                                    lambda grams: -env_impact_scores(grams, table))]
    result, _ = _select(batch, keep, "select_sustainable"
                        + (f"(require={sorted(required)})" if required else ""))
    result.env_score = float(env_impact_scores(result.selected, table)[0])
    return result


def select_nutritious(batch: np.ndarray, table: NutrientTable, top_fraction: float,
                      standards: list[HEIComponentStandard] | None = None) -> DiscoveryResult:
    """Most repeated sample within the top fraction by healthy eating index."""
    keep = _top_fraction(batch, top_fraction, lambda grams: hei_totals(grams, table, standards))
    result, _ = _select(batch, keep, f"select_nutritious(top={top_fraction})")
    result.hei_total = float(hei_totals(result.selected, table, standards)[0])
    return result


def select_personalized(batch: np.ndarray, profile: PersonProfile, table: NutrientTable,
                        top_fraction: float, meal_fraction: float = 1.0 / 3.0) -> DiscoveryResult:
    """Most repeated sample within the top fraction by personalized score."""
    keep = _top_fraction(
        batch, top_fraction, lambda grams: personalized_scores(grams, profile, table, meal_fraction))
    return _select(batch, keep, f"select_personalized(top={top_fraction}, age={profile.age}, "
                                f"sex={profile.sex})")[0]
