"""Generation and selection pipelines.

A batch of generated recipes is one (n, K) grams matrix; an ingredient
is present where its grams are > 0. _draw is the one draw of the sample
stream (netcore): a block's masks, then weights given them. generate_batch
draws rows 0 to count - 1 a window of blocks at a time, and rediscover
draws the same rows until one matches a reference at SDS = 0. The
selection rules reproduce the discovery recipes over
score vectors alone: discover_novel keeps the rows above a novelty floor,
select_top the top fraction of rows by a score, and rows_with the rows
holding required ingredients; a selection is the founder of the most
repeated SDS-0 group among the rows kept, a (K,) grams row. The CLI binds
each score to its input tables and writes the group tables.
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
from .scoring import _sds_rows, group_recipes, sds

# rows of stream blocks rediscover samples in lockstep, at most, per window
_WINDOW_ROWS = 512


@dataclass
class DiscoveryResult:
    selected: np.ndarray = field(repr=False)  # the founder's (K,) grams, to_dict's ingredients
    row: int = field(repr=False)  # the founder's row in the batch
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
    """Draw count complete recipes, a (count, K) grams matrix: rows 0 to
    count - 1 of the sample stream of seed, chunk_size rows (rounded up to
    whole blocks) to a window. Its masks are sample_masks' and its grams
    reverse_sample_batch's on them, at the same seed."""
    check_models(mask_model, quantity_model)
    return netcore.map_windows(count, chunk_size, threads,
                               lambda blocks: _draw(mask_model, quantity_model, seed, blocks))


def _draw(mask_model: MaskDiffusionModel, quantity_model: QuantityScoreModel, seed: int,
          blocks: range) -> np.ndarray:
    """The grams of the given stream blocks, 64 rows each, drawn in
    lockstep: block b's masks from its (seed, MASKS, b) generator, then
    weights given them from its independent (seed, QUANTITIES, b) one."""
    n = len(blocks) * netcore.BLOCK
    masks, _ = _sample_chunk(mask_model, n, netcore.block_rngs(seed, netcore.MASKS, blocks))
    z = reverse_integrate(quantity_model.chunk_score(masks), masks, quantity_model.sde,
                          netcore.block_rngs(seed, netcore.QUANTITIES, blocks))
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
    the ratio term only adds. On 0/1 masks H(a, b) = |a| - (2a - 1).b, so per
    block one float32 matrix product M = (2a - 1).b gives H up to the row's
    |a|: exact, because every value is an integer <= K, and half the bytes of
    float64. The exact SDS to each sample's Hamming-nearest corpus row (the
    first argmax of M) is an upper bound u on its novelty, and a row j can only
    lower it if H(sample, j) < u, that is M > |a| - u; SDS is computed for those
    pairs alone and reduced with a running minimum. Candidate pairs are
    evaluated in slices of at most block * N / 8, so even when every pair is a
    candidate a block holds less memory than a dense (block, N, K) SDS.
    """
    if len(corpus) == 0:
        raise DataError("novelty undefined against an empty corpus")
    W = corpus.grams
    P = (W > 0).astype(np.float32)
    N = len(W)
    step = max(1, block * N // 8)
    out = np.zeros(len(samples), dtype=int)
    for lo in range(0, len(samples), block):
        S = samples[lo:lo + block]
        present = S > 0
        M = np.where(present, np.float32(1), np.float32(-1)) @ P.T
        best = _sds_rows(S, W[M.argmax(axis=1)])
        pairs = np.flatnonzero(M > (present.sum(axis=1) - best).astype(np.float32)[:, None])
        del M
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
    SDS = 0: the first matching stream index, or not-found once the budget
    is exhausted. Draw i is generate_batch's row i at the same seed.

    The blocks of a window are sampled in lockstep, then compared in stream
    order. The first window is chunk_size rows rounded up to whole blocks
    and each next one doubles, up to _WINDOW_ROWS rows, so an early match
    computes few blocks past it and memory is constant in the budget. A
    NumericError in a window of several blocks restarts it one block at a
    time, so an earlier match still wins and the error raised is the first
    failing block's.
    """
    check_models(mask_model, quantity_model)
    if np.shape(reference) != (mask_model.K,):
        raise DataError("reference recipe does not match model vocabulary")
    blocks = range(-(-budget // netcore.BLOCK))
    first, size = 0, -(-chunk_size // netcore.BLOCK)
    most = max(size, _WINDOW_ROWS // netcore.BLOCK)
    while first < len(blocks):
        window = blocks[first:first + size]
        lo = window.start * netcore.BLOCK
        try:
            grams = _draw(mask_model, quantity_model, seed, window)[:budget - lo]
        except NumericError:
            if len(window) == 1:
                raise
            size = 1
            continue
        hits = np.flatnonzero(sds(grams, reference) == 0)
        if hits.size:
            index = lo + int(hits[0])
            return RediscoveryOutcome(found=True, index=index, recipe=grams[hits[0]],
                                      draws=index + 1)
        first, size = window.stop, min(2 * size, most)
    return RediscoveryOutcome(found=False, index=None, recipe=None, draws=budget)


def select_top(batch: np.ndarray, scores: np.ndarray, fraction: float, rule: str,
               rows: np.ndarray | None = None) -> DiscoveryResult:
    """Most repeated sample of the (n, K) grams batch within the top fraction
    (at least one) of rows, all rows if None, by scores, one per row of rows;
    equal scores keep row order."""
    rows = np.arange(len(batch)) if rows is None else rows
    k = max(1, math.ceil(number(fraction, "select.top_fraction", "(0, 1]") * len(rows)))
    keep = np.sort(rows[np.argsort(-scores, kind="stable")[:k]])
    kept = batch[keep]
    best = group_recipes(kept)[0]
    return DiscoveryResult(selected=kept[best.founder_index], row=int(keep[best.founder_index]),
                           rule=rule, group_count=best.count, total_samples=len(batch),
                           popularity=best.count / len(batch))


def rows_with(batch: np.ndarray, vocabulary, required: set[str]) -> np.ndarray:
    """Rows of the batch holding every ingredient id in required, in row order; a
    DataError when an id is not in the vocabulary or no row holds them all."""
    try:
        idx = [vocabulary.index_of(r) for r in required]
    except KeyError as e:
        raise DataError(f"select.required: ingredient {e.args[0]!r} is not in the "
                        "vocabulary") from None
    rows = np.flatnonzero((batch[:, idx] > 0).all(axis=1))
    if not rows.size:
        raise DataError(f"no sample in the batch contains all of {sorted(required)}")
    return rows


def discover_novel(batch: np.ndarray, nov: np.ndarray, min_sds: int) -> DiscoveryResult:
    """Most repeated row of the (n, K) grams batch among those whose
    novelty in nov, one int per row as novelty_many gives it, is >= min_sds."""
    keep = np.flatnonzero(nov >= min_sds)
    if not keep.size:
        raise DataError(f"no sample has novelty >= {min_sds}")
    result = select_top(batch, nov[keep], 1.0, f"discover_novel(min_sds={min_sds})", keep)
    result.novelty_sds = int(nov[result.row])
    return result
