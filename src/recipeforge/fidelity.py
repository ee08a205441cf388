"""Statistical validation of the generators against a reference corpus.

Checks the per-ingredient inclusion marginals, held-out quantity error,
pairwise presence correlations, the recipe-length distribution and the
recall of the corpus's frequent presence patterns in generated samples,
mirroring how the learned distribution is compared against the training
data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .corpus import TRAIN, VALIDATION, Corpus
from .discovery import check_models
from .errors import DataError
from .mask_diffusion import MaskDiffusionModel, sample_masks
from .quantity_diffusion import QuantityScoreModel, reverse_sample_batch
from .scoring import _pattern_keys


def marginal_error(samples: np.ndarray, corpus: np.ndarray) -> float:
    """Max over ingredients of |inclusion frequency difference| between
    two (n, K) mask sets."""
    a = np.atleast_2d(samples)
    b = np.atleast_2d(corpus)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise DataError("marginal error needs nonempty sample and corpus sets")
    return float(np.abs(a.mean(axis=0) - b.mean(axis=0)).max())


def _length_hists(samples: np.ndarray, corpus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ingredient-count histograms of both mask sets over a common range."""
    a = np.atleast_2d(samples).sum(axis=1).astype(int)
    b = np.atleast_2d(corpus).sum(axis=1).astype(int)
    if a.size == 0 or b.size == 0:
        raise DataError("length distance needs nonempty sample and corpus sets")
    hi = int(max(a.max(), b.max()))
    return np.bincount(a, minlength=hi + 1) / a.size, np.bincount(b, minlength=hi + 1) / b.size


def length_distance(samples, corpus) -> float:
    """Total-variation distance between ingredient-count histograms."""
    pa, pb = _length_hists(samples, corpus)
    return float(0.5 * np.abs(pa - pb).sum())


def mode_recall(samples: np.ndarray, corpus: np.ndarray) -> float | None:
    """The least ratio of sample frequency to corpus frequency over the
    presence patterns that hold at least 1% of the rows of the corpus mask
    set, or None when no pattern does. samples and corpus are (n, K) mask
    sets; a sampler that draws every frequent pattern as often as the
    corpus holds it scores about 1."""
    patterns, counts = np.unique(_pattern_keys(corpus), return_counts=True)
    frequent = 100 * counts >= len(corpus)
    if not frequent.any():
        return None
    modes = patterns[frequent]
    # each mode once ahead of the samples: its count among them is one less than in the union
    _, inverse = np.unique(np.concatenate([modes, _pattern_keys(samples)]), return_inverse=True)
    drawn = np.bincount(inverse)[inverse[:len(modes)]] - 1
    return float(np.min(drawn / len(samples) / (counts[frequent] / len(corpus))))


def pairwise_correlations(masks: np.ndarray) -> np.ndarray:
    """K x K Pearson (phi) correlation matrix over the presence bits of an
    (n, K) mask set.

    Zero-variance columns yield 0 by convention (including the diagonal).
    """
    masks = np.atleast_2d(masks).astype(float)
    if masks.shape[0] < 2:
        raise DataError("need at least 2 recipes for correlations")
    centered = masks - masks.mean(axis=0)
    cov = centered.T @ centered / masks.shape[0]
    sd = np.sqrt(np.diag(cov))
    ok = sd > 0
    denom = np.outer(sd, sd)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(np.outer(ok, ok), cov / np.where(denom > 0, denom, 1.0), 0.0)
    return np.clip(corr, -1.0, 1.0)


def quantity_mae(model: QuantityScoreModel, held_out: np.ndarray, seed: int, *,
                 threads: int = 1) -> float:
    """Mean absolute gram error of one conditional sample per row of the
    held-out (n, K) grams matrix.

    Weights are sampled conditioned on each recipe's true mask, a window
    of at most 2,048 rows to each of threads workers; the error is
    averaged over active ingredients within a recipe, then over recipes.
    """
    if len(held_out) == 0:
        raise DataError("held-out set is empty")
    masks = (held_out > 0).astype(np.uint8)
    sampled = reverse_sample_batch(model, masks, seed, threads=threads,
                                   chunk_size=min(2048, -(-len(masks) // threads)))
    errs = []
    for w, s, active in zip(held_out, sampled, masks == 1):
        errs.append(float(np.abs(s[active] - w[active]).mean()))
    return float(np.mean(errs))


@dataclass
class PairAgreement:
    id_a: str
    id_b: str
    corpus_corr: float
    sample_corr: float

    @property
    def difference(self) -> float:
        return self.sample_corr - self.corpus_corr


@dataclass
class FidelityReport:
    max_marginal_error: float
    quantity_mae_grams: float | None  # None without validation rows
    top_pairs: list[PairAgreement]
    length_total_variation: float
    mode_recall: float | None  # None when no corpus pattern holds 1% of the train rows
    sample_count: int
    corpus_count: int
    corpus_marginals: np.ndarray = field(repr=False, default=None)
    sample_marginals: np.ndarray = field(repr=False, default=None)
    corpus_length_hist: np.ndarray = field(repr=False, default=None)
    sample_length_hist: np.ndarray = field(repr=False, default=None)

    def to_dict(self) -> dict:
        """The repr-visible fields, the top pairs as objects; the arrays go to the CSVs."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.repr}
        doc["top_pairs"] = [{"a": p.id_a, "b": p.id_b, "corpus_corr": p.corpus_corr,
                             "sample_corr": p.sample_corr, "difference": p.difference}
                            for p in self.top_pairs]
        return doc


def top_correlated_pairs(corr: np.ndarray, k: int) -> list[tuple[int, int]]:
    """Indices (i < j) of the k strongest off-diagonal correlations."""
    K = corr.shape[0]
    iu, ju = np.triu_indices(K, k=1)
    order = np.argsort(-np.abs(corr[iu, ju]), kind="stable")
    return [(int(iu[o]), int(ju[o])) for o in order[:k]]


def fidelity_report(mask_model: MaskDiffusionModel, quantity_model: QuantityScoreModel,
                    corpus: Corpus, sample_count: int, seed: int, *,
                    top_k: int = 10, threads: int = 1) -> FidelityReport:
    """Run all five checks against the corpus train split; the quantity
    error is measured on the validation split, None when it is empty.

    Deterministic for a fixed seed: the masks come from the mask stream of
    seed, the held-out quantity samples from its independent quantity
    stream (netcore). Each is split over threads workers in turn, in
    windows of at most 2,048 rows; the report, and any error, are the same
    as with threads = 1.
    """
    check_models(mask_model, quantity_model)
    train_masks = (corpus.rows(TRAIN) > 0).astype(np.uint8)
    if train_masks.shape[0] == 0:
        raise DataError("corpus train split is empty")
    held_out = corpus.rows(VALIDATION)
    samples = sample_masks(mask_model, sample_count, seed,
                           chunk_size=min(2048, -(-sample_count // threads)), threads=threads)
    mae = quantity_mae(quantity_model, held_out, seed, threads=threads) if len(held_out) else None

    corr_corpus = pairwise_correlations(train_masks)
    corr_samples = pairwise_correlations(samples)
    ids = corpus.vocabulary.ids
    pairs = [
        PairAgreement(ids[i], ids[j], float(corr_corpus[i, j]), float(corr_samples[i, j]))
        for i, j in top_correlated_pairs(corr_corpus, top_k)
    ]

    sample_hist, corpus_hist = _length_hists(samples, train_masks)
    return FidelityReport(
        max_marginal_error=marginal_error(samples, train_masks),
        quantity_mae_grams=mae,
        top_pairs=pairs,
        length_total_variation=length_distance(samples, train_masks),
        mode_recall=mode_recall(samples, train_masks),
        sample_count=sample_count,
        corpus_count=train_masks.shape[0],
        corpus_marginals=train_masks.mean(axis=0),
        sample_marginals=samples.mean(axis=0),
        corpus_length_hist=corpus_hist,
        sample_length_hist=sample_hist,
    )
