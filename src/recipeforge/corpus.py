"""Recipe corpora: ingestion, vocabulary, vectorization, and synthesis.

A recipe is a binary ingredient mask plus per-ingredient weights in grams
over a fixed vocabulary. Corpus files are JSON lines, one object per
recipe: {"ingredients": [{"id": ..., "grams": ...}, ...]} with an
optional "split" tag. Synthetic corpora are drawn from a Gaussian-copula
threshold model with optional planted recipes, which gives exact control
of marginals and pairwise structure for fidelity oracles.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import multivariate_normal, norm

from .errors import DataError

TRAIN = "train"
VALIDATION = "validation"


@dataclass(frozen=True)
class IngredientVocabulary:
    """Ordered ingredient registry; index = rank in lexicographic id order."""

    entries: tuple[tuple[str, str], ...]  # (ingredient_id, display_name)

    def __post_init__(self):
        ids = [e[0] for e in self.entries]
        if not ids:
            raise DataError("vocabulary must contain at least one ingredient")
        if ids != sorted(ids) or len(set(ids)) != len(ids):
            raise DataError("vocabulary ids must be unique and sorted")

    @property
    def K(self) -> int:
        return len(self.entries)

    @property
    def ids(self) -> list[str]:
        return [e[0] for e in self.entries]

    def index_of(self, ingredient_id: str) -> int:
        lo, hi = 0, len(self.entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.entries[mid][0] < ingredient_id:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self.entries) and self.entries[lo][0] == ingredient_id:
            return lo
        raise KeyError(ingredient_id)

    def fingerprint(self) -> str:
        raw = "\n".join(self.ids).encode()
        return hashlib.sha256(raw).hexdigest()[:16]

    @staticmethod
    def from_ids(ids, names=None) -> "IngredientVocabulary":
        uniq = sorted(set(ids))
        names = names or {}
        return IngredientVocabulary(tuple((i, names.get(i, i)) for i in uniq))


@dataclass
class Recipe:
    """Binary presence mask and weights in grams, aligned to one vocabulary."""

    mask: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=np.uint8)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.mask.shape != self.weights.shape:
            raise DataError("mask and weights must have equal length")
        if not np.isfinite(self.weights).all() or (self.weights < 0).any():
            raise DataError("weights must be finite and nonnegative")
        if ((self.weights > 0) != (self.mask == 1)).any():
            raise DataError("weights must be positive exactly where mask = 1")

    def items(self, vocabulary: IngredientVocabulary) -> list[tuple[str, float]]:
        ids = vocabulary.ids
        return [(ids[i], float(self.weights[i])) for i in np.flatnonzero(self.mask)]

    @staticmethod
    def from_weights(weights) -> "Recipe":
        w = np.asarray(weights, dtype=float)
        return Recipe(mask=(w > 0).astype(np.uint8), weights=w)


@dataclass
class Corpus:
    vocabulary: IngredientVocabulary
    recipes: list[Recipe]
    splits: list[str]

    def __post_init__(self):
        if len(self.recipes) != len(self.splits):
            raise DataError("one split tag per recipe required")
        bad = set(self.splits) - {TRAIN, VALIDATION}
        if bad:
            raise DataError(f"unknown split tags: {sorted(bad)}")
        K = self.vocabulary.K
        for r in self.recipes:
            if r.mask.shape[0] != K:
                raise DataError("recipe length does not match vocabulary")

    def __len__(self) -> int:
        return len(self.recipes)

    def subset(self, split: str) -> list[Recipe]:
        return [r for r, s in zip(self.recipes, self.splits) if s == split]

    def matrices(self, split: str | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (mask, weight) matrices, optionally restricted to a split."""
        rs = self.recipes if split is None else self.subset(split)
        if not rs:
            return (np.zeros((0, self.vocabulary.K), dtype=np.uint8),
                    np.zeros((0, self.vocabulary.K)))
        return (np.stack([r.mask for r in rs]), np.stack([r.weights for r in rs]))


@dataclass
class SynthIngredient:
    ingredient_id: str
    marginal: float
    weight_log_mean: float
    weight_log_sd: float


@dataclass
class SynthSpec:
    """Generative description of a synthetic corpus.

    Pairwise structure is induced by correlating the latent Gaussians of
    the two ingredients before thresholding; correlations are specified as
    target phi coefficients of the resulting presence bits. Planted
    recipes replace a draw with an exact copy at the given frequency.
    """

    ingredients: list[SynthIngredient]
    pairs: list[tuple[str, str, float]]
    planted: list[tuple[dict[str, float], float]]  # ({id: grams}, frequency)
    count: int

    @property
    def K(self) -> int:
        return len(self.ingredients)

    def vocabulary(self) -> IngredientVocabulary:
        return IngredientVocabulary.from_ids([s.ingredient_id for s in self.ingredients])

    def validate(self) -> None:
        if self.count < 1:
            raise DataError("recipe count must be >= 1")
        ids = [s.ingredient_id for s in self.ingredients]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate ingredient ids in synth spec")
        for s in self.ingredients:
            if not 0.0 <= s.marginal <= 1.0:
                raise DataError(f"marginal out of [0,1] for {s.ingredient_id}")
            if s.weight_log_sd <= 0:
                raise DataError(f"weight_log_sd must be > 0 for {s.ingredient_id}")
        seen: set[str] = set()
        for a, b, rho in self.pairs:
            if a in seen or b in seen or a == b:
                raise DataError("correlated pairs must be disjoint")
            seen.update((a, b))
            if not -1.0 < rho < 1.0:
                raise DataError(f"pair correlation must be in (-1,1), got {rho}")
        known = set(ids)
        for key, named in (("pairs", {i for a, b, _ in self.pairs for i in (a, b)}),
                           ("planted", {i for items, _ in self.planted for i in items})):
            unknown = sorted(named - known)
            if unknown:
                raise DataError(f"synth spec field {key} names unknown ingredients: {unknown}")
        total = sum(f for _, f in self.planted)
        if total > 1.0 + 1e-12:
            raise DataError("planted frequencies must sum to <= 1")
        for items, f in self.planted:
            if f <= 0:
                raise DataError("planted frequency must be > 0")
            if not items:
                raise DataError("planted recipe must be nonempty")

    def expected_marginals(self) -> np.ndarray:
        """Inclusion probability per vocabulary index under the full mixture."""
        vocab = self.vocabulary()
        base = np.zeros(self.K)
        for s in self.ingredients:
            base[vocab.index_of(s.ingredient_id)] = s.marginal
        planted_total = sum(f for _, f in self.planted)
        out = (1.0 - planted_total) * base
        for items, f in self.planted:
            for ing in items:
                out[vocab.index_of(ing)] += f
        return out


def _phi_bounds(p: float, q: float) -> tuple[float, float]:
    # Frechet bounds on the phi coefficient of two Bernoulli variables
    denom = math.sqrt(p * (1 - p) * q * (1 - q))
    hi = (min(p, q) - p * q) / denom
    lo = (max(0.0, p + q - 1.0) - p * q) / denom
    return lo, hi


def _phi_from_latent(a: float, b: float, r: float, p: float, q: float) -> float:
    cov = [[1.0, r], [r, 1.0]]
    p11 = float(multivariate_normal(mean=[0.0, 0.0], cov=cov, allow_singular=True).cdf([a, b]))
    return (p11 - p * q) / math.sqrt(p * (1 - p) * q * (1 - q))


def _latent_correlation(p: float, q: float, rho: float) -> float:
    """Invert the copula: latent Gaussian correlation giving phi = rho."""
    lo_phi, hi_phi = _phi_bounds(p, q)
    if not lo_phi + 1e-9 <= rho <= hi_phi - 1e-9:
        raise DataError(
            f"correlation {rho} infeasible for marginals ({p}, {q}); "
            f"feasible range is [{lo_phi:.4f}, {hi_phi:.4f}]")
    a, b = norm.ppf(p), norm.ppf(q)
    lo, hi = -1.0 + 1e-9, 1.0 - 1e-9
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _phi_from_latent(a, b, mid, p, q) < rho:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def synthesize_corpus(spec: SynthSpec, seed: int, val_fraction: float = 0.1) -> Corpus:
    """Draw a corpus from the spec; deterministic for a fixed seed.

    Empirical statistics converge to the spec as the count grows; planted
    recipes appear at their target frequencies up to binomial noise.
    All-zero masks are redrawn (they are not trainable), which tilts the
    realized marginals upward by about marginal * P(all absent); keep
    that probability negligible when exact marginals matter.
    """
    spec.validate()
    vocab = spec.vocabulary()
    K = vocab.K
    order = [vocab.index_of(s.ingredient_id) for s in spec.ingredients]
    p = np.zeros(K)
    mu = np.zeros(K)
    sd = np.ones(K)
    for s, idx in zip(spec.ingredients, order):
        p[idx] = s.marginal
        mu[idx] = s.weight_log_mean
        sd[idx] = s.weight_log_sd
    pair_idx = [
        (vocab.index_of(a), vocab.index_of(b), _latent_correlation(p[vocab.index_of(a)], p[vocab.index_of(b)], rho))
        for a, b, rho in spec.pairs
    ]
    thresholds = norm.ppf(np.clip(p, 1e-12, 1 - 1e-12))

    rng = np.random.default_rng(seed)
    n = spec.count

    def draw_rows(m: int) -> tuple[np.ndarray, np.ndarray]:
        z = rng.standard_normal((m, K))
        for i, j, r in pair_idx:
            z[:, j] = r * z[:, i] + math.sqrt(1.0 - r * r) * z[:, j]
        mask = (z < thresholds).astype(np.uint8)
        mask[:, p <= 0.0] = 0
        mask[:, p >= 1.0] = 1
        grams = np.exp(mu + sd * rng.standard_normal((m, K))) * mask
        return mask, grams

    masks, weights = draw_rows(n)

    # plant exact recipes into their frequency bands
    u = rng.random(n)
    cum = 0.0
    for items, freq in spec.planted:
        row_mask = np.zeros(K, dtype=np.uint8)
        row_w = np.zeros(K)
        for ing, grams in items.items():
            idx = vocab.index_of(ing)
            if grams <= 0:
                raise DataError(f"planted recipe has nonpositive grams for {ing}")
            row_mask[idx] = 1
            row_w[idx] = grams
        sel = (u >= cum) & (u < cum + freq)
        masks[sel] = row_mask
        weights[sel] = row_w
        cum += freq

    planted_rows = u < cum
    for _ in range(1000):
        empty = ~masks.any(axis=1) & ~planted_rows
        if not empty.any():
            break
        m2, w2 = draw_rows(int(empty.sum()))
        masks[empty] = m2
        weights[empty] = w2
    else:
        raise DataError("could not draw nonempty masks; marginals too small")

    n_train = n - int(round(val_fraction * n))
    splits = [TRAIN if i < n_train else VALIDATION for i in range(n)]
    recipes = [Recipe(mask=masks[i], weights=weights[i]) for i in range(n)]
    return Corpus(vocabulary=vocab, recipes=recipes, splits=splits)


def _parse_record(line: str, lineno: int) -> tuple[dict, str]:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise DataError(f"line {lineno}: invalid JSON ({e.msg})") from e
    if not isinstance(obj, dict) or "ingredients" not in obj or not isinstance(obj["ingredients"], list):
        raise DataError(f"line {lineno}: record must be an object with an 'ingredients' list")
    split = obj.get("split", TRAIN)
    if split not in (TRAIN, VALIDATION):
        raise DataError(f"line {lineno}: unknown split tag {split!r}")
    return obj, split


def load_corpus(path: str | Path, vocabulary: IngredientVocabulary | None = None) -> Corpus:
    """Load a JSON-lines corpus file; builds the vocabulary if not supplied."""
    path = Path(path)
    lines = [(i + 1, ln) for i, ln in enumerate(path.read_text().splitlines()) if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty corpus file")
    records = [(_parse_record(ln, no), no) for no, ln in lines]
    if vocabulary is None:
        ids: set[str] = set()
        for (obj, _), _no in records:
            for item in obj["ingredients"]:
                ids.add(str(item.get("id")))
        vocabulary = IngredientVocabulary.from_ids(ids)
    recipes, splits = [], []
    for (obj, split), no in records:
        w = np.zeros(vocabulary.K)
        if not obj["ingredients"]:
            raise DataError(f"line {no}: empty recipe is not trainable")
        for item in obj["ingredients"]:
            ing = str(item.get("id"))
            grams = item.get("grams")
            try:
                idx = vocabulary.index_of(ing)
            except KeyError:
                raise DataError(f"line {no}: unknown ingredient id {ing!r}") from None
            if not isinstance(grams, (int, float)) or not math.isfinite(grams) or grams <= 0:
                raise DataError(f"line {no}: ingredient {ing!r} has grams <= 0 or non-numeric")
            if w[idx] > 0:
                raise DataError(f"line {no}: duplicate ingredient id {ing!r}")
            w[idx] = float(grams)
        recipes.append(Recipe.from_weights(w))
        splits.append(split)
    return Corpus(vocabulary=vocabulary, recipes=recipes, splits=splits)


def write_corpus(path: str | Path, corpus: Corpus, include_split: bool = True) -> None:
    with open(path, "w") as fh:
        ids = corpus.vocabulary.ids
        for r, split in zip(corpus.recipes, corpus.splits):
            items = [{"id": ids[i], "grams": float(r.weights[i])} for i in np.flatnonzero(r.mask)]
            obj: dict = {"ingredients": items}
            if include_split:
                obj["split"] = split
            fh.write(json.dumps(obj) + "\n")


def write_vocabulary(path: str | Path, vocabulary: IngredientVocabulary) -> None:
    with open(path, "w") as fh:
        json.dump([{"id": i, "name": n} for i, n in vocabulary.entries], fh, indent=2)
        fh.write("\n")


def load_vocabulary(path: str | Path) -> IngredientVocabulary:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, list):
        raise DataError("vocabulary file must be a JSON array")
    for i, e in enumerate(data):
        if not isinstance(e, dict) or "id" not in e:
            raise DataError(f"{path}: entry {i} has no field id")
    entries = tuple((str(e["id"]), str(e.get("name", e["id"]))) for e in data)
    return IngredientVocabulary(entries)


def load_synth_spec(path: str | Path) -> SynthSpec:
    data = json.loads(Path(path).read_text())
    try:
        ingredients = [
            SynthIngredient(
                ingredient_id=str(e["id"]),
                marginal=float(e["marginal"]),
                weight_log_mean=float(e["weight_log_mean"]),
                weight_log_sd=float(e["weight_log_sd"]),
            )
            for e in data["ingredients"]
        ]
        pairs = [(str(p["a"]), str(p["b"]), float(p["correlation"])) for p in data.get("pairs", [])]
        planted = [
            ({str(i["id"]): float(i["grams"]) for i in e["ingredients"]}, float(e["frequency"]))
            for e in data.get("planted", [])
        ]
        count = int(data["count"])
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"malformed synth spec: {e}") from e
    spec = SynthSpec(ingredients=ingredients, pairs=pairs, planted=planted, count=count)
    spec.validate()
    return spec
