"""Recipe corpora: ingestion, vocabulary, and synthesis.

A set of recipes is one (n, K) grams matrix over a fixed vocabulary; an
ingredient is present in a recipe where its grams are > 0. Corpus files
are JSON lines, one object per recipe:
{"ingredients": [{"id": ..., "grams": ...}, ...]} with an optional
"split" tag. Synthetic corpora are drawn from a Gaussian-copula
threshold model with optional planted recipes, which gives exact control
of marginals and pairwise structure for fidelity oracles.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.stats import multivariate_normal, norm

from .errors import ANY, DataError, as_numbers, not_utf8, number, read_json, shown

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
        i = bisect.bisect_left(self.entries, ingredient_id, key=lambda e: e[0])
        if i < len(self.entries) and self.entries[i][0] == ingredient_id:
            return i
        raise KeyError(ingredient_id)

    def items(self, grams: np.ndarray) -> list[tuple[str, float]]:
        """(id, grams) of each ingredient present (grams > 0) in a (K,) row."""
        ids = self.ids
        return [(ids[i], float(grams[i])) for i in np.flatnonzero(grams > 0)]

    def fingerprint(self) -> str:
        raw = "\n".join(self.ids).encode()
        return hashlib.sha256(raw).hexdigest()[:16]

    @staticmethod
    def from_ids(ids) -> "IngredientVocabulary":
        return IngredientVocabulary(tuple((i, i) for i in sorted(set(ids))))


@dataclass
class Corpus:
    """An (n, K) grams matrix over a vocabulary and one split tag per row."""

    vocabulary: IngredientVocabulary
    grams: np.ndarray
    splits: list[str]

    def __post_init__(self):
        self.grams = np.asarray(self.grams, dtype=float)
        if self.grams.ndim != 2 or self.grams.shape[1] != self.vocabulary.K:
            raise DataError(f"grams must be an (n, {self.vocabulary.K}) matrix over the "
                            f"vocabulary, got shape {self.grams.shape}")
        if not np.isfinite(self.grams).all() or (self.grams < 0).any():
            raise DataError("grams must be finite and nonnegative")
        if len(self.splits) != len(self.grams):
            raise DataError("one split tag per recipe required")
        bad = set(self.splits) - {TRAIN, VALIDATION}
        if bad:
            raise DataError(f"unknown split tags: {sorted(bad)}")

    def __len__(self) -> int:
        return len(self.grams)

    def rows(self, split: str) -> np.ndarray:
        """The grams rows tagged with split, in corpus order."""
        return self.grams[[s == split for s in self.splits]]

    def training_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(train, validation) grams rows, with the first 256 train rows as
        validation when the corpus has no validation rows."""
        train, val = self.rows(TRAIN), self.rows(VALIDATION)
        if len(train) == 0:
            raise DataError("training corpus is empty")
        return train, val if len(val) else train[:256]


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

    def vocabulary(self) -> IngredientVocabulary:
        return IngredientVocabulary.from_ids([s.ingredient_id for s in self.ingredients])

    def validate(self) -> None:
        """The checks across fields; load_synth_spec checks each value's range."""
        ids = [s.ingredient_id for s in self.ingredients]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate ingredient ids in synth spec")
        seen: set[str] = set()
        for a, b, _ in self.pairs:
            if a in seen or b in seen or a == b:
                raise DataError("correlated pairs must be disjoint")
            seen.update((a, b))
        known = set(ids)
        for key, named in (("pairs", {i for a, b, _ in self.pairs for i in (a, b)}),
                           ("planted", {i for items, _ in self.planted for i in items})):
            unknown = sorted(named - known)
            if unknown:
                raise DataError(f"synth spec field {key} names unknown ingredients: {unknown}")
        if sum(f for _, f in self.planted) > 1.0 + 1e-12:
            raise DataError("planted frequencies must sum to <= 1")
        if not all(items for items, _ in self.planted):
            raise DataError("planted recipe must be nonempty")


def _phi_bounds(p: float, q: float) -> tuple[float, float]:
    # Frechet bounds on the phi coefficient of two Bernoulli variables
    denom = math.sqrt(p * (1 - p) * q * (1 - q))
    hi = (min(p, q) - p * q) / denom
    lo = (max(0.0, p + q - 1.0) - p * q) / denom
    return lo, hi


def _phi_from_latent(a: float, b: float, r: float, p: float, q: float) -> float:
    p11 = float(multivariate_normal.cdf([a, b], mean=[0.0, 0.0], cov=[[1.0, r], [r, 1.0]],
                                        allow_singular=True))
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
    that probability negligible when exact marginals matter. DataError
    names the ingredient whose drawn grams overflow to inf or underflow
    to 0, and its weight_log_mean field.
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
        with np.errstate(over="ignore"):  # checked below, naming the ingredient
            grams = np.where(mask == 1, np.exp(mu + sd * rng.standard_normal((m, K))), 0.0)
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

    bad = np.isinf(weights) | ((weights > 0) != (masks == 1))
    if bad.any():
        i = order.index(int(np.flatnonzero(bad.any(axis=0))[0]))
        s = spec.ingredients[i]
        how = "overflow to inf" if np.isinf(weights[:, order[i]]).any() else "underflow to 0"
        raise DataError(f"field ingredients[{i}].weight_log_mean is {s.weight_log_mean!r}: "
                        f"grams drawn for {s.ingredient_id} {how}")
    n_train = n - int(round(val_fraction * n))
    splits = [TRAIN if i < n_train else VALIDATION for i in range(n)]
    return Corpus(vocabulary=vocab, grams=weights, splits=splits)


def _parse_record(path: Path, line: str, lineno: int) -> tuple[list[tuple[str, object]], str]:
    """The (id, grams as written) entries and the split tag of one corpus line."""
    where = f"{path}: line {lineno}"
    try:
        obj = json.loads(line)
    except ValueError as e:  # JSONDecodeError, or an integer literal too long to convert
        raise DataError(f"{where}: invalid JSON ({e})") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("ingredients"), list):
        raise DataError(f"{where}: record must be an object with an 'ingredients' list")
    if not obj["ingredients"]:
        raise DataError(f"{where}: empty recipe is not trainable")
    split = obj.get("split", TRAIN)
    if split not in (TRAIN, VALIDATION):
        raise DataError(f"{where}: unknown split tag {split!r}")
    items = []
    for j, item in enumerate(obj["ingredients"]):
        if not isinstance(item, dict) or not isinstance(item.get("id"), str):
            raise DataError(f"{where}: ingredient {j} must be an object with a string 'id'")
        items.append((item["id"], item.get("grams")))
    return items, split


def _parse_corpus(path: Path, data: bytes, vocabulary: IngredientVocabulary | None) -> Corpus:
    """The corpus in a file's bytes; builds the vocabulary if not supplied."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise not_utf8(path, e) from None
    lines = [(i + 1, ln) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty corpus file")
    records = [_parse_record(path, ln, no) for no, ln in lines]
    if as_numbers([g for items, _ in records for _, g in items], "(0, inf)") is None:
        for (items, _), (no, _) in zip(records, lines):  # name the first bad grams, which raises
            for ing, g in items:
                number(g, f"{path}: line {no}: grams of {ing!r}", "(0, inf)")
    if vocabulary is None:
        vocabulary = IngredientVocabulary.from_ids({i for items, _ in records for i, _ in items})
    index = {ing: k for k, ing in enumerate(vocabulary.ids)}
    grams = np.zeros((len(records), vocabulary.K))
    for row, (items, _), (no, _) in zip(grams, records, lines):
        for ing, g in items:
            if ing not in index:
                raise DataError(f"{path}: line {no}: unknown ingredient id {ing!r}")
            if row[index[ing]] > 0:
                raise DataError(f"{path}: line {no}: duplicate ingredient id {ing!r}")
            row[index[ing]] = g
    return Corpus(vocabulary=vocabulary, grams=grams, splits=[split for _, split in records])


def _checksum(*arrays: np.ndarray) -> np.ndarray:
    """sha256 over the dtypes, shapes and bytes of arrays, as 32 uint8s."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a))
    return np.frombuffer(h.digest(), dtype=np.uint8)


def _read_entry(entry: Path, vocabulary: IngredientVocabulary | None) -> Corpus | None:
    """The corpus stored in a cache entry, None if it is missing or malformed.

    The arrays must match the checksum stored with them (zip's own CRC is
    only checked when a member is read to its end, which a corrupted size
    field prevents), a supplied vocabulary must have exactly the stored
    ids, and the vocabulary and Corpus constructors run their checks.
    """
    try:
        stored = np.load(entry)
        if not isinstance(stored, np.lib.npyio.NpzFile):  # a bare .npy array
            return None
        with stored:
            grams, validation, ids = stored["grams"], stored["validation"], stored["ids"]
            if not np.array_equal(stored["checksum"], _checksum(grams, validation, ids)):
                return None
        ids = ids.tolist()
        if vocabulary is None:
            vocabulary = IngredientVocabulary(tuple((i, i) for i in ids))
        elif vocabulary.ids != ids:
            return None
        return Corpus(vocabulary=vocabulary, grams=grams,
                      splits=[VALIDATION if v else TRAIN for v in validation.tolist()])
    except (OSError, EOFError, KeyError, RuntimeError, ValueError, zipfile.BadZipFile):
        return None


def _write_entry(entry: Path, corpus: Corpus) -> None:
    """Store the corpus at entry atomically: a unique temp file, then a rename."""
    entry.parent.mkdir(parents=True, exist_ok=True)
    arrays = {"grams": corpus.grams,
              "validation": np.array([s == VALIDATION for s in corpus.splits], dtype=bool),
              "ids": np.array(corpus.vocabulary.ids, dtype=str)}
    fd, tmp = tempfile.mkstemp(dir=entry.parent, prefix=entry.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, checksum=_checksum(*arrays.values()), **arrays)
        os.replace(tmp, entry)
    except BaseException:
        os.unlink(tmp)
        raise


def load_corpus(path: str | Path, vocabulary: IngredientVocabulary | None = None, *,
                cache_dir: str | Path | None = None) -> Corpus:
    """Load a JSON-lines corpus file; builds the vocabulary if not supplied.

    With cache_dir set, the parsed corpus is kept there in one file per
    (file content, vocabulary): `corpus-<sha256 of the bytes>-<vocabulary
    fingerprint, or "auto">.npz`. A later load of the same bytes under
    the same vocabulary reads that entry instead of parsing; an entry that
    is missing, truncated or malformed is parsed again and rewritten. A
    file that does not parse raises the same DataError either way and
    leaves no entry.
    """
    path = Path(path)
    data = path.read_bytes()
    if cache_dir is None:
        return _parse_corpus(path, data, vocabulary)
    vocab_key = vocabulary.fingerprint() if vocabulary is not None else "auto"
    entry = Path(cache_dir) / f"corpus-{hashlib.sha256(data).hexdigest()}-{vocab_key}.npz"
    loaded = _read_entry(entry, vocabulary)
    if loaded is None:
        loaded = _parse_corpus(path, data, vocabulary)
        _write_entry(entry, loaded)
    return loaded


def write_corpus(path: str | Path, corpus: Corpus, include_split: bool = True) -> None:
    """One line per row, the bytes json.dumps writes for {"ingredients": [{"id", "grams"} per
    present ingredient], "split" if include_split}; 256 rows at a time, so memory stays flat."""
    ids = [f'{{"id": {json.dumps(i)}, "grams": ' for i in corpus.vocabulary.ids]
    tails = {s: f', "split": {json.dumps(s)}' if include_split else "" for s in set(corpus.splits)}
    with open(path, "w") as fh:
        for lo in range(0, len(corpus), 256):
            block = corpus.grams[lo:lo + 256]
            present = block > 0
            cells = [f"{ids[j]}{g!r}}}" if g < math.inf else f"{ids[j]}{json.dumps(g)}}}"
                     for j, g in zip(np.nonzero(present)[1].tolist(), block[present].tolist())]
            ends = np.cumsum(present.sum(axis=1)).tolist()
            fh.writelines(f'{{"ingredients": [{", ".join(cells[a:b])}]{tails[split]}}}\n'
                          for a, b, split in zip([0, *ends], ends, corpus.splits[lo:lo + 256]))


def write_vocabulary(path: str | Path, vocabulary: IngredientVocabulary) -> None:
    with open(path, "w") as fh:
        json.dump([{"id": i, "name": n} for i, n in vocabulary.entries], fh, indent=2)
        fh.write("\n")


def load_vocabulary(path: str | Path) -> IngredientVocabulary:
    data = read_json(path)
    if not isinstance(data, list):
        raise DataError(f"{path}: vocabulary file must be a JSON array")
    for i, e in enumerate(data):
        if not isinstance(e, dict) or "id" not in e:
            raise DataError(f"{path}: entry {i} has no field id")
        for key in ("id", "name"):
            if not isinstance(e.get(key, ""), str):
                raise DataError(f"{path}: entry {i} field {key} must be a string, "
                                f"got {e[key]!r}")
    entries = tuple((e["id"], e.get("name", e["id"])) for e in data)
    try:
        return IngredientVocabulary(entries)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e


def load_synth_spec(path: str | Path) -> SynthSpec:
    """The synth spec in the JSON file at path; every DataError names the file."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise DataError(f"{path}: synth spec must be a JSON object")

    def get(obj: dict, key: str, name: str, kind=ANY, default=None, integer=False):
        """obj[key]: a string (kind str), a list of objects (kind list), or a number in kind."""
        if key not in obj:
            if default is None:
                raise DataError(f"{path}: field {name} is missing")
            return default
        value = obj[key]
        if kind not in (str, list):
            return number(value, f"{path}: field {name}", kind, integer)
        if isinstance(value, kind) and (kind is str or all(isinstance(e, dict) for e in value)):
            return value
        expected = "a string" if kind is str else "a list of objects"
        raise DataError(f"{path}: field {name} is {shown(value)}, expected {expected}")

    ingredients = [
        SynthIngredient(get(e, "id", f"ingredients[{i}].id", str),
                        *(get(e, k, f"ingredients[{i}].{k}", interval) for k, interval in (
                            ("marginal", "[0, 1]"), ("weight_log_mean", ANY),
                            ("weight_log_sd", "(0, inf)"))))
        for i, e in enumerate(get(data, "ingredients", "ingredients", list))]
    pairs = [(get(p, "a", f"pairs[{i}].a", str), get(p, "b", f"pairs[{i}].b", str),
              get(p, "correlation", f"pairs[{i}].correlation", "(-1, 1)"))
             for i, p in enumerate(get(data, "pairs", "pairs", list, []))]
    planted = [
        ({get(g, "id", f"planted[{i}].ingredients[{j}].id", str):
          get(g, "grams", f"planted[{i}].ingredients[{j}].grams", "(0, inf)")
          for j, g in enumerate(get(e, "ingredients", f"planted[{i}].ingredients", list))},
         get(e, "frequency", f"planted[{i}].frequency", "(0, 1]"))
        for i, e in enumerate(get(data, "planted", "planted", list, []))]
    spec = SynthSpec(ingredients=ingredients, pairs=pairs, planted=planted,
                     count=get(data, "count", "count", "[1, inf)", integer=True))
    try:
        spec.validate()
    except DataError as e:
        raise DataError(f"{path}: {e}") from e
    return spec
