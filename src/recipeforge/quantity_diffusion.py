"""Score-based continuous diffusion over ingredient weights.

Weights are modeled in standardized log-space per ingredient,
conditioned on a presence mask. The forward process is a
variance-preserving SDE dx = -1/2 beta(t) x dt + sqrt(beta(t)) dB with
beta linear in t, whose exact marginal is
x_t = sqrt(ab(t)) x_0 + sqrt(1 - ab(t)) eps, ab(t) = exp(-int_0^t beta).

The model's score is a standard-normal base plus a learned residual,
score(x, t) = -x - net(x, mask, emb) / sigma(t) with sigma = sqrt(1-ab).
Encoded data is standardized per ingredient, so net = 0 already gives
the exact unit-Gaussian score; outside the data support the -x base
keeps the reverse drift contractive, which a saturating tanh network
alone cannot (the true score grows linearly in x). The residual is
regressed with the sigma^2-weighted matching objective, i.e. onto
eps - sigma(t) x_t, an order-one target at all times. Reverse-time
sampling integrates dx = [g^2 score - f] dt + g dB~ with Euler-Maruyama
from t = 1 down to t_eps, pinning masked-out coordinates at zero.
Each reverse_integrate call owns its drift, noise and finiteness
buffers, and chunk_score gives the score its own network input and
layer buffers; no model holds one, so drawing leaves a model unchanged.
Each call also computes its step grid once: t_k, dt_k, beta(t_k) and
sqrt(beta dt) for the loop, and the time embedding rows and -sigma(t_k)
that it passes to every score call. The grid's expressions are the
per-step ones, applied elementwise, so the grid gives the bits that score
computes from t alone; nothing caches it on the SDESpec.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import netcore
from .corpus import Corpus
from .errors import DataError, NumericError, number, numbers
from .netcore import Network, TrainConfig

ScoreFn = Callable[[np.ndarray, np.ndarray, float, tuple[np.ndarray, float]], np.ndarray]


@dataclass
class SDESpec:
    """Variance-preserving SDE with beta(t) linear on [0, 1]."""

    beta_min: float = 0.1
    beta_max: float = 20.0
    steps: int = 500
    t_eps: float = 1e-3

    def __post_init__(self):
        self.beta_min = number(self.beta_min, "sde.beta_min", "(0, inf)")
        self.beta_max = number(self.beta_max, "sde.beta_max", f"[{self.beta_min!r}, inf)")
        self.steps = number(self.steps, "sde.steps", "[1, inf)", integer=True)
        self.t_eps = number(self.t_eps, "sde.t_eps", "(0, 1)")

    def beta(self, t):
        return self.beta_min + (self.beta_max - self.beta_min) * np.asarray(t, dtype=float)

    def alpha_bar(self, t):
        t = np.asarray(t, dtype=float)
        integral = self.beta_min * t + 0.5 * (self.beta_max - self.beta_min) * t * t
        return np.exp(-integral)


@dataclass
class WeightCodec:
    """Per-ingredient mean and standard deviation of log-grams."""

    log_mean: np.ndarray
    log_std: np.ndarray

    def __post_init__(self):
        self.log_mean = np.asarray(self.log_mean, dtype=float)
        self.log_std = np.maximum(np.asarray(self.log_std, dtype=float), 1e-3)


@dataclass
class QuantityScoreModel:
    sde: SDESpec
    net: Network
    codec: WeightCodec
    K: int
    vocab_fingerprint: str = ""
    history: list[tuple[int, float]] = field(default_factory=list)

    def score(self, x: np.ndarray, mask: np.ndarray, t: float,
              terms: tuple[np.ndarray, float] | None = None, inputs: np.ndarray | None = None,
              layers: list[np.ndarray] | None = None) -> np.ndarray:
        """Approximate score of the time-t marginal at the (n, K) states x,
        zero on masked coords. terms is _score_terms(sde, t), read from
        reverse_integrate's step grid; without it score computes them.
        chunk_score passes the network input, its mask columns already
        written, and the layer buffers; without them both are new arrays."""
        x = np.asarray(x, dtype=float)
        mask = np.asarray(mask, dtype=float)
        inputs = self._inputs(mask) if inputs is None else inputs
        embedding, neg_sigma = _score_terms(self.sde, t) if terms is None else terms
        inputs[:, :self.K] = x
        inputs[:, 2 * self.K:] = embedding
        score = netcore.forward(self.net, inputs, layers)
        # (-x - out / sigma) * mask, summed as out / -sigma - x: the same two terms, exactly
        score /= neg_sigma
        score -= x
        score *= mask
        return score

    def _inputs(self, masks: np.ndarray) -> np.ndarray:
        inputs = np.empty((len(masks), 2 * self.K + 3))
        inputs[:, self.K:2 * self.K] = masks
        return inputs

    def chunk_score(self, masks: np.ndarray) -> ScoreFn:
        """self.score on these mask rows, all its calls sharing one network
        input, its mask columns written once, and one set of layer buffers."""
        return functools.partial(self.score, inputs=self._inputs(masks),
                                 layers=netcore.layer_buffers(self.net, len(masks)))


def _score_terms(sde: SDESpec, t):
    """The time embedding and -sigma(t) = -sqrt(max(1 - ab(t), 1e-12)) that
    QuantityScoreModel.score reads at t, a float or an array of times
    (elementwise, so a grid's rows are the bits of the float calls)."""
    return (netcore.time_embedding(t, 1.0),
            -np.sqrt(np.maximum(1.0 - sde.alpha_bar(t), 1e-12)))


def fit_codec(weights: np.ndarray) -> WeightCodec:
    """Log-gram statistics per column of an (n, K) grams matrix; unseen
    ingredients get neutral defaults (mean log 100 g, unit spread)."""
    K = weights.shape[1]
    mu = np.full(K, math.log(100.0))
    sd = np.ones(K)
    for i in range(K):
        present = weights[:, i] > 0
        if present.any():
            logs = np.log(weights[present, i])
            mu[i] = logs.mean()
            sd[i] = logs.std()
    return WeightCodec(log_mean=mu, log_std=sd)


def _active_codec(codec: WeightCodec, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # per-ingredient (mean, std) at each True cell of a (K,) or (n, K) array
    return (np.broadcast_to(codec.log_mean, active.shape)[active],
            np.broadcast_to(codec.log_std, active.shape)[active])


def encode_weights(grams, codec: WeightCodec) -> np.ndarray:
    """Standardized log-grams where grams > 0, zero elsewhere.

    grams is one recipe (K,) or a grams matrix (n, K).
    """
    grams = np.asarray(grams, dtype=float)
    active = grams > 0
    mean, std = _active_codec(codec, active)
    z = np.zeros_like(grams)
    z[active] = (np.log(grams[active]) - mean) / std
    return z


def decode_weights(encoded, mask, codec: WeightCodec) -> np.ndarray:
    """Grams = exp(sd * z + mean) rounded to 1 g and floored at 1 g where
    mask = 1, zero elsewhere.

    encoded and mask are one recipe (K,) or a batch (n, K); the result
    has the same shape.
    """
    z = np.asarray(encoded, dtype=float)
    active = np.asarray(mask) == 1
    if not np.isfinite(z[active]).all():
        raise DataError("non-finite encoded weight value")
    mean, std = _active_codec(codec, active)
    grams = np.zeros_like(z)
    with np.errstate(over="ignore"):
        grams[active] = np.maximum(1.0, np.round(np.exp(std * z[active] + mean)))
    if np.isinf(grams).any():
        raise NumericError("decoded grams overflow to inf")
    return grams


def _dsm_inputs(model: QuantityScoreModel, x0: np.ndarray, masks: np.ndarray, t: np.ndarray,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Network inputs at x_t ~ q(x_t | x0) and the noise target
    eps - sigma(t) x_t its output is regressed onto (on masked cells)."""
    ab = model.sde.alpha_bar(t)[:, None]
    sigma = np.sqrt(1.0 - ab)
    eps = rng.standard_normal(x0.shape) * masks
    x_t = np.sqrt(ab) * x0 * masks + sigma * eps
    inputs = np.concatenate([x_t, masks, netcore.time_embedding(t, 1.0)], axis=1)
    return inputs, eps - sigma * x_t


def _prepare_dsm(model: QuantityScoreModel, x0: np.ndarray, masks: np.ndarray,
                 rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """The part of a training step on rows x0, masks that reads no
    parameter: _dsm_inputs at uniform t in [t_eps, 1), and the masks."""
    t = rng.uniform(model.sde.t_eps, 1.0, size=len(x0))
    return (*_dsm_inputs(model, x0, masks, t, rng), masks)


def _dsm_batch_step(model: QuantityScoreModel, inputs: np.ndarray, target: np.ndarray,
                    masks: np.ndarray, opt: netcore.OptimizerState) -> None:
    """One Adam step on the sigma^2-weighted DSM objective (the
    noise-residual regression, same minimizer as the unweighted loss),
    from _prepare_dsm's arrays."""
    acts = netcore.activations(model.net, inputs)
    resid = (acts[-1] - target) * masks
    netcore.optimizer_step(model.net, netcore.gradient(model.net, acts, 2.0 * resid / len(inputs)),
                           opt)


def _validation_dsm(model: QuantityScoreModel, x0: np.ndarray, masks: np.ndarray, seed: int) -> float:
    """Unweighted DSM on a fixed deterministic t grid over [0.1, 0.95]."""
    t = np.linspace(0.1, 0.95, x0.shape[0])
    inputs, target = _dsm_inputs(model, x0, masks, t, np.random.default_rng(seed))
    resid = (netcore.forward(model.net, inputs) - target) * masks
    per_row = (resid ** 2).sum(axis=1) / (1.0 - model.sde.alpha_bar(t))
    return float(per_row.mean())


def train_quantity_model(corpus: Corpus, sde: SDESpec, config: TrainConfig,
                         seed: int, threads: int = 1) -> QuantityScoreModel:
    """Fit the codec and train the score network on the corpus train split,
    validating on Corpus.training_rows' validation rows. Deterministic for a
    fixed seed, at any threads: with threads >= 2 a forked producer
    prepares the steps ahead (netcore.fit)."""
    weights, val_weights = corpus.training_rows()
    codec = fit_codec(weights)
    K = corpus.vocabulary.K
    sizes = [2 * K + 3] + [config.hidden_width] * config.hidden_depth + [K]
    net = netcore.init_network(sizes, seed)
    model = QuantityScoreModel(sde=sde, net=net, codec=codec, K=K,
                               vocab_fingerprint=corpus.vocabulary.fingerprint())
    x0, fmask = encode_weights(weights, codec), (weights > 0).astype(float)
    vx0, vmask = encode_weights(val_weights, codec), (val_weights > 0).astype(float)
    model.history = netcore.fit(
        net, config, seed, len(weights),
        lambda idx, rng: _prepare_dsm(model, x0[idx], fmask[idx], rng),
        lambda prepared, opt: _dsm_batch_step(model, *prepared, opt),
        lambda: _validation_dsm(model, vx0, vmask, seed + 1), threads)
    return model


def reverse_integrate(score_fn: ScoreFn, masks: np.ndarray, sde: SDESpec,
                      rngs: list[np.random.Generator]) -> np.ndarray:
    """Euler-Maruyama integration of the reverse-time VP SDE.

    Starts from a standard normal on active coordinates at t = 1 and
    steps down to t_eps on a uniform grid; no noise is injected on the
    final step. Masked-out coordinates stay pinned at zero throughout.
    The rows are len(rngs) equal blocks integrated in lockstep, one
    score_fn call per step for all of them. The start and every increment
    are drawn for the active cells only, block j's in row-major order from
    rngs[j], draw k from k * 2**64 outputs past its state at the call: the
    draws its rows alone would make, whatever rows follow them, and none
    for an all-zero row. With QuantityScoreModel.chunk_score(masks), no
    step allocates.

    The step scalars come from a grid made once per call over
    t_k = linspace(1, t_eps, steps + 1): t_k, dt_k = t_k - t_{k+1},
    beta(t_k), sqrt(beta dt) and _score_terms(sde, t_k). Step k calls
    score_fn(x, masks, t_k, terms_k) with its embedding row and -sigma.
    """
    masks = np.atleast_2d(np.asarray(masks, dtype=float))
    active = np.flatnonzero(masks)  # row-major, so block by block
    noise = np.empty(active.size)
    ends = np.cumsum([np.count_nonzero(b) for b in netcore.row_blocks(masks, len(rngs))])
    parts = list(zip(np.split(noise, ends[:-1]), rngs, [r.bit_generator.state for r in rngs]))

    def normals(k: int) -> np.ndarray:
        for part, rng, start in parts:
            rng.bit_generator.state = start
            rng.bit_generator.advance(k << 64)
            rng.standard_normal(out=part)
        return noise

    x = np.zeros(masks.shape)
    np.put(x, active, normals(0))
    drift, finite = np.empty(masks.shape), np.empty(masks.shape, dtype=bool)
    ts = np.linspace(1.0, sde.t_eps, sde.steps + 1)
    # the step grid: each step's scalars, computed once per call with the
    # expressions a single step would use, elementwise, so the same bits
    t_k, dt_k = ts[:-1], ts[:-1] - ts[1:]
    beta_k = sde.beta(t_k)
    grid = zip(t_k.tolist(), dt_k.tolist(), beta_k.tolist(), np.sqrt(beta_k * dt_k).tolist(),
               zip(*_score_terms(sde, t_k)))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (t, dt, b, noise_scale, terms) in enumerate(grid):
            # x += b * (s + 0.5 x) * dt * masks, then sqrt(b dt) * noise on active cells
            np.multiply(x, 0.5, out=drift)
            drift += score_fn(x, masks, t, terms)
            drift *= b
            drift *= dt
            drift *= masks
            x += drift
            if k < sde.steps - 1:
                normals(k + 1)
                noise *= noise_scale
                np.add.at(x.reshape(-1), active, noise)  # x is contiguous, so a view
            if not np.isfinite(x, out=finite).all():
                norm = float(np.abs(x[finite]).max()) if finite.any() else float("inf")
                raise NumericError(
                    f"non-finite state at reverse step {k + 1}/{sde.steps} "
                    f"(t={t:.4f}, max |x|={norm:.3e})")
    return x


def reverse_sample_batch(model: QuantityScoreModel, masks: np.ndarray, seed: int, *,
                         chunk_size: int = 2048, threads: int = 1) -> np.ndarray:
    """Grams matrix (n, K) sampled for the (n, K) mask rows.

    Row i draws from block i // 64 of the quantity stream of seed (netcore),
    the last block padded with all-zero rows, which draw nothing. So given
    generate_batch's masks it gives that batch's grams, at any chunk_size
    (rows to a window) and worker count (threads).
    """
    masks = np.atleast_2d(np.asarray(masks, dtype=np.uint8))
    padded = np.concatenate([masks, np.zeros((-len(masks) % netcore.BLOCK, masks.shape[1]))])

    def draw(blocks: range) -> np.ndarray:
        window = padded[blocks.start * netcore.BLOCK:blocks.stop * netcore.BLOCK]
        return reverse_integrate(model.chunk_score(window), window, model.sde,
                                 netcore.block_rngs(seed, netcore.QUANTITIES, blocks))

    z = netcore.map_windows(len(masks), chunk_size, threads, draw)
    return decode_weights(z, masks, model.codec)


def save_quantity_model(path: str | Path, model: QuantityScoreModel, seed_lineage=None) -> None:
    netcore.write_checkpoint(
        path, "quantity_diffusion", model, seed_lineage, sde=asdict(model.sde),
        codec={"log_mean": model.codec.log_mean.tolist(), "log_std": model.codec.log_std.tolist()})


def load_quantity_model(path: str | Path) -> QuantityScoreModel:
    """Read a checkpoint; DataError names the file and field of a bad value."""
    doc, K, net, fingerprint = netcore.read_checkpoint(path, "quantity_diffusion",
                                                       lambda k: 2 * k + 3)
    fields = {k: netcore.field(doc, path, f"sde.{k}") for k in asdict(SDESpec())}
    try:
        sde = SDESpec(**fields)
    except DataError as e:
        raise DataError(f"{path}: field {e}") from None
    codec = WeightCodec(**{k: netcore.field(doc, path, f"codec.{k}", numbers, length=K)
                           for k in ("log_mean", "log_std")})
    return QuantityScoreModel(sde=sde, net=net, codec=codec, K=K, vocab_fingerprint=fingerprint)
