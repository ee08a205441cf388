"""Binary multinomial diffusion over ingredient masks.

Forward process per ingredient: P(x_t = 1 | x_{t-1}) = (1 - beta_t) x_{t-1}
+ beta_t / 2, the two-category case of mixing with the uniform
distribution at rate beta_t. The denoiser predicts per-ingredient
probabilities that x_0 = 1; the reverse kernel substitutes that
prediction for x_0 in the analytic posterior by marginalizing over it,
p(x_{t-1}|x_t) = p_hat * q(x_{t-1}|x_t, x_0=1)
               + (1 - p_hat) * q(x_{t-1}|x_t, x_0=0),
under which the variational-bound-optimal prediction is exactly
E[x_0 | x_t]. Training maximizes the variational lower bound via a
uniformly sampled time step per example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit, rel_entr

from . import netcore
from .corpus import Corpus
from .errors import DataError, NumericError, number, numbers
from .netcore import Network, TrainConfig

_PCLIP = 1e-7
_EVIDENCE_CAP = 12.0


@dataclass
class NoiseSchedule:
    """Step count T, per-step beta_t, and cumulative alpha_bar products.

    alpha_bar has length T + 1 with alpha_bar[0] = 1 (the t = 0
    convention); alpha_bar[t] = prod_{s<=t} (1 - beta_s). post is the
    forward-chain posterior for bits: post[t - 1, x_t, x0] =
    P(x_{t-1} = 1 | x_t, x0), shape (T, 2, 2). For t = 0..T, emb[t] is the
    time embedding and evidence[t] the capped lambda(t) of MaskDiffusionModel.
    """

    betas: np.ndarray
    alpha_bar: np.ndarray = field(init=False)
    post: np.ndarray = field(init=False)
    emb: np.ndarray = field(init=False)
    evidence: np.ndarray = field(init=False)

    def __post_init__(self):
        self.betas = numbers(np.asarray(self.betas, dtype=float).tolist(), "schedule.beta", "(0, 1]")
        self.alpha_bar = np.concatenate([[1.0], np.cumprod(1.0 - self.betas)])
        if (np.diff(self.alpha_bar) >= 0).any():
            raise DataError(f"schedule.beta stops alpha_bar decreasing within schedule.T = {self.T} "
                            "steps; expected fewer steps or smaller betas")
        bits = np.array([0.0, 1.0])
        self.post = _posterior_prob(bits[None, :, None], bits[None, None, :],
                                    self.betas[:, None, None], self.alpha_bar[:-1, None, None])
        self.emb = netcore.time_embedding(np.arange(self.T + 1), float(max(self.T, 1)))
        ab = self.alpha_bar
        self.evidence = np.minimum(np.log((1.0 + ab) / np.maximum(1.0 - ab, 1e-15)), _EVIDENCE_CAP)

    @property
    def T(self) -> int:
        return len(self.betas)


def linear_schedule(T: int, beta_start: float = 0.02, beta_end: float = 0.5) -> NoiseSchedule:
    return NoiseSchedule(betas=np.linspace(beta_start, beta_end, T))


@dataclass
class MaskDiffusionModel:
    """Denoiser = analytic independent-ingredient posterior + residual net.

    The prediction for P(x0_i = 1 | x_t) is
    sigmoid(base_logits_i + (2 x_t_i - 1) lambda(t) + net(x_t, t)_i) with
    lambda(t) = log((1 + ab_t) / (1 - ab_t)), the exact log-likelihood
    ratio one noisy bit contributes under the mixing kernel. Every model
    has base_logits (training sets them to the corpus base rates' logits,
    and a checkpoint without them does not load). With a zero residual
    this is the exact posterior for independent ingredients; the network
    only has to learn ingredient interactions.
    """

    schedule: NoiseSchedule
    net: Network
    K: int
    base_logits: np.ndarray
    vocab_fingerprint: str = ""
    history: list[tuple[int, float]] = field(default_factory=list)


def _posterior_prob(x_t, x0_prob, beta_t, alpha_bar_prev):
    """P(x_{t-1} = 1 | x_t, x0) with x0 generalized to a probability.

    Proportional to P(x_t | x_{t-1}) * P(x_{t-1} | x0), normalized over
    x_{t-1} in {0, 1}. All arguments broadcast elementwise.
    """
    x_t = np.asarray(x_t, dtype=float)
    like1 = (1.0 - beta_t) * x_t + beta_t / 2.0          # P(x_t | x_{t-1}=1)
    like0 = (1.0 - beta_t) * (1.0 - x_t) + beta_t / 2.0  # P(x_t | x_{t-1}=0)
    m = alpha_bar_prev * np.asarray(x0_prob, dtype=float) + (1.0 - alpha_bar_prev) / 2.0
    num = like1 * m
    return num / (num + like0 * (1.0 - m))


def _model_inputs(x_t: np.ndarray, t, schedule: NoiseSchedule, out=None) -> np.ndarray:
    """Denoiser inputs (into out if given) at bits x_t and steps t (int or
    per row): 2 x_t - 1, time embedding."""
    # bits enter as +-1; tanh layers calibrate better on centered inputs
    K = x_t.shape[-1]
    inputs = np.empty(x_t.shape[:-1] + (K + 3,)) if out is None else out
    signs = np.multiply(x_t, 2.0, out=inputs[..., :K])
    signs -= 1.0
    inputs[..., K:] = schedule.emb[t]
    return inputs


def _predict_p_hat(model: MaskDiffusionModel, x_t: np.ndarray, t, inputs=None,
                   layers=None, term=None) -> np.ndarray:
    """Denoiser output probabilities, clipped away from 0 and 1, in layers[-1]:
    a sampler passes its own inputs, layer_buffers and (n, K) term scratch."""
    inputs = _model_inputs(x_t, t, model.schedule, inputs)
    return _p_hat(model, netcore.forward(model.net, inputs, layers),
                  _evidence(model.schedule, inputs, t, term))


def _evidence(sched: NoiseSchedule, inputs: np.ndarray, t, out=None) -> np.ndarray:
    """(2 x_t - 1) lambda(t) per cell (into out if given), read from the
    _model_inputs at bits x_t and steps t."""
    return np.multiply(inputs[..., :-3], sched.evidence[t][..., None], out=out)


def _p_hat(model: MaskDiffusionModel, logits: np.ndarray, evidence: np.ndarray) -> np.ndarray:
    """_predict_p_hat from the network's output logits and the _evidence
    term at its inputs. Overwrites logits with the result."""
    logits += model.base_logits
    logits += evidence
    p = expit(logits, out=logits)
    return np.clip(p, _PCLIP, 1.0 - _PCLIP, out=p)


def _kl_bernoulli(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    p = np.clip(p, _PCLIP, 1.0 - _PCLIP)
    q = np.asarray(q, dtype=float)
    return rel_entr(q, p) + rel_entr(1.0 - q, 1.0 - p)


def _post_pair(sched: NoiseSchedule, t, x_t: np.ndarray, out0=None, out1=None,
               flip=None, scratch=None) -> tuple[np.ndarray, np.ndarray]:
    """(pi0, pi1): P(x_{t-1} = 1 | x_t, x0) at x0 = 0 and at x0 = 1, per cell
    of the bits x_t at step t (an int, or an array that broadcasts against x_t),
    read from sched.post; out0, out1, flip (1 - x_t) and scratch are optional buffers."""
    post = sched.post[t - 1]
    # for bits x_t, x_t a + (1 - x_t) b is a or b exactly: a + 0 or 0 + b
    flip = np.subtract(1.0, x_t, out=flip)
    pi0 = np.multiply(x_t, post[..., 1, 0], out=out0)
    pi1 = np.multiply(x_t, post[..., 1, 1], out=out1)
    pi0 += np.multiply(flip, post[..., 0, 0], out=scratch)
    pi1 += np.multiply(flip, post[..., 0, 1], out=scratch)
    return pi0, pi1


def _posterior_terms(sched: NoiseSchedule, t: np.ndarray, x_t: np.ndarray,
                     x0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pi0, pi1, q_true): _post_pair and the posterior at the given x0."""
    pi0, pi1 = _post_pair(sched, t[:, None], x_t)
    return pi0, pi1, np.where(x0 == 1.0, pi1, pi0)


def _noise(sched: NoiseSchedule, x0: np.ndarray,
           rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One uniform t in 1..T per row of x0 and x_t drawn from q(x_t | x_0)."""
    t = rng.integers(1, sched.T + 1, size=x0.shape[0])
    ab_t = sched.alpha_bar[t][:, None]
    x_t = (rng.random(x0.shape) < ab_t * x0 + (1.0 - ab_t) / 2.0).astype(float)
    return t, x_t


def _elbo_terms(model: MaskDiffusionModel, masks: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """One negative-ELBO Monte Carlo draw per row of masks.

    Each row gets one uniformly sampled t in 1..T; the per-step KL (or the
    t = 1 reconstruction term, which the same formula yields because
    alpha_bar_0 = 1 makes the true posterior degenerate) is scaled by T
    and the constant terminal prior KL is added.
    """
    sched = model.schedule
    T = sched.T
    x0 = masks.astype(float)
    t, x_t = _noise(sched, x0, rng)
    p_hat = _predict_p_hat(model, x_t, t)
    pi0, pi1, q_true = _posterior_terms(sched, t, x_t, x0)
    q_model = p_hat * pi1 + (1.0 - p_hat) * pi0
    step_term = _kl_bernoulli(q_true, q_model).sum(axis=1)
    qT = sched.alpha_bar[T] * x0 + (1.0 - sched.alpha_bar[T]) / 2.0
    prior = _kl_bernoulli(qT, np.full_like(qT, 0.5)).sum(axis=1)
    return prior + T * step_term


def _prepare_step(sched: NoiseSchedule, batch: np.ndarray,
                  rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """The part of a training step on the mask rows batch that reads no
    parameter: its noise draws, and the denoiser inputs, _evidence term
    and _posterior_terms (pi0, pi1, q_true) at them."""
    x0 = batch.astype(float)
    t, x_t = _noise(sched, x0, rng)
    inputs = _model_inputs(x_t, t, sched)
    return (inputs, _evidence(sched, inputs, t), *_posterior_terms(sched, t, x_t, x0))


def _train_step(model: MaskDiffusionModel, inputs: np.ndarray, evidence: np.ndarray,
                pi0: np.ndarray, pi1: np.ndarray, q_true: np.ndarray,
                opt: netcore.OptimizerState) -> None:
    """One Adam step on the negative ELBO from _prepare_step's arrays."""
    acts = netcore.activations(model.net, inputs)
    s = _p_hat(model, acts[-1].copy(), evidence)  # acts stays the network's output
    pi = np.clip(s * pi1 + (1.0 - s) * pi0, _PCLIP, 1.0 - _PCLIP)
    dkl_dpi = -q_true / pi + (1.0 - q_true) / (1.0 - pi)
    cot = dkl_dpi * (pi1 - pi0) * s * (1.0 - s) * (model.schedule.T / len(inputs))
    netcore.optimizer_step(model.net, netcore.gradient(model.net, acts, cot), opt)


def _validation_loss(model: MaskDiffusionModel, masks: np.ndarray, seed: int, draws: int) -> float:
    rng = np.random.default_rng(seed)
    reps = np.repeat(masks, max(1, draws // max(1, masks.shape[0])), axis=0)
    return float(_elbo_terms(model, reps, rng).mean())


def train_mask_model(corpus: Corpus, schedule: NoiseSchedule, config: TrainConfig,
                     seed: int, threads: int = 1) -> MaskDiffusionModel:
    """Train the mask denoiser on the corpus train split.

    Deterministic for a fixed seed, at any threads: with threads >= 2 a
    forked producer prepares the steps ahead (netcore.fit). Validation
    negative ELBO is recorded in model.history at config.val_interval on
    Corpus.training_rows' validation rows.
    """
    train, val = corpus.training_rows()
    masks, val_masks = (train > 0).astype(np.uint8), (val > 0).astype(np.uint8)
    if (~masks.any(axis=1)).any():
        raise DataError("training corpus contains an all-zero mask")
    K = corpus.vocabulary.K
    sizes = [K + 3] + [config.hidden_width] * config.hidden_depth + [K]
    net = netcore.init_network(sizes, seed)
    # zero output layer: the model starts exactly at the analytic
    # independent-ingredient posterior and learns only the residual
    net.weights[-1][:] = 0.0
    marg = np.clip(masks.mean(axis=0), 1e-3, 1.0 - 1e-3)
    model = MaskDiffusionModel(schedule=schedule, net=net, K=K,
                               base_logits=np.log(marg / (1.0 - marg)),
                               vocab_fingerprint=corpus.vocabulary.fingerprint())
    model.history = netcore.fit(
        net, config, seed, masks.shape[0],
        lambda idx, rng: _prepare_step(schedule, masks[idx], rng),
        lambda prepared, opt: _train_step(model, *prepared, opt),
        lambda: _validation_loss(model, val_masks, seed + 1, config.val_draws), threads)
    return model


def _reverse_pi(sched: NoiseSchedule, t: int, x_t: np.ndarray, p_hat: np.ndarray,
                out0=None, out1=None, flip=None, scratch=None) -> np.ndarray:
    """Model reverse kernel P(x_{t-1} = 1 | x_t): the posterior table's
    step-t entries at x0 = 1 and x0 = 0, mixed by p_hat = P(x0 = 1), in
    out0 if given; the buffers are _post_pair's.

    At t = 1 the posterior is a point mass at x0, so this is p_hat, the
    reconstruction distribution.
    """
    pi0, pi1 = _post_pair(sched, t, x_t, out0, out1, flip, scratch)
    pi1 *= p_hat
    pi0 *= np.subtract(1.0, p_hat, out=scratch)
    pi0 += pi1  # p_hat pi1 + (1 - p_hat) pi0
    return pi0


def _chains(model: MaskDiffusionModel, rngs: list[np.random.Generator], n: int) -> np.ndarray:
    """n ancestral chains as len(rngs) equal blocks run in lockstep, one
    denoiser call per step for all of them. Block j draws its start and
    every uniform from rngs[j], the draws its chains alone would make. Steps write
    into the call's workspace (u holds 1 - x between draws; the output layer p_hat)."""
    sched = model.schedule
    u, x, pi0, pi1, term = (np.empty((n, model.K)) for _ in range(5))
    inputs, layers = np.empty((n, model.K + 3)), netcore.layer_buffers(model.net, n)
    blocks, pi = netcore.row_blocks(u, len(rngs)), 0.5  # the start is uniform
    for t in range(sched.T, -1, -1):
        for block, rng in zip(blocks, rngs):
            rng.random(out=block)
        np.less(u, pi, out=x)
        if t:
            p_hat = _predict_p_hat(model, x, t, inputs, layers, term)
            pi = _reverse_pi(sched, t, x, p_hat, pi0, pi1, flip=u, scratch=term)
    return x


def _sample_chunk(model: MaskDiffusionModel, n: int,
                  rngs: list[np.random.Generator]) -> tuple[np.ndarray, int]:
    """n masks as len(rngs) equal blocks sampled in lockstep, and the
    number of all-zero masks discarded.

    Block j is what sampling its rows alone with rngs[j] gives: its
    all-zero masks are resampled from rngs[j] after the lockstep chains,
    block by block.
    """
    x = _chains(model, rngs, n)
    discarded = 0
    for block, rng in zip(netcore.row_blocks(x, len(rngs)), rngs):
        for _ in range(1000):
            empty = ~block.astype(bool).any(axis=1)
            if not empty.any():
                break
            discarded += int(empty.sum())
            block[empty] = _chains(model, [rng], int(empty.sum()))
        else:
            raise NumericError("mask sampler kept producing all-zero masks")
    return x.astype(np.uint8), discarded


def sample_masks(model: MaskDiffusionModel, count: int, seed: int, *,
                 chunk_size: int = 2048, threads: int = 1) -> np.ndarray:
    """Draw count masks by ancestral sampling; (count, K) uint8 array.

    Rows 0 to count - 1 of the mask stream of seed (netcore), chunk_size
    rows to a window; all-zero masks are discarded and resampled.
    """
    return netcore.map_windows(
        count, chunk_size, threads,
        lambda blocks: _sample_chunk(model, len(blocks) * netcore.BLOCK,
                                     netcore.block_rngs(seed, netcore.MASKS, blocks))[0])


def save_mask_model(path: str | Path, model: MaskDiffusionModel, seed_lineage=None) -> None:
    netcore.write_checkpoint(
        path, "mask_diffusion", model, seed_lineage,
        schedule={"T": model.schedule.T, "beta": model.schedule.betas.tolist()},
        base_logits=model.base_logits.tolist())


def load_mask_model(path: str | Path) -> MaskDiffusionModel:
    """Read a checkpoint; DataError names the file and field of a bad value."""
    doc, K, net, fingerprint = netcore.read_checkpoint(path, "mask_diffusion", lambda k: k + 3)
    T = netcore.field(doc, path, "schedule.T", number, "[1, inf)", integer=True)
    betas = netcore.field(doc, path, "schedule.beta", numbers, length=T)
    try:
        schedule = NoiseSchedule(betas=betas)
    except DataError as e:
        raise DataError(f"{path}: field {e}") from None
    return MaskDiffusionModel(
        schedule=schedule, net=net, K=K,
        base_logits=netcore.field(doc, path, "base_logits", numbers, length=K),
        vocab_fingerprint=fingerprint,
    )
