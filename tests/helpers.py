"""Reference computations that only the tests use.

Closed-form kernels of the two diffusion models (the mask sampler's
reverse kernel among them, evaluated from the posterior formula), small
untrained models for sample-stream checks, a finite-difference gradient
check for netcore networks, a per-layer reference training step, the
inclusion marginals a synth spec implies, and SDS-0 grouping one row at
a time. The program never calls them; the tests compare its vectorised
code against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from recipeforge import mask_diffusion as md
from recipeforge import netcore
from recipeforge import quantity_diffusion as qd
from recipeforge import scoring
from recipeforge.corpus import SynthSpec
from recipeforge.errors import NumericError
from recipeforge.mask_diffusion import NoiseSchedule
from recipeforge.netcore import Network
from recipeforge.quantity_diffusion import SDESpec


def forward_step_kernel(x_prev, beta_t):
    """P(x_t = 1 | x_{t-1}): (1 - beta) x_prev + beta / 2. Works elementwise.

    beta = 0 is allowed here as the no-noise identity limit; schedules
    themselves require beta in (0, 1].
    """
    beta = np.asarray(beta_t, dtype=float)
    if ((beta < 0) | (beta > 1)).any():
        raise ValueError(f"beta_t must lie in [0, 1], got {beta_t}")
    return (1.0 - beta) * np.asarray(x_prev, dtype=float) + beta / 2.0


def marginal_kernel(x0, t: int, schedule: NoiseSchedule):
    """P(x_t = 1 | x_0) = alpha_bar_t x_0 + (1 - alpha_bar_t) / 2.

    t = 0 is allowed and returns x0 itself (alpha_bar_0 = 1).
    """
    if not 0 <= t <= schedule.T:
        raise ValueError(f"t must lie in 0..{schedule.T}, got {t}")
    ab = schedule.alpha_bar[t]
    return ab * np.asarray(x0, dtype=float) + (1.0 - ab) / 2.0


def reverse_prob(x_t, p_hat, beta_t, alpha_bar_prev):
    """Model reverse kernel: posterior marginalized over x0 ~ Bern(p_hat).

    At t = 1 (alpha_bar_prev = 1) the posterior is a point mass at x0,
    so this reduces to Bern(p_hat), the reconstruction distribution.
    """
    pi1 = md._posterior_prob(x_t, 1.0, beta_t, alpha_bar_prev)
    pi0 = md._posterior_prob(x_t, 0.0, beta_t, alpha_bar_prev)
    p_hat = np.asarray(p_hat, dtype=float)
    return p_hat * pi1 + (1.0 - p_hat) * pi0


def perturb(x0, t: float, sde: SDESpec, seed: int) -> np.ndarray:
    """Exact VP forward marginal: sqrt(ab) x0 + sqrt(1 - ab) eps."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t}")
    x0 = np.asarray(x0, dtype=float)
    rng = np.random.default_rng(seed)
    ab = float(sde.alpha_bar(t))
    return math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * rng.standard_normal(x0.shape)


def random_models(K=6, seed=0):
    """Untrained mask and quantity models whose samples vary, so each row of
    a sample stream is distinctive."""
    mask_model = md.MaskDiffusionModel(
        schedule=md.linear_schedule(10), net=netcore.init_network([K + 3, 8, K], seed),
        K=K, base_logits=np.zeros(K), vocab_fingerprint="v")
    codec = qd.WeightCodec(log_mean=np.full(K, np.log(100.0)), log_std=np.full(K, 0.5))
    qty_model = qd.QuantityScoreModel(
        sde=qd.SDESpec(steps=20), net=netcore.init_network([2 * K + 3, 8, K], seed + 1),
        codec=codec, K=K, vocab_fingerprint="v")
    return mask_model, qty_model


def gradcheck(net: Network, seed: int, n_params: int = 100, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Uses a random input and a random output cotangent; checks a random
    subset of n_params parameters, perturbing net.theta in place. Relative
    error is |analytic - numeric| / (|analytic| + |numeric| + 1e-12).
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(net.sizes[0])
    v = rng.standard_normal(net.sizes[-1])
    analytic = netcore.gradient(net, netcore.activations(net, x), v)
    theta = net.theta
    idx = rng.choice(theta.size, size=min(n_params, theta.size), replace=False)
    worst = 0.0
    for i in idx:
        orig = theta[i]
        theta[i] = orig + h
        fp = float(netcore.forward(net, x) @ v)
        theta[i] = orig - h
        fm = float(netcore.forward(net, x) @ v)
        theta[i] = orig
        numeric = (fp - fm) / (2 * h)
        a = analytic[i]
        rel = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
        worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# Reference training step: the per-layer Adam, parameter average and
# gradient (which recomputes the forward pass) that netcore's flat versions
# must match bit for bit, and the mask training step that evaluates the
# posterior three times instead of reading the schedule's table.

@dataclass
class LayerAdam:
    """Adam moments kept per layer, as lists shaped like the parameters."""

    m_w: list[np.ndarray]
    v_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_b: list[np.ndarray]
    step: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def layer_init_optimizer(net: Network, learning_rate: float = 1e-3) -> LayerAdam:
    return LayerAdam(m_w=[np.zeros_like(w) for w in net.weights],
                     v_w=[np.zeros_like(w) for w in net.weights],
                     m_b=[np.zeros_like(b) for b in net.biases],
                     v_b=[np.zeros_like(b) for b in net.biases],
                     learning_rate=learning_rate)


def layer_optimizer_step(net: Network, grads, state: LayerAdam) -> None:
    for dw, db in grads:
        if not (np.isfinite(dw).all() and np.isfinite(db).all()):
            raise NumericError("non-finite gradient component in optimizer step")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    corr1 = 1.0 - b1 ** state.step
    corr2 = 1.0 - b2 ** state.step
    scale = state.learning_rate * math.sqrt(corr2) / corr1
    for l, (dw, db) in enumerate(grads):
        state.m_w[l] = b1 * state.m_w[l] + (1 - b1) * dw
        state.v_w[l] = b2 * state.v_w[l] + (1 - b2) * dw * dw
        state.m_b[l] = b1 * state.m_b[l] + (1 - b1) * db
        state.v_b[l] = b2 * state.v_b[l] + (1 - b2) * db * db
        net.weights[l][:] -= scale * state.m_w[l] / (np.sqrt(state.v_w[l]) + state.eps)
        net.biases[l][:] -= scale * state.m_b[l] / (np.sqrt(state.v_b[l]) + state.eps)


def layer_gradient(net: Network, x: np.ndarray,
                   cot: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (dW, db) of cot . forward(net, x), recomputing the forward pass."""
    acts = [np.asarray(x, dtype=float)]
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = acts[-1] @ w.T + b
        acts.append(np.tanh(a) if l != last else a)
    g = np.asarray(cot, dtype=float)
    grads = [None] * len(net.weights)
    for l in range(last, -1, -1):
        if l != last:
            g = g * (1.0 - acts[l + 1] ** 2)
        grads[l] = (g.T @ acts[l], g.sum(axis=0))
        g = g @ net.weights[l]
    return grads


class LayerAverage:
    """Exponential moving average kept per layer."""

    def __init__(self, net: Network, decay: float):
        self.decay = decay
        self.weights = [w.copy() for w in net.weights]
        self.biases = [b.copy() for b in net.biases]

    def update(self, net: Network) -> None:
        d = self.decay
        for l in range(len(net.weights)):
            self.weights[l] = d * self.weights[l] + (1.0 - d) * net.weights[l]
            self.biases[l] = d * self.biases[l] + (1.0 - d) * net.biases[l]

    def copy_to(self, net: Network) -> None:
        for l in range(len(net.weights)):
            net.weights[l][:] = self.weights[l]
            net.biases[l][:] = self.biases[l]


def layer_mask_draws(sched, batch, rng) -> tuple[np.ndarray, ...]:
    """The draws of mask_diffusion._prepare_step, with the rows they noise:
    (x0, t, x_t)."""
    x0 = batch.astype(float)
    return (x0, *md._noise(sched, x0, rng))


def layer_mask_train_step(model, x0, t, x_t, opt: LayerAdam) -> None:
    """mask_diffusion._train_step on layer_mask_draws' arrays, with the
    posterior evaluated per cell and the reference gradient and Adam."""
    sched = model.schedule
    T, B = sched.T, x0.shape[0]
    inputs = md._model_inputs(x_t, t, sched)
    s = md._predict_p_hat(model, x_t, t)
    beta_t = sched.betas[t - 1][:, None]
    ab_prev = sched.alpha_bar[t - 1][:, None]
    pi1 = md._posterior_prob(x_t, 1.0, beta_t, ab_prev)
    pi0 = md._posterior_prob(x_t, 0.0, beta_t, ab_prev)
    pi = np.clip(s * pi1 + (1.0 - s) * pi0, md._PCLIP, 1.0 - md._PCLIP)
    q_true = md._posterior_prob(x_t, x0, beta_t, ab_prev)
    dkl_dpi = -q_true / pi + (1.0 - q_true) / (1.0 - pi)
    cot = dkl_dpi * (pi1 - pi0) * s * (1.0 - s) * (T / B)
    layer_optimizer_step(model.net, layer_gradient(model.net, inputs, cot), opt)


def use_layer_reference(monkeypatch) -> None:
    """Train with the reference step: per-layer Adam, average and
    recomputing gradient in netcore, and the per-cell mask posterior."""
    monkeypatch.setattr(netcore, "init_optimizer", layer_init_optimizer)
    monkeypatch.setattr(netcore, "ParameterAverage", LayerAverage)
    monkeypatch.setattr(netcore, "gradient",
                        lambda net, acts, cot: layer_gradient(net, acts[0], cot))
    monkeypatch.setattr(netcore, "optimizer_step", layer_optimizer_step)
    monkeypatch.setattr(md, "_prepare_step", layer_mask_draws)
    monkeypatch.setattr(md, "_train_step", layer_mask_train_step)


def expected_marginals(spec: SynthSpec) -> np.ndarray:
    """Inclusion probability per vocabulary index under the spec's full mixture."""
    vocab = spec.vocabulary()
    base = np.zeros(len(spec.ingredients))
    for s in spec.ingredients:
        base[vocab.index_of(s.ingredient_id)] = s.marginal
    planted_total = sum(f for _, f in spec.planted)
    out = (1.0 - planted_total) * base
    for items, f in spec.planted:
        for ing in items:
            out[vocab.index_of(ing)] += f
    return out


def group_recipes_loop(samples: np.ndarray) -> list[scoring.SDSGroup]:
    """scoring.group_recipes one row at a time: each row joins the first
    group, in founding order, whose founder is at SDS = 0 to it among the
    founders of its presence pattern, else founds a new group."""
    buckets: dict[bytes, list[int]] = {}  # presence pattern -> founder rows
    founded: dict[int, scoring.SDSGroup] = {}
    for i, w in enumerate(samples):
        founders = buckets.setdefault(np.packbits(w > 0).tobytes(), [])
        if founders:
            hits = np.flatnonzero(scoring._sds_rows(w, samples[founders]) == 0)
            if hits.size:
                founded[founders[hits[0]]].count += 1
                continue
        founders.append(i)
        founded[i] = scoring.SDSGroup(count=1, founder_index=i)
    return sorted(founded.values(), key=lambda g: (-g.count, g.founder_index))
