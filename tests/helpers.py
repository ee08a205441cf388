"""Reference computations that only the tests use.

Closed-form kernels of the two diffusion models, a finite-difference
gradient check for netcore networks, and the inclusion marginals a synth
spec implies. The program never calls them; the tests compare its
vectorised code against them.
"""

from __future__ import annotations

import math

import numpy as np

from recipeforge import netcore
from recipeforge.corpus import SynthSpec
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


def perturb(x0, t: float, sde: SDESpec, seed: int) -> np.ndarray:
    """Exact VP forward marginal: sqrt(ab) x0 + sqrt(1 - ab) eps."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"t must lie in (0, 1], got {t}")
    x0 = np.asarray(x0, dtype=float)
    rng = np.random.default_rng(seed)
    ab = float(sde.alpha_bar(t))
    return math.sqrt(ab) * x0 + math.sqrt(1.0 - ab) * rng.standard_normal(x0.shape)


def flatten_params(net: Network) -> np.ndarray:
    parts = []
    for w, b in zip(net.weights, net.biases):
        parts.append(w.ravel())
        parts.append(b.ravel())
    return np.concatenate(parts)


def write_params(net: Network, theta: np.ndarray) -> None:
    i = 0
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        net.weights[l] = theta[i:i + w.size].reshape(w.shape).copy()
        i += w.size
        net.biases[l] = theta[i:i + b.size].reshape(b.shape).copy()
        i += b.size


def gradcheck(net: Network, seed: int, n_params: int = 100, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Uses a random input and a random output cotangent; checks a random
    subset of n_params parameters. Relative error is
    |analytic - numeric| / (|analytic| + |numeric| + 1e-12).
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(net.sizes[0])
    v = rng.standard_normal(net.sizes[-1])
    analytic = netcore.gradient(net, x, v)
    flat_analytic = np.concatenate(
        [np.concatenate([dw.ravel(), db.ravel()]) for dw, db in analytic])
    theta = flatten_params(net)
    idx = rng.choice(theta.size, size=min(n_params, theta.size), replace=False)
    worst = 0.0
    for i in idx:
        tp = theta.copy(); tp[i] += h
        tm = theta.copy(); tm[i] -= h
        write_params(net, tp)
        fp = float(netcore.forward(net, x) @ v)
        write_params(net, tm)
        fm = float(netcore.forward(net, x) @ v)
        numeric = (fp - fm) / (2 * h)
        a = flat_analytic[i]
        rel = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
        worst = max(worst, rel)
    write_params(net, theta)
    return worst


def expected_marginals(spec: SynthSpec) -> np.ndarray:
    """Inclusion probability per vocabulary index under the spec's full mixture."""
    vocab = spec.vocabulary()
    base = np.zeros(spec.K)
    for s in spec.ingredients:
        base[vocab.index_of(s.ingredient_id)] = s.marginal
    planted_total = sum(f for _, f in spec.planted)
    out = (1.0 - planted_total) * base
    for items, f in spec.planted:
        for ing in items:
            out[vocab.index_of(ing)] += f
    return out
