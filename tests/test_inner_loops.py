"""The samplers' and training steps' inner loops: fixed output bits and
untouched inputs.

The pins are sha256 digests of outputs of a tiny fixed-seed run, recorded
at commit 264df32, before the inner loops were rewritten in place. A speed-up
that moves any bit of a sample or a trained parameter fails here. They
hold for one numpy/OpenBLAS build and CPU kernel family; a platform whose
BLAS sums in another order needs them re-recorded from that earlier code.
"""

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from recipeforge import mask_diffusion as md
from recipeforge import netcore
from recipeforge import quantity_diffusion as qd
from recipeforge.corpus import Corpus, IngredientVocabulary
from helpers import random_models

PINS = {
    "sample_masks chunk 16":
        "a56a3379d08be9f8ee6dfe607038fc3115a5372f099133b857ae97947721f9bf",
    "sample_masks chunk 2048":
        "1d7b51480d60dcfc93502a123473afbcab3e2524c82244183df029c61eb99934",
    "reverse_sample_batch":
        "0538500dfffc3f733283fb5f4883f4b17e0604e790f26d85d7dbbbabf97fdf0a",
    "train_mask_model theta":
        "21e2d9ce77366ef9aeac17eab4f1fbdde65acdaca86c63b4af9736411e130b3c",
    "train_quantity_model theta":
        "c011df78f440ecced7fcd5f6fad5897e86ebdde6efc8c54c0aa258189797089e",
}


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def pinned_outputs() -> dict[str, str]:
    """Digests of five outputs of two tiny models trained 50 steps, with
    learning-rate decay and a parameter average, on a fixed random corpus."""
    rng = np.random.default_rng(2024)
    K = 6
    grams = np.round(rng.uniform(5.0, 200.0, (64, K))) * (rng.random((64, K)) < 0.5)
    grams[~(grams > 0).any(axis=1), 0] = 50.0
    corpus = Corpus(vocabulary=IngredientVocabulary.from_ids([f"i{j}" for j in range(K)]),
                    grams=grams, splits=["train"] * 56 + ["validation"] * 8)
    cfg = netcore.TrainConfig(steps=50, batch_size=16, learning_rate=3e-3,
                              final_learning_rate=3e-4, ema_decay=0.9, hidden_width=8,
                              hidden_depth=2, val_interval=25, val_draws=32)
    mask = md.train_mask_model(corpus, md.linear_schedule(12), cfg, seed=7)
    qty = qd.train_quantity_model(corpus, qd.SDESpec(steps=15), cfg, seed=8)
    masks = md.sample_masks(mask, 40, seed=3, chunk_size=16)
    return {
        "sample_masks chunk 16": _sha(masks),
        "sample_masks chunk 2048": _sha(md.sample_masks(mask, 40, seed=3)),
        "reverse_sample_batch": _sha(qd.reverse_sample_batch(qty, masks, seed=4, chunk_size=16)),
        "train_mask_model theta": _sha(mask.net.theta),
        "train_quantity_model theta": _sha(qty.net.theta),
    }


def test_outputs_keep_their_pinned_bits():
    assert pinned_outputs() == PINS


@st.composite
def nets_and_batches(draw):
    """A small network and a random input for it: one vector (D,) or a
    batch of 1 or more rows, with a cotangent shaped like its output."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=4))
    rows = draw(st.sampled_from([None, 1, 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    lead = () if rows is None else (rows,)
    net = netcore.init_network(sizes, int(rng.integers(1000)))
    net.theta[:] = rng.standard_normal(net.theta.shape)
    return net, rng.standard_normal(lead + (sizes[0],)), rng.standard_normal(lead + (sizes[-1],))


def _unchanged(before: list[np.ndarray], after: list[np.ndarray]) -> bool:
    return all(a.tobytes() == b.tobytes() for a, b in zip(before, after))


@settings(max_examples=60, deadline=None)
@given(nets_and_batches())
def test_network_kernels_leave_their_inputs_alone(case):
    net, x, cot = case
    kept = [x.copy(), cot.copy(), net.theta.copy()]
    out = netcore.forward(net, x)
    acts = netcore.activations(net, x)
    acts_kept = [a.copy() for a in acts]
    grad = netcore.gradient(net, acts, cot)
    assert _unchanged(kept, [x, cot, net.theta]) and _unchanged(acts_kept, acts)
    assert not np.shares_memory(out, x) and out.tobytes() == acts[-1].tobytes()

    grad_kept = grad.copy()
    netcore.optimizer_step(net, grad, netcore.init_optimizer(net))
    assert _unchanged([grad_kept], [grad])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.sampled_from([None, 1, 3]), st.integers(0, 2**16))
def test_quantity_sampler_leaves_its_inputs_alone(K, rows, seed):
    _, model = random_models(K=K, seed=seed % 100)
    model.sde = qd.SDESpec(steps=3)
    rng = np.random.default_rng(seed)
    lead = () if rows is None else (rows,)
    masks = (rng.random(lead + (K,)) < 0.6).astype(float)
    x = rng.standard_normal(np.atleast_2d(masks).shape)
    kept = [x.copy(), masks.copy()]
    model.score(x, np.atleast_2d(masks), 0.5)
    qd.reverse_integrate(model.score, masks, model.sde, [netcore.chunk_rng(seed, 0)])
    assert _unchanged(kept, [x, masks])
