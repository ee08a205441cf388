"""The samplers' and training steps' inner loops: fixed output bits,
untouched inputs and steps that fault in no memory; and the forked
processes that run them (map_windows' workers, fit's training producer):
the same bits, errors in step order, and no process left behind.

The pins are sha256 digests of outputs of fixed-seed runs. The two
training pins were recorded at commit 264df32, before the inner loops were
rewritten in place. The seven sampler pins were recorded at commit cccfc06,
where the sample stream took its 64-row block address (netcore): the two
sample_masks pins are one digest, since the chunk size no longer changes a
sample. A speed-up that moves any bit of a sample or a trained parameter
fails here. They hold for one numpy/OpenBLAS build and CPU kernel family; a
platform whose BLAS sums in another order needs them re-recorded from that
earlier code.
"""

import dataclasses
import hashlib
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipeforge import discovery as dc
from recipeforge import mask_diffusion as md
from recipeforge import netcore
from recipeforge import quantity_diffusion as qd
from recipeforge.corpus import Corpus, IngredientVocabulary
from recipeforge.errors import NumericError
from helpers import random_models

PINS = {
    "sample_masks chunk 16":
        "6bb924a3975baee0f59175c826a8e2e1ee259542087c1f00863db4f6b94e4002",
    "sample_masks chunk 2048":
        "6bb924a3975baee0f59175c826a8e2e1ee259542087c1f00863db4f6b94e4002",
    "reverse_sample_batch":
        "8c8e581daebc58bd54fa401ac17c996abba12acd1b1078fd263521f8b5905e6b",
    "train_mask_model theta":
        "21e2d9ce77366ef9aeac17eab4f1fbdde65acdaca86c63b4af9736411e130b3c",
    "train_quantity_model theta":
        "c011df78f440ecced7fcd5f6fad5897e86ebdde6efc8c54c0aa258189797089e",
    "sample_masks one 2048-row chunk":
        "7061185baa03b3b51feaee8f61c76140d76f4c028c6b948940e34e76e7c4e4d7",
    "reverse_sample_batch one 2048-row chunk":
        "1573b52beaf49c20e795525bd38ccc89302fef16786995878d568358eb8b2cb5",
    "_draw 32-block lockstep window":
        "a93be1329c0126117d3533852656616e313e61ebdb9f70df9273af5c8cac34ef",
    "_draw 4-block window at the desk grid":
        "7a1a6e84b8afc229dd85f76b17eca613a4fdc0516eeb78c6373c6285f0079fc8",
}


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def pinned_models(threads: int = 1) -> tuple[md.MaskDiffusionModel, qd.QuantityScoreModel]:
    """Two tiny models trained 50 steps, with learning-rate decay and a
    parameter average, on a fixed random corpus, at the given threads."""
    rng = np.random.default_rng(2024)
    K = 6
    grams = np.round(rng.uniform(5.0, 200.0, (64, K))) * (rng.random((64, K)) < 0.5)
    grams[~(grams > 0).any(axis=1), 0] = 50.0
    corpus = Corpus(vocabulary=IngredientVocabulary.from_ids([f"i{j}" for j in range(K)]),
                    grams=grams, splits=["train"] * 56 + ["validation"] * 8)
    cfg = netcore.TrainConfig(steps=50, batch_size=16, learning_rate=3e-3,
                              final_learning_rate=3e-4, ema_decay=0.9, hidden_width=8,
                              hidden_depth=2, val_interval=25, val_draws=32)
    return (md.train_mask_model(corpus, md.linear_schedule(12), cfg, seed=7, threads=threads),
            qd.train_quantity_model(corpus, qd.SDESpec(steps=15), cfg, seed=8, threads=threads))


def pinned_outputs() -> dict[str, str]:
    """Digests of five outputs of pinned_models."""
    mask, qty = pinned_models()
    masks = md.sample_masks(mask, 40, seed=3, chunk_size=16)
    return {
        "sample_masks chunk 16": _sha(masks),
        "sample_masks chunk 2048": _sha(md.sample_masks(mask, 40, seed=3)),
        "reverse_sample_batch": _sha(qd.reverse_sample_batch(qty, masks, seed=4, chunk_size=16)),
        "train_mask_model theta": _sha(mask.net.theta),
        "train_quantity_model theta": _sha(qty.net.theta),
    }


def desk_size_models(T: int = 20,
                     steps: int = 40) -> tuple[md.MaskDiffusionModel, qd.QuantityScoreModel]:
    """Untrained models of the desk config's size: K = 30, three hidden
    layers of 32, base logits that leave about a quarter of the cells
    present, and T mask and `steps` SDE steps."""
    K = 30
    mask = md.MaskDiffusionModel(
        schedule=md.linear_schedule(T), net=netcore.init_network([K + 3, 32, 32, 32, K], 11),
        K=K, base_logits=np.random.default_rng(12).normal(-1.2, 0.8, K), vocab_fingerprint="v")
    codec = qd.WeightCodec(log_mean=np.full(K, np.log(80.0)), log_std=np.full(K, 0.6))
    qty = qd.QuantityScoreModel(
        sde=qd.SDESpec(steps=steps), net=netcore.init_network([2 * K + 3, 32, 32, 32, K], 13),
        codec=codec, K=K, vocab_fingerprint="v")
    return mask, qty


def pinned_large_outputs() -> dict[str, str]:
    """Digests at the sizes the CLI samples at: one full 2,048-row window of
    each sampler, the same 32 stream blocks drawn in lockstep by _draw, and
    a rediscover window of four blocks on the desk config's full grid
    (T = 100, sde.steps = 500), which reaches the late grid points."""
    mask, qty = desk_size_models()
    masks = md.sample_masks(mask, 2048, seed=5)
    desk_mask, desk_qty = desk_size_models(T=100, steps=500)
    return {
        "sample_masks one 2048-row chunk": _sha(masks),
        "reverse_sample_batch one 2048-row chunk": _sha(qd.reverse_sample_batch(qty, masks, seed=6)),
        "_draw 32-block lockstep window": _sha(dc._draw(mask, qty, 7, range(32))),
        "_draw 4-block window at the desk grid": _sha(dc._draw(desk_mask, desk_qty, 7, range(4))),
    }


def test_outputs_keep_their_pinned_bits():
    assert {**pinned_outputs(), **pinned_large_outputs()} == PINS


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RUSAGE_THREAD is Linux-only")
def test_sampler_steps_fault_in_no_memory():
    # glibc trims freed chunk-sized temporaries off the heap top and each
    # next step faults them in again: hundreds of minor faults a step at
    # 2,048 rows. A step that writes into its sampler's workspace faults
    # in nothing, so a run's faults do not grow with its step count.
    import resource  # POSIX only

    def faults(draw) -> int:
        before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
        draw()
        return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before

    mask, qty = desk_size_models()
    masks = md.sample_masks(mask, 2048, seed=1)
    counts = {}
    with netcore.one_blas_thread():
        # the first pass only warms up: a call after the other sampler's can
        # fault in a fixed number of pages more, since the allocator reuses
        # its memory differently, once per call and not per step
        for steps in (10, 10, 50):
            m = dataclasses.replace(mask, schedule=md.linear_schedule(steps))
            q = dataclasses.replace(qty, sde=qd.SDESpec(steps=steps))
            rngs = netcore.block_rngs(2, netcore.MASKS, range(32))
            counts[steps] = (faults(lambda: md._chains(m, rngs, 2048)),
                             faults(lambda: qd.reverse_sample_batch(q, masks, seed=3)))
    growth = [late - early for early, late in zip(counts[10], counts[50])]
    # under 5 a step over the 40 extra steps; per-step temporaries made about 230 and 480
    assert max(growth) < 200, (counts, growth)


def test_generate_batch_is_the_same_on_one_and_two_threads():
    # concurrent 512-row chunks share both models: a workspace that lived
    # on a model, not on each sampler call, would mix their steps
    mask, qty = desk_size_models(T=8, steps=12)
    one = dc.generate_batch(mask, qty, 2048, seed=4, chunk_size=512, threads=1)
    two = dc.generate_batch(mask, qty, 2048, seed=4, chunk_size=512, threads=2)
    assert one.tobytes() == two.tobytes()


def _forks(monkeypatch, cores: int = 2) -> list:
    """Give this process cores usable cores and record each os.fork call it makes."""
    forks, fork = [], os.fork

    def counting():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    monkeypatch.setattr(os, "fork", counting)
    return forks


def _indices(blocks: range) -> np.ndarray:
    """A draw whose rows hold their own stream index."""
    return np.arange(blocks.start * netcore.BLOCK, blocks.stop * netcore.BLOCK, dtype=float)[:, None]


def _failing(*windows: int):
    """_indices, but the given one-block windows raise a NumericError naming them."""
    def draw(blocks: range) -> np.ndarray:
        if blocks.start in windows:
            raise NumericError(f"window {blocks.start} failed")
        return _indices(blocks)
    return draw


def test_workers_are_capped_at_the_usable_cores(monkeypatch):
    forks = _forks(monkeypatch, cores=2)
    out = netcore.map_windows(1000, 64, 64, _indices)
    assert len(forks) == 1
    assert out.tobytes() == np.arange(1000, dtype=float)[:, None].tobytes()


def test_a_process_with_live_threads_draws_serially(monkeypatch):
    forks = _forks(monkeypatch)
    mask, qty = desk_size_models(T=8, steps=12)
    one = dc.generate_batch(mask, qty, 512, seed=4, chunk_size=128, threads=1)
    stop = threading.Event()
    sleeper = threading.Thread(target=stop.wait, args=(60,))
    sleeper.start()
    try:
        two = dc.generate_batch(mask, qty, 512, seed=4, chunk_size=128, threads=2)
    finally:
        stop.set()
        sleeper.join(timeout=60)
    assert not sleeper.is_alive()
    assert one.tobytes() == two.tobytes() and not forks


@pytest.mark.parametrize("failing, first", [((1,), 1), ((1, 2), 1), ((2, 3), 2), ((0, 1), 0)],
                         ids=["child", "child-first", "caller-first", "both-first"])
def test_the_first_failing_window_raises_in_the_caller(monkeypatch, failing, first):
    forks = _forks(monkeypatch)
    # two workers: this process draws windows 0 and 2, the child 1 and 3
    with pytest.raises(NumericError, match=f"^window {first} failed$"):
        netcore.map_windows(256, 64, 2, _failing(*failing))
    assert len(forks) == 1


def test_a_killed_child_names_its_exit_status(monkeypatch):
    _forks(monkeypatch)
    parent = os.getpid()

    def draw(blocks: range) -> np.ndarray:
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return _indices(blocks)

    with pytest.raises(RuntimeError, match="exit status -9, killed by SIGKILL"):
        netcore.map_windows(256, 64, 2, draw)


def test_an_error_in_the_callers_window_leaves_no_child(monkeypatch):
    forks = _forks(monkeypatch)
    with pytest.raises(NumericError, match="^window 0 failed$"):
        netcore.map_windows(256, 64, 2, _failing(0))
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _trained_the_pinned_way(two: tuple) -> bool:
    """two has pinned_models' pinned thetas and the histories of threads = 1."""
    one = pinned_models(threads=1)
    return (_sha(two[0].net.theta) == PINS["train_mask_model theta"]
            and _sha(two[1].net.theta) == PINS["train_quantity_model theta"]
            and [m.history for m in one] == [m.history for m in two])


def test_a_training_producer_keeps_the_pinned_bits(monkeypatch):
    forks = _forks(monkeypatch)
    two = pinned_models(threads=2)
    assert len(forks) == 2  # one producer per model
    monkeypatch.undo()
    assert _trained_the_pinned_way(two)


@pytest.mark.parametrize("why", ["a live thread", "one usable core"])
def test_training_without_a_fork_keeps_the_pinned_bits(monkeypatch, why):
    forks = _forks(monkeypatch, cores=1 if why == "one usable core" else 2)
    stop = threading.Event()
    sleeper = threading.Thread(target=stop.wait, args=(60,))
    if why == "a live thread":
        sleeper.start()
    try:
        two = pinned_models(threads=2)
    finally:
        stop.set()
        if sleeper.is_alive():
            sleeper.join(timeout=60)
    assert not sleeper.is_alive() and not forks
    monkeypatch.undo()
    assert _trained_the_pinned_way(two)


def _fit(threads: int, prepare, update=lambda prepared, opt: None, net=None):
    """netcore.fit, 20 steps of a batch of 4 from 10 rows, on net (by
    default a new one-layer network of 3 parameters)."""
    config = netcore.TrainConfig(steps=20, batch_size=4, val_interval=1000)
    return netcore.fit(net or netcore.init_network([2, 1], 0), config, 3, 10, prepare, update,
                       lambda: 0.0, threads)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("failing", [1, 2, 9, 13])
def test_an_error_in_prepare_follows_the_updates_before_it(monkeypatch, threads, failing):
    # step 1 is prepared before the fork and 2 is the producer's first; 9 is
    # the first to reuse a slot of the 8-slot ring, and 13 comes later
    forks = _forks(monkeypatch)
    prepared, updates = [0], []

    def prepare(idx, rng):
        prepared[0] += 1
        if prepared[0] == failing:
            raise NumericError(f"step {failing} failed")
        return idx.astype(float), rng.standard_normal((4, 3))

    with pytest.raises(NumericError, match=f"^step {failing} failed$"):
        _fit(threads, prepare, lambda p, opt: updates.append([a.copy() for a in p]))
    assert len(updates) == failing - 1
    assert len(forks) == (threads == 2 and failing > 1)
    serial, prepared[0] = [], 0
    monkeypatch.undo()
    with pytest.raises(NumericError):
        _fit(1, prepare, lambda p, opt: serial.append([a.copy() for a in p]))
    assert all(a.tobytes() == b.tobytes() for u, v in zip(updates, serial) for a, b in zip(u, v))


def test_an_error_in_an_update_leaves_no_producer(monkeypatch):
    forks = _forks(monkeypatch)
    net = netcore.init_network([2, 1], 0)

    def update(prepared, opt):
        if opt.step == 3:  # the fourth update's gradient is not finite
            prepared = (np.full_like(net.theta, np.nan),)
        netcore.optimizer_step(net, prepared[0], opt)

    with pytest.raises(NumericError, match="non-finite gradient"):
        _fit(2, lambda idx, rng: (rng.standard_normal(3),), update, net)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_killed_producer_names_its_exit_status(monkeypatch):
    _forks(monkeypatch)
    parent = os.getpid()

    def prepare(idx, rng):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return (idx,)

    with pytest.raises(RuntimeError, match=r"^training producer \d+ sent no result "
                                           r"\(exit status -9, killed by SIGKILL\)$"):
        _fit(2, prepare)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="PR_SET_PDEATHSIG is Linux-only")
def test_a_worker_dies_with_its_parent(tmp_path):
    # the parent is killed by a signal it does not handle, so no finally of
    # its own runs; its sampling worker, asleep in its window, must go too
    program = (
        "import os, sys, time\n"
        "import numpy as np\n"
        "from recipeforge import netcore\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "parent = os.getpid()\n"
        "def draw(blocks):\n"
        "    if os.getpid() != parent:\n"
        "        print(os.getpid(), flush=True)\n"
        "    time.sleep(60)\n"
        "    return np.zeros((len(blocks) * netcore.BLOCK, 1))\n"
        "netcore.map_windows(128, 64, 2, draw)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(netcore.__file__).parents[1])}
    proc = subprocess.Popen([sys.executable, "-c", program], stdout=subprocess.PIPE, env=env)
    worker = None
    try:
        worker = int(proc.stdout.readline())
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == -signal.SIGTERM
        deadline = time.monotonic() + 1.0
        while _alive(worker) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _alive(worker)
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stdout.close()
        if worker is not None and _alive(worker):
            os.kill(worker, signal.SIGKILL)


def _alive(pid: int) -> bool:
    """pid is a process that has not exited (gone, or a zombie, is not)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


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
    if x.ndim == 2:  # a sampler's caller-owned buffers give the same bits
        assert netcore.forward(net, x, netcore.layer_buffers(net, len(x))).tobytes() == out.tobytes()

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
    z = qd.reverse_integrate(model.score, masks, model.sde, [np.random.default_rng(seed)])
    chunk_score = model.chunk_score(np.atleast_2d(masks))
    z_chunk = qd.reverse_integrate(chunk_score, masks, model.sde, [np.random.default_rng(seed)])
    assert _unchanged(kept, [x, masks]) and z_chunk.tobytes() == z.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 5.0), st.floats(0.0, 40.0), st.floats(1e-5, 0.5),
       st.sampled_from([1, 2, 3, 17, 60]), st.sampled_from([1, 2, 7, 64]), st.integers(0, 2**16))
def test_step_grid_gives_the_bits_of_per_step_terms(beta_min, spread, t_eps, steps, rows, seed):
    # a chunk score reads each step's embedding and -sigma from
    # reverse_integrate's grid; the reference drops them, so score computes
    # them from t on every step
    _, model = desk_size_models()
    model.sde = qd.SDESpec(beta_min=beta_min, beta_max=beta_min + spread, steps=steps, t_eps=t_eps)
    masks = (np.random.default_rng(seed).random((rows, model.K)) < 0.4).astype(float)
    on_grid = qd.reverse_integrate(model.chunk_score(masks), masks, model.sde,
                                   [np.random.default_rng(seed)])
    per_step = qd.reverse_integrate(lambda x, m, t, terms: model.score(x, m, t), masks, model.sde,
                                    [np.random.default_rng(seed)])
    assert on_grid.tobytes() == per_step.tobytes()
