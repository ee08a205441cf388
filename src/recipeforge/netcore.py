"""Minimal feed-forward network with reverse-mode gradients and Adam.

Hidden layers use tanh, the output layer is linear. Everything is plain
numpy; inputs may be single vectors of shape (D,) or batches of shape
(B, D). Both diffusion models share this module.

A network's parameters live in one float64 vector theta, laid out layer
by layer as w0, b0, w1, b1, ... with each weight matrix row-major.
net.weights[l] (shape (sizes[l+1], sizes[l])) and net.biases[l] are views
into theta, so writing to them writes theta and vice versa. Gradients,
Adam's moments and the parameter average are flat vectors in the same
layout. forward writes new arrays, or a caller's layer_buffers: each sampler
call owns its own, never a model, so drawing leaves a model unchanged.

The sample stream of a seed gives each draw one address: row i is row
i % BLOCK of block b = i // BLOCK, whose masks come from SeedSequence(seed,
spawn_key=(MASKS, b)) and quantities from spawn_key=(QUANTITIES, b).
map_windows draws whole blocks, a window of them in lockstep, and cuts the
last, so row i has the same bits at any count, window and worker count on
a BLAS that rounds a row alike in any window of whole blocks (tests pin it).
Its workers are this process and forked children, which inherit the models.

fit splits each training step in two. prepare does the work that reads no
parameter: the batch-index draw, the noise draws and the arrays computed
from them. The update does the rest: forward, gradient, the Adam step, the
parameter average and validation. With threads >= 2, a forked producer owns
the step generator and runs prepare ahead into a shared mmap ring while this
process updates; the draws, and so the bits, are those of one process.
A forked child dies with this process, on Linux even when a signal kills it.

A model checkpoint is one JSON object with the keys schema_version,
kind, K and vocab_fingerprint, then the model's own fields, then net
(layer sizes and row-major parameters) and seed_lineage, in that order.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import glob
import json
import math
import mmap
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DataError, NumericError, number, numbers, read_json, shown

# Adam's moment decay rates b1, b2 and denominator guard eps
_B1, _B2, _EPS = 0.9, 0.999, 1e-8
# rows of a sample stream block, and the numbers of its mask and quantity streams
BLOCK, MASKS, QUANTITIES = 64, 0, 1
# the most slots fit's training producer runs ahead, and the bytes they may take
_RING_SLOTS, _RING_BYTES = 8, 1 << 20
_PR_SET_PDEATHSIG = 1  # prctl option: the signal a child gets when its parent dies


def _layer_views(sizes: list[int], flat: np.ndarray) -> tuple[tuple, tuple]:
    """(weights, biases): per-layer views of a flat vector laid out w0, b0, w1, b1, ..."""
    weights, biases, i = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[i:i + fan_in * fan_out].reshape(fan_out, fan_in))
        i += fan_in * fan_out
        biases.append(flat[i:i + fan_out])
        i += fan_out
    return tuple(weights), tuple(biases)


@dataclass(frozen=True, eq=False)
class Network:
    """Layer sizes, the flat parameter vector theta and its per-layer views.

    weights[l] has shape (sizes[l+1], sizes[l]). Frozen, so theta and its
    views cannot be rebound apart; write parameters in place
    (net.weights[l][:] = ...).
    """

    sizes: list[int]
    theta: np.ndarray
    weights: tuple[np.ndarray, ...] = dataclasses.field(init=False)
    biases: tuple[np.ndarray, ...] = dataclasses.field(init=False)

    def __post_init__(self):
        n = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]))
        if self.theta.dtype != np.float64 or self.theta.shape != (n,):
            raise ValueError(f"theta must be a float64 vector of {n} parameters for sizes "
                             f"{self.sizes}, got {self.theta.dtype} {self.theta.shape}")
        weights, biases = _layer_views(self.sizes, self.theta)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)


@dataclass
class OptimizerState:
    """Adam accumulators: flat first and second moments laid out like theta."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    learning_rate: float = 1e-3


@dataclass
class TrainConfig:
    """Shared training hyperparameters for both diffusion models.

    final_learning_rate ends a linear decay across the run; ema_decay
    keeps an exponential moving average of the parameters that replaces
    the raw weights when training finishes. 0 turns either off.
    """

    steps: int = 20000
    batch_size: int = 64
    learning_rate: float = 1e-3
    final_learning_rate: float = 0.0
    ema_decay: float = 0.0
    hidden_width: int = 32
    hidden_depth: int = 3
    val_interval: int = 1000
    val_draws: int = 256


class ParameterAverage:
    """Exponential moving average over a network's parameters."""

    def __init__(self, net: Network, decay: float):
        self.decay = decay
        self.theta = net.theta.copy()

    def update(self, net: Network) -> None:
        d = self.decay
        self.theta *= d
        self.theta += (1.0 - d) * net.theta

    def copy_to(self, net: Network) -> None:
        net.theta[:] = self.theta


def init_network(layer_sizes: list[int], seed: int) -> Network:
    """Create a network with zero-mean scaled-uniform weights, zero biases.

    Deterministic for a fixed seed. Requires at least an input and an
    output layer, all sizes >= 1.
    """
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2:
        raise ValueError(f"need at least 2 layers, got sizes {sizes}")
    if any(s < 1 for s in sizes):
        raise ValueError(f"all layer sizes must be >= 1, got {sizes}")
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        parts += [rng.uniform(-bound, bound, size=fan_in * fan_out), np.zeros(fan_out)]
    return Network(sizes, np.concatenate(parts))


def _check_input(net: Network, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != net.sizes[0]:
        raise ValueError(
            f"input dimension {x.shape[-1]} does not match first layer {net.sizes[0]}"
        )
    return x


def _layer_outputs(net: Network, a: np.ndarray, out: list[np.ndarray] | None = None):
    """Each layer's output in turn, from the input a: a @ w.T + b (into
    out[l] if given), then tanh in place except at the linear output layer."""
    last = len(net.weights) - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        a = np.matmul(a, w.T, out=None if out is None else out[l])
        a += b
        if l != last:
            np.tanh(a, out=a)
        yield a


def forward(net: Network, x: np.ndarray, out: list[np.ndarray] | None = None) -> np.ndarray:
    """Forward pass; tanh hidden activations, linear output; into out = layer_buffers if given."""
    for y in _layer_outputs(net, _check_input(net, x), out):
        pass  # each hidden layer is freed (or its buffer reused) once the next one is computed
    return y


def layer_buffers(net: Network, rows: int) -> list[np.ndarray]:
    """forward's outputs on rows rows, the hidden layers taking turns in two buffers."""
    hidden = net.sizes[1:-1]
    pair = [np.empty(rows * max(hidden, default=0)) for _ in range(2)]
    return ([pair[l % 2][:rows * s].reshape(rows, s) for l, s in enumerate(hidden)]
            + [np.empty((rows, net.sizes[-1]))])


def activations(net: Network, x: np.ndarray) -> list[np.ndarray]:
    """The forward pass, keeping what gradient needs.

    Element l is the input to layer l; the last element is the output.
    """
    a = _check_input(net, x)
    return [a, *_layer_outputs(net, a)]


def gradient(net: Network, acts: list[np.ndarray], loss_grad_at_output: np.ndarray) -> np.ndarray:
    """Reverse-mode gradient of loss_grad . output w.r.t. the parameters.

    acts are activations(net, x) at the current parameters; the result is
    a flat vector laid out like net.theta. For batched inputs (B, D) with
    cotangents (B, out), parameter gradients are summed over the batch.
    """
    g = np.asarray(loss_grad_at_output, dtype=float)
    if g.shape != acts[-1].shape:
        raise ValueError(f"cotangent shape {g.shape} != output shape {acts[-1].shape}")
    grad = np.empty_like(net.theta)
    dws, dbs = _layer_views(net.sizes, grad)
    last = len(dws) - 1
    for l in range(last, -1, -1):
        if l != last:  # g is the product below, never the caller's cotangent
            g *= 1.0 - np.square(acts[l + 1])  # tanh'
        if g.ndim == 2:
            np.matmul(g.T, acts[l], out=dws[l])
            g.sum(axis=0, out=dbs[l])
        else:
            np.outer(g, acts[l], out=dws[l])
            dbs[l][:] = g
        if l:  # the network's input needs no gradient
            g = g @ net.weights[l]
    return grad


def init_optimizer(net: Network, learning_rate: float = 1e-3) -> OptimizerState:
    return OptimizerState(m=np.zeros_like(net.theta), v=np.zeros_like(net.theta),
                          learning_rate=learning_rate)


def optimizer_step(net: Network, grad: np.ndarray, state: OptimizerState) -> None:
    """One Adam update of net.theta from the flat gradient, applied in place."""
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient component in optimizer step")
    state.step += 1
    corr1 = 1.0 - _B1 ** state.step
    corr2 = 1.0 - _B2 ** state.step
    scale = state.learning_rate * math.sqrt(corr2) / corr1
    # b1 m + (1 - b1) g, b2 v + (1 - b2) g g, scale m / (sqrt(v) + eps): in place, in that order
    m, v, theta = state.m, state.v, net.theta
    scratch = np.multiply(grad, 1 - _B1)
    m *= _B1
    m += scratch
    np.multiply(grad, 1 - _B2, out=scratch)
    scratch *= grad
    v *= _B2
    v += scratch
    np.sqrt(v, out=scratch)
    scratch += _EPS
    theta -= np.divide(m * scale, scratch, out=scratch)


def time_embedding(t: np.ndarray | float, period: float) -> np.ndarray:
    """Smooth 3-dim embedding of a time step: (t/T, sin(2*pi*t/T), cos(2*pi*t/T)).

    period is the total step count T for discrete chains, 1.0 for
    continuous time on [0, 1].
    """
    frac = np.asarray(t, dtype=float) / period
    return np.stack([frac, np.sin(2 * np.pi * frac), np.cos(2 * np.pi * frac)], axis=-1)


def fit(net: Network, config: TrainConfig, seed: int, n_rows: int,
        prepare: Callable[[np.ndarray, np.random.Generator], tuple[np.ndarray, ...]],
        update: Callable[[tuple[np.ndarray, ...], OptimizerState], None],
        validate: Callable[[], float], threads: int = 1) -> list[tuple[int, float]]:
    """Train net in place with Adam; returns the (step, validation loss) history.

    A step runs in two parts. prepare(idx, rng) does the work that reads no
    parameter: it gets config.batch_size row indices drawn in [0, n_rows)
    and the step generator, makes the step's noise draws, and returns the
    arrays computed from them. update(prepared, opt) takes one optimizer step
    on those arrays. The learning rate decays linearly to
    config.final_learning_rate and the config.ema_decay parameter average
    replaces the raw weights at the end; 0 turns either off. validate() is
    recorded at step 0, every val_interval steps, at the last step and, with
    an average, once more after the swap.

    With threads >= 2, under map_windows' rule (2 usable cores, one running
    thread), a forked producer owns the step generator and prepares the
    steps after the first, up to _RING_SLOTS ahead, in a shared ring
    (_pipelined); this process keeps every update, validation and average.
    Every draw is the same, in the same order on the same generator, so the
    bits are those of threads = 1, and an error in prepare at step i is
    raised after the i - 1 updates before it.
    """
    opt = init_optimizer(net, learning_rate=config.learning_rate)
    rng = np.random.default_rng(seed)
    ema = ParameterAverage(net, config.ema_decay) if config.ema_decay else None
    lr0 = config.learning_rate
    lr1 = config.final_learning_rate or lr0
    history = [(0, validate())]

    def draw() -> tuple[np.ndarray, ...]:
        return prepare(rng.integers(0, n_rows, size=config.batch_size), rng)

    if config.steps > 1 and _workers(threads, 2) > 1:
        steps = _pipelined(config.steps, draw)
    else:
        steps = (draw() for _ in range(config.steps))
    with contextlib.closing(steps):
        for i, prepared in enumerate(steps, 1):
            opt.learning_rate = lr0 + (lr1 - lr0) * (i / config.steps)
            update(prepared, opt)
            if ema is not None:
                ema.update(net)
            if i % config.val_interval == 0 or i == config.steps:
                history.append((i, validate()))
    if ema is not None:
        ema.copy_to(net)
        history.append((config.steps, validate()))
    return history


def _pipelined(steps: int, draw: Callable[[], tuple[np.ndarray, ...]]):
    """draw()'s steps results in order: the first drawn here, the rest by a
    forked producer, as views into a shared anonymous mmap ring.

    The first result's arrays set a slot's layout; the ring has up to
    _RING_SLOTS slots within _RING_BYTES, and at least 2. The producer
    writes step j into slot (j - 1) % slots and a b"k" into one pipe, or
    pickles the exception that stopped it after a b"e". This process hands
    a slot back through the other pipe once the caller asks for the next
    step, so the producer runs at most slots steps ahead. The producer is
    killed and reaped when the generator ends, so none outlives fit.
    """
    first = draw()
    offsets = np.cumsum([0] + [-(-a.nbytes // 64) * 64 for a in first]).tolist()  # cache lines
    size = offsets[-1]
    slots = max(2, min(_RING_SLOTS, _RING_BYTES // size))
    ring = mmap.mmap(-1, slots * size)
    views = [tuple(np.ndarray(a.shape, a.dtype, ring, s * size + o) for a, o in zip(first, offsets))
             for s in range(slots)]
    full_read, full_write = os.pipe()
    free_read, free_write = os.pipe()
    pids, sent = [], None
    try:
        try:
            pids.append(_fork(lambda: _produce(steps, draw, views, full_write, free_read,
                                               (full_read, free_write))))
        finally:
            os.close(full_write)
            os.close(free_read)
        yield first
        for j in range(1, steps):
            if os.read(full_read, 1) != b"k":
                with open(full_read, "rb", closefd=False) as f:
                    sent = f.read()  # to its end: the producer has exited
                break
            yield views[(j - 1) % slots]
            if j + slots < steps:  # the producer's step j + slots reuses this slot
                with contextlib.suppress(BrokenPipeError):  # it stopped early; the read tells why
                    os.write(free_write, b"f")
    finally:
        os.close(full_read)
        os.close(free_write)
        codes = _reap(pids)
    if sent is not None:
        raise _received(sent, "training producer", pids[0], codes[0])


def _produce(steps: int, draw: Callable[[], tuple[np.ndarray, ...]], views: list[tuple],
             full: int, free: int, unused: tuple[int, int]) -> None:
    """In the forked producer: _pipelined's steps 1 to steps - 1 into the ring."""
    for fd in unused:
        os.close(fd)
    for j in range(1, steps):
        if j > len(views) and not os.read(free, 1):
            return  # the trainer has stopped
        try:
            for view, part in zip(views[(j - 1) % len(views)], draw(), strict=True):
                view[...] = part
        except Exception as e:
            with open(full, "wb", closefd=False) as f:
                f.write(b"e" + pickle.dumps(e, pickle.HIGHEST_PROTOCOL))
            return
        os.write(full, b"k")


def block_rngs(seed: int, stream: int, blocks: range) -> list[np.random.Generator]:
    """The generators of the given blocks of stream MASKS or QUANTITIES of seed."""
    return [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, b)))
            for b in blocks]


def row_blocks(a: np.ndarray, count: int) -> list[np.ndarray]:
    """a's count equal row blocks, as views in order (none of no rows)."""
    m = len(a) // max(count, 1)
    if m * count != len(a):
        raise ValueError(f"{len(a)} rows do not split into {count} equal blocks")
    return [a[j * m:(j + 1) * m] for j in range(count)]


def map_windows(n: int, window_rows: int, threads: int,
                draw: Callable[[range], np.ndarray]) -> np.ndarray:
    """The first n rows of draw(blocks) over the windows of the blocks
    covering n rows (one empty window if none); a window is window_rows
    rounded up to whole blocks, the last one the blocks left, and
    draw(blocks) returns len(blocks) * BLOCK rows.

    The windows go to min(threads, windows, usable cores) worker
    processes: worker w draws windows[w::workers], and worker 0 is this
    process. The others are forked, only from a process that runs one
    thread (a fork beside live threads can deadlock the child), so they
    share the models without copying them. An error is the first failing
    window's, in window order.
    """
    blocks = range(-(-n // BLOCK))
    per = -(-window_rows // BLOCK)
    windows = [blocks[i:i + per] for i in range(0, len(blocks), per)] or [blocks]
    workers = _workers(threads, len(windows))
    parts = _forked(windows, workers, draw) if workers > 1 else [draw(w) for w in windows]
    return np.concatenate(parts, axis=0)[:n]


def _drawn(windows: list[range], draw: Callable[[range], np.ndarray]) -> list:
    """draw(w) for the windows in turn, up to the first exception raised, then it."""
    parts = []
    for w in windows:
        try:
            parts.append(draw(w))
        except Exception as e:
            return parts + [e]
    return parts


def _child(write: int, windows: list[range], draw: Callable[[range], np.ndarray]) -> None:
    """In a forked worker: pickle _drawn's list into the pipe end write."""
    data = pickle.dumps(_drawn(windows, draw), pickle.HIGHEST_PROTOCOL)
    with open(write, "wb") as f:
        f.write(data)


def _forked(windows: list[range], workers: int,
            draw: Callable[[range], np.ndarray]) -> list[np.ndarray]:
    """map_windows' parts from this process and workers - 1 forked children.

    Each child has its own pipe, whose write end this process closes
    before the next fork. Every pipe is read to its end before the
    children are reaped (_reap), so the kill stops only a child that this
    process left early, when it was interrupted; none outlives the call.
    """
    pids, reads, sent = [], [], []
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            reads.append(read)
            try:
                pids.append(_fork(functools.partial(_child, write, windows[w::workers], draw)))
            finally:
                os.close(write)
        drawn = [_drawn(windows[0::workers], draw)]
        for read in reads:
            with open(read, "rb", closefd=False) as f:
                sent.append(f.read())
    finally:
        for read in reads:
            os.close(read)
        codes = _reap(pids)
    for pid, data, code in zip(pids, sent, codes):
        received = _received(data, "sampling worker", pid, code)
        drawn.append(received if isinstance(received, list) else [received])
    parts = [None] * len(windows)
    for w, worker_parts in enumerate(drawn):
        for j, part in enumerate(worker_parts):
            parts[w + j * workers] = part
    for part in parts:  # a worker stops at its first error, so no None comes before one
        if isinstance(part, Exception):
            raise part
    return parts


def _workers(threads: int, tasks: int) -> int:
    """min(threads, tasks, usable cores) worker processes, or 1 in a process
    that runs more than one thread, since a fork beside live threads can
    deadlock the child."""
    if threading.active_count() > 1:
        return 1
    return min(threads, tasks, len(os.sched_getaffinity(0)))


def _fork(child: Callable[[], None]) -> int:
    """Fork a child that runs child() and exits, with status 0 if it returns
    and 1 if it raises; returns its pid. On Linux the child is SIGKILLed
    when this process dies, and exits at once if that happened before it
    asked to be."""
    parent, prctl = os.getpid(), _prctl()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            if prctl is not None:
                prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
            if os.getppid() == parent:
                child()
                code = 0
        finally:
            os._exit(code)
    return pid


def _reap(pids: list[int]) -> list[int]:
    """SIGKILL the children pids, then reap them; their exit codes (-signal
    if one was killed). Read after a child's pipe ended early, a code is
    the child's own, since its pipe closed when it exited."""
    codes = []
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
        codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    return codes


def _received(data: bytes, worker: str, pid: int, code: int):
    """What the child pid pickled into data, or, if it sent nothing whole
    (killed, or an object that would not pickle), a RuntimeError naming
    its exit status code."""
    try:
        return pickle.loads(data)  # bytes this program's own child wrote
    except (EOFError, pickle.UnpicklingError):
        killed = f", killed by {signal.Signals(-code).name}" if code < 0 else ""
        return RuntimeError(f"{worker} {pid} sent no result (exit status {code}{killed})")


@functools.cache
def _prctl() -> Callable | None:
    """libc's prctl on Linux, else None."""
    if not sys.platform.startswith("linux"):
        return None
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.restype = ctypes.c_int
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    return prctl


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (64-bit interface), or None if absent."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    if not libs:
        return None
    lib = ctypes.CDLL(libs[0])
    lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
    lib.scipy_openblas_get_num_threads64_.argtypes = []
    lib.scipy_openblas_set_num_threads64_.restype = None
    lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
    return lib


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread.

    The cores go to map_windows' worker processes instead: BLAS threads
    started inside each worker would oversubscribe them. Children forked
    in the body inherit the setting. The previous thread count is restored
    on exit. Does nothing when the library is not found. The count is
    process-wide: BLAS calls that other threads make meanwhile run on one
    thread too.
    """
    lib = _openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def net_to_dict(net: Network) -> dict:
    """JSON-ready checkpoint dict: layer sizes, row-major flat parameters."""
    return {
        "sizes": list(net.sizes),
        "weights": [w.ravel().tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def write_checkpoint(path: str | Path, kind: str, model, seed_lineage, **fields) -> None:
    """Write model's checkpoint in the layout above, with fields in the given order."""
    doc = {"schema_version": 1, "kind": kind, "K": model.K,
           "vocab_fingerprint": model.vocab_fingerprint, **fields,
           "net": net_to_dict(model.net), "seed_lineage": list(seed_lineage or [])}
    Path(path).write_text(json.dumps(doc) + "\n")


def read_checkpoint(path: str | Path, kind: str,
                    n_in: Callable[[int], int]) -> tuple[dict, int, Network, str]:
    """(document, K, network, vocab_fingerprint) of a model checkpoint; checks
    its kind, schema_version (1) and a network of n_in(K) inputs, K outputs."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise DataError(f"{path}: not a {kind.replace('_', ' ')} checkpoint")
    if doc.get("schema_version") != 1:
        raise DataError(f"{path}: field schema_version is {shown(doc.get('schema_version'))}, "
                        "expected 1")
    K = field(doc, path, "K", number, "[1, inf)", integer=True)
    fingerprint = field(doc, path, "vocab_fingerprint")
    if not isinstance(fingerprint, str):
        raise DataError(f"{path}: field vocab_fingerprint is {shown(fingerprint)}, expected a string")
    return doc, K, net_from_dict(field(doc, path, "net"), path, n_in(K), K), fingerprint


def field(doc: dict, path, name: str, read=None, *args, **kwargs):
    """The value of a dotted field name (e.g. "codec.log_mean") in the checkpoint
    document read from path, or read(value, "<path>: field <name>", *args, **kwargs)
    for a reader such as errors.numbers; DataError naming both if it is absent."""
    value = doc
    for part in name.split("."):
        if not isinstance(value, dict) or part not in value:
            raise DataError(f"{path}: field {name} is missing")
        value = value[part]
    return value if read is None else read(value, f"{path}: field {name}", *args, **kwargs)


def net_from_dict(d: dict, path, n_in: int, n_out: int) -> Network:
    """Inverse of net_to_dict for a checkpoint file at path.

    Checks the sizes against n_in -> ... -> n_out, the parameter counts
    and types, raising DataError that names the file and field.
    """
    for key in ("sizes", "weights", "biases"):
        if not isinstance(d, dict) or key not in d:
            raise DataError(f"{path}: field net.{key} is missing")
    sizes = [int(s) for s in numbers(d["sizes"], f"{path}: field net.sizes", "[1, inf)", integer=True)]
    if len(sizes) < 2 or sizes[0] != n_in or sizes[-1] != n_out:
        raise DataError(f"{path}: field net.sizes is {sizes}, expected {n_in} -> ... -> {n_out}")
    for key in ("weights", "biases"):
        if not isinstance(d[key], list) or len(d[key]) != len(sizes) - 1:
            raise DataError(f"{path}: field net.{key} is {shown(d[key])}, expected {len(sizes) - 1} layers")
    parts = []
    for l, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        parts.append(numbers(d["weights"][l], f"{path}: field net.weights[{l}]", length=fan_in * fan_out))
        parts.append(numbers(d["biases"][l], f"{path}: field net.biases[{l}]", length=fan_out))
    return Network(sizes, np.concatenate(parts))
