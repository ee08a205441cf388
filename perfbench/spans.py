"""Span tracer for the per-layer half of the benchmark.

`Tracer.install()` replaces each traced function with a timing wrapper
in every `recipeforge` module namespace that binds it (found by
identity over `vars(module)`, so `from .x import f` bindings are
covered too), and two methods on their classes. `uninstall()` puts the
originals back. Each call records a span (name, start, end, parent,
thread id) in memory; self time is the span's duration minus the time
of its child spans on the same thread. Counters (rows, discarded chains,
pairs, ...) are read from arguments and return values at the same
boundary.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


# (module, attribute, span name, counter hook(args, kwargs, result) -> {counter: n})
FUNCTIONS = [
    ("corpus", "load_corpus", "corpus.load_corpus", lambda a, k, r: {"rows": len(r)}),
    ("corpus", "write_corpus", "corpus.write_corpus", None),
    ("corpus", "synthesize_corpus", "corpus.synthesize_corpus", None),
    ("netcore", "forward", "netcore.forward",
     lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "x"))}),
    ("netcore", "gradient", "netcore.gradient", None),
    ("netcore", "optimizer_step", "netcore.optimizer_step", None),
    ("mask_diffusion", "_train_step", "mask_diffusion.train_step", None),
    ("mask_diffusion", "_validation_loss", "mask_diffusion.validation", None),
    ("mask_diffusion", "_sample_chunk", "mask_diffusion.sample_chunk",
     lambda a, k, r: {"rows": int(_arg(a, k, 1, "n")), "discarded": int(r[1])}),
    ("mask_diffusion", "_predict_p_hat", "mask_diffusion.predict_p_hat", None),
    ("mask_diffusion", "sample_masks", "mask_diffusion.sample_masks", None),
    ("quantity_diffusion", "_dsm_batch_step", "quantity_diffusion.dsm_step", None),
    ("quantity_diffusion", "_validation_dsm", "quantity_diffusion.validation", None),
    ("quantity_diffusion", "reverse_integrate", "quantity_diffusion.reverse_integrate",
     lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "masks"))}),
    ("quantity_diffusion", "reverse_sample_batch", "quantity_diffusion.reverse_sample_batch", None),
    ("quantity_diffusion", "decode_weights", "quantity_diffusion.decode_weights", None),
    ("scoring", "sds", "scoring.sds", None),
    ("scoring", "group_recipes", "scoring.group_recipes",
     lambda a, k, r: {"groups": len(r), "samples": len(_arg(a, k, 0, "samples"))}),
    ("scoring", "env_impact_scores", "scoring.env_impact_scores", None),
    ("scoring", "hei_totals", "scoring.hei_totals", None),
    ("scoring", "personalized_scores", "scoring.personalized_scores", None),
    ("scoring", "load_impact_table", "scoring.load_impact_table", None),
    ("scoring", "load_nutrient_table", "scoring.load_nutrient_table", None),
    ("scoring", "load_hei_standards", "scoring.load_hei_standards", None),
    ("discovery", "novelty_many", "discovery.novelty_many",
     lambda a, k, r: {"pairs": len(_arg(a, k, 0, "samples")) * len(_arg(a, k, 1, "corpus")),
                      "cells": len(_arg(a, k, 0, "samples")) * len(_arg(a, k, 1, "corpus"))
                      * _arg(a, k, 1, "corpus").vocabulary.K}),
    ("discovery", "novelty", "discovery.novelty", None),
    ("discovery", "generate_batch", "discovery.generate_batch", None),
    ("discovery", "rediscover", "discovery.rediscover", lambda a, k, r: {"draws": int(r.draws)}),
    ("fidelity", "fidelity_report", "fidelity.fidelity_report", None),
    ("fidelity", "quantity_mae", "fidelity.quantity_mae", None),
    ("fidelity", "pairwise_correlations", "fidelity.pairwise_correlations", None),
]

# (module, class, method, span name)
METHODS = [
    ("quantity_diffusion", "QuantityScoreModel", "score", "quantity_diffusion.score"),
    ("netcore", "ParameterAverage", "update", "netcore.ema_update"),
]

# spans whose single-call durations are kept for percentiles
PER_CALL = {"netcore.forward", "mask_diffusion.train_step", "quantity_diffusion.dsm_step",
            "mask_diffusion.predict_p_hat", "quantity_diffusion.score"}


@dataclass
class Stats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    durations: list[float] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, thread id)
        self.stats: dict[str, Stats] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _enter(self) -> tuple[list, list | None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        frame = [next(self._ids), 0.0]  # span id, child time on this thread
        stack.append(frame)
        return frame, parent

    def _exit(self, name, frame, parent, start, end) -> None:
        self._local.stack.pop()
        dur = end - start
        if parent is not None:
            parent[1] += dur
        with self._lock:
            st = self.stats.setdefault(name, Stats())
            st.calls += 1
            st.total += dur
            st.self_time += dur - frame[1]
            if name in PER_CALL:
                st.durations.append(dur)
            self.spans.append((frame[0], name, start, end, parent[0] if parent else None,
                               threading.get_ident()))

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, parent, start, time.perf_counter())
            if hook is not None:
                self._count(name, hook(args, kwargs, result))
            return result

        return wrapper

    def _count(self, name, counts) -> None:
        with self._lock:
            ctr = self.stats[name].counters
            for key, n in counts.items():
                ctr[key] = ctr.get(key, 0) + n

    @contextlib.contextmanager
    def span(self, name):
        """One span around a call made by the benchmark itself."""
        frame, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, frame, parent, start, time.perf_counter())

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        pkg = {n: m for n, m in sys.modules.items() if n.startswith("recipeforge.")}
        for mod_name, attr, name, hook in FUNCTIONS:
            orig = getattr(pkg["recipeforge." + mod_name], attr)
            wrapper = self._wrap(orig, name, hook)
            for mod in pkg.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(pkg["recipeforge." + mod_name], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, name, None))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, tid in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "thread": tid}) + "\n")

    # -- reading ---------------------------------------------------------

    def get(self, name) -> Stats:
        return self.stats.get(name, Stats())

    def percentile_us(self, name, q: int) -> float:
        d = self.get(name).durations
        if len(d) < 2:
            return d[0] * 1e6 if d else 0.0
        return statistics.quantiles(d, n=100, method="inclusive")[q - 1] * 1e6

    def parallel_eff(self, outer: str, chunk: str, threads: int) -> float:
        """Chunk-span time inside each `outer` span over (outer wall x threads)."""
        outers = [(s, e) for _, n, s, e, _, _ in self.spans if n == outer]
        chunks = [(s, e) for _, n, s, e, _, _ in self.spans if n == chunk]
        busy = sum(ce - cs for os_, oe in outers for cs, ce in chunks if os_ <= cs and ce <= oe)
        wall = sum(oe - os_ for os_, oe in outers)
        return busy / (wall * threads) if wall > 0 else 0.0
