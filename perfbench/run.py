"""recipeforge benchmark: four offline workloads driven through `recipeforge.cli.run`.

    python3 perfbench/run.py --workload {train,generate,select,rediscover} \
        --seed N --seconds S --trace {0,1} [--size {desk,tiny}]

Run from the root of a checkout; the program is imported from its `src/`.
Inputs are synthesized from the bundled desk spec with seeds derived from
`--seed`. Each workload is a closed loop: one CLI command at a time, with
`--threads` passed explicitly (nproc, capped at the sampler's chunk count).
Set-up runs five times and `setup_s` is the median. Then whole passes of
the workload's commands repeat until `--seconds` have elapsed and the
end-to-end metrics are medians over passes. The gated throughput,
`throughput_per_ref`, counts a pass's work items per run of a fixed
reference kernel timed around each of its commands, so that the host's
drifting speed divides out; items per second are reported alongside.
Every pass checks its outputs; failed commands and checks count in
`failed`.

With `--trace 1` the run makes one untraced pass and one traced pass
(timing wrappers installed, see spans.py), checks that both wrote
byte-identical outputs, and reports the per-layer metrics instead.

The last line of stdout is the JSON result. A full report (environment,
all named metrics with units, output digests) goes to
`.bench_out/<workload>-s<seed>-t<trace>.json`, and traced spans to
`.bench_out/<workload>-s<seed>.spans.jsonl`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
DESK = "src/recipeforge/data/desk"
CFG = f"{DESK}/desk.cfg"

SIZES = {
    # desk scale: each timed pass takes a few seconds on 2 vCPUs
    "desk": dict(corpus=None, setup_mask_steps=500, setup_quantity_steps=500,
                 train_steps=2000, val_interval=1000, sample_count=1024, sample_chunk=512,
                 validate_count=2048, select_batch=1024, budget=512, rediscover_chunk=64,
                 sde_steps=None),
    # a smoke-test scale for the benchmark's own tests
    "tiny": dict(corpus=200, setup_mask_steps=20, setup_quantity_steps=20,
                 train_steps=40, val_interval=20, sample_count=128, sample_chunk=64,
                 validate_count=128, select_batch=256, budget=128, rediscover_chunk=64,
                 sde_steps=20),
}
SETUP_REPEATS = 5
CLI_COMMANDS = ["train-mask", "train-quantity", "sample", "validate", "discover",
                "select-sustainable", "select-nutritious", "personalize", "landscape",
                "rediscover"]
# bytes per (sample, corpus row, ingredient) cell of the temporaries novelty_many
# materializes as of commit ccc238c: only, both, (hi >= 2 lo), both &, only | (bool,
# 1 each) and hi, lo, 2 * lo (float64, 8 each)
NOVELTY_BYTES_PER_CELL = 5 * 1 + 3 * 8


class BenchError(Exception):
    """A command or output check failed."""


@dataclass
class Ctx:
    workload: str
    seed: int
    size: dict
    threads: int
    work: Path
    seeds: dict[str, int]
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    cmd_times: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None
    # while set: the latest reference-kernel time; each command is then
    # followed by a kernel run and its duration in kernel runs is summed
    ref_s: float | None = None
    ref_times: list[float] = field(default_factory=list)
    ref_units: float = 0.0

    def cli(self, *args: str) -> None:
        """Run one CLI command in-process, timing it; raise on a non-zero exit."""
        from recipeforge import cli
        self.attempted += 1
        out = io.StringIO()
        span = self.tracer.span(f"cli.{args[0]}") if self.tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        with span, contextlib.redirect_stdout(out):
            rc = cli.run(list(args))
        dt = time.perf_counter() - t0
        self.cmd_times[args[0]] = self.cmd_times.get(args[0], 0.0) + dt
        if self.ref_s is not None:
            after = ref_seconds()
            self.ref_units += dt / ((self.ref_s + after) / 2)
            self.ref_s = after
            self.ref_times.append(after)
        if rc != 0:
            self.failed += 1
            raise BenchError(f"{args[0]} exited {rc}: {out.getvalue().strip()}")

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def rel(self, *parts: str) -> str:
        return str(self.work.joinpath(*parts).relative_to(ROOT))


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


# ---------------------------------------------------------------------------
# set-up


def _synth(ctx: Ctx, out: str, seed: int, count: int | None) -> None:
    args = ["synth", "--spec", f"{DESK}/synth_spec.json", "--config", CFG,
            "--seed", str(seed), "--threads", str(ctx.threads), "--out-dir", out]
    if count:
        args += ["--count", str(count)]
    ctx.cli(*args)


def _train(ctx: Ctx, corpus: str, out: str, mask_steps: int, qty_steps: int) -> None:
    sz = ctx.size
    for cmd, prefix, steps in (("train-mask", "mask", mask_steps),
                               ("train-quantity", "quantity", qty_steps)):
        ctx.cli(cmd, "--corpus", corpus, "--config", CFG, "--seed", str(ctx.seeds["train"]),
                "--threads", str(ctx.threads), "--out-dir", out,
                "--set", f"train.{prefix}.steps={steps}",
                "--set", f"train.{prefix}.val_interval={min(sz['val_interval'], steps)}")


def setup(ctx: Ctx, rep: int) -> dict[str, str]:
    """Build one workload's inputs under setup<rep>/ and return their digests."""
    d = f"setup{rep}"
    _synth(ctx, ctx.rel(d), ctx.seeds["corpus"], ctx.size["corpus"])
    digests = {"corpus.jsonl": _sha(ctx.work / d / "corpus.jsonl")}
    if ctx.workload == "select":
        _synth(ctx, ctx.rel(d, "batch"), ctx.seeds["batch"], ctx.size["select_batch"])
        digests["batch.jsonl"] = _sha(ctx.work / d / "batch" / "corpus.jsonl")
    if ctx.workload in ("generate", "rediscover"):
        _train(ctx, ctx.rel(d, "corpus.jsonl"), ctx.rel(d), ctx.size["setup_mask_steps"],
               ctx.size["setup_quantity_steps"])
        for name in ("mask_model.json", "quantity_model.json"):
            digests[name] = _sha(ctx.work / d / "checkpoints" / name)
    if ctx.workload == "rediscover":
        # every ingredient present: the models never draw this, so each pass
        # spends exactly the budget
        ids = [e["id"] for e in json.loads((ctx.work / d / "vocabulary.json").read_text())]
        ref = {"ingredients": [{"id": i, "grams": 50.0} for i in ids]}
        (ctx.work / d / "reference.jsonl").write_text(json.dumps(ref) + "\n")
    return digests


# ---------------------------------------------------------------------------
# timed passes: each returns (work items, named end-to-end metrics, output digests)


def _models(ctx: Ctx) -> list[str]:
    return ["--mask-model", ctx.rel("setup0", "checkpoints", "mask_model.json"),
            "--quantity-model", ctx.rel("setup0", "checkpoints", "quantity_model.json"),
            "--vocabulary", ctx.rel("setup0", "vocabulary.json")]


def pass_train(ctx: Ctx):
    steps = ctx.size["train_steps"]
    _train(ctx, ctx.rel("setup0", "corpus.jsonl"), ctx.rel("out"), steps, steps)
    out = ctx.work / "out"
    e2e, digests = {}, {}
    for name, key in (("mask", "val_neg_elbo"), ("quantity", "val_dsm")):
        ckpt = out / "checkpoints" / f"{name}_model.json"
        ctx.check(ckpt.exists(), f"{ckpt.name} written")
        history = json.loads((out / "reports" / f"train_{name}.json").read_text())["history"]
        last = history[-1][key] if history else None
        ctx.check(_finite(last), f"train_{name} {key} finite")
        e2e[f"{name}_{key}"] = last
        if ckpt.exists():
            digests[ckpt.name] = _sha(ckpt)
    e2e["train_mask_steps_per_s"] = steps / ctx.cmd_times["train-mask"]
    e2e["train_quantity_steps_per_s"] = steps / ctx.cmd_times["train-quantity"]
    return 2 * steps, e2e, digests


def pass_generate(ctx: Ctx):
    sz = ctx.size
    seed = str(ctx.seeds["sample"])
    common = ["--config", CFG, "--seed", seed, "--threads", str(ctx.threads),
              "--out-dir", ctx.rel("out")]
    if sz["sde_steps"]:
        common += ["--set", f"sde.steps={sz['sde_steps']}"]
    ctx.cli("sample", *_models(ctx), "--count", str(sz["sample_count"]),
            "--chunk-size", str(sz["sample_chunk"]), *common)
    ctx.cli("validate", *_models(ctx)[:4], "--corpus", ctx.rel("setup0", "corpus.jsonl"),
            "--count", str(sz["validate_count"]), *common)
    out = ctx.work / "out"
    samples = out / "samples" / "samples.jsonl"
    rows = [json.loads(ln) for ln in samples.read_text().splitlines() if ln.strip()]
    ctx.check(len(rows) == sz["sample_count"], "samples.jsonl has the requested row count")
    ctx.check(all(r["ingredients"]
                  and len({i["id"] for i in r["ingredients"]}) == len(r["ingredients"])
                  and all(_finite(i["grams"]) and i["grams"] > 0 for i in r["ingredients"])
                  for r in rows), "positive grams exactly on each sample's mask")
    report = json.loads((out / "reports" / "fidelity.json").read_text())
    fid = {k: report[k] for k in ("max_marginal_error", "length_total_variation",
                                  "quantity_mae_grams")}
    ctx.check(_finite(*fid.values()), "fidelity numbers finite")
    e2e = {"sample_recipes_per_s": sz["sample_count"] / ctx.cmd_times["sample"],
           "validate_s": ctx.cmd_times["validate"], **fid}
    digests = {"samples.jsonl": _sha(samples), "fidelity.json": _sha(out / "reports" / "fidelity.json")}
    return sz["sample_count"] + sz["validate_count"], e2e, digests


SELECT_COMMANDS = [
    ("discover", ["--corpus", "@corpus", "--impact-table", "@impact", "--impact-norms", "@norms",
                  "--nutrient-table", "@nutrients"]),
    ("select-sustainable", ["--impact-table", "@impact", "--impact-norms", "@norms",
                            "--corpus", "@corpus"]),
    ("select-nutritious", ["--nutrient-table", "@nutrients", "--corpus", "@corpus"]),
    ("personalize", ["--nutrient-table", "@nutrients"]),
    ("landscape", ["--corpus", "@corpus", "--impact-table", "@impact", "--impact-norms", "@norms",
                   "--nutrient-table", "@nutrients"]),
]
SELECTION_FILES = ["selections/discover.json", "selections/select_sustainable.json",
                   "selections/select_nutritious.json", "selections/personalize.json",
                   "reports/landscape.csv"]


def pass_select(ctx: Ctx):
    paths = {"@corpus": ctx.rel("setup0", "corpus.jsonl"),
             "@impact": f"{DESK}/impact_table.csv", "@norms": f"{DESK}/impact_norms.json",
             "@nutrients": f"{DESK}/nutrient_table.csv"}
    for cmd, extra in SELECT_COMMANDS:
        ctx.cli(cmd, "--samples", ctx.rel("setup0", "batch", "corpus.jsonl"),
                "--vocabulary", ctx.rel("setup0", "vocabulary.json"), "--config", CFG,
                "--seed", str(ctx.seeds["sample"]), "--threads", str(ctx.threads),
                "--out-dir", ctx.rel("out"), *[paths.get(a, a) for a in extra])
    out = ctx.work / "out"
    digests = {}
    for name in SELECTION_FILES:
        ctx.check((out / name).exists(), f"{name} written")
        if (out / name).exists():
            digests[name] = _sha(out / name)
    discover = json.loads((out / SELECTION_FILES[0]).read_text())
    resolved = dict(ln.split(" = ", 1) for ln in (out / "config.resolved").read_text().splitlines())
    ctx.check(discover["novelty_sds"] >= json.loads(resolved["select.min_sds"]),
              "discover novelty_sds >= select.min_sds")
    n = len(SELECT_COMMANDS) * ctx.size["select_batch"]
    return n, {"select_samples_per_s": n / sum(ctx.cmd_times.values())}, digests


def pass_rediscover(ctx: Ctx):
    sz = ctx.size
    args = ["rediscover", *_models(ctx), "--reference", ctx.rel("setup0", "reference.jsonl"),
            "--budget", str(sz["budget"]), "--config", CFG, "--seed", str(ctx.seeds["sample"]),
            "--threads", "1", "--out-dir", ctx.rel("out"),
            "--set", f"rediscover.chunk_size={sz['rediscover_chunk']}"]
    if sz["sde_steps"]:
        args += ["--set", f"sde.steps={sz['sde_steps']}"]
    ctx.cli(*args)
    path = ctx.work / "out" / "selections" / "rediscover.json"
    doc = json.loads(path.read_text())
    ctx.check(doc["draws"] == sz["budget"], "rediscover draws == budget")
    ctx.check(doc["found"] is False, "rediscover found == false")
    return doc["draws"], {"rediscover_draws_per_s": doc["draws"] / ctx.cmd_times["rediscover"]}, \
        {"rediscover.json": _sha(path)}


PASSES = {"train": pass_train, "generate": pass_generate, "select": pass_select,
          "rediscover": pass_rediscover}

# units of the named end-to-end metrics in the full report
E2E_UNITS = {
    "setup_s": "s", "throughput_per_ref": "1/ref", "throughput_per_s": "1/s", "ref_s": "s",
    "peak_rss_mb": "MB", "error_rate": "ratio",
    "train_mask_steps_per_s": "steps/s", "train_quantity_steps_per_s": "steps/s",
    "mask_val_neg_elbo": "nats", "quantity_val_dsm": "loss",
    "sample_recipes_per_s": "recipes/s", "validate_s": "s",
    "max_marginal_error": "ratio", "length_total_variation": "ratio", "quantity_mae_grams": "g",
    "select_samples_per_s": "samples/s", "rediscover_draws_per_s": "draws/s",
}
GATED = ("setup_s", "throughput_per_ref", "peak_rss_mb")


# ---------------------------------------------------------------------------
# host-speed reference
#
# The single-thread speed of a shared VM drifts by tens of percent over tens
# of seconds, and every workload slows with it. A fixed kernel timed right
# before and after each timed command measures the host's speed at that
# moment, and `throughput_per_ref` (work items per run of the kernel)
# divides the drift out. The kernel uses no recipeforge code, so a change to
# the program moves `throughput_per_ref` exactly as it moves the raw items
# per second. It mixes what the workloads spend their time on: interpreter
# work, many small numpy calls (its matmul is too small for BLAS to use a
# second thread) and vectorized passes over arrays of a few hundred
# kilobytes. Do not change it: figures taken with another kernel are not
# comparable.

_REF_RNG = np.random.default_rng(20260203)
_REF_W = [_REF_RNG.standard_normal((32, 32)) * 0.1 for _ in range(3)]
_REF_X = _REF_RNG.standard_normal((16, 32))
_REF_V = _REF_RNG.standard_normal(40_000)
REF_PAUSE_S = 0.1
REF_REPEATS = 5


def _ref_kernel() -> float:
    x, acc = _REF_X, 0
    for i in range(400):
        h = x
        for w in _REF_W:
            h = np.tanh(h @ w + 0.01)
        x = _REF_X + 1e-3 * h.mean(axis=0)
        row = {"id": i, "grams": [i * 0.5, i + 1.0]}
        acc += int(sum(row["grams"])) % 7
    v = _REF_V
    for _ in range(20):
        v = np.sort(np.abs(v - v.mean()))[::-1] * 0.999
    return acc + float(x.sum()) + float(v[0])


def ref_seconds() -> float:
    """Median time of the reference kernel over a few back-to-back runs.

    It first sleeps briefly, so that BLAS worker threads still spinning from
    the program's last call do not slow the kernel down.
    """
    time.sleep(REF_PAUSE_S)
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        _ref_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Pass:
    wall_s: float
    cpu_s: float  # process CPU time, all threads
    items: int
    named: dict[str, float]
    digests: dict[str, str]
    cmd_s: float  # time inside the pass's CLI commands
    ref_units: float  # the same, in runs of the reference kernel (0 when not taken)


def run_pass(ctx: Ctx) -> Pass:
    ctx.cmd_times, ctx.ref_units = {}, 0.0
    t0, c0 = time.perf_counter(), time.process_time()
    items, named, digests = PASSES[ctx.workload](ctx)
    return Pass(time.perf_counter() - t0, time.process_time() - c0, items, named, digests,
                sum(ctx.cmd_times.values()), ctx.ref_units)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tr: Tracer, setup_tr: Tracer, threads: int, overhead: float,
                  e2e: dict) -> dict[str, float]:
    m: dict[str, float] = {}
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = tr.get(f"cli.{cmd}").total

    def add(span, *fields):
        st = tr.get(span)
        for f in fields:
            if f == "s":
                m[f"{span}.s"] = st.total
            elif f == "self_s":
                m[f"{span}.self_s"] = st.self_time
            elif f == "calls":
                m[f"{span}.calls"] = st.calls
            elif f in ("p50_us", "p99_us"):
                m[f"{span}.{f}"] = tr.percentile_us(span, int(f[1:3]))
            else:
                m[f"{span}.{f}"] = st.counters.get(f, 0)

    add("corpus.load_corpus", "s", "rows")
    add("corpus.write_corpus", "s")
    m["corpus.synthesize_corpus.s"] = setup_tr.get("corpus.synthesize_corpus").total
    add("netcore.forward", "calls", "rows", "self_s", "p50_us", "p99_us")
    for span in ("netcore.gradient", "netcore.optimizer_step", "netcore.ema_update"):
        add(span, "self_s")
    add("mask_diffusion.train_step", "calls", "p50_us", "p99_us", "self_s")
    add("mask_diffusion.validation", "s")
    add("mask_diffusion.sample_chunk", "self_s", "rows", "discarded")
    chains = m["mask_diffusion.sample_chunk.rows"] + m["mask_diffusion.sample_chunk.discarded"]
    m["mask_diffusion.discard_ratio"] = m["mask_diffusion.sample_chunk.discarded"] / chains if chains else 0.0
    add("mask_diffusion.predict_p_hat", "calls", "p50_us", "p99_us")
    add("mask_diffusion.sample_masks", "s")
    m["mask_diffusion.sample_masks.parallel_eff"] = tr.parallel_eff(
        "mask_diffusion.sample_masks", "mask_diffusion.sample_chunk", threads)
    add("quantity_diffusion.dsm_step", "calls", "p50_us", "p99_us", "self_s")
    add("quantity_diffusion.validation", "s")
    add("quantity_diffusion.reverse_integrate", "self_s", "rows")
    add("quantity_diffusion.score", "calls", "self_s", "p50_us", "p99_us")
    add("quantity_diffusion.reverse_sample_batch", "s")
    m["quantity_diffusion.reverse_sample_batch.parallel_eff"] = tr.parallel_eff(
        "quantity_diffusion.reverse_sample_batch", "quantity_diffusion.reverse_integrate", threads)
    add("quantity_diffusion.decode_weights", "calls", "self_s")
    add("scoring.sds", "calls", "self_s")
    add("scoring.group_recipes", "s", "groups")
    grouped = tr.get("scoring.group_recipes").counters.get("samples", 0)
    m["scoring.group_ratio"] = m["scoring.group_recipes.groups"] / grouped if grouped else 0.0
    for span in ("scoring.env_impact_scores", "scoring.hei_totals", "scoring.personalized_scores"):
        add(span, "s")
    m["scoring.load_tables.s"] = sum(tr.get(f"scoring.load_{t}").total
                                     for t in ("impact_table", "nutrient_table", "hei_standards"))
    add("discovery.novelty_many", "s", "pairs")
    m["discovery.novelty_many.bytes_computed"] = (
        tr.get("discovery.novelty_many").counters.get("cells", 0) * NOVELTY_BYTES_PER_CELL)
    add("discovery.novelty", "s")
    add("discovery.generate_batch", "s")
    add("discovery.rediscover", "self_s", "draws")
    for span in ("fidelity.fidelity_report", "fidelity.quantity_mae", "fidelity.pairwise_correlations"):
        add(span, "s")
    m["trace.overhead"] = overhead
    for name in E2E_UNITS:
        if name not in (*GATED, "throughput_per_s", "ref_s"):
            m[f"e2e.{name}"] = e2e.get(name, 0.0)
    return m


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    import numpy
    import scipy
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RECIPEFORGE_THREADS"):
        env[var] = os.environ.get(var)
    # the scipy-openblas numpy ships with (64-bit interface); threadpoolctl
    # is not installed
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    env["openblas"] = env["blas_threads"] = None
    if libs:
        lib = ctypes.CDLL(libs[0])
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_config = lib.scipy_openblas_get_config64_
        get_threads.restype, get_threads.argtypes = ctypes.c_int, []
        get_config.restype, get_config.argtypes = ctypes.c_char_p, []
        env["blas_threads"] = get_threads()
        env["openblas"] = get_config().decode()
    return env


# ---------------------------------------------------------------------------
# main


def derive_seeds(seed: int) -> dict[str, int]:
    import numpy as np
    state = np.random.SeedSequence(seed).generate_state(4)
    return dict(zip(("corpus", "batch", "train", "sample"), (int(s) % 1_000_000 for s in state)))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="desk")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "recipeforge" / "cli.py").is_file():
        print(f"benchmark: no recipeforge sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.chdir(ROOT)
    import recipeforge.cli  # noqa: F401  (loads every layer module)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Ctx(workload=args.workload, seed=args.seed, size=SIZES[args.size],
              threads=min(len(os.sched_getaffinity(0)), 2), work=work,
              seeds=derive_seeds(args.seed))
    report: dict = {"workload": args.workload, "seed": args.seed, "seeds": ctx.seeds,
                    "size": args.size, "trace": args.trace, "environment": environment()}
    try:
        metrics = measure(ctx, args, report)
    except BenchError as e:
        ctx.errors.append(str(e))
        metrics = {}
    except Exception:  # a crash in the program or a missing output: report, don't die
        ctx.failed += 1
        ctx.errors.append(traceback.format_exc())
        metrics = {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    if ctx.failed or set(metrics) != {m["name"] for m in wanted}:
        ctx.failed = max(ctx.failed, 1)
    for e in ctx.errors:
        print(f"benchmark: {e}", file=sys.stderr)
    result = {
        "correct": ctx.failed == 0,
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }
    report["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, value in sorted(report.get("named", {}).items()):
        print(f"{name:32s} {value:14.6g} {E2E_UNITS[name]}")
    print(json.dumps(result))
    return 0


def measure(ctx: Ctx, args, report: dict) -> dict[str, float]:
    setup_times, setup_digests = [], []
    setup_tr = Tracer() if args.trace else None
    for rep in range(1 if args.trace else SETUP_REPEATS):
        if setup_tr:
            setup_tr.install()
        t0 = time.perf_counter()
        try:
            setup_digests.append(setup(ctx, rep))
        finally:
            if setup_tr:
                setup_tr.uninstall()
        setup_times.append(time.perf_counter() - t0)
    ctx.check(all(d == setup_digests[0] for d in setup_digests), "repeated set-ups are identical")
    report["setup_digests"] = setup_digests[0]
    report["setup_times"] = setup_times

    if not args.trace:
        passes = []
        ctx.ref_s = ref_seconds()
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(run_pass(ctx))
        ctx.ref_s = None
        ctx.check(all(p.digests == passes[0].digests for p in passes),
                  "every pass wrote identical outputs")
        report["digests"] = passes[0].digests
        report["passes"] = [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "cmd_s": p.cmd_s,
                             "ref_units": p.ref_units, "items": p.items, **p.named}
                            for p in passes]
        report["ref_times"] = ctx.ref_times
        named = {k: statistics.median(p.named[k] for p in passes) for k in passes[0].named}
        named["setup_s"] = statistics.median(setup_times)
        named["throughput_per_ref"] = statistics.median(p.items / p.ref_units for p in passes)
        named["throughput_per_s"] = statistics.median(p.items / p.cmd_s for p in passes)
        named["ref_s"] = statistics.median(ctx.ref_times)
        named["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        named["error_rate"] = ctx.failed / max(ctx.attempted, 1)
        report["named"] = named
        return {k: named[k] for k in GATED}

    plain = run_pass(ctx)
    tr = Tracer()
    tr.install()
    ctx.tracer = tr
    try:
        traced = run_pass(ctx)
    finally:
        tr.uninstall()
        ctx.tracer = None
    ctx.check(traced.digests == plain.digests,
              "traced pass wrote the same outputs as the untraced pass")
    report["digests"] = plain.digests
    named = dict(plain.named, error_rate=ctx.failed / max(ctx.attempted, 1))
    report["named"] = named
    OUT.mkdir(exist_ok=True)
    tr.write_spans(OUT / f"{ctx.workload}-s{ctx.seed}.spans.jsonl")
    return layer_metrics(tr, setup_tr, ctx.threads, traced.wall_s / plain.wall_s, named)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
