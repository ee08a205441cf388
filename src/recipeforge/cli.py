"""Command-line entry point wiring all pipelines.

Subcommands: ingest, synth, train-mask, train-quantity, sample,
rediscover, discover, select-sustainable, select-nutritious, personalize,
validate, landscape. Every run writes its outputs under a run directory
(config.resolved, checkpoints/, samples/, reports/, selections/) and
every output embeds the hash of the resolved configuration that produced
it; JSON-lines sample and corpus files carry the hash in a sidecar
.meta.json so the record schema stays pure.

<out-dir>/cache/ holds parsed copies of the corpus, sample and reference
files the commands read, so that commands sharing a run directory parse
each file once. An entry is keyed by the sha256 of the file's bytes and
the vocabulary, so it is never read for different bytes; deleting the
directory is always safe.

Commands run with numpy's OpenBLAS on one thread (restored afterwards),
so the worker threads that --threads sets are the only parallelism.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import discovery, fidelity, mask_diffusion, quantity_diffusion, scoring
from .config import config_hash, parse_config_file, render_config, resolve_config
from .errors import DataError, NumericError
from .netcore import TrainConfig, one_blas_thread

_FLAG_KEYS = {
    "seed": "run.seed",
    "threads": "run.threads",
    "count": "sample.count",
    "chunk_size": "sample.chunk_size",
    "steps": "sde.steps",
    "min_sds": "select.min_sds",
    "top": "select.top_fraction",
    "require": "select.required",
    "budget": "rediscover.budget",
    "age": "profile.age",
    "sex": "profile.sex",
    "height": "profile.height_cm",
    "weight": "profile.weight_kg",
    "activity": "profile.activity",
    "corpus": "paths.corpus",
    "vocabulary": "paths.vocabulary",
    "spec": "paths.spec",
    "samples": "paths.samples",
    "mask_model": "paths.mask_model",
    "quantity_model": "paths.quantity_model",
    "impact_table": "paths.impact_table",
    "impact_norms": "paths.impact_norms",
    "nutrient_table": "paths.nutrient_table",
    "hei_standards": "paths.hei_standards",
    "reference": "paths.reference",
    "mask_from": "paths.samples",
    "out": "paths.out",
    "input": "paths.corpus",
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat dotted-key config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a single config key (repeatable)")
    p.add_argument("--out-dir", default=None,
                   help="run directory (default runs/<command>); its cache/ holds parsed copies "
                        "of input corpora, keyed by file content (never read for other bytes) "
                        "and safe to delete")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (env RECIPEFORGE_THREADS as fallback)")


def _add_models(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mask-model", default=None)
    p.add_argument("--quantity-model", default=None)
    p.add_argument("--vocabulary", default=None)


def _add_batch_source(p: argparse.ArgumentParser) -> None:
    _add_models(p)
    p.add_argument("--samples", default=None, help="previously generated samples JSONL")
    p.add_argument("--count", type=int, default=None, help="samples to generate when no file given")
    p.add_argument("--chunk-size", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="recipeforge",
                                     description="generative recipe design pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and canonicalize a corpus file")
    p.add_argument("--input", required=True, help="corpus JSONL to ingest")
    p.add_argument("--vocabulary", default=None, help="existing vocabulary to enforce")
    _add_common(p)

    p = sub.add_parser("synth", help="synthesize a corpus from a generative spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None, help="corpus output path (default <out-dir>/corpus.jsonl)")
    p.add_argument("--count", type=int, default=None, help="override the spec recipe count")
    _add_common(p)

    p = sub.add_parser("train-mask", help="train the ingredient-selection model")
    p.add_argument("--corpus", required=True)
    _add_common(p)

    p = sub.add_parser("train-quantity", help="train the ingredient-quantity model")
    p.add_argument("--corpus", required=True)
    _add_common(p)

    p = sub.add_parser("sample", help="generate recipes (or weights for given masks)")
    _add_models(p)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--chunk-size", type=int, default=None)
    p.add_argument("--steps", type=int, default=None, help="reverse SDE integration steps")
    p.add_argument("--mask-from", default=None,
                   help="JSONL of recipes whose masks get fresh conditional weights")
    _add_common(p)

    p = sub.add_parser("rediscover", help="search the sample stream for a reference recipe")
    _add_models(p)
    p.add_argument("--reference", required=True, help="JSONL file holding the one target recipe")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("discover", help="most repeated sample above a novelty floor")
    _add_batch_source(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--min-sds", type=int, default=None)
    p.add_argument("--impact-table", default=None)
    p.add_argument("--impact-norms", default=None)
    p.add_argument("--nutrient-table", default=None)
    p.add_argument("--hei-standards", default=None)
    _add_common(p)

    p = sub.add_parser("select-sustainable", help="most repeated sample in the lowest-impact decile")
    _add_batch_source(p)
    p.add_argument("--impact-table", required=True)
    p.add_argument("--impact-norms", default=None)
    p.add_argument("--require", action="append", default=None,
                   help="ingredient id the selection must contain (repeatable)")
    p.add_argument("--corpus", default=None, help="corpus for novelty annotation")
    _add_common(p)

    p = sub.add_parser("select-nutritious", help="most repeated sample in the top HEI fraction")
    _add_batch_source(p)
    p.add_argument("--nutrient-table", required=True)
    p.add_argument("--hei-standards", default=None)
    p.add_argument("--top", type=float, default=None)
    p.add_argument("--corpus", default=None)
    _add_common(p)

    p = sub.add_parser("personalize", help="most repeated sample in the top personalized fraction")
    _add_batch_source(p)
    p.add_argument("--nutrient-table", required=True)
    p.add_argument("--age", type=float, default=None)
    p.add_argument("--sex", default=None, choices=["male", "female"])
    p.add_argument("--height", type=float, default=None, help="height in cm")
    p.add_argument("--weight", type=float, default=None, help="weight in kg")
    p.add_argument("--activity", default=None, choices=list(scoring.ACTIVITY_LEVELS))
    p.add_argument("--top", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("validate", help="fidelity report against a corpus")
    _add_models(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--count", type=int, default=None, help="fidelity sample count")
    _add_common(p)

    p = sub.add_parser("landscape", help="per-group score table over a batch")
    _add_batch_source(p)
    p.add_argument("--corpus", required=True)
    p.add_argument("--impact-table", required=True)
    p.add_argument("--impact-norms", default=None)
    p.add_argument("--nutrient-table", required=True)
    p.add_argument("--hei-standards", default=None)
    _add_common(p)

    return parser


def _resolve(args: argparse.Namespace) -> dict[str, object]:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides: dict[str, object] = {"run.command": args.command}
    env_threads = os.environ.get("RECIPEFORGE_THREADS")
    if env_threads:
        overrides["run.threads"] = int(env_threads)
    for name, key in _FLAG_KEYS.items():
        if hasattr(args, name) and getattr(args, name) is not None:
            overrides[key] = getattr(args, name)
    for item in args.set or []:
        if "=" not in item:
            raise DataError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        try:
            parsed = json.loads(val.strip())
        except json.JSONDecodeError:
            parsed = val.strip()
        overrides[key.strip()] = parsed
    if args.command == "validate" and getattr(args, "count", None) is not None:
        overrides.pop("sample.count", None)
        overrides["fidelity.sample_count"] = args.count
    if args.command == "synth" and getattr(args, "count", None) is not None:
        overrides.pop("sample.count", None)
        overrides["synth.count_override"] = args.count
    return resolve_config(file_values, overrides)


def _prepare_run_dir(args: argparse.Namespace, cfg: dict[str, object]) -> tuple[Path, str]:
    out_dir = Path(args.out_dir) if args.out_dir else Path("runs") / str(args.command)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.resolved").write_text(render_config(cfg))
    return out_dir, config_hash(cfg)


def _write_json(path: Path, payload: dict, chash: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"config_hash": chash}
    doc.update(payload)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list], chash: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# config_hash={chash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _file_fingerprint(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _load_corpus(path, out_dir: Path, vocab=None) -> corpus_mod.Corpus:
    """The corpus file at path, parsed once per content and vocabulary in the run directory."""
    return corpus_mod.load_corpus(path, vocab, cache_dir=out_dir / "cache")


def _load_vocabulary(cfg: dict, out_dir: Path) -> corpus_mod.IngredientVocabulary:
    path = cfg["paths.vocabulary"] or (out_dir / "vocabulary.json")
    if not Path(path).exists():
        raise DataError(f"vocabulary file not found: {path}; pass --vocabulary")
    return corpus_mod.load_vocabulary(path)


def _load_models(cfg: dict, out_dir: Path):
    mask_path = Path(cfg["paths.mask_model"] or out_dir / "checkpoints" / "mask_model.json")
    qty_path = Path(cfg["paths.quantity_model"] or out_dir / "checkpoints" / "quantity_model.json")
    for p in (mask_path, qty_path):
        if not p.exists():
            raise DataError(f"model checkpoint not found: {p}")
    mask_model = mask_diffusion.load_mask_model(mask_path)
    qty_model = quantity_diffusion.load_quantity_model(qty_path)
    qty_model.sde = replace(qty_model.sde, steps=int(cfg["sde.steps"]))
    return mask_model, qty_model, _file_fingerprint(mask_path), _file_fingerprint(qty_path)


def _check_vocab(vocab: corpus_mod.IngredientVocabulary, *models) -> None:
    for m in models:
        if m.vocab_fingerprint and m.vocab_fingerprint != vocab.fingerprint():
            raise DataError("model/vocabulary mismatch: checkpoint was trained on a "
                            "different ingredient vocabulary")


def _get_batch(cfg: dict, out_dir: Path) -> tuple[np.ndarray, corpus_mod.IngredientVocabulary, dict]:
    """The batch's (n, K) grams matrix, its vocabulary and its provenance:
    the seed and the checkpoint fingerprints ("" for a samples file)."""
    source = {"seed": int(cfg["run.seed"]), "mask_model_fingerprint": "",
              "quantity_model_fingerprint": ""}
    if cfg["paths.samples"]:
        vocab = _load_vocabulary(cfg, out_dir)
        return _load_corpus(cfg["paths.samples"], out_dir, vocab).grams, vocab, source
    mask_model, qty_model, mfp, qfp = _load_models(cfg, out_dir)
    vocab = _load_vocabulary(cfg, out_dir)
    _check_vocab(vocab, mask_model, qty_model)
    batch = discovery.generate_batch(mask_model, qty_model, int(cfg["sample.count"]),
                                     int(cfg["run.seed"]), chunk_size=int(cfg["sample.chunk_size"]),
                                     threads=int(cfg["run.threads"]))
    source.update(mask_model_fingerprint=mfp, quantity_model_fingerprint=qfp)
    return batch, vocab, source


def _load_impact(cfg: dict, vocab) -> scoring.ImpactTable:
    norms = cfg["paths.impact_norms"] or None
    return scoring.load_impact_table(cfg["paths.impact_table"], vocab, norms)


def _load_nutrients(cfg: dict, vocab) -> scoring.NutrientTable:
    return scoring.load_nutrient_table(cfg["paths.nutrient_table"], vocab)


def _load_standards(cfg: dict):
    return scoring.load_hei_standards(cfg["paths.hei_standards"] or None)


def _train_config(cfg: dict, prefix: str) -> TrainConfig:
    final_lr = float(cfg[f"train.{prefix}.final_learning_rate"])
    ema = float(cfg[f"train.{prefix}.ema_decay"])
    return TrainConfig(
        steps=int(cfg[f"train.{prefix}.steps"]),
        batch_size=int(cfg[f"train.{prefix}.batch_size"]),
        learning_rate=float(cfg[f"train.{prefix}.learning_rate"]),
        final_learning_rate=final_lr if final_lr > 0 else None,
        ema_decay=ema if ema > 0 else None,
        hidden_width=int(cfg[f"train.{prefix}.hidden_width"]),
        hidden_depth=int(cfg[f"train.{prefix}.hidden_depth"]),
        val_interval=int(cfg[f"train.{prefix}.val_interval"]),
    )


def _group_table(batch: np.ndarray, score_of) -> list[list]:
    """One row per SDS-0 group; score_of maps the founders' grams matrix to scores."""
    groups = scoring.group_recipes(batch)
    scores = score_of(batch[[g.founder_index for g in groups]])
    total = len(batch)
    return [[i, g.count, g.count / total, scores[i]] for i, g in enumerate(groups)]


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_ingest(cfg: dict, out_dir: Path, chash: str) -> int:
    vocab = corpus_mod.load_vocabulary(cfg["paths.vocabulary"]) if cfg["paths.vocabulary"] else None
    loaded = _load_corpus(cfg["paths.corpus"], out_dir, vocab)
    corpus_mod.write_corpus(out_dir / "corpus.jsonl", loaded)
    corpus_mod.write_vocabulary(out_dir / "vocabulary.json", loaded.vocabulary)
    _write_json(out_dir / "corpus.meta.json",
                {"recipes": len(loaded), "ingredients": loaded.vocabulary.K,
                 "source": str(cfg["paths.corpus"])}, chash)
    print(f"ingested {len(loaded)} recipes over {loaded.vocabulary.K} ingredients")
    return 0


def cmd_synth(cfg: dict, out_dir: Path, chash: str) -> int:
    spec = corpus_mod.load_synth_spec(cfg["paths.spec"])
    if int(cfg["synth.count_override"]) > 0:
        spec.count = int(cfg["synth.count_override"])
    made = corpus_mod.synthesize_corpus(spec, int(cfg["run.seed"]),
                                        val_fraction=float(cfg["corpus.val_fraction"]))
    out = Path(cfg["paths.out"]) if cfg["paths.out"] else out_dir / "corpus.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    corpus_mod.write_corpus(out, made)
    corpus_mod.write_vocabulary(out_dir / "vocabulary.json", made.vocabulary)
    _write_json(out.with_suffix(out.suffix + ".meta.json"),
                {"recipes": len(made), "ingredients": made.vocabulary.K,
                 "seed": int(cfg["run.seed"])}, chash)
    print(f"synthesized {len(made)} recipes -> {out}")
    return 0


def cmd_train_mask(cfg: dict, out_dir: Path, chash: str) -> int:
    loaded = _load_corpus(cfg["paths.corpus"], out_dir)
    schedule = mask_diffusion.linear_schedule(int(cfg["schedule.T"]),
                                              float(cfg["schedule.beta_start"]),
                                              float(cfg["schedule.beta_end"]))
    model = mask_diffusion.train_mask_model(loaded, schedule, _train_config(cfg, "mask"),
                                            int(cfg["run.seed"]))
    path = out_dir / "checkpoints" / "mask_model.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    mask_diffusion.save_mask_model(path, model, seed_lineage=[int(cfg["run.seed"])])
    corpus_mod.write_vocabulary(out_dir / "vocabulary.json", loaded.vocabulary)
    _write_json(out_dir / "reports" / "train_mask.json",
                {"fingerprint": _file_fingerprint(path),
                 "history": [{"step": s, "val_neg_elbo": v} for s, v in model.history]}, chash)
    print(f"trained mask model -> {path} (val -ELBO {model.history[0][1]:.2f} -> {model.history[-1][1]:.2f})")
    return 0


def cmd_train_quantity(cfg: dict, out_dir: Path, chash: str) -> int:
    loaded = _load_corpus(cfg["paths.corpus"], out_dir)
    sde = quantity_diffusion.SDESpec(beta_min=float(cfg["sde.beta_min"]),
                                     beta_max=float(cfg["sde.beta_max"]),
                                     steps=int(cfg["sde.steps"]),
                                     t_eps=float(cfg["sde.t_eps"]))
    model = quantity_diffusion.train_quantity_model(loaded, sde, _train_config(cfg, "quantity"),
                                                    int(cfg["run.seed"]))
    path = out_dir / "checkpoints" / "quantity_model.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    quantity_diffusion.save_quantity_model(path, model, seed_lineage=[int(cfg["run.seed"])])
    corpus_mod.write_vocabulary(out_dir / "vocabulary.json", loaded.vocabulary)
    _write_json(out_dir / "reports" / "train_quantity.json",
                {"fingerprint": _file_fingerprint(path),
                 "history": [{"step": s, "val_dsm": v} for s, v in model.history]}, chash)
    print(f"trained quantity model -> {path} (val DSM {model.history[0][1]:.3f} -> {model.history[-1][1]:.3f})")
    return 0


def cmd_sample(cfg: dict, out_dir: Path, chash: str) -> int:
    mask_model, qty_model, mfp, qfp = _load_models(cfg, out_dir)
    vocab = _load_vocabulary(cfg, out_dir)
    _check_vocab(vocab, mask_model, qty_model)
    sample_dir = out_dir / "samples"
    if cfg["paths.samples"]:  # --mask-from: conditional weights only
        given = _load_corpus(cfg["paths.samples"], out_dir, vocab)
        masks = (given.grams > 0).astype(np.uint8)
        grams = quantity_diffusion.reverse_sample_batch(
            qty_model, masks, int(cfg["run.seed"]),
            chunk_size=int(cfg["sample.chunk_size"]), threads=int(cfg["run.threads"]))
        mode = "conditional"
    else:
        grams = discovery.generate_batch(mask_model, qty_model, int(cfg["sample.count"]),
                                         int(cfg["run.seed"]),
                                         chunk_size=int(cfg["sample.chunk_size"]),
                                         threads=int(cfg["run.threads"]))
        mode = "joint"
    made = corpus_mod.Corpus(vocabulary=vocab, grams=grams, splits=[corpus_mod.TRAIN] * len(grams))
    sample_dir.mkdir(parents=True, exist_ok=True)
    corpus_mod.write_corpus(sample_dir / "samples.jsonl", made, include_split=False)
    _write_json(sample_dir / "samples.meta.json",
                {"count": len(made), "seed": int(cfg["run.seed"]), "mode": mode,
                 "mask_model_fingerprint": mfp, "quantity_model_fingerprint": qfp}, chash)
    print(f"sampled {len(made)} recipes -> {sample_dir / 'samples.jsonl'}")
    return 0


def cmd_rediscover(cfg: dict, out_dir: Path, chash: str) -> int:
    mask_model, qty_model, mfp, qfp = _load_models(cfg, out_dir)
    vocab = _load_vocabulary(cfg, out_dir)
    _check_vocab(vocab, mask_model, qty_model)
    ref_corpus = _load_corpus(cfg["paths.reference"], out_dir, vocab)
    if len(ref_corpus) != 1:
        raise DataError(f"{cfg['paths.reference']}: a rediscover reference must hold exactly "
                        f"one recipe, found {len(ref_corpus)}")
    reference = ref_corpus.grams[0]
    outcome = discovery.rediscover(mask_model, qty_model, reference,
                                   int(cfg["rediscover.budget"]), int(cfg["run.seed"]),
                                   chunk_size=int(cfg["rediscover.chunk_size"]))
    verified = bool(outcome.found and scoring.sds(outcome.recipe, reference) == 0)
    payload = {
        "rule": "rediscover",
        "found": outcome.found,
        "index": outcome.index,
        "draws": outcome.draws,
        "verified_sds_zero": verified,
        "budget": int(cfg["rediscover.budget"]),
        "ingredients": ([{"id": i, "grams": g} for i, g in vocab.items(outcome.recipe)]
                        if outcome.found else None),
        "source": {"seed": int(cfg["run.seed"]), "mask_model_fingerprint": mfp,
                   "quantity_model_fingerprint": qfp},
    }
    _write_json(out_dir / "selections" / "rediscover.json", payload, chash)
    _write_csv(out_dir / "reports" / "rediscover.csv", ["found", "index", "draws"],
               [[outcome.found, outcome.index, outcome.draws]], chash)
    print(f"rediscover: found={outcome.found} index={outcome.index} draws={outcome.draws}")
    return 0


def cmd_discover(cfg: dict, out_dir: Path, chash: str) -> int:
    batch, vocab, source = _get_batch(cfg, out_dir)
    loaded = _load_corpus(cfg["paths.corpus"], out_dir, vocab)
    result = discovery.discover_novel(batch, loaded, int(cfg["select.min_sds"]))
    if cfg["paths.impact_table"]:
        result.env_score = float(scoring.env_impact_scores(result.selected,
                                                           _load_impact(cfg, vocab))[0])
    if cfg["paths.nutrient_table"]:
        result.hei_total = float(scoring.hei_totals(result.selected, _load_nutrients(cfg, vocab),
                                                    _load_standards(cfg))[0])
    _write_json(out_dir / "selections" / "discover.json",
                {**result.to_dict(vocab), "source": source}, chash)
    rows = _group_table(batch, lambda reps: discovery.novelty_many(reps, loaded))
    _write_csv(out_dir / "reports" / "discover_groups.csv",
               ["group_index", "count", "popularity", "novelty_sds"], rows, chash)
    print(f"discover: group count {result.group_count}, novelty {result.novelty_sds}")
    return 0


def cmd_select_sustainable(cfg: dict, out_dir: Path, chash: str) -> int:
    batch, vocab, source = _get_batch(cfg, out_dir)
    table = _load_impact(cfg, vocab)
    required = set(cfg["select.required"]) or None
    result = discovery.select_sustainable(batch, table, required)
    if cfg["paths.corpus"]:
        result.novelty_sds = discovery.novelty(result.selected,
                                               _load_corpus(cfg["paths.corpus"], out_dir, vocab))
    _write_json(out_dir / "selections" / "select_sustainable.json",
                {**result.to_dict(vocab), "source": source}, chash)
    rows = _group_table(batch, lambda reps: scoring.env_impact_scores(reps, table))
    _write_csv(out_dir / "reports" / "sustainable_groups.csv",
               ["group_index", "count", "popularity", "env_score"], rows, chash)
    print(f"select-sustainable: env score {result.env_score:.4f}, group count {result.group_count}")
    return 0


def cmd_select_nutritious(cfg: dict, out_dir: Path, chash: str) -> int:
    batch, vocab, source = _get_batch(cfg, out_dir)
    table = _load_nutrients(cfg, vocab)
    standards = _load_standards(cfg)
    result = discovery.select_nutritious(batch, table, float(cfg["select.top_fraction"]), standards)
    if cfg["paths.corpus"]:
        result.novelty_sds = discovery.novelty(result.selected,
                                               _load_corpus(cfg["paths.corpus"], out_dir, vocab))
    _write_json(out_dir / "selections" / "select_nutritious.json",
                {**result.to_dict(vocab), "source": source}, chash)
    rows = _group_table(batch, lambda reps: scoring.hei_totals(reps, table, standards))
    _write_csv(out_dir / "reports" / "nutritious_groups.csv",
               ["group_index", "count", "popularity", "hei_total"], rows, chash)
    print(f"select-nutritious: HEI {result.hei_total:.2f}, group count {result.group_count}")
    return 0


def cmd_personalize(cfg: dict, out_dir: Path, chash: str) -> int:
    batch, vocab, source = _get_batch(cfg, out_dir)
    table = _load_nutrients(cfg, vocab)
    profile = scoring.PersonProfile(age=float(cfg["profile.age"]), sex=str(cfg["profile.sex"]),
                                    height_cm=float(cfg["profile.height_cm"]),
                                    weight_kg=float(cfg["profile.weight_kg"]),
                                    activity=str(cfg["profile.activity"]))
    result = discovery.select_personalized(batch, profile, table,
                                           float(cfg["select.top_fraction"]),
                                           float(cfg["select.meal_fraction"]))
    payload = {**result.to_dict(vocab), "source": source}
    payload["profile"] = {"age": profile.age, "sex": profile.sex,
                          "height_cm": profile.height_cm, "weight_kg": profile.weight_kg,
                          "activity": profile.activity,
                          "energy_requirement_kcal": scoring.energy_requirement(profile)}
    _write_json(out_dir / "selections" / "personalize.json", payload, chash)
    rows = _group_table(batch, lambda reps: scoring.personalized_scores(
        reps, profile, table, float(cfg["select.meal_fraction"])))
    _write_csv(out_dir / "reports" / "personalize_groups.csv",
               ["group_index", "count", "popularity", "personalized_score"], rows, chash)
    print(f"personalize: group count {result.group_count}")
    return 0


def cmd_validate(cfg: dict, out_dir: Path, chash: str) -> int:
    mask_model, qty_model, mfp, qfp = _load_models(cfg, out_dir)
    loaded = _load_corpus(cfg["paths.corpus"], out_dir)
    _check_vocab(loaded.vocabulary, mask_model, qty_model)
    report = fidelity.fidelity_report(mask_model, qty_model, loaded,
                                      int(cfg["fidelity.sample_count"]), int(cfg["run.seed"]),
                                      top_k=int(cfg["fidelity.top_k"]),
                                      threads=int(cfg["run.threads"]))
    payload = report.to_dict()
    payload["mask_model_fingerprint"] = mfp
    payload["quantity_model_fingerprint"] = qfp
    _write_json(out_dir / "reports" / "fidelity.json", payload, chash)
    ids = loaded.vocabulary.ids
    _write_csv(out_dir / "reports" / "marginals.csv",
               ["ingredient_id", "corpus_marginal", "sample_marginal"],
               [[ids[i], report.corpus_marginals[i], report.sample_marginals[i]]
                for i in range(len(ids))], chash)
    _write_csv(out_dir / "reports" / "correlations.csv",
               ["ingredient_a", "ingredient_b", "corpus_corr", "sample_corr", "difference"],
               [[p.id_a, p.id_b, p.corpus_corr, p.sample_corr, p.difference]
                for p in report.top_pairs], chash)
    _write_csv(out_dir / "reports" / "length_hist.csv",
               ["ingredient_count", "corpus_fraction", "sample_fraction"],
               [[i, report.corpus_length_hist[i], report.sample_length_hist[i]]
                for i in range(len(report.corpus_length_hist))], chash)
    mae = report.quantity_mae_grams
    print(f"fidelity: max marginal err {report.max_marginal_error:.4f}, "
          f"quantity MAE {'n/a' if mae is None else f'{mae:.1f} g'}, "
          f"length TV {report.length_total_variation:.4f}")
    return 0


def cmd_landscape(cfg: dict, out_dir: Path, chash: str) -> int:
    batch, vocab, _ = _get_batch(cfg, out_dir)
    loaded = _load_corpus(cfg["paths.corpus"], out_dir, vocab)
    rows = discovery.landscape_map(batch, _load_impact(cfg, vocab),
                                   _load_nutrients(cfg, vocab), loaded, _load_standards(cfg))
    _write_csv(out_dir / "reports" / "landscape.csv",
               ["group_index", "count", "popularity", "env_score", "hei_total", "novelty_sds"],
               [[r.group_index, r.count, r.popularity, r.env_score, r.hei_total, r.novelty_sds]
                for r in rows], chash)
    _write_json(out_dir / "reports" / "landscape.meta.json",
                {"groups": len(rows), "samples": len(batch)}, chash)
    print(f"landscape: {len(rows)} groups over {len(batch)} samples")
    return 0


_HANDLERS = {
    "ingest": cmd_ingest,
    "synth": cmd_synth,
    "train-mask": cmd_train_mask,
    "train-quantity": cmd_train_quantity,
    "sample": cmd_sample,
    "rediscover": cmd_rediscover,
    "discover": cmd_discover,
    "select-sustainable": cmd_select_sustainable,
    "select-nutritious": cmd_select_nutritious,
    "personalize": cmd_personalize,
    "validate": cmd_validate,
    "landscape": cmd_landscape,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        cfg = _resolve(args)
        out_dir, chash = _prepare_run_dir(args, cfg)
        with one_blas_thread():
            return _HANDLERS[str(args.command)](cfg, out_dir, chash)
    except NumericError as e:
        print(f"recipeforge: numeric failure: {e}", file=sys.stderr)
        return 3
    except (DataError, ValueError, OSError) as e:
        print(f"recipeforge: data error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
