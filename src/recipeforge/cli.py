"""Command-line entry point wiring all pipelines.

Subcommands: ingest, synth, train-mask, train-quantity, sample,
rediscover, discover, select-sustainable, select-nutritious, personalize,
validate, landscape. Every run writes its outputs under a run directory
(config.resolved, checkpoints/, samples/, reports/, selections/) and
every output embeds the hash of the resolved configuration that produced
it; JSON-lines sample and corpus files carry the hash in a sidecar
.meta.json so the record schema stays pure.

A command builds the parser of its own subcommand only; --help, no
command and an unknown one build all twelve. Help texts and usage errors
are the same bytes either way.

Each flag other than --config, --set and --out-dir is shorthand for
`--set <key>=VALUE`: its argparse dest is that config key, which --help
shows as its metavar. Precedence, lowest first: defaults < --config <
RECIPEFORGE_THREADS (run.threads) < flags < --set.

<out-dir>/cache/ holds parsed copies of the corpus, sample and reference
files the commands read, so that commands sharing a run directory parse
each file once. An entry is keyed by the sha256 of the file's bytes and
the vocabulary, so it is never read for different bytes. Entries are never
evicted, so the directory only grows; deleting it is always safe.

Commands run with numpy's OpenBLAS on one thread (restored afterwards),
so the processes that --threads sets are the only parallelism: the
sampling workers, and in train-mask and train-quantity a producer that
prepares the training steps' draws and inputs ahead of their updates.

Row i of a seed's sample stream is the same draw in sample, sample
--mask-from, validate and rediscover at any count; sample.chunk_size and
rediscover.chunk_size set the rows computed at once, never an output.

Exit codes: 0 success, 1 usage error, 2 data error (a DataError or an
OSError), 3 numeric failure. Any other exception, a ValueError included,
is a programming error and surfaces as a traceback (exit 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import discovery, fidelity, mask_diffusion, quantity_diffusion, scoring
from .config import (config_hash, parse_config_file, parse_value, render_config,
                     resolve_config)
from .errors import DataError, NumericError
from .netcore import TrainConfig, one_blas_thread


def _flag(p: argparse.ArgumentParser, flag: str, key: str, **kw) -> None:
    """Add flag as shorthand for --set key=VALUE."""
    p.add_argument(flag, dest=key, metavar=key, **kw)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat dotted-key config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a single config key (repeatable)")
    p.add_argument("--out-dir", default=None,
                   help="run directory (default runs/<command>); its cache/ holds parsed copies "
                        "of input corpora, keyed by file content (never read for other bytes); "
                        "entries are never evicted, and deleting cache/ is always safe")
    _flag(p, "--seed", "run.seed", type=int)
    _flag(p, "--threads", "run.threads", type=int,
          help="sampling worker processes, at most the usable cores; from 2, training "
               "prepares its steps in a forked producer (env RECIPEFORGE_THREADS as fallback)")


_CHUNK_HELP = "rows sampled at once per worker; sets the compute window only, never the samples"


def _add_models(p: argparse.ArgumentParser) -> None:
    _flag(p, "--mask-model", "paths.mask_model")
    _flag(p, "--quantity-model", "paths.quantity_model")
    _flag(p, "--vocabulary", "paths.vocabulary")


def _add_batch_source(p: argparse.ArgumentParser) -> None:
    _add_models(p)
    _flag(p, "--samples", "paths.samples", help="previously generated samples JSONL")
    _flag(p, "--count", "sample.count", type=int, help="samples to generate when no file given")
    _flag(p, "--chunk-size", "sample.chunk_size", type=int, help=_CHUNK_HELP)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or only of command when one is named: its help,
    its parse and its usage errors are then the same bytes as the full parser's."""
    parser = argparse.ArgumentParser(prog="recipeforge",
                                     description="generative recipe design pipelines")
    # a usage line lists every command; the full parser leaves that to argparse, so that
    # its error for a missing command keeps naming it "command"
    every = "{" + ",".join(_HANDLERS) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=None if command is None else every)

    def add(name: str, help: str) -> argparse.ArgumentParser | None:
        return sub.add_parser(name, help=help) if command in (None, name) else None

    if p := add("ingest", "validate and canonicalize a corpus file"):
        _flag(p, "--input", "paths.corpus", required=True, help="corpus JSONL to ingest")
        _flag(p, "--vocabulary", "paths.vocabulary", help="existing vocabulary to enforce")

    if p := add("synth", "synthesize a corpus from a generative spec"):
        _flag(p, "--spec", "paths.spec", required=True)
        _flag(p, "--out", "paths.out", help="corpus output path (default <out-dir>/corpus.jsonl)")
        _flag(p, "--count", "synth.count_override", type=int, help="override the spec recipe count")

    for name, what in (("train-mask", "ingredient-selection"),
                       ("train-quantity", "ingredient-quantity")):
        if p := add(name, f"train the {what} model"):
            _flag(p, "--corpus", "paths.corpus", required=True)

    if p := add("sample", "generate recipes (or weights for given masks)"):
        _add_models(p)
        _flag(p, "--count", "sample.count", type=int)
        _flag(p, "--chunk-size", "sample.chunk_size", type=int, help=_CHUNK_HELP)
        _flag(p, "--steps", "sde.steps", type=int, help="reverse SDE integration steps")
        _flag(p, "--mask-from", "paths.samples",
              help="JSONL of recipes whose masks get fresh conditional weights")

    if p := add("rediscover", "search the sample stream for a reference recipe"):
        _add_models(p)
        _flag(p, "--reference", "paths.reference", required=True,
              help="JSONL file holding the one target recipe")
        _flag(p, "--budget", "rediscover.budget", type=int)
        _flag(p, "--steps", "sde.steps", type=int)

    if p := add("discover", "most repeated sample above a novelty floor"):
        _add_batch_source(p)
        _flag(p, "--corpus", "paths.corpus", required=True)
        _flag(p, "--min-sds", "select.min_sds", type=int)
        _flag(p, "--impact-table", "paths.impact_table")
        _flag(p, "--impact-norms", "paths.impact_norms")
        _flag(p, "--nutrient-table", "paths.nutrient_table")
        _flag(p, "--hei-standards", "paths.hei_standards")

    if p := add("select-sustainable", "most repeated sample in the lowest-impact decile"):
        _add_batch_source(p)
        _flag(p, "--impact-table", "paths.impact_table", required=True)
        _flag(p, "--impact-norms", "paths.impact_norms")
        _flag(p, "--require", "select.required", action="append",
              help="ingredient id the selection must contain (repeatable)")
        _flag(p, "--corpus", "paths.corpus", help="corpus for novelty annotation")

    if p := add("select-nutritious", "most repeated sample in the top HEI fraction"):
        _add_batch_source(p)
        _flag(p, "--nutrient-table", "paths.nutrient_table", required=True)
        _flag(p, "--hei-standards", "paths.hei_standards")
        _flag(p, "--top", "select.top_fraction", type=float)
        _flag(p, "--corpus", "paths.corpus")

    if p := add("personalize", "most repeated sample in the top personalized fraction"):
        _add_batch_source(p)
        _flag(p, "--nutrient-table", "paths.nutrient_table", required=True)
        _flag(p, "--age", "profile.age", type=float)
        _flag(p, "--sex", "profile.sex", choices=["male", "female"], help="one of %(choices)s")
        _flag(p, "--height", "profile.height_cm", type=float, help="height in cm")
        _flag(p, "--weight", "profile.weight_kg", type=float, help="weight in kg")
        _flag(p, "--activity", "profile.activity", choices=list(scoring.ACTIVITY_LEVELS),
              help="one of %(choices)s")
        _flag(p, "--top", "select.top_fraction", type=float)

    if p := add("validate", "fidelity report against a corpus"):
        _add_models(p)
        _flag(p, "--corpus", "paths.corpus", required=True)
        _flag(p, "--count", "fidelity.sample_count", type=int, help="fidelity sample count")

    if p := add("landscape", "per-group score table over a batch"):
        _add_batch_source(p)
        _flag(p, "--corpus", "paths.corpus", required=True)
        _flag(p, "--impact-table", "paths.impact_table", required=True)
        _flag(p, "--impact-norms", "paths.impact_norms")
        _flag(p, "--nutrient-table", "paths.nutrient_table", required=True)
        _flag(p, "--hei-standards", "paths.hei_standards")

    for p in sub.choices.values():
        _add_common(p)
    return parser


def _resolve(args: argparse.Namespace) -> dict[str, object]:
    """Defaults < --config < RECIPEFORGE_THREADS < flags < --set."""
    file_values = parse_config_file(args.config) if args.config else {}
    overrides: dict[str, object] = {"run.command": args.command}
    if os.environ.get("RECIPEFORGE_THREADS"):
        overrides["run.threads"] = parse_value(os.environ["RECIPEFORGE_THREADS"])
    # a flag's dest is the config key it sets
    overrides.update((k, v) for k, v in vars(args).items() if "." in k and v is not None)
    for item in args.set or []:
        if "=" not in item:
            raise DataError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        overrides[key.strip()] = parse_value(val)
    return resolve_config(file_values, overrides)


def _write_json(path: Path, payload: dict, chash: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"config_hash": chash, **payload}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_csv(path: Path, header: list[str], rows, chash: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# config_hash={chash}", ",".join(header), *(",".join(map(str, r)) for r in rows)]
    path.write_text("\n".join(lines) + "\n")


def _write_groups(path: Path, batch: np.ndarray, columns: dict, chash: str) -> int:
    """The one writer of the five batch commands' group tables; returns the group count. A row
    per SDS-0 group of the batch: its count, its share of the batch, then per named column the
    score that column's function, given all founders' rows, gives the group's founder."""
    groups = scoring.group_recipes(batch)
    counts, founders = [g.count for g in groups], [g.founder_index for g in groups]
    scores = [score_of(founders).tolist() for score_of in columns.values()]
    _write_csv(path, ["group_index", "count", "popularity", *columns],
               zip(range(len(groups)), counts, [c / len(batch) for c in counts], *scores), chash)
    return len(groups)


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


def _load_models(cfg: dict, out_dir: Path, vocab=None):
    """Both checkpoints, the vocabulary they were checked against (the run's
    vocabulary file unless vocab, read from paths.corpus, is given) and their fingerprints."""
    paths = [Path(cfg[f"paths.{m}_model"] or out_dir / "checkpoints" / f"{m}_model.json")
             for m in ("mask", "quantity")]
    mask_model = mask_diffusion.load_mask_model(paths[0])
    qty_model = quantity_diffusion.load_quantity_model(paths[1])
    qty_model.sde = replace(qty_model.sde, steps=cfg["sde.steps"])
    source = cfg["paths.corpus"] if vocab else cfg["paths.vocabulary"] or out_dir / "vocabulary.json"
    vocab = vocab or _load_vocabulary(cfg, out_dir)
    for m, p in zip((mask_model, qty_model), paths):
        if m.vocab_fingerprint != vocab.fingerprint():
            raise DataError(f"{p}: model/vocabulary mismatch: checkpoint was trained on a "
                            f"different ingredient vocabulary than {source}")
        if m.K != vocab.K:
            raise DataError(f"{p}: field K is {m.K}, expected {vocab.K}, the size of {source}")
    fingerprints = {"mask_model_fingerprint": _file_fingerprint(paths[0]),
                    "quantity_model_fingerprint": _file_fingerprint(paths[1])}
    return mask_model, qty_model, vocab, fingerprints


def _generate(cfg: dict, mask_model, qty_model) -> np.ndarray:
    return discovery.generate_batch(mask_model, qty_model, cfg["sample.count"], cfg["run.seed"],
                                    chunk_size=cfg["sample.chunk_size"], threads=cfg["run.threads"])


def _get_batch(cfg: dict, out_dir: Path) -> tuple[np.ndarray, corpus_mod.IngredientVocabulary, dict]:
    """The batch's (n, K) grams matrix, its vocabulary and its provenance:
    the seed and the checkpoint fingerprints ("" for a samples file); DataError if it is empty."""
    if cfg["paths.samples"]:
        vocab = _load_vocabulary(cfg, out_dir)
        batch = _load_corpus(cfg["paths.samples"], out_dir, vocab).grams
        fingerprints = {"mask_model_fingerprint": "", "quantity_model_fingerprint": ""}
    else:
        mask_model, qty_model, vocab, fingerprints = _load_models(cfg, out_dir)
        batch = _generate(cfg, mask_model, qty_model)
    if len(batch) == 0:
        raise DataError("batch is empty")
    return batch, vocab, {"seed": cfg["run.seed"], **fingerprints}


def _profile(cfg: dict) -> scoring.PersonProfile:
    # the profile.* keys are PersonProfile's fields
    return scoring.PersonProfile(**{k.rpartition(".")[2]: v for k, v in cfg.items()
                                    if k.startswith("profile.")})


# reported score: the config key of its input file
_INPUTS = {"novelty_sds": "paths.corpus", "env_score": "paths.impact_table",
           "hei_total": "paths.nutrient_table"}


def _scorer(cfg: dict, out_dir: Path, vocab, name: str):
    """The score called name as a function of grams rows, with its input files loaded now.

    Commands call a scorer on the rows they always scored: a ranking on the batch, or on
    the rows holding the required ingredients; an annotation on the pick's (K,) row alone;
    a group table on batch[founders]. The float scores round differently with the rows
    scored beside a row and its place among them (hei_totals of a founder alone, within
    batch[founders] and within the batch can differ in the last digit), so scoring other
    rows, say one batch-wide vector for all three uses, would move report bytes.
    """
    if name == "novelty_sds":
        corpus = _load_corpus(cfg["paths.corpus"], out_dir, vocab)
        # a pick's (K,) row goes through novelty, rows through novelty_many
        return lambda grams: (discovery.novelty(grams, corpus) if grams.ndim == 1
                              else discovery.novelty_many(grams, corpus))
    if name == "env_score":
        impact = scoring.load_impact_table(cfg["paths.impact_table"], vocab,
                                           cfg["paths.impact_norms"] or None)
        return lambda grams: scoring.env_impact_scores(grams, impact)
    table = scoring.load_nutrient_table(cfg["paths.nutrient_table"], vocab)
    if name == "hei_total":
        standards = scoring.load_hei_standards(cfg["paths.hei_standards"] or None)
        return lambda grams: scoring.hei_totals(grams, table, standards)
    profile, meal = _profile(cfg), cfg["select.meal_fraction"]
    return lambda grams: scoring.personalized_scores(grams, profile, table, meal)


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_ingest(cfg: dict, out_dir: Path, chash: str) -> int:
    vocab = corpus_mod.load_vocabulary(cfg["paths.vocabulary"]) if cfg["paths.vocabulary"] else None
    loaded = _load_corpus(cfg["paths.corpus"], out_dir, vocab)
    corpus_mod.write_corpus(out_dir / "corpus.jsonl", loaded)
    corpus_mod.write_vocabulary(out_dir / "vocabulary.json", loaded.vocabulary)
    _write_json(out_dir / "corpus.meta.json",
                {"recipes": len(loaded), "ingredients": loaded.vocabulary.K,
                 "source": cfg["paths.corpus"]}, chash)
    print(f"ingested {len(loaded)} recipes over {loaded.vocabulary.K} ingredients")
    return 0


def cmd_synth(cfg: dict, out_dir: Path, chash: str) -> int:
    spec = corpus_mod.load_synth_spec(cfg["paths.spec"])
    if cfg["synth.count_override"] > 0:
        spec.count = cfg["synth.count_override"]
    try:
        made = corpus_mod.synthesize_corpus(spec, cfg["run.seed"],
                                            val_fraction=cfg["corpus.val_fraction"])
    except DataError as e:
        raise DataError(f"{cfg['paths.spec']}: {e}") from None
    out = Path(cfg["paths.out"]) if cfg["paths.out"] else out_dir / "corpus.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    corpus_mod.write_corpus(out, made)
    corpus_mod.write_vocabulary(out_dir / "vocabulary.json", made.vocabulary)
    _write_json(out.with_suffix(out.suffix + ".meta.json"),
                {"recipes": len(made), "ingredients": made.vocabulary.K,
                 "seed": cfg["run.seed"]}, chash)
    print(f"synthesized {len(made)} recipes -> {out}")
    return 0


def cmd_train(cfg: dict, out_dir: Path, chash: str) -> int:
    """train-mask or train-quantity: corpus -> model -> checkpoint, vocabulary and history."""
    name = cfg["run.command"].removeprefix("train-")
    loaded = _load_corpus(cfg["paths.corpus"], out_dir)
    # the train.<name>.* keys are TrainConfig's fields and the sde.* keys SDESpec's
    fields = {k.rpartition(".")[2]: v for k, v in cfg.items() if k.startswith(f"train.{name}.")}
    config, seed = TrainConfig(**fields), cfg["run.seed"]
    if name == "mask":
        schedule = mask_diffusion.linear_schedule(cfg["schedule.T"], cfg["schedule.beta_start"],
                                                  cfg["schedule.beta_end"])
        model = mask_diffusion.train_mask_model(loaded, schedule, config, seed,
                                                cfg["run.threads"])
        save, loss, summary = mask_diffusion.save_mask_model, "val_neg_elbo", "val -ELBO {:.2f} -> {:.2f}"
    else:
        sde = quantity_diffusion.SDESpec(**{k[4:]: v for k, v in cfg.items() if k.startswith("sde.")})
        model = quantity_diffusion.train_quantity_model(loaded, sde, config, seed,
                                                        cfg["run.threads"])
        save, loss, summary = quantity_diffusion.save_quantity_model, "val_dsm", "val DSM {:.3f} -> {:.3f}"
    path = out_dir / "checkpoints" / f"{name}_model.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    save(path, model, seed_lineage=[seed])
    corpus_mod.write_vocabulary(out_dir / "vocabulary.json", loaded.vocabulary)
    _write_json(out_dir / "reports" / f"train_{name}.json",
                {"fingerprint": _file_fingerprint(path),
                 "history": [{"step": s, loss: v} for s, v in model.history]}, chash)
    print(f"trained {name} model -> {path} "
          f"({summary.format(model.history[0][1], model.history[-1][1])})")
    return 0


def cmd_sample(cfg: dict, out_dir: Path, chash: str) -> int:
    mask_model, qty_model, vocab, fingerprints = _load_models(cfg, out_dir)
    if cfg["paths.samples"]:  # --mask-from: conditional weights only
        masks = (_load_corpus(cfg["paths.samples"], out_dir, vocab).grams > 0).astype(np.uint8)
        grams = quantity_diffusion.reverse_sample_batch(
            qty_model, masks, cfg["run.seed"], chunk_size=cfg["sample.chunk_size"],
            threads=cfg["run.threads"])
        mode = "conditional"
    else:
        grams, mode = _generate(cfg, mask_model, qty_model), "joint"
    made = corpus_mod.Corpus(vocabulary=vocab, grams=grams, splits=[corpus_mod.TRAIN] * len(grams))
    sample_dir = out_dir / "samples"
    sample_dir.mkdir(parents=True, exist_ok=True)
    corpus_mod.write_corpus(sample_dir / "samples.jsonl", made, include_split=False)
    _write_json(sample_dir / "samples.meta.json",
                {"count": len(made), "seed": cfg["run.seed"], "mode": mode, **fingerprints},
                chash)
    print(f"sampled {len(made)} recipes -> {sample_dir / 'samples.jsonl'}")
    return 0


def cmd_rediscover(cfg: dict, out_dir: Path, chash: str) -> int:
    mask_model, qty_model, vocab, fingerprints = _load_models(cfg, out_dir)
    ref_corpus = _load_corpus(cfg["paths.reference"], out_dir, vocab)
    if len(ref_corpus) != 1:
        raise DataError(f"{cfg['paths.reference']}: a rediscover reference must hold exactly "
                        f"one recipe, found {len(ref_corpus)}")
    reference = ref_corpus.grams[0]
    outcome = discovery.rediscover(mask_model, qty_model, reference, cfg["rediscover.budget"],
                                   cfg["run.seed"], chunk_size=cfg["rediscover.chunk_size"])
    verified = bool(outcome.found and scoring.sds(outcome.recipe, reference) == 0)
    payload = {
        "rule": "rediscover",
        "found": outcome.found,
        "index": outcome.index,
        "draws": outcome.draws,
        "verified_sds_zero": verified,
        "budget": cfg["rediscover.budget"],
        "ingredients": ([{"id": i, "grams": g} for i, g in vocab.items(outcome.recipe)]
                        if outcome.found else None),
        "source": {"seed": cfg["run.seed"], **fingerprints},
    }
    _write_json(out_dir / "selections" / "rediscover.json", payload, chash)
    _write_csv(out_dir / "reports" / "rediscover.csv", ["found", "index", "draws"],
               [[outcome.found, outcome.index, outcome.draws]], chash)
    print(f"rediscover: found={outcome.found} index={outcome.index} draws={outcome.draws}")
    return 0


# command: (the score it ranks by, the scores its selection JSON reports when their input
# file is set, summary printed with the result as r)
_SELECTIONS = {
    "discover": ("novelty_sds", ("env_score", "hei_total"),
                 "group count {r.group_count}, novelty {r.novelty_sds}"),
    "select-sustainable": ("env_score", ("env_score", "novelty_sds"),
                           "env score {r.env_score:.4f}, group count {r.group_count}"),
    "select-nutritious": ("hei_total", ("hei_total", "novelty_sds"),
                          "HEI {r.hei_total:.2f}, group count {r.group_count}"),
    "personalize": ("personalized_score", (), "group count {r.group_count}"),
}


def cmd_select(cfg: dict, out_dir: Path, chash: str) -> int:
    """A selection command: load the batch and the input of the score it ranks by, rank and
    pick a group, fill the pick's reported scores whose input file is set, then write the
    selection JSON and the group table of the ranking score (discover's reads its novelty
    vector)."""
    command, top, extra = cfg["run.command"], cfg["select.top_fraction"], {}
    name, reported, summary = _SELECTIONS[command]
    batch, vocab, source = _get_batch(cfg, out_dir)
    score = _scorer(cfg, out_dir, vocab, name)
    if command == "discover":
        nov = score(batch)
        result = discovery.discover_novel(batch, nov, cfg["select.min_sds"])
    elif command == "select-sustainable":
        required = set(cfg["select.required"])
        rows = discovery.rows_with(batch, vocab, required)
        rule = "select_sustainable" + (f"(require={sorted(required)})" if required else "")
        result = discovery.select_top(batch, -score(batch[rows]), 0.1, rule, rows)
    elif command == "select-nutritious":
        result = discovery.select_top(batch, score(batch), top, f"select_nutritious(top={top})")
    else:
        profile = _profile(cfg)
        result = discovery.select_top(batch, score(batch), top, f"select_personalized(top={top}, "
                                      f"age={profile.age}, sex={profile.sex})")
        extra = {"profile": {**asdict(profile),
                             "energy_requirement_kcal": scoring.energy_requirement(profile)}}
    for field in reported:
        if cfg[_INPUTS[field]]:
            score_of = score if field == name else _scorer(cfg, out_dir, vocab, field)
            setattr(result, field, np.asarray(score_of(result.selected)).item())
    _write_json(out_dir / "selections" / f"{command.replace('-', '_')}.json",
                {**result.to_dict(vocab), "source": source, **extra}, chash)
    column = nov.__getitem__ if command == "discover" else lambda rows: score(batch[rows])
    _write_groups(out_dir / "reports" / f"{command.removeprefix('select-')}_groups.csv", batch,
                  {name: column}, chash)
    print(f"{command}: {summary.format(r=result)}")
    return 0


def cmd_validate(cfg: dict, out_dir: Path, chash: str) -> int:
    loaded = _load_corpus(cfg["paths.corpus"], out_dir)
    mask_model, qty_model, _, fingerprints = _load_models(cfg, out_dir, loaded.vocabulary)
    report = fidelity.fidelity_report(mask_model, qty_model, loaded, cfg["fidelity.sample_count"],
                                      cfg["run.seed"], top_k=cfg["fidelity.top_k"],
                                      threads=cfg["run.threads"])
    _write_json(out_dir / "reports" / "fidelity.json", {**report.to_dict(), **fingerprints}, chash)
    _write_csv(out_dir / "reports" / "marginals.csv",
               ["ingredient_id", "corpus_marginal", "sample_marginal"],
               zip(loaded.vocabulary.ids, report.corpus_marginals.tolist(),
                   report.sample_marginals.tolist()), chash)
    _write_csv(out_dir / "reports" / "correlations.csv",
               ["ingredient_a", "ingredient_b", "corpus_corr", "sample_corr", "difference"],
               [[p.id_a, p.id_b, p.corpus_corr, p.sample_corr, p.difference]
                for p in report.top_pairs], chash)
    _write_csv(out_dir / "reports" / "length_hist.csv",
               ["ingredient_count", "corpus_fraction", "sample_fraction"],
               zip(range(len(report.corpus_length_hist)), report.corpus_length_hist.tolist(),
                   report.sample_length_hist.tolist()), chash)
    mae, recall = report.quantity_mae_grams, report.mode_recall
    print(f"fidelity: max marginal err {report.max_marginal_error:.4f}, "
          f"quantity MAE {'n/a' if mae is None else f'{mae:.1f} g'}, "
          f"length TV {report.length_total_variation:.4f}, "
          f"mode recall {'n/a' if recall is None else f'{recall:.3f}'}")
    return 0


def cmd_landscape(cfg: dict, out_dir: Path, chash: str) -> int:
    batch, vocab, _ = _get_batch(cfg, out_dir)
    novelty, env, hei = (_scorer(cfg, out_dir, vocab, name)
                         for name in ("novelty_sds", "env_score", "hei_total"))
    groups = _write_groups(out_dir / "reports" / "landscape.csv", batch, {
        "env_score": lambda rows: env(batch[rows]), "hei_total": lambda rows: hei(batch[rows]),
        "novelty_sds": lambda rows: novelty(batch[rows])}, chash)
    _write_json(out_dir / "reports" / "landscape.meta.json",
                {"groups": groups, "samples": len(batch)}, chash)
    print(f"landscape: {groups} groups over {len(batch)} samples")
    return 0


_HANDLERS = {
    "ingest": cmd_ingest,
    "synth": cmd_synth,
    "train-mask": cmd_train,
    "train-quantity": cmd_train,
    "sample": cmd_sample,
    "rediscover": cmd_rediscover,
    **dict.fromkeys(_SELECTIONS, cmd_select),
    "validate": cmd_validate,
    "landscape": cmd_landscape,
}


def run(argv: list[str]) -> int:
    parser = build_parser(argv[0] if argv and argv[0] in _HANDLERS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        cfg = _resolve(args)
        out_dir = Path(args.out_dir) if args.out_dir else Path("runs") / str(args.command)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.resolved").write_text(render_config(cfg))
        with one_blas_thread():
            return _HANDLERS[str(args.command)](cfg, out_dir, config_hash(cfg))
    except NumericError as e:
        print(f"recipeforge: numeric failure: {e}", file=sys.stderr)
        return 3
    except (DataError, OSError) as e:
        print(f"recipeforge: data error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
