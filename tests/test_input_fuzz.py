"""Structural fuzz of every input file the CLI reads.

Each case replaces one JSON value, CSV cell or config value with a wrong
type, a boolean, an int too large for a float, NaN or an empty value, or
drops it (a key, a list entry, a cell, a row or a line), at fixed seeds.
A command that reads the mutated file must then exit 0, or exit 2 with a
message that names the file or the config key; any other outcome, an
escaped exception included, fails.
"""

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

import recipeforge
from recipeforge import cli
from recipeforge import mask_diffusion as md
from recipeforge import quantity_diffusion as qd
from recipeforge.corpus import load_vocabulary
from helpers import random_models

DESK = Path(recipeforge.__file__).parent / "data" / "desk"
HEI = Path(recipeforge.__file__).parent / "data" / "hei2015_standards.csv"
HUGE = 10 ** 400
NAN = float("nan")
KINDS = ("abc", True, HUGE, NAN, "empty", "drop")
CASES_PER_INPUT = 8


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A tiny trained run: corpus, vocabulary, both checkpoints, samples and a reference."""
    root = tmp_path_factory.mktemp("fuzz")
    small = ["--set", "schedule.T=4", "--set", "sde.steps=4"]
    for model in ("mask", "quantity"):
        small += ["--set", f"train.{model}.steps=10", "--set", f"train.{model}.val_interval=10",
                  "--set", f"train.{model}.hidden_width=4", "--set", f"train.{model}.hidden_depth=1"]
    assert cli.run(["synth", "--spec", str(DESK / "synth_spec.json"), "--count", "40",
                    "--seed", "1", "--out-dir", str(root)]) == 0
    for command in ("train-mask", "train-quantity"):
        assert cli.run([command, "--corpus", str(root / "corpus.jsonl"), "--out-dir", str(root),
                        *small]) == 0
    assert cli.run(["sample", "--count", "12", "--out-dir", str(root), *small]) == 0
    samples = root / "samples" / "samples.jsonl"
    (root / "reference.jsonl").write_text(samples.read_text().splitlines()[0] + "\n")
    return root


def _nodes(doc, path=()):
    """Paths to the nodes under doc; a list contributes its first and last entries."""
    if isinstance(doc, dict):
        children = list(doc.items())
    elif isinstance(doc, list):
        children = [(i, doc[i]) for i in sorted({0, len(doc) - 1})] if doc else []
    else:
        children = []
    for key, child in children:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _mutate_json(doc, rng) -> str:
    """Apply one random mutation to a node of doc in place; describes it."""
    paths = list(_nodes(doc))
    path = paths[rng.integers(len(paths))]
    kind = KINDS[rng.integers(len(KINDS))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "empty":
        parent[path[-1]] = type(old)() if isinstance(old, (dict, list, str)) else ""
    else:
        parent[path[-1]] = kind
    return f"{kind!r} at {list(path)}"


def _json_file(source: Path):
    return lambda dest, rng: _write_json(json.loads(source.read_text()), dest, rng)


def _write_json(doc, dest: Path, rng) -> str:
    what = _mutate_json(doc, rng)
    dest.write_text(json.dumps(doc))
    return what


def _jsonl_file(source: Path):
    def mutate(dest: Path, rng) -> str:
        records = [json.loads(line) for line in source.read_text().splitlines()]
        what = _mutate_json(records, rng)
        dest.write_text("".join(json.dumps(r) + "\n" for r in records))
        return what
    return mutate


def _csv_file(source: Path):
    def mutate(dest: Path, rng) -> str:
        rows = list(csv.reader(io.StringIO(source.read_text())))
        r = int(rng.integers(len(rows)))
        c = int(rng.integers(len(rows[r])))
        kind = KINDS[rng.integers(len(KINDS))]
        if kind == "drop":
            del rows[r][c]
        else:
            rows[r][c] = {True: "true", HUGE: str(HUGE), "empty": ""}.get(kind, str(kind))
        dest.write_text("".join(",".join(row) + "\n" for row in rows))
        return f"{kind!r} at row {r} column {c}"
    return mutate


PERSONALIZE_CONFIG = ("run.seed = 3\nrun.threads = 1\nselect.top_fraction = 0.2\n"
                      "select.meal_fraction = 0.4\nprofile.age = 40\nprofile.sex = \"female\"\n"
                      "profile.height_cm = 165.0\nprofile.weight_kg = 60.5\n"
                      "profile.activity = \"active\"\n")


def _config_file(dest: Path, rng) -> str:
    lines = PERSONALIZE_CONFIG.splitlines()
    i = int(rng.integers(len(lines)))
    kind = KINDS[rng.integers(len(KINDS))]
    key = lines[i].partition("=")[0].strip()
    if kind == "drop":
        del lines[i]
    else:
        value = {True: "true", HUGE: str(HUGE), NAN: "NaN", "empty": ""}.get(kind, kind)
        lines[i] = f"{key} = {value}"
    dest.write_text("\n".join(lines) + "\n")
    return f"{kind!r} at {key}"


def _commands(run: Path, bad: Path) -> dict:
    """input kind: (mutator, command reading the mutated file at bad)."""
    models = ["--mask-model", str(run / "checkpoints" / "mask_model.json"),
              "--quantity-model", str(run / "checkpoints" / "quantity_model.json"),
              "--vocabulary", str(run / "vocabulary.json"), "--set", "sde.steps=4"]
    samples = ["--samples", str(run / "samples" / "samples.jsonl"),
               "--vocabulary", str(run / "vocabulary.json")]
    nutrients = ["--nutrient-table", str(DESK / "nutrient_table.csv")]
    impact = ["--impact-table", str(DESK / "impact_table.csv")]
    train = ["--set", "train.mask.steps=2", "--set", "train.mask.hidden_width=4",
             "--set", "schedule.T=4"]
    corpus = _jsonl_file(run / "corpus.jsonl")
    return {
        "mask_model": (_json_file(run / "checkpoints" / "mask_model.json"),
                       ["sample", "--count", "4", *models, "--mask-model", str(bad)]),
        "quantity_model": (_json_file(run / "checkpoints" / "quantity_model.json"),
                           ["sample", "--count", "4", *models, "--quantity-model", str(bad)]),
        "vocabulary": (_json_file(run / "vocabulary.json"),
                       ["sample", "--count", "4", *models, "--vocabulary", str(bad)]),
        "synth_spec": (_json_file(DESK / "synth_spec.json"),
                       ["synth", "--spec", str(bad), "--count", "20"]),
        "corpus_ingest": (corpus, ["ingest", "--input", str(bad)]),
        "corpus_train": (corpus, ["train-mask", "--corpus", str(bad), *train]),
        "corpus_validate": (corpus, ["validate", "--corpus", str(bad), "--count", "8", *models]),
        "samples": (_jsonl_file(run / "samples" / "samples.jsonl"),
                    ["select-sustainable", *impact, *samples, "--samples", str(bad)]),
        "reference": (_jsonl_file(run / "reference.jsonl"),
                      ["rediscover", "--reference", str(bad), "--budget", "4", *models]),
        "impact_table": (_csv_file(DESK / "impact_table.csv"),
                         ["select-sustainable", *samples, "--impact-table", str(bad)]),
        "impact_norms": (_json_file(DESK / "impact_norms.json"),
                         ["select-sustainable", *samples, *impact, "--impact-norms", str(bad)]),
        "nutrient_table": (_csv_file(DESK / "nutrient_table.csv"),
                           ["select-nutritious", *samples, "--nutrient-table", str(bad)]),
        "hei_standards": (_csv_file(HEI),
                          ["select-nutritious", *samples, *nutrients, "--hei-standards", str(bad)]),
        "config": (_config_file, ["personalize", *samples, *nutrients, "--config", str(bad)]),
    }


def run_cli(args: list[str]) -> tuple[int, str]:
    """cli.run's exit code and standard error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.run(args)
    return code, err.getvalue()


INPUTS = ["mask_model", "quantity_model", "vocabulary", "synth_spec", "corpus_ingest",
          "corpus_train", "corpus_validate", "samples", "reference", "impact_table",
          "impact_norms", "nutrient_table", "hei_standards", "config"]


@pytest.mark.parametrize("seed, name", list(enumerate(INPUTS)), ids=INPUTS)
def test_mutated_input_exits_0_or_names_the_file(run, tmp_path, seed, name):
    bad = tmp_path / f"bad_{name}"
    mutate, command = _commands(run, bad)[name]
    rng = np.random.default_rng(seed)
    for _ in range(CASES_PER_INPUT):
        what = mutate(bad, rng)
        code, err = run_cli([*command, "--out-dir", str(tmp_path / "out")])
        assert code in (0, 2), f"{name}, {what}: exit {code}: {err}"
        key = what.rpartition(" at ")[2]
        assert code == 0 or str(bad) in err or name == "config" and key in err, \
            f"{name}, {what}: {err}"


_DROP = object()


def _edit(doc, path, value):
    """Set the node at path in doc to value, or delete it for _DROP."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value is _DROP:
        del doc[last]
    else:
        doc[last] = value


# mutations of a checkpoint that once escaped cli.run as a traceback, failed
# without naming the file, or loaded silently
CHECKPOINT_PROBES = [
    ("mask", ("net", "sizes"), None, "field net.sizes is None"),
    ("mask", ("net", "weights"), None, "field net.weights is None"),
    ("mask", ("net", "weights", 0, 0), HUGE, "field net.weights[0][0] is 1000"),
    ("mask", ("net", "weights", 0, 0), [0.1, 0.2], "field net.weights[0][0] is [0.1, 0.2]"),
    ("mask", ("net", "weights", 0, 0), True, "field net.weights[0][0] is True"),
    ("mask", ("K",), "abc", "field K is 'abc'"),
    ("mask", ("base_logits", 0), True, "field base_logits[0] is True"),
    ("mask", ("base_logits",), _DROP, "field base_logits is missing"),
    ("mask", ("base_logits",), None, "field base_logits is None"),
    ("mask", ("schedule", "beta", 0), _DROP, "field schedule.beta is a list of 3"),
    ("quantity", ("sde", "steps"), [1], "field sde.steps is [1]"),
    ("quantity", ("sde", "t_eps"), 2, "field sde.t_eps is 2"),
    ("quantity", ("sde", "t_eps"), -0.0, "field sde.t_eps is -0.0"),
    ("quantity", ("codec", "log_mean", 0), True, "field codec.log_mean[0] is True"),
]


@pytest.mark.parametrize("model, path, value, message", CHECKPOINT_PROBES,
                         ids=[f"{m}: {message}" for m, _, _, message in CHECKPOINT_PROBES])
def test_checkpoint_probes_are_data_errors_naming_the_file(run, tmp_path, model, path, value,
                                                           message):
    doc = json.loads((run / "checkpoints" / f"{model}_model.json").read_text())
    _edit(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    models = {m: run / "checkpoints" / f"{m}_model.json" for m in ("mask", "quantity")}
    models[model] = bad
    code, err = run_cli(["sample", "--count", "4", "--mask-model", str(models["mask"]),
                         "--quantity-model", str(models["quantity"]),
                         "--vocabulary", str(run / "vocabulary.json"),
                         "--out-dir", str(tmp_path / "out")])
    assert code == 2 and f"{bad}: {message}" in err, err


@pytest.mark.parametrize("command", ["sample", "discover", "rediscover", "validate"])
def test_a_checkpoint_of_another_size_names_field_k(run, tmp_path, command):
    # the fingerprints match the vocabulary, so only K tells the checkpoints are not for it
    vocab = load_vocabulary(run / "vocabulary.json")
    mask, qty = random_models(K=vocab.K + 1)
    mask.vocab_fingerprint = qty.vocab_fingerprint = vocab.fingerprint()
    md.save_mask_model(tmp_path / "mask.json", mask, seed_lineage=[1])
    qd.save_quantity_model(tmp_path / "quantity.json", qty, seed_lineage=[2])
    models = ["--mask-model", str(tmp_path / "mask.json"),
              "--quantity-model", str(tmp_path / "quantity.json"),
              "--vocabulary", str(run / "vocabulary.json")]
    corpus = str(run / "corpus.jsonl")
    extra = {"sample": ["--count", "4"], "discover": ["--count", "4", "--corpus", corpus],
             "rediscover": ["--reference", str(run / "reference.jsonl"), "--budget", "4"],
             "validate": ["--corpus", corpus, "--count", "8"]}[command]
    code, err = run_cli([command, *extra, *models, "--out-dir", str(tmp_path / "out")])
    message = f"{tmp_path / 'mask.json'}: field K is {vocab.K + 1}, expected {vocab.K}"
    assert code == 2 and message in err, err


def test_negative_seed_names_the_key(tmp_path):
    code, err = run_cli(["synth", "--spec", str(DESK / "synth_spec.json"), "--count", "10",
                         "--seed", "-1", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "config key run.seed is -1, expected an integer in [0, inf)" in err
