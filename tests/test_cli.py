import argparse
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import recipeforge
from recipeforge import cli, netcore
from recipeforge.config import _RANGES, DEFAULTS, resolve_config
from recipeforge.corpus import load_vocabulary
from recipeforge.errors import DataError

DESK = Path(recipeforge.__file__).parent / "data" / "desk"


def run_ok(args):
    code = cli.run(args)
    assert code == 0, f"command failed: {args}"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A tiny end-to-end run directory shared by the CLI tests."""
    root = tmp_path_factory.mktemp("run")
    run_ok(["synth", "--spec", str(DESK / "synth_spec.json"), "--count", "150",
            "--seed", "3", "--out-dir", str(root)])
    fast = ["--set", "train.mask.steps=300", "--set", "train.mask.val_interval=300",
            "--set", "train.mask.ema_decay=0", "--set", "train.mask.final_learning_rate=0",
            "--set", "train.quantity.steps=300", "--set", "train.quantity.val_interval=300",
            "--set", "sde.steps=80", "--set", "schedule.T=20"]
    run_ok(["train-mask", "--corpus", str(root / "corpus.jsonl"),
            "--out-dir", str(root), "--seed", "4", *fast])
    run_ok(["train-quantity", "--corpus", str(root / "corpus.jsonl"),
            "--out-dir", str(root), "--seed", "5", *fast])
    run_ok(["sample", "--out-dir", str(root), "--count", "120", "--seed", "6",
            "--set", "sde.steps=80", "--set", "sample.chunk_size=64"])
    return root


def test_synth_writes_corpus(tmp_path):
    out = tmp_path / "corpus.jsonl"
    code = cli.run(["synth", "--spec", str(DESK / "synth_spec.json"), "--seed", "1",
                    "--count", "40", "--out", str(out), "--out-dir", str(tmp_path)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 40
    assert "ingredients" in json.loads(lines[0])
    assert (tmp_path / "config.resolved").exists()
    meta = json.loads((out.parent / "corpus.jsonl.meta.json").read_text())
    assert meta["config_hash"]


def test_unknown_flag_is_usage_error():
    assert cli.run(["synth", "--nonsense", "x"]) == 1
    assert cli.run(["definitely-not-a-command"]) == 1


def test_missing_file_is_data_error(tmp_path):
    code = cli.run(["synth", "--spec", str(tmp_path / "missing.json"),
                    "--out-dir", str(tmp_path)])
    assert code == 2


def test_unknown_config_key_is_data_error(tmp_path):
    code = cli.run(["synth", "--spec", str(DESK / "synth_spec.json"),
                    "--out-dir", str(tmp_path), "--set", "no.such.key=1"])
    assert code == 2


def test_corrupt_checkpoint_is_numeric_error(pipeline, tmp_path):
    doc = json.loads((pipeline / "checkpoints" / "quantity_model.json").read_text())
    doc["net"]["weights"][-1] = [1e307 for _ in doc["net"]["weights"][-1]]
    bad = tmp_path / "bad_quantity.json"
    bad.write_text(json.dumps(doc))
    code = cli.run(["sample", "--out-dir", str(tmp_path),
                    "--mask-model", str(pipeline / "checkpoints" / "mask_model.json"),
                    "--quantity-model", str(bad),
                    "--vocabulary", str(pipeline / "vocabulary.json"),
                    "--count", "8", "--seed", "1", "--set", "sde.steps=80"])
    assert code == 3


@pytest.mark.parametrize("command, args", [
    ("sample", ["--count", "64"]),
    ("discover", ["--count", "64", "--corpus", "@corpus", "--min-sds", "0"]),
    ("rediscover", ["--reference", "@reference", "--budget", "64"]),
])
def test_grams_that_overflow_are_numeric_errors(pipeline, tmp_path, capsys, command, args):
    doc = json.loads((pipeline / "checkpoints" / "quantity_model.json").read_text())
    doc["net"]["weights"] = [[3000 * w for w in layer] for layer in doc["net"]["weights"]]
    bad = tmp_path / "scaled_quantity.json"
    bad.write_text(json.dumps(doc))
    reference = tmp_path / "reference.jsonl"
    reference.write_text((pipeline / "corpus.jsonl").read_text().splitlines()[0] + "\n")
    paths = {"@corpus": str(pipeline / "corpus.jsonl"), "@reference": str(reference)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run([command, *[paths.get(a, a) for a in args], "--out-dir", str(tmp_path),
                        "--mask-model", str(pipeline / "checkpoints" / "mask_model.json"),
                        "--quantity-model", str(bad),
                        "--vocabulary", str(pipeline / "vocabulary.json"),
                        "--seed", "1", "--set", "sde.steps=80"])
    assert code == 3
    assert "numeric failure: decoded grams overflow to inf" in capsys.readouterr().err


def test_pipeline_outputs_exist(pipeline):
    assert (pipeline / "checkpoints" / "mask_model.json").exists()
    assert (pipeline / "checkpoints" / "quantity_model.json").exists()
    samples = (pipeline / "samples" / "samples.jsonl").read_text().splitlines()
    assert len(samples) == 120
    meta = json.loads((pipeline / "samples" / "samples.meta.json").read_text())
    assert meta["mask_model_fingerprint"]
    history = json.loads((pipeline / "reports" / "train_mask.json").read_text())
    assert history["config_hash"] and history["history"]


def test_sample_rerun_is_byte_identical(pipeline, tmp_path):
    args = ["sample", "--mask-model", str(pipeline / "checkpoints" / "mask_model.json"),
            "--quantity-model", str(pipeline / "checkpoints" / "quantity_model.json"),
            "--vocabulary", str(pipeline / "vocabulary.json"),
            "--count", "60", "--seed", "9", "--set", "sde.steps=80"]
    run_ok(args + ["--out-dir", str(tmp_path / "a")])
    run_ok(args + ["--out-dir", str(tmp_path / "b")])
    a = (tmp_path / "a" / "samples" / "samples.jsonl").read_bytes()
    b = (tmp_path / "b" / "samples" / "samples.jsonl").read_bytes()
    assert a == b


def test_sample_mask_from_conditions_on_given_masks(pipeline, tmp_path):
    run_ok(["sample", "--out-dir", str(tmp_path),
            "--mask-model", str(pipeline / "checkpoints" / "mask_model.json"),
            "--quantity-model", str(pipeline / "checkpoints" / "quantity_model.json"),
            "--vocabulary", str(pipeline / "vocabulary.json"),
            "--mask-from", str(pipeline / "corpus.jsonl"),
            "--seed", "2", "--set", "sde.steps=80"])
    given = (pipeline / "corpus.jsonl").read_text().splitlines()
    out = (tmp_path / "samples" / "samples.jsonl").read_text().splitlines()
    assert len(out) == len(given)
    for g, o in zip(given, out):
        g_ids = {i["id"] for i in json.loads(g)["ingredients"]}
        o_ids = {i["id"] for i in json.loads(o)["ingredients"]}
        assert g_ids == o_ids


def test_sample_mask_from_its_own_output_writes_the_same_bytes(pipeline, tmp_path):
    # the conditional sampler draws row i's weights as the joint one does,
    # whatever the count (130: a cut last block) and chunk sizes
    models = ["--mask-model", str(pipeline / "checkpoints" / "mask_model.json"),
              "--quantity-model", str(pipeline / "checkpoints" / "quantity_model.json"),
              "--vocabulary", str(pipeline / "vocabulary.json"), "--seed", "11",
              "--set", "sde.steps=80"]
    run_ok(["sample", *models, "--count", "130", "--chunk-size", "64",
            "--out-dir", str(tmp_path / "joint")])
    joint = tmp_path / "joint" / "samples" / "samples.jsonl"
    run_ok(["sample", *models, "--mask-from", str(joint),
            "--out-dir", str(tmp_path / "conditional")])
    conditional = tmp_path / "conditional" / "samples" / "samples.jsonl"
    assert conditional.read_bytes() == joint.read_bytes()


def test_validate_writes_reports(pipeline, capsys):
    run_ok(["validate", "--corpus", str(pipeline / "corpus.jsonl"),
            "--out-dir", str(pipeline), "--count", "400", "--seed", "7",
            "--set", "sde.steps=80"])
    rep = json.loads((pipeline / "reports" / "fidelity.json").read_text())
    assert 0.0 <= rep["max_marginal_error"] <= 1.0
    assert 0.0 <= rep["length_total_variation"] <= 1.0
    # the desk spec plants a recipe in about 9% of the rows, so a pattern reaches 1%
    assert rep["mode_recall"] >= 0.0
    assert f"mode recall {rep['mode_recall']:.3f}" in capsys.readouterr().out
    assert len(rep["top_pairs"]) == 10
    for name in ("marginals.csv", "correlations.csv", "length_hist.csv"):
        text = (pipeline / "reports" / name).read_text()
        assert text.startswith("# config_hash=")


def test_rediscover_subcommand(pipeline, tmp_path):
    ref = tmp_path / "ref.jsonl"
    ref.write_text(json.dumps({"ingredients": [
        {"id": "sesame_bun", "grams": 75}, {"id": "beef_patty", "grams": 150},
        {"id": "cheddar_cheese", "grams": 25}, {"id": "ketchup", "grams": 15},
        {"id": "pickles", "grams": 20}, {"id": "onion", "grams": 10}]}) + "\n")
    run_ok(["rediscover", "--reference", str(ref), "--budget", "128",
            "--out-dir", str(pipeline), "--seed", "8",
            "--set", "sde.steps=80", "--set", "rediscover.chunk_size=32"])
    out = json.loads((pipeline / "selections" / "rediscover.json").read_text())
    assert out["rule"] == "rediscover"
    assert out["draws"] <= 128
    if out["found"]:
        assert out["verified_sds_zero"]


def test_rediscover_reference_must_hold_one_recipe(pipeline, tmp_path, capsys):
    ref = tmp_path / "two.jsonl"
    ref.write_text("".join(json.dumps({"ingredients": [{"id": "sesame_bun", "grams": g}]}) + "\n"
                           for g in (75, 80)))
    code = cli.run(["rediscover", "--reference", str(ref), "--budget", "8",
                    "--out-dir", str(pipeline), "--seed", "8", "--set", "sde.steps=80"])
    assert code == 2
    assert f"{ref}: a rediscover reference must hold exactly one recipe, found 2" in \
        capsys.readouterr().err


# the least value of each integer key that sizes a loop, a step count or a buffer
CONFIG_FLOORS = [(f"train.{m}.{k}", least) for m in ("mask", "quantity")
                 for k, least in (("steps", 1), ("batch_size", 1), ("hidden_width", 1),
                                  ("hidden_depth", 0), ("val_interval", 1))] + [
    ("schedule.T", 1), ("sde.steps", 1), ("fidelity.sample_count", 2), ("fidelity.top_k", 0),
    ("synth.count_override", 0), ("select.min_sds", 0), ("run.threads", 1), ("run.seed", 0)]


@pytest.mark.parametrize("command, args, message", [
    ("rediscover", ["--budget", "-5"], "rediscover.budget is -5, expected an integer in [0, inf)"),
    ("rediscover", ["--budget", "10", "--set", "rediscover.chunk_size=-3"],
     "rediscover.chunk_size is -3, expected an integer in [1, inf)"),
    ("rediscover", ["--set", "rediscover.chunk_size=0"],
     "rediscover.chunk_size is 0, expected an integer in [1, inf)"),
    ("sample", ["--chunk-size", "-2"], "sample.chunk_size is -2, expected an integer in [1, inf)"),
    ("sample", ["--count", "-1"], "sample.count is -1, expected an integer in [0, inf)"),
    ("sample", ["--set", "sample.count=Infinity"],
     "sample.count is inf, expected an integer in [0, inf)"),
    ("train-mask", ["--set", "train.mask.val_interval=0"],
     "train.mask.val_interval is 0, expected an integer in [1, inf)"),
    ("train-mask", ["--set", "train.mask.batch_size=0"],
     "train.mask.batch_size is 0, expected an integer in [1, inf)"),
    ("validate", ["--count", "-1"], "fidelity.sample_count is -1, expected an integer in [2, inf)"),
    # one sample has no correlations: refused at load, not after sampling
    ("validate", ["--count", "1"], "fidelity.sample_count is 1, expected an integer in [2, inf)"),
    *[("sample", ["--set", f"{key}={least - 1}"],
       f"{key} is {least - 1}, expected an integer in [{least}, inf)")
      for key, least in CONFIG_FLOORS],
], ids=["budget", "rediscover_chunk", "rediscover_chunk_zero", "sample_chunk", "sample_count",
        "infinite_count", "val_interval_zero", "batch_size_zero", "validate_count",
        "validate_count_one",
        *[key for key, _ in CONFIG_FLOORS]])
def test_out_of_range_sizes_are_data_errors(pipeline, tmp_path, capsys, command, args, message):
    extra = {"rediscover": ["--reference", str(tmp_path / "ref.jsonl")],
             "train-mask": ["--corpus", str(pipeline / "corpus.jsonl")],
             "validate": ["--corpus", str(pipeline / "corpus.jsonl")]}.get(command, [])
    code = cli.run([command, *extra, *args, "--out-dir", str(pipeline), "--seed", "1"])
    assert code == 2
    assert f"config key {message}" in capsys.readouterr().err


def test_every_numeric_config_key_has_a_range_holding_its_default():
    numeric = {key for key, value in DEFAULTS.items() if isinstance(value, (int, float))}
    assert numeric == set(_RANGES)
    for key in numeric:
        assert resolve_config(overrides={key: DEFAULTS[key]})[key] == DEFAULTS[key]


# each ranged float key: its interval, values outside it and values at its closed ends
FLOAT_RANGES = [
    ("corpus.val_fraction", "[0, 1)", [-0.1, 1.0, 1.5], [0.0, 0.5]),
    ("sde.beta_min", "(0, inf)", [0.0, -1.0, float("inf")], [1e-9, 20.0]),
    ("sde.beta_max", "(0, inf)", [0.0, -1.0, float("inf")], [1e-9, 20.0]),
    ("sde.t_eps", "(0, 1)", [0.0, -0.0, -1.0, 1.0, 2.0], [1e-9, 0.5]),
    ("schedule.beta_start", "(0, 1)", [0.0, -0.1, 1.0], [1e-9, 0.5]),
    ("schedule.beta_end", "(0, 1)", [0.0, 1.0, 1.5], [1e-9, 0.5]),
    ("select.top_fraction", "(0, 1]", [0.0, -0.5, 1.5], [1e-9, 1.0]),
    ("select.meal_fraction", "(0, 1]", [0.0, -0.5, 1.5], [1e-9, 1.0]),
    *[(f"profile.{k}", "(0, inf)", [0.0, -1.0, float("inf")], [1e-9, 30.0])
      for k in ("age", "height_cm", "weight_kg")],
    *[(f"train.{m}.{k}", interval, bad, good) for m in ("mask", "quantity")
      for k, interval, bad, good in (
          ("learning_rate", "[0, inf)", [-1.0, float("inf")], [0.0, 1e-3]),
          ("final_learning_rate", "[0, inf)", [-1e-9, float("inf")], [0.0, 1e-3]),
          ("ema_decay", "[0, 1)", [-0.5, 1.0, 2.0], [0.0, 0.9995]))],
]


@pytest.mark.parametrize("key, interval, bad, good", FLOAT_RANGES,
                         ids=[key for key, *_ in FLOAT_RANGES])
def test_out_of_range_floats_are_data_errors_naming_the_key(key, interval, bad, good):
    for value in [*bad, float("nan")]:
        with pytest.raises(DataError) as err:
            resolve_config(overrides={key: value})
        assert str(err.value) == (f"config key {key} is {value!r}, "
                                  f"expected a finite number in {interval}")
    for value in good:
        assert resolve_config(overrides={key: value})[key] == value


@pytest.mark.parametrize("command, args, message", [
    ("train-quantity", ["--set", "train.quantity.ema_decay=2"],
     "train.quantity.ema_decay is 2, expected a finite number in [0, 1)"),
    ("train-mask", ["--set", "train.mask.learning_rate=-1"],
     "train.mask.learning_rate is -1, expected a finite number in [0, inf)"),
    ("select-nutritious", ["--nutrient-table", str(DESK / "nutrient_table.csv"), "--top", "0"],
     "select.top_fraction is 0.0, expected a finite number in (0, 1]"),
], ids=["ema_decay", "learning_rate", "top_fraction"])
def test_out_of_range_floats_stop_the_command(pipeline, tmp_path, capsys, command, args, message):
    code = cli.run([command, "--corpus", str(pipeline / "corpus.jsonl"), *args,
                    "--out-dir", str(tmp_path), "--seed", "1"])
    assert code == 2
    assert f"config key {message}" in capsys.readouterr().err
    assert not (tmp_path / "checkpoints").exists() and not (tmp_path / "selections").exists()


def test_discover_subcommand(pipeline):
    run_ok(["discover", "--corpus", str(pipeline / "corpus.jsonl"),
            "--samples", str(pipeline / "samples" / "samples.jsonl"),
            "--vocabulary", str(pipeline / "vocabulary.json"),
            "--min-sds", "0", "--out-dir", str(pipeline)])
    out = json.loads((pipeline / "selections" / "discover.json").read_text())
    assert out["group_count"] >= 1
    assert out["novelty_sds"] >= 0
    table = (pipeline / "reports" / "discover_groups.csv").read_text().splitlines()
    assert table[1].split(",") == ["group_index", "count", "popularity", "novelty_sds"]


def test_select_sustainable_subcommand(pipeline):
    run_ok(["select-sustainable",
            "--samples", str(pipeline / "samples" / "samples.jsonl"),
            "--vocabulary", str(pipeline / "vocabulary.json"),
            "--impact-table", str(DESK / "impact_table.csv"),
            "--impact-norms", str(DESK / "impact_norms.json"),
            "--out-dir", str(pipeline)])
    out = json.loads((pipeline / "selections" / "select_sustainable.json").read_text())
    assert out["env_score"] >= 0.0
    assert out["config_hash"]


def test_select_nutritious_subcommand(pipeline):
    run_ok(["select-nutritious",
            "--samples", str(pipeline / "samples" / "samples.jsonl"),
            "--vocabulary", str(pipeline / "vocabulary.json"),
            "--nutrient-table", str(DESK / "nutrient_table.csv"),
            "--top", "0.25", "--out-dir", str(pipeline)])
    out = json.loads((pipeline / "selections" / "select_nutritious.json").read_text())
    assert 0.0 <= out["hei_total"] <= 100.0


def test_personalize_subcommand(pipeline):
    run_ok(["personalize",
            "--samples", str(pipeline / "samples" / "samples.jsonl"),
            "--vocabulary", str(pipeline / "vocabulary.json"),
            "--nutrient-table", str(DESK / "nutrient_table.csv"),
            "--age", "15", "--sex", "male", "--height", "180", "--weight", "80",
            "--activity", "active", "--top", "0.25", "--out-dir", str(pipeline)])
    out = json.loads((pipeline / "selections" / "personalize.json").read_text())
    assert out["profile"]["energy_requirement_kcal"] == pytest.approx(3924.364)


def test_landscape_subcommand(pipeline):
    run_ok(["landscape",
            "--samples", str(pipeline / "samples" / "samples.jsonl"),
            "--vocabulary", str(pipeline / "vocabulary.json"),
            "--corpus", str(pipeline / "corpus.jsonl"),
            "--impact-table", str(DESK / "impact_table.csv"),
            "--impact-norms", str(DESK / "impact_norms.json"),
            "--nutrient-table", str(DESK / "nutrient_table.csv"),
            "--out-dir", str(pipeline)])
    lines = (pipeline / "reports" / "landscape.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "group_index,count,popularity,env_score,hei_total,novelty_sds"
    assert len(lines) > 2


def test_ingest_round_trip(pipeline, tmp_path):
    run_ok(["ingest", "--input", str(pipeline / "corpus.jsonl"),
            "--out-dir", str(tmp_path)])
    assert (tmp_path / "corpus.jsonl").exists()
    assert (tmp_path / "vocabulary.json").exists()
    meta = json.loads((tmp_path / "corpus.meta.json").read_text())
    assert meta["recipes"] == 150


def test_threads_env_fallback(pipeline, tmp_path, monkeypatch):
    monkeypatch.setenv("RECIPEFORGE_THREADS", "3")
    run_ok(["sample", "--mask-model", str(pipeline / "checkpoints" / "mask_model.json"),
            "--quantity-model", str(pipeline / "checkpoints" / "quantity_model.json"),
            "--vocabulary", str(pipeline / "vocabulary.json"),
            "--count", "40", "--seed", "9", "--set", "sde.steps=80",
            "--out-dir", str(tmp_path)])
    resolved = (tmp_path / "config.resolved").read_text()
    assert "run.threads = 3" in resolved


def test_config_file_and_flag_precedence(pipeline, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("run.seed = 42\nsample.count = 25\nsde.steps = 80\n")
    run_ok(["sample", "--config", str(cfg),
            "--mask-model", str(pipeline / "checkpoints" / "mask_model.json"),
            "--quantity-model", str(pipeline / "checkpoints" / "quantity_model.json"),
            "--vocabulary", str(pipeline / "vocabulary.json"),
            "--count", "10", "--out-dir", str(tmp_path)])
    resolved = (tmp_path / "config.resolved").read_text()
    assert "run.seed = 42" in resolved            # from file
    assert "sample.count = 10" in resolved        # flag overrides file
    out = (tmp_path / "samples" / "samples.jsonl").read_text().splitlines()
    assert len(out) == 10


def test_config_hash_inside_quoted_value_is_not_a_comment(tmp_path):
    from recipeforge.config import parse_config_file
    cfg = tmp_path / "run.cfg"
    cfg.write_text('paths.out = "runs/#1"\n'
                   'paths.spec = "a\\"#b"  # trailing comment\n'
                   "run.seed = 7 # comment after a number\n"
                   "# a whole-line comment\n")
    assert parse_config_file(cfg) == {"paths.out": "runs/#1", "paths.spec": 'a"#b',
                                      "run.seed": 7}


def test_unknown_required_ingredient_is_data_error(pipeline, capsys):
    code = cli.run(["select-sustainable",
                    "--samples", str(pipeline / "samples" / "samples.jsonl"),
                    "--vocabulary", str(pipeline / "vocabulary.json"),
                    "--impact-table", str(DESK / "impact_table.csv"),
                    "--require", "no_such_ingredient", "--out-dir", str(pipeline)])
    assert code == 2
    assert "select.required: ingredient 'no_such_ingredient'" in capsys.readouterr().err


def test_vocabulary_entry_without_id_is_data_error(pipeline, tmp_path, capsys):
    entries = json.loads((pipeline / "vocabulary.json").read_text())
    del entries[1]["id"]
    bad = tmp_path / "bad_vocabulary.json"
    bad.write_text(json.dumps(entries))
    code = cli.run(["select-nutritious",
                    "--samples", str(pipeline / "samples" / "samples.jsonl"),
                    "--vocabulary", str(bad),
                    "--nutrient-table", str(DESK / "nutrient_table.csv"),
                    "--out-dir", str(tmp_path)])
    assert code == 2
    assert "bad_vocabulary.json: entry 1 has no field id" in capsys.readouterr().err


@pytest.mark.parametrize("model, field", [
    ("mask", "K"), ("mask", "net"), ("mask", "schedule"),
    ("quantity", "K"), ("quantity", "net"), ("quantity", "sde"), ("quantity", "codec"),
])
def test_checkpoint_missing_field_is_data_error(pipeline, tmp_path, capsys, model, field):
    paths = {m: pipeline / "checkpoints" / f"{m}_model.json" for m in ("mask", "quantity")}
    doc = json.loads(paths[model].read_text())
    del doc[field]
    paths[model] = tmp_path / "bad_model.json"
    paths[model].write_text(json.dumps(doc))
    code = cli.run(["sample", "--out-dir", str(tmp_path),
                    "--mask-model", str(paths["mask"]),
                    "--quantity-model", str(paths["quantity"]),
                    "--vocabulary", str(pipeline / "vocabulary.json"),
                    "--count", "8", "--seed", "1", "--set", "sde.steps=80"])
    assert code == 2
    assert "bad_model.json: field " + field in capsys.readouterr().err


def test_ingest_non_object_entry_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"ingredients": ["beef"]}) + "\n")
    code = cli.run(["ingest", "--input", str(bad), "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"{bad}: line 1: ingredient 0 must be an object" in capsys.readouterr().err


def test_ingest_broken_vocabulary_json_is_data_error(pipeline, tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('[{"id": "beef", "name": }]')
    code = cli.run(["ingest", "--input", str(pipeline / "corpus.jsonl"),
                    "--vocabulary", str(broken), "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"{broken}: invalid JSON (Expecting value: line 1" in capsys.readouterr().err


def test_validate_without_validation_rows_writes_null_mae(pipeline, tmp_path, capsys):
    run_ok(["synth", "--spec", str(DESK / "synth_spec.json"), "--count", "60",
            "--seed", "8", "--set", "corpus.val_fraction=0", "--out-dir", str(tmp_path)])
    run_ok(["validate", "--corpus", str(tmp_path / "corpus.jsonl"),
            "--mask-model", str(pipeline / "checkpoints" / "mask_model.json"),
            "--quantity-model", str(pipeline / "checkpoints" / "quantity_model.json"),
            "--out-dir", str(tmp_path), "--count", "50", "--seed", "7",
            "--set", "sde.steps=80"])
    assert "quantity MAE n/a" in capsys.readouterr().out

    def reject(constant):
        raise ValueError(f"non-finite constant {constant} in fidelity.json")

    text = (tmp_path / "reports" / "fidelity.json").read_text()
    assert json.loads(text, parse_constant=reject)["quantity_mae_grams"] is None


def test_write_json_refuses_non_finite_numbers(tmp_path):
    with pytest.raises(ValueError):
        cli._write_json(tmp_path / "x.json", {"score": float("nan")}, "hash")
    cli._write_json(tmp_path / "x.json", {"score": 0.1}, "hash")
    assert (tmp_path / "x.json").read_text() == '{\n  "config_hash": "hash",\n  "score": 0.1\n}\n'


def test_sample_and_validate_outputs_do_not_depend_on_threads(pipeline, tmp_path):
    models = ["--mask-model", str(pipeline / "checkpoints" / "mask_model.json"),
              "--quantity-model", str(pipeline / "checkpoints" / "quantity_model.json"),
              "--vocabulary", str(pipeline / "vocabulary.json"), "--set", "sde.steps=80"]
    for threads in ("1", "2"):
        out = ["--out-dir", str(tmp_path / threads), "--threads", threads]
        run_ok(["sample", *models, *out, "--count", "150", "--seed", "9",
                "--set", "sample.chunk_size=64"])
        run_ok(["validate", *models, *out, "--corpus", str(pipeline / "corpus.jsonl"),
                "--count", "200", "--seed", "7"])
    samples = [(tmp_path / t / "samples" / "samples.jsonl").read_bytes() for t in "12"]
    assert samples[0] == samples[1]
    # config_hash covers run.threads; every other byte must match
    reports = [(tmp_path / t / "reports" / "fidelity.json").read_text().splitlines()
               for t in "12"]
    for lines in reports:
        assert lines.pop(1).startswith('  "config_hash"')
    assert reports[0] == reports[1]
    assert json.loads("\n".join(reports[0]))["quantity_mae_grams"] is not None


@pytest.mark.skipif(netcore._openblas() is None, reason="numpy's bundled OpenBLAS not found")
def test_run_pins_blas_to_one_thread_and_restores_it(tmp_path, monkeypatch):
    lib = netcore._openblas()
    get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    seen = []
    synth = cli._HANDLERS["synth"]

    def recording(*args):
        seen.append(get())
        return synth(*args)

    monkeypatch.setitem(cli._HANDLERS, "synth", recording)
    before = get()
    put(2)
    try:
        found = get()
        assert cli.run(["synth", "--spec", str(DESK / "synth_spec.json"), "--count", "20",
                        "--out-dir", str(tmp_path)]) == 0
        assert get() == found
        assert cli.run(["synth", "--spec", str(tmp_path / "missing.json"),
                        "--out-dir", str(tmp_path)]) == 2
        assert get() == found
    finally:
        put(before)
    assert seen == [1, 1]


def test_selection_outputs_do_not_depend_on_the_corpus_cache(pipeline, tmp_path):
    batch = ["--samples", str(pipeline / "samples" / "samples.jsonl"),
             "--vocabulary", str(pipeline / "vocabulary.json"), "--out-dir", str(tmp_path)]
    corpus = ["--corpus", str(pipeline / "corpus.jsonl")]
    impact = ["--impact-table", str(DESK / "impact_table.csv"),
              "--impact-norms", str(DESK / "impact_norms.json")]
    nutrients = ["--nutrient-table", str(DESK / "nutrient_table.csv")]
    commands = [["discover", *corpus, *impact, *nutrients, "--min-sds", "0"],
                ["select-sustainable", *impact, *corpus],
                ["select-nutritious", *nutrients, *corpus],
                ["personalize", *nutrients],
                ["landscape", *corpus, *impact, *nutrients]]
    cache = tmp_path / "cache"
    # one entry per distinct (file, vocabulary): the batch and the corpus, both under one vocabulary
    fingerprint = load_vocabulary(pipeline / "vocabulary.json").fingerprint()
    entries = sorted(f"corpus-{hashlib.sha256(f.read_bytes()).hexdigest()}-{fingerprint}.npz"
                     for f in (pipeline / "samples" / "samples.jsonl", pipeline / "corpus.jsonl"))
    outputs = []
    for run in ("cold", "warm", "garbage"):
        if run == "garbage":
            for entry in cache.iterdir():
                entry.write_bytes(b"garbage")
        for args in commands:
            run_ok([*args, *batch])
        outputs.append({p.relative_to(tmp_path): p.read_bytes()
                        for d in ("selections", "reports") for p in (tmp_path / d).iterdir()})
        assert sorted(e.name for e in cache.iterdir()) == entries
    assert len(outputs[0]) == 10
    assert outputs[0] == outputs[1] == outputs[2]


def subparsers(parser: argparse.ArgumentParser) -> argparse._SubParsersAction:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_every_flag_sets_a_config_key():
    sub = subparsers(cli.build_parser())
    assert len(sub.choices) == 12
    for command, p in sub.choices.items():
        for action in p._actions:
            if "." in action.dest:
                assert action.dest in DEFAULTS, f"{command} {action.option_strings[0]}"
                assert action.metavar == action.dest
            else:
                assert action.dest in {"help", "config", "set", "out_dir"}
    dests = {command: {a.option_strings[0]: a.dest for a in p._actions}
             for command, p in sub.choices.items()}
    assert dests["validate"]["--count"] == "fidelity.sample_count"
    assert dests["synth"]["--count"] == "synth.count_override"
    assert dests["sample"]["--count"] == "sample.count"
    assert dests["sample"]["--mask-from"] == "paths.samples"
    assert "--count fidelity.sample_count" in sub.choices["validate"].format_help()


def every_flag(parser: argparse.ArgumentParser) -> list[str]:
    """Arguments that give each flag of a subcommand's parser a valid value."""
    argv = []
    for a in parser._actions:
        if a.option_strings and a.dest != "help":
            value = a.choices[0] if a.choices else {int: "3", float: "0.5"}.get(a.type, "in.json")
            argv += [a.option_strings[0], value]
    return argv


@pytest.mark.parametrize("command", list(cli._HANDLERS))
def test_one_subcommand_parser_equals_the_full_one(command):
    full, one = cli.build_parser(), cli.build_parser(command)
    assert list(subparsers(one).choices) == [command]
    own = subparsers(full).choices[command]
    assert subparsers(one).choices[command].format_help() == own.format_help()
    argv = [command, *every_flag(own)]
    assert one.parse_args(argv) == full.parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["no-such-command"], ["validate", "--help"],
    ["discover", "--nonsense"],
    ["synth", "--spec", "spec.json", "--nonsense", "x"],
    ["synth", "--spec", "spec.json", "--count", "many"],
    ["personalize", "--nutrient-table", "t.csv", "--sex", "other"],
], ids=["help", "no_command", "unknown_command", "command_help", "missing_required_flag",
        "unknown_flag", "bad_int", "bad_choice"])
def test_usage_output_is_the_full_parsers(argv, capsys):
    """cli.run prints and exits on help and usage errors as the full parser does."""
    code = cli.run(argv)
    got = capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        cli.build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert (code, got.out, got.err) == (0 if e.value.code == 0 else 1, want.out, want.err)
    assert code == (0 if "--help" in argv else 1)
    if argv == ["--help"]:  # every subcommand with its help line
        for a in subparsers(cli.build_parser())._choices_actions:
            assert a.dest in got.out and a.help in got.out


def test_a_command_builds_only_its_own_parser(pipeline, tmp_path, monkeypatch):
    """A command adds the arguments of its own subcommand, and no other's."""
    progs = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        progs.append(self.prog)
        return add_argument(self, *args, **kwargs)

    own = len(subparsers(cli.build_parser()).choices["select-nutritious"]._actions)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    run_ok(["select-nutritious", "--samples", str(pipeline / "samples" / "samples.jsonl"),
            "--vocabulary", str(pipeline / "vocabulary.json"),
            "--nutrient-table", str(DESK / "nutrient_table.csv"), "--out-dir", str(tmp_path)])
    assert set(progs) == {"recipeforge", "recipeforge select-nutritious"}
    assert progs.count("recipeforge select-nutritious") == own


def test_precedence_is_config_then_env_then_flags_then_set(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("run.threads = 5\nrun.seed = 5\nsynth.count_override = 5\n")
    monkeypatch.setenv("RECIPEFORGE_THREADS", "3")
    synth = ["synth", "--spec", str(DESK / "synth_spec.json"), "--config", str(cfg)]
    run_ok([*synth, "--seed", "2", "--count", "20", "--set", "synth.count_override=30",
            "--out-dir", str(tmp_path / "a")])
    resolved = (tmp_path / "a" / "config.resolved").read_text().splitlines()
    assert "run.threads = 3" in resolved              # env over --config
    assert "run.seed = 2" in resolved                 # flag over --config
    assert "synth.count_override = 30" in resolved    # --set over flag
    run_ok([*synth, "--threads", "2", "--out-dir", str(tmp_path / "b")])
    assert "run.threads = 2" in (tmp_path / "b" / "config.resolved").read_text().splitlines()


@pytest.mark.parametrize("env, message", [
    ("abc", "run.threads is 'abc', expected an integer in [1, inf)"),
    ("-4", "run.threads is -4, expected an integer in [1, inf)"),
], ids=["not_a_number", "negative"])
def test_threads_env_is_parsed_like_a_set_value(tmp_path, monkeypatch, capsys, env, message):
    monkeypatch.setenv("RECIPEFORGE_THREADS", env)
    code = cli.run(["synth", "--spec", str(DESK / "synth_spec.json"), "--count", "20",
                    "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"config key {message}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--config", "--impact-table", "--nutrient-table", "--hei-standards"])
def test_input_that_is_not_utf8_names_the_file(pipeline, tmp_path, capsys, flag):
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(b"\xff\xfe" + "ingredient_id,component\n".encode("utf-16-le"))
    nutrients = ["--nutrient-table", str(DESK / "nutrient_table.csv")]
    args = {"--config": ["select-nutritious", *nutrients, "--config", str(bad)],
            "--impact-table": ["select-sustainable", "--impact-table", str(bad)],
            "--nutrient-table": ["select-nutritious", "--nutrient-table", str(bad)],
            "--hei-standards": ["select-nutritious", *nutrients, "--hei-standards", str(bad)]}[flag]
    code = cli.run([*args, "--samples", str(pipeline / "samples" / "samples.jsonl"),
                    "--vocabulary", str(pipeline / "vocabulary.json"), "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"{bad}: not UTF-8 text (invalid start byte at byte 0)" in capsys.readouterr().err


@pytest.mark.parametrize("flag, key", [("--impact-table", "ingredient_id 'avocado'"),
                                       ("--nutrient-table", "ingredient_id 'avocado'"),
                                       ("--hei-standards", "component 'sodium'")])
def test_repeated_table_row_names_the_file_line_and_key(pipeline, tmp_path, capsys, flag, key):
    source = {"--impact-table": DESK / "impact_table.csv",
              "--nutrient-table": DESK / "nutrient_table.csv",
              "--hei-standards": Path(recipeforge.__file__).parent / "data" / "hei2015_standards.csv"}
    lines = source[flag].read_text().splitlines()
    repeat = next(line for line in lines if line.startswith(key.split("'")[1] + ","))
    bad = tmp_path / "repeated.csv"
    bad.write_text("\n".join([*lines, repeat]) + "\n")
    nutrients = ["--nutrient-table", str(DESK / "nutrient_table.csv")]
    args = {"--impact-table": ["select-sustainable", "--impact-table", str(bad)],
            "--nutrient-table": ["select-nutritious", "--nutrient-table", str(bad)],
            "--hei-standards": ["select-nutritious", *nutrients, "--hei-standards", str(bad)]}[flag]
    code = cli.run([*args, "--samples", str(pipeline / "samples" / "samples.jsonl"),
                    "--vocabulary", str(pipeline / "vocabulary.json"), "--out-dir", str(tmp_path)])
    assert code == 2
    assert f"{bad}: line {len(lines) + 1}: {key} is repeated" in capsys.readouterr().err


@pytest.mark.parametrize("log_mean, how", [(1000, "overflow to inf"), (-1000, "underflow to 0")])
def test_synth_weight_overflow_names_the_spec_ingredient_and_field(tmp_path, capsys, log_mean, how):
    spec = json.loads((DESK / "synth_spec.json").read_text())
    spec["ingredients"][1]["weight_log_mean"] = log_mean
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would escape as an error
        code = cli.run(["synth", "--spec", str(bad), "--count", "50", "--seed", "1",
                        "--out-dir", str(tmp_path)])
    assert code == 2
    assert (f"{bad}: field ingredients[1].weight_log_mean is {float(log_mean)!r}: grams drawn for "
            f"{spec['ingredients'][1]['id']} {how}") in capsys.readouterr().err
