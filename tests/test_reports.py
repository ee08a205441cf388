"""The report files of the five batch commands and of validate: fixed
bytes, and group tables that agree across commands.

The pins are sha256 digests of each report with its config_hash line
or key removed, since the hash covers the run's file paths. The batch
commands' were recorded at commit c744b6c, before the five group tables
came from one writer and the report documents from their dataclass
fields; validate's four at commit cccfc06, where the sample stream took
its 64-row block address (netcore). The batch
and corpus are synthesized from the desk spec, and validate reads
untrained models, so no pin depends on a training run; validate's do
depend on the BLAS kernels, as the pins of test_inner_loops do.
"""

import hashlib
from pathlib import Path

import pytest

import recipeforge
from recipeforge import cli, scoring
from recipeforge import mask_diffusion as md
from recipeforge import quantity_diffusion as qd
from recipeforge.corpus import load_corpus, load_vocabulary
from helpers import random_models

DESK = Path(recipeforge.__file__).parent / "data" / "desk"

PINS = {
    "reports/correlations.csv":
        "8aceea5d42f13956f3c97157787b11446b121969f4e557014f55473601cf7103",
    "reports/discover_groups.csv":
        "cd0799bb3d227de0ea7e8b0dc8ca3261a853373a9e2bd850409810e5a601226f",
    "reports/fidelity.json":
        "ec3c7b49a42f02f0bb5dd670dad15efd43301de06f7da99a97006ce752a7b6e3",
    "reports/landscape.csv":
        "0aafaeb10939e631eeb55d14de96f0639918bcfcb6dc023a8f5247cc2980a5b5",
    "reports/landscape.meta.json":
        "6580873ea7bfb0280c7fc5fc57f69b48c6c97e2c543ed0c74a217c729f8b3416",
    "reports/length_hist.csv":
        "f1418ce9cffdaab260a2f2360926ec04c31123657f9dba8e3fd0286b3a985ef3",
    "reports/marginals.csv":
        "a638ce434ee8efcf33e8594756b201a70ec388b5bc60478fb3ce19c21dcc45c7",
    "reports/nutritious_groups.csv":
        "af366f7310ee582671ad72c9b900fd4ba2cecf55666c6bfb3aef876f28f16f39",
    "reports/personalize_groups.csv":
        "4f617b74ee777f8e57ad99bba43212173d1417d9f851c3b2c3f1fabb2a0a7281",
    "reports/sustainable_groups.csv":
        "7be824f215dceda6bee3ea89a543a52d8da5c53ba3ae3c47ad5cac71190150e6",
    "selections/discover.json":
        "1b2591b0e9ae3b586054432bae5789be0d29d9abfc76a7303639ffdaa33568a0",
    "selections/personalize.json":
        "fc420a38e970169fd61b260a5789efa9665c89e9e6b9ded35401dfe7a9bfbaf9",
    "selections/select_nutritious.json":
        "9528e9ebff84e4aa5da9859e3c5a368feadbcad59ebf061680ab7fe4414763e3",
    "selections/select_sustainable.json":
        "acc8b4aa10400534962b1478912b1f9f8a0c4e2cd8e6f6785bcfb72bf2c8eefa",
}

BATCH_COMMANDS = {
    "discover": ["--corpus", "@corpus", "--impact-table", "@impact", "--impact-norms", "@norms",
                 "--nutrient-table", "@nutrients", "--min-sds", "2"],
    "select-sustainable": ["--impact-table", "@impact", "--impact-norms", "@norms",
                           "--corpus", "@corpus"],
    "select-nutritious": ["--nutrient-table", "@nutrients", "--corpus", "@corpus"],
    "personalize": ["--nutrient-table", "@nutrients"],
    "landscape": ["--corpus", "@corpus", "--impact-table", "@impact", "--impact-norms", "@norms",
                  "--nutrient-table", "@nutrients"],
}


def run_ok(args):
    assert cli.run([str(a) for a in args]) == 0, f"command failed: {args}"


def _args(extra, root: Path) -> list:
    paths = {"@corpus": root / "corpus.jsonl", "@impact": DESK / "impact_table.csv",
             "@norms": DESK / "impact_norms.json", "@nutrients": DESK / "nutrient_table.csv"}
    return [paths.get(a, a) for a in extra]


def _batch(root: Path, samples: Path, out: Path) -> list:
    return ["--samples", samples, "--vocabulary", root / "vocabulary.json", "--seed", "5",
            "--out-dir", out]


def _models(root: Path) -> list:
    return ["--mask-model", root / "checkpoints" / "mask_model.json",
            "--quantity-model", root / "checkpoints" / "quantity_model.json",
            "--vocabulary", root / "vocabulary.json", "--set", "sde.steps=20"]


def _save_untrained_models(root: Path) -> None:
    """Untrained mask and quantity checkpoints over the run's vocabulary."""
    vocab = load_vocabulary(root / "vocabulary.json")
    mask, qty = random_models(K=vocab.K, seed=1)
    mask.vocab_fingerprint = qty.vocab_fingerprint = vocab.fingerprint()
    (root / "checkpoints").mkdir()
    md.save_mask_model(root / "checkpoints" / "mask_model.json", mask, seed_lineage=[1])
    qd.save_quantity_model(root / "checkpoints" / "quantity_model.json", qty, seed_lineage=[2])


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """A 300-recipe desk corpus (seed 1), a 256-recipe desk batch (seed 2),
    the five batch commands' reports on them, and validate's reports for
    untrained models against the corpus."""
    root = tmp_path_factory.mktemp("reports")
    run_ok(["synth", "--spec", DESK / "synth_spec.json", "--count", "300", "--seed", "1",
            "--out-dir", root])
    run_ok(["synth", "--spec", DESK / "synth_spec.json", "--count", "256", "--seed", "2",
            "--out", root / "batch.jsonl", "--out-dir", root / "batch"])
    out = root / "out"
    for command, extra in BATCH_COMMANDS.items():
        run_ok([command, *_args(extra, root), *_batch(root, root / "batch.jsonl", out)])
    _save_untrained_models(root)
    run_ok(["validate", *_models(root), "--corpus", root / "corpus.jsonl", "--count", "64",
            "--seed", "3", "--out-dir", out])
    return root


def _digest(path: Path) -> str:
    """sha256 of the file's bytes without its config_hash line or key."""
    lines = [ln for ln in path.read_bytes().split(b"\n")
             if not ln.startswith((b"# config_hash=", b'  "config_hash": '))]
    return hashlib.sha256(b"\n".join(lines)).hexdigest()


def _report_files(out: Path) -> list[Path]:
    return sorted(p for d in ("selections", "reports") for p in (out / d).iterdir())


def test_report_bytes_hold_their_pins(reports):
    digests = {p.relative_to(reports / "out").as_posix(): _digest(p)
               for p in _report_files(reports / "out")}
    assert digests == PINS


def _columns(path: Path) -> dict[str, list[str]]:
    """The columns of a group table, by header name, as written."""
    header, *rows = path.read_text().splitlines()[1:]
    return dict(zip(header.split(","), zip(*(r.split(",") for r in rows))))


def test_group_tables_agree_with_the_landscape(reports):
    out = reports / "out" / "reports"
    landscape = _columns(out / "landscape.csv")
    batch = load_corpus(reports / "batch.jsonl", load_vocabulary(reports / "vocabulary.json")).grams
    assert len(landscape["group_index"]) == len(scoring.group_recipes(batch))
    assert sum(int(c) for c in landscape["count"]) == len(batch)
    assert all(0 <= float(h) <= 100 for h in landscape["hei_total"])
    for table, column in (("sustainable_groups.csv", "env_score"),
                          ("nutritious_groups.csv", "hei_total"),
                          ("discover_groups.csv", "novelty_sds")):
        groups = _columns(out / table)
        assert list(groups) == ["group_index", "count", "popularity", column]
        assert groups == {k: landscape[k] for k in groups}


def test_one_recipe_is_one_group_at_novelty_zero(reports, tmp_path):
    samples = tmp_path / "one.jsonl"
    samples.write_text((reports / "corpus.jsonl").read_text().splitlines()[0] + "\n")
    run_ok(["landscape", *_args(BATCH_COMMANDS["landscape"], reports),
            *_batch(reports, samples, tmp_path)])
    landscape = _columns(tmp_path / "reports" / "landscape.csv")
    assert (landscape["count"], landscape["novelty_sds"]) == (("1",), ("0",))


@pytest.mark.parametrize("command", list(BATCH_COMMANDS))
def test_an_empty_batch_is_a_data_error(reports, tmp_path, capsys, command):
    code = cli.run([str(a) for a in [command, *_args(BATCH_COMMANDS[command], reports),
                                     *_models(reports), "--count", "0", "--out-dir", tmp_path]])
    assert code == 2
    assert "data error: batch is empty" in capsys.readouterr().err
