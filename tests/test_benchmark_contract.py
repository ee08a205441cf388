"""The names and argument positions the benchmark's tracer wraps.

perfbench/spans.py wraps recipeforge functions and methods by name and
reads some of their arguments by position or keyword. A rename or a
reordered signature would only show inside the traced benchmark runs;
these checks fail at once and name the entry.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import random_models
from recipeforge import discovery

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _hook_reads() -> dict[tuple[str, str], set[tuple[int, str]]]:
    """(module, attribute) -> the (position, name) pairs its hook passes to _arg."""
    tree = ast.parse(SPANS.read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets))
    reads = {}
    for entry in table.elts:
        module, attr = (e.value for e in entry.elts[:2])
        reads[(module, attr)] = {
            (call.args[2].value, call.args[3].value) for call in ast.walk(entry.elts[3])
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg"}
    return reads


HOOK_READS = _hook_reads()


@pytest.mark.parametrize("module, attr", [entry[:2] for entry in spans.FUNCTIONS],
                         ids=[f"{m}.{a}" for m, a, *_ in spans.FUNCTIONS])
def test_traced_function_exists_with_the_arguments_its_hook_reads(module, attr):
    fn = getattr(importlib.import_module(f"recipeforge.{module}"), attr, None)
    assert callable(fn), f"perfbench/spans.py wraps recipeforge.{module}.{attr}, which is gone"
    params = list(inspect.signature(fn).parameters)
    for pos, name in HOOK_READS[(module, attr)]:
        assert params[pos:pos + 1] == [name], (
            f"perfbench/spans.py reads argument {name!r} at position {pos} of "
            f"recipeforge.{module}.{attr}, whose parameters are {params}")


def test_hooks_that_read_arguments_were_found():
    read = {name for reads in HOOK_READS.values() for _, name in reads}
    assert read == {"x", "n", "masks", "samples", "corpus"}


@pytest.mark.parametrize("module, cls, meth", [entry[:3] for entry in spans.METHODS],
                         ids=[f"{c}.{m}" for _, c, m, _ in spans.METHODS])
def test_traced_method_is_defined_on_its_class(module, cls, meth):
    owner = getattr(importlib.import_module(f"recipeforge.{module}"), cls, None)
    assert owner is not None, f"perfbench/spans.py wraps recipeforge.{module}.{cls}, which is gone"
    assert callable(vars(owner).get(meth)), (
        f"perfbench/spans.py wraps {cls}.{meth}, which {cls} does not define")


def test_traced_rediscover_counts_stream_rows_and_draws():
    # 600 draws in 64-row chunks: 10 chunks, computed as windows of 1, 2, 4
    # and 3 chunks
    budget, chunk = 600, 64
    mask_model, qty_model = random_models()
    for module, *_ in spans.FUNCTIONS + spans.METHODS:
        importlib.import_module(f"recipeforge.{module}")
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = discovery.rediscover(mask_model, qty_model, np.zeros(mask_model.K), budget, seed=1,
                                   chunk_size=chunk)
    finally:
        tracer.uninstall()
    assert not out.found
    rows = -(-budget // chunk) * chunk
    assert tracer.get("mask_diffusion.sample_chunk").counters["rows"] == rows
    assert tracer.get("quantity_diffusion.reverse_integrate").counters["rows"] == rows
    assert tracer.get("discovery.rediscover").counters["draws"] == budget
