"""Determinism guard: every random stream keeps its bits.

Model bytes, MDAV labels, forget draws and SISA deals are all functions of
these streams, so a change to how a stream is built (a reordered entropy
list, another bit generator) silently changes every saved artifact.  The
pins below were taken from ``Generator(PCG64(SeedSequence([7, TAG])))``.
"""
import ast
import hashlib
from pathlib import Path

import pytest

import privforget
from privforget import seeds
from privforget.data import DataError

STREAM_SHA256 = {
    "EPOCH_SHUFFLE": "f12a62c11591d78b444e9b8dba7a98cfe567c34440fb1c18f6bfd2cfa9bf0434",
    "FORGET_DRAW": "8f56e8254e5be845b270de564c2236346e6018e2feb2115856969191fedb51bc",
    "DP_NOISE": "8d031a3f17d98f02ae9668814cb6f4ebe51d8cc5c5ae6dd583c5d119a036e02e",
    "GLOROT_INIT": "571622707137428d55e94ca56697c73a77b6e5101041fcf5780d65101d03c2a7",
    "SISA_DEAL": "88f07cc84fc49bc2f95d7a0ad99c6114e25d9c78c2d71e240ab24115dd91ca30",
    "SISA_SHARD_INIT": "c24cd27176dfcff14e8115b9724a1af1283def1256b6e32c0ceb412387f10310",
    "SISA_SLICE": "ea25fa0543a83210606a9da369bb83e9f80b91c991019b5cd7429493d2325d0c",
    "MIA_SUBSAMPLE": "155c8b7b46bd0bea98f0b5927ab203ae3704c01f64b3aceeb32c8d0a5e2f8e06",
}


@pytest.mark.parametrize("tag", sorted(STREAM_SHA256))
def test_stream_first_draws_pinned(tag):
    draws = seeds.stream(7, getattr(seeds, tag)).random(16)
    assert hashlib.sha256(draws.tobytes()).hexdigest() == STREAM_SHA256[tag]


def test_derive_pinned_for_sisa_tags():
    assert seeds.derive(7, seeds.SISA_SHARD_INIT, 1) == 4109687493
    assert seeds.derive(7, seeds.SISA_SLICE, 1, 2) == 945000477


def test_negative_parts_refused():
    with pytest.raises(DataError, match="-5"):
        seeds.stream(-5, seeds.FORGET_DRAW)
    with pytest.raises(DataError, match="-1"):
        seeds.derive(0, seeds.SISA_SLICE, -1, 0)


def test_streams_built_only_in_seeds_module():
    package = Path(privforget.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "seeds.py":
            continue
        text = path.read_text()
        assert "SeedSequence(" not in text and "PCG64(" not in text, path.name


def _imported_modules(tree) -> set[str]:
    """Every module name an import statement anywhere in tree mentions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


def test_model_and_scoring_modules_import_neither_each_other_nor_lazily():
    """mlp.py is only the model and attack.py only scores probability matrices:
    neither imports the other, and neither imports inside a function."""
    package = Path(privforget.__file__).parent
    trees = {name: ast.parse((package / f"{name}.py").read_text()) for name in ("mlp", "attack")}
    assert "attack" not in _imported_modules(trees["mlp"])
    assert "mlp" not in _imported_modules(trees["attack"])
    for name, tree in trees.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                assert not _imported_modules(func), (name, func.lineno)
