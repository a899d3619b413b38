"""Checks over the package source itself."""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np

from watchlab.data_model import Dataset
from watchlab.trainer import FMModel, TrainConfig, build_vocab, train

ROOT = Path(__file__).parents[1]


def test_no_assert_statements():
    """`python -O` strips assert statements, so a runtime check must raise."""
    sources = sorted((ROOT / "src" / "watchlab").glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_unused_imports():
    """Every name a module imports is used in it; `__init__.py` re-exports."""
    sources = sorted((ROOT / "src" / "watchlab").glob("*.py"))
    found = []
    for path in sources:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                  if name not in used]
    assert not found, found


def _parameters(module, name):
    return list(inspect.signature(getattr(importlib.import_module(module), name)).parameters)


def test_benchmark_call_contract():
    """The names and parameters that perfbench's tracer and worker reach for
    exist, so a renamed or folded entry point fails here and not only in a
    traced benchmark run."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name, *_ in (*tracing.FUNCTIONS, *tracing.USER_METRICS):
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)
    for module, cls, name, _ in tracing.METHODS:
        assert name in vars(getattr(importlib.import_module(module), cls)), (cls, name)
    for module, name, _ in tracing.USER_METRICS:
        assert "return_counts" in _parameters(module, name), name
    # what the hooks after a call read from its bound arguments
    assert "path" in _parameters("watchlab.data_model", "write_csv")
    assert {"train_set", "config"} <= set(_parameters("watchlab.trainer", "train"))
    assert _parameters("watchlab.correction", "apply_method")[1] == "params"
    # what launch_cli.py passes by keyword
    assert {"args", "prog_name"} <= set(_parameters("watchlab.cli", "main"))
    # what the worker passes by position
    assert _parameters("watchlab.cli", "fit_curves") == ["dataset", "config"]
    assert _parameters("watchlab.cli", "train_and_score") == [
        "dataset", "labels", "splits", "oracle", "config", "seed"]
    assert _parameters("watchlab.estimator", "smooth_curves") == ["raw", "window", "group_counts"]

    # the hook after `train`, run on a stacked fit, counts the epochs the stack ran
    class Recorder:
        def __init__(self):
            self.counts = []

        def count(self, name, value=1):
            self.counts.append((name, value))

    n = 40
    interest = np.arange(n) % 2
    log = Dataset([f"u{i % 5}" for i in range(n)], [f"i{i % 7}" for i in range(n)],
                  np.ones(n), np.full(n, 10), timestamps=np.arange(n), true_interest=interest)
    config = TrainConfig(batch_size=16, epochs=3, patience=3)
    labels = np.column_stack([interest, 1 - interest, np.full(n, 0.5)])
    result = train(FMModel(build_vocab(log), 4), log, labels, log, interest, config)
    recorder = Recorder()
    tracing._after_train(recorder, result, {"train_set": log, "config": config})
    assert recorder.counts == [("trainer.epochs_run", 3), ("trainer.batches", 9)]


def test_every_public_name_has_a_caller_outside_tests():
    """Test-only code lives under tests/: each public top-level def or class
    in the package is used elsewhere in the package (by name or attribute,
    outside its own definition), or named in a demo, the benchmark or the
    README."""
    package = ROOT / "src" / "watchlab"
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    used = set()
    for tree in trees:
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            used |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))} - {own}
    outside = [ROOT / "README.md", *(path for folder in ("demos", "perfbench")
                                     for path in sorted((ROOT / folder).rglob("*"))
                                     if path.suffix in (".py", ".sh"))]
    words = set(re.findall(r"\w+", "\n".join(p.read_text(encoding="utf-8") for p in outside)))
    public = [stmt.name for tree in trees for stmt in tree.body
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not stmt.name.startswith("_")]
    assert public
    unused = [name for name in public if name not in used | words]
    assert not unused, unused
