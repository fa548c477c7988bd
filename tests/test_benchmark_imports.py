"""Every ssvkit name the benchmark uses still exists.

``perfbench/checks.py``, ``spans.py``, ``test_perfbench.py`` and ``run.py``
reach into ssvkit by attribute (``cme.embedding_weights``,
``kernels.FeatureSubset.empty``, ``numerics.solve_regularized``, ...), and
``spans.py`` names more entry points as strings (``LAYERS``,
``EXTRA_TARGETS``, the ``ANNOTATE`` keys).  Deleting or renaming one of them
passes every other tier-1 test and fails only when the benchmark runs.  This
test reads those files with ``ast``, changes none of them, and resolves every
such name against the package.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FILES = ("checks.py", "spans.py", "test_perfbench.py", "run.py")


def attribute_chains(tree: ast.AST) -> set[str]:
    """'module.attr...' for every attribute chain rooted at a name that a
    ``from ssvkit import ...`` anywhere in the file binds, plus the modules
    themselves and those of ``import ssvkit.<module>``."""
    bound = {}
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ssvkit":
            bound.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            chains.update(alias.name.removeprefix("ssvkit.") for alias in node.names
                          if alias.name.startswith("ssvkit."))
    chains.update(bound.values())
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in bound:
            chains.add(".".join([bound[node.id], *reversed(parts)]))
    return chains


def span_targets(tree: ast.AST) -> set[str]:
    """The layers, the ``EXTRA_TARGETS`` and the ``ANNOTATE`` keys of spans.py."""
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            values[node.targets[0].id] = node.value
    names = set(ast.literal_eval(values["LAYERS"]))
    names.update(f"{layer}.{dotted}"
                 for layer, dotted in ast.literal_eval(values["EXTRA_TARGETS"]))
    names.update(ast.literal_eval(key) for key in values["ANNOTATE"].keys)
    return names


def benchmark_names() -> set[str]:
    names = set()
    for name in FILES:
        tree = ast.parse((PERFBENCH / name).read_text())
        names |= attribute_chains(tree)
        if name == "spans.py":
            names |= span_targets(tree)
    return names


def unresolved(dotted: str) -> str | None:
    """None if ssvkit.<dotted> exists, else the first part that is missing."""
    module, *attrs = dotted.split(".")
    try:
        owner = importlib.import_module(f"ssvkit.{module}")
    except ModuleNotFoundError:
        return f"ssvkit.{module}"
    for i, attr in enumerate(attrs):
        if not hasattr(owner, attr):
            return ".".join([module, *attrs[:i + 1]])
        owner = getattr(owner, attr)
    return None


def test_every_name_the_benchmark_uses_resolves():
    names = benchmark_names()
    # the parser finds the names it is meant to guard
    assert {"cme.embedding_weights", "kernels.FeatureSubset.empty", "cme.EmbeddingBatch.tensor",
            "numerics.solve_regularized", "explain.ExplanationBatch.to_json",
            "numerics.DEFAULT_MAX_JITTER", "gp.GPPosterior.from_json"} <= names
    missing = sorted(filter(None, map(unresolved, names)))
    assert missing == []
