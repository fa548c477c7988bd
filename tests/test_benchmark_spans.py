"""The benchmark's per-layer metrics name the functions they measure.

``perfbench/metrics.py`` reads spans by name, and ``perfbench/spans.py``
makes a span only for a function it wraps.  A metric whose function was
renamed or deleted reads 0 without any error, so this test checks every
name the metrics read against the names the tracer wraps.  It reads the
two perfbench files and changes neither.
"""

import ast
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# functions of metrics.py whose string arguments are span names
SPAN_READERS = {"calls", "inclusive", "has_ancestor"}


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while being built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def metric_span_names() -> set[str]:
    """String arguments of calls, inclusive and has_ancestor, and the
    string keys of by_name[...], in perfbench/metrics.py."""
    tree = ast.parse((PERFBENCH / "metrics.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in SPAN_READERS):
            args = node.args
        elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "by_name"):
            args = [node.slice]
        else:
            continue
        names.update(a.value for a in args
                     if isinstance(a, ast.Constant) and isinstance(a.value, str))
    return names


def test_every_metric_span_is_a_wrapped_function(monkeypatch):
    spans = load_spans(monkeypatch)
    wanted = {name for name in metric_span_names() | set(spans.ANNOTATE)
              if not name.startswith("cli.")}     # command spans, opened by the runner
    assert {"kernels.gram", "explain._bayes_term", "shapley_prior.predict"} <= wanted
    # a listed extra target that is gone is yielded all the same; installed()
    # reads it from the owner's __dict__, so only what is there counts
    wrapped = {name for owner, attr, name in spans._targets() if attr in vars(owner)}
    assert sorted(wanted - wrapped) == []
