"""Property test of the CLI input boundary over malformed CSV and JSON files.

Every command runs in-process through ``click.testing.CliRunner``.  Each
input is a valid file with up to two random mutations (a cell, entry or
array element replaced by junk, a cell or entry dropped or added) or, now
and then, any JSON value at all.  Whatever the file holds, the command
exits 0, 2 (input) or 3 (numerics), no exception escapes, no
``RuntimeWarning`` (such as a numpy floating-point warning) is emitted, and a
failure prints exactly one ``error:`` line.
"""

import json
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from click.testing import CliRunner  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ssvkit import cli  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)

SMALL = st.floats(-3, 3)
NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10, 10),
    st.sampled_from([0.0, 1e-300, 1e-199, 3.3e154, 1e300, 1.7e308, 10 ** 400]),
)
CELL = st.one_of(
    NUMBER.map(repr),
    st.sampled_from(["", " ", "nan", "-inf", "1e999", "abc", '"1,2"', "1 2"]),
    st.text(max_size=3),
)
JSON_VALUE = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBER, st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=8,
)


def matrix(draw, *shape, elements=SMALL):
    return np.array(draw(st.lists(elements, min_size=int(np.prod(shape)),
                                  max_size=int(np.prod(shape)))),
                    dtype=object).reshape(shape)


def psd(draw, m):
    B = matrix(draw, m, m).astype(float)
    return B @ B.T


@st.composite
def csv_text(draw, names):
    """A numeric CSV with the columns ``names`` in any order, mutated."""
    table = [draw(st.permutations(names))]
    table += [[repr(v) for v in row]
              for row in matrix(draw, draw(st.integers(0, 5)), len(names))]
    for _ in range(draw(st.integers(0, 2))):
        row = table[draw(st.integers(0, len(table) - 1))]
        kind = draw(st.sampled_from(["cell", "drop", "add"]))
        if kind == "cell" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(CELL)
        elif kind == "drop" and row:
            row.pop()
        else:
            row.append(draw(CELL))
    return "\n".join(",".join(row) for row in table) + "\n"


def poke(draw, value):
    """``value`` with one nested entry replaced by junk."""
    if isinstance(value, list) and value:
        i = draw(st.integers(0, len(value) - 1))
        return value[:i] + [poke(draw, value[i])] + value[i + 1:]
    if isinstance(value, dict) and value:
        key = draw(st.sampled_from(sorted(value)))
        return {**value, key: poke(draw, value[key])}
    return draw(st.one_of(NUMBER, JSON_VALUE))


def mutated(draw, doc):
    """The JSON text of ``doc`` after up to two mutations, or of any value."""
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(doc)))
        kind = draw(st.sampled_from(["poke", "drop", "replace", "reshape"]))
        if kind == "poke":
            doc[key] = poke(draw, doc[key])
        elif kind == "drop":
            del doc[key]
        elif kind == "replace":
            doc[key] = draw(JSON_VALUE)
        else:
            shape = draw(st.lists(st.integers(0, 3), max_size=3))
            doc[key] = matrix(draw, *shape, elements=NUMBER).tolist()
        if not doc:
            break
    return json.dumps(draw(st.sampled_from([doc, doc, doc, None])) or draw(JSON_VALUE))


@st.composite
def posterior(draw):
    """A posterior over two features, mutated."""
    m = draw(st.integers(1, 4))
    doc = {
        "inducing_points": matrix(draw, m, 2).tolist(),
        "mean_at_inducing": matrix(draw, m).tolist(),
        "cov_at_inducing": psd(draw, m).tolist(),
        "kernel": {"variance": draw(st.floats(0.1, 3)),
                   "lengthscales": matrix(draw, 2, elements=st.floats(0.1, 3)).tolist()},
        "noise": draw(st.floats(1e-3, 1)),
    }
    return mutated(draw, doc)


@st.composite
def explanations(draw):
    """An explain JSON of one to three features, mutated."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    doc = {
        "means": matrix(draw, n, d).tolist(),
        "X": matrix(draw, n, d).tolist(),
        "cov": [psd(draw, d).tolist() for _ in range(n)],
        "feature_names": draw(st.lists(st.text(max_size=2), min_size=d, max_size=d)),
    }
    return mutated(draw, doc)


def assert_clean_exit(result):
    assert result.exit_code in (0, 2, 3), (result.exit_code, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        result.exc_info
    if result.exit_code:
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


def invoke(*args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = CliRunner().invoke(cli.main, [str(a) for a in args])
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, (args, runtime)
    return result


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A fitted two-feature posterior and instances to explain with it."""
    path = tmp_path_factory.mktemp("fuzz")
    X = np.random.default_rng(3).normal(size=(8, 2))
    rows = [",".join(repr(float(v)) for v in (*x, np.sin(x[0]))) for x in X]
    (path / "train.csv").write_text("a,b,t\n" + "\n".join(rows) + "\n")
    (path / "inst.csv").write_text("a,b\n0.1,0.2\n-0.3,0.4\n")
    assert invoke("fit", "--data", path / "train.csv", "--target", "t",
                  "-o", path / "post.json").exit_code == 0
    return path


@FUZZ
@given(text=csv_text(["a", "b", "t"]))
def test_fit_on_any_csv(work, text):
    (work / "in.csv").write_text(text)
    assert_clean_exit(invoke("fit", "--data", work / "in.csv", "--target", "t",
                             "-o", work / "out.json"))


@FUZZ
@given(text=csv_text(["a", "b"]), algo=st.sampled_from(["gpshap", "bayesgpshap"]))
def test_explain_on_any_csv(work, text, algo):
    (work / "in.csv").write_text(text)
    assert_clean_exit(invoke("explain", "--posterior", work / "post.json", "--algo", algo,
                             "--instances", work / "in.csv", "-o", work / "out.json"))


@FUZZ
@given(text=posterior())
def test_explain_on_any_posterior(work, text):
    (work / "in.json").write_text(text)
    assert_clean_exit(invoke("explain", "--posterior", work / "in.json",
                             "--instances", work / "inst.csv", "-o", work / "out.json"))


@FUZZ
@given(text=explanations())
def test_analyze_on_any_json(work, text):
    (work / "in.json").write_text(text)
    assert_clean_exit(invoke("analyze", "--explanations", work / "in.json",
                             "--prefix", work / "out"))


@FUZZ
@given(text=st.one_of(explanations(), csv_text(["x_1", "x_2", "phi_1", "phi_2"])))
def test_predict_explain_on_any_explanations(work, text):
    (work / "in.txt").write_text(text)     # no .json suffix: the content decides
    assert_clean_exit(invoke("predict-explain", "--explanations", work / "in.txt",
                             "--instances", work / "inst.csv", "--anchors", "3",
                             "-o", work / "out.json"))
