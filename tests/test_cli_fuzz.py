"""Hostile documents through the CLI: every verb ends with exit 0, 2 or 3,
in bounded time, with no exception escaping and no traceback printed."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matseq
from matseq.cli import main

# per-document time bound, the one the other robustness tests use
BOUND_S = 20

VERBS = [
    ["analyze", "A", "--verify"],
    ["tri", "A", "--method", "construct", "--verify"],
    ["similar", "A", "B", "--verify"],
    ["canon", "A"],
    ["invariants", "A", "--phi"],
]

GOOD_RINGS = [
    {"kind": "Q"}, {"kind": "Z"}, {"kind": "Qt"}, {"kind": "Qsqrt", "d": 2},
    {"kind": "GF", "p": 2}, {"kind": "GF", "p": 3}, {"kind": "GF", "p": 13},
    {"kind": "GF", "p": "13"}, {"kind": "GF", "p": 17},
]
ODD_RINGS = [
    {"kind": "GF", "p": 4}, {"kind": "GF", "p": 3.0}, {"kind": "GF", "p": -5},
    {"kind": "GF"}, {"kind": "Qsqrt", "d": 4}, {"kind": "Qsqrt"}, {"kind": "W"}, "Q", None,
]

ODD_SCALARS = st.one_of(
    st.sampled_from(["", " 1", "1e5", "0x10", "--1", "1/0", "-3/-4", "1.5", ".5",
                     "nan", "inf", "½", "1_000", "+3", "٣", "1/2/3"]),
    st.integers(1, 5000).map(lambda k: "9" * k),
    st.integers(1, 5000).map(lambda k: "1/" + "7" * k),
    st.integers(-10**40, 10**40),
    st.floats(allow_nan=True),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-3, 3), max_size=2),
    st.just({"a": 1}),
)


def good_scalars(ring):
    """Values the ring accepts, so most documents reach the deciders."""
    small = st.integers(-4, 4)
    kind = ring.get("kind") if isinstance(ring, dict) else None
    if kind == "Qt":
        return st.lists(small, max_size=3)
    if kind == "Qsqrt":
        return st.builds(lambda a, b: {"a": a, "b": b, "d": ring.get("d")}, small, small)
    return small | small.map(str)


@st.composite
def documents(draw):
    ring = draw(st.sampled_from(GOOD_RINGS * 3 + ODD_RINGS))
    scalars = good_scalars(ring)
    n = draw(st.integers(1, 6))
    mats = [[[draw(scalars), draw(scalars)], [draw(scalars), draw(scalars)]]
            for _ in range(n)]
    doc = {"ring": ring, "matrices": mats}
    mutation = draw(st.sampled_from(["none"] * 8 + ["odd_entry"] * 3
                                    + ["no_terms", "drop_ring", "drop_matrices", "extra_key",
                                       "matrices_type", "bad_shape", "not_a_dict"]))
    if mutation == "odd_entry":
        row = mats[draw(st.integers(0, n - 1))][draw(st.integers(0, 1))]
        row[draw(st.integers(0, 1))] = draw(ODD_SCALARS)
    elif mutation == "no_terms":
        doc["matrices"] = []
    elif mutation == "drop_ring":
        del doc["ring"]
    elif mutation == "drop_matrices":
        del doc["matrices"]
    elif mutation == "extra_key":
        doc["extra"] = draw(ODD_SCALARS)
    elif mutation == "matrices_type":
        doc["matrices"] = draw(st.sampled_from([{}, "[[1]]", 3, [[1, 2, 3]], [[[1], [2]]]]))
    elif mutation == "bad_shape":
        mats[draw(st.integers(0, n - 1))] = draw(
            st.sampled_from([[[1, 2]], [[1, 2], [3]], [1, 2, 3, 4], [[1, 2], [3, 4], [5, 6]]]))
    elif mutation == "not_a_dict":
        doc = draw(st.sampled_from([[], "doc", 1, None]))
    return doc


def run_verb(verb, doc_a, doc_b):
    """main() on the two documents; returns (exit code, seconds)."""
    with tempfile.TemporaryDirectory() as d:
        paths = {}
        for key, doc in (("A", doc_a), ("B", doc_b)):
            paths[key] = os.path.join(d, key + ".json")
            with open(paths[key], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        argv = [paths.get(a, a) for a in verb]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, time.perf_counter() - start


@pytest.mark.parametrize("verb", VERBS, ids=lambda v: " ".join(a for a in v if a not in "AB"))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_documents(verb, data):
    doc_a = data.draw(documents())
    doc_b = data.draw(st.one_of(st.just(doc_a), documents()))
    code, seconds = run_verb(verb, doc_a, doc_b)
    assert code in (0, 2, 3), (verb, doc_a, doc_b)
    assert seconds < BOUND_S, (verb, doc_a, doc_b)


@pytest.mark.parametrize("verb,doc", [
    (["analyze", "--verify"], {"ring": {"kind": "GF", "p": 17}, "matrices": [[[1, 2], [3, 4]]]}),
    (["tri", "--verify"], {"ring": {"kind": "GF", "p": 13}, "matrices": [[[1.5, 2], [3, 4]]]}),
    (["canon"], {"ring": {"kind": "Q"}, "matrices": [[["9" * 5000, "0"], ["0", "1"]]]}),
    (["invariants", "--phi"], {"ring": {"kind": "GF", "p": 2},
                               "matrices": [[[1, 0], [0, 0]], [[0, 1], [1, 0]]]}),
    (["similar", "--verify"], {"ring": {"kind": "Qt"}, "matrices": [[["1", "2"], ["3", "4"]]]}),
], ids=["gf17-verify", "float-entry", "over-digit-limit", "phi-char-2", "qt-bad-value"])
def test_subprocess_reports_without_traceback(verb, doc, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    files = [str(path), str(path)] if verb[0] == "similar" else [str(path)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(matseq.__file__)))
    r = subprocess.run([sys.executable, "-m", "matseq.cli", verb[0], *files, *verb[1:]],
                       env=env, capture_output=True, text=True, timeout=BOUND_S)
    assert r.returncode in (2, 3), r.stderr
    assert r.stderr.startswith("matseq:") and "Traceback" not in r.stderr
