"""Answer checker: compares every CLI answer with the document's expectation.

Expectation keys (set by corpus.py):

* ``fields``: answer keys that must equal the given values (extra answer
  keys are ignored, so added diagnostics do not count as wrong);
* ``tag`` and ``refusal_ok``: for ``canon``, the expected case, and whether
  a TowerTooDeep refusal (exit class 3) is a correct answer.

Every returned conjugator is validated by exact conjugation in
:mod:`refmath`: ``g A adj(g) = det(g) B`` for ``similar`` and ``canon``, and
a zero lower-left entry of ``g A adj(g)`` for ``tri``.  Documents sharing a
pair key (a document and its conjugate copy) must give identical canonical
tags and forms, and identical phi vectors.
"""

from __future__ import annotations

import json
from fractions import Fraction

import refmath as rm


class Checker:
    """Checks answers one by one; pair keys are remembered across calls."""

    def __init__(self):
        self.pairs: dict[str, object] = {}
        self.wrong = 0
        self.errors = 0
        self.reasons: list[str] = []

    def check(self, stream: str, line: str, expect: dict, pair: str | None, answer: bytes) -> bool:
        """Record one answer; returns whether it is correct."""
        try:
            ans = json.loads(answer)
            if "error" in ans:
                self.errors += 1
            reason = _verdict(stream, json.loads(line), expect, ans)
            if reason is None and pair is not None:
                reason = self._pair(pair, ans)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError,
                ZeroDivisionError) as exc:
            reason = f"unreadable answer ({exc!r})"
        if reason is None:
            return True
        self.wrong += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{stream}: {reason}; answer {answer[:300]!r}")
        return False

    def _pair(self, key: str, ans: dict) -> str | None:
        if "error" in ans:
            seen = ("error", ans["code"])
        elif "values" in ans:
            seen = ans["values"]
        else:
            seen = (ans["tag"], ans["permutation"], ans["form"], ans.get("extension"))
        first = self.pairs.setdefault(key, seen)
        if first != seen:
            return "a conjugate copy answered differently"
        return None


def _verdict(stream: str, doc: dict, expect: dict, ans: dict) -> str | None:
    if "error" in ans:
        if expect.get("refusal_ok") and ans.get("code") == 3:
            return None
        return "unexpected error"
    for key, value in expect.get("fields", {}).items():
        if ans.get(key) != value:
            return f"{key} = {ans.get(key)!r}, expected {value!r}"
    if stream == "tri" and ans["triangularizable"]:
        return _check_tri_g(doc, ans["g"])
    if stream == "similar" and ans["similar"]:
        return _check_similar_g(doc, ans)
    if stream == "canon":
        return _check_canon(doc, expect, ans)
    return None


def _check_tri_g(doc: dict, g_json) -> str | None:
    R, mats = rm.seq_from_json(doc)
    g = rm.mat_from_json(R, g_json)
    if not R.is_unit(rm.det(R, g)):
        return "triangularizing g is not invertible"
    for m in mats:
        if rm.mmul(R, rm.mmul(R, g, m), rm.adj(R, g))[2] != R.zero():
            return "g does not make every term upper triangular"
    return None


def _check_similar_g(doc: dict, ans: dict) -> str | None:
    R, s1 = rm.seq_from_json(doc["a"])
    _, s2 = rm.seq_from_json(doc["b"])
    g = rm.mat_from_json(R, ans["g"])
    dg = rm.det(R, g)
    if dg == R.zero():
        return "similarity witness is singular"
    if ans.get("det_is_unit") != R.is_unit(dg):
        return "det_is_unit does not match the witness"
    if not all(rm.intertwines(R, g, x, y) for x, y in zip(s1, s2)):
        return "witness does not conjugate a onto b"
    return None


def _lift(R, E, x):
    """Embed a value of the input ring R into the answer ring E."""
    if R.kind == E.kind:
        return x
    if R.kind == "Q" and E.kind == "Qsqrt":
        return (x, Fraction(0))
    raise ValueError(f"cannot embed {R.kind} into {E.kind}")


def _check_canon(doc: dict, expect: dict, ans: dict) -> str | None:
    if ans["tag"] != expect["tag"]:
        return f"tag {ans['tag']!r}, expected {expect['tag']!r}"
    R, mats = rm.seq_from_json(doc)
    perm = ans["permutation"]
    if sorted(perm) != list(range(1, len(mats) + 1)):
        return "permutation is not a permutation of the terms"
    E = rm.ring_from_json(ans["extension"]) if "extension" in ans else R
    F, form = rm.seq_from_json(ans["form"])
    if F.json() != E.json() or len(form) != len(mats):
        return "form is over the wrong ring or has the wrong length"
    g = rm.mat_from_json(E, ans["g"])
    if not E.is_unit(rm.det(E, g)):
        return "canonical conjugator is not invertible"
    for j, f in zip(perm, form):
        a = tuple(_lift(R, E, x) for x in mats[j - 1])
        if not rm.intertwines(E, g, a, f):
            return "g does not conjugate the permuted input onto the form"
    return None
