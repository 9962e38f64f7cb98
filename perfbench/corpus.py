"""Seeded ndjson corpora for the three benchmark workloads.

A workload is a set of streams; each stream is one CLI invocation
(``verb`` plus flags) fed one JSON document per line.  Documents are made
in rounds: round ``r`` of a workload is drawn from its own generator seeded
by ``(workload, seed, r)``, holds a fixed mix of cells (ring, length, kind)
and interleaves the streams in a seeded order that keeps each stream's own
order, so a conjugate copy always follows its original.  The same seed
gives the same documents, and every run measures whole rounds, so every
run sees the same mix.

Each document carries its expected answer, recorded without the deciders
under test: by construction (conjugates of upper-triangular sequences,
pairs related by a known conjugator, conjugate copies), from the GF(p)
oracles in :mod:`refmath` run here at generation time, or from the raw
sigma, Delta and discriminant evaluation there.

Run as a script to write a workload's streams and expected answers::

    python3 perfbench/corpus.py --workload q-long --seed 1 --rounds 2 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import refmath as rm

WORKLOADS = ("gf-verify", "q-long", "mixed-orbit")

# stream name -> CLI arguments before "--ndjson <file>"
STREAMS = {
    "gf-verify": {
        "tri": ["tri", "--method", "construct", "--verify"],
        "analyze": ["analyze", "--verify"],
        "similar": ["similar", "--verify"],
    },
    "q-long": {
        "analyze": ["analyze"],
        "classify": ["classify"],
    },
    "mixed-orbit": {
        "similar": ["similar"],
        "canon": ["canon"],
        "phi": ["invariants", "--phi"],
    },
}

GF_PRIMES = (3, 5, 7, 13)
GF_LENGTHS = (2, 3, 4)
Q_LONG_MIN, Q_LONG_MAX = 12, 30
Q_LONG_PER_ROUND = 7         # triangularizable documents per stream per round
Q_LONG_RANDOM = 3            # random documents per stream per round
ORBIT_N = 5
SQRT2 = rm.QSqrtRing(Fraction(2))


@dataclass
class Doc:
    stream: str
    line: str                 # the JSON document as sent
    expect: dict              # expected answer, see check.py
    pair: str | None = None   # documents sharing a key must answer alike


# ---------------------------------------------------------------------------
# random elements


def rand_elem(rng: Random, R, span: int = 4):
    if R.kind == "GF":
        return rng.randrange(R.p)
    if R.kind == "Z":
        return rng.randint(-span, span)
    if R.kind == "Q":
        return Fraction(rng.randint(-span, span), rng.randint(1, 3))
    if R.kind == "Qsqrt":
        return (Fraction(rng.randint(-span, span), rng.randint(1, 2)),
                Fraction(rng.randint(-2, 2)))
    if R.kind == "Qt":
        return rm.ptrim(Fraction(rng.randint(-span, span)) for _ in range(rng.randrange(3) + 1))
    raise ValueError(R.kind)


def rand_mat(rng: Random, R):
    return tuple(rand_elem(rng, R) for _ in range(4))


def rand_seq(rng: Random, R, n: int):
    return [rand_mat(rng, R) for _ in range(n)]


def rand_group(rng: Random, R):
    """A random conjugator with unit determinant over R."""
    if R.kind in ("Z", "Qt"):
        # product of shears: determinant 1, entries stay in the ring
        g = (R.one(), R.zero(), R.zero(), R.one())
        for i in range(3):
            x = rand_elem(rng, R, 2)
            if R.kind == "Qt":
                x = x[:2]
            shear = (R.one(), x, R.zero(), R.one()) if i % 2 == 0 else (R.one(), R.zero(), x, R.one())
            g = rm.mmul(R, g, shear)
        return g
    while True:
        g = tuple(rand_elem(rng, R, 3) for _ in range(4))
        if R.is_unit(rm.det(R, g)):
            return g


def upper_conj_seq(rng: Random, R, n: int):
    """g T g^-1 for random upper-triangular T; about one term in five is
    alpha * T_j + beta for an earlier j, so the maximal reduction drops it."""
    terms = []
    for k in range(n):
        if k and rng.random() < 0.2:
            a, b, _, d = terms[rng.randrange(k)]
            alpha, beta = rand_elem(rng, R), rand_elem(rng, R)
            if alpha == R.zero():
                alpha = R.one()
            terms.append((R.add(R.mul(alpha, a), beta), R.mul(alpha, b), R.zero(),
                          R.add(R.mul(alpha, d), beta)))
        else:
            terms.append((rand_elem(rng, R), rand_elem(rng, R), R.zero(), rand_elem(rng, R)))
    g = rand_group(rng, R)
    return rm.conj_seq(R, g, terms)


def obstructed_seq(rng: Random, R, n: int):
    """A random sequence with sigma(A1, A2) != 0: a certificate that it is
    neither triangularizable nor commutative."""
    while True:
        mats = rand_seq(rng, R, n)
        if rm.sigma(R, mats[0], mats[1]) != R.zero():
            return mats


def invariant_mismatch(R, s1, s2) -> bool:
    """Some term differs in trace or determinant: a non-similarity certificate."""
    return any(rm.trace(R, x) != rm.trace(R, y) or rm.det(R, x) != rm.det(R, y)
               for x, y in zip(s1, s2))


def doc_line(R, mats) -> str:
    return json.dumps(rm.seq_to_json(R, mats), separators=(",", ":"))


def pair_line(R, s1, s2) -> str:
    return json.dumps({"a": rm.seq_to_json(R, s1), "b": rm.seq_to_json(R, s2)},
                      separators=(",", ":"))


# ---------------------------------------------------------------------------
# expected answers


def structure(R, mats) -> tuple[dict, list[list[int]]]:
    classes = rm.commuting_classes(R, mats)
    return {"ring": R.json(), "n": len(mats),
            "commutative": len(classes) <= 1,
            "all_scalar": not classes,
            "reduced_length": len(classes),
            "kept_indices": [cl[0] for cl in classes]}, classes


def semisimple_closure(R, mats, classes, stable: bool) -> bool:
    """Stable, or commutative and diagonalizable (all scalar, or a non-scalar
    term with two distinct eigenvalues over the closure)."""
    if stable or not classes:
        return True
    return len(classes) == 1 and rm.disc(R, mats[classes[0][0] - 1]) != R.zero()


def expect_gf_analysis(R, mats) -> dict:
    """Full analysis over GF(p) from the oracles and the raw obstructions."""
    fields, classes = structure(R, mats)
    closure_lines = rm.common_lines(R.p, mats, ext=True, limit=2)
    stable = closure_lines == 0
    tag = rm.canonical_tag(R, mats, classes)
    if stable != tag.startswith("Stable"):
        raise RuntimeError(f"reference disagrees with itself on {mats}")
    fields.update(triangularizable=rm.common_lines(R.p, mats, ext=False, limit=1) > 0,
                  stable=stable,
                  semisimple=stable or closure_lines >= 2,
                  tag=tag)
    return fields


def expect_field_analysis(R, mats, triangular: bool) -> dict:
    """Analysis over Q or Z for a sequence built triangularizable over R
    (``triangular``) or carrying a sigma(A1, A2) != 0 certificate."""
    fields, classes = structure(R, mats)
    fields["triangularizable"] = triangular
    if R.is_field:
        stable = not triangular
        fields.update(stable=stable,
                      semisimple=semisimple_closure(R, mats, classes, stable),
                      tag=rm.canonical_tag(R, mats, classes,
                                           obstructed=None if stable else False))
    return fields


def canon_refusal_allowed(R, mats, tag: str, classes) -> bool:
    """Whether canonicalizing may refuse with TowerTooDeep: over Q(sqrt d)
    the eigenvalues of the anchor term must lie in the ring itself."""
    if R.kind != "Qsqrt" or tag in ("AllScalar", "CommJordanLike"):
        return False
    zero = R.zero()
    if tag == "Stable1b":
        return True   # the anchor square root is taken after a Jordan change of basis
    if tag == "Stable1a":
        j, k = rm.first_sigma_pair(R, mats)
        anchor = mats[k] if rm.disc(R, mats[j]) == zero else mats[j]
    elif tag == "Stable1c":
        anchor = mats[rm.first_delta_triple(R, mats)[0]]
    elif tag == "Tri2b":
        anchor = next(mats[cl[0] - 1] for cl in classes if rm.disc(R, mats[cl[0] - 1]) != zero)
    else:   # Tri2a, CommDiagonal: the first kept term
        anchor = mats[classes[0][0] - 1]
    return R.sqrt(rm.disc(R, anchor)) is None


def phi_values(R, mats) -> list:
    t = lambda *w: rm.trace_word(R, mats, w)
    vals = [t(1), t(1, 1), t(2), t(2, 2), t(1, 2)]
    for k in range(3, len(mats) + 1):
        vals += [t(k), t(1, k), t(2, k), R.sub(t(1, 2, k), t(k, 2, 1))]
    return [R.to_json(v) for v in vals]


# ---------------------------------------------------------------------------
# rounds


def _gf_verify(rng: Random, r: int) -> dict[str, list[Doc]]:
    out = {name: [] for name in STREAMS["gf-verify"]}
    for p in GF_PRIMES:
        R = rm.GFRing(p)
        for n in GF_LENGTHS:
            for build in (upper_conj_seq, rand_seq):
                mats = build(rng, R, n)
                fields = expect_gf_analysis(R, mats)
                out["tri"].append(Doc("tri", doc_line(R, mats), {
                    "fields": {"triangularizable": fields["triangularizable"],
                               "reduced_length": fields["reduced_length"],
                               "verified": True}}))
                mats = build(rng, R, n)
                out["analyze"].append(Doc("analyze", doc_line(R, mats), {
                    "fields": dict(expect_gf_analysis(R, mats), verified=True)}))
            # a pair related by a known conjugator, and an independent pair
            s1 = rand_seq(rng, R, n)
            g = rand_group(rng, R)
            s2 = rm.conj_seq(R, g, s1)
            out["similar"].append(Doc("similar", pair_line(R, s1, s2), {
                "fields": {"similar": True, "verified": True}}))
            s1, s2 = upper_conj_seq(rng, R, n), upper_conj_seq(rng, R, n)
            out["similar"].append(Doc("similar", pair_line(R, s1, s2), {
                "fields": {"similar": rm.gf_similar(p, s1, s2), "verified": True}}))
    return out


def q_long_lengths(r: int) -> list[int]:
    """Seven lengths spaced 3 apart, shifted by one each round: consecutive
    rounds together cover every n in 12..30, so percentiles of a run's
    latencies fall on a smooth spread of lengths rather than on the edge of
    a cluster."""
    span = Q_LONG_MAX - Q_LONG_MIN + 1
    return [Q_LONG_MIN + (3 * i + r) % span for i in range(Q_LONG_PER_ROUND)]


def _q_long(rng: Random, r: int) -> dict[str, list[Doc]]:
    out = {name: [] for name in STREAMS["q-long"]}
    Q, Z = rm.QRing(), rm.ZRing()
    for name in out:
        # one analyze document per round is over Z, at a length rotating with r
        z_slot = r % Q_LONG_PER_ROUND if name == "analyze" else None
        for i, n in enumerate(q_long_lengths(r)):
            R = Z if i == z_slot else Q
            mats = upper_conj_seq(rng, R, n)
            out[name].append(Doc(name, doc_line(R, mats),
                                 {"fields": expect_field_analysis(R, mats, True)}))
        for _ in range(Q_LONG_RANDOM):
            mats = obstructed_seq(rng, Q, rng.randint(Q_LONG_MIN, Q_LONG_MAX))
            out[name].append(Doc(name, doc_line(Q, mats),
                                 {"fields": expect_field_analysis(Q, mats, False)}))
    for doc in out["classify"]:
        doc.expect["fields"] = {k: doc.expect["fields"][k] for k in
                                ("stable", "semisimple", "triangularizable",
                                 "commutative", "reduced_length")}
    return out


def _mixed_orbit(rng: Random, r: int) -> dict[str, list[Doc]]:
    out = {name: [] for name in STREAMS["mixed-orbit"]}
    n = ORBIT_N
    for R in (rm.QRing(), rm.ZRing(), rm.QtRing(), SQRT2):
        s1 = rand_seq(rng, R, n)
        g = rand_group(rng, R)
        out["similar"].append(Doc("similar", pair_line(R, s1, rm.conj_seq(R, g, s1)),
                                  {"fields": {"similar": True}}))
        s1 = rand_seq(rng, R, n)
        while True:
            s2 = rand_seq(rng, R, n)
            if invariant_mismatch(R, s1, s2):
                break
        out["similar"].append(Doc("similar", pair_line(R, s1, s2), {"fields": {"similar": False}}))
    for R in (rm.QRing(), SQRT2):
        for kind, build in (("random", obstructed_seq), ("upper", upper_conj_seq)):
            mats = build(rng, R, n)
            classes = rm.commuting_classes(R, mats)
            tag = rm.canonical_tag(R, mats, classes,
                                   obstructed=None if kind == "random" else False)
            expect = {"tag": tag, "refusal_ok": canon_refusal_allowed(R, mats, tag, classes)}
            key = f"canon-{r}-{R.kind}-{kind}"
            g = rand_group(rng, R)
            copy = rm.conj_seq(R, g, mats)
            for m in (mats, copy):
                out["canon"].append(Doc("canon", doc_line(R, m), expect, key))
    # three phi pairs put the median latency of the round inside one class
    # of documents (similar over Q) instead of on the edge between two
    R = rm.QRing()
    for i in range(3):
        mats = obstructed_seq(rng, R, n)
        expect = {"fields": {"ring": R.json(), "n": n, "values": phi_values(R, mats)}}
        g = rand_group(rng, R)
        for m in (mats, rm.conj_seq(R, g, mats)):
            out["phi"].append(Doc("phi", doc_line(R, m), expect, f"phi-{r}-{i}"))
    return out


_BUILDERS = {"gf-verify": _gf_verify, "q-long": _q_long, "mixed-orbit": _mixed_orbit}


def make_round(workload: str, seed: int, r: int) -> list[Doc]:
    """Round r of a workload: its streams interleaved in a seeded order."""
    rng = Random(f"{workload}:{seed}:{r}")
    per_stream = _BUILDERS[workload](rng, r)
    queues = {k: list(reversed(v)) for k, v in per_stream.items() if v}
    docs = []
    while queues:
        names = sorted(queues)
        name = rng.choices(names, weights=[len(queues[k]) for k in names])[0]
        docs.append(queues[name].pop())
        if not queues[name]:
            del queues[name]
    return docs


def write_round(round_docs: list[Doc], out_dir: str) -> None:
    """Append a round's documents and expected answers to the stream files."""
    os.makedirs(out_dir, exist_ok=True)
    for stream in sorted({doc.stream for doc in round_docs}):
        docs = [doc for doc in round_docs if doc.stream == stream]
        with open(os.path.join(out_dir, stream + ".ndjson"), "a", encoding="utf-8") as fh:
            fh.writelines(doc.line + "\n" for doc in docs)
        with open(os.path.join(out_dir, stream + ".expect.ndjson"), "a", encoding="utf-8") as fh:
            fh.writelines(json.dumps({"expect": doc.expect, "pair": doc.pair}) + "\n"
                          for doc in docs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--out", required=True, help="directory for <stream>.ndjson files")
    args = ap.parse_args(argv)
    for r in range(args.rounds):
        write_round(make_round(args.workload, args.seed, r), args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
