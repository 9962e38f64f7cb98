"""Command-line front end: JSON in, JSON out, deterministic exit codes.

Exit codes: 0 = decided, 2 = input/schema error, 3 = unsupported ring or
characteristic, 4 = internal inconsistency (including a criteria/oracle
disagreement under --verify).

Verbs: analyze, tri, similar, classify, canon, invariants, reconstruct,
oracle.  ``--ndjson`` switches the single-input verbs to batch mode, one
JSON document per input line, one result line each.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .canonical import canonicalize, classify as canonical_classify, reconstruct_semisimple, reconstruct_triangular
from .errors import Char2Unsupported, InternalInconsistency, MatseqError, TooLarge, UnsupportedRing
from .invariants import all_trace_words, big_delta_explicit, sigma_explicit, tau
from .matcore import MatSeq, matseq_from_json
from .oracle import brute_similar, brute_triangularizable
from .rings import ring_to_json
from .similarity import (
    PhiVector,
    PsiValue,
    are_similar,
    is_semisimple,
    is_stable,
    phi_prime,
    psi_prime,
)
from .triangular import (
    Profile,
    is_commutative,
    is_triangularizable,
    is_triangularizable_fast,
    triangularize,
)

# the default invariants report refuses sequences with more Delta triples
MAX_REPORT_TRIPLES = 20_000
# ndjson mode frees cyclic garbage with a full collection every so many lines
GC_EVERY_LINES = 1_000


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _verify(out: dict, key: str, what: str, oracle, *seqs: MatSeq) -> None:
    """--verify: check the verdict out[key] against the brute-force oracle
    over a finite field and mark out as verified; other rings are skipped."""
    if seqs[0].ring.is_finite:
        if (oracle(*seqs) is not None) != out[key]:
            raise InternalInconsistency(f"oracle disagrees with the criteria on {what}")
        out["verified"] = True


# ---------------------------------------------------------------------------
# verb handlers (operate on parsed JSON objects so batch mode can reuse them)


def _cmd_analyze(obj, verify: bool):
    s = matseq_from_json(obj)
    p = Profile(s)
    red = p.reduction
    verdict = is_triangularizable(p)
    out = {
        "ring": ring_to_json(s.ring),
        "n": s.n,
        "commutative": is_commutative(p),
        "all_scalar": red.all_scalar,
        "reduced_length": red.reduced_length,
        "kept_indices": list(red.kept_indices),
        "triangularizable": verdict,
    }
    if s.ring.is_field:
        out["stable"] = is_stable(p)
        out["semisimple"] = is_semisimple(p)
        try:
            out["tag"] = canonical_classify(p).value
        except (UnsupportedRing, Char2Unsupported):
            pass
    if verify:
        _verify(out, "triangularizable", "triangularizability", brute_triangularizable, s)
    return out


def _cmd_tri(obj, method: str, verify: bool):
    s = matseq_from_json(obj)
    p = Profile(s)
    out = {"triangularizable": None, "reduced_length": p.reduction.reduced_length}
    if method == "flo":
        out["triangularizable"] = is_triangularizable(p)
    elif method == "fast":
        out["triangularizable"] = is_triangularizable_fast(p)
    else:
        witness = triangularize(p)
        out["triangularizable"] = witness is not None
        if witness is not None:
            out["g"] = witness.g.to_json()
    if verify:
        _verify(out, "triangularizable", "triangularizability", brute_triangularizable, s)
    return out


def _cmd_similar(obj_a, obj_b, verify: bool):
    s1 = matseq_from_json(obj_a)
    s2 = matseq_from_json(obj_b)
    witness = are_similar(s1, s2)
    out = {"similar": witness is not None}
    if witness is not None:
        out["g"] = witness.m.to_json()
        out["det_is_unit"] = witness.det_is_unit()
    if verify:
        _verify(out, "similar", "similarity", brute_similar, s1, s2)
    return out


def _cmd_classify(obj):
    s = matseq_from_json(obj)
    p = Profile(s)
    return {
        "stable": is_stable(p),
        "semisimple": is_semisimple(p),
        "triangularizable": is_triangularizable(p),
        "commutative": is_commutative(p),
        "reduced_length": p.reduction.reduced_length,
    }


def _cmd_canon(obj):
    s = matseq_from_json(obj)
    return canonicalize(s).to_json()


def _cmd_invariants(obj, phi: bool, psi: bool, all_words: int | None):
    s = matseq_from_json(obj)
    if phi:
        return phi_prime(s).to_json()
    if psi:
        return psi_prime(s).to_json()
    if all_words is not None:
        words = all_trace_words(s, all_words)
        items = [{"word": list(w), "value": v.to_json()}
                 for w, v in sorted(words.items(), key=lambda kv: (len(kv[0]), kv[0]))]
        return {"ring": ring_to_json(s.ring), "n": s.n,
                "max_len": all_words, "words": items}
    n = s.n
    if n * (n - 1) * (n - 2) // 6 > MAX_REPORT_TRIPLES:
        raise TooLarge(f"the invariants report of {n} terms has more than "
                       f"{MAX_REPORT_TRIPLES} Delta triples")
    out = {
        "ring": ring_to_json(s.ring),
        "n": n,
        "trace": [t.trace().to_json() for t in s.terms],
        "det": [t.det().to_json() for t in s.terms],
        "disc": [t.disc().to_json() for t in s.terms],
        "tau": [{"j": j, "k": k, "value": tau(s.term(j), s.term(k)).to_json()}
                for j in range(1, n + 1) for k in range(j + 1, n + 1)],
        "sigma": [{"j": j, "k": k, "value": sigma_explicit(s.term(j), s.term(k)).to_json()}
                  for j in range(1, n + 1) for k in range(j + 1, n + 1)],
        "delta": [{"j": j, "k": k, "l": l,
                   "value": big_delta_explicit(s.term(j), s.term(k), s.term(l)).to_json()}
                  for j in range(1, n + 1)
                  for k in range(j + 1, n + 1)
                  for l in range(k + 1, n + 1)],
    }
    return out


def _cmd_reconstruct(obj, form: str):
    if form == "ss":
        v = PhiVector.from_json(obj)
        return reconstruct_semisimple(v).to_json()
    w = PsiValue.from_json(obj)
    first, flip = reconstruct_triangular(w)
    return {"solutions": [first.to_json(), flip.to_json()]}


def _cmd_oracle_tri(obj):
    s = matseq_from_json(obj)
    g = brute_triangularizable(s)
    out = {"triangularizable": g is not None}
    if g is not None:
        out["g"] = g.to_json()
    return out


def _cmd_oracle_similar(obj_a, obj_b):
    s1 = matseq_from_json(obj_a)
    s2 = matseq_from_json(obj_b)
    g = brute_similar(s1, s2)
    out = {"similar": g is not None}
    if g is not None:
        out["g"] = g.to_json()
    return out


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matseq",
        description="Exact decisions about finite sequences of 2x2 matrices: "
                    "simultaneous triangularization, simultaneous similarity, "
                    "canonical forms, separating invariants, reconstruction.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, ndjson=True):
        p.add_argument("--verify", action="store_true",
                       help="cross-check against the GF(p) brute-force oracle "
                            "(ignored for other rings); mismatch exits 4")
        if ndjson:
            p.add_argument("--ndjson", action="store_true",
                           help="batch mode: one JSON document per input line")

    p = sub.add_parser("analyze", help="full report: reduction, obstructions, tag")
    p.add_argument("file", help="MatSeq JSON file, or - for stdin")
    add_common(p)

    p = sub.add_parser("tri", help="decide simultaneous triangularization")
    p.add_argument("file")
    p.add_argument("--method", choices=["flo", "fast", "construct"], default="flo",
                   help="flo: full obstruction criterion; fast: reduction-"
                        "accelerated; construct: also build a conjugator")
    add_common(p)

    p = sub.add_parser("similar", help="decide simultaneous similarity")
    p.add_argument("file_a")
    p.add_argument("file_b", nargs="?", default=None,
                   help="second sequence; omitted in --ndjson mode, where "
                        "each line holds {\"a\": ..., \"b\": ...}")
    add_common(p)

    p = sub.add_parser("classify", help="boolean classification summary")
    p.add_argument("file")
    p.add_argument("--ndjson", action="store_true")

    p = sub.add_parser("canon", help="canonical form, tag, and conjugator")
    p.add_argument("file")
    p.add_argument("--ndjson", action="store_true")

    p = sub.add_parser("invariants", help="trace invariants of a sequence")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--phi", action="store_true",
                       help="the semisimple separating vector (length 4n-3)")
    group.add_argument("--psi", action="store_true",
                       help="the triangularizable separating value")
    group.add_argument("--all-words", type=int, metavar="K",
                       help="all trace words of length at most K")
    p.add_argument("--ndjson", action="store_true")

    p = sub.add_parser("reconstruct", help="rebuild a sequence from invariants")
    p.add_argument("file", help="PhiVector/PsiValue JSON file, or - for stdin")
    p.add_argument("--form", choices=["ss", "tri"], required=True,
                   help="ss: semisimple vector; tri: triangular value "
                        "(emits both e-flip solutions)")

    p = sub.add_parser("oracle", help="finite-field brute-force ground truth")
    osub = p.add_subparsers(dest="mode", required=True)
    ot = osub.add_parser("tri", help="exhaustive triangularization search")
    ot.add_argument("file")
    os_ = osub.add_parser("similar", help="exhaustive conjugator search")
    os_.add_argument("file_a")
    os_.add_argument("file_b")

    return parser


def _dispatch_parsed(args, objs) -> dict:
    """Run one verb on parsed JSON documents."""
    if args.verb == "analyze":
        return _cmd_analyze(objs[0], args.verify)
    if args.verb == "tri":
        return _cmd_tri(objs[0], args.method, args.verify)
    if args.verb == "similar":
        return _cmd_similar(objs[0], objs[1], args.verify)
    if args.verb == "classify":
        return _cmd_classify(objs[0])
    if args.verb == "canon":
        return _cmd_canon(objs[0])
    if args.verb == "invariants":
        return _cmd_invariants(objs[0], args.phi, args.psi, args.all_words)
    if args.verb == "reconstruct":
        return _cmd_reconstruct(objs[0], args.form)
    if args.verb == "oracle":
        if args.mode == "tri":
            return _cmd_oracle_tri(objs[0])
        return _cmd_oracle_similar(objs[0], objs[1])
    raise InternalInconsistency(f"unknown verb {args.verb!r}")


def _input_paths(args) -> list[str]:
    if args.verb == "similar":
        if args.file_b is None and not getattr(args, "ndjson", False):
            raise ValueError("similar needs two sequence files (or --ndjson)")
        return [args.file_a, args.file_b]
    if args.verb == "oracle" and args.mode == "similar":
        return [args.file_a, args.file_b]
    return [args.file]


def _classify_exception(exc: Exception) -> int:
    if isinstance(exc, MatseqError):
        return exc.exit_code
    if isinstance(exc, (ValueError, KeyError, TypeError, OSError)):
        return 2
    raise exc


def _run_ndjson(args) -> int:
    path = _input_paths(args)[0]
    fh = sys.stdin if path == "-" else open(path, "r", encoding="utf-8")
    worst = 0
    # gen-2 collections almost never run in a long batch; the objects alive
    # now stay frozen until return, which keeps each full collection short
    gc.freeze()
    try:
        for count, line in enumerate(fh, start=1):
            if count % GC_EVERY_LINES == 0:
                gc.collect()
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if args.verb == "similar":
                    objs = [obj["a"], obj["b"]]
                else:
                    objs = [obj]
                _emit(_dispatch_parsed(args, objs))
            except Exception as exc:  # per-line isolation
                code = _classify_exception(exc)
                _emit({"error": str(exc), "code": code})
                worst = max(worst, code)
    finally:
        gc.unfreeze()
        if fh is not sys.stdin:
            fh.close()
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if getattr(args, "ndjson", False):
            return _run_ndjson(args)
        objs = [_read_json(p) for p in _input_paths(args)]
        _emit(_dispatch_parsed(args, objs))
        return 0
    except Exception as exc:
        try:
            code = _classify_exception(exc)
        except Exception:
            raise exc
        print(f"matseq: {exc}", file=sys.stderr)
        return code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
