#!/usr/bin/env python3
"""Differential check of the CLI: two source trees, the benchmark corpora.

Builds the ndjson streams of the three ``perfbench/corpus.py`` workloads in
a temporary directory, runs every stream through the CLI verbs below with
``python -m matseq.cli ... --ndjson`` once per source tree, and compares
stdout and the exit code.  Sequence streams go through the sequence verbs,
pair streams (``similar``) through the pair verbs.  It prints the number of
lines compared per (workload, seed, stream, verb) and exits 1 at the first
difference.

Usage:
    python3 scripts/diff_cli.py OLD_SRC NEW_SRC [--seeds 1 2 3]
"""

import argparse
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "perfbench", "corpus.py")

ROUNDS = {"gf-verify": 20, "q-long": 2, "mixed-orbit": 2}

SEQUENCE_VERBS = (
    ["analyze", "--verify"],
    ["tri", "--method", "flo", "--verify"],
    ["tri", "--method", "fast", "--verify"],
    ["tri", "--method", "construct", "--verify"],
    ["classify"],
    ["canon"],
    ["invariants"],
    ["invariants", "--phi"],
    ["invariants", "--psi"],
)
PAIR_VERBS = (["similar"], ["similar", "--verify"])


def run_cli(src: str, verb: list[str], path: str) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    r = subprocess.run([sys.executable, "-m", "matseq.cli", *verb, "--ndjson", path],
                       env=env, capture_output=True, text=True)
    return r.returncode, r.stdout


def first_difference(a: str, b: str) -> int:
    """1-based number of the first line where a and b differ."""
    la, lb = a.splitlines(), b.splitlines()
    return next((i + 1 for i, (x, y) in enumerate(zip(la, lb)) if x != y),
                min(len(la), len(lb)) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src", help="src directory of the reference tree")
    ap.add_argument("new_src", help="src directory of the tree under test")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for workload, rounds in ROUNDS.items():
            for seed in args.seeds:
                out = os.path.join(tmp, f"{workload}-{seed}")
                subprocess.run([sys.executable, CORPUS, "--workload", workload,
                                "--seed", str(seed), "--rounds", str(rounds), "--out", out],
                               check=True)
                streams = sorted(f for f in os.listdir(out)
                                 if f.endswith(".ndjson") and not f.endswith(".expect.ndjson"))
                for name in streams:
                    stream = name[:-len(".ndjson")]
                    path = os.path.join(out, name)
                    for verb in PAIR_VERBS if stream == "similar" else SEQUENCE_VERBS:
                        old = run_cli(args.old_src, verb, path)
                        new = run_cli(args.new_src, verb, path)
                        label = f"{workload} seed {seed} {stream}: {' '.join(verb)}"
                        if old != new:
                            print(f"{label}: exit {old[0]} vs {new[0]}, first differing "
                                  f"line {first_difference(old[1], new[1])}")
                            return 1
                        lines = len(old[1].splitlines())
                        total += lines
                        print(f"{label}: {lines} lines identical (exit {old[0]})")
    print(f"no difference in {total} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
