"""Compare two files of benchmark records (``run.py --out``).

For each workload and end-to-end metric: both sides' medians and quartiles,
the ratio NEW/BASE with its base, and a verdict against the metric's bound
in BENCHMARK.json:

* ``improved``: at least ten runs per side, NEW wins at least nine tenths of
  the pairs (runs paired by seed, else in file order; ties count for
  neither side), and the medians differ by more than BASE's interquartile
  distance;
* ``worse``: NEW's median is worse than BASE's by more than the bound;
* ``unresolved``: BASE's own spread (interquartile distance over median) is
  wider than the bound, or BASE has a single run, and NEW does not beat
  every BASE run (when it does, the verdict is ``improved``);
* ``unchanged``: otherwise.
"""

from __future__ import annotations

import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10


def load(path: str) -> dict[str, list[dict]]:
    """workload -> untraced records, in file order."""
    out: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if rec["trace"] == 0:
                    out.setdefault(rec["workload"], []).append(rec)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_runs(b_recs: list[dict], n_recs: list[dict]) -> list[tuple[dict, dict]]:
    """Runs of equal seed in file order; without common seeds, file order."""
    by_seed: dict[int, list[dict]] = {}
    for rec in n_recs:
        by_seed.setdefault(rec["seed"], []).append(rec)
    paired = []
    for rec in b_recs:
        if by_seed.get(rec["seed"]):
            paired.append((rec, by_seed[rec["seed"]].pop(0)))
    return paired or list(zip(b_recs, n_recs))


def verdict(base: list[float], new: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    bq1, bmed, bq3 = quartiles(base)
    nmed = statistics.median(new)
    gain = sign * (nmed - bmed) / bmed
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and gain > 0 and abs(nmed - bmed) > bq3 - bq1):
        return "improved"
    if -gain > bound:
        return "worse"
    if len(base) < 2 or (bq3 - bq1) / bmed > bound:
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "improved"
        return "unresolved"
    return "unchanged"


def main(base_path: str, new_path: str) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    base, new = load(base_path), load(new_path)
    for workload in sorted(set(base) | set(new)):
        b_recs, n_recs = base.get(workload, []), new.get(workload, [])
        if not b_recs or not n_recs:
            print(f"{workload}: present in only one file")
            continue
        paired = pair_runs(b_recs, n_recs)
        print(f"{workload}: {len(b_recs)} base runs, {len(n_recs)} new runs, {len(paired)} pairs")
        for m in spec["end_to_end"]:
            name = m["name"]

            def val(rec):
                return rec["result"]["metrics"][name]["value"]
            bv, nv = [val(r) for r in b_recs], [val(r) for r in n_recs]
            pairs = [(val(b), val(n)) for b, n in paired]
            (b1, b2, b3), (n1, n2, n3) = quartiles(bv), quartiles(nv)
            print(f"  {name:12s} base {b2:.5g} [{b1:.5g}, {b3:.5g}]  new {n2:.5g} [{n1:.5g}, {n3:.5g}] "
                  f"{m['unit']}  new/base {n2 / b2:.4f} (base {b2:.5g})  "
                  f"{verdict(bv, nv, pairs, m['better'], m['bound'])} (bound {m['bound']:.0%})")
    return 0
