#!/usr/bin/env python3
"""Benchmark of the matseq CLI on seeded corpora, with answers checked.

Closed loop (``--trace 0``): one client, one document in flight, one real
``python -m matseq.cli <verb> --ndjson -`` child per stream.  The run sends
whole rounds of documents (see corpus.py) until ``--seconds`` of measured
time have passed, then checks every answer and prints the end-to-end
metrics.  Traced run (``--trace 1``): a fixed number of rounds through
``matseq.cli.main`` in this process, reporting per-module metrics
(see tracing.py).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when an answer was wrong.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload q-long --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1          # the three workloads in turn
    python3 perfbench/run.py --workload gf-verify --seed 1 --out a.ndjson
    python3 perfbench/run.py --compare a.ndjson b.ndjson

``--out FILE`` appends the run's record to FILE; ``--compare`` reads two
such files and judges each workload and metric against the bounds in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import corpus  # noqa: E402
from loop import ClosedLoop  # noqa: E402

TAIL_LADDER = (99, 90, 75, 50)
# q-long answers a few documents a second: a run sends at least this many,
# so its percentiles rest on enough long documents to be steady
MIN_DOCS = 80
SETUP_SPAWNS = 9
TRACE_ROUNDS = {"gf-verify": 20, "q-long": 1, "mixed-orbit": 20}
DEADLINE_S = 20       # a document without an answer by then kills its child
HARD_STOP_S = 120     # stop sending new documents after this much wall time


def tail_latency(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile of
    the ladder with at least ten samples beyond it (nearest rank)."""
    s = sorted(samples)
    n = len(s)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10:
            return p, s[rank - 1], n - rank
    return 50.0, statistics.median(s), n - max(1, math.ceil(n / 2))


def run_closed_loop(workload: str, seed: int, seconds: float, out_dir: str) -> tuple[dict, dict]:
    streams = corpus.STREAMS[workload]
    drv = ClosedLoop(ROOT, streams, DEADLINE_S)
    sent = []                       # (doc, raw latency, answer, calibration index)
    measured = 0.0
    rounds = 0
    started = time.perf_counter()
    try:
        drv.measure_setup(SETUP_SPAWNS)
        for name in streams:
            drv.spawn(name)
        while ((measured < seconds or len(sent) < MIN_DOCS)
               and time.perf_counter() - started < HARD_STOP_S):
            docs = corpus.make_round(workload, seed, rounds)
            corpus.write_round(docs, out_dir)
            results = drv.run_round(docs)
            # the run length counts scaled time, so the number of rounds does
            # not depend on the machine's speed at the moment
            measured += sum(lat * drv.speed.factor(i) for lat, _, i in results)
            rounds += 1
            sent.extend((doc, *res) for doc, res in zip(docs, results))
    finally:
        drv.close()
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    ck = check.Checker()
    for doc, _, ans, _ in sent:
        if ans is not None:
            ck.check(doc.stream, doc.line, doc.expect, doc.pair, ans)
    answered = len(sent) - drv.unanswered
    raw_ms = [lat * 1000 for _, lat, _, _ in sent]
    scaled_ms = [lat * 1000 * drv.speed.factor(i) for _, lat, _, i in sent]
    pct, tail_ms, beyond = tail_latency(scaled_ms)
    metrics = {
        "docs_per_s": (answered / (sum(scaled_ms) / 1000), "1/s"),
        "doc_p50_ms": (statistics.median(scaled_ms), "ms"),
        "doc_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(drv.setup_s), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "wrong_frac": (ck.wrong / len(sent), "ratio"),
        "error_frac": (ck.errors / len(sent), "ratio"),
        "raw_docs_per_s": (answered / (sum(raw_ms) / 1000), "1/s"),
        "raw_doc_p50_ms": (statistics.median(raw_ms), "ms"),
        "raw_doc_tail_ms": (tail_latency(raw_ms)[1], "ms"),
        "raw_setup_s": (statistics.median(drv.setup_raw_s), "s"),
        "calibration_ms": (statistics.median(drv.speed.samples) * 1000, "ms"),
    }
    detail = {"tail_percentile": pct, "tail_beyond": beyond, "samples": len(sent),
              "rounds": rounds, "measured_s": measured, "setup_samples": len(drv.setup_s),
              "calibrations": len(drv.speed.samples),
              "unanswered": drv.unanswered, "wrong": ck.wrong, "errors": ck.errors,
              "reasons": ck.reasons}
    result = {"attempted": len(sent), "failed": ck.wrong + drv.unanswered, "wrong": ck.wrong}
    return metrics, dict(detail, **result)


def run_traced(workload: str, seed: int, out_dir: str) -> tuple[dict, dict]:
    import tracing
    docs = []
    for r in range(TRACE_ROUNDS[workload]):
        round_docs = corpus.make_round(workload, seed, r)
        corpus.write_round(round_docs, out_dir)
        docs.extend(round_docs)
    ck = check.Checker()

    def check_outputs(outputs):
        for stream, lines in outputs:
            stream_docs = [d for d in docs if d.stream == stream]
            for doc, line in zip(stream_docs, lines):
                ck.check(stream, doc.line, doc.expect, doc.pair, line.encode())
            # a missing answer line counts as wrong
            ck.wrong += max(0, len(stream_docs) - len(lines))

    metrics, detail = tracing.traced_run(ROOT, corpus.STREAMS[workload], docs,
                                       out_dir, check_outputs)
    detail.update(wrong=ck.wrong, errors=ck.errors, reasons=ck.reasons,
                  attempted=len(docs), failed=ck.wrong)
    return metrics, detail


def run_workload(args, workload: str) -> int:
    """Run one workload, print its metrics and result line; returns the exit code."""
    out_dir = os.path.join(ROOT, ".perfbench", f"{workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    if args.trace:
        metrics, detail = run_traced(workload, args.seed, out_dir)
    else:
        metrics, detail = run_closed_loop(workload, args.seed, args.seconds, out_dir)

    for name, (value, unit) in metrics.items():
        print(f"{workload:12s} {name:45s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{workload:12s} doc_tail_ms is p{detail['tail_percentile']:g} of "
              f"{detail['samples']} documents ({detail['tail_beyond']} beyond), "
              f"{detail['rounds']} rounds")
    for reason in detail["reasons"]:
        print(f"wrong answer: {reason}", file=sys.stderr)

    reported = [m["name"] for m in _benchmark_spec()["per_layer" if args.trace else "end_to_end"]]
    result = {"correct": detail["wrong"] == 0,
              "attempted": detail["attempted"],
              "failed": detail["failed"],
              "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported}}
    if args.out:
        record = {"workload": workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "result": result,
                  "all_metrics": {k: v[0] for k, v in metrics.items()},
                  "detail": {k: v for k, v in detail.items() if k != "reasons"}}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="matseq CLI benchmark")
    ap.add_argument("--workload", choices=corpus.WORKLOADS,
                    help="the workload to run (default: all three, one after another)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append each run's record (JSON line) to this file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="compare two --out files instead of running")
    args = ap.parse_args(argv)

    if args.compare:
        import compare
        return compare.main(*args.compare)
    if not os.path.isfile(os.path.join(ROOT, "src", "matseq", "cli.py")):
        print(f"perfbench: no matseq sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # One CPU for this process and the CLI children it spawns: the calibration
    # then times the CPU the children run on, and no process migrates.  Only
    # one process works at a time, so one CPU is enough; the highest-numbered
    # one, as CPU 0 takes most interrupts.  On the baseline's machine this
    # halved the spread of the scaled gf-verify tail.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return max(run_workload(args, w) for w in ([args.workload] if args.workload else corpus.WORKLOADS))


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    raise SystemExit(main())
