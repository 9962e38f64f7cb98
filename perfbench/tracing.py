"""Traced in-process run: per-module self times and exact operation counts.

The CLI entry point ``matseq.cli.main([... , "--ndjson", corpus])`` runs
in this process with its output captured, three times over the same
documents, after an untimed warm-up on the first tenth of each stream:

1. an untraced pass (the wall time that ``trace.overhead`` divides by),
   alternating stream by stream with
2. a traced pass: every public module-level function of the eight modules
   is wrapped, and the wrapper is bound under every name any ``matseq``
   module imported it as.  Each call records a span (name, start, end,
   parent) in memory; the spans are written out at the end.  Self time is
   a span's duration minus its child spans' durations.  ``Scalar`` methods
   are too hot to wrap: their time lands in the caller's self time;
3. a count-only pass: ring-descriptor ``add``/``sub``/``mul``/``div``/``inv``
   and ``Mat2.__mul__`` are counted, so that counting does not inflate the
   traced self times.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "rings", "matcore", "invariants", "triangular", "similarity",
          "canonical", "oracle")
SCAN_FUNCTIONS = ("triangular.is_triangularizable", "similarity.is_stable", "canonical.classify")
RING_OPS = ("add", "sub", "mul", "div", "inv")

# per-layer metrics reported by --trace 1; see README.md for what each should move
SELF_S = (
    "invariants.big_delta", "similarity.are_similar", "canonical.canonicalize",
    "canonical.classify", "matcore.conjugate", "matcore.commutator",
    "invariants.trace_word", "similarity.phi_prime", "oracle.brute_triangularizable",
    "oracle.brute_similar", "oracle.enumerate_gl2", "matcore.matseq_from_json",
    "rings.scalar_from_json", "triangular.maximal_reduction",
    "triangular.is_triangularizable", "triangular.triangularize", "similarity.is_stable",
)
CALLS = ("invariants.big_delta", "invariants.sigma", "similarity.are_similar")


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "matseq" or name.startswith("matseq."))]


def public_functions() -> dict[str, object]:
    """'layer.name' -> function, for functions defined in the eight modules."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module("matseq." + layer)
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out[f"{layer}.{name}"] = obj
    return out


@contextlib.contextmanager
def rebound(replacements: dict[int, object]):
    """Bind replacements[id(f)] wherever a matseq module holds f; undo on exit."""
    undo = []
    for mod in _modules():
        for attr, val in list(vars(mod).items()):
            new = replacements.get(id(val))
            if new is not None:
                undo.append((mod, attr, val))
                setattr(mod, attr, new)
    try:
        yield
    finally:
        for mod, attr, val in undo:
            setattr(mod, attr, val)


class Tracer:
    """Spans as [name, start, end, parent index], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Total self time and call count per function name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for (name, start, end, _), c in zip(self.spans, child):
            self_s[name] += end - start - c
            calls[name] += 1
        return self_s, calls

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start:.7f}\t{end:.7f}\n")


@contextlib.contextmanager
def counting(counts: Counter):
    """Count ring-descriptor operations and Mat2 products."""
    from matseq import matcore, rings

    def counted(key, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    undo = []
    for cls in rings.RingDescriptor.__subclasses__():
        for op in RING_OPS:
            if op in vars(cls):
                undo.append((cls, op, vars(cls)[op]))
                setattr(cls, op, counted(op, vars(cls)[op]))
    undo.append((matcore.Mat2, "__mul__", matcore.Mat2.__mul__))
    matcore.Mat2.__mul__ = counted("mat2_mul", matcore.Mat2.__mul__)
    try:
        yield
    finally:
        for cls, op, fn in undo:
            setattr(cls, op, fn)


def _run_streams(cli, jobs) -> tuple[float, list[tuple[str, list[str]]]]:
    """Run cli.main once per (stream, argv, path); returns total wall time and
    each stream's answer lines."""
    wall = 0.0
    outputs = []
    for stream, argv, path in jobs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            cli.main([*argv, "--ndjson", path])
            wall += time.perf_counter() - t0
        outputs.append((stream, buf.getvalue().splitlines()))
    return wall, outputs


def traced_run(root: str, streams: dict[str, list[str]], docs, out_dir: str, check_outputs):
    """Run the three passes over ``docs``; returns the per-layer metrics.

    ``check_outputs(outputs)`` is called on each pass's answers so every
    pass is checked like the closed loop.
    """
    sys.path.insert(0, os.path.join(root, "src"))
    from matseq import cli

    jobs, warm = [], []
    for stream, argv in streams.items():
        lines = [d.line for d in docs if d.stream == stream]
        for kind, chosen in (("all", lines), ("warm", lines[:max(1, len(lines) // 10)])):
            path = os.path.join(out_dir, f"trace-{kind}-{stream}.ndjson")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(line + "\n" for line in chosen)
            (jobs if kind == "all" else warm).append((stream, argv, path))

    _run_streams(cli, warm)
    tracer = Tracer()
    wrappers = {id(f): tracer.wrap(name, f) for name, f in public_functions().items()}
    plain_wall = traced_wall = 0.0
    for job in jobs:
        # untraced and traced back to back per stream, so that both see the
        # machine at the same speed
        wall, outputs = _run_streams(cli, [job])
        plain_wall += wall
        check_outputs(outputs)
        with rebound(wrappers):
            wall, outputs = _run_streams(cli, [job])
        traced_wall += wall
        check_outputs(outputs)

    counts: Counter = Counter()
    with counting(counts):
        _, outputs = _run_streams(cli, jobs)
    check_outputs(outputs)

    tracer.write(os.path.join(out_dir, "spans.tsv"))
    self_s, calls = tracer.self_times()
    ndocs = len(docs)
    metrics = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (calls[name], "count")
    metrics["rings.sqrt.calls"] = (sum(c for n, c in calls.items()
                                       if n.startswith("rings.") and "sqrt" in n), "count")
    metrics["triangular.obstruction_scans_per_doc"] = (
        sum(calls[n] for n in SCAN_FUNCTIONS) / ndocs, "count")
    for name in SELF_S:
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    metrics["cli.self_s"] = (sum(v for n, v in self_s.items() if n.startswith("cli.")), "s")
    metrics["rings.mul_per_doc"] = (counts["mul"] / ndocs, "count")
    metrics["rings.addsub_per_doc"] = ((counts["add"] + counts["sub"]) / ndocs, "count")
    metrics["rings.divinv_per_doc"] = ((counts["div"] + counts["inv"]) / ndocs, "count")
    metrics["matcore.mat2_mul_per_doc"] = (counts["mat2_mul"] / ndocs, "count")
    for layer in LAYERS:
        layer_self = sum(v for n, v in self_s.items() if n.startswith(layer + "."))
        metrics[f"{layer}.share"] = (layer_self / traced_wall, "ratio")
    metrics["trace.overhead"] = (traced_wall / plain_wall, "ratio")
    return metrics, {"plain_wall_s": plain_wall, "traced_wall_s": traced_wall,
                     "spans": len(tracer.spans), "docs": ndocs}
