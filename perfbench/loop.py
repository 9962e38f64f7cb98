"""Closed-loop load: one client, one document in flight, real CLI children.

Each stream runs in its own ``python -m matseq.cli <verb> --ndjson -``
child with ``PYTHONPATH`` set to the checkout's ``src`` and
``PYTHONUNBUFFERED=1``.  The client writes one line, waits for the result
line, then sends the next document, whichever stream it belongs to; the
children of the other streams sit blocked on their input meanwhile, so at
most one child is working at any time.

A document that gets no answer within the deadline kills its child and
counts as failed; the client respawns the child and continues.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time

from calibration import Speed

# one-term documents answered by every child before it is timed
WARMUP_SEQ = '{"ring":{"kind":"Q"},"matrices":[[["1","2"],["3","4"]]]}'
WARMUP_PAIR = '{"a":%s,"b":%s}' % (WARMUP_SEQ, WARMUP_SEQ)
SPAWN_DEADLINE_S = 60   # interpreter start and import, not a document


class ChildGone(Exception):
    """The child closed its output or missed the deadline."""


class Child:
    """One CLI process in ndjson mode, read through its raw pipe."""

    def __init__(self, root: str, argv: list[str]):
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "matseq.cli", *argv, "--ndjson", "-"],
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        self.fd = self.proc.stdout.fileno()
        self.buf = b""

    def ask(self, line: bytes, deadline_s: float) -> bytes:
        """Send one document line and return the answer line."""
        try:
            self.proc.stdin.write(line)
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise ChildGone("child closed its input") from exc
        end = time.perf_counter() + deadline_s
        while b"\n" not in self.buf:
            left = end - time.perf_counter()
            if left <= 0:
                raise ChildGone("deadline exceeded")
            ready, _, _ = select.select([self.fd], [], [], left)
            if ready:
                chunk = os.read(self.fd, 1 << 16)
                if not chunk:
                    raise ChildGone("child closed its output")
                self.buf += chunk
        answer, _, self.buf = self.buf.partition(b"\n")
        return answer

    def close(self) -> None:
        """End the child: close its input, then wait (kill if it lingers)."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass


def spawn_timed(root: str, argv: list[str]) -> tuple[Child, float]:
    """Spawn a child and time it up to the answer for the warm-up document."""
    warmup = WARMUP_PAIR if argv[0] == "similar" else WARMUP_SEQ
    t0 = time.perf_counter()
    child = Child(root, argv)
    try:
        child.ask(warmup.encode() + b"\n", SPAWN_DEADLINE_S)
    except ChildGone:
        child.kill()
        raise
    return child, time.perf_counter() - t0


class ClosedLoop:
    """Runs rounds of documents through one child per stream, calibrating
    the machine's speed between documents (see calibration.py)."""

    def __init__(self, root: str, streams: dict[str, list[str]], deadline_s: float):
        self.root = root
        self.streams = streams
        self.deadline_s = deadline_s
        self.children: dict[str, Child] = {}
        self.speed = Speed()
        self.setup_s: list[float] = []        # scaled
        self.setup_raw_s: list[float] = []
        self.unanswered = 0

    def _spawn(self, argv: list[str]) -> tuple[Child, float]:
        i = self.speed.sample()
        child, dt = spawn_timed(self.root, argv)
        self.speed.sample()
        self.setup_raw_s.append(dt)
        self.setup_s.append(dt * self.speed.factor(i))
        return child, dt

    def measure_setup(self, spawns: int) -> None:
        """One untimed spawn (bytecode compilation), then ``spawns`` timed ones."""
        argv = next(iter(self.streams.values()))
        spawn_timed(self.root, argv)[0].close()
        for _ in range(spawns):
            self._spawn(argv)[0].close()

    def spawn(self, name: str) -> float:
        """Start the child of one stream; returns its raw set-up time."""
        self.children[name], dt = self._spawn(self.streams[name])
        return dt

    def run_round(self, docs) -> list[tuple[float, bytes | None, int]]:
        """Send every document of a round.  Returns, per document, the raw
        latency, the answer (None if unanswered) and the index of the last
        calibration sample before it."""
        out = []
        for doc in docs:
            if doc.stream not in self.children:
                self.spawn(doc.stream)
            elif self.speed.due():
                self.speed.sample()
            child = self.children[doc.stream]
            t0 = time.perf_counter()
            try:
                answer = child.ask(doc.line.encode() + b"\n", self.deadline_s)
            except ChildGone:
                answer = None
            out.append((time.perf_counter() - t0, answer, len(self.speed.samples) - 1))
            if answer is None:
                self.unanswered += 1
                child.kill()
                del self.children[doc.stream]
        return out

    def close(self) -> None:
        """End the children and take a last calibration sample."""
        for child in self.children.values():
            child.close()
        self.children.clear()
        self.speed.sample()
