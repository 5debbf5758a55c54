"""Run one op in a forked child under an address-space cap.

Each op starts from the parent's state (bipcore imported, inputs built, no
library cache warm) and its memory, module caches and failures die with the
child.  An op that exhausts the cap therefore cannot change the outcome, time
or memory of the ops after it: bipcore's ``_dc_cache`` and ``_slot_cache``
survive a ``MemoryError`` inside one process.

The parent must not run threads when it forks; ``run.py`` pins the BLAS
thread pool to one thread before numpy loads for that reason.
"""

from __future__ import annotations

import os
import pickle
import resource
import select
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import spans


class CheckFailed(Exception):
    """An op returned a wrong answer."""


@dataclass
class OpResult:
    name: str
    status: str  # "ok" | "raised" | "wrong"
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    error: str | None = None  # exception type name
    message: str = ""
    facts: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


def _child(run: Callable[[], Any], check: Callable[[Any], dict], cap: int, trace: bool) -> OpResult:
    recorder = None
    if trace:
        recorder = spans.Recorder()
        recorder.install()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    out = None
    error = None
    message = ""
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        out = run()
    except Exception as exc:
        error = type(exc).__name__
        message = str(exc)[:200]
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if recorder is not None:
        recorder.recording = False
    # the check and the report need memory the failed op may have used up
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res = OpResult("", "ok", wall, cpu, rss, error, message)
    if error is not None:
        res.status = "raised"
    else:
        try:
            res.facts = check(out)
        except CheckFailed as exc:
            res.status = "wrong"
            res.message = str(exc)[:500]
    if recorder is not None:
        res.spans = recorder.spans
        res.counters = recorder.counters()
    return res


def _read_all(fd: int, deadline: float) -> bytes | None:
    chunks = []
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            return None
        ready, _, _ = select.select([fd], [], [], left)
        if not ready:
            return None
        chunk = os.read(fd, 1 << 20)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def run_op(
    name: str,
    run: Callable[[], Any],
    check: Callable[[Any], dict],
    cap: int,
    trace: bool = False,
    timeout: float = 120.0,
) -> OpResult:
    """Fork, run ``run()`` timed under RLIMIT_AS=cap, then ``check`` its
    output untimed and untraced, and report back through a pipe.  A child
    that dies or overruns ``timeout`` is killed and recorded as raised."""
    r, w = os.pipe()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child
        code = 0
        try:
            os.close(r)
            res = _child(run, check, cap, trace)
            data = pickle.dumps(res, protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(w, "wb") as f:
                f.write(data)
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(w)
    data = None
    try:
        data = _read_all(r, time.monotonic() + timeout)
    finally:
        os.close(r)
        if data is None:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    wall = time.perf_counter() - t0
    if data:
        res = pickle.loads(data)
        res.name = name
        return res
    if data is None:
        error, message = "Timeout", f"killed after {timeout:.0f} s"
    elif os.WIFSIGNALED(status):
        sig = os.WTERMSIG(status)
        error, message = "Killed", f"child died on signal {signal.Signals(sig).name}"
    else:
        error, message = "ChildError", f"child exited {os.WEXITSTATUS(status)} without a report"
    return OpResult(name, "raised", wall, wall, 0.0, error, message)
