"""Run a function in a forked child and bring back its JSON result.

The benchmark forks only while it runs a single thread (the BLAS pool is
pinned to one thread before numpy loads), so the child is a plain copy.
"""

from __future__ import annotations

import json
import os
import select
import signal
import time


class ChildFailed(Exception):
    """The child raised, exited with a non-zero status or ran out of time."""

    def __init__(self, message: str, error_type: str, status: int | None):
        super().__init__(message)
        self.error_type = error_type
        self.status = status


def run_in_child(fn, timeout_s: float, before=None):
    """Fork, run ``before()`` then ``fn()`` in the child, return its JSON-able result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 0
        try:
            if before is not None:
                before()
            payload = {"ok": fn()}
        # the child's boundary: every failure, exits included, goes to the parent
        except BaseException as exc:  # noqa: BLE001
            payload = {"error": type(exc).__name__, "message": str(exc)[:500]}
            status = 1
        try:
            with os.fdopen(write_fd, "w") as out:
                json.dump(payload, out)
        finally:
            os._exit(status)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + timeout_s
    timed_out = False
    with os.fdopen(read_fd, "rb") as pipe:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([pipe], [], [], left)
            if not ready:
                continue
            chunk = os.read(pipe.fileno(), 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    if timed_out:
        os.kill(pid, signal.SIGKILL)
    _, status = os.waitpid(pid, 0)
    if timed_out:
        raise ChildFailed(f"no result within {timeout_s:.0f} s", "Timeout", None)
    code = os.waitstatus_to_exitcode(status)
    try:
        payload = json.loads(b"".join(chunks) or b"{}")
    except json.JSONDecodeError:
        payload = {}
    if code != 0 or "ok" not in payload:
        error_type = payload.get("error", f"exit {code}")
        raise ChildFailed(f"{error_type}: {payload.get('message', '')}", error_type, code)
    return payload["ok"]
