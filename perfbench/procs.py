"""Process isolation checks: what a run leaves behind.

Each program process the benchmark starts leads a session of its own
(``start_new_session=True``), so its pool workers, which are its
children and not the benchmark's, can still be found after it exits:
they stay in its session even when they are reparented.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path


def _live() -> list[tuple[int, list[str]]]:
    """(pid, stat fields after the command name) of every live process."""
    out = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z":
            out.append((int(entry.name), fields))
    return out


def children() -> list[int]:
    """Live child processes of this process."""
    me = str(os.getpid())
    return [pid for pid, fields in _live() if fields[1] == me]


def session_members(sid: int) -> list[int]:
    """Live processes of session *sid*."""
    return [pid for pid, fields in _live() if fields[3] == str(sid)]


def reap_session(sid: int, grace: float = 5.0) -> list[int]:
    """Wait up to *grace* seconds for session *sid* to empty; kill what
    is left and return those pids (empty when the session ended by
    itself)."""
    deadline = time.monotonic() + grace
    while True:
        left = session_members(sid)
        if not left or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return left
