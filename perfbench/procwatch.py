"""What a run leaves behind: stray stderr, child processes, shm segments.

Linux only (reads ``/proc`` and ``/dev/shm``), like the backends that
spawn processes.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from pathlib import Path

TRACEBACK = b"Traceback (most recent call last)"


def substrate(key: str) -> str:
    """``sim.p2`` -> ``sim``; other operation keys name themselves."""
    return key.split(".", 1)[0]


def live_descendants(root: int | None = None) -> set[int]:
    """Pids of every live (non-zombie) process below ``root``."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid ..." — comm may itself hold spaces.
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z":
            children.setdefault(int(ppid), []).append(int(entry.name))
    out, todo = set(), [root]
    while todo:
        for pid in children.get(todo.pop(), ()):
            out.add(pid)
            todo.append(pid)
    return out


def _tracker_pid() -> int | None:
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_pid", None)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's shared-memory tracker and wait for it.

    It is started on first use by the parallel backend and would
    otherwise outlive the benchmark's own exit by a moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class Watch:
    """Points fd 2 at a file for the run and attributes what appears.

    Every backend call is a segment of the capture file and the owner
    of the child processes still alive after it returns.  Output that
    arrives between calls belongs to the call before it, since a
    process such as the resource tracker writes after the call ends.
    """

    def __init__(self, capture_path: Path) -> None:
        self.path = capture_path
        sys.stderr.flush()
        self.saved_fd = os.dup(2)
        fd = os.open(capture_path,
                     os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND,
                     0o644)
        os.dup2(fd, 2)
        os.close(fd)
        self.marks: list[tuple[int, str]] = [(0, "setup")]
        self.owner: dict[int, str] = {}

    def before(self, key: str) -> None:
        self.marks.append((os.fstat(2).st_size, substrate(key)))

    def after(self, key: str) -> None:
        for pid in live_descendants():
            self.owner.setdefault(pid, substrate(key))

    def restore(self) -> str:
        """Put fd 2 back; return everything that was captured."""
        sys.stderr.flush()
        os.dup2(self.saved_fd, 2)
        os.close(self.saved_fd)
        return self.path.read_bytes().decode(errors="replace")

    def tracebacks(self) -> dict[str, int]:
        """Python tracebacks per substrate, over the whole capture."""
        data = self.path.read_bytes()
        out: dict[str, int] = {}
        bounds = self.marks + [(len(data), "")]
        for (lo, key), (hi, _) in zip(bounds, bounds[1:]):
            out[key] = out.get(key, 0) + data[lo:hi].count(TRACEBACK)
        return out

    def leaked_children(self, grace_s: float = 0.5) -> dict[str, int]:
        """Descendants still alive ``grace_s`` after the last call, per
        substrate that left them (the resource tracker excepted)."""
        deadline = time.monotonic() + grace_s
        while True:
            alive = live_descendants() - {_tracker_pid()}
            if not alive or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        out: dict[str, int] = {}
        for pid in alive:
            key = self.owner.get(pid, "other")
            out[key] = out.get(key, 0) + 1
        return out


def leaked_shm(prefix: str) -> list[str]:
    """Shared-memory segments under /dev/shm whose name starts ``prefix``."""
    try:
        return sorted(p.name for p in Path("/dev/shm").iterdir()
                      if p.name.startswith(prefix))
    except OSError:
        return []


def reclaim(shm_names: list[str]) -> None:
    """Kill every descendant and unlink ``shm_names``, so a run that
    leaked still leaves the host as it found it."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = live_descendants() - {_tracker_pid()}
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 2.0
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        pids.discard(pid)
                except ChildProcessError:  # not ours to reap
                    if pid not in live_descendants():
                        pids.discard(pid)
            time.sleep(0.02)
    for name in shm_names:
        try:
            os.unlink(f"/dev/shm/{name}")
        except OSError:
            pass
