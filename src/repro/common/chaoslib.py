"""Shared plumbing for the chaos drivers.

The three fault-matrix drivers (:mod:`repro.parallel.chaos`,
:mod:`repro.sim.chaos`, :mod:`repro.dist.chaos`) grew the same two
pieces independently: post-scenario leak accounting (child processes,
open sockets, ``/dev/shm`` segments) and the scenario-matrix loop that
times each case, prints the ``ok``/``FAIL`` table and the summary line.
This module is the single copy; each driver keeps only what is genuinely
its own — the scenario tables and the per-scenario verification logic.

Everything here is stdlib-only and side-effect-free on import, so the
drivers stay runnable as ``python -m`` entry points in a bare checkout.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import sys
import tempfile
import time
from typing import Callable, Sequence

__all__ = ["StderrCapture", "check_leaks", "open_sockets", "run_matrix",
           "shm_entries", "unlink_quietly", "wait_for_children"]

_TRACEBACK = b"Traceback (most recent call last)"


# -- leak accounting ------------------------------------------------------


def open_sockets() -> int:
    """Open socket fds of the current process (via /proc/self/fd)."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            if "socket:" in os.readlink(f"/proc/self/fd/{fd}"):
                count += 1
        except OSError:
            continue
    return count


def shm_entries() -> set[str]:
    """The ``pods*`` segments currently present in /dev/shm."""
    return set(glob.glob("/dev/shm/pods*"))


def unlink_quietly(paths) -> None:
    """Remove leaked files without letting one failure mask the rest —
    used to keep a leak in one scenario from poisoning the next."""
    for path in paths:
        try:
            os.unlink(path)
        except OSError:
            pass


def wait_for_children(deadline_s: float = 5.0) -> list:
    """Wait for forked children to be reaped; returns the stragglers."""
    deadline = time.monotonic() + deadline_s
    while multiprocessing.active_children() and \
            time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children()


def check_leaks(problems: list[str], sockets0: int,
                shm0: set[str]) -> None:
    """The full post-scenario audit the multi-process drivers share:
    no surviving child processes, the open-socket count and the shm
    segment set back to their pre-scenario state."""
    leftover = wait_for_children()
    if leftover:
        problems.append(f"leaked node processes: "
                        f"{[p.pid for p in leftover]}")
    sockets = open_sockets()
    if sockets > sockets0:
        problems.append(f"leaked sockets: {sockets0} -> {sockets}")
    shm = shm_entries() - shm0
    if shm:
        problems.append(f"leaked shm segments: {sorted(shm)}")


class StderrCapture:
    """Points fd 2 at a temporary file while the block runs.

    Forked workers and helper processes inherit fd 2, so their output
    lands in the capture too.  :meth:`stray_tracebacks` reports the
    Python tracebacks written since its previous call; on exit the
    whole capture is echoed to the real stderr, so nothing is hidden.
    """

    def __enter__(self) -> "StderrCapture":
        sys.stderr.flush()
        self._saved = os.dup(2)
        self._file = tempfile.TemporaryFile()
        os.dup2(self._file.fileno(), 2)
        self._seen = 0
        return self

    def stray_tracebacks(self) -> list[str]:
        sys.stderr.flush()
        self._file.seek(self._seen)
        data = self._file.read()
        self._seen += len(data)
        return [f"stray traceback on stderr: "
                f"{chunk.strip().splitlines()[-1].decode(errors='replace')}"
                for chunk in data.split(_TRACEBACK)[1:]]

    def __exit__(self, *exc) -> None:
        sys.stderr.flush()
        os.dup2(self._saved, 2)
        os.close(self._saved)
        self._file.seek(0)
        data = self._file.read()
        self._file.close()
        if data:
            sys.stderr.buffer.write(data)
            sys.stderr.flush()


# -- the scenario-matrix loop ---------------------------------------------


def run_matrix(cases: Sequence[tuple[str, Callable[[], list[str]]]],
               label: str, tail: str, name_width: int = 20) -> int:
    """Run ``(name, thunk)`` cases, print the per-case table and the
    summary line; returns the process exit code (1 = any failure).

    Each thunk returns a list of problems (empty = pass) — exactly the
    contract every driver's ``run_scenario`` already had.
    """
    failed = 0
    for name, thunk in cases:
        t0 = time.monotonic()
        problems = thunk()
        dt = time.monotonic() - t0
        status = "ok" if not problems else "FAIL"
        print(f"  {name:<{name_width}s} {status:>4s}  ({dt:.1f}s)")
        for p in problems:
            print(f"    !! {p}")
        failed += bool(problems)
    total = len(cases)
    print(f"{label}: {total - failed}/{total} scenarios passed on "
          f"{tail}")
    return 1 if failed else 0
