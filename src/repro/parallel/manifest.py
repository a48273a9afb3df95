"""Manifest-based registry of a run's shared-memory segments.

The old cleanup probed ``{run_tag}_1``, ``{run_tag}_2``, ... and stopped
at the first missing name — correct only if segment creation never has
gaps, which is exactly false when creation raced or a worker died partway
through.  Instead, every creator *records the segment name before
creating it* in an append-only manifest file, and the parent's cleanup
iterates the manifest: a crash between record and create costs one
harmless no-op unlink, and a gap in the sequence can no longer shadow
later segments.

Appends are single short ``O_APPEND`` writes, which POSIX keeps atomic
across the forked workers; the manifest lives in the tempdir, not in
``/dev/shm``, so it is never confused with a segment.  ``cleanup`` also
sweeps ``/dev/shm`` for the run prefix as a belt-and-braces fallback
(segments are namespaced by a per-run tag, so the sweep can't touch
other runs).
"""

from __future__ import annotations

import os
import tempfile

_SHM_DIR = "/dev/shm"


class ShmManifest:
    """Append-only record of segment names for one parallel run."""

    def __init__(self, path: str, run_tag: str) -> None:
        self.path = path
        self.run_tag = run_tag

    @classmethod
    def create(cls, run_tag: str) -> "ShmManifest":
        path = os.path.join(tempfile.gettempdir(),
                            f".pods_manifest_{run_tag}")
        with open(path, "w"):
            pass
        return cls(path, run_tag)

    def record(self, name: str) -> None:
        """Register ``name``; call *before* creating the segment."""
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                     0o600)
        try:
            os.write(fd, (name + "\n").encode())
        finally:
            os.close(fd)

    def names(self) -> list[str]:
        try:
            with open(self.path) as fh:
                seen: dict[str, None] = {}
                for line in fh:
                    name = line.strip()
                    if name:
                        seen[name] = None
                return list(seen)
        except FileNotFoundError:
            return []

    def live_segments(self) -> list[str]:
        """Recorded or prefix-matching segments still present in shm.

        Empty after a successful :meth:`cleanup` — the post-run leak
        check the acceptance tests (and the chaos driver) assert on.
        """
        live = []
        for name in self.names():
            if os.path.exists(os.path.join(_SHM_DIR, name)):
                live.append(name)
        if os.path.isdir(_SHM_DIR):
            try:
                for entry in os.listdir(_SHM_DIR):
                    if entry.startswith(self.run_tag) and entry not in live:
                        live.append(entry)
            except OSError:
                pass
        return live

    def cleanup(self) -> list[str]:
        """Unlink every recorded (or prefix-matching) segment.

        Returns the names actually unlinked; idempotent and safe to call
        on both the success and every failure path.
        """
        from repro.parallel.shm_arrays import unlink_segment

        candidates = self.names()
        if os.path.isdir(_SHM_DIR):
            try:
                for entry in os.listdir(_SHM_DIR):
                    if entry.startswith(self.run_tag) and \
                            entry not in candidates:
                        candidates.append(entry)
            except OSError:
                pass
        removed = []
        for name in candidates:
            # Unlink by name: no attach, so a half-created segment (its
            # creator died inside ftruncate) goes the same way.
            try:
                unlink_segment(name)
            except OSError:
                continue
            removed.append(name)
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
        return removed
