"""Runs and ``atomic_write``, the one way an artifact reaches disk.

A command's files are staged in its ``Run`` and move into place at its
commit, ``manifest.json`` last, so whenever ``manifest.json`` exists,
every file it lists matches its recorded sha256. Outside a run each
file moves when its own block ends.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import platform
import time
from contextlib import contextmanager
from contextvars import ContextVar
from datetime import datetime, timezone
from pathlib import Path

_open_run: ContextVar[Run | None] = ContextVar("open_run", default=None)


@contextmanager
def atomic_write(path, binary: bool = False):
    """Yields <path>.tmp open for writing (UTF-8 text, or bytes if binary).
    A clean block stages it in the open run or, outside one, moves it over
    path; the .tmp never outlives a failed block or run."""
    if os.path.isdir(path):  # fail before any move: the commit could not move a file there
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    run = _open_run.get() or Run()
    run.staged.append((tmp, path))
    if run is not _open_run.get():  # outside a run, in a run of its own
        with run:
            run.move()


def sha256_file(path) -> str:
    """The file's sha256 in hex, read once per path while a run is open."""
    digests = getattr(_open_run.get(), "digests", {})
    if str(path) not in digests:
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(65536), b""):
                h.update(block)
        digests[str(path)] = h.hexdigest()
    return digests[str(path)]


def write_json(path, obj) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(obj, indent=1) + "\n")


class Run:
    """The files a command writes to out_dir, and its manifest. While the
    run is open, ``atomic_write`` stages into it; leaving it removes every
    .tmp that ``commit`` did not move."""

    def __init__(self, out_dir=None, command: str | None = None):
        self.out_dir, self.command = out_dir, command
        self.staged: list[tuple[Path, object]] = []  # (.tmp, target) in the order they closed
        self.digests: dict[str, str] = {}

    def __enter__(self) -> Run:
        self.started_utc = datetime.now(timezone.utc).isoformat()
        self.started = time.perf_counter()
        self.token = _open_run.set(self)
        return self

    def __exit__(self, *_) -> None:
        _open_run.reset(self.token)
        for tmp, _ in self.staged:
            tmp.unlink(missing_ok=True)

    def commit(self, config: dict, seeds: dict, inputs=(), **extra) -> None:
        """Stage the manifest, extra keys last, with each staged file's
        sha256; unlink the old one; move every file, the manifest last."""
        outputs = {str(path): sha256_file(tmp) for tmp, path in self.staged}
        manifest = Path(self.out_dir) / "manifest.json"
        write_json(manifest, {
            "command": self.command,
            "config": config,
            "seeds": seeds,
            "inputs": {str(p): sha256_file(p) for p in inputs},
            "outputs": outputs,
            "started_utc": self.started_utc,
            "duration_s": time.perf_counter() - self.started,
            "platform": platform.platform(),
            "python": platform.python_version(),
            **extra,
        })
        manifest.unlink(missing_ok=True)
        self.move()

    def move(self) -> None:
        for tmp, path in self.staged:
            os.replace(tmp, path)
