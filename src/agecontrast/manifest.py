"""Run manifests and ``atomic_write``, the one way an artifact reaches disk."""

from __future__ import annotations

import hashlib
import json
import os
import platform
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path


@contextmanager
def atomic_write(path, binary: bool = False):
    """Yields <path>.tmp open for writing (UTF-8 text, or bytes if binary),
    moved over path if the block ends cleanly; the .tmp never outlives it."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(out_dir, command: str, config: dict, seeds: dict, inputs: list,
                   outputs: list, duration_s: float, **extra) -> None:
    """Write out_dir/manifest.json, extra keys last."""
    write_json(Path(out_dir) / "manifest.json", {
        "command": command,
        "config": config,
        "seeds": seeds,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": {str(p): sha256_file(p) for p in outputs},
        "started_utc": datetime.now(timezone.utc).isoformat(),
        "duration_s": duration_s,
        "platform": platform.platform(),
        "python": platform.python_version(),
        **extra,
    })


def write_json(path, obj) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(obj, indent=1) + "\n")
