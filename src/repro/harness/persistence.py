"""Crash-safe JSON file writes (the job service's drain persistence)."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Union


def atomic_write_json(path: Union[str, Path], payload) -> Path:
    """Write JSON via temp-file + fsync + rename so readers never see a
    torn file and a crash (even a power loss) mid-write can only leave
    the *previous* complete version behind.

    The data is fsync'd before the rename (so the rename never
    publishes an empty or partial temp file after a crash) and the
    directory is fsync'd after it (so the rename itself is durable):
    the daemon's ``queue.json`` drain persistence must survive a crash
    mid-drain.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w") as tmp:
            tmp.write(json.dumps(payload, indent=2, sort_keys=True))
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_name, path)
        try:
            dir_fd = os.open(path.parent, os.O_RDONLY)
        except OSError:
            return path  # platform without directory opens; best effort
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path
