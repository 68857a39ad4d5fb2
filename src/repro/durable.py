"""All-or-nothing file writes: the one temp-file + rename primitive.

Checkpoints, intent logs, result-cache entries, flight-recorder dumps
and the bench history publish files with :func:`atomic_write`: a temp
file in the target's directory, swapped in by :func:`os.replace`, so a
reader sees the old file or the new one, never a torn one.  It survives
a process crash, not a power loss: there is no ``fsync``.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import IO, Callable


def atomic_write(path: str | Path, write: Callable[[IO[str]], None]) -> Path:
    """Publish ``path`` with the text ``write`` puts into a stream.

    The temp file is removed if ``write`` or the rename fails, and the
    error propagates; ``path`` is then left as it was.  Returns ``path``.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as stream:
            write(stream)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
