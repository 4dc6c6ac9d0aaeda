"""On-disk result cache keyed by simulation-config content hash.

Layout: one JSON file per result, sharded by the first two hex digits of
the hash (``<root>/ab/abcdef....json``) so large sweeps do not pile tens
of thousands of files into one directory.  Writes are atomic
(write-to-temp then ``os.replace``), so a cache shared by concurrent
campaigns never exposes half-written entries; corrupt or truncated files
are treated as misses and overwritten.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Any, Dict, Iterator, Optional

#: Every cache file and manifest line: ``json.dumps(record,
#: sort_keys=True)`` without building an encoder per record.
RECORD_ENCODER = json.JSONEncoder(sort_keys=True)


def default_cache_dir() -> str:
    """Cache location used by the CLI: ``$REPRO_CACHE_DIR`` or a local dir."""
    return os.environ.get("REPRO_CACHE_DIR", ".repro-campaign")


class ResultCache:
    """Content-addressed store of finished cell results.

    Args:
        root: cache directory (created lazily on first write).
    """

    def __init__(self, root: str) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        """``key``'s entry as a ``Path``; ``get`` uses the string form."""
        return Path(self._file(key))

    def _file(self, key: str) -> str:
        # A plain string join: ``get`` runs once per served cell, and two
        # ``Path`` joins cost it more than the read.
        if len(key) < 3:
            raise ValueError(f"cache key too short: {key!r}")
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None`` on a miss.

        A missing file is a plain miss; an *existing* but unreadable or
        torn entry (killed writer predating the atomic-replace scheme,
        disk corruption) is also a miss, with a warning so a recurring
        one is noticed — it will be overwritten by the re-run's ``put``.
        """
        path = self._file(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(data)
        except ValueError:
            warnings.warn(
                f"cache entry {path} is corrupt (torn or truncated JSON); "
                "treating it as a miss",
                RuntimeWarning,
                stacklevel=2,
            )
            self.misses += 1
            return None
        if not isinstance(payload, dict):
            warnings.warn(
                f"cache entry {path} holds {type(payload).__name__}, not an "
                "object; treating it as a miss",
                RuntimeWarning,
                stacklevel=2,
            )
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> Path:
        """Atomically store ``payload`` under ``key``."""
        path = self._file(key)
        tmp = f"{path[:-len('.json')]}.tmp-{os.getpid()}"
        try:
            handle = open(tmp, "w")
        except FileNotFoundError:  # the shard's first write: make its dir
            os.makedirs(os.path.dirname(tmp), exist_ok=True)
            handle = open(tmp, "w")
        with handle:
            handle.write(RECORD_ENCODER.encode(payload))
        os.replace(tmp, path)
        return Path(path)

    def keys(self) -> Iterator[str]:
        """All stored hashes (walks the shard directories)."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.glob("*.json")):
                yield entry.stem

    def size(self) -> int:
        return sum(1 for _ in self.keys())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultCache({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )
