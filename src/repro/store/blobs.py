"""Content-addressed blob files: the payload half of the artifact store.

Blobs are immutable byte strings named by their own SHA-256 digest and laid
out under ``<root>/<digest[:2]>/<digest>.bin`` (two-level fan-out keeps
directories small at scale).  Content addressing gives deduplication for
free — writing the same payload twice is a no-op — and makes corruption
detectable: a read re-hashes the bytes and refuses to return data whose
digest does not match its name (a truncated or bit-flipped file raises
:class:`BlobCorruptionError`, which the index layer turns into an eviction).

Writes are atomic: the payload lands in a temporary file unique to the
writing process *and thread* that is ``os.replace``-d into place, so
concurrent writers (parallel sweep workers sharing one store directory, or
threads sharing one store object) can never expose a half-written blob or
race on one temporary path.
"""

from __future__ import annotations

import hashlib
import os
import threading
from pathlib import Path


class BlobCorruptionError(RuntimeError):
    """A blob's bytes do not hash to the digest it is stored under."""


class BlobStore:
    """Flat content-addressed file store under one root directory."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)

    def path_for(self, digest: str) -> Path:
        """Filesystem location of the blob named ``digest``."""
        return self.root / digest[:2] / f"{digest}.bin"

    def put(self, data: bytes) -> str:
        """Store ``data``; returns its SHA-256 digest (the blob name).

        Idempotent: an existing blob with the same content is left untouched.
        """
        digest = hashlib.sha256(data).hexdigest()
        path = self.path_for(digest)
        if path.exists():
            return digest
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{digest}.tmp-{os.getpid()}-{threading.get_ident()}"
        tmp.write_bytes(data)
        os.replace(tmp, path)
        return digest

    def get(self, digest: str) -> bytes:
        """The verified bytes of blob ``digest``.

        Raises ``FileNotFoundError`` for a missing blob and
        :class:`BlobCorruptionError` when the stored bytes no longer hash to
        ``digest`` (truncation, partial write, bit rot).
        """
        data = self.path_for(digest).read_bytes()
        actual = hashlib.sha256(data).hexdigest()
        if actual != digest:
            raise BlobCorruptionError(
                f"blob {digest[:12]}… hashes to {actual[:12]}… "
                f"({len(data)} bytes on disk)"
            )
        return data

    def delete(self, digest: str) -> None:
        """Remove blob ``digest`` if present (missing blobs are ignored)."""
        try:
            self.path_for(digest).unlink()
        except FileNotFoundError:
            pass

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).exists()


__all__ = ["BlobStore", "BlobCorruptionError"]
