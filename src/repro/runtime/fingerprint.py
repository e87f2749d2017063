"""Content fingerprints for embedding-cache keys.

Embeddings are deterministic functions of the *exact* serialized input, so
the cache key must capture everything the serializer can see: headers in
order, rows in order, cell values with their Python types, caption, and
entity links.  Two tables share a fingerprint iff a model would embed them
identically at every level — which is why a row- or column-permuted
variant of a table fingerprints *differently* (order-sensitive models
produce different embeddings for it, and the cache must miss).

Values are tagged with their type before hashing (``repr`` distinguishes
``1``, ``1.0`` and ``"1"``) so numerically equal but differently typed
cells never collide.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence, Tuple

from repro.relational.table import Table


def _update_value(digest: "hashlib._Hash", value: object) -> None:
    digest.update(repr(value).encode("utf-8", "replace"))
    digest.update(b"\x1f")


def table_fingerprint(table: Table) -> str:
    """Order-sensitive content hash of a table.

    Covers schema (names, data types, subject flag), caption, the full
    ordered cell grid, and entity links.  Stable across processes (pure
    sha256, no ``hash()`` randomization).
    """
    digest = hashlib.sha256(b"table\x00")
    for column in table.schema:
        digest.update(column.name.encode("utf-8", "replace"))
        digest.update(b"\x1e")
        digest.update(column.data_type.value.encode())
        digest.update(b"\x1e")
        _update_value(digest, column.semantic_type)
        digest.update(b"1" if column.is_subject else b"0")
        digest.update(b"\x1d")
    digest.update(b"\x00caption\x00")
    digest.update(table.caption.encode("utf-8", "replace"))
    digest.update(b"\x00rows\x00")
    for row in table.rows:
        for value in row:
            _update_value(digest, value)
        digest.update(b"\x1c")
    if table.entity_links:
        digest.update(b"\x00links\x00")
        for (r, c), entity in sorted(table.entity_links.items()):
            _update_value(digest, (r, c, entity))
    return digest.hexdigest()


def value_column_fingerprint(header: str, values: Sequence[object]) -> str:
    """Content hash of a standalone (header, values) column request."""
    digest = hashlib.sha256(b"valuecol\x00")
    digest.update(header.encode("utf-8", "replace"))
    digest.update(b"\x00")
    for value in values:
        _update_value(digest, value)
    return digest.hexdigest()


def coords_fingerprint(coords: Iterable[Tuple[int, int]]) -> str:
    """Hash of a cell-coordinate request set (order-insensitive)."""
    digest = hashlib.sha256(b"coords\x00")
    for r, c in sorted(set(coords)):
        _update_value(digest, (r, c))
    return digest.hexdigest()


def cache_entry_digest(key: Sequence[str], schema_version: int) -> str:
    """Filename-safe digest of a cache key, salted by the cache schema.

    The on-disk tier outlives the process, so the digest mixes in the
    cache schema version: bumping it makes every old entry miss instead
    of silently serving embeddings produced by different math.  Stable
    across processes (pure sha256) — process-sharded sweep workers and
    the parent agree on every entry name.
    """
    salted = (f"schema={schema_version}",) + tuple(key)
    return hashlib.sha256("\x00".join(salted).encode("utf-8")).hexdigest()
