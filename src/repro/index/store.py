"""Crash-safe, append-only float32 shard store for the column index.

:class:`ShardStore` persists an append-only sequence of **matrix shards**
under one directory.  Each shard is three files sharing a stem::

    shard-000003-9f2c1a7b.npy        float32 (rows, dim) embedding matrix
    shard-000003-9f2c1a7b.norms.npy  float64 (rows,) canonical row norms
    shard-000003-9f2c1a7b.keys.json  the rows' column keys, in row order

and a versioned JSON **manifest** (``manifest.json``) is the single source
of truth: shard order (= global row order), per-file byte sizes, and
per-file sha256 digests.  The persistence protocol follows the
:class:`~repro.runtime.disk.DiskTier` patterns:

- every write is **write-temp-then-rename** (``os.replace`` is atomic on
  POSIX) — a reader never observes a half-written shard or manifest;
- manifest mutations happen under an ``index.lock`` file with stale-lock
  reclaim, so a crashed appender never wedges the directory;
- every shard is verified on open: all three files' byte sizes *and*
  sha256 digests (a same-size bit flip is caught too).  A shard that
  fails (missing file, size mismatch, digest mismatch, keys/rows
  disagreement, unloadable payload) is **dropped** — unlinked and
  removed from the manifest — never served.
  The surviving shards keep the store queryable; the dropped rows are
  simply absent and the caller re-appends them from the embedding cache.
- a missing or torn manifest is **rebuilt** from a directory scan (shard
  stems sort by sequence number, preserving insertion order), and stale
  temp/orphan files left by crashed appenders are swept.

Norms are stored (not recomputed) because they are *canonical*: row ``i``'s
norm is ``np.linalg.norm(row_i.astype(float64))`` computed at append time —
the exact expression the brute-force oracle applies — and recomputing it
with a vectorized axis reduction would not be bit-identical.

Every mutation bumps the manifest ``generation``; derived structures (the
coarse partitions) are keyed by generation and rebuilt when stale.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import re
import time
import uuid
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ColumnIndexError
from repro.runtime.disk import file_lock

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
LOCK_NAME = "index.lock"
_TMP_PREFIX = ".tmp-"
_SHARD_RE = re.compile(r"^shard-(\d{6})-[0-9a-f]{8}$")

_MATRIX_SUFFIX = ".npy"
_NORMS_SUFFIX = ".norms.npy"
_KEYS_SUFFIX = ".keys.json"


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class ShardMeta:
    """One manifest entry; byte sizes and digests cover all three files."""

    name: str
    rows: int
    matrix_bytes: int
    norms_bytes: int
    keys_bytes: int
    matrix_digest: str
    norms_digest: str
    keys_digest: str

    def to_jsonable(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_jsonable(cls, payload: Dict[str, object]) -> "ShardMeta":
        fields = {f.name for f in dataclasses.fields(cls)}
        if set(payload) != fields:
            raise ValueError(f"malformed shard entry: {sorted(payload)}")
        return cls(**payload)  # type: ignore[arg-type]


class ShardStore:
    """Append-only shard directory governed by a versioned manifest.

    Args:
        directory: storage directory (created if missing).
        dim: embedding dimensionality; required when creating a fresh
            store, validated against the manifest when opening one.
        lock_timeout / stale_age: lock reclaim patience and the age past
            which orphan temp/shard files from crashed appenders are
            swept (mirrors the disk cache tier).
    """

    def __init__(
        self,
        directory: str,
        *,
        dim: Optional[int] = None,
        create: bool = False,
        clock: Callable[[], float] = time.time,
        lock_timeout: float = 5.0,
        stale_age: float = 10.0,
    ):
        self.directory = directory
        self.dropped_shards = 0  # corrupt/torn shards dropped on open
        self.swept_files = 0  # stale temp/orphan files removed
        self._clock = clock
        self._lock_timeout = lock_timeout
        self._stale_age = stale_age
        self._mmaps: Dict[str, np.ndarray] = {}
        self._norms: Dict[str, np.ndarray] = {}
        self._keys: Dict[str, List[str]] = {}
        os.makedirs(directory, exist_ok=True)
        manifest = self._load_or_init_manifest(dim=dim, create=create)
        self.dim: int = int(manifest["dim"])
        self.generation: int = int(manifest["generation"])
        self.shards: List[ShardMeta] = [
            ShardMeta.from_jsonable(entry) for entry in manifest["shards"]
        ]
        self._verify_shards()
        self._sweep_stale_files()

    # ------------------------------------------------------------------
    # Locking and manifest I/O
    # ------------------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MANIFEST_NAME)

    def _locked(self):
        """Hold ``index.lock``; see :func:`~repro.runtime.disk.file_lock`."""
        return file_lock(
            os.path.join(self.directory, LOCK_NAME),
            patience=self._lock_timeout,
            stale_age=self._stale_age,
        )

    def _write_manifest(self) -> None:
        payload = {
            "manifest_version": MANIFEST_VERSION,
            "dim": self.dim,
            "generation": self.generation,
            "shards": [meta.to_jsonable() for meta in self.shards],
        }
        tmp = os.path.join(
            self.directory, f"{_TMP_PREFIX}manifest-{uuid.uuid4().hex}.json"
        )
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, self.manifest_path)

    def _load_or_init_manifest(
        self, *, dim: Optional[int], create: bool
    ) -> Dict[str, object]:
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if payload.get("manifest_version") != MANIFEST_VERSION:
                raise ValueError("manifest version mismatch")
            if not isinstance(payload.get("shards"), list):
                raise ValueError("malformed shards")
            if int(payload["dim"]) < 1 or int(payload["generation"]) < 0:
                raise ValueError("malformed manifest header")
            if dim is not None and int(payload["dim"]) != dim:
                raise ColumnIndexError(
                    f"index at {self.directory!r} stores dim="
                    f"{payload['dim']}, requested dim={dim}"
                )
            return payload
        except FileNotFoundError:
            if not self._scan_shard_stems():
                if not create:
                    raise ColumnIndexError(
                        f"no column index at {self.directory!r} "
                        "(pass create=True with dim to start one)"
                    ) from None
                if dim is None or dim < 1:
                    raise ColumnIndexError(
                        "creating a column index requires a positive dim"
                    ) from None
                return {"manifest_version": MANIFEST_VERSION, "dim": dim,
                        "generation": 0, "shards": []}
            return self._rebuild_manifest(dim=dim)
        except (OSError, ValueError, KeyError, TypeError):
            return self._rebuild_manifest(dim=dim)

    def _scan_shard_stems(self) -> List[str]:
        stems = []
        for filename in os.listdir(self.directory):
            if filename.endswith(_MATRIX_SUFFIX) and not filename.endswith(_NORMS_SUFFIX):
                stem = filename[: -len(_MATRIX_SUFFIX)]
                if _SHARD_RE.match(stem):
                    stems.append(stem)
        return sorted(stems)  # sequence prefix preserves insertion order

    def _rebuild_manifest(self, *, dim: Optional[int]) -> Dict[str, object]:
        """Recover a lost/torn manifest by scanning the directory.

        Each candidate shard is admitted only when its matrix loads, its
        norms and keys agree on the row count, and (when known) its width
        matches ``dim`` — anything torn is left for the stale sweep.
        Generation restarts above zero so derived partition files from
        the lost era can never be mistaken for current.
        """
        entries: List[Dict[str, object]] = []
        found_dim = dim
        for stem in self._scan_shard_stems():
            matrix_path = os.path.join(self.directory, stem + _MATRIX_SUFFIX)
            norms_path = os.path.join(self.directory, stem + _NORMS_SUFFIX)
            keys_path = os.path.join(self.directory, stem + _KEYS_SUFFIX)
            try:
                matrix = np.load(matrix_path)
                norms = np.load(norms_path)
                with open(keys_path, "r", encoding="utf-8") as handle:
                    keys = json.load(handle)["keys"]
                if (
                    matrix.ndim != 2
                    or matrix.dtype != np.float32
                    or norms.shape != (matrix.shape[0],)
                    or not isinstance(keys, list)
                    or len(keys) != matrix.shape[0]
                ):
                    raise ValueError("inconsistent shard")
                if found_dim is None:
                    found_dim = int(matrix.shape[1])
                if matrix.shape[1] != found_dim:
                    raise ValueError("dim mismatch")
            except (OSError, ValueError, KeyError, TypeError, EOFError):
                continue
            entries.append(
                ShardMeta(
                    name=stem,
                    rows=int(matrix.shape[0]),
                    matrix_bytes=os.path.getsize(matrix_path),
                    norms_bytes=os.path.getsize(norms_path),
                    keys_bytes=os.path.getsize(keys_path),
                    matrix_digest=_sha256_file(matrix_path),
                    norms_digest=_sha256_file(norms_path),
                    keys_digest=_sha256_file(keys_path),
                ).to_jsonable()
            )
        if found_dim is None:
            raise ColumnIndexError(
                f"cannot rebuild index at {self.directory!r}: no readable "
                "shards and no dim given"
            )
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "dim": found_dim,
            # A fresh era: strictly above any generation the lost manifest
            # could have reached per surviving partition files.
            "generation": self._next_safe_generation(),
            "shards": entries,
        }
        with self._locked():
            payload_shards = manifest["shards"]
            self.dim = int(manifest["dim"])
            self.generation = int(manifest["generation"])
            self.shards = [ShardMeta.from_jsonable(e) for e in payload_shards]
            self._write_manifest()
        return manifest

    def _next_safe_generation(self) -> int:
        highest = 0
        for filename in os.listdir(self.directory):
            match = re.match(r"^partitions-(\d{8})\.npz$", filename)
            if match:
                highest = max(highest, int(match.group(1)))
        return highest + 1

    # ------------------------------------------------------------------
    # Verification and recovery
    # ------------------------------------------------------------------

    def _shard_paths(self, meta: ShardMeta) -> Tuple[str, str, str]:
        base = os.path.join(self.directory, meta.name)
        return base + _MATRIX_SUFFIX, base + _NORMS_SUFFIX, base + _KEYS_SUFFIX

    def _shard_ok(self, meta: ShardMeta) -> bool:
        matrix_path, norms_path, keys_path = self._shard_paths(meta)
        try:
            checks = (
                (matrix_path, meta.matrix_bytes, meta.matrix_digest),
                (norms_path, meta.norms_bytes, meta.norms_digest),
                (keys_path, meta.keys_bytes, meta.keys_digest),
            )
            for path, size, digest in checks:
                if os.path.getsize(path) != size:
                    return False
                if _sha256_file(path) != digest:
                    return False
        except OSError:
            return False
        return True

    def _verify_shards(self) -> None:
        """Drop every shard that fails verification; keep the rest live."""
        bad = [meta for meta in self.shards if not self._shard_ok(meta)]
        if not bad:
            return
        with self._locked():
            for meta in bad:
                for path in self._shard_paths(meta):
                    with contextlib.suppress(OSError):
                        os.unlink(path)
            names = {meta.name for meta in bad}
            self.shards = [m for m in self.shards if m.name not in names]
            self.dropped_shards += len(bad)
            self.generation += 1
            self._write_manifest()

    def _sweep_stale_files(self) -> None:
        """Remove stale temps, orphan shards, and outdated partition files.

        Fresh files are left alone — they may belong to a concurrent
        appender mid-protocol; anything older than ``stale_age`` whose
        stem the manifest does not reference is dead weight from a crash.
        """
        referenced = {meta.name for meta in self.shards}
        now = time.time()
        for filename in os.listdir(self.directory):
            path = os.path.join(self.directory, filename)
            if filename in (MANIFEST_NAME, LOCK_NAME):
                continue
            match = re.match(r"^partitions-(\d{8})\.npz$", filename)
            if match:
                if int(match.group(1)) != self.generation:
                    with contextlib.suppress(OSError):
                        os.unlink(path)
                        self.swept_files += 1
                continue
            stem = filename
            for suffix in (_NORMS_SUFFIX, _KEYS_SUFFIX, _MATRIX_SUFFIX):
                if filename.endswith(suffix):
                    stem = filename[: -len(suffix)]
                    break
            if stem in referenced:
                continue
            is_temp = filename.startswith(_TMP_PREFIX)
            is_shard_file = _SHARD_RE.match(stem) and stem != filename
            if not (is_temp or is_shard_file):
                continue
            try:
                if now - os.path.getmtime(path) > self._stale_age:
                    os.unlink(path)
                    self.swept_files += 1
            except OSError:
                continue

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------

    def append(
        self, keys: Sequence[str], matrix: np.ndarray, norms: np.ndarray
    ) -> ShardMeta:
        """Persist one shard atomically and publish it in the manifest.

        ``matrix`` must be float32 ``(rows, dim)`` and ``norms`` the
        canonical float64 per-row norms.  Shard files land via
        temp-then-rename *before* the manifest references them, so a
        crash at any point leaves either the old manifest (orphan files
        are swept later) or the new manifest over fully-written files.
        """
        matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        if matrix.ndim != 2 or matrix.shape[1] != self.dim:
            raise ColumnIndexError(
                f"shard matrix must be (rows, {self.dim}), got {matrix.shape}"
            )
        if len(keys) != matrix.shape[0] or norms.shape != (matrix.shape[0],):
            raise ColumnIndexError("keys, matrix rows, and norms must align")
        stem = f"shard-{len(self.shards):06d}-{uuid.uuid4().hex[:8]}"
        matrix_path = os.path.join(self.directory, stem + _MATRIX_SUFFIX)
        norms_path = os.path.join(self.directory, stem + _NORMS_SUFFIX)
        keys_path = os.path.join(self.directory, stem + _KEYS_SUFFIX)
        for target, writer in (
            (matrix_path, lambda fh: np.save(fh, matrix)),
            (norms_path, lambda fh: np.save(fh, np.asarray(norms, dtype=np.float64))),
            (
                keys_path,
                lambda fh: fh.write(json.dumps({"keys": list(keys)}).encode("utf-8")),
            ),
        ):
            tmp = os.path.join(self.directory, f"{_TMP_PREFIX}{uuid.uuid4().hex}")
            with open(tmp, "wb") as handle:
                writer(handle)
            os.replace(tmp, target)
        meta = ShardMeta(
            name=stem,
            rows=int(matrix.shape[0]),
            matrix_bytes=os.path.getsize(matrix_path),
            norms_bytes=os.path.getsize(norms_path),
            keys_bytes=os.path.getsize(keys_path),
            matrix_digest=_sha256_file(matrix_path),
            norms_digest=_sha256_file(norms_path),
            keys_digest=_sha256_file(keys_path),
        )
        with self._locked():
            self.shards.append(meta)
            self.generation += 1
            self._write_manifest()
        return meta

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    @property
    def total_rows(self) -> int:
        return sum(meta.rows for meta in self.shards)

    def matrix(self, meta: ShardMeta) -> np.ndarray:
        """The shard's float32 matrix, memory-mapped read-only."""
        if meta.name not in self._mmaps:
            path = self._shard_paths(meta)[0]
            self._mmaps[meta.name] = np.load(path, mmap_mode="r")
        return self._mmaps[meta.name]

    def norms(self, meta: ShardMeta) -> np.ndarray:
        if meta.name not in self._norms:
            self._norms[meta.name] = np.load(self._shard_paths(meta)[1])
        return self._norms[meta.name]

    def keys(self, meta: ShardMeta) -> List[str]:
        if meta.name not in self._keys:
            with open(self._shard_paths(meta)[2], "r", encoding="utf-8") as handle:
                self._keys[meta.name] = json.load(handle)["keys"]
        return self._keys[meta.name]

    def partition_path(self, generation: int) -> str:
        return os.path.join(self.directory, f"partitions-{generation:08d}.npz")

    def write_derived(self, path: str, writer) -> None:
        """Atomically persist a derived artifact (temp-then-rename)."""
        tmp = os.path.join(self.directory, f"{_TMP_PREFIX}{uuid.uuid4().hex}")
        with open(tmp, "wb") as handle:
            writer(handle)
        os.replace(tmp, path)

    def __repr__(self) -> str:
        return (
            f"ShardStore({self.directory!r}, dim={self.dim}, "
            f"shards={len(self.shards)}, rows={self.total_rows}, "
            f"generation={self.generation})"
        )
