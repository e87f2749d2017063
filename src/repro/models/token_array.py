"""Columnar token plane: interned piece ids + parallel provenance arrays.

Serialized tables used to be lists of frozen :class:`Token` dataclasses,
and every downstream stage — input embedding, attention-mask construction,
token-to-level aggregation — walked them one Python object at a time.
Telemetry showed that Python half of each characterization cell rivalling
the BLAS forward pass.  This module replaces the object stream with a
**columnar** representation:

- :class:`TokenInterner` — a process-wide mapping from token piece strings
  to small integer ids, backed by a growable content-vector matrix per
  embedding dimension (it subsumes the encoder's old per-piece
  ``_CONTENT_CACHE``): ``content_matrix(dim)[piece_ids]`` is the fused
  gather that replaces the per-token content lookup loop.
- :class:`TokenArray` — one serialized sequence as four parallel NumPy
  arrays (``piece_ids``, ``role_ids``, ``rows``, ``cols``).  Length is
  ``piece_ids.shape[0]``; truncation is a NumPy slice; anchor detection is
  a vectorized mask.  Indexing and iteration yield :class:`Token` views,
  which tests and the float oracle (:mod:`repro.models.reference_plane`)
  read; the encoder, aggregation and backends take ``TokenArray`` only.
- :class:`TokenArrayBuilder` — the serializer-side accumulator.

Bit-identity contract: the interner stores the *exact* float64 content
vectors the per-token path computed (``token_vector + anisotropy *
global_direction``), so gathers reproduce the legacy embeddings to the
last ulp (locked in by ``tests/test_token_array.py`` against
:mod:`repro.models.reference_plane`).

Wire format: :meth:`TokenArray.to_wire` emits a compact, process-portable
payload — the sorted unique piece strings plus an inverse index and the
provenance arrays — and :meth:`TokenArray.from_wire` re-interns it into
the receiving process's interner.  Pickling goes through the wire format,
which is what lets token batches cross process boundaries (sweep workers)
or, later, an HTTP boundary to a remote encoder service, without ever
shipping process-local ids.
"""

from __future__ import annotations

import base64
import dataclasses
import enum
import hashlib
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.seeding import token_vector
from repro.text.vocab import CLS

# Contextual embedding spaces are anisotropic: all vectors share a dominant
# common direction (a well-documented property of BERT-family spaces).  The
# surrogates model it by mixing a fixed global direction into every content
# vector; it is what gives sample fidelity (P5) its high baseline — two
# disjoint halves of a column still point broadly the same way.
CONTENT_ANISOTROPY = 1.0


class TokenRole(enum.Enum):
    """Structural role of a serialized token."""

    SPECIAL = "special"
    CAPTION = "caption"
    HEADER = "header"
    VALUE = "value"


# Integer role ids used in TokenArray.role_ids; the order also fixes the
# row order of the encoder's segment-vector matrix.
ROLE_SPECIAL = 0
ROLE_CAPTION = 1
ROLE_HEADER = 2
ROLE_VALUE = 3

ROLE_ORDER: Tuple[TokenRole, ...] = (
    TokenRole.SPECIAL,
    TokenRole.CAPTION,
    TokenRole.HEADER,
    TokenRole.VALUE,
)
ROLE_TO_ID: Dict[TokenRole, int] = {role: i for i, role in enumerate(ROLE_ORDER)}


@dataclasses.dataclass(frozen=True)
class Token:
    """One serialized token with table provenance.

    ``row``/``col`` are -1 when the token does not belong to a specific
    row/column (caption, global specials).  ``col`` is set on per-column
    specials such as DODUO's column [CLS] anchors so aggregation can find
    them.

    Tokens are the *object view* of the columnar plane: serializers emit
    :class:`TokenArray` natively and materialize ``Token`` instances only
    on demand (indexing, iteration, :meth:`TokenArray.tokens`).
    """

    piece: str
    role: TokenRole
    row: int = -1
    col: int = -1

    @property
    def is_anchor(self) -> bool:
        """True for per-column [CLS] anchors (DODUO-style)."""
        return self.role == TokenRole.SPECIAL and self.piece == CLS and self.col >= 0


class TokenInterner:
    """Process-wide piece-string ↔ integer-id mapping with content vectors.

    Ids are assigned densely in first-intern order and are *process-local*
    — they must never cross a process boundary raw (the wire format
    re-interns by string).  The per-dimension content matrix holds the
    exact float64 vector the legacy per-token cache stored for each piece
    (``token_vector(piece, dim) + CONTENT_ANISOTROPY * global_direction``),
    grown geometrically and filled lazily under a lock; readers gather
    from a returned matrix snapshot without locking.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ids: Dict[str, int] = {}
        self._pieces: List[str] = []
        self._content: Dict[int, np.ndarray] = {}
        self._filled: Dict[int, int] = {}
        self._global: Dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._pieces)

    # -- interning -----------------------------------------------------

    def intern(self, piece: str) -> int:
        """Id of ``piece``, assigning a fresh one on first sight."""
        pid = self._ids.get(piece)
        if pid is None:
            with self._lock:
                pid = self._ids.get(piece)
                if pid is None:
                    pid = len(self._pieces)
                    self._pieces.append(piece)
                    self._ids[piece] = pid
        return pid

    def intern_many(self, pieces: Sequence[str]) -> List[int]:
        """Ids for every piece (one lock acquisition for the misses)."""
        ids = self._ids
        out = []
        misses = False
        for piece in pieces:
            pid = ids.get(piece)
            if pid is None:
                misses = True
                break
            out.append(pid)
        if not misses:
            return out
        with self._lock:
            out = []
            for piece in pieces:
                pid = ids.get(piece)
                if pid is None:
                    pid = len(self._pieces)
                    self._pieces.append(piece)
                    ids[piece] = pid
                out.append(pid)
        return out

    def piece(self, piece_id: int) -> str:
        """The piece string of an interned id."""
        return self._pieces[piece_id]

    def id_of(self, piece: str) -> int:
        """Id of ``piece`` if interned, else -1 (never a valid id)."""
        return self._ids.get(piece, -1)

    def pieces_for(self, piece_ids: np.ndarray) -> List[str]:
        """Piece strings for an id array, in order."""
        pieces = self._pieces
        return [pieces[int(i)] for i in piece_ids]

    # -- content vectors ----------------------------------------------

    def global_direction(self, dim: int) -> np.ndarray:
        direction = self._global.get(dim)
        if direction is None:
            raw = token_vector("__global_direction__", dim, namespace="content-global")
            direction = raw / np.linalg.norm(raw) * np.sqrt(dim)
            self._global[dim] = direction
        return direction

    def content_matrix(self, dim: int) -> np.ndarray:
        """Content vectors for every interned piece, shape [n_pieces, dim].

        Row ``i`` is exactly the vector the legacy per-piece cache held
        for piece ``i``.  The returned array may have spare capacity rows
        past the currently interned pieces; gathers by valid ids never
        touch them.  Safe to call concurrently with interning: rows for
        every piece interned *before* the call are filled on return.
        """
        n = len(self._pieces)
        if self._filled.get(dim, 0) >= n:
            return self._content[dim]
        with self._lock:
            n = len(self._pieces)
            filled = self._filled.get(dim, 0)
            mat = self._content.get(dim)
            if mat is None or mat.shape[0] < n:
                capacity = max(256, n, 2 * (mat.shape[0] if mat is not None else 0))
                grown = np.empty((capacity, dim), dtype=np.float64)
                if filled:
                    grown[:filled] = mat[:filled]
                mat = grown
            direction = self.global_direction(dim)
            for i in range(filled, n):
                mat[i] = token_vector(self._pieces[i], dim) + CONTENT_ANISOTROPY * direction
            self._content[dim] = mat
            self._filled[dim] = n
            return mat


#: The process-wide interner every serializer, encoder, and TokenArray
#: shares; production code never builds a second one.  Wire-path tests
#: may swap this module attribute to simulate a fresh receiving process,
#: but ONLY for arrays rebuilt via ``from_wire`` afterwards: arrays built
#: earlier keep ids from the old interner, and the serializers/encoder
#: capture this binding (and special-piece ids) at import time, so
#: serialization under a swapped interner is undefined.
INTERNER = TokenInterner()

# Intern the anchor piece eagerly so is_anchor never races first-use.
_ = INTERNER.intern(CLS)


def _as_index_array(values, dtype=np.int32, lower: Optional[int] = None) -> np.ndarray:
    """Validating cast to a 1-D index array.

    ``np.asarray(values, dtype=np.int32)`` wraps out-of-range values
    silently (a 256th role id would become role 0 under ``uint8``), so the
    cast goes through a range check first: out-of-range input is a bug in
    the producer and must raise, never alias another token.  ``lower``
    additionally floors the *values* (piece ids use 0: a negative id
    would gather the wrong content row via Python-style wraparound) and
    is enforced even on the no-conversion fast path.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError("token arrays must be one-dimensional")
    if arr.dtype != dtype:
        if arr.size:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(
                    f"token arrays must hold integers, got dtype {arr.dtype}"
                )
            info = np.iinfo(dtype)
            lo, hi = int(arr.min()), int(arr.max())
            if lo < info.min or hi > info.max:
                raise ValueError(
                    f"token array value out of range for {np.dtype(dtype).name}: "
                    f"saw [{lo}, {hi}], representable [{info.min}, {info.max}]"
                )
        arr = arr.astype(dtype)
    if lower is not None and arr.size and int(arr.min()) < lower:
        raise ValueError(
            f"token index below {lower}: saw {int(arr.min())} (negative ids "
            "would silently alias through wraparound indexing)"
        )
    return arr


# Keys every wire payload must carry.
_WIRE_KEYS = ("pieces", "piece_index", "role_ids", "rows", "cols", "digest")


def _wire_digest(
    pieces: Sequence[str],
    piece_index: np.ndarray,
    role_ids: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
) -> str:
    """The canonical content hash over a (pieces, provenance) decomposition.

    Shared by :meth:`TokenArray.digest` (interner-side) and
    :meth:`TokenArray.from_wire` (payload-side, *before* any interning) —
    one definition so the two sides can never drift.
    """
    digest = hashlib.sha256(b"token-array\x00")
    for piece in pieces:
        digest.update(piece.encode("utf-8", "replace"))
        digest.update(b"\x1f")
    digest.update(b"\x00")
    digest.update(piece_index.astype(np.int32).tobytes())
    digest.update(np.ascontiguousarray(role_ids).tobytes())
    digest.update(np.ascontiguousarray(rows).tobytes())
    digest.update(np.ascontiguousarray(cols).tobytes())
    return digest.hexdigest()


def _wire_field(
    wire: Dict[str, object], key: str, *, lower: int, upper: Optional[int] = None
) -> np.ndarray:
    """One validated integer array out of a wire payload.

    Checks shape, integer dtype, and the ``[lower, upper]`` value range
    *before* any gather uses the values as indices, so malformed payloads
    fail with a message naming the field instead of a bare ``IndexError``
    — and negative indices can never silently alias through Python-style
    wraparound.
    """
    arr = np.asarray(wire[key])
    if arr.ndim != 1:
        raise ValueError(f"wire field {key!r} must be one-dimensional")
    if upper is None:
        upper = int(np.iinfo(np.int32).max)
    if arr.size:
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(
                f"wire field {key!r} must hold integers, got dtype {arr.dtype}"
            )
        lo, hi = int(arr.min()), int(arr.max())
        if lo < lower or hi > upper:
            raise ValueError(
                f"wire field {key!r} out of range: saw [{lo}, {hi}], "
                f"valid [{lower}, {upper}]"
            )
    return arr.astype(np.int32)


class TokenArray:
    """One serialized sequence as four parallel arrays (+ Token views).

    The one token stream of the models layer: serializers emit it,
    encoders gather from it, aggregation reduces over it.  Sequence
    semantics (``len``, ``[i]``, iteration, slicing) match a
    ``List[Token]``, with ``[i]`` materializing a :class:`Token` view on
    demand and ``[a:b]`` returning a (zero-copy) ``TokenArray``.
    """

    __slots__ = ("piece_ids", "role_ids", "rows", "cols")

    def __init__(self, piece_ids, role_ids, rows, cols):
        self.piece_ids = _as_index_array(piece_ids, lower=0)
        self.role_ids = _as_index_array(role_ids, dtype=np.uint8)
        self.rows = _as_index_array(rows)
        self.cols = _as_index_array(cols)
        n = self.piece_ids.shape[0]
        if not (self.role_ids.shape[0] == self.rows.shape[0] == self.cols.shape[0] == n):
            raise ValueError("parallel token arrays must share one length")

    # -- construction --------------------------------------------------

    @classmethod
    def empty(cls) -> "TokenArray":
        return cls([], [], [], [])

    @classmethod
    def from_tokens(cls, tokens: Sequence[Token]) -> "TokenArray":
        """Columnar form of a ``Token`` list (round-trips exactly)."""
        piece_ids = INTERNER.intern_many([t.piece for t in tokens])
        return cls(
            piece_ids,
            [ROLE_TO_ID[t.role] for t in tokens],
            [t.row for t in tokens],
            [t.col for t in tokens],
        )

    # -- sequence protocol --------------------------------------------

    def __len__(self) -> int:
        return self.piece_ids.shape[0]

    def token(self, i: int) -> Token:
        """The :class:`Token` view of position ``i``."""
        return Token(
            INTERNER.piece(int(self.piece_ids[i])),
            ROLE_ORDER[self.role_ids[i]],
            row=int(self.rows[i]),
            col=int(self.cols[i]),
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TokenArray(
                self.piece_ids[index],
                self.role_ids[index],
                self.rows[index],
                self.cols[index],
            )
        return self.token(int(index))

    def __iter__(self) -> Iterator[Token]:
        pieces = INTERNER.pieces_for(self.piece_ids)
        for piece, role, row, col in zip(pieces, self.role_ids, self.rows, self.cols):
            yield Token(piece, ROLE_ORDER[role], row=int(row), col=int(col))

    def __repr__(self) -> str:
        return f"TokenArray(len={len(self)})"

    def __eq__(self, other) -> bool:
        if isinstance(other, TokenArray):
            return (
                np.array_equal(self.piece_ids, other.piece_ids)
                and np.array_equal(self.role_ids, other.role_ids)
                and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols)
            )
        return NotImplemented

    __hash__ = None  # arrays are mutable; equality is by content

    # -- views ---------------------------------------------------------

    def tokens(self) -> List[Token]:
        """Materialize the ``List[Token]`` object view."""
        return list(self)

    @property
    def is_anchor(self) -> np.ndarray:
        """Boolean mask of per-column [CLS] anchors (DODUO-style)."""
        cls_id = INTERNER.id_of(CLS)
        return (
            (self.role_ids == ROLE_SPECIAL)
            & (self.cols >= 0)
            & (self.piece_ids == cls_id)
        )

    # -- wire format ---------------------------------------------------

    def _canonical_pieces(self) -> Tuple[List[str], np.ndarray]:
        """Unique piece strings sorted *lexicographically* + inverse index.

        Canonical across processes and interner states: process-local ids
        only pick the unique set; the ordering (and therefore the inverse
        index) depends on the piece strings alone.  Sorting by id instead
        would make two interners that assigned the same pieces in a
        different order disagree on the decomposition — and with it the
        digest — rejecting perfectly valid wire payloads.
        """
        unique, inverse = np.unique(self.piece_ids, return_inverse=True)
        pieces = [INTERNER.piece(int(p)) for p in unique]
        order = sorted(range(len(pieces)), key=pieces.__getitem__)
        rank = np.empty(len(order), dtype=np.int32)
        rank[np.asarray(order, dtype=np.int64)] = np.arange(
            len(order), dtype=np.int32
        )
        return [pieces[i] for i in order], rank[inverse].astype(np.int32)

    def to_wire(self) -> Dict[str, object]:
        """Process-portable payload: piece *strings* + provenance arrays.

        ``pieces`` holds the lexicographically sorted unique piece strings
        and ``piece_index`` indexes into it per position — compact when a
        sequence repeats pieces (tables do, heavily), and the shape a
        remote encoder backend can ship over HTTP as-is.
        """
        pieces, piece_index = self._canonical_pieces()
        return {
            "pieces": pieces,
            "piece_index": piece_index,
            "role_ids": np.ascontiguousarray(self.role_ids),
            "rows": np.ascontiguousarray(self.rows),
            "cols": np.ascontiguousarray(self.cols),
            "digest": self._digest_of(pieces, piece_index),
        }

    @classmethod
    def from_wire(cls, wire: Dict[str, object]) -> "TokenArray":
        """Rebuild from :meth:`to_wire` output, re-interning locally.

        Every field is bounds-validated *before* construction — a malformed
        payload raises ``ValueError`` with the offending field named, never
        a bare ``IndexError`` (and a negative ``piece_index`` must never
        silently alias a piece through Python indexing).  The ``digest``
        key is mandatory on every path: transport callers (pickle, HTTP)
        always produce it, and a torn or mistranslated payload must never
        silently embed as something else.
        """
        missing = [key for key in _WIRE_KEYS if key not in wire]
        if missing:
            raise ValueError(f"token-array wire payload missing keys: {missing}")
        pieces = list(wire["pieces"])
        piece_index = _wire_field(wire, "piece_index", lower=0, upper=len(pieces) - 1)
        role_ids = _wire_field(wire, "role_ids", lower=0, upper=len(ROLE_ORDER) - 1).astype(
            np.uint8
        )
        rows = _wire_field(wire, "rows", lower=-1)
        cols = _wire_field(wire, "cols", lower=-1)
        # Integrity check runs *before* any interning: the process-wide
        # interner (and its content matrices) must never grow from a
        # payload that is about to be rejected — a service fed junk
        # payloads would otherwise leak memory per rejected request.
        # The payload is re-canonicalized (used pieces, lexicographic,
        # deduplicated) exactly as ``digest()`` would after construction.
        index_list = piece_index.tolist()
        used = sorted({pieces[i] for i in index_list})
        rank = {piece: i for i, piece in enumerate(used)}
        canonical = np.asarray([rank[pieces[i]] for i in index_list], dtype=np.int32)
        if _wire_digest(used, canonical, role_ids, rows, cols) != wire["digest"]:
            raise ValueError("token-array wire payload failed its digest check")
        local_ids = np.asarray(INTERNER.intern_many(pieces), dtype=np.int32)
        return cls(
            local_ids[piece_index] if len(piece_index) else piece_index,
            role_ids,
            rows,
            cols,
        )

    def __reduce__(self):
        # Pickle through the wire format: raw piece ids are process-local,
        # so cross-process shipping (sweep workers, remote backends) must
        # re-intern by string on the receiving side.
        return (TokenArray.from_wire, (self.to_wire(),))

    def digest(self) -> str:
        """Content hash over piece strings + provenance array bytes.

        Canonical across processes and interner states: pieces enter the
        hash as *lexicographically* sorted unique strings plus an inverse
        index (see :meth:`_canonical_pieces`), never as raw process-local
        ids.  This is the serialization-side fingerprint cache layers and
        wire transports share.
        """
        return self._digest_of(*self._canonical_pieces())

    def _digest_of(self, pieces: List[str], piece_index: np.ndarray) -> str:
        return _wire_digest(pieces, piece_index, self.role_ids, self.rows, self.cols)


class TokenArrayBuilder:
    """Serializer-side accumulator for one :class:`TokenArray`.

    Appends stay plain-Python-int lists (cheap) and become arrays once at
    :meth:`build`.  Piece interning happens at append time so repeated
    values hit the interner's dict, not the tokenizer.
    """

    __slots__ = ("_piece_ids", "_role_ids", "_rows", "_cols")

    def __init__(self) -> None:
        self._piece_ids: List[int] = []
        self._role_ids: List[int] = []
        self._rows: List[int] = []
        self._cols: List[int] = []

    def __len__(self) -> int:
        return len(self._piece_ids)

    def append_id(self, piece_id: int, role_id: int, row: int = -1, col: int = -1) -> None:
        """Append one token by pre-interned piece id."""
        self._piece_ids.append(piece_id)
        self._role_ids.append(role_id)
        self._rows.append(row)
        self._cols.append(col)

    def extend_ids(
        self, piece_ids: Sequence[int], role_id: int, row: int = -1, col: int = -1
    ) -> None:
        """Append a run of tokens sharing one (role, row, col)."""
        k = len(piece_ids)
        if not k:
            return
        self._piece_ids.extend(piece_ids)
        self._role_ids.extend([role_id] * k)
        self._rows.extend([row] * k)
        self._cols.extend([col] * k)

    def build(self) -> TokenArray:
        return TokenArray(self._piece_ids, self._role_ids, self._rows, self._cols)


# ----------------------------------------------------------------------
# JSON wire codec
# ----------------------------------------------------------------------
#
# The HTTP transport (repro.models.backends.remote) ships wire payloads as
# JSON: piece strings stay a plain string list, provenance arrays travel as
# base64 of their canonical little-endian bytes.  The codec is lossless —
# ``wire_from_jsonable(wire_to_jsonable(w))`` rebuilds arrays with the
# exact dtypes ``to_wire`` emitted, so the digest (computed over those
# bytes) survives the round trip unchanged.

_WIRE_DTYPES = {
    "piece_index": np.dtype("<i4"),
    "role_ids": np.dtype("|u1"),
    "rows": np.dtype("<i4"),
    "cols": np.dtype("<i4"),
}


def wire_to_jsonable(wire: Dict[str, object]) -> Dict[str, object]:
    """JSON-safe form of a :meth:`TokenArray.to_wire` payload."""
    out: Dict[str, object] = {"pieces": list(wire["pieces"])}
    for key, dtype in _WIRE_DTYPES.items():
        arr = np.ascontiguousarray(np.asarray(wire[key]).astype(dtype, copy=False))
        out[key] = base64.b64encode(arr.tobytes()).decode("ascii")
    out["digest"] = wire["digest"]
    return out


def wire_from_jsonable(payload: Dict[str, object]) -> Dict[str, object]:
    """Invert :func:`wire_to_jsonable`; feed the result to ``from_wire``.

    Only decodes — all content/integrity validation (bounds, digest) lives
    in :meth:`TokenArray.from_wire` so every transport shares one checker.
    Raises ``ValueError`` on structurally broken payloads (missing keys,
    non-base64 text, byte counts that are not a whole number of elements).
    """
    missing = [key for key in _WIRE_KEYS if key not in payload]
    if missing:
        raise ValueError(f"JSON wire payload missing keys: {missing}")
    pieces = payload["pieces"]
    if not isinstance(pieces, list) or not all(isinstance(p, str) for p in pieces):
        raise ValueError("JSON wire field 'pieces' must be a list of strings")
    out: Dict[str, object] = {"pieces": pieces, "digest": payload["digest"]}
    for key, dtype in _WIRE_DTYPES.items():
        text = payload[key]
        if not isinstance(text, str):
            raise ValueError(f"JSON wire field {key!r} must be a base64 string")
        try:
            raw = base64.b64decode(text.encode("ascii"), validate=True)
        except Exception as error:
            raise ValueError(f"JSON wire field {key!r} is not valid base64") from error
        if len(raw) % dtype.itemsize:
            raise ValueError(
                f"JSON wire field {key!r} is torn: {len(raw)} bytes is not a "
                f"multiple of element size {dtype.itemsize}"
            )
        out[key] = np.frombuffer(raw, dtype=dtype)
    return out
