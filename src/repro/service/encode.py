"""The ``/encode`` endpoint semantics, shared by every server in the tree.

This is the service half of the remote-encoder protocol: requests carry
:func:`~repro.models.token_array.wire_from_jsonable` TokenArray payloads
plus a :meth:`ModelConfig.to_jsonable` model description; responses carry
base64 hidden states with digest echoes.  Historically this logic lived
inside the loopback test double; now the always-on characterization
service mounts the same endpoint, so a ``repro serve`` instance doubles
as an encoder-fleet replica — and there is exactly one implementation of
the wire semantics to keep honest.

:class:`EncoderPool` caches one rebuilt encoder per model config, each on
the exact local backend; :meth:`EncoderPool.encode_request` runs one
request end to end and returns the jsonable response body.  Fault
injection stays where it belongs — in
:mod:`repro.testing.encoder_service`, layered *around* these semantics.
"""

from __future__ import annotations

import base64
import hashlib
import json
import threading
from typing import Dict, List

import numpy as np

from repro.models.backends.remote import PROTOCOL_VERSION
from repro.models.config import ModelConfig
from repro.models.encoder import Encoder
from repro.models.token_array import TokenArray, wire_from_jsonable

#: Protocol versions the service accepts: only the current one (2, which
#: added ``state_dtype`` and the ``dtype`` echo).
ACCEPTED_PROTOCOLS = (PROTOCOL_VERSION,)


def state_entry(
    digest: str, state: np.ndarray, state_dtype: str = "float64"
) -> Dict[str, object]:
    """One response entry: base64 state bytes + integrity digest + echo."""
    wire_dtype = "<f4" if state_dtype == "float32" else "<f8"
    raw = np.ascontiguousarray(state.astype(wire_dtype, copy=False)).tobytes()
    return {
        "digest": digest,
        "shape": list(state.shape),
        "data": base64.b64encode(raw).decode("ascii"),
        "data_digest": hashlib.sha256(raw).hexdigest(),
        "dtype": state_dtype,
    }


class EncoderPool:
    """Encoders rebuilt from shipped :class:`ModelConfig`, cached per key.

    The cache key is the canonical config JSON — the full determinant of
    the encoder's numerics.  Thread-safe: the HTTP plane dispatches
    requests on per-connection threads.

    Attributes:
        requests_served: successful encode responses produced.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._encoders: Dict[str, Encoder] = {}
        self.requests_served = 0

    def encoder_for(self, config: ModelConfig) -> Encoder:
        """One cached encoder (local backend) per model config."""
        key = json.dumps(config.to_jsonable(), sort_keys=True)
        with self._lock:
            encoder = self._encoders.get(key)
            if encoder is None:
                encoder = self._encoders[key] = Encoder(config)
            return encoder

    def encode_request(self, request: Dict[str, object]) -> Dict[str, object]:
        """Validate, decode, encode, and package one wire request.

        Raises ``ValueError``/``KeyError`` on malformed requests (the
        HTTP plane maps those to 400) and lets backend/wire integrity
        errors propagate typed.
        """
        protocol = request.get("protocol")
        if protocol not in ACCEPTED_PROTOCOLS:
            raise ValueError(
                f"protocol mismatch: service speaks {ACCEPTED_PROTOCOLS}, "
                f"request says {protocol!r}"
            )
        # Older clients still send mode="exact", the one batching mode a
        # service runs; any other mode is refused.
        mode = request.get("mode", "exact")
        if mode != "exact":
            raise ValueError(f"unsupported mode {mode!r}; only 'exact' is served")
        state_dtype = str(request.get("state_dtype", "float64"))
        if state_dtype not in ("float64", "float32"):
            raise ValueError(f"unknown state_dtype {state_dtype!r}")
        config = ModelConfig.from_jsonable(request["model"])
        batch_size = int(request.get("batch_size", 8))
        encoder = self.encoder_for(config)
        arrays: List[TokenArray] = []
        digests: List[str] = []
        for payload in request["sequences"]:
            wire = wire_from_jsonable(payload)
            arrays.append(TokenArray.from_wire(wire))  # digest-checked
            digests.append(str(wire["digest"]))
        states = encoder.backend.encode_batch(encoder, arrays, batch_size=batch_size)
        entries = [
            state_entry(digest, state, state_dtype)
            for digest, state in zip(digests, states)
        ]
        with self._lock:
            self.requests_served += 1
        return {"states": entries}
