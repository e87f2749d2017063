"""Surrogate embedding models.

Deterministic numpy transformer encoders standing in for the nine pretrained
checkpoints the paper evaluates.  Each surrogate reproduces the
*architectural mechanisms* the paper attributes each model's behaviour to —
serialization order, positional-encoding scheme, attention masking, pooling
anchors, header/value weighting, and output geometry — on top of a content
space shared across models.
"""

from repro.models.backends import (
    EncoderBackend,
    LocalBackend,
    RemoteBackend,
    TransportStats,
    available_backends,
    register_backend,
    resolve_backend,
)
from repro.models.config import ModelConfig
from repro.models.base import EmbeddingModel, LevelBatchPlan, SurrogateModel
from repro.models.registry import available_models, load_model, register_model
from repro.models.token_array import Token, TokenArray, TokenInterner, TokenRole

__all__ = [
    "EncoderBackend",
    "LocalBackend",
    "ModelConfig",
    "EmbeddingModel",
    "LevelBatchPlan",
    "RemoteBackend",
    "SurrogateModel",
    "Token",
    "TokenArray",
    "TokenInterner",
    "TokenRole",
    "TransportStats",
    "available_backends",
    "available_models",
    "load_model",
    "register_backend",
    "register_model",
    "resolve_backend",
]
