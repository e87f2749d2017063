"""Model registry: name -> factory.

``load_model("bert")`` returns a fresh surrogate; :func:`register_model`
is the extension point for analyzing new models with the framework (mirrors
the paper's extensibility claim).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ModelError
from repro.models.base import EmbeddingModel
from repro.models import zoo

ModelFactory = Callable[[], EmbeddingModel]

# The paper's two model categories; order matches the figures' legend order.
LANGUAGE_MODELS = ("bert", "roberta", "t5")
TABLE_MODELS = ("turl", "doduo", "tapas", "tabert", "tapex", "taptap")

_REGISTRY: Dict[str, ModelFactory] = {
    "bert": zoo.build_bert,
    "roberta": zoo.build_roberta,
    "t5": zoo.build_t5,
    "turl": zoo.build_turl,
    "doduo": zoo.build_doduo,
    "tapas": zoo.build_tapas,
    "tabert": zoo.build_tabert,
    "tapex": zoo.build_tapex,
    "taptap": zoo.build_taptap,
}


def available_models() -> List[str]:
    """Registered model names (language models first, paper order)."""
    builtin = [n for n in LANGUAGE_MODELS + TABLE_MODELS if n in _REGISTRY]
    extras = sorted(set(_REGISTRY) - set(builtin))
    return builtin + extras


def load_model(name: str, *, backend=None) -> EmbeddingModel:
    """Instantiate a registered model by name.

    ``backend`` optionally selects the encoder batching strategy — a
    :class:`~repro.models.backends.EncoderBackend` instance or registered
    backend name (``"local"``/``"remote"``).  Only models that expose
    ``set_backend`` (the surrogates) accept one; passing a backend to a
    custom registered model without that hook is an error rather than a
    silent no-op.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ModelError(
            f"unknown model {name!r}; available: {', '.join(available_models())}"
        ) from None
    model = factory()
    if backend is not None:
        setter = getattr(model, "set_backend", None)
        if setter is None:
            raise ModelError(
                f"model {name!r} does not support encoder backends"
            )
        setter(backend)
    return model


def register_model(name: str, factory: ModelFactory, *, overwrite: bool = False) -> None:
    """Register a new model factory under ``name``.

    This is the public extension point: implement
    :class:`~repro.models.base.EmbeddingModel` for your model and register
    it to run any Observatory property against it.
    """
    if name in _REGISTRY and not overwrite:
        raise ModelError(f"model {name!r} already registered")
    _REGISTRY[name] = factory


def unregister_model(name: str) -> None:
    """Remove a registered model (primarily for tests)."""
    _REGISTRY.pop(name, None)
