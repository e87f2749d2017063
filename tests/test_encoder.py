"""Tests for the numpy transformer encoder."""

import dataclasses
import sys
import threading

import numpy as np

from repro.models import Token, TokenArray, TokenRole
from repro.models.backends import LocalBackend
from repro.models.config import AttentionMask, ModelConfig, OutputNorm, PositionKind
from repro.models.encoder import Encoder
from tests.conftest import cached_model, table_tokens


def token_list(pieces, rows=None, cols=None, roles=None):
    n = len(pieces)
    rows = rows or [-1] * n
    cols = cols or [-1] * n
    roles = roles or [TokenRole.VALUE] * n
    return [Token(p, role, row=r, col=c) for p, role, r, c in zip(pieces, roles, rows, cols)]


def tokens_of(pieces, rows=None, cols=None, roles=None):
    return TokenArray.from_tokens(token_list(pieces, rows, cols, roles))


BASE = ModelConfig(name="enc-test", dim=32, n_layers=2, n_heads=4)


def test_encode_shape_and_determinism():
    encoder = Encoder(BASE)
    toks = tokens_of(["a", "b", "c"])
    out1 = encoder.encode(toks)
    out2 = Encoder(BASE).encode(toks)
    assert out1.shape == (3, 32)
    assert np.allclose(out1, out2)


def test_encode_empty():
    assert Encoder(BASE).encode(TokenArray.empty()).shape == (0, 32)


def test_different_seed_names_differ():
    toks = tokens_of(["a", "b"])
    a = Encoder(BASE).encode(toks)
    b = Encoder(dataclasses.replace(BASE, name="other", seed_name="other")).encode(toks)
    assert not np.allclose(a, b)


def test_seed_name_survives_config_replace():
    """Derived seed_name sticks through dataclasses.replace (config variants
    of one model keep that model's weights unless explicitly reseeded)."""
    variant = dataclasses.replace(BASE, position_scale=0.9)
    assert variant.seed_name == BASE.seed_name


def test_position_blind_config_is_permutation_equivariant():
    cfg = dataclasses.replace(BASE, position_kind=PositionKind.NONE, position_scale=0.0)
    encoder = Encoder(cfg)
    toks = tokens_of(["a", "b", "c", "d"])
    out = encoder.encode(toks)
    perm = [2, 0, 3, 1]
    permuted_out = encoder.encode(TokenArray.from_tokens([toks[i] for i in perm]))
    assert np.allclose(out[perm], permuted_out, atol=1e-10)


def test_absolute_positions_break_equivariance():
    cfg = dataclasses.replace(BASE, position_kind=PositionKind.ABSOLUTE, position_scale=0.5)
    encoder = Encoder(cfg)
    toks = tokens_of(["a", "b", "c", "d"])
    out = encoder.encode(toks)
    perm = [2, 0, 3, 1]
    permuted_out = encoder.encode(TokenArray.from_tokens([toks[i] for i in perm]))
    assert not np.allclose(out[perm], permuted_out)


def test_row_column_positions_affect_embedding():
    cfg = dataclasses.replace(
        BASE,
        position_kind=PositionKind.ROW_COLUMN,
        row_position_scale=0.5,
        column_position_scale=0.5,
    )
    encoder = Encoder(cfg)
    a = encoder.encode(tokens_of(["a"], rows=[0], cols=[0]))
    b = encoder.encode(tokens_of(["a"], rows=[1], cols=[0]))
    c = encoder.encode(tokens_of(["a"], rows=[0], cols=[1]))
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_relative_bias_shape_and_decay():
    cfg = dataclasses.replace(BASE, position_kind=PositionKind.RELATIVE, relative_tau=4.0)
    encoder = Encoder(cfg)
    bias = encoder.attention_bias(tokens_of(["a", "b", "c"]))
    assert bias.shape == (3, 3)
    assert bias[0, 0] == 0.0
    assert bias[0, 2] < bias[0, 1] < 0.0


def test_column_local_mask():
    cfg = dataclasses.replace(BASE, attention_mask=AttentionMask.COLUMN_LOCAL)
    encoder = Encoder(cfg)
    toks = tokens_of(["a", "b", "c"], rows=[0, 0, 0], cols=[0, 1, 0])
    mask = encoder.attention_mask(toks)
    assert mask[0, 2] and mask[2, 0]  # same column
    assert not mask[0, 1]  # different columns


def test_row_local_mask():
    cfg = dataclasses.replace(BASE, attention_mask=AttentionMask.ROW_LOCAL)
    encoder = Encoder(cfg)
    toks = tokens_of(["a", "b", "c"], rows=[0, 1, 0], cols=[0, 0, 1])
    mask = encoder.attention_mask(toks)
    assert mask[0, 2]
    assert not mask[0, 1]


def test_global_specials_visible_everywhere():
    cfg = dataclasses.replace(BASE, attention_mask=AttentionMask.COLUMN_LOCAL)
    encoder = Encoder(cfg)
    toks = TokenArray.from_tokens(
        [Token("[CLS]", TokenRole.SPECIAL)] + token_list(["a", "b"], rows=[0, 0], cols=[0, 1])
    )
    mask = encoder.attention_mask(toks)
    assert mask[1, 0] and mask[0, 1] and mask[2, 0]


def test_column_local_mask_blocks_context_mixing():
    """TaBERT's mechanism: another column's content cannot reach this one."""
    cfg = dataclasses.replace(
        BASE,
        attention_mask=AttentionMask.COLUMN_LOCAL,
        position_kind=PositionKind.NONE,
        position_scale=0.0,
    )
    encoder = Encoder(cfg)
    col0 = token_list(["a", "b"], rows=[0, 1], cols=[0, 0])
    with_other = col0 + token_list(["x", "y"], rows=[0, 1], cols=[1, 1])
    out_alone = encoder.encode(TokenArray.from_tokens(col0))
    out_together = encoder.encode(TokenArray.from_tokens(with_other))
    assert np.allclose(out_alone, out_together[:2], atol=1e-10)


def test_output_norm_none_changes_scale():
    normed = Encoder(BASE).encode(tokens_of(["a", "b"]))
    raw_cfg = dataclasses.replace(BASE, output_norm=OutputNorm.NONE)
    raw = Encoder(raw_cfg).encode(tokens_of(["a", "b"]))
    # layer-normed token rows have norm ~= sqrt(dim)
    assert np.allclose(np.linalg.norm(normed, axis=1), np.sqrt(32), rtol=0.01)
    assert not np.allclose(np.linalg.norm(raw, axis=1), np.sqrt(32), rtol=0.01)


def test_output_scale():
    base = Encoder(BASE).encode(tokens_of(["a"]))
    scaled_cfg = dataclasses.replace(BASE, output_scale=3.0)
    scaled = Encoder(scaled_cfg).encode(tokens_of(["a"]))
    assert np.allclose(scaled, base * 3.0)


def test_anisotropy_adds_shared_direction():
    cfg = dataclasses.replace(BASE, anisotropy=10.0, anisotropy_shift=1.0)
    encoder = Encoder(cfg)
    out = encoder.encode(tokens_of(["a", "b", "c"]))
    direction = encoder.weights.anisotropy_direction
    projections = out @ direction
    assert np.all(projections > 1.0)  # strong common component


def test_attention_gain_changes_output():
    toks = tokens_of(["a", "b", "c"])
    a = Encoder(BASE).encode(toks)
    b = Encoder(dataclasses.replace(BASE, attention_gain=3.0)).encode(toks)
    assert not np.allclose(a, b)


def test_concurrent_forwards_on_one_encoder_match_serial():
    """One encoder serves sweep workers, encode-loop threads and service
    runners at once: no call may see another's scratch state."""
    encoder = cached_model("tabert").encoder  # a local mask: a score term exists
    lengths = [10, 450, 37, 200, 10, 300, 48, 120, 37, 450, 64]
    sequences = [TokenArray.from_tokens(table_tokens(n, i)) for i, n in enumerate(lengths)]
    serial = [encoder.encode(s) for s in sequences]
    start = threading.Barrier(4)
    outputs, errors = [], []

    def work(worker: int) -> None:
        try:
            start.wait()
            for round_ in range(3):
                # Rotate so threads hit different lengths at the same moment.
                shift = (worker + round_) % len(sequences)
                order = list(range(shift, len(sequences))) + list(range(shift))
                batch = [sequences[i] for i in order]
                if (worker + round_) % 2:
                    got = LocalBackend().encode_batch(encoder, batch, batch_size=4)
                else:
                    got = [encoder.encode(s) for s in batch]
                outputs.extend(zip(order, got))
        except Exception as exc:  # surfaced below, with the thread's error
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads' Python steps often
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(outputs) == 4 * 3 * len(sequences)
    for i, got in outputs:
        assert np.array_equal(got, serial[i]), f"sequence {i} ({lengths[i]} tokens)"
