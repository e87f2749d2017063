"""The one counters model: every ``repro.telemetry.Counters`` kind obeys it.

Merging, diffing, copying, pickling (worker snapshots cross a spawn pipe)
and serializing all work from the dataclass fields, so one property test
over every subclass — with populated per-replica entries — pins the
behaviour the sweep engines, the journal and the benchmark rely on.
"""

import dataclasses
import pickle
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.backends.remote import ReplicaStats, TransportStats
from repro.runtime import CacheStats, PipelineStats

KINDS = [CacheStats, PipelineStats, ReplicaStats, TransportStats]

# to_dict() keys read outside src/ (perfbench/run.py and perfbench/layers.py).
READ_OUTSIDE = {
    CacheStats: {"hits", "misses", "evictions"},
    PipelineStats: {"sequences", "wait_seconds", "encode_seconds", "overlap_ratio"},
}

URLS = st.sampled_from(["http://a:1", "http://b:2", "http://c:3"])


def counters_of(cls):
    """Records of ``cls``; keyed fields get one to three non-empty entries."""
    hints = typing.get_type_hints(cls)
    fields = {}
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        if hint is int:
            fields[field.name] = st.integers(min_value=0, max_value=2**40)
        elif hint is float:
            # Nonzero seconds are >= 1 ms, so a diff never rounds to zero.
            fields[field.name] = st.just(0.0) | st.floats(min_value=1e-3, max_value=1e6)
        else:
            part = counters_of(typing.get_args(hint)[1]).filter(lambda c: not c.empty())
            fields[field.name] = st.dictionaries(URLS, part, min_size=1, max_size=3)
    return st.builds(cls, **fields)


def flat(stats):
    """Every counter by name, keyed entries flattened to ``field[key].name``."""
    out = {}
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        if isinstance(value, dict):
            for key, part in value.items():
                out.update({f"{field.name}[{key}].{k}": v for k, v in flat(part).items()})
        else:
            out[field.name] = value
    return out


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_every_kind_merges_diffs_copies_and_serializes(data):
    cls = data.draw(st.sampled_from(KINDS))
    a = data.draw(counters_of(cls))
    b = data.draw(counters_of(cls))

    merged = cls.merged([a, b])
    left, right = flat(a), flat(b)
    assert flat(merged) == {
        key: left.get(key, 0) + right.get(key, 0) for key in {**left, **right}
    }
    assert flat(merged.since(a)) == pytest.approx(right, rel=1e-9, abs=1e-6)
    assert cls.merged([]) == cls()

    copied = a.copy()
    assert copied == a
    for field in dataclasses.fields(a):
        value = getattr(a, field.name)
        if isinstance(value, dict):
            assert getattr(copied, field.name) is not value
            for key, part in value.items():
                assert getattr(copied, field.name)[key] is not part

    assert pickle.loads(pickle.dumps(a)) == a

    assert cls().empty()
    assert a.empty() == (not any(left.values()))
    scalar = data.draw(st.sampled_from([f.name for f in dataclasses.fields(cls)]))
    if not isinstance(getattr(a, scalar), dict):
        assert not cls(**{scalar: 1}).empty()

    rendered = a.to_dict()
    assert READ_OUTSIDE.get(cls, set()) <= set(rendered)
    for name in cls.derived:
        assert rendered[name] == getattr(a, name)
