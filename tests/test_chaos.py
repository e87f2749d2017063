"""Cross-layer chaos harness tests.

The invariant under test (see :mod:`repro.testing.chaos`): every sweep
completes, degrades with named failures, or resumes bit-identically —
never hangs, never silently drops a cell.  These tests compose the
injectors the same way the CI chaos-smoke job does, at the smallest
sizes that still exercise multi-worker scheduling.
"""

import json
import os

import numpy as np
import pytest

from repro import Observatory, RuntimeConfig
from repro.core.framework import DatasetSizes
from repro.errors import CellPoisonedError
from repro.runtime.disk import DiskTier
from repro.runtime.faults import FaultPolicy
from repro.runtime.scheduler import CRASH_ENV
from repro.testing import ChaosPlan, assert_sweep_invariant

SIZES = DatasetSizes(
    wikitables_tables=3,
    spider_databases=2,
    nextiajd_pairs=6,
    sotab_tables=4,
    n_permutations=4,
    min_rows=4,
    max_rows=6,
)
MODELS = ["bert", "taptap"]
PROPS = ["row_order_insignificance", "sample_fidelity"]


def make_observatory(**runtime_kwargs) -> Observatory:
    return Observatory(seed=3, sizes=SIZES, runtime=RuntimeConfig(**runtime_kwargs))


def cell_dicts(sweep):
    return {
        (c.model_name, c.property_name): c.result.to_dict() for c in sweep.cells
    }


class TestChaosPlanMechanics:
    def test_env_injection_applied_and_restored(self, monkeypatch):
        monkeypatch.delenv(CRASH_ENV, raising=False)
        with ChaosPlan(seed=1).worker_crash(0):
            assert os.environ[CRASH_ENV] == "worker:0"
        assert CRASH_ENV not in os.environ
        monkeypatch.setenv(CRASH_ENV, "worker:9")  # pre-existing value survives
        with ChaosPlan(seed=1).poison_cell("bert", "p"):
            assert os.environ[CRASH_ENV] == "cell:bert/p"
        assert os.environ[CRASH_ENV] == "worker:9"

    def test_one_scheduler_spec_enforced(self):
        with pytest.raises(ValueError, match="one spec"):
            ChaosPlan(seed=1).worker_crash(0).poison_cell("bert", "p")

    def test_not_reentrant(self):
        plan = ChaosPlan(seed=1)
        with plan:
            with pytest.raises(RuntimeError, match="not reentrant"):
                plan.__enter__()

    def test_describe_is_loggable(self):
        plan = ChaosPlan(seed=7).worker_crash(2)
        plan.parent_kill("/tmp/j", 3, 12345)
        payload = json.loads(json.dumps(plan.describe()))
        assert payload["seed"] == 7
        assert payload["scheduler_crash"] == "worker:2"
        assert payload["parent_kills"][0]["after_cells"] == 3

    def test_same_seed_tears_the_same_entry(self, tmp_path):
        for attempt in ("a", "b"):
            directory = str(tmp_path / attempt)
            tier = DiskTier(directory)
            for i in range(4):
                tier.put(f"entry-{i}", np.arange(32.0) + i)
        torn = []
        for attempt in ("a", "b"):
            directory = str(tmp_path / attempt)
            with ChaosPlan(seed=11).torn_cache_write(directory):
                pass
            torn.append(
                sorted(
                    (name, os.path.getsize(os.path.join(directory, name)))
                    for name in os.listdir(directory)
                    if name.endswith(".npy")
                )
            )
        assert torn[0] == torn[1]  # deterministic under the seed

    def test_torn_entry_on_empty_cache_is_noop(self, tmp_path):
        with ChaosPlan(seed=1).torn_cache_write(str(tmp_path)):
            pass
        with ChaosPlan(seed=1).torn_cache_write(str(tmp_path / "missing")):
            pass


class TestTornCacheWrites:
    def test_disk_tier_drops_torn_entry_never_serves_it(self, tmp_path):
        tier = DiskTier(str(tmp_path))
        tier.put("k", np.arange(64.0))
        with ChaosPlan(seed=3).torn_cache_write(str(tmp_path)):
            assert tier.get("k") is None  # dropped, not served torn
            assert tier.drops == 1
            assert tier.put("k", np.arange(64.0))  # recompute path works
            assert np.array_equal(tier.get("k"), np.arange(64.0))

    def test_sweep_over_torn_cache_is_bit_identical(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = make_observatory(
            max_workers=1, disk_cache_dir=cache_dir
        ).sweep(MODELS, PROPS)
        with ChaosPlan(seed=5).torn_cache_write(cache_dir):
            second = make_observatory(
                max_workers=1, disk_cache_dir=cache_dir
            ).sweep(MODELS, PROPS)
        assert cell_dicts(first) == cell_dicts(second)


class TestSchedulerChaos:
    def test_worker_crash_sweep_still_completes(self, monkeypatch):
        monkeypatch.delenv(CRASH_ENV, raising=False)
        reference = make_observatory(max_workers=1).sweep(MODELS, PROPS)
        with ChaosPlan(seed=2).worker_crash(0):
            survived = make_observatory(max_workers=2).sweep(
                MODELS, PROPS, execution="process"
            )
        assert cell_dicts(survived) == cell_dicts(reference)
        assert_sweep_invariant(survived, planned=len(reference.cells))

    def test_poisoned_cell_degrades_with_named_failure(self, monkeypatch):
        monkeypatch.delenv(CRASH_ENV, raising=False)
        reference = make_observatory(max_workers=1).sweep(MODELS, PROPS)
        # Budget below the worker count: the poisoned group must exhaust
        # its retries (and degrade) while a worker is still alive to
        # finish everything else — all-workers-dead is a WorkerCrashError
        # even under degrade, by design (resume is that recovery).
        policy = FaultPolicy(scheduler_retries=1)
        with ChaosPlan(seed=2).poison_cell("bert", "sample_fidelity"):
            degraded = make_observatory(max_workers=2).sweep(
                MODELS,
                PROPS,
                execution="process",
                on_error="degrade",
                fault_policy=policy,
            )
        assert_sweep_invariant(degraded, planned=len(reference.cells))
        failed = {(f.model_name, f.property_name) for f in degraded.failures}
        # The poisoned cell's work group degrades as one unit; the
        # poisoned cell itself must be in it, with a typed name.
        assert any("sample_fidelity" == p for _, p in failed)
        assert all(f.error == "CellPoisonedError" for f in degraded.failures)
        ok = cell_dicts(degraded)
        for key, value in ok.items():
            assert value == cell_dicts(reference)[key]

    def test_poisoned_cell_aborts_typed_by_default(self, monkeypatch):
        monkeypatch.delenv(CRASH_ENV, raising=False)
        with ChaosPlan(seed=2).poison_cell("bert", "sample_fidelity"):
            with pytest.raises(CellPoisonedError):
                make_observatory(max_workers=2).sweep(
                    MODELS,
                    PROPS,
                    execution="process",
                    fault_policy=FaultPolicy(scheduler_retries=0),
                )


class TestInvariantChecker:
    class _Cell:
        def __init__(self, model, prop):
            self.model_name = model
            self.property_name = prop

    class _Failure:
        def __init__(self, model, prop, error="XError", message="boom"):
            self.model_name = model
            self.property_name = prop
            self.error = error
            self.message = message

    class _Sweep:
        def __init__(self, cells, failures):
            self.cells = cells
            self.failures = failures

    def test_accepts_complete_accounting(self):
        sweep = self._Sweep(
            [self._Cell("m", "p1")], [self._Failure("m", "p2")]
        )
        assert_sweep_invariant(sweep, planned=2)

    def test_rejects_dropped_cells(self):
        sweep = self._Sweep([self._Cell("m", "p1")], [])
        with pytest.raises(AssertionError, match="dropped"):
            assert_sweep_invariant(sweep, planned=2)

    def test_rejects_double_counting(self):
        sweep = self._Sweep(
            [self._Cell("m", "p1")], [self._Failure("m", "p1")]
        )
        with pytest.raises(AssertionError, match="double-counted"):
            assert_sweep_invariant(sweep, planned=1)

    def test_rejects_unnamed_failures(self):
        sweep = self._Sweep([], [self._Failure("m", "p1", error="")])
        with pytest.raises(AssertionError, match="named error"):
            assert_sweep_invariant(sweep, planned=1)
