"""Work-stealing scheduler tests: dispatch loop properties and oracles.

Three layers, cheapest first:

1. Pure-logic units — :func:`build_groups` corpus affinity,
   :func:`lpt_order`, and :class:`CostModel` prior resolution.
2. A Hypothesis suite driving :class:`GroupScheduler` with in-process
   fake (thread) workers, exploring worker counts, group shapes, and
   crash subsets without paying spawn cost: every group must complete
   exactly once, in reconstructable order, for *any* interleaving.
3. Spawned-process oracles — the full :class:`WorkStealingSweep` engine
   must stay bit-identical to the reference ``execution="thread"``
   engine, including under injected worker crashes (salvage) and stalls
   (straggler re-dispatch), and a poisoned cell must fail loudly naming
   itself.
"""

import json
import queue
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Observatory, RuntimeConfig
from repro.analysis.report import render_sweep
from repro.core.framework import DatasetSizes
from repro.errors import ObservatoryError
from repro.runtime.scheduler import (
    CRASH_ENV,
    STALL_ENV,
    CostModel,
    GroupScheduler,
    WorkStealingSweep,
    _FanInResults,
    build_groups,
    load_cost_model,
    lpt_order,
)
from repro.runtime.sweep import WORKERS_ENV, order_cells

SIZES = DatasetSizes(
    wikitables_tables=3,
    spider_databases=2,
    nextiajd_pairs=6,
    sotab_tables=4,
    n_permutations=4,
    min_rows=4,
    max_rows=6,
)
PROPS = ["row_order_insignificance", "sample_fidelity"]
MODELS = ["bert", "t5"]


def make_observatory(**runtime_kwargs) -> Observatory:
    return Observatory(seed=3, sizes=SIZES, runtime=RuntimeConfig(**runtime_kwargs))


def cell_dicts(sweep_cells):
    return {
        (c.model_name, c.property_name): c.result.to_dict() for c in sweep_cells
    }


# ----------------------------------------------------------------------
# Layer 1: groups, LPT, cost priors
# ----------------------------------------------------------------------


class TestBuildGroups:
    def test_corpus_affinity_and_order_preserved(self):
        cells = order_cells(
            [
                ("bert", "row_order_insignificance"),
                ("bert", "sample_fidelity"),
                ("bert", "heterogeneous_context"),
                ("t5", "row_order_insignificance"),
                ("t5", "functional_dependencies"),
            ]
        )
        groups = build_groups(cells)
        # Within a group: one model, one corpus.
        for group in groups:
            assert all(m == group.model_name for m, _ in group.cells)
        # Concatenating groups in group_id order reproduces the input —
        # the invariant result merging depends on.
        assert [c for g in groups for c in g.cells] == cells
        assert [g.group_id for g in groups] == list(range(len(groups)))

    def test_same_corpus_runs_fuse(self):
        # Both properties characterize wikitables: one group per model.
        cells = [
            ("bert", "row_order_insignificance"),
            ("bert", "sample_fidelity"),
            ("t5", "row_order_insignificance"),
            ("t5", "sample_fidelity"),
        ]
        groups = build_groups(cells)
        assert [len(g) for g in groups] == [2, 2]
        assert [g.corpus for g in groups] == ["wikitables", "wikitables"]

    def test_empty(self):
        assert build_groups([]) == []


class TestCostModel:
    def test_resolution_order(self):
        model = CostModel(
            cell_priors={("bert", "sample_fidelity"): 9.0},
            property_priors={"sample_fidelity": 4.0, "join_relationship": 2.0},
        )
        assert model.estimate_cell("bert", "sample_fidelity") == 9.0  # exact
        assert model.estimate_cell("t5", "sample_fidelity") == 4.0  # property mean
        assert model.estimate_cell("t5", "heterogeneous_context") == 3.0  # static
        assert model.estimate_cell("t5", "unknown_property") == 1.0  # fallback

    def test_from_records_builds_property_means(self):
        model = CostModel.from_records(
            [
                {"model": "bert", "property": "sample_fidelity", "seconds": 2.0},
                {"model": "t5", "property": "sample_fidelity", "seconds": 4.0},
                {"model": "bert", "property": "bad"},  # no seconds: ignored
            ]
        )
        assert model.estimate_cell("bert", "sample_fidelity") == 2.0
        assert model.estimate_cell("doduo", "sample_fidelity") == 3.0

    def test_lpt_puts_heavy_group_first_and_is_stable(self):
        groups = build_groups(
            order_cells(
                [
                    ("bert", "row_order_insignificance"),
                    ("bert", "heterogeneous_context"),
                    ("t5", "row_order_insignificance"),
                ]
            )
        )
        ordered = lpt_order(groups, CostModel.default())
        # heterogeneous_context (3.0) outweighs any single shuffle cell.
        assert ordered[0].corpus == "sotab"
        # Equal-cost groups keep group_id order (deterministic dispatch).
        ties = [g.group_id for g in ordered if g.corpus == "wikitables"]
        assert ties == sorted(ties)

    def test_from_bench_json_top_level_and_scheduler_section(self, tmp_path):
        top = tmp_path / "top.json"
        top.write_text(
            json.dumps(
                {
                    "cell_records": [
                        {"model": "bert", "property": "sample_fidelity", "seconds": 7.0}
                    ]
                }
            )
        )
        nested = tmp_path / "nested.json"
        nested.write_text(
            json.dumps(
                {
                    "scheduler": {
                        "cell_records": [
                            {
                                "model": "t5",
                                "property": "sample_fidelity",
                                "seconds": 5.0,
                            }
                        ]
                    }
                }
            )
        )
        assert CostModel.from_bench_json(str(top)).estimate_cell(
            "bert", "sample_fidelity"
        ) == 7.0
        assert CostModel.from_bench_json(str(nested)).estimate_cell(
            "t5", "sample_fidelity"
        ) == 5.0

    def test_bad_prior_files_fail_loudly(self, tmp_path):
        with pytest.raises(ObservatoryError, match="cost priors"):
            CostModel.from_bench_json(str(tmp_path / "missing.json"))
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"schema_version": 6}))
        with pytest.raises(ObservatoryError, match="cell_records"):
            CostModel.from_bench_json(str(empty))

    def test_load_cost_model_env_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_COST_PRIORS", raising=False)
        assert load_cost_model().source == "default"
        priors = tmp_path / "bench.json"
        priors.write_text(
            json.dumps(
                {
                    "cell_records": [
                        {"model": "bert", "property": "sample_fidelity", "seconds": 1.0}
                    ]
                }
            )
        )
        monkeypatch.setenv("REPRO_SWEEP_COST_PRIORS", str(priors))
        assert load_cost_model().source == str(priors)
        explicit = tmp_path / "explicit.json"
        explicit.write_text(priors.read_text())
        assert load_cost_model(str(explicit)).source == str(explicit)


# ----------------------------------------------------------------------
# Layer 2: dispatch-loop properties with fake (thread) workers
# ----------------------------------------------------------------------


class FakeWorker(threading.Thread):
    """In-process worker-handle: same wire protocol, no spawn cost.

    ``crash`` makes the thread die silently the first time it receives a
    group (``is_alive()`` goes False — exactly what the scheduler's
    liveness poll sees for a dead process).  ``delay`` simulates a
    straggler grinding each group.
    """

    def __init__(self, worker_id, results, *, crash=False, delay=0.0):
        super().__init__(daemon=True)
        self.worker_id = worker_id
        self.results = results
        self.inbox = queue.Queue()
        self.crash = crash
        self.delay = delay

    def run(self):
        self.results.put(("ready", self.worker_id))
        while True:
            message = self.inbox.get()
            if message[0] == "stop":
                return
            _, group_id, cells, _duplicate = message
            if self.crash:
                return  # simulated hard death mid-group
            if self.delay:
                time.sleep(self.delay)
            self.results.put(
                ("done", self.worker_id, group_id, self.delay, {"cells": list(cells)})
            )

    def send(self, message):
        self.inbox.put(message)

    def terminate(self):
        self.inbox.put(("stop",))  # cooperative: threads can't be killed


def run_fake(groups, workers, **scheduler_kwargs):
    results = workers[0].results  # the queue every worker was built with
    for w in workers:
        w.start()
    scheduler = GroupScheduler(
        groups, poll_interval=0.01, join_timeout=0.2, **scheduler_kwargs
    )
    return scheduler.run(workers, results)


def groups_from_spec(spec):
    """``spec`` is a list of cell counts; cells are (m<i>, p<j>) markers."""
    cells = [(f"m{i}", f"p{j}") for i, count in enumerate(spec) for j in range(count)]
    return build_groups(cells), cells


class TestGroupSchedulerProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        spec=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=6),
        n_workers=st.integers(min_value=1, max_value=3),
        crash_mask=st.lists(st.booleans(), min_size=3, max_size=3),
    )
    def test_every_group_completes_exactly_once(self, spec, n_workers, crash_mask):
        # At least one worker must survive for the sweep to finish.
        crashes = [crash_mask[i] for i in range(n_workers)]
        if all(crashes):
            crashes[0] = False
        groups, cells = groups_from_spec(spec)
        results = queue.Queue()
        workers = [
            FakeWorker(i, results, crash=crashes[i]) for i in range(n_workers)
        ]
        run = run_fake(groups, workers, max_retries=len(groups) * n_workers)
        assert sorted(run.payloads) == [g.group_id for g in groups]
        merged = [
            cell for g in groups for cell in run.payloads[g.group_id]["cells"]
        ]
        assert merged == cells  # reconstructs the input order exactly
        assert run.telemetry.crashes <= sum(crashes)
        assert run.telemetry.salvaged_groups == run.telemetry.crashes

    def test_straggler_redispatch_first_result_wins(self):
        groups, cells = groups_from_spec([1, 1, 1])
        results = queue.Queue()
        # Worker 0 grinds 3s per group; worker 1 is instant and steals.
        workers = [
            FakeWorker(0, results, delay=3.0),
            FakeWorker(1, results),
        ]
        run = run_fake(groups, workers, steal_min_age=0.05, steal_age_factor=0.0)
        merged = [c for g in groups for c in run.payloads[g.group_id]["cells"]]
        assert merged == cells
        assert run.telemetry.redispatches >= 1
        assert run.telemetry.workers[1].steals >= 1
        abandoned_or_won = {e["outcome"] for e in run.telemetry.dispatch_log}
        assert "won" in abandoned_or_won

    def test_all_workers_dead_raises_naming_unfinished_cells(self):
        groups, _ = groups_from_spec([2])
        results = queue.Queue()
        workers = [FakeWorker(0, results, crash=True)]
        with pytest.raises(ObservatoryError, match="every sweep worker died"):
            run_fake(groups, workers, max_retries=5)

    def test_poisoned_group_exhausts_retry_budget(self):
        groups, _ = groups_from_spec([1])
        results = queue.Queue()
        workers = [FakeWorker(i, results, crash=True) for i in range(3)]
        with pytest.raises(ObservatoryError, match=r"poisoned.*m0/p0"):
            run_fake(groups, workers, max_retries=1)

    def test_empty_groups_short_circuit(self):
        run = GroupScheduler([]).run([], queue.Queue())
        assert run.payloads == {} and run.telemetry.groups == 0

    def test_no_workers_rejected(self):
        groups, _ = groups_from_spec([1])
        with pytest.raises(ObservatoryError, match="at least one worker"):
            GroupScheduler(groups).run([], queue.Queue())

    def test_telemetry_accounts_busy_and_groups(self):
        groups, _ = groups_from_spec([2, 1])
        results = queue.Queue()
        workers = [FakeWorker(0, results)]
        run = run_fake(groups, workers)
        stats = run.telemetry.workers[0]
        assert stats.groups == len(groups)
        assert stats.cells == 3
        assert not stats.crashed
        payload = run.telemetry.to_dict()
        assert payload["groups"] == len(groups)
        assert payload["workers"][0]["worker_id"] == 0


# ----------------------------------------------------------------------
# Layer 3: spawned-process oracles
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def thread_cells():
    sweep = make_observatory().sweep(MODELS, PROPS, max_workers=1, execution="thread")
    return cell_dicts(sweep.cells)


class TestProcessOracles:
    def test_bit_identical_to_thread_engine_in_cache_aware_order(self, thread_cells):
        runnable = order_cells([(m, p) for p in PROPS for m in MODELS])
        for workers in (1, 2):
            stealing = WorkStealingSweep(
                make_observatory(), max_workers=workers
            ).run(runnable)
            assert cell_dicts(stealing.cells) == thread_cells
            # Cells come back in the cache-aware execution order.
            assert [(c.model_name, c.property_name) for c in stealing.cells] == runnable

    def test_crash_salvage_completes_the_sweep(self, thread_cells, monkeypatch):
        # The BrokenProcessPool regression: one worker dying used to lose
        # the whole sweep; the scheduler must salvage and finish.
        monkeypatch.setenv(CRASH_ENV, "worker:0")
        sweep = make_observatory().sweep(
            MODELS, PROPS, max_workers=2, execution="process"
        )
        assert cell_dicts(sweep.cells) == thread_cells
        assert sweep.scheduler is not None
        assert sweep.scheduler.crashes == 1
        assert sweep.scheduler.salvaged_groups >= 1
        assert any(w.crashed for w in sweep.scheduler.workers)
        assert "[crashed]" in render_sweep(sweep)

    def test_poisoned_cell_fails_naming_it(self, monkeypatch):
        monkeypatch.setenv(CRASH_ENV, "cell:bert/sample_fidelity")
        engine = WorkStealingSweep(
            make_observatory(), max_workers=1, max_retries=0
        )
        with pytest.raises(
            ObservatoryError, match=r"poisoned.*bert/sample_fidelity"
        ):
            engine.run([("bert", "sample_fidelity")])

    def test_straggler_redispatch_keeps_results_identical(
        self, thread_cells, monkeypatch
    ):
        monkeypatch.setenv(STALL_ENV, "0:30")
        engine = WorkStealingSweep(
            make_observatory(), max_workers=2, steal_min_age=0.2, steal_age_factor=1.0
        )
        outcome = engine.run(order_cells([(m, p) for p in PROPS for m in MODELS]))
        assert cell_dicts(outcome.cells) == thread_cells
        assert outcome.scheduler.redispatches >= 1


class TestFanInResults:
    """The per-worker result pipes behind the process transport.

    A shared multiprocessing.Queue sends through a feeder thread holding
    an interprocess write lock; a worker hard-dying inside that window
    leaks the lock and silently wedges every survivor's sends (observed
    as a full-suite hang).  Per-worker pipes bound the blast radius to
    the crasher's own channel, which the parent reads as EOF.
    """

    def test_fans_in_from_multiple_writers_in_fifo_order(self):
        import multiprocessing

        fan_in = _FanInResults()
        writers = []
        for _ in range(2):
            reader, writer = multiprocessing.Pipe(duplex=False)
            fan_in.register(reader)
            writers.append(writer)
        writers[0].send(("ready", 0))
        writers[0].send(("done", 0))
        writers[1].send(("ready", 1))
        got = [fan_in.get(timeout=1.0) for _ in range(3)]
        assert sorted(got) == [("done", 0), ("ready", 0), ("ready", 1)]
        # Per-writer FIFO: worker 0's ready precedes its done.
        assert got.index(("ready", 0)) < got.index(("done", 0))

    def test_timeout_raises_empty(self):
        import multiprocessing

        fan_in = _FanInResults()
        reader, _writer = multiprocessing.Pipe(duplex=False)
        fan_in.register(reader)
        with pytest.raises(queue.Empty):
            fan_in.get(timeout=0.01)

    def test_dead_writer_reads_as_eof_and_is_pruned(self):
        # A crashed worker closes its write end; the survivor's channel
        # keeps delivering — the exact hazard a shared queue fails.
        import multiprocessing

        fan_in = _FanInResults()
        dead_reader, dead_writer = multiprocessing.Pipe(duplex=False)
        live_reader, live_writer = multiprocessing.Pipe(duplex=False)
        fan_in.register(dead_reader)
        fan_in.register(live_reader)
        dead_writer.close()
        live_writer.send(("ready", 1))
        messages = []
        for _ in range(4):
            try:
                messages.append(fan_in.get(timeout=0.05))
            except queue.Empty:
                pass
        assert messages == [("ready", 1)]
        assert fan_in._connections == [live_reader]

    def test_no_registered_channels_behaves_as_empty(self):
        with pytest.raises(queue.Empty):
            _FanInResults().get(timeout=0.01)


class TestSchedulerSurface:
    def test_render_and_to_dict_carry_scheduler_telemetry(self, tmp_path):
        observatory = make_observatory(disk_cache_dir=str(tmp_path / "cache"))
        sweep = observatory.sweep(MODELS, PROPS, max_workers=2, execution="process")
        rendered = render_sweep(sweep)
        assert "Scheduler:" in rendered
        assert "work groups" in rendered
        assert "- worker 0:" in rendered
        payload = sweep.to_dict()["scheduler"]
        assert payload["groups"] >= 1
        assert {w["worker_id"] for w in payload["workers"]} == {0, 1}
        assert isinstance(payload["dispatch_log"], list)

    def test_workers_capped_at_group_count(self):
        # Both PROPS share the wikitables corpus: one group per model, so
        # a request for 4 workers spawns only 2 (extras could never pull).
        sweep = make_observatory().sweep(
            MODELS, PROPS, max_workers=4, execution="process"
        )
        assert sweep.workers == 2

    def test_thread_sweeps_report_no_scheduler(self):
        sweep = make_observatory().sweep(
            ["bert"], ["row_order_insignificance"], max_workers=1, execution="thread"
        )
        assert sweep.scheduler is None
        assert sweep.to_dict()["scheduler"] is None
        assert "Scheduler:" not in render_sweep(sweep)


class TestWorkersEnv:
    def test_env_sets_default_worker_count(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        sweep = make_observatory().sweep(
            ["bert"], ["row_order_insignificance"], execution="thread"
        )
        assert sweep.workers == 3

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        sweep = make_observatory().sweep(
            ["bert"], ["row_order_insignificance"], max_workers=2, execution="thread"
        )
        assert sweep.workers == 2

    def test_invalid_values_fail_loudly(self, monkeypatch):
        for bad in ("zero", "0", "-2"):
            monkeypatch.setenv(WORKERS_ENV, bad)
            with pytest.raises(ObservatoryError, match=WORKERS_ENV):
                make_observatory().sweep(
                    ["bert"], ["row_order_insignificance"], execution="thread"
                )
