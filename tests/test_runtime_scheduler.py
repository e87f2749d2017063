"""Process scheduler tests: dispatch loop properties and oracles.

Three layers, cheapest first:

1. Pure-logic units — :func:`build_groups` corpus affinity.
2. A Hypothesis suite driving :class:`GroupScheduler` with in-process
   fake (thread) workers, exploring worker counts, group shapes, and
   crash subsets without paying spawn cost: every group must complete
   exactly once, in reconstructable order, for *any* interleaving.  A
   slow worker's group is never dispatched twice, and a stuck one is
   bounded by the deadline.
3. Spawned-process oracles — the full :class:`WorkStealingSweep` engine
   must stay bit-identical to the reference ``execution="thread"``
   engine, including under injected worker crashes (salvage), and a
   poisoned cell must fail loudly naming itself.
"""

import os
import queue
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Observatory, RuntimeConfig
from repro.analysis.report import render_sweep
from repro.core.framework import DatasetSizes
from repro.errors import DeadlineExceededError, ObservatoryError
from repro.runtime.faults import Deadline
from repro.runtime.scheduler import (
    CRASH_ENV,
    GroupScheduler,
    WorkStealingSweep,
    _FanInResults,
    build_groups,
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
# Layer 1: work groups
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


# ----------------------------------------------------------------------
# Layer 2: dispatch-loop properties with fake (thread) workers
# ----------------------------------------------------------------------


class FakeWorker(threading.Thread):
    """In-process worker-handle: same wire protocol, no spawn cost.

    ``crash`` makes the thread die silently the first time it receives a
    group (``is_alive()`` goes False — exactly what the scheduler's
    liveness poll sees for a dead process); ``crash_groups`` makes it die
    only on those group ids.  ``delay`` simulates a slow worker grinding
    each group; ``terminate`` cuts it short.  ``ready_after`` names a
    worker that must be dead, and reaped, before this one posts
    ``ready`` (a slow spawn).
    """

    def __init__(
        self, worker_id, results, *, crash=False, delay=0.0, crash_groups=(),
        ready_after=None,
    ):
        super().__init__(daemon=True)
        self.worker_id = worker_id
        self.results = results
        self.inbox = queue.Queue()
        self.crash = crash
        self.delay = delay
        self.crash_groups = set(crash_groups)
        self.ready_after = ready_after
        self.terminated = threading.Event()

    def run(self):
        if self.ready_after is not None:
            self.ready_after.join()
            time.sleep(0.3)  # the scheduler reaps a dead worker every poll (0.01s)
        self.results.put(("ready", self.worker_id))
        while True:
            message = self.inbox.get()
            if message[0] == "stop":
                return
            _, group_id, cells = message
            if self.crash or group_id in self.crash_groups:
                return  # simulated hard death mid-group
            if self.terminated.wait(self.delay):
                return  # terminated mid-group
            self.results.put(
                ("done", self.worker_id, group_id, self.delay, {"cells": list(cells)})
            )

    def send(self, message):
        self.inbox.put(message)

    def terminate(self):
        # Cooperative: threads can't be killed.
        self.terminated.set()
        self.inbox.put(("stop",))


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

    def test_each_group_is_dispatched_once(self):
        groups, cells = groups_from_spec([1, 1, 1])
        results = queue.Queue()
        # Worker 0 takes 1s per group.  Worker 1 is quick, but not so
        # quick that it drains the queue before worker 0 is ready; once
        # it has, it idles instead of running worker 0's group again.
        workers = [
            FakeWorker(0, results, delay=1.0),
            FakeWorker(1, results, delay=0.1),
        ]
        run = run_fake(groups, workers)
        merged = [c for g in groups for c in run.payloads[g.group_id]["cells"]]
        assert merged == cells
        log = run.telemetry.dispatch_log
        assert sorted(e["group"] for e in log) == [0, 1, 2]
        assert [e["outcome"] for e in log] == ["won"] * 3
        assert run.telemetry.workers[1].groups == 2

    def test_stuck_worker_bounded_by_deadline(self):
        # Worker 0 would hold its group for 30s.  The 2s deadline ends the
        # run long before that, and shutdown terminates the worker.
        groups, _ = groups_from_spec([1, 1, 1])

        def run_with_stuck_worker(on_error):
            results = queue.Queue()
            workers = [
                FakeWorker(0, results, delay=30.0),
                FakeWorker(1, results, delay=0.1),
            ]
            started = time.monotonic()
            try:
                return run_fake(
                    groups, workers, on_error=on_error, deadline=Deadline.start(2.0)
                )
            finally:
                assert time.monotonic() - started < 15.0
                for worker in workers:
                    worker.join(5.0)
                    assert not worker.is_alive()

        run = run_with_stuck_worker("degrade")
        log = run.telemetry.dispatch_log
        stuck = next(e["group"] for e in log if e["worker"] == 0)
        assert list(run.failures) == [stuck]
        assert isinstance(run.failures[stuck], DeadlineExceededError)
        assert sorted(run.payloads) == sorted({0, 1, 2} - {stuck})
        outcomes = {e["group"]: e["outcome"] for e in log}
        assert outcomes.pop(stuck) == "abandoned"
        assert set(outcomes.values()) == {"won"}

        with pytest.raises(DeadlineExceededError):
            run_with_stuck_worker("abort")

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

    def test_salvaged_group_queues_behind_untried_groups(self):
        # Worker 0 dies on group 0 and is reaped before worker 1 is ready.
        # Were the salvaged group re-queued at the front, worker 1 would
        # take it, die too, and group 1 would never run.
        groups, cells = groups_from_spec([1, 1])
        results = queue.Queue()
        first = FakeWorker(0, results, crash_groups={0})
        second = FakeWorker(1, results, crash_groups={0}, ready_after=first)
        run = run_fake(groups, [first, second], max_retries=1, on_error="degrade")
        assert run.payloads == {1: {"cells": [cells[1]]}}
        assert list(run.failures) == [0]
        assert "m0/p0" in str(run.failures[0])
        dispatched = [(e["worker"], e["group"]) for e in run.telemetry.dispatch_log]
        assert dispatched == [(0, 0), (1, 1), (1, 0)]

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
            # The dispatch log is complete: exactly one win per group.
            log = stealing.scheduler.dispatch_log
            won = sorted(e["group"] for e in log if e["outcome"] == "won")
            assert won == list(range(stealing.scheduler.groups))

    def test_groups_are_dispatched_in_cache_aware_order(self):
        runnable = order_cells(
            [
                ("bert", "row_order_insignificance"),
                ("bert", "heterogeneous_context"),
                ("t5", "row_order_insignificance"),
            ]
        )
        outcome = WorkStealingSweep(make_observatory(), max_workers=1).run(runnable)
        first_dispatch = []
        for entry in outcome.scheduler.dispatch_log:
            if entry["group"] not in first_dispatch:
                first_dispatch.append(entry["group"])
        assert first_dispatch == [0, 1, 2]

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
        # An explicit count is held to the same rule, on either engine,
        # before any worker starts: 0 is not "auto" and -1 is not serial.
        monkeypatch.delenv(WORKERS_ENV)
        for bad in (0, -1):
            for execution in ("thread", "process"):
                with pytest.raises(ObservatoryError, match="max_workers"):
                    make_observatory().sweep(
                        ["bert"],
                        ["row_order_insignificance"],
                        max_workers=bad,
                        execution=execution,
                    )


# A parent that starts one worker the way WorkStealingSweep does, waits
# for it to report ready, then dies by SIGKILL: no cleanup, no "stop".
ORPHANING_PARENT = r"""
import multiprocessing
import os
import signal
import sys

from repro import RuntimeConfig
from repro.core.framework import DatasetSizes
from repro.runtime.scheduler import _worker_main

context = multiprocessing.get_context("spawn")
inbox = context.Queue()
reader, writer = context.Pipe(duplex=False)
payload = {
    "seed": 3,
    "sizes": DatasetSizes(wikitables_tables=1, spider_databases=1, nextiajd_pairs=3,
                          sotab_tables=1, n_permutations=2, min_rows=4, max_rows=4),
    "runtime": RuntimeConfig(execution="thread", max_workers=1),
    "on_error": "abort",
    "deadline_epoch": None,
}
process = context.Process(target=_worker_main, args=(0, payload, inbox, writer), daemon=True)
process.start()
writer.close()
assert reader.recv() == ("ready", 0)
with open(sys.argv[1], "w", encoding="ascii") as handle:
    handle.write(str(process.pid))
os.kill(os.getpid(), signal.SIGKILL)
"""


def process_exited(pid: int) -> bool:
    """Gone, or a zombie nobody reaps (the orphan's new parent may not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="needs /proc")
def test_worker_exits_when_its_parent_is_killed(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    pid_file = tmp_path / "worker.pid"
    errors = tmp_path / "parent.err"
    # Files, not pipes: the worker inherits the parent's standard streams,
    # so a pipe would stay open for as long as the worker lives.
    with open(errors, "w", encoding="utf-8") as stderr:
        parent = subprocess.Popen(
            [sys.executable, "-c", ORPHANING_PARENT, str(pid_file)],
            cwd=root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
        returncode = parent.wait(timeout=300)
    assert returncode == -signal.SIGKILL, errors.read_text()
    worker = int(pid_file.read_text())
    try:
        deadline = time.monotonic() + 60
        while not process_exited(worker):
            assert time.monotonic() < deadline, "worker outlived its killed parent"
            time.sleep(0.2)
    finally:
        try:
            os.kill(worker, signal.SIGKILL)
        except ProcessLookupError:
            pass
