"""Write-ahead sweep journal: round-trip, recovery, resume, fault policy.

Covers the durability contract end to end: journal records survive
arbitrary byte-level damage (torn tails, garbage lines) losing at most
the damaged record; a resumed sweep replays completed cells and
dispatches only the remainder, bit-identically, under both engines; a
journal written for a different plan is refused; and the unified
FaultPolicy degrades or aborts failing cells with typed errors.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Observatory, RuntimeConfig
from repro.analysis.report import render_sweep
from repro.core.framework import DatasetSizes
from repro.errors import (
    CellExecutionError,
    DeadlineExceededError,
    JournalError,
    ObservatoryError,
    StaleJournalError,
)
from repro.models.blas import blas_regime
from repro.runtime.faults import Deadline, FaultPolicy
from repro.runtime.journal import (
    PLAN_FILE,
    SweepJournal,
    plan_fingerprint,
    record_digest,
)
from repro.testing.chaos import count_journal_cells, kill_when_journal_reaches

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
PLAN = {"seed": 3, "models": MODELS, "properties": PROPS}


def make_observatory(**runtime_kwargs) -> Observatory:
    return Observatory(seed=3, sizes=SIZES, runtime=RuntimeConfig(**runtime_kwargs))


def cell_dicts(sweep):
    return {
        (c.model_name, c.property_name): c.result.to_dict() for c in sweep.cells
    }


def segment_paths(directory):
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.startswith("segment-")
    )


@pytest.fixture(scope="module")
def reference_sweep():
    """The no-journal ground truth every resumed sweep must match."""
    return make_observatory(max_workers=1).sweep(MODELS, PROPS)


class TestJournalRoundTrip:
    def test_record_close_resume(self, tmp_path):
        journal = SweepJournal.start(str(tmp_path), PLAN)
        journal.record_planned([("bert", "p1"), ("taptap", "p2")])
        journal.record_cell("bert", "p1", {"value": 1.5})
        journal.record_cell("taptap", "p2", {"value": [1, 2, 3]})
        journal.close()
        # Clean close seals the segment (no .part left behind).
        assert all(p.endswith(".jsonl") for p in segment_paths(str(tmp_path)))
        resumed = SweepJournal.resume(str(tmp_path), PLAN)
        assert resumed.completed == {
            ("bert", "p1"): {"value": 1.5},
            ("taptap", "p2"): {"value": [1, 2, 3]},
        }
        assert resumed.dropped_records == 0

    def test_each_session_gets_its_own_segment(self, tmp_path):
        journal = SweepJournal.start(str(tmp_path), PLAN)
        journal.record_cell("bert", "p1", {"v": 1})
        journal.close()
        second = SweepJournal.resume(str(tmp_path), PLAN)
        second.record_cell("bert", "p2", {"v": 2})
        second.close()
        assert len(segment_paths(str(tmp_path))) == 2
        third = SweepJournal.resume(str(tmp_path), PLAN)
        assert set(third.completed) == {("bert", "p1"), ("bert", "p2")}

    def test_first_record_wins(self, tmp_path):
        journal = SweepJournal.start(str(tmp_path), PLAN)
        journal.record_cell("bert", "p1", {"v": "first"})
        journal.record_cell("bert", "p1", {"v": "second"})
        journal.close()
        resumed = SweepJournal.resume(str(tmp_path), PLAN)
        assert resumed.completed[("bert", "p1")] == {"v": "first"}

    def test_failure_records_are_audited_not_replayed(self, tmp_path):
        journal = SweepJournal.start(str(tmp_path), PLAN)
        journal.record_failure(
            {"model": "bert", "property": "p1", "error": "X", "message": "m"}
        )
        journal.close()
        resumed = SweepJournal.resume(str(tmp_path), PLAN)
        assert resumed.completed == {}  # the failed cell gets retried

    def test_no_append_session_leaves_no_segment(self, tmp_path):
        SweepJournal.start(str(tmp_path), PLAN).close()
        assert segment_paths(str(tmp_path)) == []

    def test_start_discards_previous_journal(self, tmp_path):
        journal = SweepJournal.start(str(tmp_path), PLAN)
        journal.record_cell("bert", "p1", {"v": 1})
        journal.close()
        SweepJournal.start(str(tmp_path), PLAN).close()
        resumed = SweepJournal.resume(str(tmp_path), PLAN)
        assert resumed.completed == {}

    @settings(max_examples=25, deadline=None)
    @given(
        cells=st.dictionaries(
            st.tuples(
                st.text(min_size=1, max_size=8),
                st.text(min_size=1, max_size=8),
            ),
            st.dictionaries(
                st.text(max_size=8),
                st.one_of(
                    st.integers(),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.text(max_size=16),
                    st.lists(st.integers(), max_size=4),
                ),
                max_size=4,
            ),
            max_size=8,
        )
    )
    def test_hypothesis_round_trip(self, cells):
        with tempfile.TemporaryDirectory() as directory:
            journal = SweepJournal.start(directory, PLAN)
            for (model, prop), payload in cells.items():
                journal.record_cell(model, prop, payload)
            journal.close()
            resumed = SweepJournal.resume(directory, PLAN)
            assert resumed.completed == cells
            assert resumed.dropped_records == 0


class TestJournalRecovery:
    def write_three(self, directory):
        journal = SweepJournal.start(directory, PLAN)
        journal.record_cell("bert", "p1", {"v": 1})
        journal.record_cell("bert", "p2", {"v": 2})
        journal.record_cell("bert", "p3", {"v": 3})
        journal.close()
        return segment_paths(directory)[0]

    def test_truncated_tail_loses_only_the_torn_record(self, tmp_path):
        segment = self.write_three(str(tmp_path))
        with open(segment, "r+b") as handle:
            size = os.path.getsize(segment)
            handle.truncate(size - 10)  # tear the last record mid-line
        resumed = SweepJournal.resume(str(tmp_path), PLAN)
        assert set(resumed.completed) == {("bert", "p1"), ("bert", "p2")}
        assert resumed.dropped_records == 1

    def test_garbage_line_skipped_records_after_it_survive(self, tmp_path):
        segment = self.write_three(str(tmp_path))
        lines = open(segment, encoding="utf-8").read().splitlines()
        lines.insert(1, "this is not json {{{")
        with open(segment, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        resumed = SweepJournal.resume(str(tmp_path), PLAN)
        assert len(resumed.completed) == 3  # all three real records kept
        assert resumed.dropped_records == 1

    def test_tampered_record_fails_its_digest(self, tmp_path):
        segment = self.write_three(str(tmp_path))
        lines = open(segment, encoding="utf-8").read().splitlines()
        envelope = json.loads(lines[0])
        envelope["r"]["cell"]["v"] = 999  # bit-flip without re-digesting
        lines[0] = json.dumps(envelope)
        with open(segment, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        resumed = SweepJournal.resume(str(tmp_path), PLAN)
        assert ("bert", "p1") not in resumed.completed
        assert resumed.dropped_records == 1

    def test_unsealed_part_segment_is_replayed(self, tmp_path):
        journal = SweepJournal.start(str(tmp_path), PLAN)
        journal.record_cell("bert", "p1", {"v": 1})
        # No close(): simulates SIGKILL — the .part tail must replay.
        assert segment_paths(str(tmp_path))[0].endswith(".part")
        resumed = SweepJournal.resume(str(tmp_path), PLAN)
        assert resumed.completed == {("bert", "p1"): {"v": 1}}
        journal.close()

    def test_resume_without_journal_is_typed(self, tmp_path):
        with pytest.raises(JournalError, match="no sweep journal"):
            SweepJournal.resume(str(tmp_path / "missing"), PLAN)

    def test_corrupt_header_is_typed(self, tmp_path):
        SweepJournal.start(str(tmp_path), PLAN).close()
        with open(os.path.join(str(tmp_path), PLAN_FILE), "w") as handle:
            handle.write("{torn")
        with pytest.raises(JournalError, match="unreadable"):
            SweepJournal.resume(str(tmp_path), PLAN)

    def test_stale_fingerprint_refused(self, tmp_path):
        SweepJournal.start(str(tmp_path), PLAN).close()
        other = dict(PLAN, seed=4)
        with pytest.raises(StaleJournalError, match="different sweep plan"):
            SweepJournal.resume(str(tmp_path), other)

    def test_fingerprint_is_key_order_insensitive(self):
        reordered = {key: PLAN[key] for key in reversed(list(PLAN))}
        assert plan_fingerprint(PLAN) == plan_fingerprint(reordered)

    def test_record_digest_is_canonical(self):
        assert record_digest({"a": 1, "b": 2}) == record_digest({"b": 2, "a": 1})


class TestSweepResume:
    def test_full_resume_is_bit_identical_and_dispatches_nothing(
        self, tmp_path, reference_sweep
    ):
        journal_dir = str(tmp_path / "journal")
        first = make_observatory(max_workers=1).sweep(
            MODELS, PROPS, journal_dir=journal_dir
        )
        assert first.replayed == 0
        assert cell_dicts(first) == cell_dicts(reference_sweep)
        resumed = make_observatory(max_workers=1).sweep(
            MODELS, PROPS, journal_dir=journal_dir, resume=True
        )
        assert resumed.replayed == len(first.cells)
        assert cell_dicts(resumed) == cell_dicts(reference_sweep)
        assert "Replayed" in render_sweep(resumed)

    def test_partial_journal_dispatches_only_the_remainder(
        self, tmp_path, reference_sweep
    ):
        journal_dir = str(tmp_path / "journal")
        first = make_observatory(max_workers=1).sweep(
            MODELS, PROPS, journal_dir=journal_dir
        )
        # Keep only the first journaled cell: truncate the sealed
        # segment after its first line (a legal torn state).
        segment = segment_paths(journal_dir)[0]
        first_line = open(segment, encoding="utf-8").read().splitlines()[1]
        with open(segment, "w", encoding="utf-8") as handle:
            handle.write(first_line + "\n")
        assert count_journal_cells(journal_dir) == 1
        resumed = make_observatory(max_workers=1).sweep(
            MODELS, PROPS, journal_dir=journal_dir, resume=True
        )
        assert resumed.replayed == 1
        assert len(resumed.cells) == len(first.cells)
        assert cell_dicts(resumed) == cell_dicts(reference_sweep)

    def test_resume_refuses_a_different_plan(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        make_observatory(max_workers=1).sweep(
            MODELS, PROPS, journal_dir=journal_dir
        )
        other = Observatory(
            seed=4, sizes=SIZES, runtime=RuntimeConfig(max_workers=1)
        )
        with pytest.raises(StaleJournalError):
            other.sweep(MODELS, PROPS, journal_dir=journal_dir, resume=True)

    def test_resume_refuses_a_journal_from_another_blas_regime(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        first = make_observatory(max_workers=1).sweep(
            MODELS, PROPS[:1], journal_dir=journal_dir
        )
        plan_path = os.path.join(journal_dir, PLAN_FILE)
        with open(plan_path, encoding="utf-8") as handle:
            header = json.load(handle)
        assert header["plan"]["blas"] == first.blas == blas_regime()
        # Forge the journal as if written under another OpenBLAS core:
        # resuming it would mix bits from two regimes.
        header["plan"]["blas"] = blas_regime() + " (forged)"  # differs on every host
        header["fingerprint"] = plan_fingerprint(header["plan"])
        with open(plan_path, "w", encoding="utf-8") as handle:
            json.dump(header, handle)
        with pytest.raises(StaleJournalError, match="BLAS regime"):
            make_observatory(max_workers=1).sweep(
                MODELS, PROPS[:1], journal_dir=journal_dir, resume=True
            )

    def test_resume_requires_journal_dir(self):
        with pytest.raises(ObservatoryError, match="journal_dir"):
            make_observatory().sweep(MODELS, PROPS, resume=True)


class TestFaultPolicy:
    def test_degrade_records_named_failures_and_finishes(self, monkeypatch):
        from repro.core import framework

        real = framework.Observatory.characterize

        def flaky(self, model_name, property_name, **kwargs):
            if property_name == "sample_fidelity":
                raise ValueError("injected cell fault")
            return real(self, model_name, property_name, **kwargs)

        # Thread engine: spawned workers never see the monkeypatch.
        monkeypatch.setattr(framework.Observatory, "characterize", flaky)
        sweep = make_observatory(max_workers=1).sweep(
            MODELS, PROPS, on_error="degrade", execution="thread"
        )
        failed = {(f.model_name, f.property_name) for f in sweep.failures}
        assert failed == {("bert", "sample_fidelity")}
        failure = sweep.failures[0]
        assert failure.error == "CellExecutionError"
        assert "injected cell fault" in failure.message
        assert isinstance(failure.cause, CellExecutionError)
        assert "Degraded cells" in render_sweep(sweep)
        ran = {(c.model_name, c.property_name) for c in sweep.cells}
        assert ("taptap", "row_order_insignificance") in ran

    def test_abort_chains_the_original_cause(self, monkeypatch):
        from repro.core import framework

        def broken(self, model_name, property_name, **kwargs):
            raise ValueError("injected cell fault")

        monkeypatch.setattr(framework.Observatory, "characterize", broken)
        with pytest.raises(CellExecutionError) as info:
            make_observatory(max_workers=1).sweep(MODELS, PROPS, execution="thread")
        assert isinstance(info.value.__cause__, ValueError)

    def test_abort_starts_no_further_cells_on_the_thread_pool(
        self, monkeypatch, tmp_path
    ):
        from repro.core import framework

        real = framework.Observatory.characterize
        started = []
        lock = threading.Lock()

        def first_fails(self, model_name, property_name, **kwargs):
            with lock:
                started.append((model_name, property_name))
                first = len(started) == 1
            if first:
                raise ValueError("injected cell fault")
            time.sleep(0.5)  # still running when the abort lands
            return real(self, model_name, property_name, **kwargs)

        monkeypatch.setattr(framework.Observatory, "characterize", first_fails)
        models = ["bert", "t5", "roberta"]
        props = ["row_order_insignificance", "column_order_insignificance", "sample_fidelity"]
        workers = 2
        journal_dir = str(tmp_path / "journal")
        with pytest.raises(CellExecutionError) as info:
            make_observatory().sweep(
                models, props, max_workers=workers, execution="thread",
                journal_dir=journal_dir,
            )
        assert str(info.value.__cause__) == "injected cell fault"
        # The failing cell, the other worker's cell, and at most one more
        # picked up before the abort cancels the queue: not all nine.
        assert len(started) <= workers + 1
        # Every cell that started, bar the failing one, ran to completion
        # and is journaled, so a resume does not compute it again.
        assert count_journal_cells(journal_dir) == len(started) - 1

    def test_expired_deadline_aborts_typed(self):
        policy = FaultPolicy(deadline=1e-6)
        with pytest.raises(DeadlineExceededError):
            make_observatory(max_workers=1).sweep(
                MODELS, PROPS, fault_policy=policy
            )

    def test_expired_deadline_degrades_every_cell(self):
        policy = FaultPolicy(deadline=1e-6)
        sweep = make_observatory(max_workers=1).sweep(
            MODELS, PROPS, fault_policy=policy, on_error="degrade"
        )
        assert sweep.cells == []
        assert sweep.failures
        assert all(f.error == "DeadlineExceededError" for f in sweep.failures)

    def test_sweep_with_every_cell_degraded_renders_its_failures(self):
        policy = FaultPolicy(deadline=1e-6)
        sweep = make_observatory(max_workers=1).sweep(
            ["bert"], PROPS, fault_policy=policy, on_error="degrade", execution="thread"
        )
        assert not sweep.cells and not sweep.skipped
        block = render_sweep(sweep).split("Degraded cells", 1)[1]
        for property_name in PROPS:
            assert f"- bert / {property_name}: DeadlineExceededError" in block

    def test_thread_engine_hands_the_deadline_to_backend_and_cache(self, monkeypatch):
        observatory = make_observatory(max_workers=1)
        received = {}
        for name, sink in (("backend", observatory.encoder_backend), ("cache", observatory.cache)):
            monkeypatch.setattr(
                sink, "set_deadline", lambda d, name=name: received.setdefault(name, d),
                raising=False,
            )
        observatory.sweep(
            ["bert"], PROPS[:1], fault_policy=FaultPolicy(deadline=600.0), execution="thread"
        )
        assert set(received) == {"backend", "cache"}
        assert all(isinstance(d, Deadline) and d.remaining() > 0 for d in received.values())

    def test_deadline_bound_and_epoch(self):
        unbounded = Deadline(None)
        assert unbounded.bound(5.0) == 5.0
        assert not unbounded.expired()
        assert unbounded.epoch() is None
        live = Deadline.start(60.0)
        assert 0.0 < live.bound(5.0) <= 5.0
        assert Deadline.from_epoch(live.epoch()).remaining() > 0


CHILD_SCRIPT = """
import sys
from repro import Observatory, RuntimeConfig
from repro.core.framework import DatasetSizes

sizes = DatasetSizes(
    wikitables_tables=3, spider_databases=2, nextiajd_pairs=6,
    sotab_tables=4, n_permutations=4, min_rows=4, max_rows=6,
)
observatory = Observatory(seed=3, sizes=sizes, runtime=RuntimeConfig(max_workers=1))
observatory.sweep(
    ["bert", "taptap"],
    ["row_order_insignificance", "sample_fidelity"],
    journal_dir=sys.argv[1],
)
print("CHILD_FINISHED")
"""


class TestKillResume:
    """The acceptance scenario: SIGKILL mid-sweep, resume bit-identically."""

    @pytest.fixture()
    def killed_journal(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SCRIPT, journal_dir],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        kill_when_journal_reaches(journal_dir, 1, child.pid)
        child.wait(timeout=180)
        assert child.returncode == -signal.SIGKILL
        done = count_journal_cells(journal_dir)
        assert done >= 1  # the watcher fired after durable progress
        return journal_dir, done

    def test_thread_and_process_resume_bit_identical(
        self, killed_journal, reference_sweep, tmp_path
    ):
        journal_dir, done = killed_journal
        expected = cell_dicts(reference_sweep)
        process_dir = str(tmp_path / "process-copy")
        shutil.copytree(journal_dir, process_dir)

        resumed = make_observatory(max_workers=1).sweep(
            MODELS, PROPS, journal_dir=journal_dir, resume=True
        )
        assert resumed.replayed == done  # only the remainder was dispatched
        assert cell_dicts(resumed) == expected

        if done < len(expected):
            # The fingerprint excludes the engine: the same journal must
            # resume under the process scheduler, bit-identically.
            via_process = make_observatory(max_workers=2).sweep(
                MODELS,
                PROPS,
                execution="process",
                journal_dir=process_dir,
                resume=True,
            )
            assert via_process.replayed == done
            assert cell_dicts(via_process) == expected
