"""Tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench/tests``."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402


# -- percentiles under the ten-beyond rule -----------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99) == 99
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_ten_beyond_rule_boundaries():
    # p99 needs 1000 samples: rank 990 leaves exactly 10 beyond it.
    assert stats.beyond(1000, 99) == 10
    assert stats.supported(1000, 99)
    assert not stats.supported(999, 99)
    assert stats.supported(100, 90) and not stats.supported(99, 90)
    assert stats.supported(20, 50) and not stats.supported(19, 50)


# -- self time with overlapping children --------------------------------------


def _span(sid, parent, start, end, thread=1):
    return {"id": sid, "parent": parent, "thread": thread, "start": start, "end": end}


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),  # overlaps child 2 on [3, 4]
        _span(4, 1, 8.0, 12.0),  # runs past the parent's end: clipped to [8, 10]
    ]
    selfs = stats.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(4.0)


def test_self_time_ignores_children_on_other_threads():
    spans = [_span(1, None, 0.0, 5.0, thread=1), _span(2, 1, 1.0, 2.0, thread=2)]
    assert stats.self_times(spans)[1] == pytest.approx(5.0)


def test_self_times_of_a_nested_tree_sum_to_the_root():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 9.0),
        _span(3, 2, 2.0, 3.0),
        _span(4, 2, 5.0, 8.0),
        _span(5, 4, 6.0, 7.0),
    ]
    assert sum(stats.self_times(spans).values()) == pytest.approx(10.0)


def test_thread_spans_must_fit_the_lifetime_timed_outside_them():
    spans = [_span(1, None, 1.0, 4.0), _span(2, 1, 2.0, 3.0), _span(3, None, 5.0, 6.0)]
    selfs = stats.self_times(spans)
    assert stats.fits_lifetime(spans, selfs, (0.5, 7.0), 0.005, 0.002)
    # The same root recorded twice sums to more than the thread lived.
    doubled = spans + [_span(4, None, 1.0, 4.0), _span(5, None, 1.0, 4.0)]
    assert not stats.fits_lifetime(doubled, stats.self_times(doubled), (0.5, 7.0), 0.005, 0.002)
    # A span outside the thread's lifetime sits on the wrong thread or clock.
    assert not stats.fits_lifetime(spans, selfs, (1.5, 7.0), 0.005, 0.002)


def test_main_thread_self_times_must_cover_each_timed_phase():
    spans = [_span(1, None, 10.0, 20.0), _span(2, 1, 11.0, 15.0), _span(3, 2, 12.0, 13.0)]
    assert stats.covers_phase(spans, stats.self_times(spans), (9.999, 20.001), 0.005, 0.002)
    # Without its root the phase is covered only where the children ran.
    lost = spans[1:]
    assert not stats.covers_phase(lost, stats.self_times(lost), (9.999, 20.001), 0.005, 0.002)


def test_union_length_merges_touching_and_nested_intervals():
    assert stats.union_length([(0, 2), (2, 3), (5, 6), (5.5, 5.7)]) == pytest.approx(4.0)
    assert stats.union_length([]) == 0.0


# -- open-loop latency and lateness --------------------------------------------


def test_latency_runs_from_due_time_and_lateness_from_start():
    records = [
        {"due": 0.0, "start": 0.0, "end": 0.5},  # on time
        {"due": 0.1, "start": 0.5, "end": 0.6},  # sent 0.4 late behind the first
        {"due": 1.0, "start": 0.99, "end": 1.2},  # clock jitter: never negative
    ]
    timing = stats.open_loop(records)
    assert timing["latency"] == pytest.approx([0.5, 0.5, 0.2])
    assert timing["lateness"] == pytest.approx([0.0, 0.4, 0.0])


def test_backlog_growth_detection():
    steady = [{"due": i * 0.01, "start": i * 0.01 + 0.001, "end": i * 0.01 + 0.005}
              for i in range(40)]
    assert not stats.backlog_growing(steady)
    growing = [{"due": i * 0.01, "start": i * 0.02, "end": i * 0.02 + 0.01}
               for i in range(40)]
    assert stats.backlog_growing(growing)


# -- the max_rate_rps ladder decision ------------------------------------------


def _step(rate, p90, rejected=0, growing=False):
    return {"rate": rate, "served_rps": rate * 0.99, "miss_p90_ms": p90,
            "rejected": rejected, "growing": growing}


def test_ladder_takes_the_highest_passing_prefix_step():
    steps = [_step(10, 50.0), _step(20, 80.0), _step(30, 400.0), _step(40, 90.0)]
    best = stats.ladder_max_rate(steps, limit_ms=250.0)
    assert best["rate"] == 20  # 40 passed only after 30 failed: not counted


def test_ladder_fails_on_429_error_growth_abandonment_or_unsupported_p90():
    assert stats.ladder_max_rate([_step(10, 50.0), _step(20, 60.0, rejected=1)], 250.0)["rate"] == 10
    failed = dict(_step(20, 60.0), errors=1)
    assert stats.ladder_max_rate([_step(10, 50.0), failed], 250.0)["rate"] == 10
    assert stats.ladder_max_rate([_step(10, 50.0), _step(20, 60.0, growing=True)], 250.0)["rate"] == 10
    abandoned = dict(_step(20, 60.0), unsent=5)
    assert stats.ladder_max_rate([_step(10, 50.0), abandoned], 250.0)["rate"] == 10
    assert stats.ladder_max_rate([_step(10, None)], 250.0) is None


def test_ladder_orders_steps_by_rate():
    steps = [_step(30, 60.0), _step(10, 50.0), _step(20, 55.0)]
    assert stats.ladder_max_rate(steps, 250.0)["rate"] == 30


def test_ladder_climbs_geometrically_until_a_step_fails():
    assert stats.ladder_next_rate([_step(64, 50.0)], 250.0, 1.25) == pytest.approx(80.0)
    steps = [_step(64, 50.0), _step(80, 60.0)]
    assert stats.ladder_next_rate(steps, 250.0, 1.25) == pytest.approx(100.0)
    # The lowest step failed: there is nothing to climb from or refine.
    assert stats.ladder_next_rate([_step(64, 300.0)], 250.0, 1.25) is None


def test_ladder_bisects_between_the_best_pass_and_the_lowest_failure():
    steps = [_step(64, 50.0), _step(80, 60.0), _step(100, 400.0)]
    mid = stats.ladder_next_rate(steps, 250.0, 1.25)
    assert mid == pytest.approx((80 * 100) ** 0.5)
    # A passing midpoint raises the bracket's floor, a failing one lowers its top.
    assert stats.ladder_next_rate(steps + [_step(mid, 90.0)], 250.0, 1.25) == pytest.approx(
        (mid * 100) ** 0.5)
    assert stats.ladder_next_rate(steps + [_step(mid, 90.0, rejected=2)], 250.0, 1.25) == (
        pytest.approx((80 * mid) ** 0.5))
    # A failure ends the passing prefix: the max rate is the last pass below it.
    assert stats.ladder_max_rate(steps + [_step(mid, 90.0)], 250.0)["rate"] == mid


def test_step_summary_verdict_needs_enough_misses():
    import traffic

    def record(due, kind, latency):
        return {"stream": "char", "kind": kind, "due": due, "start": due, "end": due + latency}

    few = [record(i * 0.01, "miss", 0.02) for i in range(traffic.STEP_MIN_MISSES - 1)]
    assert traffic.step_summary(few, 100.0)["miss_p90_ms"] is None
    many = [record(i * 0.01, "miss" if i % 4 == 0 else "hit", 0.02 if i % 4 == 0 else 0.002)
            for i in range(100)]
    summary = traffic.step_summary(many, 100.0)
    assert summary["miss_p90_ms"] == pytest.approx(20.0)
    # 100 requests from the first due time (0.0) to the last reply (0.992).
    assert summary["served_rps"] == pytest.approx(100 / 0.992)


def test_drain_fails_only_the_jobs_still_unfinished_at_its_deadline():
    import collections
    import time

    import traffic

    class Client:
        def __init__(self):
            self.waits = []

        def job(self, job_id, wait=0.0):
            self.waits.append(wait)
            if job_id == "stuck":
                return {"status": "running"}
            return {"status": "done", "result": {"cells": []}}

    stuck, done = {"job_id": "stuck"}, {"job_id": "done"}
    client = Client()
    # The deadline has passed: each job gets one poll that does not wait.
    traffic.Traffic._resolve(None, client, collections.deque([stuck, done]),
                             time.perf_counter() - 1.0, drain=True)
    assert client.waits == [0.0, 0.0]
    assert stuck["error"].startswith("job unfinished") and "result" not in stuck
    assert done["result"] == {"cells": []} and "error" not in done
    # Without drain, a passed deadline leaves the jobs outstanding.
    waiting = collections.deque([{"job_id": "stuck"}])
    traffic.Traffic._resolve(None, client, waiting, time.perf_counter() - 1.0)
    assert len(waiting) == 1 and "error" not in waiting[0]
