"""The open-loop service traffic of a run: schedule, generator, output checks.

The generator is this one process with two threads, one per request
stream, each on its own keep-alive connection and each sending its
stream in due order from a seeded Poisson schedule.  A thread still busy
when its next request falls due makes that request late; latency is timed
from the due time, so the wait counts.  Characterize requests are drawn
Zipf-like from a combination space larger than the service's result
cache, so hits and misses both persist.  A characterize submit does not
wait for its job, so the offered load reaches the admission queue: at
the nominal rate the sending thread waits on its oldest outstanding job
in the gaps before its next send; on the ladder, which sends no index
traffic, the second thread waits on the jobs in admission order while
the first only sends.  Index queries go by vector, split between
``prune="off"`` and ``"probe"``; appends upload a fresh table and append
its columns by ``table_id``.

The mix is assumed, not measured: the program has no recorded traffic.
See "Assumed traffic" in README.md for each setting, its source where one
exists, and the input shares it fixes.
"""

from __future__ import annotations

import collections
import gc
import itertools
import os
import queue
import shutil
import threading
import time
from typing import Dict, List, Sequence

import numpy as np

import stats

# Two request streams, each sent on its own connection by its own thread:
# characterize requests, and index traffic (queries plus appends).  Rates
# are requests per second; within a stream, kinds take exact shares of
# each schedule's arrivals.  Every value below is assumed; README.md
# ("Assumed traffic") gives each one's source where it has one, and the
# share of the ladder's measured saturation rate that CHAR_RATE is.
CHAR_RATE = 66.0
INDEX_RATE = 52.0
INDEX_MIX = {"query_off": 0.2, "query_probe": 0.78, "append": 0.02}
ZIPF_EXPONENT = 1.45
RANKING_SEED = 2310
QUERY_K = 10
# Queries reuse a small pool of vectors so the post-run oracle replay
# answers each (generation, vector) pair once.
QUERY_VECTORS = 16
INDEX_ROWS = 20000
INDEX_CLUSTERS = 40
APPEND_MODEL = "t5"
# Fixed limit of the ladder: a step passes while the characterize-miss
# p90 stays under it, with no 429 and no growing backlog.
MISS_P90_LIMIT_MS = 500.0
# Lateness growth across a step, in seconds, that counts as a backlog.
BACKLOG_SLACK_S = 0.05
# The ladder doubles the characterize rate from nominal until a step
# fails (at most LADDER_CLIMB steps), then bisects the last bracket
# LADDER_REFINE times: the saturation rate is found to within
# LADDER_FACTOR ** (1 / 2 ** LADDER_REFINE), about 9%, in five to seven
# steps, which keeps a run near a minute.
LADDER_FACTOR = 2.0
LADDER_CLIMB = 5
LADDER_REFINE = 3
# A step needs this many misses for its p90 verdict.
STEP_MIN_MISSES = 10
# A ladder step whose sender falls this far behind stops sending: it has
# failed, and the rest of its schedule would only add a backlog to drain.
ABANDON_LATE_S = 1.0
# A characterize job still unfinished this long after its phase ended
# (or, on the ladder, after it was sent) has failed.  It is 20 times the
# ladder's miss p90 limit, and it bounds how long a stalled service can
# hold a run: on a host in a slow phase, jobs stalled for 30 s and more.
JOB_WAIT_S = 10.0
# The characterize thread waits on its oldest outstanding job only when
# its next send is at least POLL_MIN_S away, and returns POLL_MARGIN_S
# before it is due, so polls do not make sends late.
POLL_MIN_S = 0.005
POLL_MARGIN_S = 0.002


def combos(models: Sequence[str], properties: Sequence[str], runnable) -> List[list]:
    """(1 model x 1-2 properties) requests whose every cell is runnable."""
    out = []
    for model in models:
        props = [p for p in properties if f"{model}/{p}" in runnable]
        for p in props:
            out.append([[model], [p]])
        for a, b in itertools.combinations(props, 2):
            out.append([[model], [a, b]])
    return out


def poisson_times(rng, rate: float, duration: float, offset: float) -> List[float]:
    """Seeded Poisson arrivals in [offset, offset + duration), their count fixed.

    A Poisson process conditioned on its count places the arrivals as
    sorted uniform draws, so every schedule of a given rate and duration
    carries the same number of requests.
    """
    count = int(round(rate * duration))
    return [offset + float(t) for t in np.sort(rng.uniform(0.0, duration, size=count))]


def build_schedule(rng, char_rate: float, index_rate: float, duration: float,
                   ranking: Sequence[int], n_vectors: int, offset: float = 0.0) -> List[dict]:
    """Seeded arrivals of both streams, with a kind and parameters for each.

    ``ranking`` orders the combination space by popularity: the r-th
    entry is drawn with weight 1 / r**ZIPF_EXPONENT.
    """
    weights = 1.0 / np.arange(1, len(ranking) + 1) ** ZIPF_EXPONENT
    zipf = weights / weights.sum()
    out = []
    for due in poisson_times(rng, char_rate, duration, offset):
        combo = int(ranking[int(rng.choice(len(ranking), p=zipf))])
        out.append({"due": due, "stream": "char", "kind": "char", "combo": combo})
    times = poisson_times(rng, index_rate, duration, offset)
    kinds = []
    for kind, share in INDEX_MIX.items():
        kinds += [kind] * int(round(share * len(times)))
    kinds = (kinds + ["query_probe"] * len(times))[: len(times)]
    for due, pick in zip(times, rng.permutation(len(times))):
        item = {"due": due, "stream": "index", "kind": kinds[int(pick)]}
        if item["kind"] != "append":
            item["vector"] = int(rng.integers(n_vectors))
        out.append(item)
    return sorted(out, key=lambda item: item["due"])


def clustered_rows(rng, n: int, dim: int, clusters: int):
    centers = rng.normal(size=(clusters, dim))
    labels = rng.integers(clusters, size=n)
    rows = centers[labels] + 0.35 * rng.normal(size=(n, dim))
    rows *= rng.uniform(0.5, 2.0, size=(n, 1))
    return centers, rows


def append_table(rng, index: int, seed: int) -> dict:
    """A freshly generated small table for one append."""
    words = ("alpha", "delta", "harbor", "maple", "orbit", "quartz", "river", "summit",
             "tundra", "violet", "willow", "zephyr", "cobalt", "ember", "granite")
    n_rows = int(rng.integers(8, 17))
    columns = []
    for c in range(int(rng.integers(3, 6))):
        if c % 2:
            values = [int(v) for v in rng.integers(0, 10000, size=n_rows)]
        else:
            values = [f"{words[int(i)]} {int(j)}" for i, j in
                      zip(rng.integers(len(words), size=n_rows), rng.integers(100, size=n_rows))]
        columns.append([f"col{c}", values])
    return {"table_id": f"append-{seed}-{index}", "columns": columns}


class Traffic:
    """Index set-up, the open loop, and the checks of one served run."""

    def __init__(self, url: str, work: str, seed: int, models, properties,
                 reference: Dict[str, dict]):
        from repro.models.registry import load_model
        from repro.service.client import ServiceClient

        self.url = url
        self.seed = seed
        self.rng = np.random.default_rng([seed, 11])
        self.index_dir = os.path.join(work, "index")
        self.oracle_dir = os.path.join(work, "oracle")
        self.combos = combos(models, properties, reference)
        # The popularity ranking is part of the workload, not of the seed:
        # every seed then hits the same kinds of cells as often.
        self.ranking = [int(i) for i in
                        np.random.default_rng(RANKING_SEED).permutation(len(self.combos))]
        self.reference = reference
        self.dim = load_model(APPEND_MODEL).dim
        self._client_cls = ServiceClient
        self.records: List[dict] = []
        self.appends = 0

    # -- set-up ------------------------------------------------------------

    def build_index(self) -> float:
        """Build the served index and its oracle copy; pre-warm both plans."""
        from repro.index import ColumnIndex

        t0 = time.perf_counter()
        centers, rows = clustered_rows(self.rng, INDEX_ROWS, self.dim, INDEX_CLUSTERS)
        ColumnIndex.build(self.index_dir, ((f"base::{i}", r) for i, r in enumerate(rows)),
                          dim=self.dim)
        shutil.copytree(self.index_dir, self.oracle_dir)
        picks = self.rng.integers(INDEX_CLUSTERS, size=QUERY_VECTORS)
        self.vectors = centers[picks] + 0.35 * self.rng.normal(size=(QUERY_VECTORS, self.dim))
        with self._client_cls(self.url) as client:
            for prune in ("off", "probe"):
                client.index_query(self.index_dir, vector=list(self.vectors[0]),
                                   k=QUERY_K, prune=prune)
        return time.perf_counter() - t0

    # -- the open loop -----------------------------------------------------

    def schedule(self, char_rate: float, index_rate: float, duration: float,
                 offset: float = 0.05) -> List[dict]:
        items = build_schedule(self.rng, char_rate, index_rate, duration, self.ranking,
                               len(self.vectors), offset)
        for item in items:
            if item["kind"] == "append":
                item["table"] = append_table(self.rng, self.appends, self.seed)
                self.appends += 1
        return items

    def run(self, items: List[dict], phase: str) -> List[dict]:
        """Send the streams of ``items`` on two threads; returns the records.

        Every record gets ``due``, ``start`` (sent) and ``end``: the reply,
        or for a characterize miss the first poll that saw its job done.
        When ``items`` hold no index traffic (the ladder), the second
        thread waits on the characterize jobs in admission order instead,
        so the sending thread only sends.
        """
        records: List[dict] = []
        epoch = time.perf_counter()
        jobs = None if any(i["stream"] == "index" for i in items) else queue.Queue()

        def send(stream):
            with self._client_cls(self.url, timeout=60.0) as client:
                outstanding: collections.deque = collections.deque()
                for item in (i for i in items if i["stream"] == stream):
                    due = epoch + item["due"]
                    self._resolve(client, outstanding, due)
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    elif jobs is not None and -delay > ABANDON_LATE_S:
                        break
                    record = {"phase": phase, "stream": stream, "kind": item["kind"],
                              "due": due}
                    record["start"] = time.perf_counter()
                    try:
                        self._send(client, item, record)
                    except Exception as exc:  # noqa: BLE001 - counted as a failure
                        record["error"] = f"{type(exc).__name__}: {exc}"
                    if record["kind"] == "miss" and "error" not in record:
                        (outstanding.append if jobs is None else jobs.put)(record)
                    else:
                        record["end"] = time.perf_counter()
                    records.append(record)
                self._resolve(client, outstanding, time.perf_counter() + JOB_WAIT_S, drain=True)
                if jobs is not None:
                    jobs.put(None)

        def resolve_jobs():
            with self._client_cls(self.url, timeout=60.0) as client:
                for record in iter(jobs.get, None):
                    self._resolve(client, collections.deque([record]),
                                  record["start"] + JOB_WAIT_S, drain=True)

        # The generator keeps every reply for the checks; a cyclic collection
        # over that growing heap would stall it mid-schedule.
        gc.disable()
        try:
            helper = threading.Thread(
                target=send if jobs is None else resolve_jobs,
                args=("index",) if jobs is None else (), name="perfbench-helper",
            )
            helper.start()
            send("char")
            helper.join()
        finally:
            gc.enable()
        records.sort(key=lambda r: r["due"])
        self.records.extend(records)
        return records

    def _resolve(self, client, outstanding: collections.deque, until: float,
                 drain: bool = False) -> None:
        """Wait on the oldest outstanding jobs until ``until``.

        A job's record ends at the poll that first sees it done.  The
        runners take jobs in admission order, so the oldest job is
        usually the next to finish; one that finishes before an older job
        is seen when that older one is.  With ``drain``, every job still
        outstanding at ``until`` gets one last poll that does not wait,
        and fails if it is still unfinished.
        """
        while outstanding:
            wait = until - time.perf_counter() - POLL_MARGIN_S
            if wait < POLL_MIN_S - POLL_MARGIN_S:
                if not drain:
                    return
                wait = 0.0
            record = outstanding[0]
            try:
                reply = client.job(record["job_id"], wait=wait)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                reply = {"status": "failed", "error": f"{type(exc).__name__}: {exc}"}
            status = reply.get("status")
            if status == "done":
                record["result"] = reply["result"]
            elif status == "failed":
                record["error"] = f"job failed: {reply.get('error')}"
            elif wait == 0.0:
                record["error"] = f"job unfinished after {JOB_WAIT_S:g}s"
            else:
                continue
            record["end"] = time.perf_counter()
            outstanding.popleft()

    def _send(self, client, item: dict, record: dict) -> None:
        from repro.errors import ServiceOverloadedError

        kind = item["kind"]
        if kind == "char":
            models, properties = self.combos[item["combo"]]
            record["combo"] = item["combo"]
            try:
                reply = client.submit(models, properties)
            except ServiceOverloadedError:
                record["rejected"] = True
                raise
            record["job_id"] = reply["job_id"]
            if reply.get("status") == "done":
                record["kind"] = "hit"
                record["result"] = reply["result"]
                return
            record["kind"] = "miss"
            record["dedup"] = bool(reply.get("deduplicated"))
        elif kind.startswith("query"):
            prune = "off" if kind == "query_off" else "probe"
            vector = self.vectors[item["vector"]]
            reply = client.index_query(self.index_dir, vector=list(vector), k=QUERY_K,
                                       prune=prune)
            record["vector"] = item["vector"]
            record["generation"] = reply["generation"]
            record["hits"] = [[h["key"], h["score"]] for h in reply["hits"]]
        else:
            table = item["table"]
            client.upload_table(table["table_id"], table["columns"])
            reply = client.index_append(self.index_dir, table_id=table["table_id"],
                                        model=APPEND_MODEL)
            record["appended"] = reply["appended"]
            record["expected"] = len(table["columns"])
            record["generation"] = reply["generation"]

    # -- the ladder --------------------------------------------------------

    def ladder(self, nominal: dict, step_s: float) -> List[dict]:
        """Steps above the nominal rate that bracket the saturation rate.

        Climbs geometrically from the nominal step until a step fails,
        then bisects the bracket.  Steps send characterize requests only,
        so the second thread is free to resolve their jobs.  Returns the
        ladder's steps (not the nominal one).
        """
        steps: List[dict] = []

        def step() -> bool:
            rate = stats.ladder_next_rate([nominal] + steps, MISS_P90_LIMIT_MS, LADDER_FACTOR)
            if rate is None:
                return False
            items = self.schedule(rate, 0.0, step_s)
            records = self.run(items, f"ladder-{len(steps) + 1}")
            steps.append(dict(step_summary(records, rate), unsent=len(items) - len(records)))
            return True

        while len(steps) < LADDER_CLIMB and step():
            if not stats.step_passes(steps[-1], MISS_P90_LIMIT_MS):
                for _ in range(LADDER_REFINE):
                    step()
                break
        return steps

    # -- checks --------------------------------------------------------------

    def check(self) -> Dict[str, object]:
        """Mark every record whose output is wrong; returns check totals."""
        from repro.core.results import PropertyResult
        from repro.index import ColumnIndex
        from repro.index.store import ShardStore

        wrong = {"char": 0, "query": 0, "append": 0}
        latest: Dict[str, list] = {}
        for record in self.records:
            if "result" not in record:
                continue
            models, properties = self.combos[record["combo"]]
            expected = {f"{m}/{p}" for m in models for p in properties}
            got = {}
            for cell in record["result"].get("cells", []):
                key = f"{cell['model']}/{cell['property']}"
                got[key] = PropertyResult.from_jsonable(cell["result"]).to_dict()
            ok = set(got) == expected and all(got[k] == self.reference.get(k) for k in got)
            if record["kind"] == "hit" and record["job_id"] in latest:
                ok = ok and got == latest[record["job_id"]]
            if record["kind"] == "miss":
                latest[record["job_id"]] = got
            if not ok:
                record["wrong"] = True
                wrong["char"] += 1
            del record["result"]

        served = ShardStore(self.index_dir)
        oracle = ColumnIndex.open(self.oracle_dir)
        base_shards = len(ShardStore(self.oracle_dir).shards)
        appended = iter(served.shards[base_shards:])
        queries = sorted((r for r in self.records if "hits" in r), key=lambda r: r["generation"])
        recalls = []
        answers = {}
        for record in queries:
            while oracle.generation < record["generation"]:
                meta = next(appended, None)
                if meta is None:
                    break
                oracle.append_many(zip(served.keys(meta), served.matrix(meta)))
            if oracle.generation != record["generation"]:
                record["wrong"] = True
                wrong["query"] += 1
                continue
            key = (record["generation"], record["vector"])
            if key not in answers:
                answers[key] = [[k, s] for k, s in
                                oracle.query(self.vectors[record["vector"]], QUERY_K)]
            exact = answers[key]
            if record["kind"] == "query_off":
                if record["hits"] != exact:
                    record["wrong"] = True
                    wrong["query"] += 1
            else:
                top = {k for k, _ in exact}
                recalls.append(len(top & {k for k, _ in record["hits"]}) / QUERY_K)
        for record in self.records:
            if record["kind"] == "append" and "error" not in record:
                if record["appended"] != record["expected"]:
                    record["wrong"] = True
                    wrong["append"] += 1
        return {"wrong": wrong, "probe_recalls": recalls}


def step_summary(records: Sequence[dict], rate: float) -> Dict[str, object]:
    """Served characterize rate, miss p90 and backlog verdict of one step.

    The verdict uses the step's nearest-rank miss p90 even when fewer than
    ten misses lie beyond it (a decision, not a reported percentile); a
    step with under STEP_MIN_MISSES misses has no verdict and fails.  The
    served rate is the step's requests over the time from its first due
    time to its last reply.
    """
    records = [r for r in records if r["stream"] == "char"]
    misses = [r["end"] - r["due"] for r in records if r["kind"] == "miss" and "error" not in r]
    p90 = stats.percentile(misses, 90) * 1000 if len(misses) >= STEP_MIN_MISSES else None
    start = min(r["due"] for r in records)
    return {
        "rate": rate,
        "served_rps": len(records) / (max(r["end"] for r in records) - start),
        "requests": len(records),
        "misses": len(misses),
        "miss_p90_ms": p90,
        "rejected": sum(1 for r in records if r.get("rejected")),
        "errors": sum(1 for r in records if "error" in r and not r.get("rejected")),
        "dedup": sum(1 for r in records if r.get("dedup")),
        "growing": stats.backlog_growing(records, slack=BACKLOG_SLACK_S),
    }
