"""Always-on characterization service tests.

Covers the four planes of :mod:`repro.service` at the smallest sizes
that still exercise real concurrency:

- the shared HTTP plane (routing, gzip negotiation, chunked streaming,
  typed error mapping, the preserved 404 wording, close ending
  kept-alive connections);
- the loopback-encoder rebase (module entrypoint still runs, fault
  hooks preserved — the deep fault semantics stay covered by
  ``test_remote_backend.py`` against the same rebased double);
- the request plane: N concurrent clients get cell-for-cell parity with
  a one-shot in-process sweep, exact repeats hit the result cache,
  identical concurrent submissions deduplicate onto one job, and a full
  admission queue answers a typed 429 (never a hang);
- per-cell streaming over the per-job write-ahead journal;
- the durability plane: a killed service's request journal replays
  accepted-but-unfinished requests on restart, resuming the per-job
  sweep journal;
- the index plane: served queries stay oracle-identical under
  ``prune=off`` and shared handles reopen on generation changes.
"""

import gzip
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import numpy as np
import pytest

from repro import Observatory
from repro.core.framework import DatasetSizes
from repro.errors import (
    JournalError,
    ObservatoryError,
    RequestJournalError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.index import ColumnIndex
from repro.models.blas import blas_regime
from repro.runtime.journal import PLAN_FILE, SweepJournal, iter_records, plan_fingerprint
from repro.service import (
    CharacterizationService,
    HttpPlane,
    RequestJournal,
    ServiceClient,
    ServiceConfig,
    WireResponse,
    cells_from_result,
    pending_requests,
)
from repro.testing import count_service_cells

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


def make_observatory(seed: int = 3) -> Observatory:
    return Observatory(seed=seed, sizes=SIZES)


@pytest.fixture()
def service(tmp_path):
    observatory = make_observatory()
    config = ServiceConfig(
        queue_limit=4, runners=2, state_dir=str(tmp_path / "state")
    )
    svc = CharacterizationService(observatory, config=config).start()
    try:
        yield svc, observatory
    finally:
        svc.close()


# ---------------------------------------------------------------------------
# Shared HTTP plane
# ---------------------------------------------------------------------------


class TestHttpPlane:
    def test_routes_params_and_unknown_endpoint(self):
        plane = HttpPlane(name="t")
        plane.route("GET", "/v1/things/{thing_id}", lambda r: {"id": r.params["thing_id"]})
        plane.route("GET", "/plain", lambda r: {"ok": True})
        with plane:
            base = plane.url
            with urllib.request.urlopen(f"{base}/v1/things/abc") as resp:
                assert json.load(resp) == {"id": "abc"}
            with urllib.request.urlopen(f"{base}/plain") as resp:
                assert json.load(resp) == {"ok": True}
            # The pre-extraction loopback 404 wording is plane-wide now.
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/nope")
            assert err.value.code == 404
            assert json.loads(err.value.read()) == {"error": "unknown endpoint"}

    def test_gzip_request_and_response_negotiation(self):
        plane = HttpPlane(name="t")
        plane.route("POST", "/echo", lambda r: {"got": r.json()})
        with plane:
            body = gzip.compress(json.dumps({"x": 1}).encode())
            request = urllib.request.Request(
                f"{plane.url}/echo",
                data=body,
                headers={
                    "Content-Encoding": "gzip",
                    "Accept-Encoding": "gzip",
                    "Content-Type": "application/json",
                },
            )
            with urllib.request.urlopen(request) as resp:
                assert resp.headers.get("Content-Encoding") == "gzip"
                assert json.loads(gzip.decompress(resp.read())) == {"got": {"x": 1}}

    def test_streaming_response_is_ndjson_lines(self):
        plane = HttpPlane(name="t")
        plane.route(
            "GET",
            "/stream",
            lambda r: WireResponse(stream=iter([{"i": 0}, {"i": 1}, {"i": 2}])),
        )
        with plane:
            with urllib.request.urlopen(f"{plane.url}/stream") as resp:
                assert resp.headers.get("Content-Type") == "application/x-ndjson"
                records = [json.loads(line) for line in resp if line.strip()]
        assert records == [{"i": 0}, {"i": 1}, {"i": 2}]

    def test_typed_errors_map_to_wire_statuses(self):
        plane = HttpPlane(name="t")

        def overloaded(_request):
            raise ServiceOverloadedError("full", retry_after=2.5)

        def typed(_request):
            raise ObservatoryError("typed failure")

        def malformed(_request):
            raise ValueError("bad payload")

        plane.route("GET", "/overloaded", overloaded)
        plane.route("GET", "/typed", typed)
        plane.route("GET", "/malformed", malformed)
        with plane:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{plane.url}/overloaded")
            assert err.value.code == 429
            assert err.value.headers["Retry-After"] == "2.5"
            body = json.loads(err.value.read())
            assert body["error_type"] == "ServiceOverloadedError"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{plane.url}/typed")
            assert err.value.code == 400
            assert json.loads(err.value.read())["error_type"] == "ObservatoryError"
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{plane.url}/malformed")
            err.value.close()
            assert err.value.code == 400

    def test_bind_failure_is_typed(self):
        with HttpPlane(name="first") as first:
            port = int(first.url.rsplit(":", 1)[1])
            with pytest.raises(ServiceError):
                HttpPlane(port=port, name="second")

    def test_close_returns_on_a_plane_never_started(self):
        plane = HttpPlane(name="t")
        closer = threading.Thread(target=plane.close, daemon=True)
        closer.start()
        closer.join(timeout=10)
        assert not closer.is_alive()

    def test_close_ends_kept_alive_connections(self):
        plane = HttpPlane(name="t")
        plane.route("GET", "/plain", lambda r: {"ok": True})
        plane.start()
        address = urlsplit(plane.url)
        conn = http.client.HTTPConnection(address.hostname, address.port, timeout=10)
        try:
            conn.request("GET", "/plain")
            assert json.loads(conn.getresponse().read()) == {"ok": True}
            plane.close()
            # The idle keep-alive connection must not outlive the plane.
            with pytest.raises((http.client.HTTPException, OSError)):
                conn.request("GET", "/plain")
                conn.getresponse().read()
        finally:
            conn.close()


# ---------------------------------------------------------------------------
# Loopback rebase regression
# ---------------------------------------------------------------------------


class TestLoopbackEntrypoint:
    def test_module_entrypoint_still_serves(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-W",
                "error::RuntimeWarning",
                "-m",
                "repro.testing.encoder_service",
                "--port",
                "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            # stderr is merged in: a runpy warning about a second import
            # of the module would come first, and fail the launch.
            line = proc.stdout.readline()
            assert "loopback encoder service listening on http://" in line
            url = line.strip().rsplit(" ", 1)[1]
            # Unknown endpoints answer with the historical wording.
            request = urllib.request.Request(f"{url}/bogus", data=b"{}")
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request)
            assert err.value.code == 404
            assert json.loads(err.value.read()) == {"error": "unknown endpoint"}
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()


# ---------------------------------------------------------------------------
# Request journal
# ---------------------------------------------------------------------------


class TestRequestJournal:
    def test_round_trip_and_replay(self, tmp_path):
        directory = str(tmp_path / "requests")
        journal = RequestJournal.open(directory)
        journal.record_request("a", {"models": ["bert"]})
        journal.record_request("b", {"models": ["t5"]})
        journal.record_done("a")
        journal.close()

        reopened = RequestJournal.open(directory)
        assert reopened.pending == {"b": {"models": ["t5"]}}
        assert reopened.replayed_done == 1
        reopened.close()
        assert pending_requests(directory) == {"b": {"models": ["t5"]}}

    def test_torn_line_is_dropped_not_fatal(self, tmp_path):
        directory = str(tmp_path / "requests")
        journal = RequestJournal.open(directory)
        journal.record_request("a", {"models": ["bert"]})
        journal.record_request("b", {"models": ["t5"]})
        journal.close()
        segments = [
            name for name in os.listdir(directory) if name.endswith(".jsonl")
        ]
        path = os.path.join(directory, segments[0])
        with open(path, "r+b") as handle:
            size = os.path.getsize(path)
            handle.truncate(size - 20)  # tear the tail record
        reopened = RequestJournal.open(directory)
        assert set(reopened.pending) == {"a"}
        reopened.close()

    def test_refuses_foreign_journal_directory(self, tmp_path):
        directory = str(tmp_path / "sweepish")
        sweep_journal = SweepJournal.start(directory, {"seed": 1, "cells": []})
        sweep_journal.close()
        with pytest.raises(RequestJournalError):
            RequestJournal.open(directory)

    def test_sweep_appenders_refused_typed(self, tmp_path):
        journal = RequestJournal.open(str(tmp_path / "requests"))
        with pytest.raises(RequestJournalError):
            journal.record_cell("m", "p", {})
        with pytest.raises(RequestJournalError):
            journal.record_planned([("m", "p")])
        with pytest.raises(RequestJournalError):
            journal.record_failure({})
        journal.close()

    def test_request_journal_error_is_journal_error(self):
        assert issubclass(RequestJournalError, JournalError)
        assert issubclass(ServiceOverloadedError, ObservatoryError)


# ---------------------------------------------------------------------------
# Request plane
# ---------------------------------------------------------------------------


class TestRequestPlane:
    def test_concurrent_clients_match_one_shot_sweep(self, service):
        svc, observatory = service
        results = {}
        errors = []

        def worker(i):
            client = ServiceClient(svc.url)
            try:
                results[i] = client.characterize(MODELS, PROPS, timeout=600)
            except Exception as exc:  # noqa: BLE001 - surfaced by assert below
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        assert not errors
        assert len(results) == 4

        reference = make_observatory().sweep(MODELS, PROPS)
        want = {
            (c.model_name, c.property_name): c.result.to_jsonable()
            for c in reference.cells
        }
        for result in results.values():
            cells = cells_from_result(result)
            got = {
                (c.model_name, c.property_name): c.result.to_jsonable()
                for c in cells
            }
            assert got == want  # cell-for-cell parity, every client

    def test_repeat_client_hits_result_cache(self, service):
        svc, observatory = service
        client = ServiceClient(svc.url)
        try:
            first = client.submit(["bert"], ["row_order_insignificance"])
            assert first["status"] in ("queued", "done")
            result = client.characterize(["bert"], ["row_order_insignificance"])
            before = client.stats()["cache"]["hits"]
            embedding = (observatory.cache.stats.hits, observatory.cache.stats.misses)
            repeat = client.submit(["bert"], ["row_order_insignificance"])
            assert repeat["status"] == "done"
            assert repeat["cache_hit"] is True
            assert repeat["result"]["cells"]
            # The stored result, unchanged, with no runtime work behind it:
            # not one embedding-cache lookup, so no sweep ran.
            assert repeat["result"] == result
            assert (observatory.cache.stats.hits, observatory.cache.stats.misses) == embedding
            stats = client.stats()
            assert stats["cache"]["hits"] == before + 1
            assert stats["blas"] == blas_regime()
        finally:
            client.close()

    def test_identical_concurrent_submissions_deduplicate(self, service):
        svc, _observatory = service
        client = ServiceClient(svc.url)
        try:
            client.hold()
            first = client.submit(["taptap"], ["sample_fidelity"])
            second = client.submit(["taptap"], ["sample_fidelity"])
            assert second["job_id"] == first["job_id"]
            assert second.get("deduplicated") is True
            client.release()
            final = client.job(first["job_id"], wait=60)
            assert final["status"] == "done"
        finally:
            client.close()

    def test_admission_queue_overflow_is_typed_429_never_a_hang(self, service):
        svc, _observatory = service
        client = ServiceClient(svc.url, timeout=30)
        try:
            client.hold()  # park the runners: the queue fills deterministically
            rejected = None
            submitted = []
            # queue_limit=4 (+ up to 2 jobs parked at runner gates): a
            # bounded number of distinct submissions must hit the wall.
            # Property names are only validated at run time, so unique
            # placeholder names make each submission a distinct job.
            for i in range(12):
                try:
                    accepted = client.submit(["bert"], [f"placeholder-{i}"])
                except ServiceOverloadedError as exc:
                    rejected = exc
                    break
                submitted.append(accepted["job_id"])
            assert rejected is not None, "bounded queue never rejected"
            assert rejected.retry_after > 0
            stats = client.stats()
            assert stats["rejected"] >= 1
        finally:
            client.release()
            client.close()

    def test_submit_validation_is_400_not_500(self, service):
        svc, _observatory = service
        request = urllib.request.Request(
            f"{svc.url}/v1/characterize",
            data=json.dumps({"models": []}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        err.value.close()
        assert err.value.code == 400

    def test_unknown_model_fails_job_typed(self, service):
        svc, _observatory = service
        client = ServiceClient(svc.url)
        try:
            with pytest.raises(ServiceError) as err:
                client.characterize(["no-such-model"], PROPS, timeout=120)
            assert "no-such-model" in str(err.value)
        finally:
            client.close()

    def test_streaming_yields_cells_then_summary(self, service):
        svc, _observatory = service
        client = ServiceClient(svc.url)
        try:
            records = list(client.stream_characterize(["bert"], PROPS))
            kinds = [r["type"] for r in records]
            assert kinds[-1] == "summary"
            cell_records = [r for r in records if r["type"] == "cell"]
            assert {(r["model"], r["property"]) for r in cell_records} == {
                ("bert", p) for p in PROPS
            }
            assert records[-1]["cells"] == len(cell_records)
            # Streaming an exact repeat serves from cache, same shape.
            cached = list(client.stream_characterize(["bert"], PROPS))
            assert [r["type"] for r in cached][-1] == "summary"
            assert cached[-1].get("cache_hit") is True
        finally:
            client.close()

    def test_non_positive_request_deadline_is_rejected_at_construction(self, tmp_path):
        # A job with no budget could never finish, so the service refuses
        # the setting before it binds or accepts anything.
        for deadline in (0.0, -1.0):
            with pytest.raises(ServiceError, match="request_deadline"):
                CharacterizationService(
                    make_observatory(),
                    config=ServiceConfig(
                        request_deadline=deadline, state_dir=str(tmp_path / "state")
                    ),
                )

    def test_non_positive_sweep_workers_is_rejected_at_construction(self, tmp_path):
        # Every job's sweep would refuse it, so refuse it once, up front.
        for workers in (0, -1):
            with pytest.raises(ServiceError, match="sweep_workers"):
                CharacterizationService(
                    make_observatory(),
                    config=ServiceConfig(
                        sweep_workers=workers, state_dir=str(tmp_path / "state")
                    ),
                )


# ---------------------------------------------------------------------------
# Durability plane: restart replay
# ---------------------------------------------------------------------------


class TestRestartReplay:
    def test_restart_replays_accepted_unfinished_requests(self, tmp_path):
        state_dir = str(tmp_path / "state")
        observatory = make_observatory()
        config = ServiceConfig(queue_limit=4, runners=1, state_dir=state_dir)
        svc = CharacterizationService(observatory, config=config).start()
        client = ServiceClient(svc.url)
        accepted = None
        try:
            client.hold()  # accepted but never run: survives as pending
            accepted = client.submit(MODELS, PROPS)
            assert accepted["status"] == "queued"
        finally:
            client.close()
            svc.close()  # "crash": close without releasing — job unfinished

        assert set(pending_requests(os.path.join(state_dir, "requests"))) == {
            accepted["job_id"]
        }

        # Restart over the same state dir: the journal replays the request.
        svc2 = CharacterizationService(
            make_observatory(), config=ServiceConfig(runners=2, state_dir=state_dir)
        ).start()
        client2 = ServiceClient(svc2.url)
        try:
            final = client2.job(accepted["job_id"], wait=120)
            deadline = time.monotonic() + 300
            while final["status"] not in ("done", "failed"):
                assert time.monotonic() < deadline, "replayed job never finished"
                final = client2.job(accepted["job_id"], wait=10)
            assert final["status"] == "done"
            reference = make_observatory().sweep(MODELS, PROPS)
            want = {
                (c.model_name, c.property_name): c.result.to_jsonable()
                for c in reference.cells
            }
            got = {
                (c.model_name, c.property_name): c.result.to_jsonable()
                for c in cells_from_result(final["result"])
            }
            assert got == want
            assert pending_requests(os.path.join(state_dir, "requests")) == {}
        finally:
            client2.close()
            svc2.close()

    @staticmethod
    def finished_job_marked_pending(state_dir):
        """Run one job to completion, then journal its request as pending.

        That forges the crash window: the kill landed after the cells were
        journaled but before the done record.
        """
        svc = CharacterizationService(
            make_observatory(),
            config=ServiceConfig(queue_limit=4, runners=1, state_dir=state_dir),
        ).start()
        client = ServiceClient(svc.url)
        try:
            result = client.characterize(MODELS, PROPS, timeout=600)
            job_id = client.submit(MODELS, PROPS)["job_id"]
        finally:
            client.close()
            svc.close()
        assert count_service_cells(state_dir) == len(result["cells"])
        journal = RequestJournal.open(os.path.join(state_dir, "requests"))
        journal.record_request(job_id, {"models": MODELS, "properties": PROPS})
        journal.close()
        return job_id, result

    @staticmethod
    def replayed_after_restart(state_dir, job_id):
        svc = CharacterizationService(
            make_observatory(), config=ServiceConfig(runners=2, state_dir=state_dir)
        ).start()
        client = ServiceClient(svc.url)
        try:
            final = client.job(job_id, wait=120)
            deadline = time.monotonic() + 300
            while final["status"] not in ("done", "failed"):
                assert time.monotonic() < deadline
                final = client.job(job_id, wait=10)
            return final
        finally:
            client.close()
            svc.close()

    def test_replay_resumes_per_job_sweep_journal(self, tmp_path):
        """A job with journaled cells resumes: finished cells replay."""
        state_dir = str(tmp_path / "state")
        job_id, result = self.finished_job_marked_pending(state_dir)
        final = self.replayed_after_restart(state_dir, job_id)
        assert final["status"] == "done"
        # Every cell came back from the journal, none recomputed.
        assert final["result"]["replayed"] == len(result["cells"])

    def test_replay_recomputes_a_journal_from_another_blas_regime(self, tmp_path):
        """A job journaled under another BLAS regime recomputes, not fails."""
        state_dir = str(tmp_path / "state")
        job_id, result = self.finished_job_marked_pending(state_dir)
        plan_path = os.path.join(state_dir, "jobs", job_id, PLAN_FILE)
        with open(plan_path, encoding="utf-8") as handle:
            header = json.load(handle)
        assert header["plan"]["blas"] == blas_regime()
        header["plan"]["blas"] += " (forged)"  # differs on every host
        header["fingerprint"] = plan_fingerprint(header["plan"])
        with open(plan_path, "w", encoding="utf-8") as handle:
            json.dump(header, handle)
        final = self.replayed_after_restart(state_dir, job_id)
        assert final["status"] == "done", final
        assert final["result"]["replayed"] == 0

        def cells(payload):
            return {
                (c.model_name, c.property_name): c.result.to_jsonable()
                for c in cells_from_result(payload)
            }

        assert cells(final["result"]) == cells(result)


# ---------------------------------------------------------------------------
# Index plane
# ---------------------------------------------------------------------------


class TestIndexPlane:
    def _seeded_vectors(self, n, dim, seed=11):
        rng = np.random.default_rng(seed)
        return [
            (f"col-{i:03d}", rng.standard_normal(dim)) for i in range(n)
        ]

    def test_create_append_query_oracle_parity(self, service, tmp_path):
        svc, _observatory = service
        index_dir = str(tmp_path / "index")
        dim = 16
        client = ServiceClient(svc.url)
        try:
            created = client.index_create(index_dir, dim)
            assert created["rows"] == 0
            items = self._seeded_vectors(20, dim)
            appended = client.index_append(
                index_dir,
                entries=[
                    {"key": key, "vector": vec.tolist()} for key, vec in items
                ],
            )
            assert appended["appended"] == 20
            query = items[3][1] + 0.01
            served = client.index_query(
                index_dir, vector=query.tolist(), k=5, prune="off"
            )
            oracle = ColumnIndex.open(index_dir).query(query, 5, prune="off")
            assert [
                (hit["key"], pytest.approx(hit["score"])) for hit in served["hits"]
            ] == list(oracle)
            info = client.index_info(index_dir)
            assert info["rows"] == 20
        finally:
            client.close()

    def test_shared_handle_reopens_on_generation_change(self, service, tmp_path):
        svc, _observatory = service
        index_dir = str(tmp_path / "index")
        dim = 8
        client = ServiceClient(svc.url)
        try:
            client.index_create(index_dir, dim)
            items = self._seeded_vectors(6, dim, seed=5)
            client.index_append(
                index_dir,
                entries=[
                    {"key": k, "vector": v.tolist()} for k, v in items[:3]
                ],
            )
            first = client.index_info(index_dir)
            # An out-of-band writer advances the on-disk generation.
            external = ColumnIndex.open(index_dir)
            external.append_many(items[3:])
            served = client.index_query(
                index_dir, vector=items[4][1].tolist(), k=6, prune="off"
            )
            assert len(served["hits"]) == 6  # sees the out-of-band rows
            assert served["generation"] > first["generation"]
            info = client.index_info(index_dir)
            assert info["handle_reopens"] >= 1
        finally:
            client.close()

    def test_uploaded_table_columns_feed_the_index(self, service, tmp_path):
        svc, _observatory = service
        index_dir = str(tmp_path / "index")
        client = ServiceClient(svc.url)
        try:
            upload = client.upload_table(
                "orders",
                [
                    ["city", ["ann arbor", "detroit", "lansing", "flint"]],
                    ["total", [12, 18, 7, 22]],
                ],
                caption="order totals by city",
            )
            assert upload == {"table_id": "orders", "rows": 4, "columns": 2}
            executor_dim = make_observatory().executor("t5").dim
            client.index_create(index_dir, executor_dim)
            appended = client.index_append(
                index_dir, table_id="orders", model="t5"
            )
            assert appended["appended"] == 2
            served = client.index_query(
                index_dir,
                table_id="orders",
                column="city",
                model="t5",
                k=2,
                prune="off",
            )
            assert served["hits"][0]["key"] == "orders::city"
        finally:
            client.close()

    def test_unknown_table_and_bad_requests_are_400(self, service):
        svc, _observatory = service
        client = ServiceClient(svc.url)
        try:
            with pytest.raises(ServiceError):
                client.table("never-uploaded")
            with pytest.raises(ServiceError):
                client.index_query("/nonexistent-dir", vector=[1.0], k=1)
        finally:
            client.close()


# ---------------------------------------------------------------------------
# CLI + chaos helpers
# ---------------------------------------------------------------------------


class TestServeCli:
    def test_serve_announces_and_shuts_down_cleanly(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "--tables",
                "3",
                "--permutations",
                "4",
                "serve",
                "--port",
                "0",
                "--state-dir",
                str(tmp_path / "state"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            line = proc.stdout.readline()
            assert "characterization service listening on http://" in line
            url = line.strip().rsplit(" ", 1)[1]
            client = ServiceClient(url)
            try:
                assert client.health()["ok"] is True
            finally:
                client.close()
        finally:
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=30)
            proc.stdout.close()
            assert code == 0

    def test_serve_handles_signals_from_its_announcement_on(self, tmp_path, monkeypatch):
        # A caller may send SIGTERM the moment it reads "listening on", so
        # the handler must already be installed when that line is written.
        # Runs in process and invokes the installed handler directly: no
        # real signal reaches the test process, whatever the order.
        from repro.cli import main

        default = signal.getsignal(signal.SIGTERM)

        def installed():
            handler = signal.getsignal(signal.SIGTERM)
            return handler if callable(handler) and handler is not default else None

        def stop_when_installed():
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                handler = installed()
                if handler is not None:
                    handler(signal.SIGTERM, None)
                    return
                time.sleep(0.01)

        at_announcement = []

        class Stdout:
            def write(self, text):
                if "listening on" in text:
                    at_announcement.append(installed() is not None)
                    threading.Thread(target=stop_when_installed, daemon=True).start()
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Stdout())
        rc = main(["--tables", "3", "--permutations", "4", "serve", "--port", "0",
                   "--state-dir", str(tmp_path / "state")])
        assert rc == 0
        assert at_announcement == [True]
        assert signal.getsignal(signal.SIGTERM) is default  # restored on exit

    def test_serve_exits_2_on_non_positive_sweep_workers(self, tmp_path):
        # Refused before the service binds, not by every job it would run.
        # A subprocess, so a service that does start cannot hang the suite.
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--sweep-workers", "0",
             "--state-dir", str(tmp_path / "state")],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            timeout=60,
        )
        assert done.returncode == 2
        assert "sweep_workers must be a positive integer" in done.stderr

    def test_count_service_cells_empty_and_missing(self, tmp_path):
        assert count_service_cells(str(tmp_path)) == 0
        assert count_service_cells(str(tmp_path / "missing")) == 0


class TestJournalIterRecords:
    def test_iter_records_reads_live_part_segments(self, tmp_path):
        directory = str(tmp_path / "journal")
        journal = SweepJournal.start(directory, {"seed": 0, "cells": []})
        journal.record_cell("m", "p", {"model": "m", "property": "p"})
        # Not closed: the active .part segment must already be readable.
        records = list(iter_records(directory))
        assert [r["type"] for r in records] == ["cell"]
        journal.close()
        assert [r["type"] for r in iter_records(directory)] == ["cell"]
