"""End-to-end tests for the analysis server (repro.serve + repro.client).

The acceptance bar for analysis-as-a-service:

* three concurrent clients posting the same spec cause exactly one
  execution (dedup by spec digest) and all see the identical manifest
  (that it obs-diffs clean against a direct run is a served cell of
  tests/test_equivalence.py);
* admission control is per client and bounded globally: over-limit
  submissions come back as HTTP 429 with stable ``admission.*`` codes,
  rehydrated client-side as :class:`AdmissionError`;
* the event stream is well-formed ``event/v1`` ND-JSON: contiguous
  sequence numbers, ``queued`` first, a terminal ``done``/``failed``.
"""

import json
import threading

import pytest

from repro.client import ServeClient
from repro.errors import AdmissionError, SpecError
from repro.serve import EVENT_SCHEMA, AnalysisServer, ServerThread
from repro.spec import EngineOptions, spec_from_kwargs

MAX_LENGTH = 1500


def small_spec(**kwargs):
    kwargs.setdefault("max_length", MAX_LENGTH)
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("use_cache", False)
    # fig9 declares sims (gshare, pas) so sim.simulations counts real work.
    return spec_from_kwargs(["fig9"], **kwargs)


@pytest.fixture()
def server(tmp_path):
    options = EngineOptions(
        jobs=1,
        cache_dir=str(tmp_path / "serve-cache"),
        journal=str(tmp_path / "serve_journal.jsonl"),
        resume=True,
    )
    srv = AnalysisServer(options, instance_id="test-server", drain_grace=0.0)
    thread = ServerThread(srv)
    thread.start()
    yield srv, thread
    thread.stop()


@pytest.fixture()
def paused_server(tmp_path):
    """A server whose executor worker is not running: queues only fill."""
    options = EngineOptions(jobs=1, cache=False)
    srv = AnalysisServer(
        options,
        instance_id="test-paused",
        max_inflight=2,
        max_queue=3,
        autostart=False,
        drain_grace=0.0,
    )
    thread = ServerThread(srv)
    thread.start()
    yield srv, thread
    thread.call_soon(srv.start_worker)
    thread.stop()


class TestDedupAcrossClients:
    def test_three_clients_one_execution(self, server, tmp_path):
        srv, thread = server
        spec = small_spec()
        results = {}
        errors = []

        def submit_and_wait(client_id):
            try:
                client = ServeClient(thread.url, client_id=client_id)
                run_id, _created = client.submit(spec)
                results[client_id] = client.wait(run_id, timeout=120)
            except Exception as error:  # surfaced via the errors list
                errors.append((client_id, error))

        workers = [
            threading.Thread(target=submit_and_wait, args=(f"client-{i}",))
            for i in range(3)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=180)
        assert errors == []
        assert len(results) == 3

        docs = list(results.values())
        assert all(doc["status"] == "done" for doc in docs)
        assert len({doc["id"] for doc in docs}) == 1
        assert docs[0]["id"] == spec.digest()

        # All three clients see the identical result envelope.
        envelopes = [doc["result"] for doc in docs]
        canonical = json.dumps(envelopes[0], sort_keys=True)
        assert all(
            json.dumps(env, sort_keys=True) == canonical
            for env in envelopes
        )

        # Exactly one execution: one submission, two dedup hits, one
        # completion -- and the executed run simulated work only once.
        counters = ServeClient(thread.url).metrics()["counters"]
        assert counters["serve.submitted"] == 1
        assert counters["serve.dedup_hits"] == 2
        assert counters["serve.completed"] == 1
        run_counters = envelopes[0]["metrics"]["counters"]
        assert run_counters["sim.simulations"] > 0
        assert run_counters["experiments.run"] == 1

    def test_completed_runs_dedupe_too(self, server):
        srv, thread = server
        spec = small_spec()
        client = ServeClient(thread.url, client_id="resubmit")
        run_id, created = client.submit(spec)
        assert created
        client.wait(run_id, timeout=120)
        again, created_again = client.submit(spec)
        assert again == run_id
        assert not created_again
        # Dedup onto a completed run returns the result immediately.
        assert client.status(run_id)["result"] is not None


class TestAdmissionControl:
    def test_per_client_inflight_limit(self, paused_server):
        srv, thread = paused_server
        client = ServeClient(thread.url, client_id="greedy")
        client.submit(small_spec(seed=1))
        client.submit(small_spec(seed=2))
        with pytest.raises(AdmissionError) as excinfo:
            client.submit(small_spec(seed=3))
        assert excinfo.value.code == "admission.client"
        assert excinfo.value.http_status == 429
        assert excinfo.value.retry_after is not None

    def test_global_queue_bound(self, paused_server):
        srv, thread = paused_server
        ServeClient(thread.url, client_id="a").submit(small_spec(seed=1))
        ServeClient(thread.url, client_id="b").submit(small_spec(seed=2))
        ServeClient(thread.url, client_id="c").submit(small_spec(seed=3))
        with pytest.raises(AdmissionError) as excinfo:
            ServeClient(thread.url, client_id="d").submit(small_spec(seed=4))
        assert excinfo.value.code == "admission.queue"

    def test_dedup_bypasses_admission(self, paused_server):
        # Resubmitting an already-queued spec is free: it never counts
        # against the limits.
        srv, thread = paused_server
        client = ServeClient(thread.url, client_id="greedy")
        one = small_spec(seed=1)
        client.submit(one)
        client.submit(small_spec(seed=2))
        run_id, created = client.submit(one)
        assert run_id == one.digest()
        assert not created

    def test_rejections_are_counted(self, paused_server):
        srv, thread = paused_server
        client = ServeClient(thread.url, client_id="greedy")
        client.submit(small_spec(seed=1))
        client.submit(small_spec(seed=2))
        with pytest.raises(AdmissionError):
            client.submit(small_spec(seed=3))
        counters = client.metrics()["counters"]
        assert counters["serve.rejected"] == 1
        assert counters["serve.client.greedy.submitted"] == 2


class TestWireFormat:
    def test_malformed_spec_is_spec_error(self, server):
        srv, thread = server
        client = ServeClient(thread.url, client_id="bad")
        status, payload = client._request(
            "POST", "/v1/runs", b'{"kind": "nonsense", "bogus": 1}'
        )
        assert status == 400
        assert payload["schema"] == "error/v1"
        assert payload["error"].startswith("spec.")
        with pytest.raises(SpecError):
            client._checked("POST", "/v1/runs", b'{"bogus": 1}')

    def test_bad_collection_window_is_400_naming_the_field(self, server):
        srv, thread = server
        client = ServeClient(thread.url, client_id="bad")
        status, payload = client._request(
            "POST", "/v1/runs", b'{"config": {"collection_window": 40}}'
        )
        assert status == 400
        assert payload["error"] == "spec.invalid"
        assert "config.collection_window" in payload["message"]

    def test_unknown_run_is_404(self, server):
        srv, thread = server
        client = ServeClient(thread.url)
        status, payload = client._request("GET", "/v1/runs/deadbeef")
        assert status == 404
        assert payload["error"] == "run.unknown"

    def test_healthz(self, server):
        srv, thread = server
        doc = ServeClient(thread.url).healthz()
        assert doc["ok"] is True
        assert doc["served_by"] == "test-server"

    def test_event_stream_schema(self, server):
        srv, thread = server
        spec = small_spec()
        client = ServeClient(thread.url, client_id="events")
        run_id, _ = client.submit(spec)
        client.wait(run_id, timeout=120)
        events = list(client.events(run_id))

        assert [event["seq"] for event in events] == list(range(len(events)))
        assert all(event["schema"] == EVENT_SCHEMA for event in events)
        assert all(event["run"] == run_id for event in events)
        kinds = [event["type"] for event in events]
        assert kinds[0] == "queued"
        assert kinds[1] == "started"
        assert kinds[-1] == "done"
        assert "manifest" in kinds and "metrics" in kinds and "log" in kinds
        assert events[-1]["ok"] is True

        manifest_event = next(e for e in events if e["type"] == "manifest")
        envelope = client.status(run_id)["result"]
        assert (
            manifest_event["manifest"]["spec_digest"]
            == envelope["manifest"]["spec_digest"]
        )
        digests = {
            entry["id"]: entry["result_digest"]
            for entry in manifest_event["manifest"]["experiments"]
        }
        assert digests == {
            entry["id"]: entry["result_digest"]
            for entry in envelope["manifest"]["experiments"]
        }

    def test_status_embeds_untouched_envelope(self, server):
        srv, thread = server
        spec = small_spec()
        client = ServeClient(thread.url, client_id="envelope")
        run_id, _ = client.submit(spec)
        doc = client.wait(run_id, timeout=120)
        envelope = doc["result"]
        assert envelope["schema"] == "result/v1"
        assert envelope["kind"] == "report"
        assert envelope["spec"] == spec.identity()
        assert doc["served_by"] == "test-server"
