"""End-to-end HTTP API tests: an in-process server on an ephemeral
port, driven through the thin client.

The two ISSUE acceptance criteria proved here: a fetched
``results.csv`` is byte-identical to a foreground run of the same
campaign, and the event stream's completed-fault counts are
monotonically non-decreasing (fed by the real heartbeat beacons).
"""

import threading
import time
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.reporting.campaign import campaign_csv
from repro.runner.campaign import CampaignSpec, run_campaign
from repro.service import ServiceClient, ServiceConfig, serve
from repro.service import api
from repro.service.api import CampaignService, ServiceServer

from tests.helpers import TOGGLE_BENCH

#: One small campaign spec used throughout (32 faults on s27).
SPEC = {
    "circuit": "s27", "length": 16, "seed": 1,
    "n_states": 16, "n_references": 4,
}

TERMINAL = ("done", "failed", "cancelled")


@pytest.fixture
def service(tmp_path):
    svc, server = serve(
        str(tmp_path / "root"),
        ServiceConfig(workers=2, events_poll=0.02),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield svc, server
    finally:
        server.shutdown()
        svc.shutdown(interrupt=True)
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture
def client(service):
    _svc, server = service
    return ServiceClient(server.url)


def _wait_terminal(client, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = client.job(job_id)
        if job["state"] in TERMINAL:
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


def test_health(client):
    payload = client.health()
    assert payload["ok"] is True
    assert payload["counts"]["queued"] == 0


def test_submit_run_fetch_byte_identical(client):
    job = client.submit(dict(SPEC))
    final = _wait_terminal(client, job["job_id"])
    assert final["state"] == "done"
    assert final["result"]["total"] == 32
    fetched = client.fetch(job["job_id"], "results.csv")
    direct = run_campaign(CampaignSpec(**SPEC))
    assert fetched == campaign_csv(direct.campaign, direct.circuit)
    report = client.fetch(job["job_id"], "report.txt")
    assert "fault simulation report: s27" in report
    metrics = client.fetch(job["job_id"], "metrics.json")
    assert "counters" in metrics


def test_events_stream_monotonic_from_beacons(client):
    job = client.submit(dict(SPEC))
    events = list(client.events(job["job_id"]))
    assert events, "stream produced no events"
    counts = [e["completed"] for e in events]
    assert counts == sorted(counts)
    assert counts[-1] == 32
    assert events[-1]["state"] == "done"


def test_events_stream_ends_on_the_terminal_state(tmp_path, monkeypatch):
    """A job that finishes right after the stream writes a ``running``
    event still gets its terminal event: the stream reads the live job
    record's state once per poll, so it cannot write one state and end
    on another.  No executor runs: the test claims and finishes the
    job itself, from inside the first chunk write."""
    service = CampaignService(
        str(tmp_path / "root"), ServiceConfig(events_poll=0.01)
    )
    job_id = service.queue.next_job_id()
    service.queue.submit(job_id, dict(SPEC))
    service.store.create_job_dir(job_id)
    assert service.queue.claim({}).job_id == job_id
    write_chunk = api._Handler._write_chunk
    written = []

    def write_then_finish(handler, payload):
        write_chunk(handler, payload)
        written.append(payload["state"])
        if len(written) == 1:
            service.queue.finish(job_id, "done")

    monkeypatch.setattr(api._Handler, "_write_chunk", write_then_finish)
    server = ServiceServer(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        events = list(ServiceClient(server.url).events(job_id))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert [event["state"] for event in events] == ["running", "done"]


def test_events_on_terminal_job_emit_final_state(client):
    job = client.submit(dict(SPEC))
    _wait_terminal(client, job["job_id"])
    events = list(client.events(job["job_id"]))
    assert events[-1]["state"] == "done"
    assert events[-1]["completed"] == 32


def test_uploaded_bench_text_job(client):
    job = client.submit(
        {"bench_text": TOGGLE_BENCH, "length": 8, "n_states": 8,
         "n_references": 2}
    )
    final = _wait_terminal(client, job["job_id"])
    assert final["state"] == "done"
    # The stored spec references the content-addressed upload.
    assert "circuits/" in final["spec"]["bench_path"]


def test_unparseable_circuit_fails_job(client):
    job = client.submit({"bench_text": "garbage $$$ netlist\n"})
    final = _wait_terminal(client, job["job_id"])
    assert final["state"] == "failed"
    assert "cannot parse" in final["error"]


def test_bad_spec_rejected_400(client):
    with pytest.raises(ServiceError, match="simulator kind"):
        client.submit({"circuit": "s27", "kind": "bogus"})
    with pytest.raises(ServiceError, match="bench_text"):
        client.submit({"bench_path": "/etc/passwd"})
    with pytest.raises(ServiceError, match="exactly one"):
        client.submit({})


def test_mistyped_spec_rejected_400_and_server_keeps_serving(client):
    # A string worker count used to raise TypeError inside the handler,
    # and the connection dropped without a response.
    with pytest.raises(ServiceError, match="workers must be an integer"):
        client.submit({"circuit": "s27", "workers": "2"})
    with pytest.raises(ServiceError, match="hosts must be non-empty"):
        client.submit({"circuit": "s27", "hosts": 5})
    assert client.health()["ok"] is True


def test_unknown_job_404(client):
    with pytest.raises(ServiceError, match="unknown job"):
        client.job("j999999")
    with pytest.raises(ServiceError, match="unknown job"):
        client.fetch("j999999", "results.csv")


def test_artifact_not_ready_404(client, service):
    svc, _server = service
    # Stop workers so the job stays queued with no artifacts.
    svc.executor.stop(interrupt=False)
    job = client.submit(dict(SPEC))
    with pytest.raises(ServiceError, match="not available"):
        client.fetch(job["job_id"], "results.csv")


def test_cancel_queued_job(client, service):
    svc, _server = service
    svc.executor.stop(interrupt=False)
    job = client.submit(dict(SPEC))
    payload = client.cancel(job["job_id"])
    assert payload["cancel"] == "cancelled"
    assert client.job(job["job_id"])["state"] == "cancelled"
    with pytest.raises(ServiceError, match="terminal"):
        client.cancel(job["job_id"])


def test_concurrent_same_circuit_jobs_do_not_collide(client):
    """Two simultaneous jobs over the same circuit: both must finish
    with correct, independent artifacts (the per-job-directory
    isolation regression)."""
    first = client.submit(dict(SPEC))
    second = client.submit(dict(SPEC))
    final_first = _wait_terminal(client, first["job_id"])
    final_second = _wait_terminal(client, second["job_id"])
    assert final_first["state"] == "done"
    assert final_second["state"] == "done"
    csv_first = client.fetch(first["job_id"], "results.csv")
    csv_second = client.fetch(second["job_id"], "results.csv")
    assert csv_first == csv_second  # same spec, same verdicts
    direct = run_campaign(CampaignSpec(**SPEC))
    assert csv_first == campaign_csv(direct.campaign, direct.circuit)


def test_tenant_quota_serializes_one_tenant(tmp_path):
    svc, server = serve(
        str(tmp_path / "root"),
        ServiceConfig(workers=2, tenant_quota=1, events_poll=0.02),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(server.url)
        a = client.submit(dict(SPEC), tenant="alice")
        b = client.submit(dict(SPEC), tenant="alice")
        _wait_terminal(client, a["job_id"])
        _wait_terminal(client, b["job_id"])
        jobs = {j["job_id"]: j for j in client.jobs()}
        assert jobs[a["job_id"]]["state"] == "done"
        assert jobs[b["job_id"]]["state"] == "done"
        # With quota 1, the second job could only start after the
        # first finished.
        assert (
            jobs[b["job_id"]]["started_at"]
            >= jobs[a["job_id"]]["finished_at"]
        )
    finally:
        server.shutdown()
        svc.shutdown(interrupt=True)
        server.server_close()
        thread.join(timeout=10)


def test_browser_pages(client, service):
    _svc, server = service
    job = client.submit(dict(SPEC))
    _wait_terminal(client, job["job_id"])
    index = urllib.request.urlopen(server.url + "/").read().decode()
    assert "repro campaign service" in index
    assert job["job_id"] in index
    page = urllib.request.urlopen(
        server.url + f"/jobs/{job['job_id']}/html"
    ).read().decode()
    assert "results.csv" in page
    assert "done" in page


def test_browser_escapes_html(client, service):
    _svc, server = service
    job = client.submit(
        {"bench_text": "INPUT(<script>)\n", "length": 4}
    )
    _wait_terminal(client, job["job_id"])
    page = urllib.request.urlopen(
        server.url + f"/jobs/{job['job_id']}/html"
    ).read().decode()
    assert "<script>" not in page


def test_service_json_discovery(service, tmp_path):
    from repro.service import discover_url

    svc, server = service
    assert discover_url(svc.store.root) == server.url
    with pytest.raises(ServiceError):
        discover_url(str(tmp_path / "nowhere"))


def test_sharded_job_runs_and_matches(client):
    job = client.submit(dict(SPEC, workers=2))
    final = _wait_terminal(client, job["job_id"], timeout=120.0)
    assert final["state"] == "done"
    direct = run_campaign(CampaignSpec(**SPEC))
    assert client.fetch(job["job_id"], "results.csv") == campaign_csv(
        direct.campaign, direct.circuit
    )
