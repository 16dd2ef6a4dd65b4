"""HTTP surface: routes, error mapping, client wrappers, CLI client.

Everything runs against an in-process ``ThreadingHTTPServer`` on an
ephemeral port — no subprocesses here (the cross-process chaos story
lives in ``test_service_crash.py``).
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro import cli
from repro.service import GraphService, JobState, ServiceClient, ServiceError
from repro.service.http import make_server

WEB_SPEC = {"dataset": "web-google-mini", "scale": 8, "seed": 7}


@pytest.fixture
def live(tmp_path):
    """(service, client) against a started pool + bound server."""
    svc = GraphService(tmp_path / "svc", max_concurrent=2)
    svc.graphs.register("web", WEB_SPEC)
    svc.start()
    server = make_server(svc)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield svc, ServiceClient(f"http://{host}:{port}")
    server.shutdown()
    server.server_close()
    svc.shutdown(drain=True, timeout=60)


def test_healthz_and_metrics(live):
    _, client = live
    health = client.health()
    assert health["ok"] and health["graphs"] == ["web"]
    jid = client.submit({"algorithm": "WCC", "graph": "web"})
    client.wait(jid, timeout=60)
    text = client.metrics()
    assert "service_jobs_submitted_total 1" in text
    assert 'service_jobs_finished_total{status="done"} 1' in text


def test_submit_wait_result_trace(live):
    _, client = live
    jid = client.submit({"algorithm": "WCC", "graph": "web",
                         "config": {"seed": 3}})
    status = client.wait(jid, timeout=60)
    assert status["state"] == JobState.DONE
    result = client.result(jid)
    assert result["converged"] and len(result["state_sha256"]) == 64
    trace = client.trace(jid)
    assert any(r.get("type") == "run_end" for r in trace)
    assert jid in [j["job_id"] for j in client.jobs()]


def test_status_wait_long_polls_until_terminal(live):
    _, client = live
    jid = client.submit({"algorithm": "PageRank", "graph": "web",
                         "config": {"seed": 2}, "throttle_s": 0.05})
    # one held request sees the job through ...
    assert client.status(jid, wait=30)["state"] == JobState.DONE
    # ... so wait() no longer costs a request per poll interval
    jid = client.submit({"algorithm": "PageRank", "graph": "web",
                         "config": {"seed": 2}, "throttle_s": 0.05})
    responses = []
    final = client.wait(jid, timeout=60, poll_s=0.005,
                        on_status=responses.append)
    assert final["state"] == JobState.DONE and responses[-1] == final
    assert len(responses) <= 2


def test_status_wait_expires_and_rejects_bad_queries(live):
    _, client = live
    jid = client.submit({"algorithm": "PageRank", "graph": "web",
                         "throttle_s": 0.5})
    started = time.monotonic()
    status = client.status(jid, wait=0.3)
    assert time.monotonic() - started >= 0.3
    assert status["state"] not in JobState.TERMINAL
    for query in ("wait=-1", "wait=soon", "wait=nan", "patience=3"):
        with pytest.raises(ServiceError) as exc:
            client._call("GET", f"/api/jobs/{jid}?{query}")
        assert exc.value.status == 400, query
    with pytest.raises(ServiceError) as exc:
        client.status("j9999-beef", wait=5)
    assert exc.value.status == 404
    client.cancel(jid)
    assert client.status(jid, wait=30)["state"] == JobState.CANCELLED


def test_cancel_over_http(live):
    _, client = live
    jid = client.submit({"algorithm": "PageRank", "graph": "web",
                         "throttle_s": 0.2})
    status = client.cancel(jid)
    assert status["cancel_requested"]
    final = client.wait(jid, timeout=60)
    assert final["state"] == JobState.CANCELLED


def test_graph_registration_over_http(live, tmp_path):
    _, client = live
    client.register_graph("tiny", {"dataset": "web-google-mini",
                                   "scale": 6, "seed": 1})
    assert "tiny" in client.graphs()
    jid = client.submit({"algorithm": "WCC", "graph": "tiny"})
    assert client.wait(jid, timeout=60)["state"] == JobState.DONE


def test_error_mapping(live):
    _, client = live
    with pytest.raises(ServiceError) as exc:
        client.status("j9999-beef")
    assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        client.submit({"algorithm": "NoSuch", "graph": "web"})
    assert exc.value.status == 400
    jid = client.submit({"algorithm": "PageRank", "graph": "web",
                         "throttle_s": 0.2})
    with pytest.raises(ServiceError) as exc:
        client.result(jid)  # not done yet
    assert exc.value.status == 409
    client.cancel(jid)
    client.wait(jid, timeout=60)
    with pytest.raises(ServiceError) as exc:
        client._call("GET", "/api/nothing/here")
    assert exc.value.status == 404


def test_table_refusal_is_a_400_naming_the_reason(live, capsys):
    svc, client = live
    for switches, reason in [
        ({"mode": "sync", "backend": "process"},
         "backend='process' applies to mode='nondeterministic' only"),
        ({"mode": "delta", "vectorized": True},
         "vectorized= applies to mode='nondeterministic', 'sync', "
         "'chromatic' or 'deterministic' only"),
        ({"vectorized": "yes"},
         "vectorized='yes' not understood: use False, True, 'require'"),
    ]:
        with pytest.raises(ServiceError) as exc:
            client.submit({"algorithm": "WCC", "graph": "web", **switches})
        assert exc.value.status == 400
        assert str(exc.value) == f"HTTP 400: {reason}"
    assert svc.list_jobs() == []  # refused before the journal
    code = cli.main(["client", "--url", client.url, "submit", "WCC",
                     "--graph", "web", "--mutate"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: HTTP 400: mutations=, delta_threshold=")


def test_unknown_mode_is_a_400_listing_the_modes(live):
    _, client = live
    with pytest.raises(ServiceError) as exc:
        client.submit({"algorithm": "WCC", "graph": "web", "mode": "threads"})
    assert exc.value.status == 400
    message = str(exc.value)
    assert "unknown mode 'threads'" in message
    for mode in ("sync", "deterministic", "chromatic", "nondeterministic",
                 "pure-async", "delta"):
        assert f"'{mode}'" in message


def test_admission_control_maps_to_429(tmp_path):
    svc = GraphService(tmp_path / "svc", max_queue=1)  # pool NOT started
    svc.graphs.register("web", WEB_SPEC)
    server = make_server(svc)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    client.submit({"algorithm": "WCC", "graph": "web"})
    with pytest.raises(ServiceError) as exc:
        client.submit({"algorithm": "WCC", "graph": "web"})
    assert exc.value.status == 429
    server.shutdown()
    server.server_close()
    svc.journal.close()
    svc.graphs.close()


# ----------------------------------------------------------------------
# the CLI client
# ----------------------------------------------------------------------
def test_cli_client_round_trip(live, capsys):
    _, client = live
    url = client.url
    rc = cli.main(["client", "--url", url, "graphs", "--register", "tiny2",
                   "--spec", json.dumps({"dataset": "web-google-mini",
                                         "scale": 6, "seed": 1})])
    assert rc == 0
    assert "tiny2" in capsys.readouterr().out

    rc = cli.main(["client", "--url", url, "submit", "WCC",
                   "--graph", "tiny2", "--run-seed", "3", "--wait"])
    out = capsys.readouterr().out
    assert rc == 0
    jid = out.splitlines()[0].strip()
    assert '"state": "done"' in out

    assert cli.main(["client", "--url", url, "status", jid]) == 0
    assert f'"job_id": "{jid}"' in capsys.readouterr().out
    assert cli.main(["client", "--url", url, "result", jid]) == 0
    assert '"state_sha256"' in capsys.readouterr().out
    assert cli.main(["client", "--url", url, "jobs"]) == 0
    capsys.readouterr()
    assert cli.main(["client", "--url", url, "watch", jid]) == 0
    assert "done" in capsys.readouterr().out


def test_cli_watch_follows_the_barriers(live, capsys):
    """``watch`` shows progress, not just the first and the last status:
    its requests are short holds, not one long-poll to the end."""
    _, client = live
    jid = client.submit({"algorithm": "WCC", "graph": "web",
                         "config": {"seed": 3}, "throttle_s": 0.7})
    assert cli.main(["client", "--url", client.url, "watch", jid]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith(f"{jid} done")
    running = {line for line in lines if f"{jid} running iter=" in line}
    assert len(running) > 1, lines


def test_cli_client_unreachable_service_fails_cleanly(capsys):
    rc = cli.main(["client", "--url", "http://127.0.0.1:1", "jobs"])
    assert rc == 1
    assert "cannot reach" in capsys.readouterr().err


def test_gc_over_http(live):
    svc, client = live
    jid = client.submit({"algorithm": "WCC", "graph": "web"})
    client.wait(jid, timeout=60)
    out = client.gc(max_age_s=0.0)
    assert jid in out["swept"]
    assert jid not in [j["job_id"] for j in client.jobs()]
    with pytest.raises(ServiceError) as exc:
        client._call("POST", "/api/gc", {"bogus": 1})
    assert exc.value.status == 400
