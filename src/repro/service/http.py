"""Stdlib HTTP front end for the graph service.

A thin, dependency-free JSON API over :class:`~repro.service.scheduler.
GraphService` — ``http.server.ThreadingHTTPServer`` is enough because
every request either reads the in-memory job table under its lock or
enqueues work; the one request that waits for a job (``?wait=``) sleeps
on the job table's condition in its own handler thread.

Routes::

    GET  /healthz                  liveness + job-table summary
    GET  /metrics                  Prometheus text exposition
    GET  /api/graphs               registered graph names -> specs
    POST /api/graphs               {"name": ..., "spec": {...}}
    GET  /api/jobs                 all job statuses
    POST /api/jobs                 submit a JobSpec (job_id optional)
    GET  /api/jobs/<id>            one job's status; ``?wait=S`` holds
                                   the reply until the job is terminal
                                   or S seconds (at most 30) have passed
    GET  /api/jobs/<id>/result     result summary (409 until done)
    GET  /api/jobs/<id>/trace      telemetry JSONL of the last attempt
    POST /api/jobs/<id>/cancel     request cancellation
    POST /api/gc                   retention sweep of terminal jobs

Error mapping: 400 bad spec or query, 404 unknown job/graph, 409 result not
ready, 429 admission control (:class:`ServiceBusy`), 500 anything else.

:func:`serve` is the blocking entry point behind ``repro serve``; it
prints ``repro-service listening on http://HOST:PORT`` (so scripts and
CI can bind port 0 and parse the real one) and drains gracefully on
SIGTERM/SIGINT — running jobs stop at their next barrier checkpoint and
resume bit-identically on the next start.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .jobs import JobState
from .scheduler import GraphService, ServiceBusy

__all__ = ["make_server", "serve"]

_MAX_BODY = 1 << 20  # a JobSpec measured in megabytes is an attack


class _Handler(BaseHTTPRequestHandler):
    service: GraphService  # set by make_server on the subclass
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    def log_message(self, fmt, *args):  # quiet: the journal is the log
        pass

    def _json(self, status: int, payload) -> None:
        body = json.dumps(payload, sort_keys=True).encode() + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._json(status, {"error": message})

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > _MAX_BODY:
            raise ValueError(f"request body length {length} out of range")
        data = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            self._route_get()
        except (KeyError, LookupError) as exc:
            self._error(404, str(exc))
        except ValueError as exc:
            self._error(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._error(500, repr(exc))

    def do_POST(self) -> None:  # noqa: N802
        try:
            self._route_post()
        except ServiceBusy as exc:
            self._error(429, str(exc))
        except (KeyError, LookupError) as exc:
            self._error(404, str(exc))
        except (ValueError, TypeError) as exc:
            self._error(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            self._error(500, repr(exc))

    def _route_get(self) -> None:
        svc = self.service
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["healthz"]:
            self._json(200, svc.health())
        elif parts == ["metrics"]:
            body = svc.metrics.to_prometheus().encode()
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif parts == ["api", "graphs"]:
            self._json(200, svc.graphs.names())
        elif parts == ["api", "jobs"]:
            self._json(200, {"jobs": svc.list_jobs()})
        elif len(parts) == 3 and parts[:2] == ["api", "jobs"]:
            self._json(200, svc.status(parts[2], wait=self._wait_query()))
        elif len(parts) == 4 and parts[:2] == ["api", "jobs"]:
            job_id, leaf = parts[2], parts[3]
            if leaf == "result":
                status = svc.status(job_id)  # 404 before 409
                if status["state"] != JobState.DONE:
                    self._error(409, f"job {job_id} is {status['state']}, "
                                     "not done")
                else:
                    self._json(200, svc.result(job_id))
            elif leaf == "trace":
                self._stream_trace(job_id)
            else:
                self._error(404, f"unknown endpoint {self.path!r}")
        else:
            self._error(404, f"unknown endpoint {self.path!r}")

    def _wait_query(self) -> float:
        """The ``?wait=<seconds>`` of a status request (0 if absent)."""
        query = urllib.parse.parse_qs(urllib.parse.urlsplit(self.path).query,
                                      keep_blank_values=True)
        unknown = set(query) - {"wait"}
        if unknown:
            raise ValueError(
                f"unknown query key(s): {', '.join(sorted(unknown))}")
        if "wait" not in query:
            return 0.0
        wait = float(query["wait"][-1])  # ValueError -> 400
        if not wait >= 0:  # also refuses NaN
            raise ValueError(f"wait must be >= 0 seconds, got {wait}")
        return wait

    def _route_post(self) -> None:
        svc = self.service
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["api", "jobs"]:
            job_id = svc.submit(self._body())
            self._json(201, {"job_id": job_id})
        elif parts == ["api", "graphs"]:
            body = self._body()
            svc.graphs.register(body["name"], body["spec"])
            self._json(201, {"name": body["name"]})
        elif (len(parts) == 4 and parts[:2] == ["api", "jobs"]
                and parts[3] == "cancel"):
            self._json(200, svc.cancel(parts[2]))
        elif parts == ["api", "gc"]:
            body = self._body() if int(
                self.headers.get("Content-Length") or 0) > 0 else {}
            unknown = set(body) - {"max_age_s", "max_count"}
            if unknown:
                raise ValueError(
                    f"unknown gc key(s): {', '.join(sorted(unknown))}")
            self._json(200, svc.gc(
                max_age_s=body.get("max_age_s"),
                max_count=body.get("max_count")))
        else:
            self._error(404, f"unknown endpoint {self.path!r}")

    def _stream_trace(self, job_id: str) -> None:
        svc = self.service
        svc.status(job_id)  # raises KeyError -> 404 for unknown jobs
        jdir = svc.job_dir(job_id)
        traces = sorted(
            (f for f in os.listdir(jdir) if f.startswith("trace-"))
            if os.path.isdir(jdir) else [])
        if not traces:
            raise LookupError(f"job {job_id} has no telemetry trace yet")
        path = os.path.join(jdir, traces[-1])
        with open(path, "rb") as fh:
            body = fh.read()
        self.send_response(200)
        self.send_header("Content-Type", "application/jsonl")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def make_server(service: GraphService, *, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """An HTTP server bound to ``host:port`` serving ``service``.

    ``port=0`` binds an ephemeral port; read ``server.server_address``.
    The caller owns both lifecycles (``service.start()`` /
    ``service.shutdown()`` and ``server.serve_forever()``).
    """
    handler = type("BoundHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


def serve(data_dir: str, *, host: str = "127.0.0.1", port: int = 8750,
          max_concurrent: int = 2, max_queue: int = 64,
          retain_age_s: float | None = None,
          retain_count: int | None = None) -> int:
    """Blocking entry point behind ``repro serve``.

    Recovers the journal, starts the pool, serves until SIGTERM/SIGINT,
    then drains: running jobs checkpoint at their next barrier and the
    journal is compacted, so the next ``serve`` resumes them losslessly.
    """
    service = GraphService(data_dir, max_concurrent=max_concurrent,
                           max_queue=max_queue, retain_age_s=retain_age_s,
                           retain_count=retain_count)
    service.start()
    server = make_server(service, host=host, port=port)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro-service listening on http://{bound_host}:{bound_port}",
          flush=True)
    if service.jobs:
        resumed = sum(1 for j in service.jobs.values() if j.resumed)
        print(f"recovered {len(service.jobs)} job(s) from journal "
              f"({resumed} resumed)", flush=True)

    stop = threading.Event()

    def _graceful(signum, frame):  # noqa: ARG001 (signal API)
        stop.set()
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
        service.shutdown(drain=True)
    return 0
