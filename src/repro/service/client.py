"""Thin stdlib client for the service HTTP API.

``urllib.request`` wrappers that speak the JSON surface of
:mod:`repro.service.http` — used by ``repro client`` and by the tests;
kept free of anything beyond the stdlib so a client can be vendored
into an experiment harness as a single file.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """An API call failed; carries the HTTP status and server message."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServiceClient:
    """Client for one service at ``url`` (e.g. ``http://127.0.0.1:8750``)."""

    def __init__(self, url: str, *, timeout: float = 30.0):
        self.url = url.rstrip("/")
        self.timeout = timeout

    # -- transport -----------------------------------------------------
    def _call(self, method: str, path: str, payload: dict | None = None):
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        req = urllib.request.Request(self.url + path, data=data,
                                     headers=headers, method=method)
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = resp.read()
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode("utf-8", "replace").strip()
            try:
                detail = json.loads(detail).get("error", detail)
            except (json.JSONDecodeError, AttributeError):
                pass
            raise ServiceError(exc.code, detail) from None
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {self.url}: "
                                  f"{exc.reason}") from None
        return json.loads(body) if body.strip() else None

    # -- API -----------------------------------------------------------
    def health(self) -> dict:
        return self._call("GET", "/healthz")

    def metrics(self) -> str:
        req = urllib.request.Request(self.url + "/metrics")
        with urllib.request.urlopen(req, timeout=self.timeout) as resp:
            return resp.read().decode()

    def graphs(self) -> dict:
        return self._call("GET", "/api/graphs")

    def register_graph(self, name: str, spec: dict) -> dict:
        return self._call("POST", "/api/graphs",
                          {"name": name, "spec": spec})

    def submit(self, spec: dict) -> str:
        return self._call("POST", "/api/jobs", spec)["job_id"]

    def jobs(self) -> list[dict]:
        return self._call("GET", "/api/jobs")["jobs"]

    def status(self, job_id: str, *, wait: float = 0.0) -> dict:
        """One job's status; ``wait`` > 0 long-polls: the server holds
        the reply until the job is terminal or ``wait`` seconds passed."""
        query = f"?wait={wait:g}" if wait > 0 else ""
        return self._call("GET", f"/api/jobs/{job_id}{query}")

    def result(self, job_id: str) -> dict:
        return self._call("GET", f"/api/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._call("POST", f"/api/jobs/{job_id}/cancel")

    def gc(self, *, max_age_s: float | None = None,
           max_count: int | None = None) -> dict:
        """Sweep terminal jobs server-side; returns ``{"swept": [...]}``."""
        payload = {}
        if max_age_s is not None:
            payload["max_age_s"] = max_age_s
        if max_count is not None:
            payload["max_count"] = max_count
        return self._call("POST", "/api/gc", payload)

    def trace(self, job_id: str) -> list[dict]:
        req = urllib.request.Request(self.url + f"/api/jobs/{job_id}/trace")
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                text = resp.read().decode()
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, exc.read().decode(
                "utf-8", "replace")) from None
        return [json.loads(line) for line in text.splitlines() if line]

    def wait(self, job_id: str, *, timeout: float = 120.0,
             poll_s: float = 0.25, on_status=None) -> dict:
        """Wait until the job is terminal; returns the final status.

        Each request is a long-poll the server answers when the job
        turns terminal (or after half this client's socket timeout, so
        a held reply never reads as an unreachable server): a waiting
        client costs one request per job, not one per ``poll_s``, which
        only paces the requests a server answers early.
        ``on_status(status)`` (if given) fires once per response.  To
        follow a job's barriers, call :meth:`status` with a short
        ``wait`` instead, as ``repro client watch`` does.
        """
        from .jobs import JobState

        deadline = time.monotonic() + timeout
        while True:
            remaining = max(0.0, deadline - time.monotonic())
            status = self.status(job_id,
                                 wait=min(remaining, self.timeout / 2))
            if on_status is not None:
                on_status(status)
            if status["state"] in JobState.TERMINAL:
                return status
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after "
                    f"{timeout:.0f}s")
            time.sleep(poll_s)
