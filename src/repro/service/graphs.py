"""Persistent named graphs: load once per process, read-only across jobs.

Maiter-style standing graphs: a service tenant registers a graph under
a name once, and every subsequent job references the name — each job
runner (:mod:`repro.service.runner`) opens its own registry on the
shared ``graphs.json``, loads a named graph the first time one of its
jobs asks for it and hands the *same object* to every later job.  That
reuse is safe because no engine mutates the graph (state lives in
per-run :class:`~repro.engine.state.State` arrays); for a v2 container
the arrays are read-only ``np.memmap`` views, so the runners
additionally share page-cache pages instead of holding private copies.

A registration is a JSON spec of one of three shapes::

    {"dataset": "web-google-mini", "scale": 10, "seed": 7}   # generator
    {"path": "graphs/web.rprogrf", "mmap": true}             # container
    {"shards": "shards/web-k8", "intervals": 8}              # ShardStore

The registry file (``graphs.json``) is rewritten atomically on every
registration, so a crash never loses or corrupts the name table.
"""

from __future__ import annotations

import json
import os
import re
import threading

from ..storage.checkpoint import fsync_directory

__all__ = ["GraphRegistry"]

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


class GraphRegistry:
    """Thread-safe name → graph table backed by ``graphs.json``."""

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._specs: dict[str, dict] = self._read()
        self._cache: dict[str, object] = {}

    def _read(self) -> dict[str, dict]:
        if not os.path.exists(self.path):
            return {}
        with open(self.path, "r", encoding="utf-8") as fh:
            return json.load(fh)

    # -- registration ------------------------------------------------------
    @staticmethod
    def validate_spec(spec: dict) -> None:
        if not isinstance(spec, dict):
            raise ValueError("graph spec must be a dict")
        keys = set(spec)
        if "dataset" in keys:
            extra = keys - {"dataset", "scale", "seed"}
        elif "path" in keys:
            extra = keys - {"path", "mmap"}
        elif "shards" in keys:
            extra = keys - {"shards"}
        else:
            raise ValueError(
                "graph spec needs one of: 'dataset' (generator), "
                "'path' (RPROGRF container), 'shards' (PSW store)")
        if extra:
            raise ValueError(
                f"unsupported graph-spec key(s): {', '.join(sorted(extra))}")

    def register(self, name: str, spec: dict) -> None:
        """Durably bind ``name`` to ``spec`` (idempotent re-register)."""
        if not _NAME_RE.match(name or ""):
            raise ValueError(
                f"invalid graph name {name!r}: need 1-64 chars of "
                "[A-Za-z0-9._-]")
        self.validate_spec(spec)
        with self._lock:
            existing = self._specs.get(name)
            if existing is not None and existing != spec:
                raise ValueError(
                    f"graph {name!r} already registered with a different "
                    f"spec; unregister is deliberately unsupported while "
                    f"jobs may reference it")
            self._specs[name] = spec
            self._save_locked()

    def names(self) -> dict[str, dict]:
        with self._lock:
            return dict(self._specs)

    def _save_locked(self) -> None:
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._specs, fh, sort_keys=True, indent=1)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        fsync_directory(os.path.dirname(self.path))

    # -- resolution --------------------------------------------------------
    def get(self, ref: str | dict):
        """The standing graph for a name or inline spec (cached by name).

        Inline specs (dicts) are resolved but *not* cached — only named
        graphs are standing; one-off inline graphs die with their job.
        """
        if isinstance(ref, str):
            with self._lock:
                cached = self._cache.get(ref)
                if cached is not None:
                    return cached
                spec = self._specs.get(ref)
                if spec is None:
                    # Another process may have registered it since this
                    # table was read (a runner's registry outlives the
                    # registrations its service takes); ``register`` is
                    # durable before it returns, so the file knows.
                    self._specs = self._read()
                    spec = self._specs.get(ref)
            if spec is None:
                raise KeyError(f"no graph registered under {ref!r}")
            graph = self._load(spec)
            with self._lock:
                # Two racers may both load; keep the first, drop ours.
                return self._cache.setdefault(ref, graph)
        self.validate_spec(ref)
        return self._load(ref)

    @staticmethod
    def _load(spec: dict):
        if "dataset" in spec:
            from ..graph.datasets import load_dataset

            return load_dataset(spec["dataset"],
                                scale=int(spec.get("scale", 10)),
                                seed=int(spec.get("seed", 7)))
        if "path" in spec:
            from ..storage.binfmt import load_graph

            graph, _vertex, _edge = load_graph(
                spec["path"], mmap=bool(spec.get("mmap", True)))
            return graph
        from ..storage.shards import ShardStore

        return ShardStore.open(spec["shards"])

    def close(self) -> None:
        """Drop cached graphs (ShardStores get their runners closed)."""
        with self._lock:
            for graph in self._cache.values():
                runner = getattr(graph, "nondet_runner", None)
                closer = (runner().close if callable(runner)
                          else getattr(graph, "close", None))
                if callable(closer):
                    try:
                        closer()
                    except Exception:
                        pass
            self._cache.clear()
