"""Shared-memory array pools for the multi-process execution backend.

One :class:`SharedArrayPool` maps a set of named NumPy arrays onto a
single POSIX shared-memory segment (``multiprocessing.shared_memory``),
so a master process and its workers see the *same physical pages* —
zero-copy CSR topology and state arrays, exactly the substrate the
paper's racy threads share through the cache-coherence protocol.

Design points:

* **One segment, many arrays.**  An :class:`ArrayLayout` computes an
  8-byte-aligned offset table once; master and workers both derive
  their views from it, so there is exactly one name to create, attach,
  and unlink per run instead of one per array.
* **Leak-proof by construction.**  The creating process owns the
  segment: :meth:`SharedArrayPool.unlink` is idempotent and runs from
  ``close()``/``__exit__``/GC, and the stdlib ``resource_tracker``
  backstops a SIGKILLed master.  Attaching processes deliberately do
  *not* register with the tracker (Python < 3.13 registers attachments
  too, which produces spurious "leaked shared_memory" warnings and
  double-unlink races at interpreter shutdown — gh-82300); on 3.13+
  ``track=False`` does the same thing officially.
* **Files too.**  :meth:`SharedArrayPool.map_file` lays the same
  offset table over a file mapped ``MAP_SHARED`` (the out-of-core
  scratch), for arrays that should live in the page cache.
* **Views before maps.**  NumPy views pin the underlying ``mmap``;
  :meth:`release_views` drops them so ``close()`` can unmap without
  ``BufferError``.
"""

from __future__ import annotations

import contextlib
import contextvars
import glob as _glob
import mmap
import os
import re
import secrets
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = [
    "ArrayLayout",
    "SharedArrayPool",
    "SEGMENT_PREFIX",
    "segment_namespace",
    "current_segment_namespace",
    "sweep_orphaned_segments",
]

#: Every segment this module creates carries this name prefix, so tests
#: (and operators) can audit ``/dev/shm`` for leaks with one glob.
SEGMENT_PREFIX = "repro-pool-"

_ALIGN = 8

#: Where POSIX shared memory is observable as files (Linux).  On other
#: platforms the sweep degrades to a no-op — segments are still unlinked
#: by their owners; only crash-orphan recovery loses observability.
SHM_DIR = "/dev/shm"

_NAMESPACE_RE = re.compile(r"^[A-Za-z0-9._-]{1,80}$")

#: The per-job/service segment namespace.  A context variable, so a
#: service job runner scopes the segments of the job it is running
#: without plumbing a name through every engine layer:
#: ``SharedArrayPool.create`` picks it up when minting a default name.
_namespace: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_shm_namespace", default=None)


def current_segment_namespace() -> str | None:
    """The namespace new segments are minted under in this context."""
    return _namespace.get()


@contextlib.contextmanager
def segment_namespace(namespace: str | None):
    """Scope default segment names to ``SEGMENT_PREFIX<namespace>-…``.

    The service's job runner wraps each job's run in
    ``segment_namespace(f"{service_ns}-{job_id}")`` so every segment a
    job creates — the parallel backend's pool, the out-of-core worker
    mirrors — carries the job id in its ``/dev/shm`` name.  That is what
    makes the startup orphan sweep safe: a segment name proves which job
    (and which service) it belonged to.
    """
    if namespace is not None and not _NAMESPACE_RE.match(namespace):
        raise ValueError(
            f"invalid segment namespace {namespace!r}: need 1-80 chars of "
            "[A-Za-z0-9._-] (it becomes part of a /dev/shm file name)")
    token = _namespace.set(namespace)
    try:
        yield namespace
    finally:
        _namespace.reset(token)


def _default_segment_name() -> str:
    ns = _namespace.get()
    scope = f"{ns}-" if ns else ""
    return SEGMENT_PREFIX + scope + secrets.token_hex(8)


def sweep_orphaned_segments(namespace: str, *, live: tuple[str, ...] | list[str] = ()) -> list[str]:
    """Unlink leftover segments of a dead service/job generation.

    Removes every ``/dev/shm`` entry named
    ``SEGMENT_PREFIX<namespace>-…`` that does not belong to a namespace
    listed in ``live`` (full namespaces, e.g. ``"svc1a2b-j0003"``).
    Returns the removed segment names.  A SIGKILL'd master cannot run
    its unlink path; the stdlib resource tracker usually catches the
    fall, but the sweep is the deterministic backstop the service runs
    at startup — scoped to *its own* namespace so concurrent services
    (or unrelated runs, which carry no namespace) are never touched.
    """
    removed: list[str] = []
    if not os.path.isdir(SHM_DIR):
        return removed
    base = SEGMENT_PREFIX + namespace + "-"
    keep = tuple(SEGMENT_PREFIX + ns + "-" for ns in live)
    for path in sorted(_glob.glob(os.path.join(SHM_DIR, base + "*"))):
        name = os.path.basename(path)
        if any(name.startswith(prefix) for prefix in keep):
            continue
        try:
            os.unlink(path)
            removed.append(name)
        except FileNotFoundError:
            pass
    return removed


@dataclass(frozen=True)
class ArrayLayout:
    """Immutable offset table: ``name -> (offset, shape, dtype-str)``.

    Built once by the master and shipped to workers (it pickles small),
    so both sides derive identical views of the one segment.
    """

    entries: dict = field(default_factory=dict)
    total_bytes: int = 0

    @classmethod
    def build(cls, specs: dict[str, tuple[tuple[int, ...], object]]) -> "ArrayLayout":
        """Lay out ``{name: (shape, dtype)}`` with 8-byte alignment."""
        entries: dict[str, tuple[int, tuple[int, ...], str]] = {}
        offset = 0
        for name, (shape, dtype) in specs.items():
            dt = np.dtype(dtype)
            nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
            offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
            entries[name] = (offset, tuple(int(s) for s in shape), dt.str)
            offset += nbytes
        # A zero-byte segment is invalid; keep at least one page's worth.
        return cls(entries=entries, total_bytes=max(offset, _ALIGN))

    def names(self) -> tuple[str, ...]:
        return tuple(self.entries)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    Registering must be *suppressed*, not undone: the tracker's cache is
    a set, so N attachers registering the same name and then each
    unregistering it leaves N−1 unbalanced unregisters that surface as
    ``KeyError`` noise in the tracker process at shutdown.
    """
    try:  # Python >= 3.13
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        orig = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig


class _FileSegment:
    """A file mapped ``MAP_SHARED``, with the members of
    ``SharedMemory`` that :class:`SharedArrayPool` uses."""

    def __init__(self, path: str, size: int):
        self.name = path
        fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            if os.fstat(fd).st_size != size:
                os.ftruncate(fd, size)
            self._mmap = mmap.mmap(fd, size)  # holds its own dup of fd
        finally:
            os.close(fd)
        self.buf = memoryview(self._mmap)

    def release_pages(self) -> None:
        self._mmap.madvise(mmap.MADV_DONTNEED)

    def close(self) -> None:
        self.buf.release()
        self._mmap.close()


class SharedArrayPool:
    """A named shared-memory segment plus its array views.

    ``SharedArrayPool.create(layout)`` in the master; workers call
    ``SharedArrayPool.attach(name, layout)``.  Either side reads arrays
    through :meth:`array` (views are cached).  The owner's ``close()``
    also unlinks; an attacher's only unmaps.
    """

    def __init__(self, shm: shared_memory.SharedMemory, layout: ArrayLayout,
                 *, owner: bool):
        self._shm = shm
        self.layout = layout
        self._owner = owner
        # Ownership is per-process: a fork()ed child inherits this object
        # but must never unlink the segment when *its* interpreter exits.
        self._owner_pid = os.getpid() if owner else -1
        self._views: dict[str, np.ndarray] = {}
        self._closed = False

    # -- construction ----------------------------------------------------
    @classmethod
    def create(cls, layout: ArrayLayout, *, name: str | None = None) -> "SharedArrayPool":
        name = name or _default_segment_name()
        shm = shared_memory.SharedMemory(name=name, create=True,
                                         size=layout.total_bytes)
        # A new segment reads zero (``ftruncate`` zero-fills): no
        # segment-sized zero buffer, no page touched before its use.
        return cls(shm, layout, owner=True)

    @classmethod
    def attach(cls, name: str, layout: ArrayLayout) -> "SharedArrayPool":
        return cls(_attach_untracked(name), layout, owner=False)

    @classmethod
    def map_file(cls, path: str, layout: ArrayLayout) -> "SharedArrayPool":
        """``layout`` over the file ``path``, mapped ``MAP_SHARED``:
        every process that maps it sees the same page-cache pages.  The
        file is created (sparse, reading zero) or resized to fit; the
        caller owns it, so closing only unmaps."""
        return cls(_FileSegment(path, layout.total_bytes), layout, owner=False)

    # -- access ----------------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    def array(self, name: str) -> np.ndarray:
        """The live view of array ``name`` (same pages in every process)."""
        view = self._views.get(name)
        if view is None:
            offset, shape, dtype = self.layout.entries[name]
            view = np.ndarray(shape, dtype=np.dtype(dtype),
                              buffer=self._shm.buf, offset=offset)
            self._views[name] = view
        return view

    def arrays(self, prefix: str) -> dict[str, np.ndarray]:
        """All views whose name starts with ``prefix``, keyed by the rest."""
        return {
            name[len(prefix):]: self.array(name)
            for name in self.layout.entries
            if name.startswith(prefix)
        }

    # -- lifecycle -------------------------------------------------------
    def release_pages(self) -> None:
        """Drop this process's resident pages of a :meth:`map_file`
        pool (``MADV_DONTNEED``): the data stays in the file's page
        cache, and the next access faults it back in."""
        self._shm.release_pages()

    def release_views(self) -> None:
        """Drop every NumPy view so the mapping can be closed."""
        self._views.clear()

    def unlink(self) -> None:
        """Remove the segment name (idempotent; owner only).

        The pages stay valid for processes that still map them; the name
        disappears immediately, so a crashed run never strands a
        ``/dev/shm`` entry past this call.
        """
        if not self._owner or os.getpid() != self._owner_pid:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def close(self) -> None:
        """Unmap (and, for the owner, unlink) the segment. Idempotent."""
        if self._closed:
            return
        self._closed = True
        self.release_views()
        if self._owner:
            self.unlink()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external view
            # A still-exported view pins the map; the name is already
            # unlinked above, so the segment cannot leak past process
            # exit either way.
            pass

    def __enter__(self) -> "SharedArrayPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass
