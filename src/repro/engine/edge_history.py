"""One edge-history store for both object engines (Defs. 1–3, Lemmas 1–2).

The nondeterministic engine (NE) and the pure-async engine (PA) simulate
racing threads the same way: updates run one at a time in nondecreasing
virtual time, and every edge access goes through :class:`EdgeHistory`.
Each edge keeps its writes as ``(time, thread, vid, value)`` records in
time order.  A read at ``(t_r, thread_r)`` returns the committed value,
or the *fold* of the writes old enough to be visible to every later
reader (``t_r − t_w ≥ max_delay``), then the max ``(t, vid)`` — Lemma 2's
key — over the unfolded writes :meth:`DelayModel.visible` admits.

Since time never runs backwards, every write a read compares has
``t_w ≤ t_r``, so a race needs no second rule: a read is *stale* when it
misses a write that is neither visible nor its own, and the value an
``atomicity=NONE`` read is torn with is the last cross-thread write that
is not visible.

The engines differ in two constants they pass in:

* ``barrier`` (NE): keep every write, and a ``{vid: [time, thread,
  count]}`` summary of each edge's reads, until :meth:`commit` classifies
  them at the barrier.  Without it (PA) a history longer than
  ``PRUNE_THRESHOLD`` drops its folded prefix: the memory bound of a
  barrier-free run.
* ``sees_own`` (PA): a task sees its own writes.  An NE task does not
  see its own same-iteration write (same thread, same time).
"""

from __future__ import annotations

from .atomicity import AtomicityPolicy, tear
from .conflicts import ConflictLog, classify_access_counts

__all__ = ["EdgeHistory"]

# Write record layout: (time, thread, vid, value).
_T, _TH, _VID, _VAL = 0, 1, 2, 3


def _lemma2(w: tuple) -> tuple:
    return w[_T], w[_VID]


class EdgeHistory:
    """Per-edge write histories read under :meth:`DelayModel.visible`.

    The engine sets ``time`` and ``thread`` to the executing update's
    before each call into the program.  Per edge the store holds
    ``[writes, n_folded, fold_key, fold_value]``: ``writes[:n_folded]``
    are folded into ``fold_value`` (None while nothing is folded).
    """

    __slots__ = (
        "_committed", "_dm", "_max_delay", "_torn", "_torn_p", "_torn_rng",
        "_barrier", "_sees_own", "_edges", "_readers", "read_recorder",
        "stale_reads", "overlapping_writes", "time", "thread",
    )

    #: History length past which a barrier-free store drops its fold.
    PRUNE_THRESHOLD = 16

    def __init__(self, state, delay_model, atomicity: AtomicityPolicy,
                 torn_probability: float, torn_rng, *, barrier: bool,
                 sees_own: bool):
        self._committed = {f: state.edge(f) for f in state.edge_field_names}
        self._dm = delay_model
        self._max_delay = delay_model.max_delay
        self._torn = atomicity is AtomicityPolicy.NONE
        self._torn_p = torn_probability
        self._torn_rng = torn_rng
        self._barrier = barrier
        self._sees_own = sees_own
        self._edges: dict[str, dict[int, list]] = {f: {} for f in self._committed}
        # field -> eid -> {vid: [time, thread, n_reads]} (barrier only).
        self._readers: dict[str, dict[int, dict[int, list]]] = {
            f: {} for f in self._committed}
        #: a recorder that wants Lemma-1 pairs as each stale read happens
        #: (PA; NE replays its read summary at the barrier instead)
        self.read_recorder = None
        self.stale_reads = 0
        self.overlapping_writes = 0
        self.time = 0.0
        self.thread = 0

    def read(self, vid: int, eid: int, field: str) -> float:
        t_r, thread_r = self.time, self.thread
        if self._barrier:
            seen = self._readers[field].setdefault(eid, {})
            entry = seen.get(vid)
            if entry is None:
                seen[vid] = [t_r, thread_r, 1]
            else:
                entry[2] += 1
        edge = self._edges[field].get(eid)
        if edge is None:
            return float(self._committed[field][eid])
        value, missed, racing = self._observe(edge, vid, t_r, thread_r)
        if value is None:
            value = self._committed[field][eid]
        if missed:
            self.stale_reads += 1
            if self.read_recorder is not None:
                for vid_w, thread_w in missed:
                    self.read_recorder.read_event(
                        iteration=0, field=field, eid=eid, reader=vid,
                        reader_thread=thread_r, writer=vid_w,
                        writer_thread=thread_w, count=1, order="concurrent",
                        rule="lemma1-stale", value=float(value))
        if (racing is not None and self._torn
                and self._torn_rng.random() < self._torn_p):
            return tear(float(value), float(racing), self._torn_rng)
        return float(value)

    def write(self, vid: int, eid: int, field: str, value: float) -> None:
        t, thread = self.time, self.thread
        edges = self._edges[field]
        edge = edges.get(eid)
        if edge is None:
            edge = edges[eid] = [[], 0, None, None]
        writes = edge[0]
        if writes:
            t_l, thread_l = writes[-1][_T], writes[-1][_TH]
            if thread_l != thread and not self._dm.visible(t_l, thread_l, t, thread):
                self.overlapping_writes += 1
        writes.append((t, thread, vid, float(value)))
        if not self._barrier and len(writes) > self.PRUNE_THRESHOLD:
            self._observe(edge, vid, t, thread)  # folds up to now
            del writes[: edge[1]]
            edge[1] = 0

    def _observe(self, edge: list, vid: int, t_r: float, thread_r: int):
        """A read of ``edge`` by ``vid`` at ``(t_r, thread_r)``.

        First folds the writes visible to every reader from ``t_r`` on.
        Returns ``(value, missed, racing)``: the max ``(t, vid)`` visible
        write (else the fold; None for the committed value), the ``(vid,
        thread)`` of each write the read missed (None if none), and the
        last cross-thread missed value.
        """
        writes, n, key, value = edge
        while n < len(writes) and t_r - writes[n][_T] >= self._max_delay:
            w = writes[n]
            if key is None or _lemma2(w) > key:
                key, value = _lemma2(w), w[_VAL]
            n += 1
        edge[1], edge[2], edge[3] = n, key, value
        visible, own = self._dm.visible, self._sees_own
        missed = racing = None
        for i in range(n, len(writes)):
            t_w, thread_w, vid_w, val_w = writes[i]
            if (own and vid_w == vid) or visible(t_w, thread_w, t_r, thread_r):
                if key is None or (t_w, vid_w) > key:
                    key, value = (t_w, vid_w), val_w
            elif vid_w != vid:
                if missed is None:
                    missed = []
                missed.append((vid_w, thread_w))
                if thread_w != thread_r:
                    racing = val_w
        return value, missed, racing

    # ------------------------------------------------------------------
    def commit(self, iteration: int, log: ConflictLog, recorder=None) -> None:
        """Lemma 2 per written edge: its max ``(t, vid)`` write commits.

        At an NE barrier a racing loser may be torn into the winner
        (``atomicity=NONE``) and each edge's accesses are classified by
        :func:`classify_access_counts`; at the end of a PA run a dropped
        history commits its fold, and an edge counts as contended when
        its retained history has two writers.  With a ``recorder``,
        fields and edges go in sorted order and each edge's provenance is
        emitted before its commit applies — the canonical stream the
        array engines reproduce bulk-wise.
        """
        log.stale_reads += self.stale_reads
        ordered = sorted if recorder is not None else iter
        for field in ordered(self._edges):
            edges, arr = self._edges[field], self._committed[field]
            readers = self._readers[field]
            for eid in ordered(edges):
                writes, _, _, folded = edges[eid]
                if not writes:
                    arr[eid] = folded
                    continue
                winner = max(writes, key=_lemma2)
                final = winner[_VAL]
                if self._barrier and self._torn and len(writes) > 1:
                    racing = [w for w in writes if w[_VID] != winner[_VID]
                              and not self._dm.visible(w[_T], w[_TH],
                                                       winner[_T], winner[_TH])]
                    if racing and self._torn_rng.random() < self._torn_p:
                        loser = max(racing, key=_lemma2)
                        final = tear(loser[_VAL], final, self._torn_rng)
                if recorder is not None:
                    self._provenance(recorder, iteration, field, eid, writes,
                                     winner, float(final), float(arr[eid]),
                                     readers.get(eid))
                arr[eid] = final
                if self._barrier:
                    classify_access_counts(
                        log, iteration, eid, field,
                        [(w[_VID], w[_TH]) for w in writes],
                        readers.get(eid, {}), winner[_VID])
                elif len({w[_VID] for w in writes}) > 1:
                    log.contended_edges += 1

    def _provenance(self, recorder, iteration, field, eid, writes, winner,
                    final, pre, readers) -> None:
        """Lemma-1 read pairs (from the read summary) and the Lemma-2
        commit of one edge.  Each reader's reads share its task's
        timestamp, so one (reader, writer) pair classifies uniformly and
        aggregates to a single ``count`` event."""
        visible = self._dm.visible
        eff = {w[_VID]: w for w in writes}  # each writer's last write
        if readers and recorder.wants_reads:
            for vid_r in sorted(readers):
                t_r, thread_r, count = readers[vid_r]
                observed = self._observe([writes, 0, None, pre], vid_r, t_r,
                                         thread_r)[0]
                for vid_w in sorted(eff):
                    if vid_w == vid_r:
                        continue
                    w = eff[vid_w]
                    if visible(w[_T], w[_TH], t_r, thread_r):
                        order, rule = "before", "lemma1-fresh"
                    elif w[_T] <= t_r:
                        order, rule = "concurrent", "lemma1-stale"
                    else:
                        order, rule = "after", "lemma1-old"
                    recorder.read_event(
                        iteration=iteration, field=field, eid=eid,
                        reader=vid_r, reader_thread=thread_r, writer=vid_w,
                        writer_thread=w[_TH], count=count, order=order,
                        rule=rule, value=float(observed))
        lost = []
        for vid_w in sorted(eff):
            if vid_w == winner[_VID]:
                continue
            w = eff[vid_w]
            if visible(w[_T], w[_TH], winner[_T], winner[_TH]):
                order = "before"
            elif visible(winner[_T], winner[_TH], w[_T], w[_TH]):
                order = "after"
            else:
                order = "concurrent"
            lost.append({"vid": vid_w, "thread": w[_TH],
                         "value": float(w[_VAL]), "order": order})
        recorder.commit_event(
            iteration=iteration, field=field, eid=eid, writer=winner[_VID],
            writer_thread=winner[_TH], value=final, lost=lost,
            rule="lemma2" if len(eff) > 1 else "uncontended")
