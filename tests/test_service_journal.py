"""WAL job journal: durability contract, torn tails, compaction.

The journal is the reason no job outcome is lost to a service crash;
these tests pin its three promises — append = durable (fsync of data
AND, via compaction, the parent directory), torn final lines are facts
not errors, and snapshot compaction replays to the same state even when
a crash lands between snapshot rename and journal truncation.
"""

from __future__ import annotations

import json
import os
import stat

import pytest

from repro.service import Job, JobJournal, JobSpec, JournalError
from repro.service.jobs import JobState, job_table_state, reduce_records


def _spec(n: int = 1) -> dict:
    return JobSpec(job_id=f"j{n:04d}-00aa", algorithm="WCC",
                   graph="web").to_dict()


# ----------------------------------------------------------------------
# append / replay round trip
# ----------------------------------------------------------------------
def test_append_replay_round_trip(tmp_path):
    with JobJournal(tmp_path / "j") as journal:
        journal.append("submit", job="j0001-00aa", spec=_spec())
        journal.append("start", job="j0001-00aa", attempt=1, resumed=False)
        journal.append("barrier", job="j0001-00aa", iteration=0,
                       checkpoint_iteration=1)
    journal = JobJournal(tmp_path / "j")
    snap, tail = journal.replay()
    assert snap is None
    assert [r["type"] for r in tail] == ["submit", "start", "barrier"]
    assert [r["seq"] for r in tail] == [1, 2, 3]
    # seq high-water mark survives reopen: new appends keep ascending
    rec = journal.append("finish", job="j0001-00aa", status="done")
    assert rec["seq"] == 4


def test_append_is_fsynced(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd),
                                                 real_fsync(fd))[1])
    journal = JobJournal(tmp_path / "j")
    journal.append("submit", job="j0001-00aa", spec=_spec())
    assert synced, "append returned without fsync"
    journal.close()
    journal_no_sync = JobJournal(tmp_path / "j2", fsync=False)
    synced.clear()
    journal_no_sync.append("submit", job="j0001-00aa", spec=_spec())
    assert synced == []
    journal_no_sync.close()


def test_torn_tail_is_dropped_and_flagged(tmp_path):
    journal = JobJournal(tmp_path / "j")
    journal.append("submit", job="j0001-00aa", spec=_spec())
    journal.append("start", job="j0001-00aa", attempt=1)
    journal.close()
    # SIGKILL mid-append: the final line is half a record
    with open(journal.journal_path, "a", encoding="utf-8") as fh:
        fh.write('{"seq":3,"type":"barr')
    reopened = JobJournal(tmp_path / "j")
    snap, tail = reopened.replay()
    assert reopened.torn_tail
    assert [r["type"] for r in tail] == ["submit", "start"]
    # the torn record's seq was never durable, so seq 3 is reusable
    assert reopened.append("finish", job="j0001-00aa",
                           status="failed")["seq"] == 3


def test_mid_file_corruption_is_an_error(tmp_path):
    journal = JobJournal(tmp_path / "j")
    journal.append("submit", job="j0001-00aa", spec=_spec())
    journal.close()
    with open(journal.journal_path, "a", encoding="utf-8") as fh:
        fh.write("not json at all\n")
        fh.write(json.dumps({"seq": 3, "type": "finish"}) + "\n")
    with pytest.raises(JournalError):
        JobJournal(tmp_path / "j").replay()


# ----------------------------------------------------------------------
# compaction
# ----------------------------------------------------------------------
def _build_table(records):
    jobs: dict[str, Job] = {}
    reduce_records(jobs, records)
    return jobs


def test_compact_then_replay_equals_pure_replay(tmp_path):
    journal = JobJournal(tmp_path / "j")
    journal.append("submit", job="j0001-00aa", spec=_spec(1))
    journal.append("start", job="j0001-00aa", attempt=1)
    journal.append("finish", job="j0001-00aa", status="done",
                   result={"iterations": 3})
    journal.append("submit", job="j0002-00aa", spec=_spec(2))
    _, tail = journal.replay()
    jobs = _build_table(tail)
    journal.compact(job_table_state(jobs))
    # post-compaction appends land in the (now empty) tail
    journal.append("start", job="j0002-00aa", attempt=1)
    journal.close()

    reopened = JobJournal(tmp_path / "j")
    snap, tail = reopened.replay()
    assert snap is not None and snap["seq"] == 4
    assert [r["type"] for r in tail] == ["start"]
    rebuilt = {jid: Job.from_state_dict(d)
               for jid, d in snap["state"].items()}
    reduce_records(rebuilt, tail)
    assert rebuilt["j0001-00aa"].state == JobState.DONE
    assert rebuilt["j0001-00aa"].result == {"iterations": 3}
    assert rebuilt["j0002-00aa"].state == JobState.RUNNING


def test_crash_between_snapshot_and_truncate_replays_once(tmp_path):
    """Snapshot durable + stale tail: seq filtering deduplicates."""
    journal = JobJournal(tmp_path / "j")
    journal.append("submit", job="j0001-00aa", spec=_spec())
    journal.append("start", job="j0001-00aa", attempt=1)
    _, tail = journal.replay()
    stale_tail = open(journal.journal_path, encoding="utf-8").read()
    journal.compact(job_table_state(_build_table(tail)))
    # simulate the crash: restore the pre-truncation journal alongside
    # the new snapshot
    with open(journal.journal_path, "w", encoding="utf-8") as fh:
        fh.write(stale_tail)
    journal.close()

    reopened = JobJournal(tmp_path / "j")
    snap, tail = reopened.replay()
    assert snap["seq"] == 2
    assert tail == []  # every stale record filtered by seq
    assert reopened.append("finish", job="j0001-00aa",
                           status="done")["seq"] == 3


def test_compact_is_atomic_and_directory_fsynced(tmp_path, monkeypatch):
    """The snapshot rename must be durable-ordered: file fsync, rename,
    then an fsync of the *parent directory* (without it, power loss can
    roll back the rename the truncated journal relies on)."""
    fsynced_dirs = []
    real_fsync = os.fsync

    def spy(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            fsynced_dirs.append(fd)
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    journal = JobJournal(tmp_path / "j")
    journal.append("submit", job="j0001-00aa", spec=_spec())
    journal.compact({})
    assert fsynced_dirs, "compact() never fsynced the journal directory"
    assert not [n for n in os.listdir(journal.directory) if ".tmp." in n]
    journal.close()


def test_sweep_tmp_files(tmp_path):
    journal = JobJournal(tmp_path / "j")
    litter = os.path.join(journal.directory, "snapshot.json.tmp.12345")
    open(litter, "w").close()
    assert journal.sweep_tmp_files() == ["snapshot.json.tmp.12345"]
    assert not os.path.exists(litter)
    journal.close()


def test_snapshot_version_guard(tmp_path):
    journal = JobJournal(tmp_path / "j")
    journal.compact({})
    journal.close()
    with open(journal.snapshot_path, "w", encoding="utf-8") as fh:
        json.dump({"version": 99, "seq": 1, "state": {}}, fh)
    with pytest.raises(JournalError):
        JobJournal(tmp_path / "j").replay()


# ----------------------------------------------------------------------
# a journal written before RunSpec replays unchanged
# ----------------------------------------------------------------------
#: ``submit`` records written by the service at commit 86ff0cf, before
#: job specs became RunSpec's wire subset: one per mode the service
#: admits, then one the capability table refuses (appended directly).
PARENT_JOURNAL = os.path.join(os.path.dirname(__file__), "fixtures",
                              "parent_journal.jsonl")


def test_parent_journal_replays_to_the_same_spec_bytes(tmp_path):
    import shutil

    from repro.engine.capabilities import ROWS, Refused, check
    from repro.service.jobs import resolve_algorithm

    shutil.copy(PARENT_JOURNAL, tmp_path / "journal.jsonl")
    _, tail = JobJournal(tmp_path, fsync=False).replay()
    jobs = reduce_records({}, tail)
    with open(PARENT_JOURNAL, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(jobs) == len(lines) == 7
    for line, job in zip(lines, jobs.values()):
        spec = json.dumps(job.spec.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        assert f'"spec":{spec},' in line
    *admitted, refused = jobs.values()
    assert sorted({j.spec.mode for j in admitted}) == sorted(
        m for m, row in ROWS.items() if row.service is None)
    for job in admitted:
        check(resolve_algorithm(job.spec.algorithm)(), None,
              job.spec.run_spec(), service=True)
    with pytest.raises(Refused) as exc:
        check(resolve_algorithm(refused.spec.algorithm)(), None,
              refused.spec.run_spec(), service=True)
    assert exc.value.reason == ROWS["sync"].backend.reason
