"""Write-ahead job journal with idempotent replay.

The daemon's crash story in one sentence: *the journal directory is the
daemon's state, the process is disposable.*  Every job transition is
appended to ``journal.jsonl`` (one JSON record per line, flushed and
fsync'd), and every finished cell's :class:`RunResult` is committed as
an atomic ``<digest>.pkl.z`` blob of a
:class:`~repro.harness.diskcache.DiskCache` rooted at the same directory
**before** the ``done`` record lands.  Replay is therefore idempotent at
every crash point:

* crash before the blob write → the job replays as pending and re-runs;
* crash between blob and ``done`` record → the blob *is* the commit
  record (``done`` requires a loadable blob, the WAL line is advisory),
  so the job replays as done;
* torn final line (crash mid-append) → that line fails to parse and is
  ignored; every record before it is intact;
* torn or truncated blob → the cache moves it aside as
  ``<digest>.pkl.z.corrupt`` and the job replays as pending.

The same directory is what ``run_grid(checkpoint=...)`` reads and
writes, so ``repro serve --state DIR`` and ``--checkpoint DIR`` share
one resume format.  Jobs are keyed by
:func:`~repro.harness.diskcache.job_digest`, which is salted with the
package version: entries written by another timing model sit under
digests no current job has, so ``run_grid`` never matches them and the
daemon's replay skips them.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from ..harness.diskcache import DiskCache
from ..sim.gpu import RunResult

JOURNAL_NAME = "journal.jsonl"
RECORD_VERSION = 1


class JobJournal:
    """Append-only WAL plus atomic result blobs under one directory."""

    def __init__(self, root: str | os.PathLike):
        # The journal's own store: never runner.disk_cache(), whose hit
        # counts belong to the simulation cache.
        self.blobs = DiskCache(root)
        self.root = self.blobs.root
        self.path = self.root / JOURNAL_NAME
        self._handle = open(self.path, "a", encoding="utf-8")
        # Submissions append from the daemon's event loop, completions
        # from the supervisor thread — serialize the file handle.
        self._lock = threading.Lock()

    # -- appending ----------------------------------------------------------

    def _append(self, record: dict) -> None:
        record = {"v": RECORD_VERSION, **record}
        with self._lock:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def record_submit(self, digest: str, wire_task: dict) -> None:
        """Journal a job *before* it is queued (write-ahead)."""
        self._append({"op": "submit", "digest": digest, "task": wire_task})

    def record_done(self, digest: str, result: RunResult) -> None:
        """Commit a finished cell: blob first (atomic rename — the real
        commit point), then the advisory WAL record."""
        self.blobs.store(digest, result)
        self._append({"op": "done", "digest": digest})

    def record_strike(self, digest: str, reason: str) -> None:
        self._append({"op": "strike", "digest": digest, "reason": reason})

    def record_quarantine(self, digest: str, error: str) -> None:
        self._append({"op": "quarantine", "digest": digest, "error": error})

    def record_unquarantine(self, digest: str) -> None:
        self._append({"op": "unquarantine", "digest": digest})

    # -- reading ------------------------------------------------------------

    def load_result(self, digest: str) -> RunResult | None:
        return self.blobs.load(digest)

    def result_path(self, digest: str) -> Path:
        return self.blobs._path(digest)

    def fold(self) -> dict[str, dict]:
        """Fold the WAL alone into per-job state, opening no blob::

            digest -> {"task": wire_task, "status": pending|done|quarantined,
                       "strikes": int, "error": str | None}

        A ``done`` here is only the advisory record; callers that act on
        it load the blob and treat a failed load as pending.
        """
        jobs: dict[str, dict] = {}
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            lines = []
        for line in lines:
            try:
                record = json.loads(line)
                op = record["op"]
                digest = record["digest"]
            except (json.JSONDecodeError, KeyError, TypeError):
                continue               # torn tail or foreign garbage
            job = jobs.setdefault(digest, {"task": None,
                                           "status": "pending",
                                           "strikes": 0, "error": None})
            if op == "submit":
                job["task"] = record.get("task")
            elif op == "done":
                job["status"] = "done"
            elif op == "strike":
                job["strikes"] += 1
            elif op == "quarantine":
                job["status"] = "quarantined"
                job["error"] = record.get("error")
            elif op == "unquarantine":
                if job["status"] == "quarantined":
                    job["status"] = "pending"
                    job["error"] = None
                    job["strikes"] = 0
        return jobs

    def replay(self) -> dict[str, dict]:
        """:meth:`fold`, with ``done`` only believed when the result blob
        actually loads — a record whose blob is missing or corrupt
        degrades to pending."""
        jobs = self.fold()
        for digest, job in jobs.items():
            if job["status"] == "done" \
                    and self.load_result(digest) is None:
                job["status"] = "pending"
        return jobs

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
