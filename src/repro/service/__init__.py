"""Supervised simulation service: a crash-tolerant experiment daemon.

``python -m repro serve`` runs a persistent daemon (asyncio over a unix
socket, newline-delimited JSON) that accepts simulation jobs from any
number of clients, dedups them against the in-flight table, the job
journal, and the content-hash disk cache, and fans them out to a
supervised worker pool.  The degradation ladder, from cheapest to most
drastic:

1. **dedup** — an identical job (same content digest) is answered from
   the journal/cache or attached to the in-flight copy;
2. **retry** — a worker that crashes or wedges mid-cell is killed and
   the cell re-queued;
3. **respawn** — the watchdog replaces dead/wedged workers so pool
   capacity recovers;
4. **circuit-break** — a cell that keeps killing workers trips its
   breaker after ``max_strikes`` and stops poisoning the pool;
5. **quarantine** — the broken cell is recorded in the journal and the
   rest of the grid completes with partial results.

A write-ahead journal (:mod:`repro.service.journal`) makes the daemon
itself crash-tolerant: every submitted job is journaled before it runs,
every finished cell's result is stored atomically in the content-keyed
disk cache (the daemon's only result store), and a restarted daemon
replays the journal — completed cells answer instantly, pending ones
re-enter the queue.
"""

from .journal import JobJournal
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    job_digest,
    read_message,
    task_from_wire,
    task_to_wire,
    write_message,
)
from .supervisor import Supervisor, WorkerInfo

__all__ = [
    "JobJournal",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Supervisor",
    "WorkerInfo",
    "job_digest",
    "read_message",
    "task_from_wire",
    "task_to_wire",
    "write_message",
]
