"""The experiment daemon: asyncio over a unix socket, NDJSON framing.

``python -m repro serve`` keeps one journal, one disk cache, and one
supervised worker pool alive across the client grids of one host, so
concurrent clients simulate each shared cell once.  The journal is the
one durable job state: strike counts and quarantine verdicts outlive a
process only here.  The daemon itself holds no state a crash can lose:
job identity and completion live in the write-ahead journal
(:mod:`repro.service.journal`), results live in atomic blobs, and a
restarted daemon replays all of it before accepting connections.

Request handling is deliberately thin: the event loop only parses
frames, journals submissions, and parks waiters on events; everything
heavy (simulation, supervision, watchdog kills) happens in the worker
pool and its supervisor thread, which reports back via
``loop.call_soon_threadsafe``.

Every submission is admitted.  The daemon serves a few concurrent
clients on one host that share one cache; a submit that arrives while it
is shutting down is rejected with ``{"ok": false, "error": ...}``, and
the client runs those cells on its local pool.

Shutdown (SIGTERM/SIGINT or the ``shutdown`` op) is graceful: the
listener closes, in-flight cells drain to the journal (for at most
``job_timeout + 5`` seconds), workers exit, and queued-but-unstarted
jobs stay journaled as pending for the next daemon generation.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import sys
from pathlib import Path

from .. import __version__
from ..harness.diskcache import default_cache_dir
from ..harness.parallel import GridReport
from .journal import JobJournal
from .protocol import (
    MAX_LINE,
    PROTOCOL_VERSION,
    ProtocolError,
    decode,
    encode,
    job_digest,
    task_from_wire,
    task_to_wire,
)
from .supervisor import Supervisor

#: Daemon-side job states surfaced on the wire (the supervisor's
#: queued/running collapse to "inflight" until a callback settles them).
INFLIGHT, DONE, FAILED, QUARANTINED = \
    "inflight", "done", "failed", "quarantined"


def default_state_dir(cache_dir=None) -> Path:
    """Journal location: ``$REPRO_SERVICE_STATE`` or a ``service``
    directory next to the disk cache (``cache_dir`` if given, else the
    default one)."""
    env = os.environ.get("REPRO_SERVICE_STATE")
    if env:
        return Path(env).expanduser()
    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return base / "service"


class _DaemonJob:
    __slots__ = ("wire_task", "state", "error", "error_kind", "hang",
                 "event")

    def __init__(self, wire_task: dict, state: str = INFLIGHT):
        self.wire_task = wire_task
        self.state = state
        self.error: str | None = None
        self.error_kind: str | None = None
        self.hang: dict | None = None
        self.event = asyncio.Event()
        if state != INFLIGHT:
            self.event.set()


class ExperimentDaemon:
    def __init__(self, socket_path, state_dir=None, cache_dir=None,
                 use_cache: bool = True, workers: int = 2,
                 job_timeout: float = 120.0, max_strikes: int = 2,
                 log=None):
        self.socket_path = Path(socket_path)
        self.state_dir = Path(state_dir) if state_dir is not None \
            else default_state_dir(cache_dir)
        self.cache_dir = None
        if use_cache:
            self.cache_dir = Path(cache_dir) if cache_dir is not None \
                else default_cache_dir()
        self.workers = workers
        self.job_timeout = job_timeout
        self.max_strikes = max_strikes
        self._log = log if log is not None \
            else (lambda msg: print(f"repro-serve: {msg}",
                                    file=sys.stderr, flush=True))

        self.jobs: dict[str, _DaemonJob] = {}
        self.report = GridReport()
        self.journal: JobJournal | None = None
        self.supervisor: Supervisor | None = None
        self.server: asyncio.AbstractServer | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._stopping = asyncio.Event()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self.loop = asyncio.get_running_loop()
        self.journal = JobJournal(self.state_dir)
        self.supervisor = Supervisor(
            workers=self.workers,
            cache_dir=self.cache_dir,
            job_timeout=self.job_timeout,
            max_strikes=self.max_strikes,
            on_done=self._sup_done,
            on_failed=self._sup_failed,
            on_strike=self._sup_strike,
            on_retry=self._sup_retry,
            on_quarantined=self._sup_quarantined,
        )
        self._replay()
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            # A stale socket from a SIGKILL'd predecessor; the journal,
            # not the socket, is the real state.
            self.socket_path.unlink()
        self.server = await asyncio.start_unix_server(
            self._handle_client, path=str(self.socket_path),
            limit=MAX_LINE + 2)
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                self.loop.add_signal_handler(
                    sig, lambda s=sig: asyncio.ensure_future(
                        self.shutdown(f"signal {s}")))
        self._log(f"listening on {self.socket_path} "
                  f"(workers={self.workers}, journal={self.state_dir}, "
                  f"cache={self.cache_dir or 'off'})")

    def _replay(self) -> None:
        """Idempotent journal replay: done cells answer instantly,
        quarantined cells stay quarantined, pending cells re-enter the
        queue with their strike counts intact, cells whose wire task no
        longer decodes are quarantined, and cells journaled by another
        package version (their digest no longer matches) are skipped."""
        replayed = self.journal.replay()
        resumed = requeued = 0
        for digest, entry in replayed.items():
            wire_task = entry["task"]
            if wire_task is None:
                continue              # strike/quarantine without a submit
            try:
                task, scale = task_from_wire(wire_task)
            except ProtocolError as exc:
                # A job this build can no longer decode (e.g. its config
                # names a since-removed field) must not abort start().
                self._quarantine_undecodable(digest, wire_task, entry, exc)
                continue
            if job_digest(task, scale) != digest:
                continue              # no current client can name it
            if entry["status"] == "done":
                self.jobs[digest] = _DaemonJob(wire_task, DONE)
                self.report.resumed += 1
                resumed += 1
            elif entry["status"] == "quarantined":
                job = _DaemonJob(wire_task, QUARANTINED)
                job.error = entry["error"] or "quarantined"
                self.jobs[digest] = job
                self.report.record(QUARANTINED, job.error, task)
            else:
                self.jobs[digest] = _DaemonJob(wire_task, INFLIGHT)
                self.supervisor.submit(digest, task, scale,
                                       strikes=entry["strikes"])
                requeued += 1
        self.report.total = len(self.jobs)
        if resumed or requeued:
            self._log(f"journal replay: {resumed} done, "
                      f"{requeued} requeued")

    def _quarantine_undecodable(self, digest: str, wire_task: dict,
                                entry: dict, exc: ProtocolError) -> None:
        """Quarantine a replayed job whose wire task no longer decodes,
        journaling the verdict once.  It stays out of ``self.report``,
        whose tasks must hold a decodable :class:`GPUConfig`."""
        job = _DaemonJob(wire_task, QUARANTINED)
        if entry["status"] == "quarantined":
            job.error = entry["error"] or str(exc)
        else:
            job.error = str(exc)
            self.journal.record_quarantine(digest, job.error)
        self.jobs[digest] = job
        self._log(f"journal replay: quarantined {digest[:12]}: {job.error}")

    async def serve(self) -> None:
        await self.start()
        try:
            await self._stopping.wait()
        finally:
            await self._cleanup()

    async def shutdown(self, reason: str = "requested") -> None:
        if self._stopping.is_set():
            return
        self._log(f"shutting down ({reason}): draining in-flight cells")
        self._stopping.set()

    async def _cleanup(self) -> None:
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
        if self.supervisor is not None:
            # Blocking drain off the loop: in-flight cells finish and
            # journal through the normal callbacks.
            await self.loop.run_in_executor(None, self.supervisor.close)
        if self.journal is not None:
            self.journal.close()
        with contextlib.suppress(FileNotFoundError):
            self.socket_path.unlink()
        self._log("stopped")

    # -- supervisor callbacks (supervisor thread) ---------------------------

    def _sup_done(self, digest, task, scale, result) -> None:
        self.journal.record_done(digest, result)
        self.loop.call_soon_threadsafe(self._settle, digest, DONE, None)

    def _sup_failed(self, digest, kind, message, hang) -> None:
        self.loop.call_soon_threadsafe(
            self._settle, digest, FAILED, (kind, message, hang))

    def _sup_strike(self, digest, reason) -> None:
        self.journal.record_strike(digest, reason)
        self.loop.call_soon_threadsafe(self.report.record, "strike", reason)

    def _sup_retry(self, digest) -> None:
        self.loop.call_soon_threadsafe(self.report.record, "retry")

    def _sup_quarantined(self, digest, task, scale, error) -> None:
        self.journal.record_quarantine(digest, error)
        self.loop.call_soon_threadsafe(
            self._settle, digest, QUARANTINED, error)

    # -- loop-side settlement ----------------------------------------------

    def _settle(self, digest: str, state: str, detail) -> None:
        job = self.jobs.get(digest)
        if job is None or job.state != INFLIGHT:
            return
        job.state = state
        if state == DONE:
            self.report.record(DONE)
        elif state == FAILED:
            job.error_kind, job.error, job.hang = detail
        elif state == QUARANTINED:
            job.error = detail
            task, _scale = task_from_wire(job.wire_task)
            self.report.record(QUARANTINED, detail, task)
        job.event.set()

    # -- request handling ---------------------------------------------------

    async def _handle_client(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(encode({"ok": False,
                                         "error": "frame too large"}))
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    request = decode(line)
                    response = await self._dispatch(request)
                except ProtocolError as exc:
                    response = {"ok": False, "error": str(exc)}
                writer.write(encode(response))
                await writer.drain()
                if response.get("op") == "goodbye":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "op": "pong",
                    "version": PROTOCOL_VERSION, "repro": __version__,
                    "pid": os.getpid()}
        if op == "submit":
            return self._op_submit(request)
        if op == "wait":
            return await self._op_wait(request)
        if op == "status":
            return self._op_status()
        if op == "shutdown":
            asyncio.ensure_future(self.shutdown("client request"))
            return {"ok": True, "op": "goodbye"}
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _op_submit(self, request: dict) -> dict:
        wire_jobs = request.get("jobs")
        if not isinstance(wire_jobs, list):
            raise ProtocolError("submit needs a 'jobs' list")
        if self._stopping.is_set():
            return {"ok": False, "error": "daemon is shutting down"}
        replies = []
        for wire_task in wire_jobs:
            task, scale = task_from_wire(wire_task)
            digest = job_digest(task, scale)
            job = self.jobs.get(digest)
            if job is not None:
                # Dedup: same content digest — whether done (journal),
                # in flight (attach to the running copy), or settled.
                replies.append({"digest": digest,
                                "state": self._wire_state(digest, job)})
                continue
            self.journal.record_submit(digest, task_to_wire(task, scale))
            self.jobs[digest] = _DaemonJob(task_to_wire(task, scale))
            self.supervisor.submit(digest, task, scale)
            self.report.total += 1
            replies.append({"digest": digest, "state": "queued"})
        return {"ok": True, "jobs": replies}

    def _wire_state(self, digest: str, job: _DaemonJob) -> str:
        if job.state == INFLIGHT:
            return self.supervisor.state(digest) or "queued"
        return job.state

    async def _op_wait(self, request: dict) -> dict:
        digest = request.get("digest")
        job = self.jobs.get(digest)
        if job is None:
            return {"ok": False, "error": f"unknown job {digest!r}"}
        timeout = float(request.get("timeout", 30.0))
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(job.event.wait(), timeout)
        state = self._wire_state(digest, job)
        response = {"ok": True, "digest": digest, "state": state}
        if job.state == DONE:
            response["result_path"] = str(self.journal.result_path(digest))
        elif job.state == FAILED:
            response.update({"kind": job.error_kind,
                             "message": job.error, "hang": job.hang})
        elif job.state == QUARANTINED:
            response["error"] = job.error
        return response

    def _op_status(self) -> dict:
        return {
            "ok": True,
            "pid": os.getpid(),
            "counts": self.supervisor.counts(),
            "workers": [w.to_dict() for w in
                        self.supervisor.workers_info()],
            "report": self.report.to_dict(),
            "jobs_total": len(self.jobs),
        }


def run_daemon(socket_path, state_dir=None, cache_dir=None,
               use_cache: bool = True, workers: int = 2,
               job_timeout: float = 120.0, max_strikes: int = 2) -> int:
    """Blocking entry point for ``python -m repro serve``."""
    daemon = ExperimentDaemon(
        socket_path, state_dir=state_dir, cache_dir=cache_dir,
        use_cache=use_cache, workers=workers, job_timeout=job_timeout,
        max_strikes=max_strikes)
    try:
        asyncio.run(daemon.serve())
    except KeyboardInterrupt:
        pass
    return 0
