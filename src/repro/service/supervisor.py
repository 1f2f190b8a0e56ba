"""Supervised worker pool: heartbeats, a liveness watchdog, respawn,
and per-workload circuit breakers.

This is the only worker pool in the repository: the ``repro serve``
daemon keeps one alive across client grids, and
:func:`repro.harness.parallel.run_grid` drives one in-process for a
local ``--jobs N`` grid.  Both fold its events into a
:class:`~repro.harness.parallel.GridReport` through
:meth:`~repro.harness.parallel.GridReport.record`.

* Workers are plain ``multiprocessing`` processes talking over duplex
  pipes — no shared queues, no feeder threads, so a SIGKILL'd worker
  can never poison another worker's channel, and
  ``multiprocessing.connection.wait`` doubles as the death detector
  (a dead peer's pipe polls ready and then EOFs).  A finished cell
  crosses the pipe as one :func:`~repro.harness.diskcache.encode_result`
  blob, the same codec as the disk cache.
* Every worker runs a heartbeat thread stamping a shared ``Value``; the
  watchdog kills workers whose heartbeat goes stale (a frozen or
  SIGSTOP'd process) *and* workers that sit on one cell past
  ``job_timeout`` (a wedged simulation; ``None`` means unbounded).
* A killed worker is respawned immediately: pool capacity is invariant.
* Each kill or crash while holding a job is a **strike** against that
  job's content digest.  At ``max_strikes`` the circuit breaker trips
  and the job is quarantined instead of being retried forever — the
  rest of the grid keeps flowing through the respawned workers.

The supervisor is synchronous and thread-driven so it can be used (and
chaos-tested) without the asyncio daemon on top: the daemon bridges the
callbacks onto its event loop, ``run_grid`` onto a queue its caller's
thread drains.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..harness.diskcache import decode_result, encode_result
from ..sim.gpu import SimulationHang

#: Job states a supervisor reports.
QUEUED, RUNNING, DONE, FAILED, QUARANTINED = \
    "queued", "running", "done", "failed", "quarantined"

#: Strike reason prefix of a cell that outlived ``job_timeout``.
TIMED_OUT = "exceeded job_timeout"

#: "spawn" on purpose: the supervisor thread (and, in the daemon, an
#: event loop) is already running when a worker is respawned, and a
#: forked child inheriting their lock states mid-flight is exactly the
#: kind of heisenbug this subsystem exists to kill.
START_METHOD = "spawn"
#: Seconds between worker heartbeat stamps.
HEARTBEAT_INTERVAL = 0.25
#: Seconds without a heartbeat stamp before the watchdog kills a worker.
HEARTBEAT_TIMEOUT = 15.0
#: Seconds the dispatch loop waits for worker messages per round.
POLL_INTERVAL = 0.1


def _worker_main(conn, heartbeat, cache_dir) -> None:
    """Worker body (top-level for spawn picklability): receive
    ``(digest, abbr, technique, scale, config)`` tasks, run them through
    the ordinary serial pipeline, ship back result blobs
    (:func:`~repro.harness.diskcache.encode_result`).

    A heartbeat thread stamps ``heartbeat`` every
    :data:`HEARTBEAT_INTERVAL` seconds — proof the *process* is alive;
    per-job progress is judged by the parent's ``job_timeout``, not by us.
    """
    from . import chaos
    from ..harness import runner
    chaos.install_from_env()
    if cache_dir is not None:
        runner.configure_cache(cache_dir)
    else:
        runner.configure_cache(enabled=False)

    stop = threading.Event()

    def beat() -> None:
        while not stop.is_set():
            heartbeat.value = time.time()
            stop.wait(HEARTBEAT_INTERVAL)

    threading.Thread(target=beat, daemon=True).start()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:
                break
            digest, abbr, technique, scale, config = message
            try:
                result = runner.run_one(abbr, technique, scale, config,
                                        use_cache=cache_dir is not None)
                reply = ("done", digest, encode_result(result))
            except SimulationHang as hang:
                reply = ("error", digest, "SimulationHang", str(hang),
                         hang.to_dict())
            except Exception as exc:
                reply = ("error", digest, type(exc).__name__,
                         repr(exc), None)
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                # Orphaned (the supervisor died under us).  The result
                # already hit the shared disk cache, so nothing is lost:
                # the next daemon generation dedups straight into it.
                break
    finally:
        stop.set()
        conn.close()


@dataclass
class WorkerInfo:
    """Introspection snapshot of one worker slot (the chaos campaign
    reads ``pid`` out of ``status`` responses to aim its SIGKILLs)."""

    wid: int
    pid: int | None
    alive: bool
    busy: str | None          # digest of the running job, if any
    heartbeat_age: float
    respawns: int

    def to_dict(self) -> dict:
        return {"wid": self.wid, "pid": self.pid, "alive": self.alive,
                "busy": self.busy,
                "heartbeat_age": round(self.heartbeat_age, 3),
                "respawns": self.respawns}


class _Worker:
    def __init__(self, wid: int, ctx, cache_dir):
        self.wid = wid
        self.respawns = 0
        self._ctx = ctx
        self._cache_dir = cache_dir
        self.conn = None
        self.proc = None
        self.heartbeat = None
        self.job: str | None = None
        self.busy_since: float | None = None
        self.spawn()

    def spawn(self) -> None:
        parent, child = self._ctx.Pipe(duplex=True)
        self.heartbeat = self._ctx.Value("d", time.time())
        self.proc = self._ctx.Process(
            target=_worker_main,
            args=(child, self.heartbeat, self._cache_dir),
            daemon=True, name=f"repro-worker-{self.wid}")
        self.proc.start()
        child.close()
        self.conn = parent
        self.job = None
        self.busy_since = None

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=5.0)

    def respawn(self) -> None:
        self.kill()
        self.respawns += 1
        self.spawn()

    def heartbeat_age(self, now: float) -> float:
        return now - self.heartbeat.value

    def info(self, now: float) -> WorkerInfo:
        return WorkerInfo(self.wid, self.proc.pid, self.proc.is_alive(),
                          self.job, self.heartbeat_age(now),
                          self.respawns)


@dataclass
class _Job:
    task: tuple               # (abbr, technique, GPUConfig)
    scale: str
    state: str = QUEUED
    strikes: int = 0
    error: str | None = None
    error_kind: str | None = None
    hang: dict | None = field(default=None, repr=False)


class Supervisor:
    """A fixed-size pool of supervised workers plus a dispatch thread.

    Callbacks (all optional, all invoked on the supervisor thread):

    * ``on_done(digest, task, scale, result)`` — cell finished;
    * ``on_failed(digest, kind, message, hang_dict)`` — deterministic
      in-task exception (never retried: re-running a deterministic
      failure only reproduces it more slowly);
    * ``on_strike(digest, reason)`` — a worker died/wedged mid-cell;
    * ``on_retry(digest)`` — struck cell re-queued;
    * ``on_quarantined(digest, task, scale, error)`` — breaker tripped.
    """

    def __init__(self, workers: int = 2, cache_dir=None,
                 job_timeout: float | None = 120.0,
                 max_strikes: int = 2,
                 on_done=None, on_failed=None, on_strike=None,
                 on_retry=None, on_quarantined=None):
        self._ctx = mp.get_context(START_METHOD)
        self.job_timeout = job_timeout
        self.max_strikes = max_strikes
        self.on_done = on_done
        self.on_failed = on_failed
        self.on_strike = on_strike
        self.on_retry = on_retry
        self.on_quarantined = on_quarantined

        self._lock = threading.RLock()
        self._jobs: dict[str, _Job] = {}
        self._queue: deque[str] = deque()
        self._draining = False
        self._stop = threading.Event()
        self._workers: list[_Worker] = []
        try:
            for wid in range(max(1, workers)):
                self._workers.append(_Worker(wid, self._ctx, cache_dir))
        except BaseException:
            # A pool that cannot fully start must not leak the workers it
            # did start (run_grid falls back to serial on OSError here).
            for worker in self._workers:
                worker.kill()
            raise
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-supervisor")
        self._thread.start()

    # -- submission ---------------------------------------------------------

    def submit(self, digest: str, task, scale: str,
               strikes: int = 0) -> str:
        """Queue one job (idempotent: a known digest just reports its
        current state).  ``strikes`` pre-loads the circuit breaker — the
        daemon passes journal-replayed strike counts so a cell that kept
        killing workers before a daemon crash cannot reset its breaker by
        crashing the daemon too.  Returns the job state after the call."""
        with self._lock:
            job = self._jobs.get(digest)
            if job is not None:
                return job.state
            if self._draining:
                return "rejected"
            self._jobs[digest] = _Job(task=task, scale=scale,
                                      strikes=strikes)
            self._queue.append(digest)
            return QUEUED

    def state(self, digest: str) -> str | None:
        with self._lock:
            job = self._jobs.get(digest)
            return job.state if job else None

    def counts(self) -> dict[str, int]:
        with self._lock:
            out = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0,
                   QUARANTINED: 0}
            for job in self._jobs.values():
                out[job.state] += 1
            return out

    def workers_info(self) -> list[WorkerInfo]:
        now = time.time()
        with self._lock:
            return [w.info(now) for w in self._workers]

    # -- dispatch loop ------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            self._dispatch()
            conns = {}
            with self._lock:
                for worker in self._workers:
                    if worker.proc.is_alive():
                        conns[worker.conn] = worker
            ready = multiprocessing.connection.wait(
                list(conns), timeout=POLL_INTERVAL)
            for conn in ready:
                worker = conns[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    continue          # death; the watchdog settles it
                self._on_message(worker, message)
            self._watchdog()

    def _dispatch(self) -> None:
        with self._lock:
            if self._draining:
                return
            idle = [w for w in self._workers
                    if w.job is None and w.proc.is_alive()]
            while idle and self._queue:
                digest = self._queue.popleft()
                job = self._jobs[digest]
                if job.state != QUEUED:
                    continue
                worker = idle.pop()
                abbr, technique, config = job.task
                try:
                    worker.conn.send((digest, abbr, technique, job.scale,
                                      config))
                except (OSError, ValueError, BrokenPipeError):
                    self._queue.appendleft(digest)
                    continue          # watchdog will respawn the worker
                job.state = RUNNING
                worker.job = digest
                worker.busy_since = time.time()

    def _on_message(self, worker: _Worker, message) -> None:
        kind, digest = message[0], message[1]
        with self._lock:
            job = self._jobs.get(digest)
            if worker.job == digest:
                worker.job = None
                worker.busy_since = None
            if job is None or job.state not in (RUNNING, QUEUED):
                return                # stale result from a replaced twin
            if kind == "done":
                job.state = DONE
                result = decode_result(message[2])
            else:
                job.state = FAILED
                job.error_kind, job.error, job.hang = message[2:5]
        if kind == "done":
            if self.on_done is not None:
                self.on_done(digest, job.task, job.scale, result)
        elif self.on_failed is not None:
            self.on_failed(digest, job.error_kind, job.error, job.hang)

    def _watchdog(self) -> None:
        now = time.time()
        strikes = []
        with self._lock:
            for worker in self._workers:
                dead = not worker.proc.is_alive()
                frozen = worker.heartbeat_age(now) > HEARTBEAT_TIMEOUT
                wedged = (self.job_timeout is not None
                          and worker.job is not None
                          and worker.busy_since is not None
                          and now - worker.busy_since > self.job_timeout)
                if not (dead or frozen or wedged):
                    continue
                reason = ("worker died" if dead else
                          "heartbeat lost" if frozen else
                          f"{TIMED_OUT}={self.job_timeout}s")
                held = worker.job
                worker.respawn()
                if held is not None:
                    strikes.append((held, reason))
        for digest, reason in strikes:
            self._strike(digest, reason)

    def _strike(self, digest: str, reason: str) -> None:
        with self._lock:
            job = self._jobs.get(digest)
            if job is None or job.state not in (RUNNING, QUEUED):
                return
            job.strikes += 1
            tripped = job.strikes >= self.max_strikes
            if tripped:
                job.state = QUARANTINED
                job.error = (f"circuit breaker tripped after "
                             f"{job.strikes} strike(s): {reason}")
            else:
                job.state = QUEUED
                self._queue.appendleft(digest)
        if self.on_strike is not None:
            self.on_strike(digest, reason)
        if tripped:
            if self.on_quarantined is not None:
                self.on_quarantined(digest, job.task, job.scale, job.error)
        elif self.on_retry is not None:
            self.on_retry(digest)

    # -- shutdown -----------------------------------------------------------

    def drain(self) -> bool:
        """Stop dispatching queued work and wait for the *in-flight*
        cells to settle (they reach ``on_done`` as usual);
        queued-but-unstarted jobs stay journaled as pending for the next
        daemon generation.  Returns whether the pool drained within
        ``job_timeout + 5`` seconds (unbounded without a job timeout)."""
        with self._lock:
            self._draining = True
        deadline = None if self.job_timeout is None \
            else time.time() + self.job_timeout + 5.0
        while deadline is None or time.time() < deadline:
            with self._lock:
                if all(w.job is None for w in self._workers):
                    return True
            time.sleep(0.05)
        return False

    def close(self, drain: bool = True) -> bool:
        drained = self.drain() if drain else False
        self._stop.set()
        self._thread.join(timeout=5.0)
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (OSError, ValueError, BrokenPipeError):
                pass
        for worker in self._workers:
            worker.proc.join(timeout=1.0)
            worker.kill()
        return drained
