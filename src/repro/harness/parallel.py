"""Fan-out of the (benchmark × technique) simulation grid.

Runs are independent, deterministic, and CPU-bound.  With ``jobs > 1``
:func:`run_grid` drives one in-process
:class:`~repro.service.supervisor.Supervisor` — the same supervised worker
pool the ``repro serve`` daemon uses — so a local grid and a served grid
share one set of failure semantics:

* **Deterministic in-task exceptions** (the simulation itself raised)
  raise :class:`~repro.harness.client.RemoteTaskError` at once, with a
  :class:`~repro.sim.gpu.SimulationHang` report rebuilt as ``hang`` —
  retrying a deterministic failure can only reproduce it more slowly.
* **Crashes and hangs**: a worker that dies, loses its heartbeat, or holds
  one cell past the per-cell ``timeout`` is killed and respawned, and the
  cell takes a strike.  After ``retries + 1`` strikes the cell is
  **quarantined** — the rest of the grid still completes, and the
  quarantine list is reported instead of the whole sweep dying.
* **A pool that cannot start** (``OSError`` while spawning workers) runs
  the grid serially in the parent.

Workers consult and feed the same on-disk cache as the parent (entries are
written atomically, so concurrent writers are safe), and the parent
installs every returned result into its in-process memo cache — after a
parallel prewarm, the serial figure drivers run entirely on cache hits.

A :class:`GridCheckpoint` directory makes long sweeps resumable: every
finished cell is persisted as it lands, so a re-run with the same
checkpoint skips straight past completed (and quarantined) cells.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import queue
import sys
import tempfile
import warnings
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

from ..config import GPUConfig
from ..sim.gpu import RunResult

#: Task: (benchmark abbr, technique, GPUConfig).
Task = tuple


def default_jobs() -> int:
    """A sensible worker count: ``$REPRO_JOBS`` if set, else CPU count."""
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(
                f"ignoring invalid REPRO_JOBS={env!r} (expected a positive "
                f"integer); using cpu_count", RuntimeWarning, stacklevel=2)
    return os.cpu_count() or 1


@dataclass
class GridReport:
    """What :func:`run_grid` did beyond the happy path."""

    total: int = 0
    completed: int = 0                         # fresh results this call
    resumed: int = 0                           # restored from checkpoint
    retries: int = 0                           # struck cells re-queued
    timeouts: int = 0                          # strikes for job_timeout
    quarantined: list = field(default_factory=list)      # abandoned tasks
    failures: dict = field(default_factory=dict)         # task -> reason

    def summary(self) -> str:
        parts = [f"{self.completed}/{self.total} run"]
        if self.resumed:
            parts.append(f"{self.resumed} resumed")
        if self.retries:
            parts.append(f"{self.retries} retried")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeouts")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        return ", ".join(parts)

    def record(self, event: str, detail: str = "",
               task: Task | None = None) -> None:
        """Fold one :class:`~repro.service.supervisor.Supervisor` event
        into the counts — the one mapping the daemon and :func:`run_grid`
        share.  ``event`` is ``"done"``, ``"strike"`` (``detail`` = the
        reason), ``"retry"``, or ``"quarantined"`` (``detail`` = the
        error, ``task`` = the cell)."""
        from ..service.supervisor import TIMED_OUT
        if event == "done":
            self.completed += 1
        elif event == "strike":
            if detail.startswith(TIMED_OUT):
                self.timeouts += 1
        elif event == "retry":
            self.retries += 1
        elif event == "quarantined":
            self.quarantined.append(task)
            self.failures[task] = detail

    @staticmethod
    def _task_to_wire(task) -> dict:
        abbr, technique, config = task
        return {"abbr": abbr, "technique": technique,
                "config": dataclasses.asdict(config)}

    @staticmethod
    def _task_from_wire(data: dict) -> Task:
        return (data["abbr"], data["technique"],
                GPUConfig.from_dict(data["config"]))

    def to_dict(self) -> dict:
        """Lossless JSON-able form: tasks (tuples holding a
        :class:`GPUConfig`) are flattened so the report can cross the
        service wire and round-trip through :meth:`from_dict`."""
        return {
            "total": self.total,
            "completed": self.completed,
            "resumed": self.resumed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "quarantined": [self._task_to_wire(t)
                            for t in self.quarantined],
            "failures": [{"task": self._task_to_wire(task),
                          "reason": reason}
                         for task, reason in self.failures.items()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridReport":
        report = cls(total=data["total"], completed=data["completed"],
                     resumed=data["resumed"], retries=data["retries"],
                     timeouts=data["timeouts"])
        report.quarantined = [cls._task_from_wire(t)
                              for t in data["quarantined"]]
        report.failures = {cls._task_from_wire(f["task"]): f["reason"]
                           for f in data["failures"]}
        return report


class GridCheckpoint:
    """Resumable sweep state: a directory holding one ``state.json`` plus a
    compressed pickle per finished cell, all written atomically.

    Cells are keyed by a digest of (abbr, technique, scale, config) — the
    same identity :func:`run_grid` partitions work by — so a re-run with
    the same task list resumes exactly where the previous run stopped,
    including remembering which cells were quarantined.
    """

    STATE = "state.json"

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self._state: dict[str, dict] = {}
        path = self.root / self.STATE
        try:
            self._state = json.loads(path.read_text())
        except FileNotFoundError:
            pass
        except Exception:
            # A torn state file loses resume info, never correctness.
            self._state = {}

    @staticmethod
    def digest(task: Task, scale: str) -> str:
        abbr, technique, config = task
        payload = json.dumps(
            [abbr, technique, scale, dataclasses.asdict(config)],
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    def status(self, digest: str) -> str | None:
        entry = self._state.get(digest)
        return entry["status"] if entry else None

    def save_result(self, digest: str, result: RunResult) -> None:
        """Atomically persist just the result blob (no state change) —
        the service journal uses this as its commit record: a loadable
        blob *is* the proof a cell finished."""
        blob = zlib.compress(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL), 1)
        self._write_atomic(self.root / f"{digest}.pkl.z", blob)

    def result_path(self, digest: str) -> Path:
        return self.root / f"{digest}.pkl.z"

    def record_done(self, digest: str, task: Task, result: RunResult) -> None:
        self.save_result(digest, result)
        self._state[digest] = {"task": [task[0], task[1]], "status": "done"}
        self._save_state()

    def record_quarantined(self, digest: str, task: Task,
                           error: str) -> None:
        self._state[digest] = {"task": [task[0], task[1]],
                               "status": "quarantined", "error": error}
        self._save_state()

    def clear_quarantined(self, digest: str) -> bool:
        """Forget a quarantine verdict so the cell runs again on the next
        sweep (``--retry-quarantined``); returns whether one was cleared."""
        entry = self._state.get(digest)
        if entry is None or entry.get("status") != "quarantined":
            return False
        del self._state[digest]
        self._save_state()
        return True

    def load_result(self, digest: str) -> RunResult | None:
        try:
            blob = (self.root / f"{digest}.pkl.z").read_bytes()
            result = pickle.loads(zlib.decompress(blob))
        except Exception:
            return None
        return result if isinstance(result, RunResult) else None

    def _save_state(self) -> None:
        self._write_atomic(self.root / self.STATE,
                           json.dumps(self._state, sort_keys=True,
                                      indent=1).encode())

    def _write_atomic(self, path: Path, blob: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


@dataclass
class _Grid:
    """One :func:`run_grid` call's bookkeeping.  Every path that settles a
    cell — serial, the supervised pool, the daemon — records it here, so
    the results, memo cache, checkpoint, report and progress agree."""

    scale: str
    use_cache: bool
    report: GridReport
    checkpoint: GridCheckpoint | None
    progress: Callable[..., None] | None
    results: dict = field(default_factory=dict)

    def finish(self, task: Task, result: RunResult) -> None:
        from . import runner
        abbr, technique, config = task
        if self.use_cache:
            runner._remember(abbr, technique, self.scale, config, result)
        self.results[task] = result
        self.report.record("done")
        if self.checkpoint is not None:
            self.checkpoint.record_done(
                GridCheckpoint.digest(task, self.scale), task, result)
        if self.progress is not None:
            self.progress(len(self.results), self.report.total, abbr,
                          technique, result)

    def quarantine(self, task: Task, error: str) -> None:
        print(f"repro: quarantining {task[0]}/{task[1]}: {error}",
              file=sys.stderr)
        self.report.record("quarantined", error, task)
        if self.checkpoint is not None:
            self.checkpoint.record_quarantined(
                GridCheckpoint.digest(task, self.scale), task, error)

    def run_serial(self, tasks) -> None:
        from . import runner
        for task in tasks:
            abbr, technique, config = task
            self.finish(task, runner.run_one(abbr, technique, self.scale,
                                             config,
                                             use_cache=self.use_cache))


def _run_supervised(grid: _Grid, pending: list, jobs: int,
                    timeout: float | None, retries: int) -> None:
    """Run ``pending`` on an in-process supervised pool.  The supervisor
    thread only queues events; this (the caller's) thread settles them."""
    from ..service import supervisor
    from . import runner
    from .client import RemoteTaskError

    disk = runner.disk_cache() if grid.use_cache else None
    tasks = {GridCheckpoint.digest(task, grid.scale): task
             for task in pending}
    events: queue.SimpleQueue = queue.SimpleQueue()

    def post(event: str):
        return lambda digest, *args: events.put((event, digest, args))

    try:
        pool = supervisor.Supervisor(
            workers=min(jobs, len(tasks)),
            cache_dir=disk.root if disk is not None else None,
            job_timeout=timeout, max_strikes=retries + 1,
            on_done=post("done"), on_failed=post("failed"),
            on_strike=post("strike"), on_retry=post("retry"),
            on_quarantined=post("quarantined"))
    except OSError as exc:
        print(f"repro: cannot start worker processes ({exc!r}); "
              f"running serially", file=sys.stderr)
        grid.run_serial(pending)
        return
    try:
        for digest, task in tasks.items():
            pool.submit(digest, task, grid.scale)
        unsettled = len(tasks)
        while unsettled:
            event, digest, args = events.get()
            if event == "done":                 # (task, scale, result)
                grid.finish(tasks[digest], args[-1])
            elif event == "quarantined":        # (task, scale, error)
                grid.quarantine(tasks[digest], args[-1])
            elif event == "failed":             # (kind, message, hang)
                raise RemoteTaskError.from_report(*args)
            else:                               # strike (reason,), retry ()
                grid.report.record(event, *args)
                continue
            unsettled -= 1
    finally:
        pool.close(drain=False)


def run_grid(tasks, scale: str = "paper", jobs: int | None = None,
             use_cache: bool = True, progress=None,
             timeout: float | None = None, retries: int = 1,
             checkpoint=None, report: GridReport | None = None,
             retry_quarantined: bool = False,
             service: str | os.PathLike | bool | None = None) -> dict:
    """Fan ``tasks`` — (abbr, technique) pairs or (abbr, technique,
    config) triples — out over ``jobs`` supervised worker processes.

    Returns ``{(abbr, technique, config): RunResult}``.  Results are also
    installed into the in-process memo cache (and, when enabled, written
    to the disk cache by the workers), so subsequent serial calls hit.
    ``progress(done, total, abbr, technique, result)`` fires per finished
    run.

    ``timeout`` bounds each cell's wall-clock seconds (parallel path
    only; ``None`` is unbounded).  A cell whose worker crashes or times
    out is retried; its ``retries + 1``-th strike quarantines it — the
    rest of the grid still completes, minus the quarantined cells.
    Deterministic in-task exceptions raise
    :class:`~repro.harness.client.RemoteTaskError` immediately.

    ``checkpoint`` (a directory path or :class:`GridCheckpoint`) makes the
    sweep resumable: finished cells are persisted as they land and skipped
    on the next call.  Pass a :class:`GridReport` as ``report`` to receive
    retry/timeout/quarantine accounting.  ``retry_quarantined=True``
    forgets earlier quarantine verdicts and gives those cells another
    chance.

    ``service`` routes the grid through a running experiment daemon
    (``python -m repro serve``): a socket path uses that daemon, ``None``
    auto-detects one at :func:`repro.harness.client.default_socket_path`,
    and ``False`` forces the local pool.  When no daemon answers, the
    local path below runs unchanged — the daemon is an accelerator, never
    a dependency.
    """
    from . import runner

    norm: list[Task] = []
    for task in tasks:
        if len(task) == 2:
            abbr, technique = task
            config = runner.experiment_config()
        else:
            abbr, technique, config = task
        norm.append((abbr, technique, config))

    if report is None:
        report = GridReport()
    report.total = len(norm)
    if checkpoint is not None and not isinstance(checkpoint,
                                                 GridCheckpoint):
        checkpoint = GridCheckpoint(checkpoint)
    grid = _Grid(scale, use_cache, report, checkpoint, progress)
    results = grid.results

    pending: list[Task] = []
    for task in norm:
        abbr, technique, config = task
        if checkpoint is not None:
            digest = GridCheckpoint.digest(task, scale)
            status = checkpoint.status(digest)
            if status == "quarantined" and retry_quarantined:
                checkpoint.clear_quarantined(digest)
                status = None
            if status == "done":
                result = checkpoint.load_result(digest)
                if result is not None:
                    runner._remember(abbr, technique, scale, config, result)
                    results[task] = result
                    report.resumed += 1
                    if progress is not None:
                        progress(len(results), len(norm), abbr, technique,
                                 result)
                    continue
            elif status == "quarantined":
                report.record("quarantined", "quarantined in a previous run",
                              task)
                continue
        if use_cache and runner.is_cached(abbr, technique, scale, config):
            results[task] = runner.run_one(abbr, technique, scale, config)
        else:
            pending.append(task)

    if pending and service is not False:
        from .client import run_tasks_via_service
        pending = run_tasks_via_service(pending, service, grid)

    jobs = jobs if jobs is not None else default_jobs()
    if jobs <= 1 or len(pending) <= 1:
        grid.run_serial(pending)
    else:
        _run_supervised(grid, pending, jobs, timeout, retries)
    return results
