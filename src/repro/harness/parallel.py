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

An interrupted grid resumes through that disk cache: workers store each
cell as it lands, so a re-run skips what finished.  The one durable job
state — quarantine verdicts and strike counts that survive a restart —
is the ``repro serve --state DIR`` daemon's journal
(:mod:`repro.service.journal`).
"""

from __future__ import annotations

import os
import queue
import sys
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

from ..sim.gpu import RunResult
from .diskcache import job_digest

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
    resumed: int = 0                           # replayed from a journal
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

    def to_dict(self) -> dict:
        """Lossless JSON-able form: tasks (tuples holding a
        :class:`GPUConfig`) are flattened so the report can cross the
        service wire and round-trip through :meth:`from_dict`."""
        from ..service.protocol import task_to_wire
        return {
            "total": self.total,
            "completed": self.completed,
            "resumed": self.resumed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "quarantined": [task_to_wire(t, None)
                            for t in self.quarantined],
            "failures": [{"task": task_to_wire(task, None),
                          "reason": reason}
                         for task, reason in self.failures.items()],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridReport":
        from ..service.protocol import task_from_wire
        report = cls(total=data["total"], completed=data["completed"],
                     resumed=data["resumed"], retries=data["retries"],
                     timeouts=data["timeouts"])
        report.quarantined = [task_from_wire(t)[0]
                              for t in data["quarantined"]]
        report.failures = {task_from_wire(f["task"])[0]: f["reason"]
                           for f in data["failures"]}
        return report


@dataclass
class _Grid:
    """One :func:`run_grid` call's bookkeeping.  Every path that settles a
    cell — serial, the supervised pool, the daemon — records it here, so
    the results, memo cache, report and progress agree."""

    scale: str
    use_cache: bool
    report: GridReport
    progress: Callable[..., None] | None
    results: dict = field(default_factory=dict)

    def finish(self, task: Task, result: RunResult) -> None:
        from . import runner
        abbr, technique, config = task
        if self.use_cache:
            runner._remember(abbr, technique, self.scale, config, result)
        self.results[task] = result
        self.report.record("done")
        if self.progress is not None:
            self.progress(len(self.results), self.report.total, abbr,
                          technique, result)

    def quarantine(self, task: Task, error: str) -> None:
        print(f"repro: quarantining {task[0]}/{task[1]}: {error}",
              file=sys.stderr)
        self.report.record("quarantined", error, task)

    def triage(self, tasks: list) -> list:
        """Settle every cell the memo cache already holds; return the
        rest."""
        from . import runner
        pending: list[Task] = []
        for task in tasks:
            abbr, technique, config = task
            if self.use_cache and runner.is_cached(abbr, technique,
                                                   self.scale, config):
                self.results[task] = runner.run_one(abbr, technique,
                                                    self.scale, config)
            else:
                pending.append(task)
        return pending

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
    tasks = {job_digest(task, grid.scale): task
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
             report: GridReport | None = None,
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

    Pass a :class:`GridReport` as ``report`` to receive
    retry/timeout/quarantine accounting.

    ``service`` routes the grid through a running experiment daemon
    (``python -m repro serve``): a socket path uses that daemon, ``None``
    auto-detects one at :func:`repro.harness.client.default_socket_path`
    next to the configured disk cache, and ``False`` forces the local
    pool.  When no daemon answers, the
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
    grid = _Grid(scale, use_cache, report, progress)
    pending = grid.triage(norm)
    if pending and service is not False:
        from .client import run_tasks_via_service
        pending = run_tasks_via_service(pending, service, grid)

    jobs = jobs if jobs is not None else default_jobs()
    if jobs <= 1 or len(pending) <= 1:
        grid.run_serial(pending)
    else:
        _run_supervised(grid, pending, jobs, timeout, retries)
    return grid.results
