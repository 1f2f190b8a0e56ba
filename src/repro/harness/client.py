"""Thin synchronous client for the experiment daemon.

``run_grid`` routes through a running daemon *transparently*: if the
service socket answers a ping, pending cells are submitted over it, and
each cell the daemon reports ``done`` is loaded from the disk cache the
``ping`` reply names (client and daemon share a filesystem, so results
never ride the wire) by :func:`~repro.harness.diskcache.cache_key` of
the launch this process builds — the key a local run uses, so a daemon
that ran other code under the same job name cannot answer for it.  The
cells a daemon does not deliver (none is up, it is of another version,
it rejects the submit or dies mid-grid, or the cache misses) run on the
local pool: the same supervised pool
(:class:`repro.service.supervisor.Supervisor`) driven in-process; the
daemon is an accelerator, never a dependency.  Either way a
deterministic in-task failure raises :class:`RemoteTaskError`.
"""

from __future__ import annotations

import os
import socket
import sys
from pathlib import Path

from ..sim.gpu import SimulationHang
from ..workloads import get
from . import diskcache
from .diskcache import DiskCache, cache_key, default_cache_dir, job_digest

SOCKET_ENV = "REPRO_SERVICE_SOCKET"


def default_socket_path(cache_dir=None) -> Path:
    """The daemon's default listen address: ``$REPRO_SERVICE_SOCKET`` or
    ``service.sock`` next to the disk cache (``cache_dir`` if given, else
    the default one)."""
    env = os.environ.get(SOCKET_ENV)
    if env:
        return Path(env).expanduser()
    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return base / "service.sock"


class ServiceUnavailable(ConnectionError):
    """No daemon at the socket, or it went away mid-conversation."""


class RemoteTaskError(RuntimeError):
    """A deterministic in-task exception, reported by a supervised worker
    (local pool or daemon).

    Deterministic failures propagate instead of being retried.  When the
    failure was a :class:`SimulationHang`, the structured report rides
    along as ``hang`` (rebuilt via its JSON round-trip)."""

    def __init__(self, kind: str, message: str,
                 hang: SimulationHang | None = None):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.hang = hang

    @classmethod
    def from_report(cls, kind: str | None, message: str | None,
                    hang: dict | None) -> "RemoteTaskError":
        """Rebuild from a worker's ``(kind, message, hang dict)`` report."""
        return cls(kind or "Error", message or "",
                   hang=SimulationHang.from_dict(hang)
                   if hang is not None else None)


class ServiceClient:
    """Blocking NDJSON client over a unix socket."""

    def __init__(self, socket_path=None, timeout: float = 300.0):
        self.socket_path = Path(socket_path) if socket_path is not None \
            else default_socket_path()
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        try:
            self._sock.connect(str(self.socket_path))
        except OSError as exc:
            self._sock.close()
            raise ServiceUnavailable(
                f"no daemon at {self.socket_path}: {exc}") from None
        self._file = self._sock.makefile("rwb")

    def request(self, payload: dict) -> dict:
        from ..service.protocol import read_message, write_message
        try:
            write_message(self._file, payload)
            response = read_message(self._file)
        except (OSError, ValueError) as exc:
            raise ServiceUnavailable(f"daemon went away: {exc}") from None
        if response is None:
            raise ServiceUnavailable("daemon closed the connection")
        return response

    def ping(self) -> dict:
        """Liveness and version handshake.  A daemon of another package
        version salts its job digests differently, and one that names no
        disk cache keeps results where this client cannot look them up:
        treat either as absent."""
        response = self.request({"op": "ping"})
        if not response.get("ok") or response.get("op") != "pong" \
                or "cache" not in response:
            raise ServiceUnavailable(f"bad ping response: {response}")
        if response.get("repro") != diskcache.__version__:
            raise ServiceUnavailable(
                f"daemon runs repro {response.get('repro')}, "
                f"this client {diskcache.__version__}")
        return response

    def status(self) -> dict:
        return self.request({"op": "status"})

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})

    def submit(self, tasks, scale: str) -> list[dict]:
        """Submit ``(abbr, technique, config)`` tasks; returns the
        per-job replies (``digest`` + ``state``).  A daemon that is
        shutting down rejects the whole submit."""
        from ..service.protocol import task_to_wire
        response = self.request(
            {"op": "submit",
             "jobs": [task_to_wire(task, scale) for task in tasks]})
        if not response.get("ok"):
            raise ServiceUnavailable(f"submit rejected: {response}")
        return response["jobs"]

    def wait(self, digest: str, timeout: float = 30.0) -> dict:
        response = self.request({"op": "wait", "digest": digest,
                                 "timeout": timeout})
        if not response.get("ok"):
            raise ServiceUnavailable(f"wait rejected: {response}")
        return response

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- grid-level convenience --------------------------------------------

    def run_tasks(self, tasks, scale: str, progress=None,
                  wait_timeout: float = 30.0) -> tuple[dict, list, dict]:
        """Run a grid through the daemon.

        Returns ``(results, quarantined, failures)`` where ``results``
        maps tasks to :class:`RunResult`; quarantined cells come back as
        partial results, deterministic failures raise
        :class:`RemoteTaskError`, and a ``done`` cell whose content key
        misses in the daemon's cache is in none of the three.
        ``progress(task, result)`` fires as each cell is delivered, so a
        caller that settles cells there keeps them if the daemon dies.
        """
        cache = DiskCache(self.ping()["cache"])
        tasks = list(tasks)
        pending = {job_digest(task, scale): task for task in tasks}
        for reply in self.submit(tasks, scale):
            if reply["digest"] not in pending:
                raise ServiceUnavailable(
                    f"daemon answered for unknown job {reply['digest']!r}")

        results: dict = {}
        quarantined: list = []
        failures: dict = {}
        while pending:
            for digest in list(pending):
                reply = self.wait(digest, timeout=wait_timeout)
                state = reply.get("state")
                if state == "done":
                    task = pending.pop(digest)
                    abbr, technique, config = task
                    result = cache.load(cache_key(
                        get(abbr).launch(scale), technique, config))
                    if result is None:
                        continue
                    results[task] = result
                    if progress is not None:
                        progress(task, result)
                elif state == "quarantined":
                    task = pending.pop(digest)
                    quarantined.append(task)
                    failures[task] = reply.get("error") or "quarantined"
                elif state == "failed":
                    raise RemoteTaskError.from_report(
                        reply.get("kind"), reply.get("message"),
                        reply.get("hang"))
                # queued/running: keep waiting
        return results, quarantined, failures


def try_connect(socket_path=None,
                timeout: float = 300.0) -> ServiceClient | None:
    """A pinged client, or ``None`` when no daemon answers (the cheap
    existence check first, so the no-daemon fast path never syscalls
    into ``connect``)."""
    path = Path(socket_path) if socket_path is not None \
        else default_socket_path()
    if not path.exists():
        return None
    try:
        client = ServiceClient(path, timeout=timeout)
    except ServiceUnavailable:
        return None
    try:
        client.ping()
    except ServiceUnavailable:
        client.close()
        return None
    return client


def run_tasks_via_service(pending, service, grid) -> list:
    """``run_grid``'s routing hook: try the daemon for ``pending`` and
    return what it did not deliver for the local pool.  Each delivered
    cell is settled on ``grid`` as it arrives, exactly as local ones are.
    ``service`` is a socket path, or ``None``/``True`` for the default
    socket next to the configured disk cache."""
    if service in (None, True):
        from . import runner
        disk = runner.disk_cache()
        service = default_socket_path(disk.root if disk is not None
                                      else None)
    client = try_connect(service)
    if client is None:
        return pending
    try:
        with client:
            failures = client.run_tasks(pending, grid.scale,
                                        progress=grid.finish)[2]
    except ServiceUnavailable as exc:
        print(f"repro: service at {client.socket_path}: {exc}; "
              f"falling back to the local pool", file=sys.stderr)
        return [task for task in pending if task not in grid.results]
    for task, error in failures.items():
        grid.quarantine(task, error)
    missed = [task for task in pending
              if task not in grid.results and task not in failures]
    if missed:
        print(f"repro: {len(missed)} served cell(s) missed the cache; "
              f"running them locally", file=sys.stderr)
    return missed
