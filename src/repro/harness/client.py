"""Thin synchronous client for the experiment daemon.

``run_grid`` (and therefore every CLI command, figure driver, and bench)
routes through a running daemon *transparently*: if the service socket
answers a ping, pending cells are submitted over it and the results are
read back out of the daemon's journal blobs by ``result_path`` (client
and daemon share a filesystem — that is what a unix socket means — so
multi-megabyte device-memory images never ride the wire; a missing or
corrupt blob raises :class:`ServiceUnavailable`).  If no daemon is up,
one of another package version answers the ping, or one dies mid-grid,
the caller falls back to the local pool — the same supervised pool
(:class:`repro.service.supervisor.Supervisor`) the daemon runs, driven
in-process; the daemon is an accelerator, never a dependency.  Either
way a deterministic in-task failure raises :class:`RemoteTaskError`.

Backpressure is cooperative: a ``busy`` reply from the daemon's bounded
queue is retried on the shared capped-exponential schedule with
deterministic jitter (:mod:`repro.harness.backoff`), seeded by the job
digest so concurrent clients spread out instead of thundering back in
step.
"""

from __future__ import annotations

import os
import socket
import sys
import time
from pathlib import Path

from ..sim.gpu import RunResult, SimulationHang
from . import diskcache
from .backoff import backoff_delay
from .diskcache import decode_result, default_cache_dir, job_digest

SOCKET_ENV = "REPRO_SERVICE_SOCKET"


def default_socket_path() -> Path:
    """``$REPRO_SERVICE_SOCKET`` or ``service.sock`` next to the default
    disk cache (the daemon's default listen address)."""
    env = os.environ.get(SOCKET_ENV)
    if env:
        return Path(env).expanduser()
    return default_cache_dir() / "service.sock"


class ServiceUnavailable(ConnectionError):
    """No daemon at the socket, or it went away mid-conversation."""


class ServiceBusy(RuntimeError):
    """The daemon's bounded queue stayed full through every retry."""


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
        version salts its job digests differently, so its results can
        never be matched to this client's cells: treat it as absent."""
        response = self.request({"op": "ping"})
        if not response.get("ok") or response.get("op") != "pong":
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
        per-job replies (``digest`` + ``state``, possibly ``busy``)."""
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

    def load_result(self, response: dict) -> RunResult:
        """Materialize a ``done`` wait-reply: decode the daemon's atomic
        journal blob at ``result_path`` (shared filesystem)."""
        path = response.get("result_path")
        if path:
            try:
                return decode_result(Path(path).read_bytes())
            except (OSError, ValueError):
                pass
        raise ServiceUnavailable(
            f"done job {response.get('digest')} has no readable result")

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
                  max_busy_retries: int = 8,
                  wait_timeout: float = 30.0) -> tuple[dict, list, dict]:
        """Run a grid through the daemon.

        Returns ``(results, quarantined, failures)`` where ``results``
        maps tasks to :class:`RunResult`; quarantined cells come back as
        partial results, deterministic failures raise
        :class:`RemoteTaskError`.
        """
        tasks = list(tasks)
        digests = {job_digest(task, scale): task for task in tasks}
        pending = dict(digests)

        unsubmitted = dict(pending)
        attempt = 0
        while unsubmitted:
            replies = self.submit(list(unsubmitted.values()), scale)
            busy = {}
            for reply in replies:
                digest = reply["digest"]
                if digest not in unsubmitted:
                    raise ServiceUnavailable(
                        f"daemon answered for unknown job {digest!r}")
                if reply["state"] == "busy":
                    busy[digest] = unsubmitted[digest]
            if not busy:
                break
            if attempt >= max_busy_retries:
                raise ServiceBusy(
                    f"daemon stayed busy for {len(busy)} job(s) after "
                    f"{attempt} retries")
            time.sleep(backoff_delay(attempt,
                                     seed=min(busy) if busy else ""))
            attempt += 1
            unsubmitted = busy

        results: dict = {}
        quarantined: list = []
        failures: dict = {}
        while pending:
            for digest in list(pending):
                reply = self.wait(digest, timeout=wait_timeout)
                state = reply.get("state")
                if state == "done":
                    task = pending.pop(digest)
                    results[task] = self.load_result(reply)
                    if progress is not None:
                        progress(task, results[task])
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
    """``run_grid``'s routing hook: try the daemon for ``pending``;
    whatever it could not take (no daemon, daemon died mid-grid) is
    returned for the local pool.  Settled cells are recorded on ``grid``
    exactly as local ones are."""
    path = None if service in (None, True) else service
    client = try_connect(path)
    if client is None:
        return pending
    try:
        with client:
            served, quarantined, failures = client.run_tasks(pending,
                                                             grid.scale)
    except (ServiceUnavailable, ServiceBusy) as exc:
        print(f"repro: service at {client.socket_path}: {exc}; "
              f"falling back to the local pool", file=sys.stderr)
        return pending
    for task, result in served.items():
        grid.finish(task, result)
    for task in quarantined:
        grid.quarantine(task, failures[task])
    return []
