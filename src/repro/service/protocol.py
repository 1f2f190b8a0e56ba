"""Wire protocol of the experiment daemon: newline-delimited JSON.

One request object per line, one response object per line, over a unix
domain socket.  Requests carry an ``op``; responses carry ``ok`` and
either the answer or an ``error``.  The protocol is deliberately dumb —
flat JSON, no streaming, no binary frames — because the daemon and its
clients share a filesystem: big payloads (result blobs) travel as paths
into the journal's atomic blob store, not over the socket.

Ops (see :mod:`repro.service.daemon` for semantics):

* ``ping`` — liveness + version handshake;
* ``submit`` — a list of jobs; per-job reply is ``queued``, ``running``,
  ``done``, ``quarantined``, or ``failed`` (a daemon that is shutting
  down answers ``ok: false`` for the whole submit);
* ``wait`` — block (bounded) until one job settles;
* ``status`` — per-state job counts, worker introspection incl. pids
  (the chaos campaign SIGKILLs those), and a ``GridReport`` dict;
* ``shutdown`` — graceful drain-and-exit.

A job is identified by :func:`repro.harness.diskcache.job_digest`: a
hash of abbr, technique, scale and the full ``GPUConfig``, salted with
the package version, so a journal written by another timing model
never answers for the current one.  :func:`task_to_wire` /
:func:`task_from_wire` are the one JSON form of a task; ``GridReport``
uses them too.
"""

from __future__ import annotations

import dataclasses
import json

from ..config import GPUConfig
from ..harness.diskcache import job_digest as job_digest  # re-export

PROTOCOL_VERSION = 1

#: One line must fit a grid submission; results never ride the socket.
MAX_LINE = 8 * 1024 * 1024


class ProtocolError(RuntimeError):
    """Malformed frame, oversized line, or version mismatch."""


def encode(message: dict) -> bytes:
    return json.dumps(message, separators=(",", ":"),
                      sort_keys=True).encode() + b"\n"


def decode(line: bytes) -> dict:
    if len(line) > MAX_LINE:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds MAX_LINE")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad JSON frame: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("frame is not a JSON object")
    return message


def write_message(sock_file, message: dict) -> None:
    """Send one frame on a blocking socket file object."""
    sock_file.write(encode(message))
    sock_file.flush()


def read_message(sock_file) -> dict | None:
    """Read one frame from a blocking socket file; ``None`` on EOF."""
    line = sock_file.readline(MAX_LINE + 1)
    if not line:
        return None
    return decode(line)


# ---------------------------------------------------------------------------
# Task encoding.

def task_to_wire(task, scale: str | None) -> dict:
    """``(abbr, technique, GPUConfig)`` → JSON-able job description
    (``scale=None`` for a bare task, as in a ``GridReport``)."""
    abbr, technique, config = task
    return {"abbr": abbr, "technique": technique, "scale": scale,
            "config": dataclasses.asdict(config)}


def task_from_wire(job: dict) -> tuple[tuple, str]:
    """Inverse of :func:`task_to_wire`: ``(task, scale)``."""
    try:
        task = (job["abbr"], job["technique"],
                GPUConfig.from_dict(job["config"]))
        return task, job["scale"]
    except (KeyError, TypeError) as exc:
        raise ProtocolError(f"malformed job description: {exc}") from None

