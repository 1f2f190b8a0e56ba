"""Persistent, content-addressed store of simulation results.

Every figure in the paper's evaluation is a view over the same
(benchmark × technique) grid, so simulation results are worth keeping
across processes, not just within one (the Accel-Sim workflow: simulate
once, re-plot forever).  An entry is keyed by a content hash of everything
that determines the outcome of a deterministic run:

* the kernel program text (``launch.kernel.source()``),
* the launch geometry and inputs (grid/block dims, parameters, shared
  memory size, the device-memory size, and the initial device-memory
  image up to its last allocated or non-zero word — past that every
  word is zero, see :meth:`~repro.sim.launch.GlobalMemory.image`),
* the full :class:`~repro.config.GPUConfig`,
* the technique, and
* the repro package version (bumped whenever the timing model changes
  behaviour, which invalidates every prior entry).

Entries are zlib-compressed pickles written atomically (temp file +
``os.replace``), so concurrent writers — e.g. the parallel executor's
workers — can never leave a torn entry behind; a corrupt or unreadable
entry reads as a miss and is moved aside.  :func:`encode_result` /
:func:`decode_result` are the one result codec (the worker pipe uses it
too), and :func:`job_digest` — salted like :func:`cache_key` — is the
one job identity of the daemon, its journal and the supervised pool.

This store is also the experiment daemon's only result store: its
workers write here, and a client reads a served cell back by
:func:`cache_key` of the launch it builds itself, so a result is only
ever served for the exact kernel, inputs and config that produced it.
A job digest names a cell; it never locates a result.

A blob pickles the whole :class:`RunResult`: cycles, Stats, config and
the ``extra`` payloads readers open (``memory_words``, ``stalls``, and
``fallback_reason`` after a safe-mode fallback).  ``memory_words`` is the
final image trimmed the same way as the key's, so a blob scales with the
memory a kernel touches (kilobytes), not with the device size.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import zlib
from pathlib import Path

from .. import __version__
from ..config import GPUConfig
from ..sim.gpu import RunResult
from ..sim.launch import KernelLaunch

#: Bump to invalidate every existing cache entry without a version change.
CACHE_SCHEMA = 4


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-dac``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro-dac"


def _salted_sha256():
    """sha256 seeded so every identity goes stale with the timing model."""
    return hashlib.sha256(
        f"repro/{__version__}/schema{CACHE_SCHEMA}".encode())


def cache_key(launch: KernelLaunch, technique: str,
              config: GPUConfig) -> str:
    """Content hash identifying one deterministic simulation run."""
    h = _salted_sha256()
    h.update(f"\x00{technique}\x00".encode())
    h.update(launch.kernel.source().encode())
    image = launch.memory.image()
    h.update(repr((launch.grid_dim, launch.block_dim,
                   sorted(launch.params.items()),
                   launch.shared_words, launch.memory.size_bytes,
                   len(image))).encode())
    h.update(image.tobytes())
    h.update(json.dumps(dataclasses.asdict(config),
                        sort_keys=True).encode())
    return h.hexdigest()


def job_digest(task, scale: str) -> str:
    """Identity of one ``(abbr, technique, GPUConfig)`` grid cell at
    ``scale``: the job journal's key.  It names the cell, not its
    content, so no result is ever looked up by it."""
    abbr, technique, config = task
    h = _salted_sha256()
    h.update(json.dumps([abbr, technique, scale, dataclasses.asdict(config)],
                        sort_keys=True).encode())
    return h.hexdigest()[:24]


# ---------------------------------------------------------------------------
# The result codec.

def encode_result(result: RunResult) -> bytes:
    """A :class:`RunResult` as bytes: its pickle, zlib-compressed at
    level 1 (most of it is the trimmed ``memory_words`` image)."""
    return zlib.compress(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL), 1)


def decode_result(blob: bytes) -> RunResult:
    """Inverse of :func:`encode_result`; raises ``ValueError`` when the
    blob is torn, truncated, or holds anything but a :class:`RunResult`."""
    try:
        result = pickle.loads(zlib.decompress(blob))
    except Exception as exc:
        raise ValueError(f"unreadable result blob: {exc!r}") from None
    if not isinstance(result, RunResult):
        raise ValueError("result blob does not hold a RunResult")
    return result


# ---------------------------------------------------------------------------
# The on-disk store.

class DiskCache:
    """Directory of ``<key>.pkl.z`` entries (:func:`encode_result`
    blobs) with atomic writes."""

    SUFFIX = ".pkl.z"
    CORRUPT_SUFFIX = ".pkl.z.corrupt"

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}{self.SUFFIX}"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside as ``<key>.pkl.z.corrupt``: it stops
        being re-parsed on every run (the ``.corrupt`` suffix never matches
        a lookup), yet the bytes survive for forensics."""
        self.corrupt += 1
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            path.unlink(missing_ok=True)

    def load(self, key: str) -> RunResult | None:
        """The stored result, or ``None`` on a miss.  A corrupt entry
        (torn by a crash predating atomic writes, or truncated disk) is
        quarantined with a ``.corrupt`` suffix and reads as a miss."""
        path = self._path(key)
        try:
            result = decode_result(path.read_bytes())
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return result

    def store(self, key: str, result: RunResult) -> None:
        """Atomically persist ``result`` under ``key`` (write to a temp
        file in the same directory, then ``os.replace``)."""
        blob = encode_result(result)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns whether it existed."""
        path = self._path(key)
        if path.exists():
            path.unlink()
            return True
        return False

    def clear(self) -> int:
        """Drop every entry (including quarantined ones); returns the
        number of live entries removed."""
        removed = 0
        for path in self.root.glob(f"*{self.SUFFIX}"):
            path.unlink(missing_ok=True)
            removed += 1
        for path in self.root.glob(f"*{self.CORRUPT_SUFFIX}"):
            path.unlink(missing_ok=True)
        return removed

    def keys(self) -> list[str]:
        return sorted(p.name[:-len(self.SUFFIX)]
                      for p in self.root.glob(f"*{self.SUFFIX}"))

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()
