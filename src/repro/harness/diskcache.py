"""Persistent, content-addressed store of simulation results.

Every figure in the paper's evaluation is a view over the same
(benchmark × technique) grid, so simulation results are worth keeping
across processes, not just within one (the Accel-Sim workflow: simulate
once, re-plot forever).  An entry is keyed by a content hash of everything
that determines the outcome of a deterministic run:

* the kernel program text (``launch.kernel.source()``),
* the launch geometry and inputs (grid/block dims, parameters, shared
  memory size, and the initial device-memory image),
* the full :class:`~repro.config.GPUConfig`,
* the technique, and
* the repro package version (bumped whenever the timing model changes
  behaviour, which invalidates every prior entry).

Entries are zlib-compressed pickles written atomically (temp file +
``os.replace``), so concurrent writers — e.g. the parallel executor's
workers — can never leave a torn entry behind; a corrupt or unreadable
entry reads as a miss and is moved aside.  :func:`encode_result` /
:func:`decode_result` are the one result codec (worker pipe, service
client and job journal use it too), and :func:`job_digest` — salted like
:func:`cache_key` — is the one job identity of the journal and of
``run_grid(checkpoint=...)``.

A JSON serialization of :class:`RunResult` is also provided for
interchange with external tooling; it drops non-JSON-able ``extra``
entries (notably the decoupled ``program``) but round-trips the numbers.
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

import numpy as np

from .. import __version__
from ..config import GPUConfig
from ..sim.gpu import RunResult
from ..sim.launch import KernelLaunch
from ..stats import Stats

#: Bump to invalidate every existing cache entry without a version change.
CACHE_SCHEMA = 1


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
    h.update(repr((launch.grid_dim, launch.block_dim,
                   sorted(launch.params.items()),
                   launch.shared_words)).encode())
    h.update(np.ascontiguousarray(launch.memory.words).tobytes())
    h.update(json.dumps(dataclasses.asdict(config),
                        sort_keys=True).encode())
    return h.hexdigest()


def job_digest(task, scale: str) -> str:
    """Identity of one ``(abbr, technique, GPUConfig)`` grid cell at
    ``scale``: the job journal's key and its blobs' file names."""
    abbr, technique, config = task
    h = _salted_sha256()
    h.update(json.dumps([abbr, technique, scale, dataclasses.asdict(config)],
                        sort_keys=True).encode())
    return h.hexdigest()[:24]


# ---------------------------------------------------------------------------
# The result codec.

def encode_result(result: RunResult) -> bytes:
    """A :class:`RunResult` as bytes.  Device-memory images are mostly
    zeros, so a pickle is zlib-compressed (level 1: ~100x smaller for
    typical runs at negligible CPU cost)."""
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
# JSON serialization of RunResult (pickle needs no help).

def result_to_json_dict(result: RunResult) -> dict:
    """JSON-able form of a :class:`RunResult`.  ``extra`` values that do
    not serialize (e.g. the decoupled program object) are dropped; numpy
    arrays are tagged so :func:`result_from_json_dict` can rebuild them."""
    extra = {}
    for key, value in result.extra.items():
        if isinstance(value, np.ndarray):
            extra[key] = {"__ndarray__": value.tolist()}
            continue
        try:
            json.dumps(value)
        except TypeError:
            continue
        extra[key] = value
    return {
        "cycles": result.cycles,
        "kernel_name": result.kernel_name,
        "stats": result.stats.as_dict(),
        "config": dataclasses.asdict(result.config),
        "extra": extra,
    }


def result_from_json_dict(data: dict) -> RunResult:
    extra = {}
    for key, value in data.get("extra", {}).items():
        if isinstance(value, dict) and "__ndarray__" in value:
            value = np.asarray(value["__ndarray__"], dtype=np.float64)
        extra[key] = value
    return RunResult(
        cycles=data["cycles"],
        stats=Stats.from_dict(data["stats"]),
        config=GPUConfig.from_dict(data["config"]),
        kernel_name=data["kernel_name"],
        extra=extra,
    )


def result_to_json(result: RunResult) -> str:
    return json.dumps(result_to_json_dict(result), sort_keys=True)


def result_from_json(text: str) -> RunResult:
    return result_from_json_dict(json.loads(text))


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
