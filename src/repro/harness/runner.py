"""One-call benchmark running, memoized in-process and (optionally) on disk.

Every figure in the paper's evaluation is a view over the same set of runs
(29 benchmarks × 4 techniques), so the harness runs each (benchmark,
technique, scale, config) combination once and caches the result — in a
process-local dict for the duration of the process, and, when a
:class:`~repro.harness.diskcache.DiskCache` is configured via
:func:`configure_cache`, in a content-addressed on-disk store that makes
warm runs of any figure skip simulation entirely.

All simulation goes through :func:`simulate_launch`, the single picklable
dispatch point shared by the serial path, the multiprocess executor
(:mod:`repro.harness.parallel`), the CLI, and the sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import GPUConfig
from ..core import run_dac
from ..sim.gpu import RunResult, simulate
from ..sim.launch import KernelLaunch
from ..workloads import get
from .diskcache import DiskCache, cache_key, default_cache_dir

TECHNIQUES = ("baseline", "cae", "mta", "dac")

_cache: dict[tuple, RunResult] = {}
_disk: DiskCache | None = None


def experiment_config(num_sms: int = 4) -> GPUConfig:
    """The configuration used by experiments: the paper's per-SM machine
    with a reduced SM count and proportionally scaled L2/DRAM (see
    DESIGN.md; EXPERIMENTS.md records the exact setting used)."""
    return GPUConfig.gtx480().scaled(num_sms)


# ---------------------------------------------------------------------------
# Disk-cache configuration (process-wide; workers re-configure themselves).

def configure_cache(cache_dir=None, enabled: bool = True) -> DiskCache | None:
    """Set the process-wide on-disk result store.

    ``cache_dir=None`` uses :func:`default_cache_dir`;
    ``enabled=False`` turns the disk cache off (the in-process memo cache
    is unaffected).  Returns the active cache, if any.
    """
    global _disk
    if not enabled:
        _disk = None
        return None
    _disk = DiskCache(cache_dir if cache_dir is not None
                      else default_cache_dir())
    return _disk


def disk_cache() -> DiskCache | None:
    """The currently configured on-disk store (``None`` when disabled)."""
    return _disk


# ---------------------------------------------------------------------------
# Simulation entry points.

def simulate_launch(launch: KernelLaunch, technique: str,
                    config: GPUConfig, tracer=None) -> RunResult:
    """Simulate one launch under one technique — the single, picklable
    ``run_dac``/``simulate`` dispatch used by every harness path (and the
    seam tests wrap to count simulations)."""
    if technique == "dac":
        result = run_dac(launch, config, tracer=tracer)
    else:
        result = simulate(launch, config.with_technique(technique),
                          tracer=tracer)
    result.extra["memory_words"] = launch.memory.image()
    return result


def run_launch(launch: KernelLaunch, technique: str, config: GPUConfig,
               use_cache: bool = True, tracer=None) -> RunResult:
    """Simulate a launch, consulting and feeding the disk cache.  Traced
    runs bypass the disk cache entirely: cached results carry no trace, and
    a traced result must not be stored where untraced readers expect a
    plain one."""
    disk = _disk if (use_cache and tracer is None) else None
    key = None
    if disk is not None:
        key = cache_key(launch, technique, config)
        cached = disk.load(key)
        if cached is not None:
            return cached
    if tracer is not None:
        result = simulate_launch(launch, technique, config, tracer=tracer)
    else:
        # No kwarg on the untraced path: callers (and tests) may wrap
        # ``simulate_launch`` with positional-only shims.
        result = simulate_launch(launch, technique, config)
    if disk is not None:
        disk.store(key, result)
    return result


def _key(abbr: str, technique: str, scale: str, config: GPUConfig):
    return (abbr, technique, scale, config)


def _remember(abbr: str, technique: str, scale: str, config: GPUConfig,
              result: RunResult) -> None:
    """Install an externally produced result (e.g. from a worker process)
    into the in-process memo cache."""
    _cache[_key(abbr, technique, scale, config)] = result


def is_cached(abbr: str, technique: str, scale: str,
              config: GPUConfig) -> bool:
    return _key(abbr, technique, scale, config) in _cache


def run_one(abbr: str, technique: str = "baseline", scale: str = "paper",
            config: GPUConfig | None = None,
            use_cache: bool = True, trace=None) -> RunResult:
    """Simulate one benchmark under one technique (memoized).

    ``trace`` may be ``True`` (build a fresh :class:`~repro.trace.Tracer`)
    or a ready tracer instance.  Traced runs bypass both the memo and disk
    caches and attach the tracer as ``result.extra["tracer"]``.
    """
    config = config or experiment_config()
    tracer = None
    if trace:
        from ..trace import Tracer
        tracer = trace if not isinstance(trace, bool) else Tracer()
    key = _key(abbr, technique, scale, config)
    if tracer is None and use_cache and key in _cache:
        return _cache[key]
    launch = get(abbr).launch(scale)
    result = run_launch(launch, technique, config, use_cache=use_cache,
                        tracer=tracer)
    if tracer is not None:
        result.extra["tracer"] = tracer
    elif use_cache:
        _cache[key] = result
    return result


def run_benchmark(abbr: str, scale: str = "paper",
                  config: GPUConfig | None = None,
                  techniques=TECHNIQUES) -> dict[str, RunResult]:
    """All requested techniques for one benchmark, with a functional
    cross-check: every technique must produce the identical memory image."""
    return _cross_check(abbr, {t: run_one(abbr, t, scale, config)
                               for t in techniques})


def _cross_check(abbr: str,
                 results: dict[str, RunResult]) -> dict[str, RunResult]:
    """Every technique must leave the baseline's memory image."""
    if "baseline" in results:
        ref = results["baseline"].extra["memory_words"]
        for tech, res in results.items():
            if not np.array_equal(ref, res.extra["memory_words"]):
                raise AssertionError(
                    f"{abbr}: {tech} output differs from baseline")
    return results


def run_suite(abbrs, scale: str = "paper",
              config: GPUConfig | None = None,
              techniques=TECHNIQUES,
              progress=None, jobs: int = 1,
              use_cache: bool = True,
              timeout: float | None = None, retries: int = 1,
              service=None) -> dict[str, dict[str, RunResult]]:
    """Run the (benchmark × technique) grid.

    With ``jobs > 1`` the grid is fanned out over worker processes first
    (falling back to serial on worker failure) and assembled from the
    cells it returns; only a quarantined cell runs again here.
    ``timeout``/``retries`` harden the parallel fan-out, and ``service``
    routes it through a running experiment daemon — see
    :func:`repro.harness.parallel.run_grid`.
    """
    config = config or experiment_config()
    abbrs = list(abbrs)
    grid: dict = {}
    if jobs and jobs > 1:
        from .parallel import run_grid
        grid = run_grid([(abbr, tech, config) for abbr in abbrs
                         for tech in techniques],
                        scale, jobs=jobs, use_cache=use_cache,
                        timeout=timeout, retries=retries, service=service)
    out = {}
    for abbr in abbrs:
        out[abbr] = _cross_check(abbr, {
            t: grid.get((abbr, t, config)) or run_one(abbr, t, scale, config)
            for t in techniques})
        if progress is not None:
            progress(abbr, out[abbr])
    return out


def clear_cache() -> None:
    """Drop the in-process memo cache (the disk cache is untouched; use
    ``disk_cache().clear()`` for that)."""
    _cache.clear()


@dataclass
class Geomean:
    """Running geometric mean."""

    values: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.values.append(max(value, 1e-12))

    @property
    def mean(self) -> float:
        if not self.values:
            return float("nan")
        return float(np.exp(np.mean(np.log(self.values))))
