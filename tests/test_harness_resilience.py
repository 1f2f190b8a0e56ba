"""Hardened harness: per-cell timeouts, bounded retry, quarantine,
corrupt-cache quarantine, and failure classification.

The tests marked ``resilience`` drive ``run_grid``'s real supervised
worker pool.  Spawned workers do not see monkeypatches, so faults are
injected through ``REPRO_CHAOS`` (:mod:`repro.service.chaos`): a worker
that dies mid-cell, and a genuinely hung worker the grid must survive.
"""

import pytest

from repro.service import chaos
from repro.harness import GridReport, clear_cache, configure_cache, experiment_config
from repro.harness import runner
from repro.harness.client import RemoteTaskError
from repro.harness.diskcache import DiskCache
from repro.harness.parallel import default_jobs, run_grid

CFG = experiment_config(num_sms=2)


@pytest.fixture(autouse=True)
def _no_disk_cache():
    clear_cache()
    configure_cache(enabled=False)
    yield
    clear_cache()


# ---------------------------------------------------------------------------
# default_jobs / diskcache satellites


def test_default_jobs_warns_on_invalid_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "three")
    with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
        assert default_jobs() >= 1


def test_diskcache_quarantines_corrupt_entry(tmp_path):
    cache = DiskCache(tmp_path)
    path = cache._path("deadbeef")
    path.write_bytes(b"this is not a zlib pickle")
    assert cache.load("deadbeef") is None          # reads as a miss
    assert cache.corrupt == 1
    assert not path.exists()                       # moved aside, not live
    assert "deadbeef" not in cache
    sidecars = list(tmp_path.glob(f"*{DiskCache.CORRUPT_SUFFIX}"))
    assert len(sidecars) == 1                      # bytes kept for forensics
    # A second load is a plain miss: no re-parse, no double count.
    assert cache.load("deadbeef") is None
    assert cache.corrupt == 1
    # clear() sweeps quarantined entries but does not count them as live.
    assert cache.clear() == 0
    assert not list(tmp_path.glob(f"*{DiskCache.CORRUPT_SUFFIX}"))


# ---------------------------------------------------------------------------
# Real supervised worker processes, faults injected via REPRO_CHAOS


TASKS = [("CP", "baseline", CFG), ("ST", "baseline", CFG)]


def _chaos(monkeypatch, tmp_path, spec: str) -> None:
    monkeypatch.setenv(chaos.ENV_SPEC, spec)
    monkeypatch.setenv(chaos.ENV_DIR, str(tmp_path / "chaos-tokens"))


def _serial_reference(tasks) -> dict:
    return {task: runner.run_one(task[0], task[1], "tiny", task[2],
                                 use_cache=False)
            for task in tasks}


@pytest.mark.resilience
def test_crashed_worker_is_retried_and_grid_completes(monkeypatch,
                                                      tmp_path):
    """A worker that dies mid-cell costs that cell one strike: it is
    re-run on a respawned worker and the grid matches serial bit for
    bit."""
    _chaos(monkeypatch, tmp_path, "die:CP/baseline@1")
    report = GridReport()
    results = run_grid(TASKS, "tiny", jobs=2, report=report)
    assert report.retries == 1
    assert report.timeouts == 0 and report.quarantined == []
    ref = _serial_reference(TASKS)
    for task in TASKS:
        assert results[task].cycles == ref[task].cycles
        assert results[task].stats.as_dict() == ref[task].stats.as_dict()


@pytest.mark.resilience
def test_timeouts_quarantine_and_resume(monkeypatch, tmp_path):
    """Cells that time out on every strike are quarantined with their
    reason and the grid returns without them.  The verdicts outlive the
    run only in a daemon's journal (``repro serve --state``)."""
    _chaos(monkeypatch, tmp_path, "hang:*/baseline:60")
    report = GridReport()
    results = run_grid(TASKS, "tiny", jobs=2, timeout=1.0, retries=1,
                       report=report)
    assert results == {}
    assert report.timeouts == 2 * len(TASKS)       # initial try + 1 retry
    assert report.retries == len(TASKS)
    assert sorted(t[0] for t in report.quarantined) == ["CP", "ST"]
    assert all("job_timeout" in reason
               for reason in report.failures.values())


@pytest.mark.resilience
def test_deterministic_worker_exception_reraises():
    """An exception raised by the simulation itself must propagate — a
    retry of a deterministic failure only reproduces it slower."""
    tasks = [("NOPE", "baseline", CFG), ("CP", "baseline", CFG)]
    with pytest.raises(RemoteTaskError, match="NOPE") as info:
        run_grid(tasks, "tiny", jobs=2)
    assert info.value.kind == "KeyError"
    assert info.value.hang is None


@pytest.mark.resilience
def test_hung_worker_is_quarantined_and_grid_completes(monkeypatch,
                                                       tmp_path):
    """Acceptance criterion: with a genuinely hung worker in the pool,
    the rest of the grid completes and the hung cell is quarantined."""
    _chaos(monkeypatch, tmp_path, "hang:LIB/baseline:60")
    tasks = [("CP", "baseline", CFG), ("LIB", "baseline", CFG),
             ("ST", "baseline", CFG)]
    report = GridReport()
    results = run_grid(tasks, "tiny", jobs=3, timeout=8.0, retries=0,
                       report=report)
    done = {t[0] for t in results}
    assert done == {"CP", "ST"}
    assert report.timeouts == 1
    assert [t[0] for t in report.quarantined] == ["LIB"]
