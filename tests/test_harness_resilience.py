"""Hardened harness: per-cell timeouts, bounded retry, quarantine,
checkpoint/resume, corrupt-cache quarantine, and failure classification.

The tests marked ``resilience`` drive ``run_grid``'s real supervised
worker pool.  Spawned workers do not see monkeypatches, so faults are
injected through ``REPRO_CHAOS`` (:mod:`repro.faults.chaos`): a worker
that dies mid-cell, and a genuinely hung worker the grid must survive.
"""

import pytest

from repro.faults import chaos
from repro.harness import GridReport, clear_cache, configure_cache, experiment_config
from repro.harness import diskcache, runner
from repro.harness.client import RemoteTaskError
from repro.harness.diskcache import DiskCache, job_digest
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
    _chaos(monkeypatch, tmp_path, "hang:*/baseline:60")
    checkpoint = tmp_path / "ckpt"
    report = GridReport()
    results = run_grid(TASKS, "tiny", jobs=2, timeout=1.0, retries=1,
                       checkpoint=checkpoint, report=report)
    assert results == {}
    assert report.timeouts == 2 * len(TASKS)       # initial try + 1 retry
    assert report.retries == len(TASKS)
    assert sorted(t[0] for t in report.quarantined) == ["CP", "ST"]
    assert all("job_timeout" in reason
               for reason in report.failures.values())
    # A re-run with the same checkpoint remembers the quarantine verdicts
    # and never starts a pool.
    resumed = GridReport()
    results2 = run_grid(TASKS, "tiny", jobs=2, timeout=1.0,
                        checkpoint=checkpoint, report=resumed)
    assert results2 == {}
    assert resumed.timeouts == 0
    assert len(resumed.quarantined) == len(TASKS)


def test_checkpoint_resume_skips_finished_cells(monkeypatch, tmp_path):
    report = GridReport()
    results = run_grid(TASKS, "tiny", jobs=1, use_cache=False,
                       checkpoint=tmp_path, report=report)
    assert report.completed == len(TASKS)
    clear_cache()

    def boom(*a, **kw):
        raise AssertionError("resume must not re-simulate finished cells")

    monkeypatch.setattr(runner, "simulate_launch", boom)
    resumed = GridReport()
    results2 = run_grid(TASKS, "tiny", jobs=1, use_cache=False,
                        checkpoint=tmp_path, report=resumed)
    assert resumed.resumed == len(TASKS)
    assert resumed.completed == 0
    for task in TASKS:
        assert results2[task].cycles == results[task].cycles
        assert results2[task].stats.as_dict() == \
            results[task].stats.as_dict()


def test_checkpoint_from_older_version_is_resimulated(monkeypatch,
                                                      tmp_path):
    """Checkpointed cells are keyed by the package version too: after a
    timing-model change a resume re-simulates instead of replaying."""
    run_grid(TASKS[:1], "tiny", jobs=1, use_cache=False,
             checkpoint=tmp_path)
    clear_cache()
    monkeypatch.setattr(diskcache, "__version__", "0.0.0-newer")
    report = GridReport()
    run_grid(TASKS[:1], "tiny", jobs=1, use_cache=False,
             checkpoint=tmp_path, report=report)
    assert report.resumed == 0
    assert report.completed == 1


def test_corrupt_checkpoint_blob_resimulates_that_cell(monkeypatch,
                                                       tmp_path):
    """A truncated result blob costs exactly its own cell: the resume
    re-simulates it (Stats equal to a serial run) and restores the rest.
    The checkpoint holds nothing but the journal and result blobs."""
    run_grid(TASKS, "tiny", jobs=1, use_cache=False, checkpoint=tmp_path)
    assert {p.name for p in tmp_path.iterdir()
            if not p.name.endswith(DiskCache.SUFFIX)} == {"journal.jsonl"}
    torn = TASKS[0]
    blob = tmp_path / f"{job_digest(torn, 'tiny')}{DiskCache.SUFFIX}"
    blob.write_bytes(blob.read_bytes()[:40])
    clear_cache()

    simulated = []
    real = runner.simulate_launch

    def spy(launch, technique, config, *args, **kwargs):
        simulated.append(launch.kernel.name)
        return real(launch, technique, config, *args, **kwargs)

    monkeypatch.setattr(runner, "simulate_launch", spy)
    report = GridReport()
    results = run_grid(TASKS, "tiny", jobs=1, use_cache=False,
                       checkpoint=tmp_path, report=report)
    assert report.resumed == len(TASKS) - 1
    assert report.completed == 1
    assert simulated == ["cp"]                   # CP's kernel only
    ref = _serial_reference(TASKS)
    for task in TASKS:
        assert results[task].stats.as_dict() == ref[task].stats.as_dict()


def test_resume_decodes_only_this_grids_blobs(tmp_path):
    """A resume opens the blobs of the cells it asks for and no others, so
    a checkpoint shared with a larger sweep (or a daemon's ``--state``
    directory) costs only this grid's cells."""
    run_grid(TASKS, "tiny", jobs=1, use_cache=False, checkpoint=tmp_path)
    other = tmp_path / f"{job_digest(TASKS[1], 'tiny')}{DiskCache.SUFFIX}"
    other.write_bytes(b"torn")
    clear_cache()
    report = GridReport()
    run_grid(TASKS[:1], "tiny", jobs=1, use_cache=False,
             checkpoint=tmp_path, report=report)
    assert report.resumed == 1
    assert other.exists()                # never read, so never moved aside


@pytest.mark.resilience
def test_retry_quarantined_gives_cells_another_chance(monkeypatch,
                                                      tmp_path):
    """Quarantine is sticky across runs (the checkpoint remembers), but
    ``retry_quarantined=True`` clears the verdict and the cells run —
    and, once they succeed, later resumes restore them as done."""
    checkpoint = tmp_path / "ckpt"
    with monkeypatch.context() as m:
        _chaos(m, tmp_path, "hang:*/baseline:60")
        report = GridReport()
        run_grid(TASKS, "tiny", jobs=2, timeout=1.0, retries=0,
                 checkpoint=checkpoint, report=report)
        assert len(report.quarantined) == len(TASKS)

    # Without the flag: still quarantined, nothing simulated.
    sticky = GridReport()
    results = run_grid(TASKS, "tiny", jobs=1, use_cache=False,
                       checkpoint=checkpoint, report=sticky)
    assert results == {}
    assert len(sticky.quarantined) == len(TASKS)
    assert all("previous run" in reason
               for reason in sticky.failures.values())

    # With the flag: verdicts cleared, cells actually run (serially,
    # with the chaos gone).
    retried = GridReport()
    results = run_grid(TASKS, "tiny", jobs=1, use_cache=False,
                       checkpoint=checkpoint, report=retried,
                       retry_quarantined=True)
    assert set(results) == set(TASKS)
    assert retried.completed == len(TASKS)
    assert retried.quarantined == []

    # The success is durable: a plain resume restores them as done.
    clear_cache()
    resumed = GridReport()
    results2 = run_grid(TASKS, "tiny", jobs=1, use_cache=False,
                        checkpoint=checkpoint, report=resumed)
    assert resumed.resumed == len(TASKS)
    for task in TASKS:
        assert results2[task].cycles == results[task].cycles


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
    the rest of the grid completes, the hung cell is quarantined, and a
    resumed run picks up the finished cells from the checkpoint."""
    _chaos(monkeypatch, tmp_path, "hang:LIB/baseline:60")
    checkpoint = tmp_path / "ckpt"
    tasks = [("CP", "baseline", CFG), ("LIB", "baseline", CFG),
             ("ST", "baseline", CFG)]
    report = GridReport()
    results = run_grid(tasks, "tiny", jobs=3, timeout=8.0, retries=0,
                       checkpoint=checkpoint, report=report)
    done = {t[0] for t in results}
    assert done == {"CP", "ST"}
    assert report.timeouts == 1
    assert [t[0] for t in report.quarantined] == ["LIB"]

    clear_cache()
    resumed = GridReport()
    results2 = run_grid(tasks, "tiny", jobs=3, timeout=8.0, retries=0,
                        checkpoint=checkpoint, report=resumed)
    assert {t[0] for t in results2} == {"CP", "ST"}
    assert resumed.resumed == 2
    assert resumed.timeouts == 0
    assert [t[0] for t in resumed.quarantined] == ["LIB"]
