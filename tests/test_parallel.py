"""Tests for the multiprocess grid executor: bit-identical results,
memo-cache installation, and graceful serial fallback when the
supervised worker pool cannot start."""

import pytest

from repro.harness import (
    clear_cache,
    configure_cache,
    experiment_config,
    run_suite,
)
from repro.harness import runner
from repro.harness.parallel import default_jobs, run_grid
from repro.service import supervisor

CFG = experiment_config(num_sms=2)
ABBRS = ["CP", "LIB", "ST"]
TECHS = ("baseline", "dac")


@pytest.fixture(autouse=True)
def _no_disk_cache():
    clear_cache()
    configure_cache(enabled=False)
    yield
    clear_cache()


def test_parallel_suite_bit_identical_to_serial():
    """Acceptance criterion: --jobs N produces the same RunResult stats,
    bit for bit, as a serial run."""
    serial = run_suite(ABBRS, "tiny", CFG, techniques=TECHS)
    clear_cache()
    par = run_suite(ABBRS, "tiny", CFG, techniques=TECHS, jobs=2)
    for abbr in ABBRS:
        for tech in TECHS:
            assert par[abbr][tech].cycles == serial[abbr][tech].cycles
            assert par[abbr][tech].stats.as_dict() == \
                serial[abbr][tech].stats.as_dict()
            assert par[abbr][tech].extra["stalls"] == \
                serial[abbr][tech].extra["stalls"]


def test_run_grid_installs_into_memo_cache(monkeypatch):
    tasks = [(a, t, CFG) for a in ABBRS[:2] for t in TECHS]
    results = run_grid(tasks, "tiny", jobs=2)
    assert set(results) == set(tasks)
    for abbr, tech, config in tasks:
        assert runner.is_cached(abbr, tech, "tiny", config)
    # The grid results now serve the serial path without simulating.
    calls = []
    real = runner.simulate_launch
    monkeypatch.setattr(
        runner, "simulate_launch",
        lambda *a: (calls.append(a), real(*a))[1])
    run_suite(ABBRS[:2], "tiny", CFG, techniques=TECHS)
    assert calls == []


def test_parallel_suite_without_cache_simulates_nothing_in_parent(
        monkeypatch):
    """With caching off, the suite is assembled from the cells the
    parallel grid returned, not simulated a second time here."""
    calls = []
    real = runner.simulate_launch
    monkeypatch.setattr(
        runner, "simulate_launch",
        lambda *a: (calls.append(a), real(*a))[1])
    out = run_suite(["ST"], "tiny", CFG, jobs=2, use_cache=False,
                    service=False)
    assert set(out["ST"]) == set(runner.TECHNIQUES)
    assert calls == []


def test_serial_suite_without_cache_simulates_every_cell(monkeypatch):
    """``use_cache=False`` reaches the serial path too: every call
    simulates each technique and leaves nothing in the memo cache."""
    calls = []
    real = runner.simulate_launch
    monkeypatch.setattr(
        runner, "simulate_launch",
        lambda *a: (calls.append(a), real(*a))[1])
    for _ in range(2):
        calls.clear()
        run_suite(["ST"], "tiny", CFG, jobs=1, use_cache=False)
        assert len(calls) == len(runner.TECHNIQUES)
    assert not any(runner.is_cached("ST", t, "tiny", CFG)
                   for t in runner.TECHNIQUES)


def test_run_grid_reports_progress():
    seen = []
    run_grid([(a, "baseline", CFG) for a in ABBRS], "tiny", jobs=2,
             progress=lambda done, total, abbr, tech, res: seen.append(
                 (done, total, abbr, tech, res.cycles)))
    assert len(seen) == len(ABBRS)
    assert {s[2] for s in seen} == set(ABBRS)
    assert all(s[1] == len(ABBRS) for s in seen)


class _BrokenPool:
    """Stand-in supervisor whose construction fails like an exhausted
    system (fork failure)."""

    def __init__(self, *a, **kw):
        raise OSError("cannot fork")


_Supervisor = supervisor.Supervisor


class _DeadWorkerPool:
    """A real supervisor whose second worker fails to spawn: the worker
    it did start must not leak, and the grid runs serially."""

    started: list = []

    def __new__(cls, *a, **kw):
        real_spawn = supervisor._Worker.spawn

        def spawn(worker):
            if worker.wid > 0:
                raise OSError("cannot fork")
            real_spawn(worker)
            cls.started.append(worker)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(supervisor._Worker, "spawn", spawn)
            return _Supervisor(*a, **kw)


@pytest.mark.parametrize("pool_cls", [_BrokenPool, _DeadWorkerPool])
def test_fallback_to_serial_on_worker_failure(monkeypatch, capsys, pool_cls):
    monkeypatch.setattr(supervisor, "Supervisor", pool_cls)
    serial = run_suite(ABBRS[:2], "tiny", CFG, techniques=("baseline",))
    clear_cache()
    par = run_suite(ABBRS[:2], "tiny", CFG, techniques=("baseline",),
                    jobs=4)
    for abbr in ABBRS[:2]:
        assert par[abbr]["baseline"].cycles == \
            serial[abbr]["baseline"].cycles
    assert "running serially" in capsys.readouterr().err
    if pool_cls is _DeadWorkerPool:
        assert _DeadWorkerPool.started            # one worker did start
        assert not any(w.proc.is_alive() for w in _DeadWorkerPool.started)


def test_serial_path_taken_for_single_task(monkeypatch):
    # One pending task never pays for a worker pool.
    monkeypatch.setattr(supervisor, "Supervisor", _BrokenPool)
    results = run_grid([("CP", "baseline", CFG)], "tiny", jobs=8)
    assert len(results) == 1


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert default_jobs() == 7
    monkeypatch.setenv("REPRO_JOBS", "junk")
    assert default_jobs() >= 1
