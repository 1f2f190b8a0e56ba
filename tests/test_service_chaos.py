"""Chaos campaign against the experiment daemon (acceptance criterion).

Every scenario here ends the same way: the full grid is materialized,
journal-replayed cells are not re-simulated, and the results are
bit-identical to a serial reference run.  The scenarios:

* a worker SIGKILL'd mid-cell (watchdog respawns, cell retried);
* the daemon SIGKILL'd mid-grid, then restarted (journal replay);
* injected hangs — bounded (retry succeeds) and unbounded (circuit
  breaker quarantines with partial results);
* two concurrent clients sharing one cache (each cell simulated once,
  no corrupt entries);
* ``run_grid`` routing through the daemon transparently, and falling
  back to the local path when no daemon answers;
* one result store: a served grid leaves its results in the shared
  content-keyed cache only, and a client whose launch differs from the
  one the daemon ran misses there and simulates locally.

Chaos is injected via the ``REPRO_CHAOS*`` environment variables
(:mod:`repro.service.chaos`) passed to the daemon subprocess only — the
pytest process itself simulates chaos-free serial references.  The
``REPRO_CHAOS_LOG`` census proves the exactly-once claims: cache and
journal hits never log, so every line is a genuine re-simulation.

Socket paths live under a short ``/tmp`` scratch dir, not pytest's
``tmp_path`` — ``AF_UNIX`` paths are capped at ~107 bytes.
"""

import dataclasses
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.service import chaos
from repro.harness import clear_cache, configure_cache, experiment_config
from repro.harness import diskcache, runner
from repro.harness.client import (
    SOCKET_ENV,
    ServiceClient,
    ServiceUnavailable,
    try_connect,
)
from repro.harness.parallel import GridReport, run_grid
from repro.service.protocol import job_digest
from repro.workloads import registry

pytestmark = pytest.mark.resilience

CFG = experiment_config(num_sms=2)
SCALE = "tiny"
SRC = str(Path(__file__).resolve().parent.parent / "src")

GRID = [("CP", "baseline", CFG), ("CP", "dac", CFG),
        ("ST", "baseline", CFG), ("ST", "dac", CFG)]


@pytest.fixture(autouse=True)
def _no_disk_cache():
    clear_cache()
    configure_cache(enabled=False)
    yield
    clear_cache()


@pytest.fixture
def svc():
    root = Path(tempfile.mkdtemp(prefix="rsvc-", dir="/tmp"))
    box = SimpleNamespace(
        root=root,
        sock=root / "d.sock",
        state=root / "state",
        cache=root / "cache",
        log=root / "sim.log",
        tokens=root / "tokens",
        procs=[],
    )
    yield box
    for proc in box.procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    shutil.rmtree(root, ignore_errors=True)


def start_daemon(svc, *, workers=2, timeout=60.0, strikes=2,
                 chaos_spec=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CHAOS_LOG"] = str(svc.log)
    env.pop("REPRO_CHAOS", None)
    if chaos_spec:
        env["REPRO_CHAOS"] = chaos_spec
        env["REPRO_CHAOS_DIR"] = str(svc.tokens)
    stderr = open(svc.root / "daemon.log", "ab")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", str(svc.sock), "--state", str(svc.state),
         "--cache-dir", str(svc.cache), "--workers", str(workers),
         "--timeout", str(timeout), "--strikes", str(strikes)],
        env=env, stdout=stderr, stderr=stderr)
    stderr.close()
    svc.procs.append(proc)
    deadline = time.monotonic() + 90.0
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited at startup (rc={proc.returncode}): "
                f"{(svc.root / 'daemon.log').read_text()}")
        client = try_connect(svc.sock, timeout=10.0)
        if client is not None:
            client.close()
            return proc
        time.sleep(0.1)
    proc.kill()
    raise RuntimeError("daemon never answered a ping")


def stop_daemon(svc, proc) -> int:
    """Graceful shutdown via the wire, falling back to SIGKILL."""
    try:
        with ServiceClient(svc.sock, timeout=30.0) as client:
            client.shutdown()
    except Exception:
        pass
    try:
        return proc.wait(timeout=60.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


def serial_reference(tasks):
    """Chaos-free, cache-free in-process runs — the bit-identity oracle."""
    clear_cache()
    ref = {}
    for abbr, technique, config in tasks:
        ref[(abbr, technique)] = runner.run_one(
            abbr, technique, SCALE, config, use_cache=False)
    clear_cache()
    return ref


def assert_bit_identical(result, ref):
    assert result.cycles == ref.cycles
    assert result.stats.as_dict() == ref.stats.as_dict()
    assert np.array_equal(result.extra["memory_words"],
                          ref.extra["memory_words"])


def sim_counts(svc) -> Counter:
    return Counter(chaos.read_log(svc.log))


# ---------------------------------------------------------------------------
# Scenario 1: worker SIGKILL mid-cell


def test_worker_sigkill_mid_cell_grid_completes(svc):
    # A per-cell delay widens the window so the kill lands mid-cell.
    proc = start_daemon(svc, workers=2, chaos_spec="delay:*/*:0.75")
    victim = None
    with ServiceClient(svc.sock) as client:
        client.submit(GRID, SCALE)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and victim is None:
            for worker in client.status()["workers"]:
                if worker["busy"] is not None and worker["alive"]:
                    victim = worker
                    break
            time.sleep(0.02)
        assert victim is not None, "no worker ever went busy"
        os.kill(victim["pid"], signal.SIGKILL)

        results, quarantined, failures = client.run_tasks(GRID, SCALE)
        assert quarantined == [] and failures == {}
        assert set(results) == set(GRID)
        status = client.status()
        assert sum(w["respawns"] for w in status["workers"]) >= 1
        assert all(w["alive"] for w in status["workers"])

    ref = serial_reference(GRID)
    for (abbr, technique, _cfg), result in results.items():
        assert_bit_identical(result, ref[(abbr, technique)])

    # Every cell simulated at least once; only the killed cell may have
    # needed a second attempt.
    counts = sim_counts(svc)
    assert {key for key in counts} == {(a, t) for a, t, _ in GRID}
    assert sum(counts.values()) <= len(GRID) + 1
    assert stop_daemon(svc, proc) == 0


# ---------------------------------------------------------------------------
# Scenario 2: daemon SIGKILL mid-grid, restart, journal replay


def test_daemon_sigkill_and_restart_replays_journal(svc):
    grid = GRID + [("HI", "baseline", CFG), ("HI", "dac", CFG)]
    digests = {job_digest(task, SCALE): task for task in grid}

    proc1 = start_daemon(svc, workers=2, chaos_spec="delay:*/*:0.3")
    with ServiceClient(svc.sock) as client:
        client.submit(grid, SCALE)
        deadline = time.monotonic() + 60.0
        status = None
        # report.completed increments strictly after the journal fsync
        # (unlike the supervisor's own counts), so >= 2 here guarantees
        # at least two durable "done" records survive the SIGKILL.
        while time.monotonic() < deadline:
            status = client.status()
            if status["report"]["completed"] >= 2:
                break
            time.sleep(0.05)
        assert status is not None and status["report"]["completed"] >= 2
        worker_pids = [w["pid"] for w in status["workers"] if w["alive"]]
    proc1.kill()                       # SIGKILL: no drain, no cleanup
    proc1.wait()

    # Orphaned workers finish their in-flight cell (into the shared disk
    # cache) and exit on the broken pipe; wait so generation 2 observes a
    # quiet world and the exactly-once census below is deterministic.
    deadline = time.monotonic() + 60.0
    alive = list(worker_pids)
    while alive and time.monotonic() < deadline:
        survivors = []
        for pid in alive:
            try:
                os.kill(pid, 0)
                survivors.append(pid)
            except (ProcessLookupError, PermissionError):
                pass
        alive = survivors
        if alive:
            time.sleep(0.1)
    assert not alive, f"orphan workers survived: {alive}"

    proc2 = start_daemon(svc, workers=2)       # same journal, no chaos
    with ServiceClient(svc.sock) as client:
        results, quarantined, failures = client.run_tasks(grid, SCALE)
        assert quarantined == [] and failures == {}
        assert set(results) == set(grid)
        report = GridReport.from_dict(client.status()["report"])
        assert report.resumed >= 2     # journal replay answered instantly

    ref = serial_reference(grid)
    for (abbr, technique, _cfg), result in results.items():
        assert_bit_identical(result, ref[(abbr, technique)])

    # The census: across both daemon generations, every cell was
    # simulated exactly once — journal/cache replay, never re-work.
    counts = sim_counts(svc)
    assert counts == Counter({(a, t): 1 for a, t, _ in grid})
    assert len(digests) == len(grid)
    assert stop_daemon(svc, proc2) == 0


# ---------------------------------------------------------------------------
# Scenario 3: injected hangs — bounded retry, then breaker quarantine


def test_single_hang_is_killed_and_retried_to_completion(svc):
    grid = [("CP", "baseline", CFG), ("ST", "baseline", CFG),
            ("ST", "dac", CFG)]
    proc = start_daemon(svc, workers=2, timeout=2.0, strikes=3,
                        chaos_spec="hang:ST/dac:60@1")
    with ServiceClient(svc.sock) as client:
        results, quarantined, failures = client.run_tasks(grid, SCALE)
        assert quarantined == [] and failures == {}
        assert set(results) == set(grid)
        status = client.status()
        report = GridReport.from_dict(status["report"])
        assert report.timeouts >= 1 and report.retries >= 1
        assert sum(w["respawns"] for w in status["workers"]) >= 1

    ref = serial_reference(grid)
    for (abbr, technique, _cfg), result in results.items():
        assert_bit_identical(result, ref[(abbr, technique)])
    assert stop_daemon(svc, proc) == 0


def test_repeated_hang_trips_breaker_with_partial_results(svc):
    grid = [("CP", "baseline", CFG), ("ST", "baseline", CFG),
            ("HI", "dac", CFG)]
    proc = start_daemon(svc, workers=2, timeout=1.5, strikes=2,
                        chaos_spec="hang:HI/dac:60")    # unbounded
    with ServiceClient(svc.sock) as client:
        results, quarantined, failures = client.run_tasks(
            grid, SCALE, wait_timeout=5.0)
        assert {t[:2] for t in results} == {("CP", "baseline"),
                                            ("ST", "baseline")}
        assert [t[:2] for t in quarantined] == [("HI", "dac")]
        reason = failures[("HI", "dac", CFG)]
        assert "circuit breaker" in reason and "job_timeout" in reason
        report = GridReport.from_dict(client.status()["report"])
        assert [t[:2] for t in report.quarantined] == [("HI", "dac")]
        assert report.timeouts >= 2    # one per strike

    ref = serial_reference([t for t in grid if t[0] != "HI"])
    for (abbr, technique, _cfg), result in results.items():
        assert_bit_identical(result, ref[(abbr, technique)])
    assert stop_daemon(svc, proc) == 0


# ---------------------------------------------------------------------------
# Scenario 4: two concurrent clients, one cache


def test_two_clients_share_one_cache_without_duplicates(svc):
    proc = start_daemon(svc, workers=2)
    outcomes = {}

    def one_client(name):
        with ServiceClient(svc.sock) as client:
            outcomes[name] = client.run_tasks(GRID, SCALE)

    threads = [threading.Thread(target=one_client, args=(n,))
               for n in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert set(outcomes) == {"a", "b"}

    ref = serial_reference(GRID)
    for name in ("a", "b"):
        results, quarantined, failures = outcomes[name]
        assert quarantined == [] and failures == {}
        assert set(results) == set(GRID)
        for (abbr, technique, _cfg), result in results.items():
            assert_bit_identical(result, ref[(abbr, technique)])

    # Content-digest dedup: the double submission cost zero extra work.
    assert sim_counts(svc) == Counter({(a, t): 1 for a, t, _ in GRID})
    assert not list(svc.cache.glob("*.corrupt"))
    assert stop_daemon(svc, proc) == 0


# ---------------------------------------------------------------------------
# Scenario 5: transparent run_grid routing and local fallback


def test_run_grid_routes_through_daemon_transparently(svc, monkeypatch):
    proc = start_daemon(svc, workers=2)
    monkeypatch.setenv(SOCKET_ENV, str(svc.sock))

    def boom(*args, **kwargs):
        raise AssertionError("service routing must not simulate locally")

    monkeypatch.setattr(runner, "simulate_launch", boom)
    report = GridReport()
    results = run_grid(GRID, SCALE, jobs=4, report=report)
    assert set(results) == set(GRID)
    assert report.completed == len(GRID)

    # The daemon's results land in the local memo cache: a serial
    # follow-up is pure hits even with simulation booby-trapped.
    again = runner.run_one("CP", "baseline", SCALE, CFG)
    assert again.cycles == results[("CP", "baseline", CFG)].cycles
    assert stop_daemon(svc, proc) == 0


def test_run_grid_falls_back_without_a_daemon(svc, monkeypatch):
    monkeypatch.setenv(SOCKET_ENV, str(svc.root / "absent.sock"))
    report = GridReport()
    results = run_grid(GRID[:2], SCALE, jobs=1, use_cache=False,
                       report=report)
    assert set(results) == set(GRID[:2])
    assert report.completed == 2

    ref = serial_reference(GRID[:2])
    for (abbr, technique, _cfg), result in results.items():
        assert_bit_identical(result, ref[(abbr, technique)])


def test_run_grid_skips_a_daemon_of_another_version(svc, monkeypatch):
    """A daemon of another package version salts its job digests
    differently, so it can never answer for this client's cells: the
    handshake turns it away and the grid runs on the local pool."""
    proc = start_daemon(svc, workers=1)
    monkeypatch.setenv(SOCKET_ENV, str(svc.sock))
    monkeypatch.setattr(diskcache, "__version__", "0.0.0-newer")
    assert try_connect(svc.sock) is None

    report = GridReport()
    results = run_grid(GRID[:2], SCALE, jobs=1, use_cache=False,
                       report=report)
    assert set(results) == set(GRID[:2])
    assert report.completed == 2
    assert sim_counts(svc) == Counter()          # the daemon ran nothing
    ref = serial_reference(GRID[:2])
    for (abbr, technique, _cfg), result in results.items():
        assert_bit_identical(result, ref[(abbr, technique)])

    # Past the handshake, replies naming jobs the client cannot match
    # end the conversation instead of looping on them.
    with ServiceClient(svc.sock) as client:
        with pytest.raises(ServiceUnavailable):
            client.wait(job_digest(GRID[0], SCALE), timeout=0.1)
        with pytest.raises(ServiceUnavailable):
            client.run_tasks(GRID[:1], SCALE)         # the handshake
        monkeypatch.setattr(client, "ping",
                            lambda: {"cache": str(svc.cache)})
        with pytest.raises(ServiceUnavailable, match="unknown job"):
            client.run_tasks(GRID[:1], SCALE)
    assert stop_daemon(svc, proc) == 0


# ---------------------------------------------------------------------------
# Scenario 6: one result store, read by content key


def test_served_results_live_only_in_the_cache(svc):
    proc = start_daemon(svc, workers=2)
    with ServiceClient(svc.sock) as client:
        results, quarantined, failures = client.run_tasks(GRID, SCALE)
    assert set(results) == set(GRID) and quarantined == []
    assert stop_daemon(svc, proc) == 0

    assert list(svc.state.glob("*.pkl.z")) == []
    cache = diskcache.DiskCache(svc.cache)
    assert len(cache) == len(GRID)
    for abbr, technique, config in GRID:
        key = diskcache.cache_key(registry.get(abbr).launch(SCALE),
                                  technique, config)
        assert_bit_identical(cache.load(key),
                             results[(abbr, technique, config)])


def test_changed_launch_is_not_served_a_stale_result(svc, monkeypatch):
    """The daemon ran ST under one launch; a client whose ST launch has
    changed since (same job name, other content) must get its own
    launch's result, simulated locally, not the daemon's."""
    task = ("ST", "baseline", CFG)
    proc = start_daemon(svc, workers=1)
    with ServiceClient(svc.sock) as client:
        stale = client.run_tasks([task], SCALE)[0][task]

    st = registry.BY_ABBR["ST"]

    def fewer_steps(scale):
        launch = st.build(scale)
        launch.params["steps"] = 1
        return launch

    monkeypatch.setitem(registry.BY_ABBR, "ST",
                        dataclasses.replace(st, build=fewer_steps))
    expected = runner.simulate_launch(fewer_steps(SCALE), "baseline", CFG)
    assert expected.cycles != stale.cycles

    results = run_grid([task], SCALE, jobs=1, service=svc.sock)
    assert_bit_identical(results[task], expected)
    assert sim_counts(svc) == Counter({("ST", "baseline"): 1})
    assert stop_daemon(svc, proc) == 0
