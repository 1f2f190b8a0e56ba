"""Units of the experiment service below the daemon: wire protocol,
chaos directives, write-ahead journal replay, lossless wire forms of
``SimulationHang``/``GridReport``, the daemon's submit handling and the
client's routing against stand-ins, and the supervised worker pool.

The supervisor tests spawn real worker processes and are marked
``resilience``; everything else is pure and fast.  The full daemon —
socket, crash/restart — is exercised end-to-end in
``test_service_chaos.py``.
"""

import asyncio
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.config import GPUConfig
from repro.service import chaos
from repro.harness import clear_cache, configure_cache, experiment_config
from repro.harness import client, diskcache, runner
from repro.harness.client import (
    SOCKET_ENV,
    ServiceClient,
    ServiceUnavailable,
    default_socket_path,
)
from repro.harness.parallel import GridReport, run_grid
from repro.service.journal import JobJournal
from repro.service.protocol import (
    ProtocolError,
    decode,
    encode,
    job_digest,
    task_from_wire,
    task_to_wire,
)
from repro.service.supervisor import Supervisor
from repro.sim.gpu import SimulationHang

CFG = experiment_config(num_sms=2)
TASK = ("CP", "baseline", CFG)
SCALE = "tiny"


@pytest.fixture(autouse=True)
def _no_disk_cache():
    clear_cache()
    configure_cache(enabled=False)
    yield
    configure_cache(enabled=False)
    clear_cache()


# ---------------------------------------------------------------------------
# Wire protocol


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"op": "submit", "jobs": [1, 2], "nested": {"a": None}}
        line = encode(message)
        assert line.endswith(b"\n")
        assert decode(line) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode(b"not json\n")
        with pytest.raises(ProtocolError):
            decode(b"[1, 2, 3]\n")           # frames must be objects

    def test_task_wire_roundtrip_preserves_config(self):
        wire = task_to_wire(TASK, SCALE)
        back_task, back_scale = task_from_wire(json.loads(json.dumps(wire)))
        assert back_task == TASK
        assert isinstance(back_task[2], GPUConfig)
        assert back_scale == SCALE

    def test_malformed_job_raises(self):
        with pytest.raises(ProtocolError):
            task_from_wire({"abbr": "CP"})

    @pytest.mark.parametrize("field", [
        "warp_size", "active_warps_per_scheduler", "registers_per_sm",
        "cae", "dac.dcrf_entries"])
    def test_retired_config_field_is_malformed(self, field):
        """A wire task journaled before a config field was deleted no
        longer decodes, so journal replay quarantines it."""
        wire = task_to_wire(TASK, SCALE)
        *owners, name = field.split(".")
        config = wire["config"]
        for owner in owners:
            config = config[owner]
        config[name] = 2
        with pytest.raises(ProtocolError, match="malformed job"):
            task_from_wire(wire)

    def test_job_digest_is_content_addressed(self, monkeypatch):
        a = job_digest(TASK, SCALE)
        assert a == job_digest(TASK, SCALE)
        assert a != job_digest(TASK, "paper")
        assert a != job_digest(("CP", "dac", CFG), SCALE)
        other = experiment_config(num_sms=4)
        assert a != job_digest(("CP", "baseline", other), SCALE)
        # A new timing model is a new job, exactly as for cache_key.
        monkeypatch.setattr(diskcache, "__version__", "0.0.0-older")
        assert a != job_digest(TASK, SCALE)


# ---------------------------------------------------------------------------
# Chaos directives


class TestChaosSpec:
    def test_parse_full_spec(self):
        die, delay = chaos.parse_spec("die:CP/dac@1; delay:*/*:0.1")
        assert (die.kind, die.abbr, die.technique, die.limit) == \
            ("die", "CP", "dac", 1)
        assert (delay.kind, delay.arg, delay.limit) == ("delay", 0.1, None)
        assert die.matches("CP", "dac") and not die.matches("CP", "mta")
        assert delay.matches("ST", "baseline")

    def test_parse_rejects_malformed_specs(self):
        for bad in ("die", "die:CP", "explode:CP/dac", "die:CP/dac:x",
                    "die:CP/dac@soon"):
            with pytest.raises(chaos.ChaosSpecError):
                chaos.parse_spec(bad)

    def test_limit_tokens_are_claimed_atomically(self, tmp_path):
        (directive,) = chaos.parse_spec("delay:CP/dac:0@2")
        assert chaos._claim_token(directive, str(tmp_path))
        assert chaos._claim_token(directive, str(tmp_path))
        assert not chaos._claim_token(directive, str(tmp_path))

    def test_exhausted_directive_does_not_fire(self, tmp_path):
        directives = chaos.parse_spec("hang:CP/dac:60@1")
        assert chaos._claim_token(directives[0], str(tmp_path))  # use it up
        start = time.monotonic()
        chaos.maybe_fire("CP", "dac", directives, str(tmp_path))
        assert time.monotonic() - start < 1.0

    def test_log_roundtrip(self, tmp_path):
        path = tmp_path / "sim.log"
        chaos.log_simulation("CP", "dac", str(path))
        chaos.log_simulation("ST", "baseline", str(path))
        assert chaos.read_log(path) == [("CP", "dac"), ("ST", "baseline")]
        assert chaos.read_log(tmp_path / "absent.log") == []


# ---------------------------------------------------------------------------
# Lossless wire forms


class TestWireForms:
    def test_simulation_hang_roundtrip_restores_int_sm_keys(self):
        hang = SimulationHang(
            "no_progress", 1234, 1100,
            {"scoreboard": 7.0, "issue.stall": 3.0},
            {0: {"atq": 3, "pwaq": 1}, 2: {"atq": 0}},
            ["sm0 warp0 waiting", "sm2 warp1 ready"])
        back = SimulationHang.from_dict(json.loads(json.dumps(
            hang.to_dict())))
        assert back.reason == hang.reason
        assert back.cycle == hang.cycle
        assert back.last_progress_cycle == hang.last_progress_cycle
        assert back.stall_snapshot == hang.stall_snapshot
        assert back.queue_occupancy == hang.queue_occupancy
        assert all(isinstance(k, int) for k in back.queue_occupancy)
        assert back.warp_states == hang.warp_states
        assert str(back) == str(hang)

    def test_real_hang_survives_the_wire(self):
        import dataclasses

        from repro.isa import parse_kernel
        from repro.sim import GlobalMemory, KernelLaunch, simulate

        kernel = parse_kernel("LOOP:\n mov r0, 1;\n bra LOOP;\n",
                              name="t", params=())
        launch = KernelLaunch(kernel, (1, 1, 1), (32, 1, 1), {},
                              GlobalMemory(1 << 20))
        config = dataclasses.replace(GPUConfig(num_sms=1),
                                     max_cycles=2000)
        with pytest.raises(SimulationHang) as info:
            simulate(launch, config)
        hang = info.value
        back = SimulationHang.from_dict(json.loads(json.dumps(
            hang.to_dict())))
        assert str(back) == str(hang)
        assert back.queue_occupancy == hang.queue_occupancy

    def test_grid_report_roundtrip(self):
        report = GridReport(total=4, completed=2, resumed=1, retries=3,
                            timeouts=2)
        report.quarantined = [("HI", "dac", CFG)]
        report.failures = {("HI", "dac", CFG): "circuit breaker tripped"}
        back = GridReport.from_dict(json.loads(json.dumps(
            report.to_dict())))
        assert back == report
        assert isinstance(back.quarantined[0][2], GPUConfig)
        assert back.summary() == report.summary()
        assert "quarantined" in back.summary()


# ---------------------------------------------------------------------------
# Write-ahead journal


class _StubSupervisor:
    """Stands in for the worker pool when a test drives the daemon's
    replay and submit logic directly."""

    def __init__(self):
        self.submitted = []

    def submit(self, digest, task, scale, strikes=0):
        self.submitted.append((digest, task, scale))

    def state(self, digest):
        return "queued"


class TestJournal:
    def test_replay_lifecycle(self, tmp_path):
        digest = job_digest(TASK, SCALE)
        with JobJournal(tmp_path) as journal:
            journal.record_submit(digest, task_to_wire(TASK, SCALE))
            job = journal.replay()[digest]
            assert job["status"] == "pending" and job["strikes"] == 0

            journal.record_strike(digest, "worker died")
            assert journal.replay()[digest]["strikes"] == 1

            journal.record_quarantine(digest, "breaker tripped")
            job = journal.replay()[digest]
            assert job["status"] == "quarantined"
            assert job["error"] == "breaker tripped"

            # No longer written, but journals from older versions carry
            # it: it returns the job to pending with its strikes cleared.
            journal._append({"op": "unquarantine", "digest": digest})
            job = journal.replay()[digest]
            assert job["status"] == "pending" and job["strikes"] == 0

            journal.record_done(digest)
            assert journal.replay()[digest]["status"] == "done"
        # The journal holds job state only: no result rides along.
        assert [p.name for p in tmp_path.iterdir()] == ["journal.jsonl"]

    def test_torn_tail_and_garbage_lines_are_skipped(self, tmp_path):
        digest = job_digest(TASK, SCALE)
        with JobJournal(tmp_path) as journal:
            journal.record_submit(digest, task_to_wire(TASK, SCALE))
        with open(tmp_path / "journal.jsonl", "a") as handle:
            handle.write("null\n")
            handle.write('{"op": "done", "dig')       # crash mid-append
        with JobJournal(tmp_path) as journal:
            jobs = journal.replay()
            assert list(jobs) == [digest]
            assert jobs[digest]["status"] == "pending"

    def test_older_version_journal_is_not_reused(self, tmp_path,
                                                 monkeypatch):
        """A journal written under another package version neither
        replays as done nor lets the daemon dedup the job into it, and
        the daemon's replay neither resumes nor requeues its entries."""
        from repro.service.daemon import ExperimentDaemon

        digest = job_digest(TASK, SCALE)
        pending = ("CP", "dac", CFG)
        with JobJournal(tmp_path) as journal:
            journal.record_submit(digest, task_to_wire(TASK, SCALE))
            journal.record_done(digest)
            journal.record_submit(job_digest(pending, SCALE),
                                  task_to_wire(pending, SCALE))

        monkeypatch.setattr(diskcache, "__version__", "0.0.0-newer")
        fresh = job_digest(TASK, SCALE)
        with JobJournal(tmp_path) as journal:
            assert fresh not in journal.replay()

        daemon = ExperimentDaemon(tmp_path / "sock", state_dir=tmp_path,
                                  log=lambda msg: None)
        daemon.journal = JobJournal(tmp_path)
        daemon.supervisor = _StubSupervisor()
        try:
            daemon._replay()
            assert daemon.jobs == {} and daemon.report.resumed == 0
            assert daemon.supervisor.submitted == []
            reply = daemon._op_submit(
                {"jobs": [task_to_wire(TASK, SCALE)]})
        finally:
            daemon.journal.close()
        assert reply["jobs"] == [{"digest": fresh, "state": "queued"}]
        assert [d for d, _t, _s in daemon.supervisor.submitted] == [fresh]

    def test_daemon_replay_quarantines_undecodable_submit(self, tmp_path):
        """A submit record whose config carries a retired field (here the
        former ``datapath`` knob) is quarantined with the decode error and
        journaled; replay keeps going and requeues the decodable job."""
        from repro.service.daemon import ExperimentDaemon

        good = job_digest(TASK, SCALE)
        stale_wire = task_to_wire(TASK, SCALE)
        stale_wire["config"] = dict(stale_wire["config"], datapath="scalar")
        stale = "0" * 64
        with JobJournal(tmp_path) as journal:
            journal.record_submit(stale, stale_wire)
            journal.record_submit(good, task_to_wire(TASK, SCALE))

        def replay():
            daemon = ExperimentDaemon(tmp_path / "sock", state_dir=tmp_path,
                                      log=lambda msg: None)
            daemon.journal = JobJournal(tmp_path)
            daemon.supervisor = _StubSupervisor()
            try:
                daemon._replay()
            finally:
                daemon.journal.close()
            return daemon

        daemon = replay()
        job = daemon.jobs[stale]
        assert job.state == "quarantined"
        assert "malformed job description" in job.error
        assert "datapath" in job.error
        assert [d for d, _t, _s in daemon.supervisor.submitted] == [good]
        with JobJournal(tmp_path) as journal:
            entry = journal.replay()[stale]
        assert entry["status"] == "quarantined"
        assert entry["error"] == job.error

        # A second replay keeps the verdict without journaling it again.
        daemon = replay()
        assert daemon.jobs[stale].error == job.error
        lines = (tmp_path / "journal.jsonl").read_text().splitlines()
        assert sum('"quarantine"' in line for line in lines) == 1

    def test_state_dir_defaults_next_to_given_cache_dir(self, tmp_path,
                                                        monkeypatch):
        """``serve --cache-dir X`` without ``--state`` journals under
        ``X/service``, not next to the default cache."""
        from repro.service.daemon import ExperimentDaemon

        monkeypatch.delenv("REPRO_SERVICE_STATE", raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        daemon = ExperimentDaemon(tmp_path / "s.sock",
                                  cache_dir=tmp_path / "c")
        assert daemon.state_dir == tmp_path / "c" / "service"


# ---------------------------------------------------------------------------
# Daemon submit handling and client routing (stand-ins, no processes)


def _stub_daemon(tmp_path):
    """A daemon with an open journal and a stub pool, never started."""
    from repro.service.daemon import ExperimentDaemon

    daemon = ExperimentDaemon(tmp_path / "sock", state_dir=tmp_path,
                              log=lambda msg: None)
    daemon.journal = JobJournal(tmp_path)
    daemon.supervisor = _StubSupervisor()
    return daemon


class _LoopbackClient(ServiceClient):
    """A client wired straight to a daemon's request handler."""

    def __init__(self, daemon):
        self.socket_path = daemon.socket_path
        self.daemon = daemon

    def request(self, payload):
        return asyncio.run(self.daemon._dispatch(payload))

    def close(self):
        pass


class _DyingClient(ServiceClient):
    """Reports the ``done`` digests it holds (their results sit in the
    cache at ``cache``), then loses the daemon on the next wait."""

    def __init__(self, cache, done):
        self.socket_path = Path("stub.sock")
        self.cache = cache
        self.done = set(done)

    def ping(self):
        return {"ok": True, "op": "pong", "cache": str(self.cache)}

    def submit(self, tasks, scale):
        return [{"digest": job_digest(task, scale), "state": "queued"}
                for task in tasks]

    def wait(self, digest, timeout=30.0):
        if digest not in self.done:
            raise ServiceUnavailable("daemon went away")
        self.done.remove(digest)
        return {"ok": True, "digest": digest, "state": "done"}

    def close(self):
        pass


def _count_local_runs(monkeypatch) -> list:
    """Record the abbr of every cell ``run_grid`` runs in this process."""
    ran = []
    real = runner.run_one

    def spy(abbr, *args, **kwargs):
        ran.append(abbr)
        return real(abbr, *args, **kwargs)

    monkeypatch.setattr(runner, "run_one", spy)
    return ran


class TestDaemonSubmit:
    def test_every_submitted_job_is_admitted(self, tmp_path):
        """One submit of more jobs than any queue bound answers
        ``queued`` for each of them."""
        from repro.workloads import ALL_BENCHMARKS

        tasks = [(bench.abbr, technique, CFG) for bench in ALL_BENCHMARKS
                 for technique in runner.TECHNIQUES]
        assert len(tasks) == 116
        daemon = _stub_daemon(tmp_path)
        try:
            reply = daemon._op_submit(
                {"jobs": [task_to_wire(task, SCALE) for task in tasks]})
        finally:
            daemon.journal.close()
        assert reply["ok"]
        assert [job["state"] for job in reply["jobs"]] == \
            ["queued"] * len(tasks)
        assert len(daemon.supervisor.submitted) == len(tasks)
        assert daemon.report.total == len(tasks)

    def test_submit_while_stopping_is_rejected_and_runs_locally(
            self, tmp_path, monkeypatch):
        daemon = _stub_daemon(tmp_path)
        daemon._stopping.set()
        try:
            reply = daemon._op_submit({"jobs": [task_to_wire(TASK, SCALE)]})
            assert reply["ok"] is False and "shutting down" in reply["error"]
            assert daemon.supervisor.submitted == []

            monkeypatch.setattr(client, "try_connect",
                                lambda path: _LoopbackClient(daemon))
            ran = _count_local_runs(monkeypatch)
            report = GridReport()
            results = run_grid([TASK], SCALE, jobs=1, use_cache=False,
                               report=report)
        finally:
            daemon.journal.close()
        assert set(results) == {TASK}
        assert ran == ["CP"] and report.completed == 1
        assert daemon.supervisor.submitted == []


class TestClientRouting:
    def test_default_socket_sits_next_to_the_cache(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.delenv(SOCKET_ENV, raising=False)
        assert default_socket_path(tmp_path / "c") == \
            tmp_path / "c" / "service.sock"
        monkeypatch.setenv(SOCKET_ENV, str(tmp_path / "env.sock"))
        assert default_socket_path(tmp_path / "c") == tmp_path / "env.sock"

    def test_run_grid_looks_for_the_daemon_next_to_its_cache(
            self, tmp_path, monkeypatch):
        monkeypatch.delenv(SOCKET_ENV, raising=False)
        configure_cache(tmp_path / "c")
        asked = []
        monkeypatch.setattr(client, "try_connect",
                            lambda path: asked.append(Path(path)))
        run_grid([TASK], SCALE, jobs=1, use_cache=False)
        assert asked == [tmp_path / "c" / "service.sock"]

    def test_ping_names_the_cache_or_counts_as_no_daemon(self, tmp_path):
        """Served results are read from the cache the ``ping`` reply
        names; a daemon whose reply names none is treated as absent."""
        daemon = _stub_daemon(tmp_path)
        loopback = _LoopbackClient(daemon)
        try:
            assert loopback.ping()["cache"] == str(daemon.cache_dir)
            assert daemon.cache_dir.is_absolute()
            loopback.request = lambda payload: {
                key: value for key, value in
                asyncio.run(daemon._dispatch(payload)).items()
                if key != "cache"}
            with pytest.raises(ServiceUnavailable, match="bad ping"):
                loopback.ping()
        finally:
            daemon.journal.close()

    def test_daemon_dying_mid_grid_keeps_delivered_cells(self, tmp_path,
                                                         monkeypatch):
        """A cell the daemon delivered before it died is settled; only
        the undelivered cell runs on the local pool."""
        cache = configure_cache(tmp_path / "served")
        served = runner.run_one(*TASK[:2], SCALE, CFG)
        configure_cache(enabled=False)
        clear_cache()
        other = ("ST", "baseline", CFG)
        stub = _DyingClient(cache.root, [job_digest(TASK, SCALE)])
        monkeypatch.setattr(client, "try_connect", lambda path: stub)
        ran = _count_local_runs(monkeypatch)
        report = GridReport()
        results = run_grid([TASK, other], SCALE, jobs=1, use_cache=False,
                           report=report)
        assert ran == ["ST"]
        assert set(results) == {TASK, other}
        assert results[TASK].stats.as_dict() == served.stats.as_dict()
        assert report.completed == 2


# ---------------------------------------------------------------------------
# Supervised worker pool (real processes)


def _wait_until(predicate, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError("condition not reached in time")


@pytest.mark.resilience
def test_supervisor_completes_grid_and_dedups():
    done: dict = {}
    lock = threading.Lock()

    def on_done(digest, task, scale, blob):
        with lock:
            done[digest] = (task, blob)

    sup = Supervisor(workers=2, cache_dir=None, job_timeout=120.0,
                     on_done=on_done)
    try:
        tasks = [("CP", "baseline", CFG), ("ST", "baseline", CFG)]
        digests = [job_digest(task, SCALE) for task in tasks]
        for digest, task in zip(digests, tasks):
            assert sup.submit(digest, task, SCALE) == "queued"
        # Idempotent: resubmitting a known digest reports, never requeues.
        assert sup.submit(digests[0], tasks[0], SCALE) in \
            ("queued", "running", "done")
        _wait_until(lambda: len(done) == len(tasks))
        counts = sup.counts()
        assert counts["queued"] == counts["running"] == 0
        assert counts["done"] == len(tasks)
        for digest, task in zip(digests, tasks):
            ref = runner.run_one(*task[:2], SCALE, task[2],
                                 use_cache=False)
            # The supervisor hands on the worker's blob undecoded.
            blob = done[digest][1]
            assert isinstance(blob, bytes)
            result = diskcache.decode_result(blob)
            assert result.cycles == ref.cycles
            assert result.stats.as_dict() == ref.stats.as_dict()
    finally:
        sup.close()


@pytest.mark.resilience
def test_supervisor_propagates_deterministic_failure():
    failures: list = []
    sup = Supervisor(workers=1, cache_dir=None,
                     on_failed=lambda *args: failures.append(args))
    try:
        digest = job_digest(("NOPE", "baseline", CFG), SCALE)
        sup.submit(digest, ("NOPE", "baseline", CFG), SCALE)
        _wait_until(lambda: failures)
        failed_digest, kind, message, hang = failures[0]
        assert failed_digest == digest
        assert kind == "KeyError" and "NOPE" in message
        assert hang is None
        assert sup.state(digest) == "failed"
    finally:
        sup.close()


# A fresh interpreter with one Python thread: its first pool forks, and
# the respawn after a chaos ``die`` runs on the supervisor thread.
_START_METHODS_SCRIPT = """
import json, time
from repro.harness import experiment_config
from repro.service.protocol import job_digest
from repro.service.supervisor import Supervisor

if __name__ == "__main__":
    task = ("CP", "baseline", experiment_config(num_sms=2))
    digest = job_digest(task, "tiny")
    sup = Supervisor(workers=2, cache_dir=None)
    first = [w.start_method for w in sup.workers_info()]
    sup.submit(digest, task, "tiny")
    deadline = time.monotonic() + 60.0
    while sup.state(digest) != "done" and time.monotonic() < deadline:
        time.sleep(0.05)
    info = sup.workers_info()
    sup.close()
    print(json.dumps({"state": sup.state(digest), "first": first,
                      "respawned": [w.start_method for w in info
                                    if w.respawns]}))
"""


@pytest.mark.resilience
def test_single_threaded_pool_forks_and_respawns_spawn(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env[chaos.ENV_SPEC] = "die:CP/baseline@1"
    env[chaos.ENV_DIR] = str(tmp_path / "chaos-tokens")
    out = subprocess.run([sys.executable, "-c", _START_METHODS_SCRIPT],
                         env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report == {"state": "done", "first": ["fork", "fork"],
                      "respawned": ["spawn"]}


@pytest.mark.resilience
def test_supervisor_built_off_the_main_thread_spawns():
    done: list = []
    built: dict = {}

    def build():
        built["sup"] = Supervisor(
            workers=1, cache_dir=None,
            on_done=lambda digest, *rest: done.append(digest))

    thread = threading.Thread(target=build)
    thread.start()
    thread.join()
    sup = built["sup"]
    try:
        assert [w.start_method for w in sup.workers_info()] == ["spawn"]
        digest = job_digest(TASK, SCALE)
        sup.submit(digest, TASK, SCALE)
        _wait_until(lambda: done)
        assert done == [digest]
    finally:
        sup.close()


@pytest.mark.resilience
def test_supervisor_strikes_preload_the_breaker(monkeypatch):
    """Journal-replayed strike counts must survive into the breaker: a
    cell one strike from quarantine stays one strike from quarantine
    after a daemon restart."""
    monkeypatch.setenv(chaos.ENV_SPEC, "hang:CP/baseline:60")
    quarantined: list = []
    retried: list = []
    sup = Supervisor(workers=1, cache_dir=None, job_timeout=1.0,
                     max_strikes=2,
                     on_retry=lambda digest: retried.append(digest),
                     on_quarantined=lambda digest, task, scale, error:
                     quarantined.append((digest, error)))
    try:
        digest = job_digest(TASK, SCALE)
        sup.submit(digest, TASK, SCALE, strikes=1)   # replayed strike
        _wait_until(lambda: quarantined, timeout=30.0)
        assert retried == []                         # went straight to trip
        assert "circuit breaker" in quarantined[0][1]
        assert sup.state(digest) == "quarantined"
    finally:
        sup.close(drain=False)
