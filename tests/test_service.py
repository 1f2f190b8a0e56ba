"""Units of the experiment service below the daemon: wire protocol,
chaos directives, write-ahead journal replay, lossless wire forms of
``SimulationHang``/``GridReport``, and the supervised worker pool.

The supervisor tests spawn real worker processes and are marked
``resilience``; everything else is pure and fast.  The full daemon —
socket, backpressure, crash/restart — is exercised end-to-end in
``test_service_chaos.py``.
"""

import json
import threading
import time

import pytest

from repro.config import GPUConfig
from repro.faults import chaos
from repro.harness import clear_cache, configure_cache, experiment_config
from repro.harness import diskcache, runner
from repro.harness.parallel import GridReport
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

    def queue_depth(self):
        return len(self.submitted)

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

            journal.record_unquarantine(digest)
            job = journal.replay()[digest]
            assert job["status"] == "pending" and job["strikes"] == 0

            result = runner.run_one(*TASK[:2], SCALE, CFG, use_cache=False)
            journal.record_done(digest, result)
            assert journal.replay()[digest]["status"] == "done"
            assert journal.load_result(digest).cycles == result.cycles

    def test_done_without_blob_degrades_to_pending(self, tmp_path):
        digest = job_digest(TASK, SCALE)
        with JobJournal(tmp_path) as journal:
            journal.record_submit(digest, task_to_wire(TASK, SCALE))
            journal._append({"op": "done", "digest": digest})  # no blob
            assert journal.replay()[digest]["status"] == "pending"

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

    def test_corrupt_blob_replays_as_pending(self, tmp_path):
        """A truncated ``done`` blob is moved aside as ``.pkl.z.corrupt``
        and its cell replays as pending, so it runs again."""
        digest = job_digest(TASK, SCALE)
        with JobJournal(tmp_path) as journal:
            journal.record_submit(digest, task_to_wire(TASK, SCALE))
            result = runner.run_one(*TASK[:2], SCALE, CFG, use_cache=False)
            journal.record_done(digest, result)
            blob = journal.result_path(digest)
            blob.write_bytes(blob.read_bytes()[:40])
            assert journal.replay()[digest]["status"] == "pending"
        assert not blob.exists()
        assert blob.with_name(blob.name + ".corrupt").exists()

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
            result = runner.run_one(*TASK[:2], SCALE, CFG, use_cache=False)
            journal.record_done(digest, result)
            journal.record_submit(job_digest(pending, SCALE),
                                  task_to_wire(pending, SCALE))

        monkeypatch.setattr(diskcache, "__version__", "0.0.0-newer")
        fresh = job_digest(TASK, SCALE)
        with JobJournal(tmp_path) as journal:
            assert fresh not in journal.replay()

        daemon = ExperimentDaemon(tmp_path / "sock", state_dir=tmp_path,
                                  use_cache=False, log=lambda msg: None)
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

    def test_journal_dir_is_a_run_grid_checkpoint(self, tmp_path):
        """The daemon's journal directory doubles as a ``run_grid``
        checkpoint: a grid pointed at it resumes the daemon's work."""
        from repro.harness.parallel import run_grid

        digest = job_digest(TASK, SCALE)
        with JobJournal(tmp_path) as journal:
            result = runner.run_one(*TASK[:2], SCALE, CFG, use_cache=False)
            journal.record_done(digest, result)
        clear_cache()
        report = GridReport()
        results = run_grid([TASK], SCALE, jobs=1, use_cache=False,
                           checkpoint=tmp_path, report=report,
                           service=False)
        assert report.resumed == 1 and report.completed == 0
        assert results[TASK].cycles == result.cycles

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
                                      use_cache=False, log=lambda msg: None)
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

    def on_done(digest, task, scale, result):
        with lock:
            done[digest] = (task, result)

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
        assert sup.queue_depth() == 0
        assert sup.counts()["done"] == len(tasks)
        for digest, task in zip(digests, tasks):
            ref = runner.run_one(*task[:2], SCALE, task[2],
                                 use_cache=False)
            assert done[digest][1].cycles == ref.cycles
            assert done[digest][1].stats.as_dict() == ref.stats.as_dict()
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
        assert sup.job_error(digest)[0] == "KeyError"
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
