"""Tests for issue-slot attribution (every run carries it) and the
cycle-level tracer: the accounting invariant, the samplers, and the
Chrome-trace / CSV exporters."""

import csv
import json

import pytest

from repro.cli import main
from repro.harness.runner import TECHNIQUES, experiment_config, run_one
from repro.harness.profile import profile
from repro.trace import STALL_REASONS, NullTracer, Tracer, stall_buckets, stall_report, write_chrome_trace, write_occupancy_csv, OCCUPANCY_COLUMNS

CONFIG = experiment_config(num_sms=2)
WORKLOADS = ("LIB", "CP", "BP", "HI", "MT")


def traced(abbr, technique, tracer=None):
    tracer = tracer or Tracer()
    result = run_one(abbr, technique, "tiny", CONFIG, use_cache=False,
                     trace=tracer)
    return result, tracer


def untraced(abbr, technique):
    return run_one(abbr, technique, "tiny", CONFIG, use_cache=False)


# ---------------------------------------------------------------------------
# The accounting invariant: every scheduler slot of every cycle lands in
# exactly one bucket, traced or not.

@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("abbr", WORKLOADS)
def test_stall_buckets_sum_to_issue_slots(abbr, technique):
    result, tracer = traced(abbr, technique)
    slots = result.cycles * CONFIG.num_sms * CONFIG.num_schedulers
    buckets = stall_buckets(result)
    assert sum(buckets.values()) == slots
    assert set(buckets) <= set(STALL_REASONS)
    # The per-warp breakdown is a refinement of the same total.
    assert sum(tracer.warp_stalls.values()) == slots
    plain = untraced(abbr, technique)
    assert plain.cycles == result.cycles
    assert sum(stall_buckets(plain).values()) == slots
    assert stall_buckets(plain) == buckets


def test_dac_specific_buckets_appear():
    """DAC runs can stall on queue state; the attribution must surface
    it."""
    assert stall_buckets(untraced("LIB", "dac"))["queue_empty"] > 0


def test_samples_cover_run():
    result, tracer = traced("LIB", "dac")
    cycles = [s[0] for s in tracer.samples]
    assert cycles == sorted(cycles)
    assert cycles[-1] <= result.cycles
    sms = {s[1] for s in tracer.samples}
    assert sms == set(range(CONFIG.num_sms))
    for _, _, atq, pwaq, pwpq, runahead in tracer.samples:
        assert runahead == atq + pwaq + pwpq
    # DAC actually runs ahead at some point.
    assert any(s[5] > 0 for s in tracer.samples)


def test_baseline_samples_are_zero():
    _, tracer = traced("LIB", "baseline")
    assert all(s[5] == 0 for s in tracer.samples)


# ---------------------------------------------------------------------------
# Exporters.

def test_chrome_trace_structure(tmp_path):
    result, tracer = traced("LIB", "dac")
    path = tmp_path / "trace.json"
    write_chrome_trace(tracer, path)
    data = json.loads(path.read_text())      # must round-trip as JSON
    events = data["traceEvents"]
    assert events
    assert data["otherData"]["cycles"] == result.cycles
    phases = set()
    for event in events:
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert event["ph"] in ("X", "i", "C", "M")
        phases.add(event["ph"])
        if event["ph"] == "X":
            assert event["dur"] >= 0
            assert event["ts"] >= 0
    assert phases == {"X", "i", "C", "M"}
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert "SM 0" in names and "memory hierarchy" in names


def test_occupancy_csv(tmp_path):
    _, tracer = traced("LIB", "dac")
    path = tmp_path / "occ.csv"
    write_occupancy_csv(tracer, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == list(OCCUPANCY_COLUMNS)
    assert len(rows) == len(tracer.samples) + 1


def test_stall_report_renders():
    result, tracer = traced("LIB", "dac")
    text = stall_report(result, tracer)
    assert "stall attribution" in text
    assert "100.0%" in text                  # the total row
    assert "most-stalled warp slots" in text
    # Without a tracer the table still renders; the per-warp section
    # needs the tracer.
    plain = stall_report(untraced("LIB", "dac"))
    assert plain == text[:text.index("\n\nmost-stalled")]


def test_profile_breakdown_sums_to_one():
    result, _ = traced("LIB", "dac")
    breakdown = profile(result).stall_breakdown
    assert breakdown
    assert sum(breakdown.values()) == pytest.approx(1.0)
    assert profile(untraced("LIB", "dac")).stall_breakdown == breakdown


# ---------------------------------------------------------------------------
# The null tracer and the CLI.

def test_null_tracer_is_inert():
    tracer = NullTracer()
    assert not tracer.enabled
    tracer.slot_interval(0, 0, -1, "idle", 0, 1)
    tracer.sample(0, [])
    tracer.finalize(0, None)                 # must not touch its arguments


def test_cli_trace_subcommand(tmp_path, capsys):
    out = tmp_path / "t.json"
    occ = tmp_path / "o.csv"
    code = main(["trace", "lib", "--sms", "2", "--out", str(out),
                 "--csv", str(occ), "--sample", "32"])
    assert code == 0
    assert json.loads(out.read_text())["traceEvents"]
    assert occ.exists()
    text = capsys.readouterr().out
    assert "stall attribution" in text


def test_cli_run_profile_shows_issue_slots(capsys):
    assert main(["run", "ST", "--scale", "tiny", "--sms", "2",
                 "--no-cache", "--profile"]) == 0
    assert "issue slot: issued" in capsys.readouterr().out
