"""Perf-harness plumbing (``repro.harness.bench``) minus the simulations.

Pins the PR-6 bugfixes: the bench index is derived from the files at the
repo root (no hardcoded ``BENCH_5.json``), legitimate ``0.0`` values are
not rendered as missing, every rep's sample is kept, and a missing
``BENCH_baseline.json`` is reported explicitly instead of as silent
``-`` columns.
"""

import json

import pytest

from repro.harness import bench
from repro.harness.bench import (
    bench_report,
    default_bench_path,
    load_reference,
    next_bench_index,
    time_cell,
)


class TestBenchIndex:
    def test_empty_root_starts_at_one(self, tmp_path):
        assert next_bench_index(str(tmp_path)) == 1

    def test_next_after_existing_files(self, tmp_path):
        for name in ("BENCH_3.json", "BENCH_12.json", "BENCH_5.json"):
            (tmp_path / name).write_text("{}")
        assert next_bench_index(str(tmp_path)) == 13
        assert default_bench_path(str(tmp_path)).endswith("BENCH_13.json")

    def test_non_numeric_bench_files_ignored(self, tmp_path):
        for name in ("BENCH_baseline.json", "BENCH_history.jsonl",
                     "BENCH_ci_smoke.json", "BENCH_07x.json", "BENCH_.json",
                     "BENCH_2.json.bak"):
            (tmp_path / name).write_text("")
        assert next_bench_index(str(tmp_path)) == 1

    def test_repo_root_derives_next_index(self):
        # The repo has BENCH_<n>.json files committed; whatever the
        # current max is, the derived index must be exactly one past it
        # and never collide with an existing file.
        import os
        index = next_bench_index()
        assert index >= 6  # BENCH_5.json shipped with PR 5
        assert not os.path.exists(
            os.path.join(bench._ROOT, f"BENCH_{index}.json"))


class TestLoadReference:
    def test_missing_baseline_returns_none_not_empty(self, tmp_path):
        assert load_reference(str(tmp_path / "absent.json")) is None

    def test_old_format_single_number_becomes_one_sample(self, tmp_path):
        path = tmp_path / "BENCH_baseline.json"
        path.write_text(json.dumps({"matrix": {
            "CP_dac_tiny": {"wall_seconds": 0.5, "cycles": 100}}}))
        ref = load_reference(str(path))
        assert ref["CP_dac_tiny"]["samples"] == [0.5]
        assert ref["CP_dac_tiny"]["wall_seconds"] == 0.5
        assert ref["CP_dac_tiny"]["cycles"] == 100

    def test_new_format_keeps_distribution(self, tmp_path):
        path = tmp_path / "BENCH_baseline.json"
        path.write_text(json.dumps({"matrix": {
            "CP_dac_tiny": {"samples": [0.4, 0.6, 0.5],
                            "wall_seconds": 0.5, "cycles": 100}}}))
        ref = load_reference(str(path))
        assert ref["CP_dac_tiny"]["samples"] == [0.4, 0.6, 0.5]
        assert ref["CP_dac_tiny"]["wall_seconds"] == pytest.approx(0.5)

    def test_committed_baseline_loads_with_samples(self):
        ref = load_reference()
        assert ref, "repo BENCH_baseline.json should load"
        for entry in ref.values():
            assert entry["samples"], "every cell carries a distribution"


def _cell(**overrides):
    cell = {
        "cycles": 1000,
        "samples_wall_seconds": [0.1, 0.1, 0.1],
        "reps": 3,
        "wall_seconds": 0.1,
        "stddev_wall_seconds": 0.0,
        "ci95_wall_seconds": [0.1, 0.1],
        "min_wall_seconds": 0.1,
        "sim_cycles_per_second": 10000.0,
        "ref_wall_seconds": 0.2,
        "ref_samples_wall_seconds": [0.2, 0.2, 0.2],
        "speedup_vs_reference": 2.0,
        "t_test": None,
        "verdict": "win",
        "stats_identical": True,
    }
    cell.update(overrides)
    return cell


def _payload(cells, **overrides):
    payload = {
        "schema": "repro-bench/2", "quick": True, "reps": 3,
        "alpha": 0.05, "reference_available": True,
        "cells": cells, "mismatches": {},
        "geomean_speedup_vs_reference": None,
        "verdicts": {"win": 0, "regression": 0, "inconclusive": 0},
        "ok": True,
    }
    payload.update(overrides)
    return payload


class TestBenchReport:
    def test_zero_speedup_and_zero_ref_render_as_numbers(self):
        # 0.0 is a legitimate measured value, not a missing one — the
        # old report's falsy checks collapsed both to "-".
        report = bench_report(_payload({"X_dac_tiny": _cell(
            ref_wall_seconds=0.0, speedup_vs_reference=0.0)}))
        row = next(line for line in report.splitlines()
                   if line.startswith("X_dac_tiny"))
        assert "0.000" in row and "0.00x" in row
        assert " - " not in row

    def test_missing_reference_renders_dash_and_explicit_note(self):
        report = bench_report(_payload(
            {"X_dac_tiny": _cell(ref_wall_seconds=None,
                                 ref_samples_wall_seconds=None,
                                 speedup_vs_reference=None, verdict=None)},
            reference_available=False,
            verdicts={"win": 0, "regression": 0, "inconclusive": 0}))
        assert "no wall-clock reference; speedups and verdicts unavailable" \
            in report
        assert "BENCH_baseline.json" in report

    def test_ci_and_verdict_shown(self):
        report = bench_report(_payload(
            {"X_dac_tiny": _cell(ci95_wall_seconds=[0.09, 0.11])},
            verdicts={"win": 1, "regression": 0, "inconclusive": 0},
            geomean_speedup_vs_reference=2.0))
        assert "0.100±0.010" in report
        assert "win" in report
        assert "t-test verdicts vs reference" in report
        assert "geomean speedup vs reference core: 2.00x" in report

    def test_mismatch_block_still_renders(self):
        report = bench_report(_payload(
            {"X_dac_tiny": _cell(stats_identical=False)},
            mismatches={"X_dac_tiny": ["cycles: got 1, golden 2"]},
            ok=False))
        assert "STATS MISMATCH X_dac_tiny" in report
        assert "cycles: got 1, golden 2" in report


class TestCommittedPayloads:
    """``BENCH_7.json``/``BENCH_8.json`` were written by the retired
    vector datapath and batched engine and carry fields naming them; the
    history and report renderers must keep reading them."""

    FILES = ("BENCH_7.json", "BENCH_8.json")

    def test_perf_history_renders_committed_files(self, tmp_path,
                                                  monkeypatch, capsys):
        import argparse
        import os
        import shutil

        for name in self.FILES:
            shutil.copy(os.path.join(bench._ROOT, name), tmp_path / name)
        history = tmp_path / "BENCH_history.jsonl"
        monkeypatch.setattr(bench, "_ROOT", str(tmp_path))
        monkeypatch.setattr(bench, "HISTORY_PATH", str(history))
        assert bench.main_perf(argparse.Namespace(history=True)) == 0
        out = capsys.readouterr().out
        assert "perf trajectory (2 runs)" in out
        assert "STATS MISMATCH" not in out
        backfilled = [json.loads(line)["bench_file"]
                      for line in history.read_text().splitlines()]
        assert sorted(backfilled) == list(self.FILES)

    def test_bench_report_renders_committed_files(self):
        import os

        for name in self.FILES:
            with open(os.path.join(bench._ROOT, name)) as handle:
                payload = json.load(handle)
            report = bench_report(payload)
            assert "simulator throughput" in report
            assert "MISMATCH" not in report


class TestTimeCell:
    def test_every_rep_sample_is_recorded(self):
        samples, result = time_cell("CP", "baseline", "tiny", reps=3)
        assert len(samples) == 3
        assert all(s > 0.0 for s in samples)
        assert result.cycles > 0

    def test_reps_floor_is_one(self):
        samples, _ = time_cell("CP", "baseline", "tiny", reps=0)
        assert len(samples) == 1
