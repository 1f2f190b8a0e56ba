"""Simulator-throughput microbenchmarks (``python -m repro perf``).

The perf harness runs a fixed (workload × technique) matrix, measures
wall-clock and simulated-cycles-per-second, and — crucially — asserts that
every run's :class:`~repro.stats.Stats` is bit-identical to the committed
golden under ``tests/goldens/stats``.  Optimizations to the simulation core
are only optimizations if the goldens survive; a golden diff is a timing
model change and fails the run.

Wall-clock is treated statistically, not as a point estimate: every cell
is simulated ``reps`` times, each sample is recorded, and the report
shows the mean with a 95% confidence interval plus a Welch t-test
verdict (``win`` / ``regression`` / ``inconclusive``) against the sample
distribution committed in ``BENCH_baseline.json``
(:mod:`repro.harness.perfstats`).  Verdicts are informational — only the
Stats identity gate can fail the run (runner speed is not reproducible,
simulated hardware is) — but a ``regression`` verdict is surfaced loudly
so CI can warn on it.

Results land in ``BENCH_<n>.json`` at the repo root (the index is derived
from the files already there, so each PR's run names itself), and every
run appends one line to the ``BENCH_history.jsonl`` time series
(``repro perf --history`` summarizes it).
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

import numpy as np

from ..config import GPUConfig
from ..core import run_dac
from ..sim.gpu import RunResult, simulate
from ..workloads import get
from . import perfstats
from .report import ascii_table
from .runner import experiment_config

#: Bit-identity regression matrix: small, fast cells covering every
#: technique and a spread of control/memory structure (branchy BP, strided
#: SG/ST, scatter HI, irregular BFS).  Used by ``--quick`` and by
#: ``tests/test_golden_stats.py``.
GOLDEN_MATRIX = tuple(
    (abbr, technique, "tiny")
    for abbr in ("CP", "BP", "SG", "ST", "HI", "BFS")
    for technique in ("baseline", "cae", "mta", "dac")
)

#: Throughput matrix: paper-scale runs long enough for stable wall-clock.
BENCH_MATRIX = tuple(
    (abbr, technique, "paper")
    for abbr in ("CP", "SG", "HI")
    for technique in ("baseline", "cae", "mta", "dac")
)

#: One traced and one fault-injected golden pin the observability paths.
TRACED_GOLDEN = ("BP", "dac", "tiny")
FAULT_GOLDEN = ("SG", "dac", "tiny")

#: Default timing repetitions per cell — three is the floor for a
#: meaningful dispersion estimate (CI and t-test both need ddof=1).
DEFAULT_REPS = 3

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))
GOLDEN_DIR = os.path.join(_ROOT, "tests", "goldens", "stats")
BASELINE_PATH = os.path.join(_ROOT, "BENCH_baseline.json")
HISTORY_PATH = os.path.join(_ROOT, "BENCH_history.jsonl")

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


def golden_name(abbr: str, technique: str, scale: str) -> str:
    return f"{abbr}_{technique}_{scale}"


def load_golden(name: str) -> dict | None:
    path = os.path.join(GOLDEN_DIR, name + ".json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def traced_golden_view(result: RunResult) -> dict:
    """The traced golden's counters: Stats plus the run's issue-slot
    attribution as ``issue.<reason>``."""
    view = result.stats.as_dict()
    for reason, cycles in result.extra["stalls"].items():
        view[f"issue.{reason}"] = float(cycles)
    return dict(sorted(view.items()))


def next_bench_index(root: str | None = None) -> int:
    """The next free ``BENCH_<n>.json`` index at the repo root.

    Derived from the files already committed (``BENCH_5.json`` present
    -> the next run writes ``BENCH_6.json``) so no PR ever has to edit a
    hardcoded index.  ``BENCH_baseline.json``, ``BENCH_history.jsonl``,
    and CI scratch files like ``BENCH_ci_smoke.json`` don't match the
    ``BENCH_<digits>.json`` shape and are ignored.
    """
    root = root or _ROOT
    indices = [int(m.group(1)) for name in os.listdir(root)
               if (m := _BENCH_NAME.match(name))]
    return max(indices, default=0) + 1


def default_bench_path(root: str | None = None) -> str:
    root = root or _ROOT
    return os.path.join(root, f"BENCH_{next_bench_index(root)}.json")


def load_reference(path: str | None = None) -> dict | None:
    """The committed pre-optimization wall-clock reference.

    Returns ``None`` when the baseline file is absent (fresh checkout
    with regenerated goldens) so callers can say so explicitly instead
    of silently rendering empty columns.  Entries are normalized to
    always carry a ``samples`` list: old-format baselines recorded a
    single ``wall_seconds`` number, which becomes a one-sample
    distribution (mean still works; the t-test will report itself not
    computable rather than fake a verdict).
    """
    path = path or BASELINE_PATH
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        matrix = json.load(handle).get("matrix", {})
    reference = {}
    for name, entry in matrix.items():
        samples = entry.get("samples")
        if not samples:
            wall = entry.get("wall_seconds")
            samples = [wall] if wall is not None else []
        reference[name] = {
            "samples": [float(s) for s in samples],
            "wall_seconds": (perfstats.mean(samples)
                             if samples else None),
            "cycles": entry.get("cycles"),
        }
    return reference


def run_cell(abbr: str, technique: str, scale: str,
             config: GPUConfig | None = None, trace: bool = False,
             faults=None, checkers=None) -> RunResult:
    """One uncached simulation of a matrix cell (the perf harness never
    consults the result caches — it exists to time real simulation)."""
    config = config or experiment_config()
    launch = get(abbr).launch(scale)
    tracer = None
    if trace:
        from ..trace import Tracer
        tracer = Tracer()
    if technique == "dac":
        return run_dac(launch, config, tracer=tracer, faults=faults,
                       checkers=checkers)
    return simulate(launch, config.with_technique(technique),
                    tracer=tracer, faults=faults, checkers=checkers)


def diff_stats(got: dict, want: dict) -> list[str]:
    """Human-readable counter mismatches (empty = bit-identical)."""
    lines = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if a != b:
            lines.append(f"{key}: got {a!r}, golden {b!r}")
    return lines


def time_cell(abbr: str, technique: str, scale: str,
              config: GPUConfig | None = None,
              reps: int = DEFAULT_REPS) -> tuple[list[float], RunResult]:
    """Simulate one cell ``reps`` times; every wall-clock sample is kept
    (the old harness discarded all but the best, which is how the gate
    ended up comparing noise floors instead of distributions)."""
    samples = []
    result = None
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        result = run_cell(abbr, technique, scale, config)
        samples.append(time.perf_counter() - t0)
    assert result is not None
    return samples, result


def bench_matrix(quick: bool = False, reps: int = DEFAULT_REPS,
                 config: GPUConfig | None = None,
                 progress=None, alpha: float = 0.05) -> dict:
    """Run the matrix; returns the ``BENCH_*.json`` payload.

    Every cell is simulated ``reps`` times; all samples are recorded and
    summarized (mean, stddev, 95% CI), the final Stats is compared
    against the committed golden, and the wall-clock distribution is
    Welch-t-tested against the reference distribution from
    ``BENCH_baseline.json`` to produce a ``win`` / ``regression`` /
    ``inconclusive`` verdict.  ``quick`` restricts the matrix to the
    tiny-scale golden cells (the CI smoke matrix).
    """
    config = config or experiment_config()
    cells = GOLDEN_MATRIX if quick else GOLDEN_MATRIX + BENCH_MATRIX
    reference = load_reference()
    out: dict = {"schema": "repro-bench/2", "quick": bool(quick),
                 "reps": int(max(1, reps)), "alpha": alpha,
                 "reference_available": reference is not None,
                 "cells": {}, "mismatches": {}}
    speedups = []
    verdict_tally = dict.fromkeys(perfstats.VERDICTS, 0)
    for i, (abbr, technique, scale) in enumerate(cells):
        name = golden_name(abbr, technique, scale)
        samples, result = time_cell(abbr, technique, scale, config,
                                    reps=reps)
        summary = perfstats.summarize(samples, alpha=alpha)
        golden = load_golden(name)
        mismatch = None
        if golden is None:
            mismatch = ["no committed golden (run tests/goldens/generate.py)"]
        else:
            diff = diff_stats(result.stats.as_dict(), golden)
            if diff:
                mismatch = diff
        ref_entry = (reference or {}).get(name)
        ref_samples = ref_entry["samples"] if ref_entry else []
        ref_mean = ref_entry["wall_seconds"] if ref_entry else None
        speedup = (ref_mean / summary.mean) if ref_mean is not None else None
        if speedup is not None:
            speedups.append(speedup)
        cell_verdict = None
        t_test = None
        if ref_samples:
            cell_verdict, test = perfstats.verdict(samples, ref_samples,
                                                   alpha=alpha)
            verdict_tally[cell_verdict] += 1
            t_test = test.as_dict()
        out["cells"][name] = {
            "cycles": result.cycles,
            "samples_wall_seconds": samples,
            "reps": summary.n,
            "wall_seconds": summary.mean,
            "stddev_wall_seconds": summary.stddev,
            "ci95_wall_seconds": (
                [summary.ci_low, summary.ci_high]
                if summary.ci_low is not None else None),
            "min_wall_seconds": summary.minimum,
            "sim_cycles_per_second": result.cycles / max(summary.mean, 1e-9),
            "ref_wall_seconds": ref_mean,
            "ref_samples_wall_seconds": ref_samples or None,
            "speedup_vs_reference": speedup,
            "t_test": t_test,
            "verdict": cell_verdict,
            "stats_identical": mismatch is None,
        }
        if mismatch is not None:
            out["mismatches"][name] = mismatch
        if progress is not None:
            progress(i + 1, len(cells), name, out["cells"][name])
    out["geomean_speedup_vs_reference"] = (
        float(np.exp(np.mean(np.log(speedups)))) if speedups else None)
    out["verdicts"] = verdict_tally
    out["ok"] = not out["mismatches"]
    return out


def _fmt_mean_ci(cell: dict) -> str:
    """``mean±half`` when a CI exists, bare mean otherwise."""
    summary = f"{cell['wall_seconds']:.3f}"
    ci = cell.get("ci95_wall_seconds")
    if ci is not None:
        summary += f"±{(ci[1] - ci[0]) / 2:.3f}"
    return summary


def bench_report(payload: dict) -> str:
    rows = []
    for name, cell in payload["cells"].items():
        speedup = cell["speedup_vs_reference"]
        ref = cell["ref_wall_seconds"]
        rows.append([
            name,
            cell["cycles"],
            _fmt_mean_ci(cell),
            cell.get("reps", "-"),
            f"{cell['sim_cycles_per_second']:,.0f}",
            f"{ref:.3f}" if ref is not None else "-",
            f"{speedup:.2f}x" if speedup is not None else "-",
            cell.get("verdict") or "-",
            "ok" if cell["stats_identical"] else "MISMATCH",
        ])
    table = ascii_table(
        ["cell", "cycles", "wall (s)", "n", "sim cyc/s", "ref (s)",
         "speedup", "verdict", "stats"],
        rows, "simulator throughput")
    lines = [table]
    if not payload.get("reference_available", True):
        lines.append(
            "\nno wall-clock reference; speedups and verdicts unavailable "
            "(BENCH_baseline.json is missing — regenerate it with "
            "tests/goldens/generate.py)")
    geomean = payload["geomean_speedup_vs_reference"]
    if geomean is not None:
        lines.append(f"\ngeomean speedup vs reference core: {geomean:.2f}x")
    tally = payload.get("verdicts")
    if tally is not None and any(tally.values()):
        lines.append(
            "t-test verdicts vs reference (alpha="
            f"{payload.get('alpha', 0.05)}): "
            + ", ".join(f"{k}={tally[k]}" for k in perfstats.VERDICTS))
    for name, diff in payload["mismatches"].items():
        lines.append(f"\nSTATS MISMATCH {name}:")
        lines.extend(f"  {line}" for line in diff[:20])
        if len(diff) > 20:
            lines.append(f"  ... {len(diff) - 20} more")
    return "\n".join(lines)


def merge_history_from_bench_files(root: str | None = None,
                                   history_path: str | None = None) -> int:
    """Backfill ``BENCH_history.jsonl`` from committed ``BENCH_<n>.json``
    payloads whose history line is missing (runs that predate the series,
    or whose append was lost).  Triggered by ``repro perf --history`` when
    the series has fewer entries than there are bench files; synthesized
    lines are stamped with the payload file's mtime and marked
    ``backfilled``.  Returns the number of lines added."""
    root = root or _ROOT
    history_path = history_path or HISTORY_PATH
    entries = perfstats.load_history(history_path)
    bench_files = sorted(
        (int(m.group(1)), name) for name in os.listdir(root)
        if (m := _BENCH_NAME.match(name)))
    if len(entries) >= len(bench_files):
        return 0
    known = {entry.get("bench_file") for entry in entries}
    merged = 0
    for _idx, name in bench_files:
        if name in known:
            continue
        path = os.path.join(root, name)
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(payload, dict) or "cells" not in payload:
            continue
        entry = perfstats.history_entry(payload, root, bench_file=name,
                                        now=os.path.getmtime(path))
        entry["backfilled"] = True
        # The payload predates the series: the commit that produced it is
        # unknown, and stamping the *current* SHA would be a lie.
        entry["git"] = None
        perfstats.append_history(history_path, entry)
        merged += 1
    return merged


def write_bench_json(payload: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _github_step_summary(payload: dict, out: str) -> None:
    """Surface the verdicts in the GitHub Actions step summary, if any."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    tally = payload.get("verdicts") or {}
    lines = [
        "### perf gate",
        "",
        f"- Stats bit-identity: {'**ok**' if payload['ok'] else '**FAIL**'}",
        f"- t-test verdicts: win={tally.get('win', 0)}, "
        f"regression={tally.get('regression', 0)}, "
        f"inconclusive={tally.get('inconclusive', 0)}",
    ]
    geomean = payload.get("geomean_speedup_vs_reference")
    if geomean is not None:
        lines.append(f"- geomean speedup vs reference: {geomean:.2f}x")
    regressions = [name for name, cell in payload["cells"].items()
                   if cell.get("verdict") == "regression"]
    if regressions:
        lines.append("- regressed cells: " + ", ".join(sorted(regressions)))
    lines.append(f"- results: `{os.path.basename(out)}`, history: "
                 "`BENCH_history.jsonl`")
    try:
        with open(path, "a") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError:
        pass


def main_perf(args) -> int:
    """Driver for ``python -m repro perf`` (wired up in cli.py)."""
    if getattr(args, "history", False):
        merged = merge_history_from_bench_files()
        if merged:
            print(f"backfilled {merged} committed BENCH_<n>.json run(s) "
                  "into BENCH_history.jsonl", file=sys.stderr)
        print(perfstats.history_report(perfstats.load_history(HISTORY_PATH)))
        return 0
    payload = bench_matrix(
        quick=args.quick, reps=args.reps,
        progress=lambda done, total, name, cell: print(
            f"  [{done}/{total}] {name}: {_fmt_mean_ci(cell)}s "
            f"({cell['sim_cycles_per_second']:,.0f} cyc/s)"
            + (f"  [{cell['verdict']}]" if cell["verdict"] else "")
            + ("" if cell["stats_identical"] else "  STATS MISMATCH"),
            file=sys.stderr))
    print(bench_report(payload))
    out = args.out or default_bench_path()
    write_bench_json(payload, out)
    print(f"\nbench results written to {out}")
    if not getattr(args, "no_history", False):
        entry = perfstats.history_entry(payload, _ROOT,
                                        bench_file=os.path.basename(out))
        perfstats.append_history(HISTORY_PATH, entry)
        print(f"history line appended to {HISTORY_PATH}")
    _github_step_summary(payload, out)
    regressions = sorted(name for name, cell in payload["cells"].items()
                         if cell.get("verdict") == "regression")
    for name in regressions:
        message = (f"statistically significant wall-clock regression in "
                   f"{name} (informational; only Stats identity gates)")
        print(f"WARNING: {message}", file=sys.stderr)
        if os.environ.get("GITHUB_ACTIONS"):
            print(f"::warning title=perf regression::{message}")
    if not payload["ok"]:
        print("FAIL: Stats diverged from the committed goldens "
              "(timing semantics changed)", file=sys.stderr)
        return 1
    return 0
