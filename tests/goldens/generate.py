"""Regenerate the golden Stats fixtures (and the perf reference timings).

Run from the repo root::

    PYTHONPATH=src python tests/goldens/generate.py [--stats-only] [--reps N]

The JSON files written here pin the simulator's *timing semantics*: any
core change that is supposed to be a pure optimization must reproduce
every golden bit-for-bit (``tests/test_golden_stats.py`` and
``python -m repro perf`` both assert this).  ``stalls.json`` pins each
cell's issue-slot attribution (``result.extra["stalls"]``), which stays
out of Stats.  ``BENCH_baseline.json`` at
the repo root additionally records the wall-clock *sample distribution*
of the core at the moment the goldens were generated (every rep, not a
single best-of number), so ``repro perf`` can run a Welch t-test against
it before calling anything a win or a regression.

Only regenerate after an *intentional* timing change, and say so in the
commit message — a golden diff is a change to simulated hardware
behaviour, never a refactor.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.faults import FaultInjector, FaultPlan, FaultSpec, \
    RuntimeCheckers                                          # noqa: E402
from repro.harness import perfstats                          # noqa: E402
from repro.harness.bench import BENCH_MATRIX, GOLDEN_MATRIX, \
    FAULT_GOLDEN, TRACED_GOLDEN, golden_name, run_cell, time_cell, \
    traced_golden_view                                       # noqa: E402
from repro.harness.runner import experiment_config           # noqa: E402

#: Baseline reps: five samples give the t-test a real reference
#: distribution to pull variance from (two-sided 95%, df via Welch).
DEFAULT_BASELINE_REPS = 5


def main(stats_only: bool = False,
         reps: int = DEFAULT_BASELINE_REPS) -> int:
    config = experiment_config()
    timings = {}
    stalls = {}
    for abbr, technique, scale in sorted(set(GOLDEN_MATRIX + BENCH_MATRIX)):
        samples, result = time_cell(abbr, technique, scale, config,
                                    reps=1 if stats_only else reps)
        name = golden_name(abbr, technique, scale)
        _write(name, dict(sorted(result.stats.as_dict().items())))
        stalls[name] = result.extra["stalls"]
        summary = perfstats.summarize(samples)
        timings[name] = {
            "samples": samples,
            "wall_seconds": summary.mean,
            "stddev_wall_seconds": summary.stddev,
            "cycles": result.cycles,
        }
        spread = (f" ±{summary.ci_halfwidth:.3f}"
                  if summary.ci_halfwidth is not None else "")
        print(f"  {name}: {result.cycles} cycles, "
              f"{summary.mean:.3f}s{spread} over {summary.n} rep(s)")

    _write_json(os.path.join(HERE, "stalls.json"), stalls)

    # Traced run: Stats plus its attribution buckets as ``issue.*``.
    abbr, technique, scale = TRACED_GOLDEN
    result = run_cell(abbr, technique, scale, config, trace=True)
    _write(f"traced_{golden_name(abbr, technique, scale)}",
           traced_golden_view(result))

    # Fault-injected run: deterministic timing-only faults.
    abbr, technique, scale = FAULT_GOLDEN
    plan = FaultPlan(specs=(FaultSpec("expand_delay", 0, 4),
                            FaultSpec("dram_delay", 0, 8)))
    result = run_cell(abbr, technique, scale, config,
                      faults=FaultInjector(plan), checkers=RuntimeCheckers())
    _write(f"fault_{golden_name(abbr, technique, scale)}",
           dict(sorted(result.stats.as_dict().items())))

    if not stats_only:
        out = os.path.join(ROOT, "BENCH_baseline.json")
        with open(out, "w") as handle:
            json.dump({"schema": "repro-bench-baseline/2",
                       "reps": reps,
                       "matrix": timings,
                       "note": "reference core wall-clock sample "
                               "distributions; regenerated together "
                               "with the goldens"},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"  wrote {os.path.relpath(out, ROOT)}")
    return 0


def _write(name: str, stats: dict) -> None:
    _write_json(os.path.join(HERE, "stats", name + ".json"), stats)


def _write_json(path: str, data: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
    print(f"  wrote {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stats-only", action="store_true",
                        help="regenerate golden Stats fixtures only; "
                             "leave BENCH_baseline.json untouched")
    parser.add_argument("--reps", type=int, default=DEFAULT_BASELINE_REPS,
                        help="timing repetitions per cell recorded in the "
                             "baseline distribution (default %(default)s)")
    cli = parser.parse_args()
    sys.exit(main(stats_only=cli.stats_only, reps=cli.reps))
