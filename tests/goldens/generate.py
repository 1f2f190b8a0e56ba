"""Regenerate the golden Stats fixtures.

Run from the repo root::

    PYTHONPATH=src python tests/goldens/generate.py

The JSON files written here pin the simulator's *timing semantics*: any
core change that is supposed to be a pure optimization must reproduce
every golden bit-for-bit (``tests/test_golden_stats.py`` and every
``perfbench/run.py`` round both assert this).  ``stalls.json`` pins each
cell's issue-slot attribution (``result.extra["stalls"]``), which stays
out of Stats.

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

from repro.harness.bench import BENCH_MATRIX, GOLDEN_MATRIX, \
    TRACED_GOLDEN, golden_name, run_cell, \
    traced_golden_view                                       # noqa: E402
from repro.harness.runner import experiment_config           # noqa: E402


def main() -> int:
    config = experiment_config()
    stalls = {}
    for abbr, technique, scale in sorted(set(GOLDEN_MATRIX + BENCH_MATRIX)):
        result = run_cell(abbr, technique, scale, config)
        name = golden_name(abbr, technique, scale)
        _write(name, dict(sorted(result.stats.as_dict().items())))
        stalls[name] = result.extra["stalls"]
        print(f"  {name}: {result.cycles} cycles")

    _write_json(os.path.join(HERE, "stalls.json"), stalls)

    # Traced run: Stats plus its attribution buckets as ``issue.*``.
    abbr, technique, scale = TRACED_GOLDEN
    result = run_cell(abbr, technique, scale, config, trace=True)
    _write(f"traced_{golden_name(abbr, technique, scale)}",
           traced_golden_view(result))
    return 0


def _write(name: str, stats: dict) -> None:
    _write_json(os.path.join(HERE, "stats", name + ".json"), stats)


def _write_json(path: str, data: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
    print(f"  wrote {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__).parse_args()
    sys.exit(main())
