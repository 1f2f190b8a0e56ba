"""The golden-matrix cells and how one is simulated and compared.

The (workload × technique × scale) cells whose
:class:`~repro.stats.Stats` are committed under ``tests/goldens/stats``,
plus the helpers that simulate one cell uncached, load its golden and
diff the two.  A golden diff is a timing-model change.  The goldens are
written by ``tests/goldens/generate.py`` and checked bit for bit by the
tier-1 tests and by every perfbench round (``perfbench/checks.py``);
simulator speed is measured with ``perfbench/run.py``.
"""

from __future__ import annotations

import json
import os

from ..config import GPUConfig
from ..core import run_dac
from ..sim.gpu import RunResult, simulate
from ..workloads import get
from .runner import experiment_config

#: Bit-identity regression matrix: small, fast cells covering every
#: technique and a spread of control/memory structure (branchy BP, strided
#: SG/ST, scatter HI, irregular BFS).
GOLDEN_MATRIX = tuple(
    (abbr, technique, "tiny")
    for abbr in ("CP", "BP", "SG", "ST", "HI", "BFS")
    for technique in ("baseline", "cae", "mta", "dac")
)

#: Paper-scale cells: the same techniques over longer, queue-heavy runs.
BENCH_MATRIX = tuple(
    (abbr, technique, "paper")
    for abbr in ("CP", "SG", "HI")
    for technique in ("baseline", "cae", "mta", "dac")
)

#: One traced golden pins the observability path.
TRACED_GOLDEN = ("BP", "dac", "tiny")

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))))
GOLDEN_DIR = os.path.join(_ROOT, "tests", "goldens", "stats")


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


def run_cell(abbr: str, technique: str, scale: str,
             config: GPUConfig | None = None,
             trace: bool = False) -> RunResult:
    """One uncached simulation of a matrix cell (the result caches are
    never consulted, so a golden check always exercises the simulator)."""
    config = config or experiment_config()
    launch = get(abbr).launch(scale)
    tracer = None
    if trace:
        from ..trace import Tracer
        tracer = Tracer()
    if technique == "dac":
        return run_dac(launch, config, tracer=tracer)
    return simulate(launch, config.with_technique(technique), tracer=tracer)


def diff_stats(got: dict, want: dict) -> list[str]:
    """Human-readable counter mismatches (empty = bit-identical)."""
    lines = []
    for key in sorted(set(got) | set(want)):
        a, b = got.get(key), want.get(key)
        if a != b:
            lines.append(f"{key}: got {a!r}, golden {b!r}")
    return lines
