"""Golden-Stats regression matrix: bit-identity against committed fixtures.

Every cell of the perf harness's golden matrix (six workloads x four
techniques, tiny scale) plus one traced run must
reproduce the committed Stats under ``tests/goldens/stats`` exactly, and
every golden cell (the matrix plus the paper-scale bench matrix) its
issue-slot attribution in ``tests/goldens/stalls.json``.  A
diff here means the timing semantics changed — that is never a refactor,
and the goldens must only be regenerated (tests/goldens/generate.py) for
an intentional model change that the commit message calls out.
"""

import json
import os

import pytest

from repro.harness.bench import (
    BENCH_MATRIX,
    GOLDEN_MATRIX,
    TRACED_GOLDEN,
    diff_stats,
    golden_name,
    load_golden,
    run_cell,
    traced_golden_view,
)
from repro.harness.runner import experiment_config
from repro.trace import STALL_REASONS, stall_buckets

CONFIG = experiment_config()

with open(os.path.join(os.path.dirname(__file__), "goldens",
                       "stalls.json")) as _handle:
    STALL_GOLDENS = json.load(_handle)

#: The one configuration every golden runs under, with the test-id of the
#: datapath it exercises (bool-array lanes, per-warp issue walk).  The ids
#: name that datapath so the checks keep the ids they had when other
#: datapaths were parametrized beside it.
MATRIX_CONFIG = pytest.mark.parametrize("config", [CONFIG],
                                        ids=["scalar-walk"])
RUN_CONFIG = pytest.mark.parametrize("config", [CONFIG], ids=["scalar"])


def _assert_matches_golden(result, name, counters=None):
    golden = load_golden(name)
    assert golden is not None, (
        f"missing golden {name!r}; run tests/goldens/generate.py")
    counters = counters if counters is not None else result.stats.as_dict()
    diff = diff_stats(counters, golden)
    assert not diff, "Stats diverged from golden:\n" + "\n".join(diff)


def _assert_stalls_match_golden(result, name):
    assert result.extra["stalls"] == STALL_GOLDENS[name], (
        f"{name}: issue-slot attribution diverged from goldens/stalls.json")


@MATRIX_CONFIG
@pytest.mark.parametrize("abbr,technique,scale", GOLDEN_MATRIX,
                         ids=[golden_name(*cell) for cell in GOLDEN_MATRIX])
def test_matrix_cell_matches_golden(abbr, technique, scale, config):
    result = run_cell(abbr, technique, scale, config)
    _assert_matches_golden(result, golden_name(abbr, technique, scale))
    _assert_stalls_match_golden(result, golden_name(abbr, technique, scale))


@pytest.mark.parametrize("abbr,technique,scale", BENCH_MATRIX,
                         ids=[golden_name(*cell) for cell in BENCH_MATRIX])
def test_paper_cell_stalls_match_golden(abbr, technique, scale):
    result = run_cell(abbr, technique, scale, CONFIG)
    _assert_stalls_match_golden(result, golden_name(abbr, technique, scale))


@RUN_CONFIG
def test_traced_run_matches_golden_and_keeps_stall_invariant(config):
    """Tracing must not perturb timing, and the stall-attribution buckets
    must still sum to exactly one entry per scheduler slot per cycle.  The
    traced golden holds Stats plus the buckets as ``issue.<reason>``."""
    abbr, technique, scale = TRACED_GOLDEN
    result = run_cell(abbr, technique, scale, config, trace=True)
    _assert_matches_golden(
        result, "traced_" + golden_name(abbr, technique, scale),
        traced_golden_view(result))
    buckets = stall_buckets(result)
    slots = result.cycles * config.num_sms * config.num_schedulers
    assert sum(buckets.values()) == slots
    assert set(buckets) <= set(STALL_REASONS)


def test_traced_equals_untraced():
    """The tracer is pure observation: same cell with and without tracing
    must produce identical Stats and issue-slot attribution."""
    abbr, technique, scale = TRACED_GOLDEN
    traced = run_cell(abbr, technique, scale, CONFIG, trace=True)
    plain = run_cell(abbr, technique, scale, CONFIG)
    diff = diff_stats(traced.stats.as_dict(), plain.stats.as_dict())
    assert not diff, "tracing changed timing:\n" + "\n".join(diff)
    assert traced.extra["stalls"] == plain.extra["stalls"]


def test_issue_window_ends_at_busy_until():
    """CS/baseline: a scheduler's last warp exits inside its two-cycle
    issue window, so the main loop skips past ``busy_until`` without a
    tick.  The window's tail is ``busy`` and the rest of the skipped span
    ``idle``: every issue opens exactly one busy cycle."""
    stalls = run_cell("CS", "baseline", "tiny", CONFIG).extra["stalls"]
    assert stalls["busy"] == stalls["issued"] == 179
