"""Golden-Stats regression matrix: bit-identity against committed fixtures.

Every cell of the perf harness's golden matrix (six workloads x four
techniques, tiny scale) plus one traced and one fault-injected run must
reproduce the committed Stats under ``tests/goldens/stats`` exactly.  A
diff here means the timing semantics changed — that is never a refactor,
and the goldens must only be regenerated (tests/goldens/generate.py) for
an intentional model change that the commit message calls out.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec, RuntimeCheckers
from repro.harness.bench import (
    FAULT_GOLDEN,
    GOLDEN_MATRIX,
    TRACED_GOLDEN,
    diff_stats,
    golden_name,
    load_golden,
    run_cell,
)
from repro.harness.runner import experiment_config
from repro.trace import STALL_REASONS, stall_buckets

CONFIG = experiment_config()

#: The one configuration every golden runs under, with the test-id of the
#: datapath it exercises (bool-array lanes, per-warp issue walk).  The ids
#: name that datapath so the checks keep the ids they had when other
#: datapaths were parametrized beside it.
MATRIX_CONFIG = pytest.mark.parametrize("config", [CONFIG],
                                        ids=["scalar-walk"])
RUN_CONFIG = pytest.mark.parametrize("config", [CONFIG], ids=["scalar"])


def _assert_matches_golden(result, name):
    golden = load_golden(name)
    assert golden is not None, (
        f"missing golden {name!r}; run tests/goldens/generate.py")
    diff = diff_stats(result.stats.as_dict(), golden)
    assert not diff, "Stats diverged from golden:\n" + "\n".join(diff)


@MATRIX_CONFIG
@pytest.mark.parametrize("abbr,technique,scale", GOLDEN_MATRIX,
                         ids=[golden_name(*cell) for cell in GOLDEN_MATRIX])
def test_matrix_cell_matches_golden(abbr, technique, scale, config):
    result = run_cell(abbr, technique, scale, config)
    _assert_matches_golden(result, golden_name(abbr, technique, scale))


@RUN_CONFIG
def test_traced_run_matches_golden_and_keeps_stall_invariant(config):
    """Tracing must not perturb timing, and the stall-attribution buckets
    must still sum to exactly one entry per scheduler slot per cycle."""
    abbr, technique, scale = TRACED_GOLDEN
    result = run_cell(abbr, technique, scale, config, trace=True)
    _assert_matches_golden(
        result, "traced_" + golden_name(abbr, technique, scale))
    buckets = stall_buckets(result.stats)
    slots = result.cycles * config.num_sms * config.num_schedulers
    assert sum(buckets.values()) == slots
    assert set(buckets) <= set(STALL_REASONS)


def test_traced_equals_untraced():
    """The tracer is pure observation: same cell with and without tracing
    must produce identical Stats (modulo the trace-only ``issue.*``
    stall-attribution buckets, which only a tracing run records)."""
    abbr, technique, scale = TRACED_GOLDEN
    traced = run_cell(abbr, technique, scale, CONFIG, trace=True).stats
    plain = run_cell(abbr, technique, scale, CONFIG).stats
    traced_dict = {k: v for k, v in traced.as_dict().items()
                   if not k.startswith("issue.")}
    plain_dict = {k: v for k, v in plain.as_dict().items()
                  if not k.startswith("issue.")}
    diff = diff_stats(traced_dict, plain_dict)
    assert not diff, "tracing changed timing:\n" + "\n".join(diff)


@RUN_CONFIG
def test_fault_injected_run_matches_golden(config):
    abbr, technique, scale = FAULT_GOLDEN
    plan = FaultPlan(specs=(FaultSpec("expand_delay", 0, 4),
                            FaultSpec("dram_delay", 0, 8)))
    result = run_cell(abbr, technique, scale, config,
                      faults=FaultInjector(plan), checkers=RuntimeCheckers())
    _assert_matches_golden(
        result, "fault_" + golden_name(abbr, technique, scale))
