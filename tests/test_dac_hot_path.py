"""The DAC launch path verifies structurally; semantic certification is a
compile-time gate.

``run_dac`` runs only the structural half of :func:`verify` on the program
it decouples.  The symbolic certifier's verdict depends only on the kernel,
so it runs in ``repro certify``, ``repro lint`` and ``repro decouple``
instead of on every simulation.  ``repro certify`` certifies each
workload's kernel once, which covers every simulated launch only because
no registry kernel depends on the launch scale — pinned here too.
"""

import pytest

import repro.core
from repro.analysis import certify
from repro.harness.bench import diff_stats, golden_name, load_golden
from repro.harness.experiments import ALL_ORDER
from repro.harness.runner import experiment_config
from repro.workloads import get


def test_run_dac_never_reaches_the_certifier(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_dac called the semantic certifier")

    monkeypatch.setattr(certify, "certify_program", refuse)
    result = repro.core.run_dac(get("ST").launch("tiny"), experiment_config())
    golden = load_golden(golden_name("ST", "dac", "tiny"))
    assert golden is not None
    diff = diff_stats(result.stats.as_dict(), golden)
    assert not diff, "Stats diverged from golden:\n" + "\n".join(diff)


@pytest.mark.parametrize("abbr", ALL_ORDER)
def test_registry_kernel_is_scale_independent(abbr):
    workload = get(abbr)
    assert (workload.launch("tiny").kernel.source()
            == workload.launch("paper").kernel.source())
