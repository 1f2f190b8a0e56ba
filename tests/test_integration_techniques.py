"""Integration: every benchmark must produce bit-identical memory images
under baseline, CAE, MTA, and DAC (the functional cross-check the paper's
simulator gets for free from its functional front-end)."""

import numpy as np
import pytest

from repro.compiler.decouple import decouple
from repro.core import run_dac
from repro.sim import GPUConfig, simulate
from repro.workloads import BY_ABBR, get

CFG = GPUConfig(num_sms=2)


@pytest.mark.parametrize("abbr", sorted(BY_ABBR))
def test_all_techniques_agree(abbr):
    benchmark = get(abbr)
    reference = None
    for technique in ("baseline", "cae", "mta", "dac"):
        launch = benchmark.launch("tiny")
        if technique == "dac":
            run_dac(launch, CFG)
        else:
            simulate(launch, CFG.with_technique(technique))
        if reference is None:
            reference = launch.memory.words
        else:
            assert np.array_equal(reference, launch.memory.words), \
                f"{abbr}: {technique} diverged from baseline"


@pytest.mark.parametrize("abbr", ["LIB", "CP", "BP", "HI", "MT", "CS"])
def test_dac_stat_invariants(abbr):
    """Queue conservation: every record expanded is eventually dequeued,
    every lock released."""
    launch = get(abbr).launch("tiny")
    result = run_dac(launch, CFG)
    s = result.stats
    if not decouple(launch.kernel).is_decoupled:
        pytest.skip("not decoupled")
    assert s["dac.leftover_records"] == 0
    assert s["dac.affine_unfinished"] == 0
    assert s["dac.deq_loads"] == s["dac.affine_loads"]
    assert s["dac.deq_stores"] == s["dac.affine_store_records"]
    assert s["dac.deq_preds"] == s["dac.pred_records"]
    assert s["dac.deq_load_lines"] == s["dac.affine_load_lines"]


def test_perfect_memory_classification_runs():
    launch = get("LIB").launch("tiny")
    result = simulate(launch, CFG.with_perfect_memory())
    assert result.cycles > 0
