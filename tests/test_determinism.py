"""Determinism regressions: repeated simulations of the same launch are
bit-identical — cycle counts and every Stats counter — with and without
tracing, and tracing itself never perturbs the simulation."""

import pytest

from repro.harness.runner import TECHNIQUES, experiment_config, run_one
from repro.trace import Tracer

CONFIG = experiment_config(num_sms=2)


def fresh_run(technique, trace=None):
    return run_one("CP", technique, "tiny", CONFIG, use_cache=False,
                   trace=trace)


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_repeat_runs_identical(technique):
    a = fresh_run(technique)
    b = fresh_run(technique)
    assert a.cycles == b.cycles
    assert a.stats.as_dict() == b.stats.as_dict()


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_tracing_is_passive(technique):
    """A traced run is cycle-exact with an untraced one: the same Stats
    and the same issue-slot attribution."""
    plain = fresh_run(technique)
    traced = fresh_run(technique, trace=Tracer())
    assert traced.cycles == plain.cycles
    assert traced.stats.as_dict() == plain.stats.as_dict()
    assert traced.extra["stalls"] == plain.extra["stalls"]


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_repeat_traced_runs_identical(technique):
    ta, tb = Tracer(), Tracer()
    a = fresh_run(technique, trace=ta)
    b = fresh_run(technique, trace=tb)
    assert a.cycles == b.cycles
    assert a.stats.as_dict() == b.stats.as_dict()
    assert ta.events == tb.events
    assert ta.samples == tb.samples
    assert ta.warp_stalls == tb.warp_stalls
    assert a.extra["stalls"] == b.extra["stalls"]


def test_untraced_runs_carry_no_attribution():
    """The issue-slot attribution stays out of Stats (goldens and digests
    do not move) and rides on every result as ``extra["stalls"]``."""
    result = fresh_run("dac")
    assert not any(key.startswith("issue.") for key in result.stats.as_dict())
    assert sum(result.extra["stalls"].values()) == (
        result.cycles * CONFIG.num_sms * CONFIG.num_schedulers)
