"""Tests for the claims gate (``repro figures claims``): its rules on
hand-built measurements, and that every figure prewarms what it reads."""

import pytest

from repro.cli import main
from repro.harness import FIGURES, clear_cache, configure_cache, runner
from repro.harness import claims
from repro.harness.claims import claims_ok, claims_report, evaluate
from repro.harness.runner import experiment_config, run_one

#: The paper's own numbers: every claim must hold on them.
PAPER = {
    "dac.all": 1.407, "dac.compute": 1.34, "dac.memory": 1.44,
    "cae.all": 1.05, "cae.compute": 1.11, "cae.memory": 1.0,
    "mta.all": 1.09, "mta.compute": 1.0, "mta.memory": 1.16,
    "dac.BFS": 1.0, "dac.BT": 1.0, "dac.SPV": 1.01, "dac.LBM": 1.01,
    "warp_instructions": 0.74, "replaced_per_affine": 9.0,
    "coverage.dac": 0.34, "coverage.cae": 0.25, "affine_loads": 0.798,
    "energy": 0.798, "area": 0.0106, "potential_affine": 0.5,
    "classes": 29, "classes_agree": 29,
    "refetches.locked": 0, "refetches.unlocked": 1,
}


def _status(measured, text):
    verdict, = [v for v in evaluate(measured) if v.claim.text == text]
    return verdict.status


def test_paper_values_hold_every_claim():
    verdicts = evaluate(PAPER)
    assert [v.status for v in verdicts] == ["holds"] * len(verdicts)
    assert claims_ok(verdicts)


def test_dac_below_cae_breaks_dac_best():
    measured = dict(PAPER, **{"dac.memory": 1.02, "cae.memory": 1.03})
    assert _status(measured, "DAC beats CAE and MTA on memory-bound code") \
        == "BROKEN"
    assert not claims_ok(evaluate(measured))


def test_mta_ahead_on_compute_breaks_dac_best():
    measured = dict(PAPER, **{"mta.compute": 1.5})
    assert _status(measured, "DAC beats CAE and MTA on compute-bound code") \
        == "BROKEN"
    # The row MTA's compute gain also breaks is a known deviation.
    assert _status(measured, "MTA gains nothing on compute-bound code") \
        == "deviation"
    assert not claims_ok(evaluate(measured))


def test_locked_refetch_breaks_line_locking():
    measured = dict(PAPER, **{"refetches.locked": 1})
    assert _status(measured,
                   "locked lines are never refetched (LIB, 4 KB L1)") \
        == "BROKEN"
    assert not claims_ok(evaluate(measured))


def test_known_deviation_does_not_fail_the_gate():
    measured = dict(PAPER, warp_instructions=0.81)
    assert _status(measured, "warp instructions, DAC vs baseline") \
        == "deviation"
    # Its direction still holds, and that row has no deviation to hide in.
    assert _status(measured, "DAC executes fewer warp instructions") \
        == "holds"
    assert claims_ok(evaluate(measured))
    assert not claims_ok(evaluate(dict(PAPER, warp_instructions=1.0)))


def test_a_ratio_must_keep_its_direction_and_factor():
    text = "DAC speedup, all 29 (geomean)"
    assert _status(dict(PAPER, **{"dac.all": 1.47}), text) == "holds"
    assert _status(dict(PAPER, **{"dac.all": 1.50}), text) == "BROKEN"
    assert _status(dict(PAPER, **{"dac.all": 1.30}), text) == "BROKEN"


def test_report_counts_and_names_deviations():
    text = claims_report(evaluate(dict(PAPER, **{"refetches.locked": 2,
                                                 "energy": 0.70})))
    first = text.splitlines()[0]
    assert first.endswith(f"{len(claims.CLAIMS) - 2} hold, 1 known "
                          "deviations, 1 broken")
    assert "2 (unlocked 1)" in text and "BROKEN" in text
    assert "Known deviations:" in text
    assert all(line == line.rstrip() for line in text.splitlines())


@pytest.mark.parametrize("measured, code", [
    (PAPER, 0), (dict(PAPER, **{"dac.all": 1.0}), 1)], ids=["holds", "breaks"])
def test_cli_exit_code(monkeypatch, capsys, measured, code):
    monkeypatch.setattr(claims, "measure", lambda scale, config: measured)
    assert main(["figures", "claims", "--no-cache"]) == code
    assert capsys.readouterr().out.startswith("Claims of the paper:")


class _Reads(dict):
    """The memo cache, recording every key a figure looks up."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = set()

    def __contains__(self, key):
        self.reads.add(key)
        return super().__contains__(key)


def test_every_figure_prewarms_what_it_reads(monkeypatch):
    """``--jobs N`` prewarms a figure's ``cells`` over the pool, then
    formats it serially: a cell it reads but does not list would be
    simulated serially after the pool is gone."""
    config = experiment_config(num_sms=2)
    configure_cache(enabled=False)
    clear_cache()
    try:
        for abbr, tech, cfg in claims.claims_cells(config):
            run_one(abbr, tech, "tiny", cfg)
        cache = _Reads(runner._cache)
        monkeypatch.setattr(runner, "_cache", cache)
        simulated = []
        monkeypatch.setattr(runner, "simulate_launch",
                            lambda *args: simulated.append(args))
        readers = {name: (lambda f=fig: f.report("tiny", config),
                          fig.cells(config))
                   for name, fig in FIGURES.items()}
        readers["claims"] = (lambda: claims.measure("tiny", config),
                             claims.claims_cells(config))
        for name, (read, cells) in readers.items():
            cache.reads.clear()
            read()
            listed = {(abbr, tech, "tiny", cfg) for abbr, tech, cfg in cells}
            assert cache.reads <= listed, name
        assert simulated == []
    finally:
        monkeypatch.undo()
        clear_cache()
